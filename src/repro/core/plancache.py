"""Decoded execution plans: the trace compiler's view of one IM slot.

The IM is effectively immutable between console/bootstrap writes, so
what the interpreter re-derives about a microinstruction every cycle --
BSelect constant-ness, ASelect reference kind, Hold relevance,
NextControl type, FF classification -- can be derived once per slot.
Following the cycle-accurate-simulator-generation literature (Reshadi &
Dutt, PAPERS.md), the first fetch of an IM address *compiles* it into a
flat :class:`ExecutionPlan` -- plain ints and bools in ``__slots__``,
with every PC-relative NEXTPC target precomputed (plans are per-slot,
so THISPC is a compile-time constant).  A plan executes nothing itself:
:mod:`repro.core.tracecache` folds its fields into the generated source
of the plan tier's one-cycle steps and of the traced tier's regions.

Invalidation (the paper's section 6.2.3 write paths): code compiled
from a slot must never run after the slot is rewritten, so any IM
rewrite takes the machine out of its fork family, whose tables hold
that code (:class:`~repro.core.tracecache.CodeFamily`).  All three write paths
funnel through ``im[address] = ...`` on the processor's
:class:`MicrostoreImage` -- ``Console.im_write_high`` (microcode FF
writes, which is also how the :mod:`repro.asm.bootstrap` resident
loader stores words), host-side ``load_image``, and direct assignments
from tests or debuggers -- so the instrumented list is the single choke
point, and the console calls the same hook explicitly for
belt-and-braces coverage.

The plan encodes *static* facts only.  Dynamic state -- SHIFTCTL,
RBASE/MEMBASE, the bypass latch -- is still read by the generated code
at execution time, which is what keeps the compiled tiers
observationally equivalent to the interpretive one
(``tests/test_fastpath_parity.py`` proves it bit-identical, counters
and cycle counts included).  The slot's ALUFM entry is folded into the
generated code, which is why FF ``ALUFM_WRITE`` switches the machine
to other tables.

The compiled Hold flags (``hold_fastio``, ``hold_md``,
``hold_nextmacro``) map one-to-one onto the processor's hold-cause
codes (:data:`~repro.core.counters.HOLD_STORAGE` /
:data:`~repro.core.counters.HOLD_MD` /
:data:`~repro.core.counters.HOLD_IFU`), and the generated code checks
them in the interpreter's priority order, so hold-cause attribution is
parity-safe.
"""

from __future__ import annotations

from typing import Callable

from . import functions
from .functions import FF
from .microword import (
    ASel,
    BSel,
    MicroInstruction,
    Misc,
    NextControl,
    NextType,
    constant_value,
)

# --- B-bus source codes (plan.b_kind) ---------------------------------------
B_CONST = 0
B_RM = 1
B_T = 2
B_Q = 3
B_EXTB = 4

# --- A-bus source codes (plan.a_kind) ---------------------------------------
A_RM = 0
A_T = 1
A_IFU = 2      #: IFUDATA (consumes the operand on commit)
A_MD = 3       #: MEMDATA as of this instruction's operand fetch
A_Q = 4

# --- EXTB source codes (plan.extb_kind); 0 = take the generic slow path ----
EXTB_OTHER = 0   #: CPREG, THISTASK, INPUT, FAULTS, or a non-EXTB FF (raises)
EXTB_MD = 1
EXTB_IFUDATA = 2
EXTB_LINK = 4
EXTB_IFUPC = 5

# --- memory-reference kinds (plan.ref_kind) ---------------------------------
REF_NONE = 0
REF_FETCH = 1
REF_STORE = 2
REF_IOFETCH = 3
REF_IOSTORE = 4
REF_BAD = 5      #: IOFETCH/IOSTORE with a mismatched ASelect: raise via
                 #: the interpretive _start_reference for the exact error

# --- RESULT-override kinds (plan.res_kind) ----------------------------------
RES_NONE = 0
RES_SHIFT_OUT = 1
RES_SHIFT_MASKZ = 2
RES_SHIFT_MASKMD = 3
RES_LSH = 4
RES_RSH = 5
RES_OTHER = 6    #: the READ_* family, via the interpretive _result_override

# --- NEXTPC kinds (plan.next_kind) ------------------------------------------
NEXT_STATIC = 0      #: GOTO / IDLE: next_target is the whole answer
NEXT_BRANCH = 1      #: next_target (false) | condition
NEXT_CALL = 2        #: LINK <- link_value; jump to next_target (CALL/CALL_FF)
NEXT_RETURN = 3      #: swap LINK and NEXTPC (RETURN / RETURN_CALL)
NEXT_MACRO = 4       #: take the IFU dispatch
NEXT_DISPATCH8 = 5   #: (next_target + (B & 7)) & im_mask
NEXT_DISPATCH256 = 6  #: (next_target + (B & 0xFF)) & im_mask
NEXT_NOTIFY = 7      #: next_target, plus a console notification
NEXT_BAD = 8         #: mis-encoded: re-run ControlSection.compute to raise

#: FF codes that have no side effect in _apply_ff (beyond what the
#: operand-read / RESULT-override / NEXTPC stages already did), so
#: generated code can skip the call entirely.
_NO_EFFECT_FFS = (
    frozenset(
        {
            int(FF.NOP),
            int(FF.A_Q),
            int(FF.A_IFUDATA),
            int(FF.A_MD),
            int(FF.IOFETCH),
            int(FF.IOSTORE),
        }
    )
    | frozenset(range(functions.BRANCH_PAIR_BASE, functions.FIXED_BASE))
    | frozenset(int(ff) for ff in functions.RESULT_SOURCES)
    | frozenset(int(ff) for ff in functions.EXTB_SELECTORS)
)

_RES_KINDS = {
    int(FF.SHIFT_OUT): RES_SHIFT_OUT,
    int(FF.SHIFT_MASKZ): RES_SHIFT_MASKZ,
    int(FF.SHIFT_MASKMD): RES_SHIFT_MASKMD,
    int(FF.RESULT_LSH): RES_LSH,
    int(FF.RESULT_RSH): RES_RSH,
}

_EXTB_KINDS = {
    int(FF.EXTB_MEMDATA): EXTB_MD,
    int(FF.EXTB_IFUDATA): EXTB_IFUDATA,
    int(FF.EXTB_LINK): EXTB_LINK,
    int(FF.EXTB_IFUPC): EXTB_IFUPC,
}

#: FF codes whose use of MEMDATA makes the instruction Hold until the
#: task's reference completes (mirrors Processor._check_hold).
_MD_HOLD_FFS = frozenset(
    {int(FF.SHIFT_MASKMD), int(FF.EXTB_MEMDATA), int(FF.OUTPUT_MD), int(FF.A_MD)}
)


class ExecutionPlan:
    """One IM slot, compiled: flat fields the trace compiler folds in."""

    __slots__ = (
        "inst",
        "ff",
        "ff_is_function",
        "ff_effect",
        "aluop",
        "rsel",
        "block",
        "stack_delta",
        "loads_rm",
        "loads_t",
        "hold_none",
        "hold_fastio",
        "hold_md",
        "hold_nextmacro",
        "b_kind",
        "b_const",
        "extb_kind",
        "a_kind",
        "consumes_ifu",
        "ref_kind",
        "cond",
        "res_kind",
        "next_kind",
        "next_target",
        "link_value",
    )

    inst: MicroInstruction
    ff: int
    ff_is_function: bool
    ff_effect: bool
    aluop: int
    rsel: int
    block: bool
    stack_delta: int
    loads_rm: bool
    loads_t: bool
    hold_none: bool
    hold_fastio: bool
    hold_md: bool
    hold_nextmacro: bool
    b_kind: int
    b_const: int
    extb_kind: int
    a_kind: int
    consumes_ifu: bool
    ref_kind: int
    cond: int
    res_kind: int
    next_kind: int
    next_target: int
    link_value: int


def compile_plan(inst: MicroInstruction, pc: int, control) -> ExecutionPlan:
    """Flatten *inst* (living at IM address *pc*) into an ExecutionPlan.

    Only *control*'s page geometry (``page_size``, ``im_mask``) is
    read: a ``ControlSection``, or the ``Composition`` code is made for.
    """
    plan = ExecutionPlan()
    plan.inst = inst
    ff = plan.ff = inst.ff
    bsel = inst.bsel
    asel = inst.asel
    ff_is_function = plan.ff_is_function = not bsel.is_constant
    plan.aluop = inst.aluop
    plan.rsel = inst.rsel
    plan.block = inst.block
    plan.stack_delta = inst.stack_delta
    lc = inst.lc
    plan.loads_rm = lc.loads_rm
    plan.loads_t = lc.loads_t

    # --- B bus.
    plan.b_const = 0
    plan.extb_kind = EXTB_OTHER
    if bsel.is_constant:
        plan.b_kind = B_CONST
        plan.b_const = constant_value(bsel, ff)
    elif bsel == BSel.RM:
        plan.b_kind = B_RM
    elif bsel == BSel.T:
        plan.b_kind = B_T
    elif bsel == BSel.Q:
        plan.b_kind = B_Q
    else:
        plan.b_kind = B_EXTB
        plan.extb_kind = _EXTB_KINDS.get(ff, EXTB_OTHER)

    # --- A bus (FF overrides first, as in _execute).
    if ff_is_function and ff == FF.A_Q:
        plan.a_kind = A_Q
    elif ff_is_function and ff == FF.A_IFUDATA:
        plan.a_kind = A_IFU
    elif ff_is_function and ff == FF.A_MD:
        plan.a_kind = A_MD
    elif asel in (ASel.RM, ASel.RM_FETCH, ASel.RM_STORE):
        plan.a_kind = A_RM
    elif asel in (ASel.T, ASel.T_FETCH, ASel.T_STORE):
        plan.a_kind = A_T
    elif asel == ASel.IFUDATA:
        plan.a_kind = A_IFU
    else:
        plan.a_kind = A_MD

    plan.consumes_ifu = plan.a_kind == A_IFU or (
        plan.b_kind == B_EXTB and ff == FF.EXTB_IFUDATA
    )

    # --- memory-reference start.
    is_fast_io = ff_is_function and ff in (FF.IOFETCH, FF.IOSTORE)
    if not asel.starts_reference:
        plan.ref_kind = REF_NONE
    elif is_fast_io:
        if ff == FF.IOFETCH:
            plan.ref_kind = REF_IOFETCH if asel.starts_fetch else REF_BAD
        else:
            plan.ref_kind = REF_IOSTORE if asel.starts_store else REF_BAD
    elif asel.starts_fetch:
        plan.ref_kind = REF_FETCH
    else:
        plan.ref_kind = REF_STORE

    # --- Hold relevance (mirrors _check_hold).
    plan.hold_fastio = asel.starts_reference and is_fast_io
    plan.hold_md = asel.uses_memdata or (ff_is_function and ff in _MD_HOLD_FFS)
    nc_kind = NextControl.kind(inst.nc)
    payload = NextControl.payload(inst.nc)
    plan.hold_nextmacro = (
        nc_kind == NextType.MISC and Misc(payload >> 3) == Misc.NEXTMACRO
    )
    plan.hold_none = not (plan.hold_fastio or plan.hold_md or plan.hold_nextmacro)

    # --- late branch condition.
    plan.cond = (
        int(NextControl.branch_condition(inst.nc))
        if nc_kind == NextType.BRANCH
        else -1
    )

    # --- RESULT override.
    plan.res_kind = RES_NONE
    if ff_is_function:
        kind = _RES_KINDS.get(ff)
        if kind is not None:
            plan.res_kind = kind
        elif ff in functions.RESULT_SOURCES:
            plan.res_kind = RES_OTHER

    # --- FF side effect.
    plan.ff_effect = ff_is_function and ff not in _NO_EFFECT_FFS

    # --- NEXTPC (THISPC is static here, so precompute every target).
    page_size = control.page_size
    im_mask = control.im_mask
    page_base = pc & ~(page_size - 1)
    plan.next_target = 0
    plan.link_value = (pc + 1) & im_mask

    def goto_target() -> int:
        if ff_is_function and functions.is_jump_page(ff):
            page = functions.bank_argument(ff)
            return ((page * page_size) | (payload & (page_size - 1))) & im_mask
        return page_base | (payload & (page_size - 1))

    if nc_kind == NextType.GOTO:
        plan.next_kind = NEXT_STATIC
        plan.next_target = goto_target()
    elif nc_kind == NextType.CALL:
        plan.next_kind = NEXT_CALL
        plan.next_target = goto_target()
    elif nc_kind == NextType.BRANCH:
        if ff_is_function and functions.is_branch_pair(ff):
            pair = functions.bank_argument(ff)
        else:
            pair = NextControl.branch_pair(inst.nc)
        plan.next_kind = NEXT_BRANCH
        plan.next_target = page_base + pair * 2
    else:  # MISC
        code = Misc(payload >> 3)
        arg = payload & 0x7
        has_jump_page = ff_is_function and functions.is_jump_page(ff)
        if code in (Misc.RETURN, Misc.RETURN_CALL):
            plan.next_kind = NEXT_RETURN
        elif code == Misc.NEXTMACRO:
            plan.next_kind = NEXT_MACRO
        elif code == Misc.DISPATCH8:
            plan.next_kind = NEXT_DISPATCH8
            plan.next_target = page_base + arg * 8
        elif code == Misc.DISPATCH256:
            if has_jump_page:
                plan.next_kind = NEXT_DISPATCH256
                plan.next_target = (functions.bank_argument(ff) * page_size) & ~0xFF
            else:
                plan.next_kind = NEXT_BAD
        elif code == Misc.CALL_FF:
            if has_jump_page:
                plan.next_kind = NEXT_CALL
                page = functions.bank_argument(ff)
                plan.next_target = (
                    (page * page_size) | (arg & (page_size - 1))
                ) & im_mask
            else:
                plan.next_kind = NEXT_BAD
        elif code == Misc.IDLE:
            plan.next_kind = NEXT_STATIC
            plan.next_target = pc
        else:  # NOTIFY
            plan.next_kind = NEXT_NOTIFY
            plan.next_target = (pc + 1) & im_mask

    return plan


class MicrostoreImage(list):
    """The IM word array, instrumented so writes invalidate compiled code.

    Every IM write path -- :meth:`Console.im_write_high`, host-side
    ``load_image``, the bootstrap loader's FF writes, and direct
    ``cpu.im[addr] = inst`` pokes from tests and debuggers -- ends in a
    ``__setitem__`` here, which takes the machine out of its fork
    family and so away from what was compiled from the slot.
    """

    def __init__(self, size: int, on_write: Callable[[object], None]) -> None:
        super().__init__([None] * size)
        self._on_write = on_write

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._on_write(index)
