"""Workload generators: byte-code programs for the four emulators.

Each builder returns a :class:`Workload`: the machine it booted, loaded
and initialized, plus an oracle that checks the architectural result on
whichever machine it is handed.  ``run()`` executes the builder's
machine to the HALT byte code and verifies it, so benchmark numbers are
only reported for runs that computed the right answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..asm.assembler import Assembler
from ..config import MachineConfig, PRODUCTION
from ..core.functions import FF
from ..core.processor import Processor
from ..emulators import bcpl, lisp, mesa, smalltalk
from ..emulators.isa import BytecodeAssembler
from ..errors import EmulatorError


@dataclass(frozen=True)
class SliceResult:
    """Outcome of one bounded slice of execution.

    The machine either reached HALT (``halted``) or spent its whole
    cycle budget with work remaining (``exhausted``) -- a budget-capped
    run is a scheduling event, not an error, so sliced callers (the
    session service, the CLI's max-cycles loop) can decide whether to
    grant another slice.
    """

    cycles: int
    halted: bool

    @property
    def exhausted(self) -> bool:
        return not self.halted


@dataclass(frozen=True)
class Workload:
    """A booted emulator scenario with a correctness oracle.

    ``cpu`` is the machine the builder booted.  The oracle ``verify``
    reads its answer from the machine it is handed, so one workload
    checks any machine forked from that boot: a session hands it the
    machine the session owns (DESIGN.md 5.9).
    """

    name: str
    cpu: Processor
    verify: Callable[[Processor], bool]
    meta: Dict[str, int] = field(default_factory=dict)

    def run_slice(self, cycles: int) -> SliceResult:
        """Advance at most *cycles* simulated cycles; report the outcome."""
        ran = self.cpu.run(cycles)
        return SliceResult(cycles=ran, halted=self.cpu.halted)

    def run(self, max_cycles: int = 5_000_000) -> int:
        result = self.run_slice(max_cycles)
        if not result.halted:
            raise EmulatorError(f"workload {self.name} did not halt")
        if not self.verify(self.cpu):
            raise EmulatorError(f"workload {self.name} computed a wrong result")
        return result.cycles


#: The largest value a WORD literal operand carries.  The count-down
#: loops test their count at the bottom, so it runs 1..WORD_MAX.
WORD_MAX = 0xFFFF
#: Lisp cons cells (4 words each) fit between HEAP_VA and the top of the
#: 16-bit address space.
LISP_HEAP_CELLS = (0x10000 - lisp.HEAP_VA) // 4


def arg_ranges(**ranges: Tuple[Optional[int], Optional[int]]):
    """Declare a builder's arguments and each one's valid closed range
    ``(low, high)`` (``None``: unbounded on that side).

    Outside its range an argument does not fit its operand, or the
    program would compute something other than what ``verify`` checks;
    :func:`repro.service.session.check_open_request` refuses it before
    any machine is built.
    """

    def declare(builder):
        builder.arg_ranges = ranges
        return builder

    return declare


# --------------------------------------------------------------------------
# Mesa
# --------------------------------------------------------------------------

@arg_ranges(n=(1, WORD_MAX))
def mesa_loop_sum(n: int = 200, config: MachineConfig = PRODUCTION) -> Workload:
    """Load/store/branch-heavy loop: sum 1..n into local 0."""
    ctx = mesa.build_mesa_machine(config)
    b = BytecodeAssembler(ctx.table)
    b.op("LIT", 0); b.op("SL", 0)
    b.op("LITW", n); b.op("SL", 1)
    b.label("loop")
    b.op("LL", 0); b.op("LL", 1); b.op("ADD"); b.op("SL", 0)
    b.op("LL", 1); b.op("LIT", 1); b.op("SUB"); b.op("SL", 1)
    b.op("LL", 1); b.op("JNZ", "loop")
    b.op("HALT")
    ctx.load_program(b.assemble())
    expected = n * (n + 1) // 2 & 0xFFFF
    return Workload(
        "mesa_loop_sum", ctx.cpu,
        lambda cpu: cpu.memory.debug_read(mesa.FRAMES_VA + 2) == expected,
        {"macros": 10 * n + 5},
    )


# Recursion depth k: one 16-word frame per level, and the frame stack
# (FRAMES_VA..FRAMES_LIMIT, less one frame of headroom) holds 255.
@arg_ranges(k=(0, (mesa.FRAMES_LIMIT - mesa.FRAMES_VA) // mesa.FRAME_SIZE - 1))
def mesa_fib(k: int = 12, config: MachineConfig = PRODUCTION) -> Workload:
    """Call-heavy recursion: fib(k) via FC/ENTER/RET."""
    ctx = mesa.build_mesa_machine(config)
    b = BytecodeAssembler(ctx.table)
    b.op("LITW", k); b.op("FC", "fib"); b.op("SL", 0); b.op("HALT")
    b.label("fib")
    b.op("ENTER", 1)
    b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("JNEG", "base")
    b.op("LL", 0); b.op("LIT", 1); b.op("SUB"); b.op("FC", "fib"); b.op("SL", 1)
    b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("FC", "fib")
    b.op("LL", 1); b.op("ADD"); b.op("RET")
    b.label("base")
    b.op("LL", 0); b.op("RET")
    ctx.load_program(b.assemble())

    def fib(x):
        a, bb = 0, 1
        for _ in range(x):
            a, bb = bb, a + bb
        return a

    expected = fib(k) & 0xFFFF
    return Workload(
        "mesa_fib", ctx.cpu,
        lambda cpu: cpu.memory.debug_read(mesa.FRAMES_VA + 2) == expected,
    )


# Two elements at least (one pass compares a pair); the array runs from
# 0x3800 up to the frame stack.  The seed only primes a host-side LCG.
@arg_ranges(n=(2, mesa.FRAMES_VA - 0x3800), seed=(None, None))
def mesa_bubble_sort(
    n: int = 16, seed: int = 1, config: MachineConfig = PRODUCTION
) -> Workload:
    """Array-heavy composite kernel: bubble sort via AL/AS/LT.

    locals: 0=i, 1=j, 2=a[j], 3=a[j+1]; the array lives at ARRAY_VA.
    """
    array_va = 0x3800
    ctx = mesa.build_mesa_machine(config)
    b = BytecodeAssembler(ctx.table)
    b.op("LITW", n - 1); b.op("SL", 0)               # i = n-1
    b.label("outer")
    b.op("LIT", 0); b.op("SL", 1)                     # j = 0
    b.label("inner")
    b.op("LITW", array_va); b.op("LL", 1); b.op("AL"); b.op("SL", 2)
    b.op("LL", 1); b.op("INC"); b.op("SL", 4)
    b.op("LITW", array_va); b.op("LL", 4); b.op("AL"); b.op("SL", 3)
    b.op("LL", 3); b.op("LL", 2); b.op("LT"); b.op("JZ", "noswap")
    b.op("LITW", array_va); b.op("LL", 1); b.op("LL", 3); b.op("AS")
    b.op("LITW", array_va); b.op("LL", 4); b.op("LL", 2); b.op("AS")
    b.label("noswap")
    b.op("LL", 1); b.op("INC"); b.op("SL", 1)
    b.op("LL", 1); b.op("LL", 0); b.op("LT"); b.op("JNZ", "inner")
    b.op("LL", 0); b.op("LIT", 1); b.op("SUB"); b.op("SL", 0)
    b.op("LL", 0); b.op("JNZ", "outer")
    b.op("HALT")
    ctx.load_program(b.assemble())

    state = seed or 1
    values = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFF
        values.append(state)
    for i, v in enumerate(values):
        ctx.set_memory_word(array_va + i, v)
    expected = sorted(values)

    def check(cpu: Processor) -> bool:
        return [
            cpu.memory.debug_read(array_va + i) for i in range(n)
        ] == expected

    return Workload("mesa_bubble_sort", ctx.cpu, check)


@arg_ranges(iters=(1, WORD_MAX))
def mesa_mul_kernel(iters: int = 40, config: MachineConfig = PRODUCTION) -> Workload:
    """Hardware multiply steps: sum of i*i for i in 1..iters (mod 2^16)."""
    ctx = mesa.build_mesa_machine(config)
    b = BytecodeAssembler(ctx.table)
    b.op("LIT", 0); b.op("SL", 0)
    b.op("LITW", iters); b.op("SL", 1)
    b.label("loop")
    b.op("LL", 1); b.op("LL", 1); b.op("MUL")
    b.op("LL", 0); b.op("ADD"); b.op("SL", 0)
    b.op("LL", 1); b.op("LIT", 1); b.op("SUB"); b.op("SL", 1)
    b.op("LL", 1); b.op("JNZ", "loop")
    b.op("HALT")
    ctx.load_program(b.assemble())
    expected = sum(i * i for i in range(1, iters + 1)) & 0xFFFF
    return Workload(
        "mesa_mul_kernel", ctx.cpu,
        lambda cpu: cpu.memory.debug_read(mesa.FRAMES_VA + 2) == expected,
    )


@arg_ranges(iters=(1, WORD_MAX))
def mesa_field_kernel(iters: int = 100, config: MachineConfig = PRODUCTION) -> Workload:
    """Field read/modify/write on a packed record (RF/WF/SETF)."""
    ctx = mesa.build_mesa_machine(config)
    record_va = 0x3100
    # Field: bits 4..9 (position 4, width 6) of record word 0.
    read_spec = mesa.field_spec(4, 6)
    write_spec = mesa.insert_spec(4, 6)
    b = BytecodeAssembler(ctx.table)
    b.op("LITW", iters); b.op("SL", 1)
    b.label("loop")
    b.op("SETF", read_spec)
    b.op("LITW", record_va); b.op("RF", 0)      # push field
    b.op("INC")                                  # field + 1
    b.op("SETF", write_spec)
    b.op("LITW", record_va); b.op("WF", 0)      # write it back (pops val, ptr)
    b.op("LL", 1); b.op("LIT", 1); b.op("SUB"); b.op("SL", 1)
    b.op("LL", 1); b.op("JNZ", "loop")
    b.op("HALT")
    ctx.load_program(b.assemble())
    ctx.set_memory_word(record_va, 0x8003)  # field starts at 0

    def check(cpu: Processor) -> bool:
        value = cpu.memory.debug_read(record_va)
        fld = (value >> 4) & 0x3F
        untouched = value & ~(0x3F << 4) & 0xFFFF
        return fld == (iters & 0x3F) and untouched == 0x8003

    return Workload("mesa_field_kernel", ctx.cpu, check)


# --------------------------------------------------------------------------
# Lisp
# --------------------------------------------------------------------------

@arg_ranges(n=(1, LISP_HEAP_CELLS))
def lisp_list_sum(n: int = 50, config: MachineConfig = PRODUCTION) -> Workload:
    """CAR/CDR walk summing an n-element list."""
    ctx = lisp.build_lisp_machine(config)
    b = BytecodeAssembler(ctx.table)
    s_l, s_t = lisp.symbol_operand(0), lisp.symbol_operand(1)
    b.op("LIN", 0); b.op("SLV", s_t)
    b.label("loop")
    b.op("LLV", s_l); b.op("JNIL", "done")
    b.op("LLV", s_t); b.op("LLV", s_l); b.op("CAR"); b.op("ADDL"); b.op("SLV", s_t)
    b.op("LLV", s_l); b.op("CDR"); b.op("SLV", s_l)
    b.op("JMPL", "loop")
    b.label("done")
    b.op("HALTL")
    ctx.load_program(b.assemble())
    head = lisp.build_list(ctx, range(1, n + 1))
    lisp.set_symbol_value(ctx, 0, lisp.TAG_PAIR, head)
    expected = (lisp.TAG_INT, n * (n + 1) // 2 & 0xFFFF)
    return Workload(
        "lisp_list_sum", ctx.cpu,
        lambda cpu: lisp.symbol_value(cpu, 1) == expected,
    )


@arg_ranges(iters=(1, WORD_MAX))
def lisp_call_kernel(
    iters: int = 20, config: MachineConfig = PRODUCTION
) -> Workload:
    """Function calls with two bound arguments, repeated *iters* times."""
    ctx = lisp.build_lisp_machine(config)
    b = BytecodeAssembler(ctx.table)
    s_x, s_y = lisp.symbol_operand(2), lisp.symbol_operand(3)
    s_acc, s_i = lisp.symbol_operand(0), lisp.symbol_operand(1)
    fn_sym = 4
    b.op("LIN", 0); b.op("SLV", s_acc)
    b.op("LIN", iters); b.op("SLV", s_i)
    b.label("loop")
    b.op("LLV", s_acc); b.op("LIN", 3)
    b.op("CALLL", lisp.symbol_operand(fn_sym))
    b.op("SLV", s_acc)
    b.op("LLV", s_i); b.op("LIN", 1); b.op("SUBL"); b.op("SLV", s_i)
    b.op("LLV", s_i); b.op("JZL", "done")
    b.op("JMPL", "loop")
    b.label("done")
    b.op("HALTL")
    b.label("fn")
    b.op("BIND", s_y); b.op("BIND", s_x)
    b.op("LLV", s_x); b.op("LLV", s_y); b.op("ADDL")
    b.op("RETL")
    ctx.load_program(b.assemble())
    lisp.define_function(ctx, fn_sym, b.address_of("fn"))
    lisp.set_symbol_value(ctx, 2, lisp.TAG_INT, 0)
    lisp.set_symbol_value(ctx, 3, lisp.TAG_INT, 0)
    expected = (lisp.TAG_INT, (3 * iters) & 0xFFFF)
    return Workload(
        "lisp_call_kernel", ctx.cpu,
        lambda cpu: lisp.symbol_value(cpu, 0) == expected,
    )


@arg_ranges(n=(1, LISP_HEAP_CELLS))
def lisp_cons_kernel(n: int = 30, config: MachineConfig = PRODUCTION) -> Workload:
    """Build an n-element list with CONS, then measure its sum."""
    ctx = lisp.build_lisp_machine(config)
    b = BytecodeAssembler(ctx.table)
    s_l, s_i, s_t = (lisp.symbol_operand(k) for k in (0, 1, 2))
    b.op("NILP"); b.op("SLV", s_l)
    b.op("LIN", n); b.op("SLV", s_i)
    b.label("build")
    b.op("LLV", s_i); b.op("LLV", s_l); b.op("CONS"); b.op("SLV", s_l)
    b.op("LLV", s_i); b.op("LIN", 1); b.op("SUBL"); b.op("SLV", s_i)
    b.op("LLV", s_i); b.op("JZL", "sum")
    b.op("JMPL", "build")
    b.label("sum")
    b.op("LIN", 0); b.op("SLV", s_t)
    b.label("loop")
    b.op("LLV", s_l); b.op("JNIL", "done")
    b.op("LLV", s_t); b.op("LLV", s_l); b.op("CAR"); b.op("ADDL"); b.op("SLV", s_t)
    b.op("LLV", s_l); b.op("CDR"); b.op("SLV", s_l)
    b.op("JMPL", "loop")
    b.label("done")
    b.op("HALTL")
    ctx.load_program(b.assemble())
    expected = (lisp.TAG_INT, n * (n + 1) // 2 & 0xFFFF)
    return Workload(
        "lisp_cons_kernel", ctx.cpu,
        lambda cpu: lisp.symbol_value(cpu, 2) == expected,
    )


# --------------------------------------------------------------------------
# BCPL and Smalltalk
# --------------------------------------------------------------------------

@arg_ranges(n=(1, WORD_MAX))
def bcpl_loop_sum(n: int = 200, config: MachineConfig = PRODUCTION) -> Workload:
    ctx = bcpl.build_bcpl_machine(config)
    b = BytecodeAssembler(ctx.table)
    b.op("LDI", 0); b.op("STA", 0)
    b.op("LDI", n); b.op("STA", 1)
    b.label("loop")
    b.op("LDA", 0); b.op("ADDA", 1); b.op("STA", 0)
    b.op("LDA", 1); b.op("DECA"); b.op("STA", 1)
    b.op("JNZA", "loop")
    b.op("HALTA")
    ctx.load_program(b.assemble())
    expected = n * (n + 1) // 2 & 0xFFFF
    return Workload(
        "bcpl_loop_sum", ctx.cpu,
        lambda cpu: bcpl.static_value(cpu, 0) == expected,
    )


# The loop tests at the top, so zero sends is a valid (empty) run.
@arg_ranges(sends=(0, WORD_MAX))
def smalltalk_counter(sends: int = 50, config: MachineConfig = PRODUCTION) -> Workload:
    """Message-send benchmark: `counter add: 5` *sends* times."""
    ctx = smalltalk.build_smalltalk_machine(config)
    om = smalltalk.ObjectMemory(ctx)
    sel_add = 7
    # Dictionary with decoys so the probe loop does some work.
    cls = om.make_class({3: 0, 9: 0, sel_add: 0})
    counter = om.make_instance(cls, [0])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", sends)
    b.label("loop")
    b.op("DUPS"); b.op("JZS", "end")
    b.op("PUSHC", counter)
    b.op("PUSHC", 5)
    b.op("SEND1", sel_add)
    b.op("DROPS")
    b.op("PUSHC", 1); b.op("SUBS")
    b.op("JMPS", "loop")
    b.label("end")
    b.op("HALTS")
    b.label("madd")
    b.op("PUSHA")
    b.op("PUSHIV", smalltalk.ivar_operand(0))
    b.op("ADDS")
    b.op("STIV", smalltalk.ivar_operand(0))
    b.op("PUSHR")
    b.op("RETS")
    ctx.load_program(b.assemble())
    om.set_method(cls, sel_add, b.address_of("madd"))
    expected = (5 * sends) & 0xFFFF
    return Workload(
        "smalltalk_counter", ctx.cpu,
        lambda cpu: smalltalk.ObjectMemory.ivar(cpu, counter, 0) == expected,
    )


ALL_WORKLOADS = {
    "mesa_loop_sum": mesa_loop_sum,
    "mesa_bubble_sort": mesa_bubble_sort,
    "mesa_mul_kernel": mesa_mul_kernel,
    "mesa_fib": mesa_fib,
    "mesa_field_kernel": mesa_field_kernel,
    "lisp_list_sum": lisp_list_sum,
    "lisp_call_kernel": lisp_call_kernel,
    "lisp_cons_kernel": lisp_cons_kernel,
    "bcpl_loop_sum": bcpl_loop_sum,
    "smalltalk_counter": smalltalk_counter,
}


# --------------------------------------------------------------------------
# Raw microcode kernels for the bypass ablation
# --------------------------------------------------------------------------
#
# The byte-code emulator workloads assume the Model 1's bypass paths:
# their microcode reads registers written by the immediately preceding
# instruction, which on the Model 0 silently delivers stale values
# (section 5.6).  The bypass ablation therefore needs its own workloads,
# written the way Model 0 microcoders had to write: the *padded* kernel
# inserts an independent instruction after every dependent write and
# runs correctly on both machines, while the *unpadded* kernel is the
# Model 1 idiom the experiment matrix only pairs with bypass-enabled
# variants.  Both compute the dependent-accumulate chain
# ``acc = 2*acc + 1`` and trace the result, so a stale read anywhere in
# the chain changes the traced value and fails verification.

#: The loop count is a COUNT small constant (``iters - 1``, 0..15).
BYPASS_MAX_ITERS = 16


def _build_bypass_kernel(
    iters: int, padded: bool, config: MachineConfig, name: str
) -> Workload:
    asm = Assembler(config)
    asm.register("acc", 1)
    asm.emit(r="acc", b=0, alu="B", load="RM")
    asm.emit(count=iters - 1)
    asm.label("loop")
    if padded:
        # The loop-top spacer: the branch target must not read the RM
        # value the loop-closing INC just wrote.
        asm.emit()
    asm.emit(r="acc", a="RM", b="RM", alu="ADD", load="RM")  # acc += acc
    if padded:
        asm.emit()  # the spacer Model 0 microcoders had to insert
    asm.emit(r="acc", a="RM", alu="INC", load="RM",
             branch=("COUNT", "loop", "done"))
    asm.label("done")
    if padded:
        asm.emit()  # TRACE reads the INC's result one instruction later
    asm.emit(r="acc", b="RM", ff=FF.TRACE)
    asm.halt()
    cpu = Processor(config)
    cpu.load_image(asm.assemble())

    acc = 0
    for _ in range(iters):
        acc = (2 * acc + 1) & 0xFFFF
    expected = acc
    return Workload(name, cpu, lambda cpu: cpu.console.trace == [expected])


@arg_ranges(iters=(1, BYPASS_MAX_ITERS))
def bypass_kernel(
    iters: int = 12, config: MachineConfig = PRODUCTION
) -> Workload:
    """The Model 1 idiom: back-to-back dependent writes, no padding.

    Only correct on bypass-enabled configs; the matrix must not pair it
    with the Model 0.
    """
    return _build_bypass_kernel(iters, padded=False, config=config,
                                name="bypass_kernel")


@arg_ranges(iters=(1, BYPASS_MAX_ITERS))
def bypass_kernel_padded(
    iters: int = 12, config: MachineConfig = PRODUCTION
) -> Workload:
    """The Model 0 idiom: every dependent use-after-write is padded.

    Correct on both machines; paired with ``bypass_kernel`` on the
    production variant it reproduces the paper's E8 ablation from
    matrix cells.
    """
    return _build_bypass_kernel(iters, padded=True, config=config,
                                name="bypass_kernel_padded")


#: Every builder a session (and so an experiment-matrix cell) can open:
#: the emulator workloads plus the bypass kernels.
SESSION_WORKLOADS = {
    **ALL_WORKLOADS,
    "bypass_kernel": bypass_kernel,
    "bypass_kernel_padded": bypass_kernel_padded,
}

#: The builders whose microcode pads every dependent use-after-write,
#: so they run correctly without bypass paths (on the Model 0).
MODEL0_SAFE = frozenset({"bypass_kernel_padded"})
