"""Compiled-trace execution: hot plan runs specialized into Python source.

The plan cache (:mod:`repro.core.plancache`) hoists microword *decode*
out of the cycle loop but still pays one Python dispatch per field per
cycle: every cycle re-tests ``b_kind``/``a_kind``/``res_kind``/
``next_kind`` even though the instruction at a given IM slot never
changes between invalidations.  Following the compiled-simulation
literature (Reshadi & Dutt, PAPERS.md), this module removes that last
dispatch layer for *hot* code: when the run loop observes the same
region head ``(task, entry_pc)`` often enough -- the target of a back
edge, or the pc a trace exits to -- it records one pass through the
region, emits specialized Python source for the whole trace -- plan
fields folded to literals, the ALUFM operation and FF side effect of
each step inlined as straight-line arithmetic, the shifter decoded once
per SHIFTCTL value, the bypass-latch commit specialized to the
statically known writes of the predecessor step, and the cycle tail
(counters, TPC, the NEXT decision, clock ticks, arbitration) reduced to
what the recorded schedule can actually observe -- ``exec``\\ s it, and
caches the closure.  ``Processor._run_traced`` then executes traces
from its hot loop and falls back to the plan interpreter everywhere
else.

Correctness contract (DESIGN.md section 5.6):

* A trace is a pure transliteration of ``Processor._step_plan`` for a
  recorded sequence of plans.  Every architectural effect -- bypass
  latch commits, saved carry, hold-cause attribution, device ticks,
  memory/IFU clocks, task arbitration -- happens cycle-exactly, so the
  three-way differential matrix in ``tests/test_fastpath_parity.py``
  (interp vs plan vs traced) stays bit-identical, counters included.
* Traces *batch* only values nothing else can observe mid-trace: the
  cycle counters, ``this_pc``, ``now`` and ``_published_next`` live in
  locals and are flushed in a ``finally``, so even a mid-cycle
  exception (HoldTimeout, an injected TransientFault, a DeviceError)
  leaves the machine byte-identical to the plan path's.
* The *single-task fast tail*.  When the trace belongs to the emulator
  task and compile-time state proves no other task can become runnable
  (no devices attached, no fault task, no fault injector, no
  WAKEUP/READY/TPC writes inside the trace), the generated entry guard
  checks ``pipe.lines | pipe.ready == 1`` and the trace then skips the
  per-cycle scheduler entirely: task 0's wakeup line is permanently
  asserted, so arbitration returns task 0 every cycle and ``TPC[0]``,
  ``best_pc`` and ``memory.now`` batch in locals, flushed in the same
  ``finally``.  A trace that never touches the IFU cannot start or
  stop it: if the IFU was running at entry it ticks every cycle, and
  otherwise ``ifu.now`` batches too.  If the guard fails, the trace
  returns having touched nothing and the run loop takes the plan path
  for that cycle.
* Bail-out rules.  A trace exits -- after completing the current cycle
  exactly -- whenever the NEXT decision leaves the trace's task, a
  dynamic NEXTPC (branch, IFU dispatch, return, B-dispatch) diverges
  from the recorded path, or the cycle budget is spent.  Traces are
  never *entered* while a ``trace_hook`` is installed (instrumentation
  sees every cycle interpretively) or while a memory fault is latched.
* Invalidation.  Any IM write -- console, bootstrap loader,
  ``load_image``, direct pokes, slices -- funnels through
  ``MicrostoreImage.__setitem__`` into ``Processor._invalidate_plan``,
  which calls :meth:`TraceCache.invalidate_all`: traces, hot counts,
  the blacklist and any in-flight recording are all dropped.  The only
  *in-run* IM write path (FF ``IM_WRITE_HI``) is excluded from traces
  entirely, so generated code can never run stale.  Because traces
  inline ALUFM semantics, FF ``ALUFM_WRITE`` is likewise untraceable
  and ``Processor._apply_ff`` invalidates the cache when it rewrites an
  ALU operation.  ``restore()`` and ``attach_device()`` also
  invalidate; ``fork()`` builds a fresh machine and therefore a fresh,
  empty cache -- closures are never shared between machines.
* Untraceable steps.  ``REF_BAD``/``NEXT_BAD`` plans (they raise), FF
  ``HALT`` (the trace loop does not re-check ``halted`` per cycle), FF
  ``BREAKPOINT`` (its message reads ``this_pc``, which is batched), FF
  ``IM_WRITE_HI`` and ``ALUFM_WRITE`` (self-modifying code), and fast
  I/O with no device attached end a recording; the trace covers the
  prefix.  A recording that reaches a pc it has already recorded (an
  inner loop) is cut short too, so inner loops compile as compact loop
  traces instead of being unrolled into the enclosing region.
* Compilation is memoized process-wide on the generated source text:
  two machines that get identical microcode hot in the same places
  share code objects (each still ``exec``\\ s into its own namespace,
  so closures and their environments are never shared).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .alu import AluFunc, CarryIn
from .functions import FF, bank_argument, is_count_small, is_membase_small
from .plancache import (
    A_IFU,
    A_MD,
    A_Q,
    A_RM,
    A_T,
    B_CONST,
    B_EXTB,
    B_Q,
    B_RM,
    B_T,
    EXTB_CPREG,
    EXTB_IFUDATA,
    EXTB_IFUPC,
    EXTB_LINK,
    EXTB_MD,
    EXTB_THISTASK,
    NEXT_BAD,
    NEXT_BRANCH,
    NEXT_CALL,
    NEXT_DISPATCH8,
    NEXT_DISPATCH256,
    NEXT_MACRO,
    NEXT_NOTIFY,
    NEXT_RETURN,
    NEXT_STATIC,
    REF_BAD,
    REF_FETCH,
    REF_IOFETCH,
    REF_IOSTORE,
    REF_STORE,
    RES_LSH,
    RES_NONE,
    RES_OTHER,
    RES_RSH,
    RES_SHIFT_MASKMD,
    RES_SHIFT_MASKZ,
    RES_SHIFT_OUT,
    ExecutionPlan,
)
from .shifter import ShiftControl
from ..types import EMULATOR_TASK

#: Back-edge executions of one ``(task, entry_pc)`` before recording.
HOT_THRESHOLD = 8

#: Hard cap on recorded steps; a region longer than this compiles as a
#: straight-line prefix (the tail stays on the plan interpreter).
MAX_TRACE_STEPS = 128

#: A non-loop recording shorter than this is blacklisted: the entry
#: binding overhead would eat the win.  Loop traces amortize their
#: entry over every iteration, so any closed loop is worth compiling.
MIN_STRAIGHT_STEPS = 3

#: FF codes a trace must not contain (see the module docstring).
_UNTRACEABLE_FFS = frozenset(
    {
        int(FF.HALT),
        int(FF.BREAKPOINT),
        int(FF.IM_WRITE_HI),
        int(FF.ALUFM_WRITE),
    }
)

#: NEXTPC kinds whose target is a compile-time constant: no divergence
#: guard is emitted for them.
_STATIC_NEXT_KINDS = frozenset({NEXT_STATIC, NEXT_CALL, NEXT_NOTIFY})

#: FF codes that touch scheduler state the single-task fast tail
#: proves constant; a trace containing one compiles in general mode.
_SCHED_FFS = frozenset(
    {int(FF.WAKEUP_B), int(FF.READY_B), int(FF.TPC_B), int(FF.READ_TPC)}
)

#: ``RES_OTHER`` overrides simple enough to inline as a register read
#: (the rest keep the generic ``_result_override`` call).
_INLINE_READS = {
    int(FF.READ_SHIFTCTL): "regs.shiftctl",
    int(FF.READ_COUNT): "regs.count",
    int(FF.READ_RBASE): "rb[{task}]",
    int(FF.READ_MEMBASE): "mb[{task}]",
    int(FF.READ_STACKPTR): "stack.pointer",
    int(FF.READ_IOADDRESS): "regs.ioaddress[{task}]",
}

#: ALU functions with no adder involvement: no carry latch, no
#: carry-out, no overflow.
_LOGICAL_ALU = {
    AluFunc.A_AND_B: "a & b",
    AluFunc.A_OR_B: "a | b",
    AluFunc.A_XOR_B: "a ^ b",
    AluFunc.A_ONLY: "a",
    AluFunc.B_ONLY: "b",
    AluFunc.NOT_B: "b ^ 65535",
    AluFunc.NOT_A: "a ^ 65535",
    AluFunc.A_AND_NOT_B: "a & (b ^ 65535)",
    AluFunc.A_OR_NOT_B: "a | (b ^ 65535)",
    AluFunc.ZERO: "0",
}

#: Process-wide ``compile()`` memo keyed by (filename, source): fresh
#: machines that heat up the same microcode skip recompilation (the
#: dominant cold-start cost).  Closures are still per-machine.
_COMPILE_MEMO: Dict[Tuple[str, str], object] = {}
_COMPILE_MEMO_LIMIT = 512


def plan_traceable(plan: ExecutionPlan, task: int, cpu) -> bool:
    """Whether *plan*, executed by *task*, may appear inside a trace."""
    if plan.ref_kind == REF_BAD or plan.next_kind == NEXT_BAD:
        return False
    if plan.ff_is_function and plan.ff in _UNTRACEABLE_FFS:
        return False
    if plan.ref_kind in (REF_IOFETCH, REF_IOSTORE):
        if cpu._device_by_task.get(task) is None:
            return False
    return True


class _Writer:
    """Tiny indentation-tracking source emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Ctx:
    """Per-trace analysis shared by the step emitters."""

    def __init__(self, cpu, task: int, entry: int, steps, loop: bool) -> None:
        self.task = task
        self.entry = entry
        self.loop = loop
        self.rbit = 1 << task
        self.tkey = 256 + task  # T_KEY_BASE + task
        self.bypass = cpu.config.bypass_enabled
        self.im_mask = cpu.control.im_mask
        hold_limit = cpu._hold_limit
        if hold_limit is None:
            from .processor import HOLD_LIMIT

            hold_limit = HOLD_LIMIT
        self.hold_limit = hold_limit
        self.devices = list(cpu._devices)
        #: ALUFM snapshot; valid for the trace's lifetime because
        #: ALUFM_WRITE is untraceable and invalidates the cache.
        self.alufm = list(cpu.alu._alufm)
        self.n_steps = len(steps)
        plans = [p for _, p in steps]

        def ffv(p: ExecutionPlan) -> int:
            return p.ff if p.ff_is_function else -1

        self.uses_ioatn = any(
            p.cond >= 0 and p.cond not in (0, 1, 2, 3, 4, 5, 7) for p in plans
        )
        self.has_holds = any(not p.hold_none for p in plans)
        self.has_shift = any(
            p.res_kind in (RES_SHIFT_OUT, RES_SHIFT_MASKZ, RES_SHIFT_MASKMD)
            for p in plans
        )
        self.has_ref = any(
            p.ref_kind in (REF_FETCH, REF_STORE, REF_IOFETCH, REF_IOSTORE)
            for p in plans
        )
        #: No step rewrites RBASE: the rm bank nibble hoists to entry.
        self.rbk_stable = all(ffv(p) != int(FF.RBASE_B) for p in plans)
        #: No step rewrites this task's MEMBASE: it hoists to entry.
        self.mb_stable = all(
            ffv(p) != int(FF.MEMBASE_B) and not is_membase_small(ffv(p))
            for p in plans
        )
        self.uses_ifu = any(
            p.a_kind == A_IFU
            or (p.b_kind == B_EXTB and p.extb_kind in (EXTB_IFUDATA, EXTB_IFUPC))
            or p.next_kind == NEXT_MACRO
            or p.hold_nextmacro
            or p.consumes_ifu
            or ffv(p) in (int(FF.IFU_JUMP), int(FF.IFU_RESET))
            for p in plans
        )
        sched_safe = all(
            p.next_kind != NEXT_NOTIFY and ffv(p) not in _SCHED_FFS
            for p in plans
        )
        #: Single-task fast mode: statically, nothing can make another
        #: task runnable (task 0's own wakeup line is permanent, so
        #: with the entry guard arbitration returns task 0 forever).
        self.fast = (
            task == EMULATOR_TASK
            and not self.devices
            and cpu._fault_task is None
            and cpu.memory.injector is None
            and sched_safe
        )
        #: Fast mode inlines the translate-plus-cache-hit path of
        #: Fetch/Store directly (injector statically None there); any
        #: miss, fault, or protection case falls back to the full
        #: ``start_fetch``/``start_store`` call.
        self.inline_refs = self.fast and any(
            p.ref_kind in (REF_FETCH, REF_STORE) for p in plans
        )
        self.hit_cycles = cpu.config.cache_hit_cycles
        self.nbases = cpu.config.num_base_registers
        #: Fast loop traces keep the bypass latch in locals and commit
        #: register writes directly between steps; the pending dict is
        #: materialized only at the back edge and at exits that land on
        #: a cycle boundary with a write still in flight.
        self.lazy = self.fast and loop
        #: Statically known writes of the predecessor step, driving the
        #: specialized commit and bypass reads.  None = unknown (trace
        #: entry, or a MULSTEP/DIVSTEP that writes the latch itself).
        self.prev: Optional[dict] = None

    def rkey(self, rsel: int) -> str:
        """Source for an RM address: bank nibble | register select."""
        if self.rbk_stable:
            return f"rbk | {rsel}" if rsel else "rbk"
        return f"((rb[{self.task}] & 15) << 4) | {rsel}"

    def mbase(self) -> str:
        return "mb0" if self.mb_stable else f"mb[{self.task}]"


def compile_trace(cpu, task: int, entry: int, steps, loop: bool):
    """Codegen one trace into ``(closure, source)``.

    *steps* is the recorded ``[(pc, plan), ...]`` for one pass through
    the region starting at *entry*; *loop* says the last step's
    successor is *entry* again (the generated function then iterates in
    place instead of returning after one pass).
    """
    w = _Writer()
    ctx = _Ctx(cpu, task, entry, steps, loop)
    env: Dict[str, object] = {}
    if ctx.has_shift:
        env["SCdecode"] = ShiftControl.decode
    for j, device in enumerate(ctx.devices):
        env[f"D{j}"] = device

    w.emit("def trace(cpu, budget):")
    w.indent()
    # Bindings the fast-mode entry guards read come first: a failed
    # guard returns having touched nothing, and the run loop takes the
    # plan path for that cycle.
    w.emit("pipe = cpu.pipe")
    w.emit("memory = cpu.memory")
    w.emit("ifu = cpu.ifu")
    if ctx.fast:
        w.emit(f"if pipe.lines | pipe.ready != {ctx.rbit}: return")
        w.emit("if memory._fast_in_flight: return")
        if not ctx.uses_ifu:
            # Such a trace cannot start or stop the IFU (IFU_JUMP and
            # IFU_RESET count as uses), so its state at entry holds.
            w.emit("ifon = ifu.running")
    if ctx.inline_refs:
        # The inlined hit path assumes no armed one-shot map fault; a
        # restored state could carry one even with the injector off.
        w.emit("trans = memory.translator")
        w.emit("if trans.inject_next is not None: return")
        w.emit("_pmap = trans.map")
        w.emit("_bases = trans.bases")
        w.emit("_bmask = trans._base_mask")
        w.emit("_cache = memory.cache")
        w.emit("_sets = _cache.sets")
        w.emit("_nsets = _cache.num_sets")
        w.emit("_size = memory.storage.size")
    w.emit("tpc = pipe.tpc")
    w.emit("regs = cpu.regs")
    w.emit("rml = regs.rm")
    w.emit("tl = regs.t")
    w.emit("sc = regs.saved_carry")
    w.emit("rb = regs.rbase")
    w.emit("mb = regs.membase")
    w.emit(f"ref = memory._refs[{task}]")
    w.emit("pending = cpu._pending")
    w.emit("counters = cpu.counters")
    w.emit("stack = cpu.stack")
    w.emit("link = cpu.control.link")
    w.emit("console = cpu.console")
    if ctx.uses_ioatn:
        w.emit("devmap = cpu._device_by_address")
        w.emit("ioaddr = regs.ioaddress")
    if ctx.rbk_stable:
        w.emit(f"rbk = (rb[{task}] & 15) << 4")
    if ctx.mb_stable and ctx.has_ref:
        w.emit(f"mb0 = mb[{task}]")
    if ctx.has_shift:
        # Per-trace SHIFTCTL decode cache (reset by FF SHIFTCTL_B).
        w.emit("_scv = -1")
    w.emit("tp = cpu.this_pc")
    w.emit("pub = cpu._published_next")
    w.emit("now_ = cpu.now")
    if ctx.fast:
        w.emit("mnow = memory.now")
    w.emit("ch = cpu._consecutive_holds")
    if ctx.fast:
        w.emit("cyc = 0; ins = 0; hld = 0")
    else:
        w.emit("cyc = 0; ins = 0; hld = 0; blk = 0; sw = 0")
    if ctx.inline_refs:
        w.emit("mf = 0; ms = 0; chit = 0")
    w.emit("h1 = 0; h2 = 0; h3 = 0")
    w.emit("try:")
    w.indent()
    if ctx.lazy:
        # One conservative budget check reserves the first iteration;
        # later iterations re-reserve at the loop bottom.  A zero-
        # progress return is handled by the run loop (it plan-steps
        # once instead of re-entering).
        w.emit(f"if budget < {ctx.n_steps}: return")
    w.emit("while True:")
    w.indent()
    if ctx.fast and loop:
        if not ctx.has_holds:
            w.emit("ch = 0")

    count = len(steps)
    for i, (pc, plan) in enumerate(steps):
        if i + 1 < count:
            expected: Optional[int] = steps[i + 1][0]
        else:
            expected = entry if loop else None
        _emit_step(w, env, ctx, i, pc, plan, expected)
    if ctx.lazy:
        # Reserve the next iteration; the last step already parked its
        # write in the pending dict, so returning here is a clean cycle
        # boundary and the back edge re-enters step 0's entry commit.
        w.emit(f"if cyc + {ctx.n_steps} > budget: return")
    if not loop:
        w.emit("return")
    w.dedent()  # while
    w.dedent()  # try
    w.emit("finally:")
    w.indent()
    w.emit("counters.cycles += cyc")
    w.emit("counters.instructions += ins")
    w.emit(f"counters.task_cycles[{task}] += cyc")
    w.emit(f"counters.task_instructions[{task}] += ins")
    w.emit("if hld:")
    w.indent()
    w.emit("counters.held_cycles += hld")
    w.emit(f"counters.task_held[{task}] += hld")
    w.emit("hc = counters.hold_causes")
    w.emit("if h1: hc[0] += h1")
    w.emit("if h2: hc[1] += h2")
    w.emit("if h3: hc[2] += h3")
    w.dedent()
    if not ctx.fast:
        w.emit("if blk: counters.blocks += blk")
        w.emit("if sw: counters.task_switches += sw")
    if ctx.inline_refs:
        w.emit("if mf: counters.memory_fetches += mf")
        w.emit("if ms: counters.memory_stores += ms")
        w.emit("if chit: counters.cache_hits += chit")
    w.emit("cpu.this_pc = tp")
    if ctx.fast:
        # The fast tail batches the scheduler-visible copies too;
        # tpc[0] == this_pc is an invariant at every exit and raise
        # point, and arbitration's best is always task 0 here.
        w.emit(f"tpc[{task}] = tp")
        w.emit("pipe.best_pc = tp")
    w.emit("cpu._published_next = pub")
    w.emit("cpu.now = now_")
    if ctx.fast:
        w.emit("memory.now = mnow")
        if not ctx.uses_ifu:
            w.emit("if not ifon: ifu.now += cyc")
    w.emit("cpu._consecutive_holds = ch")
    w.dedent()

    source = w.render()
    filename = f"<trace task{task} pc{entry:#o}>"
    memo_key = (filename, source)
    code = _COMPILE_MEMO.get(memo_key)
    if code is None:
        if len(_COMPILE_MEMO) >= _COMPILE_MEMO_LIMIT:
            _COMPILE_MEMO.clear()
        code = _COMPILE_MEMO[memo_key] = compile(source, filename, "exec")
    namespace = dict(env)
    exec(code, namespace)
    return namespace["trace"], source


def _emit_commit(w: _Writer, ctx: _Ctx) -> None:
    """The bypass-latch commit (mirrors ``_commit_pending``).

    When the predecessor step's writes are statically known the commit
    collapses to direct stores of its stashed locals (idempotent, so a
    hold spin re-running it is safe); the pending dict itself is always
    maintained by the writebacks, so the general form -- and any exit
    or exception -- stays exact.
    """
    prev = ctx.prev
    if prev is None:
        w.emit("if pending:")
        w.indent()
        w.emit("for _k, _v in pending.items():")
        w.indent()
        w.emit("if _k < 256:")
        w.indent()
        w.emit("rml[_k] = _v")
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit("tl[_k - 256] = _v & 0xFFFF")
        w.dedent()
        w.dedent()
        w.emit("pending.clear()")
        w.dedent()
    elif prev["rm"] or prev["t"]:
        if prev["rm"]:
            w.emit(f"rml[wk] = {prev['res']}")
        if prev["t"]:
            w.emit(f"tl[{ctx.task}] = {prev['res']} & 0xFFFF")
        if not ctx.lazy:
            w.emit("pending.clear()")
        # Lazy traces never put these writes in the dict, so there is
        # nothing to clear.
    # else: the predecessor wrote nothing -- pending is provably empty.


def _emit_pending_fixup(w: _Writer, ctx: _Ctx, plan: ExecutionPlan) -> None:
    """Materialize the current step's in-flight write into the pending
    dict (lazy traces only): called where control leaves the loop -- or
    crosses the back edge -- on a cycle boundary, so the machine state
    matches the interpreter's write-latched-but-uncommitted moment."""
    stack_op = plan.block and ctx.task == EMULATOR_TASK
    res_name = "r" if plan.res_kind == RES_NONE else "res"
    if not stack_op and plan.loads_rm:
        w.emit(f"pending[wk] = {res_name}")
    if plan.loads_t:
        w.emit(f"pending[{ctx.tkey}] = {res_name}")


def _emit_alu(w: _Writer, ctx: _Ctx, plan: ExecutionPlan) -> dict:
    """Inline one ALUFM operation; leaves ``r`` (and ``x`` when the
    adder ran) bound.  Returns what the condition emitter needs."""
    ctl = ctx.alufm[plan.aluop]
    func = ctl.func
    task = ctx.task
    expr = _LOGICAL_ALU.get(func)
    if expr is not None:
        w.emit(f"r = {expr}")
        return {"arith": False}
    saved = f"sc[{task}]"
    if func == AluFunc.A_PLUS_B:
        lhs, rhs = "a", "b"
        if ctl.carry_in == CarryIn.SAVED:
            cin = saved
        elif ctl.carry_in == CarryIn.ONE:
            cin = "1"
        else:
            cin = ""
    elif func == AluFunc.A_MINUS_B:
        # A + not B + 1; SAVED replaces the +1 for multi-precision.
        lhs, rhs = "a", "(b ^ 65535)"
        cin = saved if ctl.carry_in == CarryIn.SAVED else "1"
    elif func == AluFunc.B_MINUS_A:
        lhs, rhs, cin = "b", "(a ^ 65535)", "1"
    elif func == AluFunc.A_PLUS_1:
        lhs, rhs, cin = "a", "", "1"
    elif func == AluFunc.A_MINUS_1:
        lhs, rhs, cin = "a", "65535", ""
    else:  # AluFunc.B_PLUS_1
        lhs, rhs, cin = "b", "", "1"
    parts = [p for p in (lhs, rhs, cin) if p]
    w.emit(f"x = {' + '.join(parts)}")
    w.emit("r = x & 65535")
    # The adder always latches the task's saved carry.
    w.emit(f"sc[{task}] = x > 65535")
    return {"arith": True, "lhs": lhs, "rhs": rhs or "0"}


def _ff_inline(
    ctx: _Ctx, plan: ExecutionPlan, res_name: str
) -> Optional[List[str]]:
    """Constant-folded FF decode: the direct source for one FF side
    effect, or None for the rare FFs that keep the ``_apply_ff`` call
    (translator/map/cache/device writes, which are method-shaped
    anyway)."""
    ff = int(plan.ff)
    task = ctx.task
    if is_membase_small(ff):
        return [f"mb[{task}] = {bank_argument(ff) & 0x1F}"]
    if is_count_small(ff):
        return [f"regs.count = {bank_argument(ff) & 0xFFFF}"]
    if ff == int(FF.SHIFTCTL_B):
        lines = ["regs.shiftctl = b & 65535"]
        if ctx.has_shift:
            lines.append("_scv = -1")
        return lines
    simple = {
        int(FF.Q_B): ["regs.q = b & 65535"],
        int(FF.COUNT_B): ["regs.count = b & 65535"],
        int(FF.RBASE_B): [f"rb[{task}] = b & 15"],
        int(FF.MEMBASE_B): [f"mb[{task}] = b & 31"],
        int(FF.IOADDRESS_B): [f"regs.ioaddress[{task}] = b & 65535"],
        int(FF.CPREG_B): ["console.cpreg = b & 65535"],
        int(FF.TRACE): ["console.record_trace(b)"],
        int(FF.STACKPTR_B): ["stack.write_pointer(b)"],
        int(FF.LINK_B): [f"cpu.control.write_link({task}, b)"],
        int(FF.MULSTEP): [f"cpu._multiply_step({task}, {plan.aluop}, a)"],
        int(FF.DIVSTEP): [f"cpu._divide_step({task}, {plan.aluop}, a)"],
        int(FF.IFU_JUMP): [f"ifu.jump({res_name})"],
        int(FF.IFU_RESET): ["ifu.reset()"],
        int(FF.IM_ADDR_B): ["console.latch_im_address(b)"],
        int(FF.IM_WRITE_LO): ["console.im_write_low(b)"],
        int(FF.IM_WRITE_MID): ["console.im_write_mid(b)"],
        int(FF.WAKEUP_B): ["pipe.set_wakeup_mask(b)"],
        int(FF.READY_B): ["pipe.set_ready_mask(b)"],
        int(FF.TPC_B): ["pipe.write_tpc((b >> 12) & 15, b & 4095)"],
    }
    return simple.get(ff)


def _emit_tail_fast(
    w: _Writer, ctx: _Ctx, *, next_expr: Optional[str], executed: bool
) -> None:
    """One cycle's tail under the single-task guarantee: counters and
    clocks only.  Arbitration, READY/lines updates, ``this_task`` and
    the preemption check all collapse -- task 0 wins every cycle."""
    w.emit("cyc += 1")
    if executed:
        w.emit("ins += 1")
        if next_expr is not None:
            w.emit(f"tp = {next_expr}")
    else:
        w.emit("hld += 1")
    w.emit("mnow += 1")
    w.emit("ifu.tick()" if ctx.uses_ifu else "if ifon: ifu.tick()")
    w.emit("now_ += 1")


def _emit_tail_general(
    w: _Writer,
    ctx: _Ctx,
    *,
    next_expr: Optional[str],
    blocked: bool,
    executed: bool,
) -> None:
    """Counters + TPC + NEXT decision + clocks + arbitration, one cycle.

    Mirrors the tail of ``Processor._step_plan`` exactly, with the
    trace's counter batching.  Leaves ``nxt`` bound for the caller's
    exit checks.
    """
    task = ctx.task
    w.emit("cyc += 1")
    if executed:
        w.emit("ins += 1")
    else:
        w.emit("hld += 1")
    if next_expr is not None:
        w.emit(f"tpc[{task}] = {next_expr}")
    if blocked:
        w.emit("blk += 1")
        w.emit(f"pipe.ready &= ~{ctx.rbit}")
        w.emit("nxt = pipe.best_task")
    else:
        w.emit("best = pipe.best_task")
        w.emit(f"if best > {task}:")
        w.indent()
        w.emit(f"pipe.ready |= {ctx.rbit}")
        w.emit("nxt = best")
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit(f"nxt = {task}")
        w.dedent()
    w.emit("pipe.ready &= ~(1 << nxt)")
    w.emit("pipe.this_task = nxt")
    w.emit("tp = tpc[nxt]")
    if ctx.devices:
        # Devices read machine.now (pre-increment, as on the plan path).
        w.emit("cpu.now = now_")
        w.emit("g = pub")
        w.emit("pub = nxt")
        for j, device in enumerate(ctx.devices):
            if device.task is None:
                w.emit(f"D{j}.tick(cpu, granted=False)")
            else:
                w.emit(f"D{j}.tick(cpu, granted=(g == {device.task}))")
    else:
        w.emit("pub = nxt")
    w.emit("if memory._fast_in_flight:")
    w.indent()
    w.emit("memory.tick()")
    w.dedent()
    w.emit("else:")
    w.indent()
    w.emit("memory.now += 1")
    w.dedent()
    w.emit("if ifu.running:")
    w.indent()
    w.emit("ifu.tick()")
    w.dedent()
    w.emit("else:")
    w.indent()
    w.emit("ifu.now += 1")
    w.dedent()
    w.emit("now_ += 1")
    w.emit("req = pipe.lines | pipe.ready")
    w.emit("best = req.bit_length() - 1 if req else 0")
    w.emit("pipe.best_task = best")
    w.emit("pipe.best_pc = tpc[best]")


def _emit_step(
    w: _Writer,
    env: Dict[str, object],
    ctx: _Ctx,
    i: int,
    pc: int,
    plan: ExecutionPlan,
    expected: Optional[int],
) -> None:
    task = ctx.task
    fast = ctx.fast
    w.emit(f"# -- step {i}: pc {pc:#o}")

    # --- the Hold spin (a held cycle is a full cycle: commit, counters,
    # NEXT decision, clocks -- it can even be preempted away).
    if not plan.hold_none:
        nowv = "mnow" if fast else "memory.now"
        conds = []
        if plan.hold_fastio:
            conds.append((f"memory._storage_busy_until > {nowv}", 1))
        if plan.hold_md:
            conds.append(
                (f"not (ref.md_valid and ref.md_ready_at <= {nowv})", 2)
            )
        if plan.hold_nextmacro:
            conds.append(("not ifu.dispatch_ready", 3))
        if ctx.lazy:
            # The spin (and its budget recheck) only exists on the
            # actually-held path: an unheld pass costs one condition
            # evaluation and has consumed nothing since the last
            # reserve, so no recheck is needed.
            outer = " or ".join(f"({e})" for e, _ in conds)
            w.emit(f"if {outer}:")
            w.indent()
        w.emit("while True:")
        w.indent()
        kw = "if"
        for cond_expr, cause in conds:
            w.emit(f"{kw} {cond_expr}:")
            w.indent()
            w.emit(f"hc_ = {cause}")
            w.dedent()
            kw = "elif"
        w.emit("else:")
        w.indent()
        w.emit("break")
        w.dedent()
        w.emit("ch += 1")
        # Commit before the timeout check: the interpreter commits at
        # the top of every attempt, so a timeout raise must observe the
        # predecessor's write already landed.
        _emit_commit(w, ctx)
        w.emit(f"if ch > {ctx.hold_limit}:")
        w.indent()
        w.emit("cpu.now = now_")
        w.emit("cpu._consecutive_holds = ch")
        if fast:
            w.emit("memory.now = mnow")
        w.emit(f"raise cpu._hold_timeout({task}, {pc}, hc_)")
        w.dedent()
        if len(conds) == 1:
            only = conds[0][1]
            w.emit(f"h{only} += 1")
        else:
            w.emit("if hc_ == 1: h1 += 1")
            w.emit("elif hc_ == 2: h2 += 1")
            w.emit("else: h3 += 1")
        if fast:
            _emit_tail_fast(w, ctx, next_expr=None, executed=False)
            w.emit("if cyc >= budget:")
            w.indent()
            w.emit("return")
            w.dedent()
        else:
            _emit_tail_general(
                w, ctx, next_expr=None, blocked=False, executed=False
            )
            w.emit(f"if nxt != {task}:")
            w.indent()
            w.emit("sw += 1")
            w.emit("return")
            w.dedent()
            w.emit("if cyc >= budget:")
            w.indent()
            w.emit("return")
            w.dedent()
        w.dedent()  # hold spin
        if ctx.lazy:
            # Holds consumed budget the reserve set aside for executed
            # steps: re-reserve the rest of this iteration.
            w.emit(f"if cyc + {ctx.n_steps - i} > budget: return")
            w.dedent()  # if held
    if not (fast and ctx.loop and not ctx.has_holds):
        w.emit("ch = 0")

    # --- which operands this step actually reads.
    stack_op = plan.block and task == EMULATOR_TASK
    ffv = plan.ff if plan.ff_is_function else -1
    inline_read = plan.res_kind == RES_OTHER and ffv in _INLINE_READS
    shifty = plan.res_kind in (
        RES_SHIFT_OUT,
        RES_SHIFT_MASKZ,
        RES_SHIFT_MASKMD,
    ) or (plan.res_kind == RES_OTHER and not inline_read)
    need_rm = plan.b_kind == B_RM or plan.a_kind == A_RM or shifty
    need_t = plan.b_kind == B_T or plan.a_kind == A_T or shifty
    res_name = "r" if plan.res_kind == RES_NONE else "res"
    ff_lines = _ff_inline(ctx, plan, res_name) if plan.ff_effect else None
    ff_generic = plan.ff_effect and ff_lines is None
    need_md = (
        plan.a_kind == A_MD
        or (plan.b_kind == B_EXTB and plan.extb_kind == EXTB_MD)
        or plan.res_kind == RES_SHIFT_MASKMD
        or ff_generic
    )

    prev = ctx.prev
    if need_md:
        w.emit("md = ref.md_value")
    if need_rm:
        if stack_op:
            w.emit("rm = stack.read_top()")
        elif not ctx.bypass:
            w.emit(f"rm = rml[{ctx.rkey(plan.rsel)}]")
        elif prev is not None and not prev["rm"]:
            # The predecessor wrote no RM entry: read the RAM directly.
            w.emit(f"rm = rml[{ctx.rkey(plan.rsel)}]")
        elif prev is not None and ctx.rbk_stable:
            if prev["rsel"] == plan.rsel:
                # Static bypass hit: the predecessor's raw result.
                w.emit(f"rm = {prev['res']}")
            else:
                w.emit(f"rm = rml[{ctx.rkey(plan.rsel)}]")
        else:
            w.emit(f"ra = {ctx.rkey(plan.rsel)}")
            w.emit("rm = pending.get(ra)")
            w.emit("if rm is None:")
            w.indent()
            w.emit("rm = rml[ra]")
            w.dedent()
    if need_t:
        if not ctx.bypass:
            w.emit(f"t = tl[{task}]")
        elif prev is not None:
            if prev["t"]:
                w.emit(f"t = {prev['res']}")
            else:
                w.emit(f"t = tl[{task}]")
        else:
            w.emit(f"t = pending.get({ctx.tkey})")
            w.emit("if t is None:")
            w.indent()
            w.emit(f"t = tl[{task}]")
            w.dedent()

    # --- B bus, constant-folded by kind.
    b_kind = plan.b_kind
    if b_kind == B_CONST:
        w.emit(f"b = {plan.b_const}")
    elif b_kind == B_RM:
        w.emit("b = rm")
    elif b_kind == B_T:
        w.emit("b = t")
    elif b_kind == B_Q:
        w.emit("b = regs.q")
    else:
        extb = plan.extb_kind
        if extb == EXTB_MD:
            w.emit("b = md")
        elif extb == EXTB_IFUDATA:
            w.emit("b = ifu.read_operand()")
        elif extb == EXTB_CPREG:
            w.emit("b = console.cpreg")
        elif extb == EXTB_LINK:
            w.emit(f"b = link[{task}] & 0xFFFF")
        elif extb == EXTB_IFUPC:
            w.emit("b = ifu.pc & 0xFFFF")
        elif extb == EXTB_THISTASK:
            w.emit(f"b = {task}")
        else:
            w.emit(f"b = cpu._read_extb({task}, {plan.ff})")

    # --- A bus.
    a_kind = plan.a_kind
    if a_kind == A_RM:
        w.emit("a = rm")
    elif a_kind == A_T:
        w.emit("a = t")
    elif a_kind == A_MD:
        w.emit("a = md")
    elif a_kind == A_IFU:
        w.emit("a = ifu.read_operand()")
    else:
        w.emit("a = regs.q")

    # --- operand reads done: the predecessor's results land in the RAMs.
    _emit_commit(w, ctx)

    # --- ALU, inlined from the ALUFM snapshot.
    alu = _emit_alu(w, ctx, plan)

    # --- RESULT bus.
    res_kind = plan.res_kind
    if res_kind == RES_NONE:
        pass  # res_name is "r"
    elif res_kind in (RES_SHIFT_OUT, RES_SHIFT_MASKZ, RES_SHIFT_MASKMD):
        w.emit("_sv = regs.shiftctl")
        w.emit("if _sv != _scv:")
        w.indent()
        w.emit("_scc = SCdecode(_sv)")
        w.emit("_scv = _sv")
        w.emit("_sca = _scc.amount")
        w.emit("_scm = _scc.mask")
        w.dedent()
        w.emit("dbl = ((rm & 65535) << 16) | (t & 65535)")
        w.emit("so = ((dbl << _sca) | (dbl >> (32 - _sca))) >> 16 & 65535")
        if res_kind == RES_SHIFT_OUT:
            w.emit("res = so")
        elif res_kind == RES_SHIFT_MASKZ:
            w.emit("res = so & _scm")
        else:
            w.emit("res = (so & _scm) | (md & ~_scm & 65535)")
    elif res_kind == RES_LSH:
        w.emit("res = (r << 1) & 0xFFFF")
    elif res_kind == RES_RSH:
        w.emit("res = (r >> 1) & 0xFFFF")
    elif inline_read:
        w.emit(f"res = {_INLINE_READS[ffv].format(task=task)}")
    else:  # RES_OTHER: the READ_* family (may have side effects)
        if fast:
            w.emit("memory.now = mnow")
        w.emit(f"res = cpu._result_override({task}, {plan.ff}, rm, t, a, b, r)")
        w.emit("if res is None:")
        w.indent()
        w.emit("res = r")
        w.dedent()

    # --- memory reference start (address = A, store data = B).  Fast
    # mode inlines the translate + cache-hit path (one clock tick per
    # hit, referenced/dirty bits, MD timing -- exactly start_fetch /
    # start_store's); every other case takes the full call.
    ref_kind = plan.ref_kind
    if ref_kind == REF_FETCH and ctx.inline_refs:
        hitc = ctx.hit_cycles
        w.emit(f"va = (_bases[{ctx.mbase()} % {ctx.nbases}] + (a & 65535)) & _bmask")
        w.emit("pe = _pmap.get(va >> 8)")
        w.emit("line_ = None")
        w.emit("if pe is not None and pe.valid:")
        w.indent()
        w.emit("ra = (pe.real_page << 8) | (va & 255)")
        w.emit("if ra < _size:")
        w.indent()
        w.emit("mu = ra >> 4")
        w.emit("tg = mu // _nsets")
        w.emit("for line_ in _sets[mu % _nsets]:")
        w.indent()
        w.emit("if line_.valid and line_.tag == tg:")
        w.indent()
        w.emit("break")
        w.dedent()
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit("line_ = None")
        w.dedent()
        w.dedent()
        w.dedent()
        w.emit("if line_ is not None:")
        w.indent()
        w.emit("pe.referenced = True")
        w.emit("_ck = _cache._clock + 1")
        w.emit("_cache._clock = _ck")
        w.emit("line_.lru = _ck")
        w.emit("mf += 1")
        w.emit("chit += 1")
        w.emit("ref.md_value = line_.words[ra & 15]")
        w.emit(f"ref.md_ready_at = mnow + {hitc}")
        w.emit("ref.md_valid = True")
        w.emit(f"ref.busy_until = mnow + {hitc}")
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit("memory.now = mnow")
        w.emit(f"memory.start_fetch({task}, {ctx.mbase()}, a)")
        w.dedent()
    elif ref_kind == REF_FETCH:
        if fast:
            w.emit("memory.now = mnow")
        w.emit(f"memory.start_fetch({task}, {ctx.mbase()}, a)")
    elif ref_kind == REF_STORE and ctx.inline_refs:
        w.emit(f"va = (_bases[{ctx.mbase()} % {ctx.nbases}] + (a & 65535)) & _bmask")
        w.emit("pe = _pmap.get(va >> 8)")
        w.emit("line_ = None")
        w.emit("if pe is not None and pe.valid and not pe.write_protected:")
        w.indent()
        w.emit("ra = (pe.real_page << 8) | (va & 255)")
        w.emit("if ra < _size:")
        w.indent()
        w.emit("mu = ra >> 4")
        w.emit("tg = mu // _nsets")
        w.emit("for line_ in _sets[mu % _nsets]:")
        w.indent()
        w.emit("if line_.valid and line_.tag == tg:")
        w.indent()
        w.emit("break")
        w.dedent()
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit("line_ = None")
        w.dedent()
        w.dedent()
        w.dedent()
        w.emit("if line_ is not None:")
        w.indent()
        w.emit("pe.referenced = True")
        w.emit("pe.dirty = True")
        w.emit("_ck = _cache._clock + 1")
        w.emit("_cache._clock = _ck")
        w.emit("line_.lru = _ck")
        w.emit("ms += 1")
        w.emit("chit += 1")
        w.emit("line_.words[ra & 15] = b & 65535")
        w.emit("line_.dirty = True")
        w.emit("ref.busy_until = mnow + 1")
        w.dedent()
        w.emit("else:")
        w.indent()
        w.emit("memory.now = mnow")
        w.emit(f"memory.start_store({task}, {ctx.mbase()}, a, b)")
        w.dedent()
    elif ref_kind == REF_STORE:
        if fast:
            w.emit("memory.now = mnow")
        w.emit(f"memory.start_store({task}, {ctx.mbase()}, a, b)")
    elif ref_kind in (REF_IOFETCH, REF_IOSTORE):
        env["PORT"] = _port_for(env, ctx.devices, task)
        fn = "start_fastio_fetch" if ref_kind == REF_IOFETCH else "start_fastio_store"
        w.emit(f"memory.{fn}({task}, {ctx.mbase()}, a, PORT)")

    # --- late branch condition.
    cond = plan.cond
    if cond >= 0:
        if cond == 0:
            w.emit("ct = r == 0")
        elif cond == 1:
            w.emit("ct = r != 0")
        elif cond == 2:
            w.emit("ct = r >= 0x8000")
        elif cond == 3:
            w.emit("ct = x > 65535" if alu["arith"] else "ct = False")
        elif cond == 4:
            w.emit("ct = regs.count != 0")
            w.emit("regs.count = (regs.count - 1) & 0xFFFF")
        elif cond == 5:
            w.emit(f"ct = {res_name} & 1")
        elif cond == 7:
            if alu["arith"]:
                lhs, rhs = alu["lhs"], alu["rhs"]
                w.emit(
                    f"ct = (({lhs} ^ {rhs}) & 32768) == 0"
                    f" and ((x ^ {lhs}) & 32768) != 0"
                )
            else:
                w.emit("ct = False")
        else:  # IOATN
            w.emit(f"dev_ = devmap.get(ioaddr[{task}])")
            w.emit("ct = dev_ is not None and dev_.attention")

    # --- FF side effects: constant-folded where the semantics are a
    # register write, the exact _apply_ff call for the rest.
    if plan.ff_effect:
        if ff_lines is not None:
            for line in ff_lines:
                w.emit(line)
        else:
            inst_name = f"I{i}"
            env[inst_name] = plan.inst
            if fast:
                w.emit("memory.now = mnow")
            md_arg = "md" if need_md else "0"
            w.emit(
                f"cpu._apply_ff({inst_name}, {task}, {plan.ff}, b, a, "
                f"{res_name}, {md_arg})"
            )

    # --- NEXTPC.
    next_kind = plan.next_kind
    consumed_inline = False
    if next_kind == NEXT_STATIC:
        next_expr = str(plan.next_target)
    elif next_kind == NEXT_BRANCH:
        taken = plan.next_target | 1
        w.emit(f"np = {taken} if ct else {plan.next_target}")
        next_expr = "np"
    elif next_kind == NEXT_MACRO:
        if plan.consumes_ifu:
            w.emit("ifu.consume_operand()")
            consumed_inline = True
        w.emit("np = ifu.take_dispatch()")
        next_expr = "np"
    elif next_kind == NEXT_CALL:
        w.emit(f"link[{task}] = {plan.link_value}")
        next_expr = str(plan.next_target)
    elif next_kind == NEXT_RETURN:
        w.emit(f"np = link[{task}]")
        w.emit(f"link[{task}] = {plan.link_value}")
        next_expr = "np"
    elif next_kind == NEXT_DISPATCH8:
        w.emit(f"np = ({plan.next_target} + (b & 0x7)) & {ctx.im_mask}")
        next_expr = "np"
    elif next_kind == NEXT_DISPATCH256:
        w.emit(f"np = ({plan.next_target} + (b & 0xFF)) & {ctx.im_mask}")
        next_expr = "np"
    elif next_kind == NEXT_NOTIFY:
        w.emit(f"console.record_notify({pc})")
        next_expr = str(plan.next_target)
    else:  # pragma: no cover - plan_traceable rejects NEXT_BAD
        raise AssertionError("untraceable next_kind reached codegen")
    if plan.consumes_ifu and not consumed_inline:
        w.emit("ifu.consume_operand()")

    # --- writeback into the bypass latch.  Lazy traces keep the write
    # in locals (``wk`` + the result name feed the successor's
    # specialized commit and the exit fix-ups); everything else keeps
    # the pending dict accurate cycle by cycle.
    last = i + 1 == ctx.n_steps
    if stack_op:
        w.emit(f"stack.adjust({plan.stack_delta})")
        if plan.loads_rm:
            w.emit(f"stack.write_top({res_name})")
        if plan.loads_t and not ctx.lazy:
            w.emit(f"pending[{ctx.tkey}] = {res_name}")
    else:
        if plan.loads_rm:
            w.emit(f"wk = {ctx.rkey(plan.rsel)}")
            if not ctx.lazy:
                w.emit(f"pending[wk] = {res_name}")
        if plan.loads_t and not ctx.lazy:
            w.emit(f"pending[{ctx.tkey}] = {res_name}")
    if ctx.lazy and last:
        # The back edge (and the loop-bottom budget exit) land on a
        # cycle boundary: park the write in the dict so step 0's entry
        # commit -- or the caller -- sees the interpreter's state.
        _emit_pending_fixup(w, ctx, plan)

    blocked = plan.block and task != EMULATOR_TASK
    if fast:
        _emit_tail_fast(w, ctx, next_expr=next_expr, executed=True)
    else:
        _emit_tail_general(
            w, ctx, next_expr=next_expr, blocked=blocked, executed=True
        )
        w.emit(f"if nxt != {task}:")
        w.indent()
        w.emit("sw += 1")
        w.emit("return")
        w.dedent()
    dynamic = next_kind not in _STATIC_NEXT_KINDS
    if dynamic and expected is not None:
        w.emit(f"if np != {expected}:")
        w.indent()
        if ctx.lazy and not last:
            _emit_pending_fixup(w, ctx, plan)
        w.emit("return")
        w.dedent()
    if expected is not None and next_kind in _STATIC_NEXT_KINDS:
        if plan.next_target != expected:  # pragma: no cover - recorder invariant
            raise AssertionError(
                f"static successor {plan.next_target:#o} != recorded "
                f"{expected:#o} at pc {pc:#o}"
            )
    last = i + 1 == ctx.n_steps
    if fast and ctx.loop:
        pass  # the loop-top check reserved this iteration's cycles
    elif not (last and not ctx.loop):
        w.emit("if cyc >= budget:")
        w.indent()
        w.emit("return")
        w.dedent()

    # MULSTEP/DIVSTEP write the latch inside their helper: the
    # successor must fall back to the general commit and bypass reads.
    if ffv in (int(FF.MULSTEP), int(FF.DIVSTEP)):
        ctx.prev = None
    else:
        ctx.prev = {
            "rm": bool(plan.loads_rm and not stack_op),
            "rsel": plan.rsel,
            "t": bool(plan.loads_t),
            "res": res_name,
        }


def _port_for(env, devices, task: int):
    for device in devices:
        if device.task == task:
            return device
    raise AssertionError("plan_traceable admitted fast I/O with no port")


class TraceCache:
    """Hot-region detection, recording, codegen and the closure cache.

    Pure mechanism: nothing here appears in snapshots, and
    :meth:`invalidate_all` must leave the machine architecturally
    untouched.  The cache is created per :class:`Processor` and never
    shared (``fork()`` builds a new machine, hence a new empty cache).
    """

    def __init__(self, cpu, hot_threshold: int = HOT_THRESHOLD) -> None:
        self.cpu = cpu
        #: (task, entry_pc) -> compiled closure ``trace(cpu, budget)``.
        self.traces: Dict[Tuple[int, int], object] = {}
        #: (task, entry_pc) -> generated source, for tests and debugging.
        self.sources: Dict[Tuple[int, int], str] = {}
        #: (task, pc) -> arrivals at a candidate region head.
        self.counts: Dict[Tuple[int, int], int] = {}
        #: Keys that recorded too short or failed codegen: never retried
        #: (until the next invalidation wipes the slate).
        self.blacklist: Set[Tuple[int, int]] = set()
        self.hot_threshold = hot_threshold
        # Statistics (mechanism, not Counters: they must not perturb
        # cross-tier counter parity or the state format).
        self.compiled = 0
        self.invalidations = 0
        self.entries = 0
        #: Cycles run inside traces, and entries that made no progress.
        self.traced_cycles = 0
        self.stalls = 0
        #: Codegen failures as (key, repr(exc)); parity tests assert
        #: this stays empty on the gold workloads.
        self.failures: List[Tuple[Tuple[int, int], str]] = []
        self._rec_key: Optional[Tuple[int, int]] = None
        self._rec_steps: Optional[List[Tuple[int, ExecutionPlan]]] = None
        self._rec_pcs: Set[int] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every trace, count, blacklist entry and recording.

        Called from the ``MicrostoreImage`` write choke point (so every
        IM write path invalidates), from ``restore()``, from
        ``attach_device()`` and from FF ``ALUFM_WRITE``.  Clears in
        place: the run loop holds references to these containers.
        """
        if self.traces or self.counts or self.blacklist or self._rec_key:
            self.invalidations += 1
        self.traces.clear()
        self.sources.clear()
        self.counts.clear()
        self.blacklist.clear()
        self._rec_key = None
        self._rec_steps = None
        self._rec_pcs.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def heat(self, key: Tuple[int, int]) -> None:
        """Count one arrival at region head *key*; record at the threshold.

        Heads are back-edge targets and the pcs traces exit to (Dynamo's
        "next executing tail"): a microcode handler is entered by an IFU
        dispatch, never by a back edge, so only the second rule finds it.
        """
        if key in self.traces or key in self.blacklist:
            return
        seen = self.counts.get(key, 0) + 1
        if seen >= self.hot_threshold:
            self.counts.pop(key, None)
            self.begin_recording(key)
        else:
            self.counts[key] = seen

    def begin_recording(self, key: Tuple[int, int]) -> None:
        self._rec_key = key
        self._rec_steps = []
        self._rec_pcs.clear()

    def abort_recording(self) -> None:
        self._rec_key = None
        self._rec_steps = None
        self._rec_pcs.clear()

    def record_step(self, task: int, pc: int, new_task: int, new_pc: int) -> None:
        """Observe one executed (non-held) cycle while recording.

        *task*/*pc* are where the cycle ran; *new_task*/*new_pc* where
        the machine stands afterwards.
        """
        key = self._rec_key
        steps = self._rec_steps
        if pc == key[1] and steps:
            # Back at the entry: the loop body is complete.  (This
            # cycle -- the second iteration's first step -- already ran
            # on the plan path; the trace takes over at the next entry.)
            self._finish(loop=True)
            return
        plan = self.cpu._plans[pc]
        if plan is None or not plan_traceable(plan, task, self.cpu):
            self._finish(loop=False)
            return
        steps.append((pc, plan))
        self._rec_pcs.add(pc)
        if new_task != task or len(steps) >= MAX_TRACE_STEPS:
            self._finish(loop=False)
        elif new_pc in self._rec_pcs and new_pc != key[1]:
            # About to re-enter a pc this recording already covers: an
            # inner loop.  Cut the trace here so the inner loop gets
            # its own compact loop trace instead of being unrolled
            # through this region step by step.
            self._finish(loop=False)

    def _finish(self, loop: bool) -> None:
        key = self._rec_key
        steps = self._rec_steps
        self._rec_key = None
        self._rec_steps = None
        self._rec_pcs.clear()
        if not steps or (not loop and len(steps) < MIN_STRAIGHT_STEPS):
            self.blacklist.add(key)
            return
        if steps[0][0] != key[1]:  # pragma: no cover - recorder invariant
            self.blacklist.add(key)
            return
        try:
            fn, source = compile_trace(self.cpu, key[0], key[1], steps, loop)
        except Exception as exc:  # codegen must never take the machine down
            self.failures.append((key, repr(exc)))
            self.blacklist.add(key)
            return
        self.traces[key] = fn
        self.sources[key] = source
        self.compiled += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Cache health, for the perf report and tests."""
        return {
            "traces": len(self.traces),
            "compiled": self.compiled,
            "entries": self.entries,
            "stalls": self.stalls,
            "traced_cycles": self.traced_cycles,
            "invalidations": self.invalidations,
            "blacklisted": len(self.blacklist),
            "recording": self._rec_key is not None,
            "failures": len(self.failures),
        }
