"""Unit tests for the compiled-trace cache mechanism itself.

``tests/test_fastpath_parity.py`` proves the traced tier bit-identical
to the other two cycle implementations; this file pins the *mechanism*
around the generated code -- hot-region detection, recording cut-offs,
blacklisting, the process-wide step and region memos, invalidation, and
the stats surface -- on small hand-built machines where each edge is
easy to reach deliberately, and the coverage the tier reaches on the
rotation workloads (side exits as region heads, IFU-free traces under a
running IFU).  Codegen the rotation workloads never reach is checked
against the interpreter on hand-built ``run()`` loops.  The plan tier's
table of shared one-step traces is pinned here too: what the shared
memos must key on, ALUFM rewrites, restores that bring back other
words or ALU operations, and forks and resumed sessions that fill
their tables without generating any source.  So are fork families:
later sessions of one template record no region, and an IM write
takes the writer out of its family.
"""

import dataclasses
from collections import Counter

import pytest

from repro import FF, Assembler, Processor
from repro.config import INTERPRETED, PLAN_ONLY, PRODUCTION
from repro.core.alu import AluControl, AluFunc
from repro.core.functions import count_small
from repro.core.microword import (
    ASel,
    BSel,
    LoadControl,
    MicroInstruction,
    Misc,
    NextControl,
    NextType,
)
from repro.core.plancache import compile_plan
import repro.core.tracecache as tracecache_mod
from repro.core.tracecache import (
    HOT_THRESHOLD,
    MAX_TRACE_STEPS,
    MIN_STRAIGHT_STEPS,
    _interp_step,
    code_key,
    compile_trace,
    plan_traceable,
)
from repro.io.display import DisplayController
from repro.perf.workloads import ALL_WORKLOADS, mesa_loop_sum, smalltalk_counter
from repro.supervise import architectural_json


def _goto(dest: int, load: int = 0, ff: int = 0) -> MicroInstruction:
    return MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl(load), ff=ff,
        nc=NextControl.pack(NextType.GOTO, dest),
    )


def _ring_machine(slots: int, hot_threshold: int = 2) -> Processor:
    """A PRODUCTION machine spinning a ring of *slots* GOTOs."""
    cpu = Processor(PRODUCTION)
    cpu._traces.hot_threshold = hot_threshold
    for slot in range(slots):
        cpu.im[slot] = _goto((slot + 1) % slots, load=int(LoadControl.T), ff=slot & 0xFF)
    return cpu


# --------------------------------------------------------------------------
# detection and compilation
# --------------------------------------------------------------------------

def test_back_edge_counting_respects_threshold():
    cpu = _ring_machine(8, hot_threshold=3)
    cache = cpu._traces
    # One trip around the ring per 8 cycles; the back edge fires at the
    # wrap.  Below the threshold: counted, not yet recording.
    cpu.run(max_cycles=17)  # two back edges seen
    assert cache.counts.get((0, 0)) == 2
    assert not cache.traces
    cpu.run(max_cycles=24)  # third back edge arms recording, then compiles
    assert (0, 0) in cache.traces
    assert (0, 0) not in cache.counts
    assert cache.compiled == 1


def test_default_threshold_matches_module_constant():
    cpu = Processor(PRODUCTION)
    assert cpu._traces.hot_threshold == HOT_THRESHOLD


def test_trace_executes_and_counts_entries():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=400)
    cache = cpu._traces
    assert cache.entries > 0
    assert cache.failures == []
    stats = cache.stats()
    assert stats["traces"] == 1
    assert stats["compiled"] == 1
    assert stats["entries"] == cache.entries
    assert stats["recording"] is False
    assert stats["failures"] == 0


def test_overlong_recording_compiles_straight_prefix(monkeypatch):
    """A hot region longer than MAX_TRACE_STEPS still compiles.

    GOTOs are page-local (64 slots), so instead of building a ring
    longer than the real cap, lower the cap under a 40-slot ring.
    """
    import repro.core.tracecache as tracecache_mod

    monkeypatch.setattr(tracecache_mod, "MAX_TRACE_STEPS", 12)
    cpu = _ring_machine(40)
    cpu.run(max_cycles=40 * 5)
    cache = cpu._traces
    assert (0, 0) in cache.traces
    assert cache.failures == []
    # The generated source covers exactly the capped prefix.
    assert cache.traces[(0, 0)].source.count("# -- step") == 12


# --------------------------------------------------------------------------
# recording cut-offs and the blacklist
# --------------------------------------------------------------------------

def test_short_straight_recording_is_blacklisted():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)  # plans exist, cache warm
    cache = cpu._traces
    key = (0, 3)
    cache.begin_recording(key)
    assert cache.stats()["recording"] is True
    # Two traceable steps, then a task switch: under MIN_STRAIGHT_STEPS.
    assert MIN_STRAIGHT_STEPS > 2
    cache.record_step(cpu, 0, 3, 0, 4)
    cache.record_step(cpu, 0, 4, 1, 5)
    assert key in cache.blacklist
    assert key not in cache.traces
    assert cache._rec_key is None


def test_blacklisted_key_is_never_recompiled():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cache.traces.clear()  # drop the compiled ring trace but keep counts
    cache.blacklist.add((0, 0))
    cpu.run(max_cycles=200)
    assert (0, 0) not in cache.traces


def test_abort_recording_discards_cleanly():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cache.begin_recording((0, 2))
    cache.record_step(cpu, 0, 2, 0, 3)
    cache.abort_recording()
    assert cache._rec_key is None
    assert cache._rec_steps is None
    assert (0, 2) not in cache.blacklist
    assert (0, 2) not in cache.traces


def test_untraceable_plan_cuts_the_recording():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    # Simulate a slot whose table entry holds an untraceable plan.
    halt = MicroInstruction(ff=int(FF.HALT), nc=NextControl.pack(NextType.GOTO, 6))
    step, _ = cache.steps[(0, 5)]
    cache.steps[(0, 5)] = (step, compile_plan(halt, 5, cpu.control))
    cache.begin_recording((0, 4))
    cache.record_step(cpu, 0, 4, 0, 5)
    cache.record_step(cpu, 0, 5, 0, 6)  # untraceable: finish as straight
    assert (0, 4) in cache.blacklist  # one step < MIN_STRAIGHT_STEPS
    assert cache._rec_key is None


# --------------------------------------------------------------------------
# invalidation
# --------------------------------------------------------------------------

def test_invalidate_all_clears_in_place_and_counts():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    cache = cpu._traces
    traces_dict = cache.traces
    assert traces_dict
    before = cache.invalidations
    cache.invalidate_all()
    assert cache.traces is traces_dict and not traces_dict
    assert not cache.counts and not cache.blacklist
    assert cache.invalidations == before + 1
    # A second sweep over an already-empty cache is not an invalidation.
    cache.invalidate_all()
    assert cache.invalidations == before + 1


def test_attach_device_drops_traces():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu.attach_device(DisplayController(munch_interval_cycles=8))
    assert not cpu._traces.traces


def _ring_run_with_rewrite(config, rewrite: bool) -> Processor:
    """The 8-slot ring run hot from a start snapshot, its slot 3 then
    rewritten (and, with *rewrite*, run hot again under the new word),
    and the start snapshot restored: the restored machine runs on."""
    cpu = _ring_machine(8)
    cpu.tier = config.tier
    start = cpu.snapshot()
    cpu.run(max_cycles=200)
    cpu.im[3] = _goto(4, load=int(LoadControl.T), ff=0o77)
    if rewrite:
        cpu.run(max_cycles=200)
    cpu.restore(start)
    cpu.run(max_cycles=200)
    return cpu


@pytest.mark.parametrize("what", ["im", "alufm"])
def test_restore_drops_code_the_snapshot_invalidates(what):
    """A snapshot whose IM or ALUFM differs from the live machine's
    brings back words or ALU operations the live machine's steps and
    regions were not generated from: the restored machine must run the
    snapshot's, byte-identical to the interpreter.  (A restore that
    changes neither keeps the code: see
    ``test_forked_and_restored_machines_enter_regions_without_codegen``.)"""
    if what == "im":
        reference = _ring_run_with_rewrite(INTERPRETED, rewrite=True)
        for config in (PLAN_ONLY, PRODUCTION):
            ran = _ring_run_with_rewrite(config, rewrite=True)
            assert ran.counters == reference.counters
            assert architectural_json(ran.snapshot()) == architectural_json(reference.snapshot())
            assert ran._traces.failures == []
        assert ran._traces.traces  # the replay ran hot again
        return
    # ALUFM: a snapshot from the second pass (ALUOp 0 rewritten to XOR,
    # its loop hot again) restored after a restart from the first.
    reference = _alufm_rewrite_machine(INTERPRETED)
    reference.run(max_cycles=5_000)
    expected = architectural_json(reference.snapshot())
    for config in (PLAN_ONLY, PRODUCTION):
        cpu = _alufm_rewrite_machine(config)
        start = cpu.snapshot()
        cpu.run(max_cycles=5_000)  # to HALT: ALUOp 0 is XOR now
        cpu.restore(start)  # ALUOp 0 is ADD again
        cpu.run(max_cycles=5_000)
        assert cpu.console.trace == reference.console.trace
        assert cpu.counters == reference.counters
        assert architectural_json(cpu.snapshot()) == expected


@pytest.mark.parametrize("poke", ["direct", "slice"])
def test_im_write_drops_traces_and_recording(poke):
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    cache = cpu._traces
    assert cache.traces
    inst = _goto(1)
    if poke == "direct":
        cpu.im[3] = inst
    else:
        cpu.im[3:4] = [inst]
    assert not cache.traces
    assert not cache.counts
    assert cache._rec_key is None


def test_supervisor_degrade_disables_the_traced_tier():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu.tier = "interp"  # what Supervisor._maybe_degrade sets
    cache_entries = cpu._traces.entries
    cpu.run(max_cycles=100)
    assert cpu._traces.entries == cache_entries  # never entered again


# --------------------------------------------------------------------------
# coverage: side exits as region heads, IFU-free traces under a running IFU
# --------------------------------------------------------------------------

#: The rotation workloads at sizes that run well past two 20k-cycle slices.
ROTATION_SIZES = {
    "mesa_loop_sum": {"n": 4000},
    "lisp_list_sum": {"n": 1400},
    "bcpl_loop_sum": {"n": 6000},
    "smalltalk_counter": {"sends": 1800},
    "mesa_mul_kernel": {"iters": 2700},
}


def _watch_traces(cache, seen):
    """Wrap every compiled trace to log ``(ifu_running, key, landing)``
    for each entry that made progress."""

    def watch(key, fn):
        def traced(cpu, budget):
            ifon = cpu.ifu.running
            before = cpu.counters.cycles
            fn(cpu, budget)
            if cpu.counters.cycles != before:
                seen.append((ifon, key, (cpu.pipe.this_task, cpu.this_pc)))
        return traced

    for key, fn in list(cache.traces.items()):
        cache.traces[key] = watch(key, fn)


def test_side_exit_landing_becomes_a_trace_head():
    """Macro handlers are entered by IFU dispatch, never by a back edge;
    the pc a trace exits to is counted as a region head instead."""
    w = smalltalk_counter(sends=600)
    cache = w.cpu._traces
    w.run_slice(20_000)
    seen = []
    _watch_traces(cache, seen)
    w.run_slice(5_000)
    landings = Counter(landing for _, _, landing in seen)
    frequent = [key for key, exits in landings.items() if exits >= HOT_THRESHOLD]
    assert len(frequent) > 1
    for key in frequent:
        assert key in cache.traces, f"exit landing {key} is not a trace head"


def test_ifu_free_trace_ticks_a_running_ifu():
    """A fast trace that never touches the IFU enters (and makes
    progress) while the IFU prefetches, byte-identical to the
    interpreter."""
    traced = smalltalk_counter(sends=600)
    interp = smalltalk_counter(sends=600, config=INTERPRETED)
    cache = traced.cpu._traces
    traced.run_slice(20_000)
    interp.run_slice(20_000)
    ifu_free = {key for key, fn in cache.traces.items() if "ifon = ifu.running" in fn.source}
    assert ifu_free, "smalltalk_counter compiles IFU-free fast traces"
    seen = []
    _watch_traces(cache, seen)
    for _ in range(10):
        traced.run_slice(997)
        interp.run_slice(997)
    assert any(ifon and key in ifu_free for ifon, key, _ in seen)
    traced.run()  # to HALT, verifying the result
    interp.run()
    a, b = traced.cpu, interp.cpu
    assert a.counters == b.counters
    assert architectural_json(a.snapshot()) == architectural_json(b.snapshot())


@pytest.mark.parametrize("name", sorted(ROTATION_SIZES))
def test_traces_cover_the_warm_slice(name):
    """Deterministic coverage guard (it counts cycles, not time): once
    warm, almost every cycle runs inside a trace, and almost no entry
    returns without progress."""
    w = ALL_WORKLOADS[name](**ROTATION_SIZES[name])
    cache = w.cpu._traces
    w.run_slice(20_000)
    before = cache.stats()
    ran = w.run_slice(20_000).cycles
    after = cache.stats()
    assert ran == 20_000
    traced = after["traced_cycles"] - before["traced_cycles"]
    entries = after["entries"] - before["entries"]
    stalls = after["stalls"] - before["stalls"]
    assert traced >= 0.95 * ran, f"{traced} of {ran} cycles traced"
    assert stalls < 0.01 * entries, f"{stalls} of {entries} entries stalled"


# --------------------------------------------------------------------------
# codegen no rotation workload reaches, pinned on hand-built run() loops
# --------------------------------------------------------------------------

def _branch_body(cond):
    def body(asm):
        asm.emit(r="x", a="RM", b=0x4000, alu="ADD", load="RM",
                 branch=(cond, "taken", "next"))
        asm.label("taken")
        asm.emit(r="acc", a="RM", alu="INC", load="RM", goto="next")
    return body


def _odd_body(asm):
    asm.emit(r="x", a="RM", alu="INC", load="RM", branch=("ODD", "taken", "next"))
    asm.label("taken")
    asm.emit(r="acc", a="RM", alu="INC", load="RM", goto="next")


def _shift_body(ff):
    def body(asm):
        asm.emit(r="x", a="RM", alu="A", ff=ff, load="RM")
        asm.emit(r="x", a="RM", alu="INC", load="RM", goto="next")
    return body


def _dispatch8_body(asm):
    asm.emit(r="x", a="RM", alu="INC", load="RM")
    asm.emit(r="x", b="RM", alu="B", dispatch8=[f"d{k}" for k in range(8)])
    for k in range(8):
        asm.label(f"d{k}")
        asm.emit(r="acc", a="RM", b=k, alu="ADD", load="RM", goto="next")


def _count_small_body(asm):
    asm.emit(r="x", a="RM", alu="INC", load="RM", count=9, goto="next")


def _read_count_body(asm):
    asm.emit(r="x", a="RM", alu="INC", load="RM", ff=FF.COUNT_B)
    asm.emit(r="acc", ff=FF.READ_COUNT, load="RM", goto="next")


def _thistask_body(asm):
    asm.emit(r="acc", a="RM", b="TASK", alu="ADD", load="RM", goto="next")


#: body -> a line of generated source only that codegen emits.
UNEXERCISED = {
    "carry": (_branch_body("CARRY"), "ct = x > 65535"),
    "odd": (_odd_body, "ct = r & 1"),
    "ovf": (_branch_body("OVF"), "ct = ((a ^ b) & 32768) == 0 and ((x ^ a) & 32768) != 0"),
    "lsh": (_shift_body(FF.RESULT_LSH), "res = (r << 1) & 0xFFFF"),
    "rsh": (_shift_body(FF.RESULT_RSH), "res = (r >> 1) & 0xFFFF"),
    "dispatch8": (_dispatch8_body, "+ (b & 0x7)) &"),
    # Reached through the generic calls: no inline specialization.
    "count_small": (_count_small_body, f", 0, {count_small(9)}, b, a, "),
    "read_count": (
        _read_count_body,
        f"res = cpu._result_override(0, {int(FF.READ_COUNT)}, ",
    ),
    "thistask": (_thistask_body, f"b = cpu._read_extb(0, {int(FF.EXTB_THISTASK)})"),
}


def _loop_machine(config, body) -> Processor:
    """Run a 200-iteration loop whose body is *body* to HALT."""
    asm = Assembler(config)
    asm.registers({"x": 1, "n": 2, "acc": 3})
    asm.label("main")
    asm.emit(r="n", b=200, alu="B", load="RM")
    asm.emit(r="x", b=0x7000, alu="B", load="RM")
    asm.label("loop")
    body(asm)
    asm.label("next")
    asm.emit(r="n", a="RM", alu="DEC", load="RM", branch=("ZERO", "done", "loop"))
    asm.label("done")
    asm.emit(ff=FF.HALT, idle=True)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.boot(cpu.address_of("main"))
    cpu.run(max_cycles=20_000)
    assert cpu.halted
    return cpu


@pytest.mark.parametrize("name", sorted(UNEXERCISED))
def test_unexercised_codegen_matches_the_plan_tier(name):
    """CARRY/ODD/OVF branches, LSH/RSH results and DISPATCH8 stay in the
    codegen as plain datapath transliteration, and COUNT writes/reads and
    the THISTASK EXTB read take the generic ``_apply_ff``,
    ``_result_override`` and ``_read_extb`` calls: each compiles into a
    trace that runs, and the machine ends byte-identical to the
    interpreter (the plan tier is generated by the same codegen, so it
    is no independent reference)."""
    body, line = UNEXERCISED[name]
    traced = _loop_machine(PRODUCTION, body)
    interp = _loop_machine(INTERPRETED, body)
    cache = traced._traces
    assert cache.failures == []
    assert any(line in src for src in (fn.source for fn in cache.traces.values()))
    assert cache.stats()["traced_cycles"] > traced.counters.cycles // 2
    assert traced.counters == interp.counters
    assert architectural_json(traced.snapshot()) == architectural_json(interp.snapshot())


def test_keyboard_ioatn_spin_runs_traced():
    """A task-0 IOATN poll loop is a natural run() loop: it compiles."""
    from tests.test_keyboard import keyboard_machine

    cpu, _ = keyboard_machine()
    cpu.run(3000)
    cache = cpu._traces
    assert cache.failures == []
    assert any("dev_ = devmap.get(" in src for src in (fn.source for fn in cache.traces.values()))
    assert cache.stats()["traced_cycles"] > 2500


def _step_source(cpu, task, pc):
    """A step for *(task, pc)* generated afresh for *cpu*, bypassing the
    process-wide memo: the source its table entry must hold."""
    key = code_key(cpu._composition, task, False, [(pc, cpu.im[pc])])
    return compile_trace(*key, step=True).source


def _compiled_entries(cpu):
    return {
        key: step for key, (step, _) in cpu._traces.steps.items()
        if step is not _interp_step
    }


def _notify_ring(config) -> Processor:
    """The 8-slot GOTO ring with slot 3 a NOTIFY (fall through to 4),
    run hot enough to trace."""
    cpu = _ring_machine(8)
    cpu.tier = config.tier
    cpu.im[3] = MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl.T, ff=3,
        nc=NextControl.pack(NextType.MISC, int(Misc.NOTIFY) << 3),
    )
    cpu.run(max_cycles=200)
    return cpu


def test_fast_io_and_notify_compile():
    """Fast I/O references and NOTIFY compile like any other slot.  The
    fast-I/O display scenario, with and without explicit notification,
    and a ring with a NOTIFY slot run them from compiled steps (and,
    traced, inside a region) byte-identical to the interpreter."""
    from tests.test_fastpath_parity import (
        CONFIGS, _display_run, assert_same_machine, machine_state,
    )

    cpu = Processor(PRODUCTION)
    fetch = MicroInstruction(
        asel=ASel.RM_FETCH, bsel=BSel.RM, ff=int(FF.IOFETCH),
        nc=NextControl.pack(NextType.GOTO, 1),
    )
    store = MicroInstruction(
        asel=ASel.RM_STORE, bsel=BSel.RM, ff=int(FF.IOSTORE),
        nc=NextControl.pack(NextType.GOTO, 1),
    )
    notify = MicroInstruction(nc=NextControl.pack(NextType.MISC, int(Misc.NOTIFY) << 3))
    for inst in (fetch, store, notify, _goto(1)):
        assert plan_traceable(compile_plan(inst, 0, cpu.control))

    for explicit_notify in (False, True):
        reference = _display_run(INTERPRETED, explicit_notify)
        for label, config in CONFIGS[1:]:
            ran = _display_run(config, explicit_notify)
            assert_same_machine(ran, reference)
            assert ran._traces.stats()["interp_cycles"] == 0
            sources = [step.source for step in _compiled_entries(ran).values()]
            assert any("cpu._start_reference(" in src for src in sources)

    reference = _notify_ring(INTERPRETED)
    assert len(reference.console.notifications) == 25
    for label, config in CONFIGS[1:]:
        ran = _notify_ring(config)
        assert machine_state(ran) == machine_state(reference)
        assert ran._traces.stats()["interp_cycles"] == 0
        assert "console.record_notify(3)" in ran._traces.steps[(0, 3)][0].source
    assert any("console.record_notify(3)" in src for src in (fn.source for fn in ran._traces.traces.values()))


def _composition_machines(base):
    """One machine of every composition in the parity matrix on *base*'s
    tier, run far enough to fill its step table."""
    from tests.test_fastpath_parity import (
        _CORRECTABLE, _disk_run, _display_run, _ring_run,
    )

    def mesa(**overrides):
        workload = mesa_loop_sum(60, config=dataclasses.replace(base, **overrides))
        workload.run()
        return workload.cpu

    def loop(**overrides):
        return _loop_machine(dataclasses.replace(base, **overrides), _count_small_body)

    machines = {
        "device-free": mesa(),
        "fault task": mesa(fault_task=9),
        "injector": mesa(fault_injection=_CORRECTABLE),
        "hold limit": mesa(hold_limit=5000),
        "bypass": loop(),
        "no bypass": loop(bypass_enabled=False),
        "display": _display_run(base, explicit_notify=True),
        "disk": _disk_run(base),
    }
    for node in _ring_run(base).nodes:
        machines[f"ring node {node.index}"] = node.cpu
    return machines


def _assert_composition_current(name, cpu):
    """The machine's composition is what its facts are now: recomputing
    it changes nothing (and so drops nothing)."""
    composition = cpu._composition
    steps = dict(cpu._traces.steps)
    cpu._recompose()
    assert cpu._composition is composition, name
    assert cpu._traces.steps == steps, name


def test_shared_steps_key_on_every_composition_fact(monkeypatch):
    """Machines of every composition share one step memo and one region
    memo; each table entry must still hold exactly the code generated
    from its own machine's facts, so the key covers everything the
    emitter folds in.  The plan-tier machines check steps, the traced
    ones (with the memos emptied again) regions: every region a machine
    runs sits in the memo under its machine's composition, task and
    head, and its source is what that key generates."""
    monkeypatch.setattr(tracecache_mod, "_STEP_MEMO", {})
    machines = _composition_machines(PLAN_ONLY)
    for name, cpu in machines.items():
        _assert_composition_current(name, cpu)
        compiled = _compiled_entries(cpu)
        assert compiled, name
        for (task, pc), step in compiled.items():
            assert step.source == _step_source(cpu, task, pc), (name, task, pc)
    # The memo really was shared: the ring's nodes run one program on
    # one composition and hit each other's steps.
    node0 = _compiled_entries(machines["ring node 0"])
    assert set(node0.values()) & set(_compiled_entries(machines["ring node 1"]).values())

    monkeypatch.setattr(tracecache_mod, "_STEP_MEMO", {})
    regions = {}
    monkeypatch.setattr(tracecache_mod, "_REGION_MEMO", regions)
    machines = _composition_machines(PRODUCTION)
    keys = {id(fn): key for key, fn in regions.items()}
    for name, cpu in machines.items():
        _assert_composition_current(name, cpu)
        assert cpu._traces.failures == [], name
        if name in ("display", "disk"):
            continue  # run_until enters no region
        assert cpu._traces.traces, name
        for (task, entry), fn in cpu._traces.traces.items():
            composition, key_task, loop, path = keys[id(fn)]
            assert (composition, key_task, path[0][0]) == (cpu._composition, task, entry)
            assert fn.source == compile_trace(composition, task, loop, path).source
    node0 = set(machines["ring node 0"]._traces.traces.values())
    assert node0 & set(machines["ring node 1"]._traces.traces.values())


def _alufm_rewrite_machine(config):
    """Two passes over one loop whose ADD (ALUOp 0) the first pass
    compiles; between the passes ALUFM_WRITE turns ALUOp 0 into XOR."""
    asm = Assembler(config)
    asm.registers({"x": 1, "n": 2, "pass": 3})
    asm.emit(r="pass", b=2, alu="B", load="RM")
    asm.label("outer")
    asm.emit(r="n", b=41, alu="B", load="RM")
    asm.label("loop")
    asm.emit(r="x", a="RM", b=0x0023, alu=0, load="RM")
    asm.emit(r="n", a="RM", alu="DEC", load="RM", branch=("ZERO", "done", "loop"))
    asm.label("done")
    asm.emit(r="x", b="RM", ff=FF.TRACE)
    asm.emit(r="pass", a="RM", alu="DEC", load="RM", branch=("ZERO", "end", "rewrite"))
    asm.label("rewrite")
    asm.emit(b=AluControl(AluFunc.A_XOR_B).encode(), alu="B", load="T")
    asm.emit(b="T", alu=0, ff=FF.ALUFM_WRITE, goto="outer")
    asm.label("end")
    asm.emit(ff=FF.HALT, idle=True)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    return cpu


def test_alufm_write_recompiles_a_compiled_loop():
    """A loop's ADD step (and, traced, its region) is compiled before
    ALUFM_WRITE rewrites ALUOp 0; the second pass must run XOR on every
    tier, byte-identical to the interpreter.  Restoring the start state
    brings ADD back under steps compiled for XOR: they must go too."""
    reference = _alufm_rewrite_machine(INTERPRETED)
    reference.run(max_cycles=5_000)
    assert reference.halted
    added = (0x0023 * 41) & 0xFFFF
    assert reference.console.trace == [added, added ^ 0x0023]
    expected = architectural_json(reference.snapshot())
    for config in (PLAN_ONLY, PRODUCTION):
        cpu = _alufm_rewrite_machine(config)
        start = cpu.snapshot()
        for _ in range(2):
            cpu.run(max_cycles=5_000)
            assert cpu.console.trace == reference.console.trace
            assert cpu.counters == reference.counters
            assert architectural_json(cpu.snapshot()) == expected
            cpu.restore(start)
        assert cpu._traces.failures == []


@pytest.mark.parametrize("name", sorted(ROTATION_SIZES))
def test_forks_and_resumed_sessions_generate_no_step_source(name, monkeypatch):
    """Once one run of a workload has filled the step memo, a fork of a
    fresh session and a ``Session.resume`` of it fill their tables from
    the memo: no step source is generated for them."""
    from repro.service import Session

    monkeypatch.setattr(tracecache_mod, "_STEP_MEMO", {})
    Session.build(name).run()
    generated = []
    compile_real = tracecache_mod.compile_trace

    def counting(*args, step=False, **kwargs):
        if step:
            generated.append(args[1:3])
        return compile_real(*args, step=step, **kwargs)

    monkeypatch.setattr(tracecache_mod, "compile_trace", counting)
    session = Session.build(name)
    session.run_slice(1200)
    clone = session.cpu.fork()
    clone.run(1200)
    resumed = Session.resume(session.suspend())
    resumed.run()
    assert clone._traces.steps and resumed.cpu._traces.steps
    assert generated == []


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("name", sorted(ROTATION_SIZES))
def test_second_sessions_of_a_template_record_no_region(name, faulted):
    """Every session of one template is a fork of it, so all of them
    share one fork family and, whatever their fault plan, one table
    pair: once one session has run to HALT, a second ``Session.build``
    records no region in its first slice, and a ``Session.resume`` of it
    runs the family's regions.  A clean resumed session records none
    either.  A faulted one is supervised: it rolls back to its envelope,
    not to where the first session's supervisor did, and a fast loop
    refuses the tail of each sweep chunk shorter than one iteration, so
    it steps other cycles and may heat a head the first never did."""
    from repro.service import Session
    from repro.service.loadtest import FAULT_TEMPLATE

    fault = dict(FAULT_TEMPLATE, seed=101) if faulted else None
    args = {key: value // 20 for key, value in ROTATION_SIZES[name].items()}
    first = Session.build(name, args=args, fault=fault)
    first.run()
    second = Session.build(name, args=args, fault=fault)
    second.run_slice(1200)
    resumed = Session.resume(second.suspend())
    resumed.run()
    assert resumed.result() == first.result()
    for session in (second, resumed):
        stats = session.cpu._traces.stats()
        assert stats["traced_cycles"] > 0, stats
        assert stats["compiled"] == 0 or (faulted and session is resumed), stats
        assert session.cpu._traces.traces is first.cpu._traces.traces


def _ring_template():
    """The 8-slot ring run hot on the traced tier, and its interpretive
    twin run as far."""
    template = _ring_machine(8)
    template.run(max_cycles=200)
    twin = _ring_machine(8)
    twin.tier = "interp"
    twin.run(max_cycles=200)
    return template, twin


@pytest.mark.parametrize("how", ["poke", "fork_into_state"])
def test_an_im_write_takes_the_writer_out_of_its_fork_family(how):
    """A fork that writes its IM -- a direct poke, or forked into a state
    whose IM differs -- no longer holds its family's words: it gets
    empty tables of its own, the template and a sibling keep theirs,
    and all three run byte-identical to the interpreter."""
    template, twin = _ring_template()
    steps, traces = template._traces.steps, template._traces.traces
    regions = dict(traces)
    assert regions
    sibling, sibling_twin = template.fork(), twin.fork()
    rewritten = _goto(5, load=int(LoadControl.T), ff=0o77)  # slot 3 skips slot 4
    if how == "poke":
        writer, writer_twin = template.fork(), twin.fork()
        for machine in (writer, writer_twin):
            machine.im[3] = rewritten
    else:
        donor = twin.fork()
        donor.im[3] = rewritten
        state = donor.snapshot()
        writer, writer_twin = template.fork(state), twin.fork(state)
    assert writer._traces.steps is not steps and not writer._traces.steps
    assert writer._traces.traces is not traces and not writer._traces.traces
    for machine in (template, sibling):
        assert machine._traces.steps is steps and machine._traces.traces is traces
    assert traces == regions
    for machine, reference in (
        (writer, writer_twin), (sibling, sibling_twin), (template, twin),
    ):
        machine.run(max_cycles=301)
        reference.run(max_cycles=301)
        assert machine.counters == reference.counters
        assert architectural_json(machine.snapshot()) == architectural_json(
            reference.snapshot()
        )
        assert machine._traces.stats()["traced_cycles"] > 0
    assert writer._traces.traces  # ran hot again, on its own words


def _plan_tier_machines():
    from repro.graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
    from repro.graphics.bitmap import Bitmap
    from tests.test_fastpath_parity import _display_run

    for name in sorted(ROTATION_SIZES):
        workload = ALL_WORKLOADS[name](config=PLAN_ONLY)
        workload.run()
        yield name, workload.cpu
    cpu = build_bitblt_machine(PLAN_ONLY)
    Bitmap(cpu.memory, 0x2000, 17, 16).load_pattern()
    run_bitblt(
        cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
        words_per_row=16, rows=16, src_pitch=17, dst_pitch=16, shift=5,
    )
    yield "E2 bitblt", cpu
    yield "E4 display", _display_run(PLAN_ONLY, explicit_notify=False)


def test_plan_tier_steps_through_the_interpreter_only_to_halt():
    """On the plan tier every slot of the rotation workloads, BitBlt and
    the fast-I/O display runs a compiled step: at most the HALT steps
    through the interpreter, and the stats report the table."""
    for name, cpu in _plan_tier_machines():
        stats = cpu._traces.stats()
        assert stats["interp_cycles"] <= 1, name
        assert stats["steps"] == len(cpu._traces.steps) > 0, name
        assert stats["traced_cycles"] == 0, name
