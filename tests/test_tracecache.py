"""Unit tests for the compiled-trace cache mechanism itself.

``tests/test_fastpath_parity.py`` proves the traced tier bit-identical
to the other two cycle implementations; this file pins the *mechanism*
around the generated code -- hot-region detection, recording cut-offs,
blacklisting, the process-wide compile memo, invalidation hooks, and
the stats surface -- on small hand-built machines where each edge is
easy to reach deliberately, and the coverage the tier reaches on the
rotation workloads (side exits as region heads, IFU-free traces under a
running IFU).
"""

from collections import Counter

import pytest

from repro import Processor
from repro.config import PLAN_ONLY, PRODUCTION
from repro.core.microword import (
    BSel,
    LoadControl,
    MicroInstruction,
    NextControl,
    NextType,
)
from repro.core.tracecache import (
    HOT_THRESHOLD,
    MAX_TRACE_STEPS,
    MIN_STRAIGHT_STEPS,
    TraceCache,
)
from repro.io.display import DisplayController
from repro.perf.workloads import ALL_WORKLOADS, smalltalk_counter
from repro.supervise import architectural_json


def _goto(dest: int, load: int = 0, ff: int = 0) -> MicroInstruction:
    return MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl(load), ff=ff,
        nc=NextControl.pack(NextType.GOTO, dest),
    )


def _ring_machine(slots: int, hot_threshold: int = 2) -> Processor:
    """A PRODUCTION machine spinning a ring of *slots* GOTOs."""
    cpu = Processor(PRODUCTION)
    cpu._traces = TraceCache(cpu, hot_threshold=hot_threshold)
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
    assert cache.sources[(0, 0)].count("# -- step") == 12


def test_compile_memo_shares_code_not_closures():
    """Twin machines share compiled code objects, never closures."""
    a = _ring_machine(8)
    b = _ring_machine(8)
    a.run(max_cycles=200)
    b.run(max_cycles=200)
    fn_a = a._traces.traces[(0, 0)]
    fn_b = b._traces.traces[(0, 0)]
    assert fn_a is not fn_b
    assert fn_a.__code__ is fn_b.__code__


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
    cache.record_step(0, 3, 0, 4)
    cache.record_step(0, 4, 1, 5)
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
    cache.record_step(0, 2, 0, 3)
    cache.abort_recording()
    assert cache._rec_key is None
    assert cache._rec_steps is None
    assert (0, 2) not in cache.blacklist
    assert (0, 2) not in cache.traces


def test_untraceable_plan_cuts_the_recording():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cpu._plans[5] = None  # simulate a slot the plan compiler rejected
    cache.begin_recording((0, 4))
    cache.record_step(0, 4, 0, 5)
    cache.record_step(0, 5, 0, 6)  # plan is None: finish as straight
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
    assert not cache.counts and not cache.blacklist and not cache.sources
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


def test_restore_drops_traces():
    cpu = _ring_machine(8)
    snap = cpu.snapshot()
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu.restore(snap)
    assert not cpu._traces.traces


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
    cpu._trace_enabled = False  # what Supervisor._maybe_degrade sets
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
    cache = w.ctx.cpu._traces
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
    progress) while the IFU prefetches, byte-identical to PLAN_ONLY."""
    traced = smalltalk_counter(sends=600)
    plan = smalltalk_counter(sends=600, config=PLAN_ONLY)
    cache = traced.ctx.cpu._traces
    traced.run_slice(20_000)
    plan.run_slice(20_000)
    ifu_free = {key for key, src in cache.sources.items() if "ifon = ifu.running" in src}
    assert ifu_free, "smalltalk_counter compiles IFU-free fast traces"
    seen = []
    _watch_traces(cache, seen)
    for _ in range(10):
        traced.run_slice(997)
        plan.run_slice(997)
    assert any(ifon and key in ifu_free for ifon, key, _ in seen)
    traced.run()  # to HALT, verifying the result
    plan.run()
    a, b = traced.ctx.cpu, plan.ctx.cpu
    assert a.counters == b.counters
    assert architectural_json(a.snapshot()) == architectural_json(b.snapshot())


@pytest.mark.parametrize("name", sorted(ROTATION_SIZES))
def test_traces_cover_the_warm_slice(name):
    """Deterministic coverage guard (it counts cycles, not time): once
    warm, almost every cycle runs inside a trace, and almost no entry
    returns without progress."""
    w = ALL_WORKLOADS[name](**ROTATION_SIZES[name])
    cache = w.ctx.cpu._traces
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
