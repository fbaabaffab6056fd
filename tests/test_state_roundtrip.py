"""The machine-wide snapshot/restore/fork protocol (DESIGN.md section 5.4).

The contract under test: a :class:`~repro.state.MachineState` captures
*all* architectural state and *only* architectural state.  Restoring a
snapshot and re-running must reproduce the original execution
byte-for-byte -- on both cycle implementations, with and without fault
injection, with devices and fast I/O in flight -- and a forked machine
must be completely independent of its parent.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Assembler,
    MachineState,
    Processor,
    StateError,
    diff_states,
)
from repro.config import PRODUCTION, TIERS, MachineConfig
from repro.fault import FaultConfig
from repro.io.display import DisplayController, display_fast_microcode
from repro.perf.workloads import ALL_WORKLOADS, mesa_loop_sum
from repro.mem.storage import Storage
from repro.service import Session
from repro.supervise import architectural_json
from repro.state import (
    MAX_RESTORE_WORDS,
    RLE_MIN,
    STATE_FORMAT_VERSION,
    canonical_json,
    parse_canonical_json,
)
from repro.types import MUNCH_WORDS

FAULTS = FaultConfig(seed=7, storage_correctable=5, map_faults=2, last_cycle=3000)

#: The four machine variants every round-trip property must hold on:
#: both cycle implementations, each clean and fault-injected.
CONFIGS = {
    "plan": PRODUCTION,
    "interp": dataclasses.replace(PRODUCTION, tier="interp"),
    "plan_faulted": dataclasses.replace(PRODUCTION, fault_injection=FAULTS),
    "interp_faulted": dataclasses.replace(
        PRODUCTION, tier="interp", fault_injection=FAULTS
    ),
}

# One machine per variant, reset to its boot snapshot between examples;
# building the Mesa emulator image dominates the test's cost otherwise.
_MACHINES = {}


def _machine(variant):
    if variant not in _MACHINES:
        cpu = mesa_loop_sum(60, config=CONFIGS[variant]).cpu
        _MACHINES[variant] = (cpu, cpu.snapshot())
    cpu, pristine = _MACHINES[variant]
    cpu.restore(pristine)
    return cpu


# --- the core property ------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(CONFIGS))
@settings(max_examples=8, deadline=None)
@given(n=st.integers(0, 1200), k=st.integers(1, 600))
def test_restore_replays_byte_identically(variant, n, k):
    """run n, snapshot, run k -- restoring and re-running k matches."""
    cpu = _machine(variant)
    cpu.run(n)
    mid = cpu.snapshot()
    mid_json = mid.to_json()
    cpu.run(k)
    end_json = cpu.snapshot().to_json()
    end_counters = cpu.counters.state_dict()

    cpu.restore(mid)
    resnap = cpu.snapshot()
    assert resnap.to_json() == mid_json, diff_states(resnap, mid)
    cpu.run(k)
    assert cpu.snapshot().to_json() == end_json
    assert cpu.counters.state_dict() == end_counters


def test_snapshot_does_not_alias_live_state():
    """A held snapshot must not change as the machine keeps stepping."""
    cpu = _machine("plan")
    cpu.run(500)
    snap = cpu.snapshot()
    frozen = snap.to_json()
    cpu.run(500)
    assert snap.to_json() == frozen


def test_im_writes_between_snapshots_show_in_the_next():
    """The snapshot's IM section is kept between IM writes; every write
    path -- a poke, a slice, the console, a restore -- shows up in the
    next snapshot, and editing a snapshot does not reach the next."""
    cpu = Processor()
    asm = Assembler()
    asm.emit(r=1, b=5, alu="B", load="RM")
    asm.halt()
    image = asm.assemble()
    cpu.load_image(image)
    first = cpu.snapshot()
    assert first.data["im"] == {a: i.encode() for a, i in image.words.items()}
    word, other = image.words.values()

    cpu.im[4000] = word
    second = cpu.snapshot()
    assert second.data["im"][4000] == word.encode()
    assert 4000 not in first.data["im"]

    cpu.im[10:12] = [word, word]
    assert {10, 11} <= set(cpu.snapshot().data["im"])

    bits = other.encode()
    cpu.console.latch_im_address(4001)
    cpu.console.im_write_low(bits & 0xFFFF)
    cpu.console.im_write_mid(bits >> 16 & 0xFFFF)
    cpu.console.im_write_high(bits >> 32, cpu.im)
    assert cpu.snapshot().data["im"][4001] == bits

    second.data["im"][4002] = bits
    assert 4002 not in cpu.snapshot().data["im"]

    cpu.restore(first)
    assert cpu.snapshot().data["im"] == first.data["im"]


def test_same_snapshot_restores_twice():
    cpu = _machine("plan")
    cpu.run(400)
    snap = cpu.snapshot()
    cpu.run(300)
    first = None
    for _ in range(2):
        cpu.restore(snap)
        cpu.run(300)
        end = cpu.snapshot().to_json()
        assert first is None or end == first
        first = end


def _lru_state(cache):
    return cache.clock, list(cache.lru)


def test_snapshot_leaves_a_cached_code_munch_untouched():
    """Snapshotting a decoded IFU head reads no memory.

    With the code munch in the cache (as a data Fetch of it leaves it),
    a code-byte read would bump the cache clock and the line's LRU, so
    a checkpointed machine would drift from one that is not.
    """
    cpu = Session.build("mesa_loop_sum", args={"n": 200}).cpu
    cpu.run(500)
    while cpu.ifu._head is None:
        cpu.run(1)
    memory, ifu = cpu.memory, cpu.ifu
    va = memory.translator.bases[ifu.code_membase] + (ifu.pc >> 1)
    ra = memory.translator.translate(va, write=False)
    writeback = memory.cache.fill(ra, memory.storage.read_munch(ra))
    if writeback is not None:
        memory.storage.write_munch(*writeback)
    before = _lru_state(memory.cache)
    first = cpu.snapshot().to_json()
    second = cpu.snapshot().to_json()
    assert first == second
    assert _lru_state(memory.cache) == before


# --- every workload, both cycle paths ---------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
@pytest.mark.parametrize("path", ["plan", "interp"])
def test_workload_roundtrip(name, path):
    """Snapshot/restore is byte-identical for every perf workload."""
    workload = ALL_WORKLOADS[name](config=CONFIGS[path])
    cpu = workload.cpu
    cpu.run(2000)
    mid = cpu.snapshot()
    first_cycles = cpu.run(100_000)
    assert cpu.halted
    end_json = cpu.snapshot().to_json()
    assert workload.verify(cpu)

    cpu.restore(mid)
    replay_cycles = cpu.run(100_000)
    assert replay_cycles == first_cycles
    assert cpu.snapshot().to_json() == end_json
    assert workload.verify(cpu)


@pytest.mark.parametrize("source, target", [
    (a, b) for a in TIERS for b in TIERS if a != b
])
def test_snapshot_restores_at_another_tier(source, target):
    """The tier is not part of the machine: a snapshot taken mid-run on
    one tier, saved and loaded onto a machine at another, finishes as
    the uninterrupted traced run does."""

    reference = mesa_loop_sum(60)
    reference_cycles = reference.run()
    reference_json = architectural_json(reference.cpu.snapshot())

    before = mesa_loop_sum(60, config=MachineConfig(tier=source)).cpu
    ran = before.run(700)
    saved = before.snapshot().to_json()

    workload = mesa_loop_sum(60, config=MachineConfig(tier=target))
    cpu = workload.cpu
    cpu.restore(MachineState.from_json(saved))
    assert cpu.tier == target
    ran += cpu.run(100_000)
    assert cpu.halted and workload.verify(cpu)
    assert ran == reference_cycles
    assert architectural_json(cpu.snapshot()) == reference_json


# --- fork independence -------------------------------------------------------


def _display_machine():
    asm = Assembler()
    asm.emit(idle=True)
    display_fast_microcode(asm)
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    display = DisplayController(munch_interval_cycles=8)
    cpu.attach_device(display)
    for i in range(32 * MUNCH_WORDS):
        cpu.memory.debug_write(0x3000 + i, i)
    display.begin_band(cpu, 0x3000, 32)
    return cpu, display


def test_fork_is_independent_with_fast_io_in_flight():
    """Forked mid-band, parent and clone refresh the band separately."""
    cpu, display = _display_machine()
    cpu.run(100)
    while not cpu.memory._fast_in_flight:  # munch actually on the wire
        cpu.step()
    at_fork = cpu.snapshot().to_json()

    clone = cpu.fork()
    assert clone.snapshot().to_json() == at_fork
    assert clone.memory.storage is not cpu.memory.storage
    assert clone.counters is not cpu.counters
    assert clone._devices[0] is not display

    cpu.run_until(lambda m: display.done, max_cycles=50_000)
    assert display.done and display.underruns == 0
    # The parent ran to completion; the clone must not have moved.
    assert clone.snapshot().to_json() == at_fork

    mirror = clone._devices[0]
    clone.run_until(lambda m: mirror.done, max_cycles=50_000)
    assert mirror.done and mirror.underruns == 0
    assert mirror.pixels_consumed == display.pixels_consumed
    assert clone.snapshot().to_json() == cpu.snapshot().to_json()


def test_fork_replays_workload_to_same_result():
    cpu = _machine("plan_faulted")
    cpu.run(1500)
    clone = cpu.fork()
    first = cpu.run(100_000)
    second = clone.run(100_000)
    assert (first, cpu.halted) == (second, clone.halted)
    assert cpu.snapshot().to_json() == clone.snapshot().to_json()


def test_fork_writes_the_im_once(monkeypatch):
    """A fork copies its parent's IM in one write, so the clone's
    compiled-code tables hear of it once, not once per occupied slot."""
    cpu = mesa_loop_sum(60, config=PRODUCTION).cpu
    cpu.run(1200)
    assert sum(inst is not None for inst in cpu.im) > 1
    writes = []
    invalidate_im = Processor._invalidate_im

    def counting(machine, index):
        writes.append(index)
        invalidate_im(machine, index)

    monkeypatch.setattr(Processor, "_invalidate_im", counting)
    clone = cpu.fork()
    assert len(writes) <= 1
    assert list(clone.im) == list(cpu.im)
    assert clone.snapshot().to_json() == cpu.snapshot().to_json()
    assert clone.run(100_000) == cpu.run(100_000)
    assert clone.snapshot().to_json() == cpu.snapshot().to_json()


# --- warm compiled-trace caches (DESIGN.md section 5.6) ----------------------


def _warm_traced_machine():
    """A PRODUCTION machine run long enough to be executing traces."""
    cpu = mesa_loop_sum(60, config=PRODUCTION).cpu
    cpu._traces.hot_threshold = 2
    cpu.run(1200)
    assert cpu._traces.traces, "machine never got hot"
    assert cpu._traces.entries > 0
    return cpu


def test_restore_with_warm_trace_cache_replays_byte_identically():
    """Snapshot and restore around a hot trace cache stay bit-exact.

    Compiled traces are derived state: the snapshot must not carry
    them, and the replay -- which runs the regions the machine compiled
    before the restore -- must land on the identical architectural
    state and counters.
    """
    cpu = _warm_traced_machine()
    mid = cpu.snapshot()
    mid_json = mid.to_json()
    cpu.run(800)
    end_json = cpu.snapshot().to_json()
    end_counters = cpu.counters.state_dict()

    cpu.restore(mid)
    assert cpu.snapshot().to_json() == mid_json
    entries = cpu._traces.entries
    cpu.run(800)
    assert cpu.snapshot().to_json() == end_json
    assert cpu.counters.state_dict() == end_counters
    assert cpu._traces.entries > entries, "the replay entered no region"
    assert cpu._traces.failures == []


def _first_head_arrival(machine, heads, budget: int) -> int:
    """The cycle at which a plan-tier fork of *machine*, stepped cycle
    by cycle (``step()`` enters no region), first stands on one of
    *heads*."""
    probe = machine.fork()
    probe.tier = "plan"
    for _ in range(budget):
        if (probe.pipe.this_task, probe.this_pc) in heads:
            return probe.counters.cycles
        probe.step()
    raise AssertionError("no region head reached")


def _log_region_calls(machine, calls) -> None:
    """Wrap every region in *machine*'s table to log the cycle of each
    call."""

    def logged(fn):
        def region(cpu, budget):
            calls.append(cpu.counters.cycles)
            fn(cpu, budget)
        return region

    table = machine._traces.traces
    for key, fn in list(table.items()):
        table[key] = logged(fn)


@pytest.mark.parametrize("name", ["mesa_loop_sum", "smalltalk_counter"])
def test_forked_and_restored_machines_enter_regions_without_codegen(name, monkeypatch):
    """Compiled code depends only on its key, so a fork and a machine
    restored in place run the regions their machine compiled: each
    enters a region the first time it reaches a region head, generates
    no code at all, and ends byte-identical to the interpreter.  The
    fork is independent of its parent all the same: the parent running
    to HALT through the shared regions leaves the fork unmoved."""
    import repro.core.tracecache as tracecache_mod

    interp = ALL_WORKLOADS[name](config=dataclasses.replace(PRODUCTION, tier="interp"))
    interp.run()
    workload = ALL_WORKLOADS[name]()
    cpu = workload.cpu
    cpu.run(3000)
    assert cpu._traces.traces, "machine never got hot"
    mid = cpu.snapshot()
    clone = cpu.fork()
    at_fork = clone.snapshot().to_json()
    cpu.run(5_000_000)
    assert cpu.halted
    assert clone.snapshot().to_json() == at_fork
    cpu.restore(mid)
    generated = []
    compile_real = tracecache_mod.compile_trace

    def counting(*args, **kwargs):
        generated.append(args[1:3])
        return compile_real(*args, **kwargs)

    monkeypatch.setattr(tracecache_mod, "compile_trace", counting)

    for machine in (clone, cpu):
        heads = set(machine._traces.traces)
        arrival = _first_head_arrival(machine, heads, 2000)
        calls = []
        _log_region_calls(machine, calls)
        machine.run(5_000_000)
        assert calls and calls[0] == arrival
        assert workload.verify(machine)
        assert machine.counters == interp.cpu.counters
        assert architectural_json(machine.snapshot()) == architectural_json(
            interp.cpu.snapshot()
        )
        assert machine._traces.failures == []
    assert generated == []


@pytest.mark.parametrize("name", ["mesa_loop_sum", "smalltalk_counter"])
def test_forked_and_resumed_machines_record_no_region(name):
    """A fork and a machine forked into a parsed snapshot (the path a
    resumed session takes) join their parent's fork family, so they run
    the regions it recorded: each enters a region the first time it
    reaches a head, records nothing itself, and ends byte-identical to
    the interpreter."""
    interp = ALL_WORKLOADS[name](config=dataclasses.replace(PRODUCTION, tier="interp"))
    interp.run()
    workload = ALL_WORKLOADS[name]()
    cpu = workload.cpu
    cpu.run(3000)
    mid = MachineState.from_json(cpu.snapshot().to_json())
    clone = cpu.fork()
    cpu.run(5_000_000)  # records the rest of the run's regions
    assert cpu.halted
    heads = set(cpu._traces.traces)
    for machine in (clone, cpu.fork(mid)):
        assert machine._traces.traces is cpu._traces.traces
        arrival = _first_head_arrival(machine, heads, 2000)
        table = machine._traces.traces
        regions = dict(table)
        calls = []
        _log_region_calls(machine, calls)
        machine.run(5_000_000)
        table.update(regions)
        stats = machine._traces.stats()
        assert stats["compiled"] == 0 and stats["traced_cycles"] > 0
        assert calls and calls[0] == arrival
        assert workload.verify(machine)
        assert machine.counters == interp.cpu.counters
        assert architectural_json(machine.snapshot()) == architectural_json(
            interp.cpu.snapshot()
        )


# --- network controller mid-transfer, all three tiers -------------------------


def _network_machine(config):
    from repro.io.network import NetworkController, network_microcode

    asm = Assembler(config)
    asm.emit(idle=True)
    network_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    net = NetworkController()
    cpu.attach_device(net)
    return cpu, net


@pytest.mark.parametrize("tier", ["interp", "plan", "traced"])
@pytest.mark.parametrize("direction", ["rx", "tx"])
def test_network_mid_transfer_roundtrip_across_tiers(tier, direction):
    """Snapshot/restore with a network DMA in flight, on every tier.

    The cluster fabric snapshots machines between epochs, which can
    land mid-receive or mid-transmit; the controller's FIFO, pacing
    timer, and pair-fetch counters must all survive the round-trip on
    the interpreter, the plan cache, and the compiled-trace tier alike.
    """
    cpu, net = _network_machine(dataclasses.replace(PRODUCTION, tier=tier))
    if direction == "rx":
        net.begin_receive(cpu, buffer_va=0x5000, packet_words=32)
        net.inject_packet([(0x4000 + i) & 0xFFFF for i in range(32)])
    else:
        for i in range(16):
            cpu.memory.debug_write(0x5100 + i, (0x6000 + i) & 0xFFFF)
        net.begin_transmit(cpu, buffer_va=0x5100, packet_words=16)
    cpu.run(200)                      # mid-transfer: words still pacing
    assert net.mode != "idle" and not net.done
    mid = cpu.snapshot()
    mid_json = mid.to_json()
    cpu.run_until(lambda m: net.done, max_cycles=100_000)
    end_json = cpu.snapshot().to_json()

    cpu.restore(mid)
    assert cpu.snapshot().to_json() == mid_json
    cpu.run_until(lambda m: net.done, max_cycles=100_000)
    assert cpu.snapshot().to_json() == end_json


# --- boot() residue (the re-boot satellite) ----------------------------------


def test_boot_clears_run_residue():
    """Re-booting must not leak bypass/hold/IFU state into the new run."""
    asm = Assembler()
    asm.register("acc", 1)
    asm.label("start")
    asm.emit(r="acc", b=5, alu="B", load="RM")
    asm.emit(r="acc", a="RM", b=2, alu="ADD", load="RM")
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.boot("start")
    cpu.run(100)
    assert cpu.regs.rm[cpu.regs.rm_address(0, 1)] == 7

    # Poison the residue a paused/halted machine can carry, then re-boot.
    cpu._pending[1] = 0xDEAD
    cpu._consecutive_holds = 17
    cpu.boot("start")
    assert cpu._pending == {}
    assert cpu._consecutive_holds == 0
    assert cpu.ifu._head is None
    assert cpu.ifu._buffered == cpu.ifu.pc
    cpu.run(100)
    assert cpu.regs.rm[cpu.regs.rm_address(0, 1)] == 7


def test_boot_resets_fault_injector_and_latches():
    """Re-booting rewinds the fault schedule, trace, and fault latches.

    Without the reset, a second booted run would see a half-consumed
    injection plan and a stale FAULT_* latch -- the recovery supervisor
    depends on re-runs under one injector seeing the identical plan.
    """
    faulted = dataclasses.replace(
        PRODUCTION,
        fault_injection=FaultConfig(seed=3, map_faults=1, last_cycle=0),
    )
    asm = Assembler(faulted)
    asm.register("va", 1)
    asm.label("start")
    asm.emit(r="va", b=0x0200, alu="B", load="RM")
    asm.emit(r="va", a="RM", fetch=True)       # map fault fires here
    asm.emit(b="MD", alu="B", load="T")
    asm.halt()
    cpu = Processor(faulted)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    inj = cpu.fault_injector
    total = inj.pending
    cpu.boot("start")
    cpu.run(200)
    assert cpu.halted
    first = list(inj.trace)
    assert first and inj.pending == total - 1
    assert cpu.memory.fault_flags != 0         # FAULT_MAP latched, no fault task

    cpu.boot("start")
    assert inj.pending == total
    assert inj.trace == []
    assert cpu.memory.fault_flags == 0
    cpu.run(200)
    assert cpu.halted
    # Same events fire again (the record's cycle stamp is absolute
    # machine time, which boot deliberately does not rewind).
    assert [
        (r.component, r.kind, r.address, r.detail) for r in inj.trace
    ] == [(r.component, r.kind, r.address, r.detail) for r in first]
    assert cpu.memory.fault_flags != 0


# --- serialization -----------------------------------------------------------


def test_save_load_roundtrip_is_byte_identical(tmp_path):
    cpu = _machine("plan")
    cpu.run(700)
    snap = cpu.snapshot()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    snap.save(a)
    loaded = MachineState.load(a)
    loaded.save(b)
    assert a.read_bytes() == b.read_bytes()

    cpu.run(400)
    cpu.restore(loaded)
    assert cpu.snapshot().to_json() == snap.to_json()
    assert loaded == snap
    assert f"cycle={cpu.now}" in repr(loaded)


def test_config_mismatch_is_refused():
    snap = _machine("plan").snapshot()
    other = Processor(dataclasses.replace(PRODUCTION, cache_lines=256))
    with pytest.raises(StateError):
        other.restore(snap)


def test_version_mismatch_is_refused():
    cpu = _machine("plan")
    snap = cpu.snapshot()
    snap.data["version"] = STATE_FORMAT_VERSION + 1
    with pytest.raises(StateError):
        cpu.restore(snap)


def test_device_roster_mismatch_is_refused():
    cpu, _ = _display_machine()
    snap = cpu.snapshot()
    bare = Processor()  # no devices attached
    with pytest.raises(StateError):
        bare.restore(snap)


@pytest.mark.parametrize("address", [4096, -1, 10 ** 9])
def test_im_address_outside_the_im_is_refused(address):
    cpu = _machine("plan")
    snap = MachineState.from_json(cpu.snapshot().to_json())
    snap.data["im"][address] = 0
    with pytest.raises(StateError, match="IM"):
        cpu.restore(snap)


def test_malformed_json_is_refused():
    with pytest.raises(StateError):
        MachineState.from_json("{not json")
    with pytest.raises(StateError):
        MachineState.from_json('{"no": "version"}')


def test_diff_states_names_the_divergent_register():
    cpu = _machine("plan")
    cpu.run(300)
    a = cpu.snapshot()
    b = cpu.snapshot()
    b.data["core"]["regs"]["rm"][3] ^= 1
    b.data["core"]["now"] += 1
    diffs = diff_states(a, b)
    assert any("core.regs.rm[3]" in d for d in diffs)
    assert any("core.now" in d for d in diffs)
    assert diff_states(a, a) == []


def test_diff_states_names_storage_word_addresses():
    """Run-coded storage images still diff word by word, in either form."""
    cpu = _machine("plan")
    a = cpu.snapshot()
    cpu.memory.storage.write_word(0x4321, 0xBEEF)
    b = cpu.snapshot()
    parsed = MachineState.from_json(b.to_json())
    for other in (b, parsed):
        assert diff_states(a, other) == [
            "$.mem.storage.data[17185]: 0 != 48879"
        ]
    assert diff_states(b, parsed) == []


# --- the storage image: touched pages versus the dense encoding ---------------


def _dense_rle(values):
    """The reference run coder: one Python step per word."""
    pairs = []
    for value in values:
        if pairs and pairs[-1][0] == value:
            pairs[-1][1] += 1
        else:
            pairs.append([value, 1])
    return pairs


def _dense_canonical(words):
    """Canonical JSON of a dense storage image, as format v2 defines it."""
    image = (
        {"__rle__": _dense_rle(words)}
        if len(words) >= 64 and all(type(v) is int for v in words)
        else list(words)
    )
    return json.dumps({"data": image}, sort_keys=True, separators=(",", ":"))


_WORD = st.sampled_from([0, 0, 1, 0xFFFF]) | st.integers(0, 0x1FFFF)
_SIZES = st.sampled_from([16, 48, 64, 272, 1024, 1296])


@st.composite
def _storage_ops(draw):
    size = draw(_SIZES)
    address = st.integers(0, size - 1)
    image = st.dictionaries(address, _WORD.map(lambda v: v & 0xFFFF), max_size=12)
    ops = []
    for kind in draw(st.lists(
        st.sampled_from(["word", "munch", "load", "dense", "runs"]), max_size=12
    )):
        if kind == "word":
            ops.append((kind, draw(address), draw(_WORD)))
        elif kind == "munch":
            ops.append((kind, draw(address),
                        draw(st.lists(_WORD, min_size=16, max_size=16))))
        elif kind == "load":
            start = draw(address)
            values = draw(st.lists(_WORD, max_size=min(40, size - start)))
            ops.append((kind, start, values))
        else:
            ops.append((kind, draw(image)))
    return size, ops


@pytest.mark.parametrize("values, coded", [
    ([0] * 64, True),
    ([0] * 63, False),
    ([1, 2] * 40, True),
    ([True] * 64, False),
    ([0.0] * 64, False),
    ([0] * 63 + [False], False),
    ([0] * 63 + [None], False),
])
def test_only_long_int_lists_are_run_coded(values, coded):
    text = canonical_json({"a": values})
    assert ("__rle__" in text) == coded
    assert text == json.dumps(
        {"a": {"__rle__": _dense_rle(values)} if coded else values},
        separators=(",", ":"),
    )


@settings(max_examples=150, deadline=None)
@given(_storage_ops())
def test_storage_image_matches_dense_encoding(case):
    """write_word / write_munch / load / load_state, then compare bytes."""
    size, ops = case
    storage = Storage(size)
    model = [0] * size
    state = storage.state_dict()
    assert canonical_json(state) == _dense_canonical(model)
    for op in ops:
        kind = op[0]
        if kind == "word":
            storage.write_word(op[1], op[2])
            model[op[1]] = op[2] & 0xFFFF
        elif kind == "munch":
            storage.write_munch(op[1], op[2])
            base = op[1] - op[1] % MUNCH_WORDS
            model[base:base + MUNCH_WORDS] = [v & 0xFFFF for v in op[2]]
        elif kind == "load":
            storage.load(op[1], op[2])
            model[op[1]:op[1] + len(op[2])] = [v & 0xFFFF for v in op[2]]
        else:
            model = [0] * size
            for at, value in op[1].items():
                model[at] = value
            image = list(model) if kind == "dense" else {"__rle__": _dense_rle(model)}
            storage.load_state({"data": image})
        assert storage.dump(0, size) == model
        state = storage.state_dict()
        assert canonical_json(state) == _dense_canonical(model)

    clone = Storage(size)
    clone.load_state(state)
    assert clone.dump(0, size) == model
    assert canonical_json(clone.state_dict()) == canonical_json(state)


# --- the cache and map columns: live, parsed and dense forms -------------------


def _dense_json(obj):
    """*obj* as canonical JSON defines it, long int lists as dense runs."""
    if isinstance(obj, dict):
        return {str(k): _dense_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) >= 64 and all(type(v) is int for v in obj):
            return {"__rle__": _dense_rle(obj)}
        return [_dense_json(v) for v in obj]
    return obj


def _reference_columns(cpu):
    """The cache and map sections of format v3, one value at a time,
    read from the live columns and map."""
    cache = cpu.memory.cache
    lines = range(cache.num_sets * cache.ways)
    words = []
    for line in lines:
        words.extend(cache.words[line * 16 + offset] for offset in range(16))
    translator = cpu.memory.translator
    gaps, offsets, flags = [], [], []
    previous = 0
    for page in sorted(translator.map):
        entry = translator.map[page]
        gaps.append(page - previous)
        previous = page
        offsets.append(entry // 16 - page)
        flags.append(entry % 16)
    return {
        "cache": {
            "clock": cache.clock,
            "tag": [cache.tag[line] for line in lines],
            "flags": [cache.flags[line] for line in lines],
            "lru": [cache.lru[line] for line in lines],
            "words": words,
        },
        "translator": {
            "bases": list(translator.bases),
            "page_gap": gaps,
            "real_offset": offsets,
            "flags": flags,
            "inject_next": None,
        },
    }


@st.composite
def _lines_and_pages(draw):
    """A cache geometry, some written lines, and a partly remapped map."""
    lines, ways = draw(st.sampled_from([(512, 2), (8, 2), (128, 4)]))
    line = st.tuples(
        st.booleans(), st.booleans(),
        st.integers(-1, 1 << 18), st.integers(0, 1 << 20),
        st.lists(_WORD.map(lambda v: v & 0xFFFF), min_size=16, max_size=16),
    )
    entry = st.tuples(st.integers(0, 0xFFF), *[st.booleans()] * 4)
    drawn = draw(st.dictionaries(st.integers(0, lines - 1), line, max_size=12))
    if drawn and draw(st.sampled_from([False, False, False, True])):
        # One line's tag also valid in the next way of its set, which a
        # restore refuses.
        index = min(drawn)
        _, dirty, tag, lru, words = drawn[index]
        drawn[index] = (True, dirty, tag, lru, words)
        twin = index - index % ways + (index + 1) % ways
        drawn[twin] = (True, False, tag, lru, words)
    return (
        dataclasses.replace(PRODUCTION, cache_lines=lines, cache_ways=ways),
        drawn,
        draw(st.integers(0, 1 << 20)),
        draw(st.integers(0, 300)),
        draw(st.dictionaries(st.integers(0, (1 << 20) - 1), entry, max_size=12)),
    )


@settings(max_examples=60, deadline=None)
@given(_lines_and_pages())
def test_cache_and_map_columns_match_dense_encoding(case):
    """Random lines and map entries: the snapshot's columns are the
    dense reference's runs, the v2 view is the v2 encoder's bytes, and
    the live and the parsed forms load back to the same bytes -- or,
    when a set holds two valid lines with one tag, are refused."""
    from tests.test_state_v2_view import v2_architectural_json

    config, lines, clock, identity, pages = case
    cpu = Processor(config)
    cache = cpu.memory.cache
    for index, (valid, dirty, tag, lru, words) in lines.items():
        cache.flags[index] = valid | dirty << 1
        cache.tag[index], cache.lru[index] = tag, lru
        cache.words[index * 16 : (index + 1) * 16] = words
    cache.clock = clock
    translator = cpu.memory.translator
    translator.identity_map(identity, write_protected_pages=identity // 3)
    for page, (real_page, *flags) in pages.items():
        translator.map[page] = real_page << 4 | sum(
            flag << bit for bit, flag in enumerate(flags)
        )

    snap = cpu.snapshot()
    text = snap.to_json()
    mem = json.loads(text)["mem"]
    reference = _reference_columns(cpu)
    for section in ("cache", "translator"):
        assert mem[section] == _dense_json(reference[section])
    arch = v2_architectural_json(cpu)
    assert architectural_json(snap) == arch
    resident = {
        tag * cache.num_sets + index // config.cache_ways: index
        for index, (valid, _, tag, _, _) in lines.items()
        if valid
    }
    duplicated = len(resident) < sum(valid for valid, *_ in lines.values())
    for form in (snap, MachineState.from_json(text)):
        clone = Processor(config)
        if duplicated:
            with pytest.raises(StateError, match="two valid lines"):
                clone.restore(form)
            continue
        clone.restore(form)
        assert clone.memory.cache.resident == resident
        assert clone.snapshot().to_json() == text
        assert v2_architectural_json(clone) == arch


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(0, 600),
    # Above the program and its data: the IFU re-decodes its buffered
    # code from storage on restore, so code must stay intact.
    writes=st.dictionaries(
        st.integers(PRODUCTION.storage_words // 2, PRODUCTION.storage_words - 1),
        st.integers(0, 0xFFFF),
        max_size=8,
    ),
)
def test_snapshot_equals_its_json_roundtrip(n, writes):
    """A live snapshot (runs) equals its parsed twin (dense lists)."""
    cpu = _machine("plan")
    cpu.run(n)
    for address, value in writes.items():
        cpu.memory.storage.write_word(address, value)
    snap = cpu.snapshot()
    parsed = MachineState.from_json(snap.to_json())
    assert snap == parsed
    assert parsed.to_json() == snap.to_json()
    cpu.restore(parsed)
    assert cpu.snapshot() == snap
    other = cpu.snapshot()
    other.data["core"]["now"] += 1
    assert other != snap


def test_fork_into_a_state_equals_fork_then_restore():
    """fork(state) restores once; the machine matches fork() + restore."""
    cpu = _machine("plan")
    cpu.run(900)
    later = cpu.snapshot()
    cpu.restore(_MACHINES["plan"][1])
    twice = cpu.fork()
    twice.restore(later)
    once = cpu.fork(MachineState.from_json(later.to_json()))
    assert once.snapshot().to_json() == twice.snapshot().to_json()
    assert once.run(100_000) == twice.run(100_000)
    assert once.snapshot() == twice.snapshot()


# --- the one-pass parse: run-coded arrays stay runs ----------------------------


def _reference_revive(obj):
    """The recursive reviver the one-pass parse replaced, as a reference.

    It walked a plain ``json.loads`` result, turning all-digit keys back
    into ints and expanding every run-coded array into a list.
    """
    if isinstance(obj, dict):
        if set(obj) == {"__rle__"}:
            return [value for value, count in obj["__rle__"] for _ in range(count)]
        return {
            int(k) if k.isdigit() or (k[:1] == "-" and k[1:].isdigit()) else k:
            _reference_revive(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_reference_revive(v) for v in obj]
    return obj


def _densify(obj):
    """*obj* with every run-coded array expanded into a list."""
    if isinstance(obj, dict):
        if set(obj) == {"__rle__"}:
            return [value for value, count in obj["__rle__"] for _ in range(count)]
        return {k: _densify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_densify(v) for v in obj]
    return obj


def _count_runs(obj):
    """How many run-coded arrays *obj* holds as runs."""
    if isinstance(obj, dict):
        if set(obj) == {"__rle__"}:
            return 1
        return sum(map(_count_runs, obj.values()))
    if isinstance(obj, list):
        return sum(map(_count_runs, obj))
    return 0


def _check_parse(text):
    """The parse of canonical *text*: its bytes, its values, its runs."""
    parsed = parse_canonical_json(text)
    assert canonical_json(parsed) == text
    assert _densify(parsed) == _reference_revive(json.loads(text))
    assert _count_runs(parsed) == text.count('"__rle__"')
    return parsed


_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-(2 ** 40), 2 ** 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
#: Long int lists, drawn from few values so they form runs.
_LONG_INTS = st.lists(
    st.sampled_from([0, 0, 0, 1, 7, 0xFFFF, -3]),
    min_size=RLE_MIN,
    max_size=3 * RLE_MIN,
)
#: Identifier keys: lowercase, never all digits, never the run marker.
_NAME = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
_TREES = st.recursive(
    _SCALAR | st.lists(_SCALAR, max_size=6) | _LONG_INTS,
    lambda tree: (
        st.lists(tree, max_size=4)
        | st.dictionaries(_NAME, tree, max_size=4)
        | st.dictionaries(st.integers(-50, 5000), tree, max_size=4)
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_parse_matches_the_reference_reviver(tree):
    """Plain-data trees: same bytes back, same values once runs expand."""
    _check_parse(canonical_json(tree))


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(sorted(ALL_WORKLOADS)), cycles=st.integers(1, 3000))
def test_parsed_envelopes_fork_to_their_source(name, cycles):
    """Real suspend envelopes parse as trees do and restore exactly."""
    session = Session.build(name)
    session.run_slice(cycles)
    parsed = _check_parse(session.suspend().rstrip("\n"))
    machine = parsed["machine"]
    assert set(machine["mem"]["storage"]["data"]) == {"__rle__"}
    clone = session.cpu.fork(MachineState(machine))
    assert clone.snapshot() == session.cpu.snapshot()


def _faulted_mesa_machine():
    config = dataclasses.replace(
        PRODUCTION, fault_injection=FaultConfig(seed=7, storage_correctable=2)
    )
    cpu = mesa_loop_sum(60, config=config).cpu
    cpu.run(700)
    return cpu


def _display_mid_band():
    cpu, _ = _display_machine()
    cpu.run(100)
    while not cpu.memory._fast_in_flight:
        cpu.step()
    return cpu


@pytest.mark.parametrize("build", [_faulted_mesa_machine, _display_mid_band],
                         ids=["faulted-mesa", "display-mid-band"])
@pytest.mark.parametrize("form", ["live", "parsed"])
def test_no_load_state_aliases_its_state(build, form):
    """A machine loaded from a state shares none of its containers: a
    state kept after a fork or restore (a supervisor's checkpoint, say)
    still has its bytes after the machine runs on."""
    cpu = build()
    state = cpu.snapshot()
    if form == "parsed":
        state = MachineState(parse_canonical_json(state.to_json()))
    before = state.to_json()
    clone = cpu.fork(state)
    clone.run(400)
    assert state.to_json() == before
    cpu.run(50)
    cpu.restore(state)
    cpu.run(400)
    assert state.to_json() == before
    assert cpu.snapshot().to_json() == clone.snapshot().to_json() != before


def test_device_arrays_load_from_runs():
    """Every long device and console array loads back from a parsed state."""
    from repro.io.device import LoopbackDevice
    from repro.io.disk import DiskController
    from repro.io.keyboard import KeyboardDevice
    from repro.io.network import NetworkController

    cpu = Processor()
    disk, keyboard, net = DiskController(), KeyboardDevice(), NetworkController()
    loopback = LoopbackDevice(task=5)
    for device in (disk, keyboard, net, loopback):
        cpu.attach_device(device)
    disk.fill_sector(3, [i % 5 for i in range(256)])
    keyboard.type_text("k" * 70)
    net.inject_packet([9] * 80)
    net.rx_current = [4] * 66
    net.tx_words = [2] * 64
    loopback.fifo = [7] * 65
    cpu.console.trace = [1] * 90
    snap = cpu.snapshot()
    parsed = MachineState.from_json(snap.to_json())
    io = parsed.data["io"]
    for array in (
        io[0]["surface"][3], io[1]["queue"], io[2]["rx_queue"][0],
        io[2]["rx_current"], io[2]["tx_words"], io[3]["fifo"],
        parsed.data["core"]["console"]["trace"],
    ):
        assert set(array) == {"__rle__"}
    clone = cpu.fork(parsed)
    assert clone.snapshot() == snap
    assert clone.devices[0].surface[3] == disk.surface[3]
    assert clone.devices[2].rx_queue == [[9] * 80]
    assert clone.console.trace == [1] * 90


@pytest.mark.parametrize("where, runs", [
    (("io", 0, "surface", 3), [[0, 255]]),
    (("io", 0, "surface", 3), [[0, 10 ** 12]]),
    (("io", 1, "queue"), [[0, 2 ** 63]]),
    (("io", 2, "tx_words"), [[1, 2 ** 63]]),
    (("core", "console", "trace"), [[1, True]]),
])
def test_device_runs_are_checked_before_allocating(where, runs):
    from repro.io.disk import DiskController
    from repro.io.keyboard import KeyboardDevice
    from repro.io.network import NetworkController

    cpu = Processor()
    for device in (DiskController(), KeyboardDevice(), NetworkController()):
        cpu.attach_device(device)
    state = MachineState.from_json(cpu.snapshot().to_json())
    *path, last = where
    node = state.data
    for key in path:
        node = node[key]
    node[last] = {"__rle__": runs}
    with pytest.raises(StateError, match="run"):
        cpu.fork(state)


@pytest.mark.parametrize("packets, refused", [(2, False), (5, True)])
def test_restore_bounds_the_words_of_unbounded_arrays_in_total(packets, refused):
    """Each received packet passes its own bound, but one restore may
    allocate at most MAX_RESTORE_WORDS for all such arrays together: a
    crafted state that queues many large packets is refused."""
    from repro.io.network import NetworkController

    cpu = Processor()
    cpu.attach_device(NetworkController())
    state = MachineState.from_json(cpu.snapshot().to_json())
    words = MAX_RESTORE_WORDS // 4
    state.data["io"][0]["rx_queue"] = [{"__rle__": [[0, words]]}] * packets
    if refused:
        with pytest.raises(StateError, match="one restore may allocate"):
            cpu.fork(state)
    else:
        clone = cpu.fork(state)
        assert [len(packet) for packet in clone.devices[0].rx_queue] == [words] * packets
