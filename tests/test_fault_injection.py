"""Differential robustness harness for the fault-injection subsystem.

DESIGN.md section 5.2: faults come from a seeded
:class:`~repro.fault.plan.InjectionPlan` and fire at the first matching
operation at-or-after their cycle, so a given seed produces the same
fault trace under the interpretive core and the execution-plan fast
path.  This file locks that down from four directions:

* the plan itself is a pure function of its config (determinism);
* a plan with zero events is byte-identical to no injection at all, for
  every benchmark workload (the disabled/armed-but-empty fast path);
* injected faults land where the design says: ECC corrections are
  invisible to the program, uncorrectable errors corrupt data and wake
  the fault task, spurious map faults are transient, disk errors retry
  with backoff and degrade to a spare-sector remap;
* both cycle implementations consume the same plan identically -- same
  trace, same counters, same cycle counts.

The Hold watchdog (:class:`~repro.errors.HoldTimeout`) rides along: a
crafted never-ready reference must produce a diagnosable error, not a
silent wedge.
"""

import dataclasses

import pytest

from repro import Assembler, FF, HoldTimeout, Processor
from repro.config import INTERPRETED, PRODUCTION, MachineConfig
from repro.errors import ConfigError
from repro.fault import FaultConfig, FaultKind, InjectionPlan
from repro.io.disk import DiskController, DiskGeometry, disk_microcode
from repro.mem.map import FLAG_VALID, PAGE_SHIFT
from repro.mem.pipeline import (
    FAULT_BOUNDS,
    FAULT_MAP,
    FAULT_STORAGE,
    FAULT_WRITE_PROTECT,
    MemorySystem,
)
from repro.perf.workloads import ALL_WORKLOADS
from repro.supervise import architectural_json
from tests.test_fastpath_parity import CONFIGS, assert_same_machine, machine_state


# --------------------------------------------------------------------------
# The plan is a pure function of its config
# --------------------------------------------------------------------------

RICH = FaultConfig(
    seed=42, storage_correctable=3, storage_uncorrectable=1,
    map_faults=2, write_protect_faults=1, bounds_faults=1, disk_errors=2,
)


def test_same_seed_same_plan():
    assert InjectionPlan.from_config(RICH).events == InjectionPlan.from_config(RICH).events


def test_different_seed_different_plan():
    other = dataclasses.replace(RICH, seed=43)
    assert InjectionPlan.from_config(RICH).events != InjectionPlan.from_config(other).events


def test_plan_counts_and_partition():
    plan = InjectionPlan.from_config(RICH)
    assert len(plan) == RICH.total_events == 10
    by_component = {c: len(plan.schedule(c)) for c in ("storage", "map", "disk")}
    assert by_component == {"storage": 4, "map": 4, "disk": 2}
    assert [e.cycle for e in plan.events] == sorted(e.cycle for e in plan.events)
    assert all(RICH.first_cycle <= e.cycle <= RICH.last_cycle for e in plan.events)


def test_zero_config_is_empty_plan():
    plan = InjectionPlan.from_config(FaultConfig(seed=7))
    assert plan.is_empty and len(plan) == 0


def test_disk_events_carry_persistence():
    plan = InjectionPlan.from_config(FaultConfig(seed=1, disk_errors=2, disk_error_persistence=3))
    assert [e.arg for e in plan.schedule("disk")] == [3, 3]
    assert all(e.kind is FaultKind.DISK_TRANSFER for e in plan.schedule("disk"))


# --------------------------------------------------------------------------
# Disabled and armed-but-empty paths
# --------------------------------------------------------------------------

def test_disabled_config_builds_no_injector():
    cpu = Processor(PRODUCTION)
    assert cpu.fault_injector is None
    assert cpu.memory.injector is None
    assert cpu.memory.storage.ecc is None
    assert cpu.memory.translator.inject_next is None


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_empty_plan_is_byte_identical_to_no_injection(name):
    """Arming the subsystem with a zero-event plan must not perturb a
    single bit of any workload: same cycles, same state, same storage."""
    baseline = ALL_WORKLOADS[name](config=PRODUCTION)
    armed_config = dataclasses.replace(
        PRODUCTION, fault_injection=FaultConfig(seed=99)
    )
    armed = ALL_WORKLOADS[name](config=armed_config)
    assert baseline.run() == armed.run()
    assert_same_machine(baseline.cpu, armed.cpu)
    assert armed.cpu.counters.faults_injected == 0


# --------------------------------------------------------------------------
# A corrected fault is invisible to the program
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_one_correctable_fault_every_workload_still_verifies(name):
    """ECC fixes a single-bit error in flight: every workload completes
    with the right answer and only the counters show it happened."""
    config = dataclasses.replace(
        PRODUCTION,
        fault_injection=FaultConfig(seed=13, storage_correctable=1, last_cycle=0),
    )
    workload = ALL_WORKLOADS[name](config=config)
    workload.run()  # raises unless verify() holds
    counters = workload.cpu.counters
    assert counters.ecc_corrected == 1
    assert counters.faults_injected == 1
    assert counters.ecc_uncorrected == 0
    trace = workload.cpu.fault_injector.trace
    assert len(trace) == 1 and trace[0].kind == "ecc_correctable"


# --------------------------------------------------------------------------
# Every tier consumes the plan identically
# --------------------------------------------------------------------------

def _faulted_run(config: MachineConfig, fault: FaultConfig):
    """Run mesa_loop_sum under *fault* without the correctness oracle
    (uncorrectable faults may corrupt the answer -- identically so)."""
    workload = ALL_WORKLOADS["mesa_loop_sum"](
        config=dataclasses.replace(config, fault_injection=fault)
    )
    outcome = "halted"
    try:
        workload.cpu.run(2_000_000)
    except Exception as error:  # both cores must fail identically too
        outcome = repr(error)
    cpu = workload.cpu
    return machine_state(cpu), list(cpu.fault_injector.trace), outcome


@pytest.mark.parametrize("fault", [
    FaultConfig(seed=13, storage_correctable=2, last_cycle=0),
    FaultConfig(seed=21, storage_correctable=1, storage_uncorrectable=1,
                map_faults=1, bounds_faults=1, write_protect_faults=1,
                last_cycle=0),
    FaultConfig(seed=5, map_faults=2, last_cycle=2_000),
], ids=["correctable", "mixed", "late-map"])
def test_identical_seed_identical_trace_under_both_cores(fault):
    runs = {
        label: _faulted_run(config, fault) for label, config in CONFIGS
    }
    interp_state, interp_trace, interp_outcome = runs["interp"]
    for label in ("plan", "traced"):
        state, trace, outcome = runs[label]
        assert outcome == interp_outcome, label
        assert trace == interp_trace, f"fault traces diverged on {label}"
        assert state == interp_state, f"machine state diverged on {label}"


def _ref_loops(config: MachineConfig) -> Processor:
    """Three passes of a fetch-only loop (64 iterations) and then a store
    loop (16), all on one cached word: from the second pass on, both run
    as fast-mode regions with their references inlined."""
    asm = Assembler(config)
    for name, number, value in (("va", 1, 0x0140), ("n", 2, 0), ("k", 3, 3)):
        asm.register(name, number)
        asm.load_constant(name, value)
    asm.label("pass")
    asm.load_constant("n", 64)
    asm.label("reads")
    asm.emit(r="va", a="RM", fetch=True)
    asm.emit(r="k", a="RM", b="MD", alu="B", load="T")
    asm.emit(r="n", a="RM", alu="DEC", load="RM", branch=("NONZERO", "reads", "rdone"))
    asm.label("rdone")
    asm.load_constant("n", 16)
    asm.label("writes")
    asm.emit(r="va", a="RM", b="T", store=True)
    asm.emit(r="n", a="RM", alu="DEC", load="RM", branch=("NONZERO", "writes", "wdone"))
    asm.label("wdone")
    asm.emit(r="k", a="RM", alu="DEC", load="RM", branch=("NONZERO", "pass", "done"))
    asm.label("done")
    asm.halt()
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    return cpu


@pytest.mark.parametrize("kind,cycle", [
    ("write_protect_faults", 500),
    ("map_faults", 422),
    ("bounds_faults", 422),
], ids=["write-protect-window", "map-off-reference", "bounds-off-reference"])
def test_a_map_event_due_inside_a_fast_region_fires_on_the_same_reference(kind, cycle):
    """A fault plan is data the inlined reference reads: while a map event
    is due, a fast region takes the full reference call, so the event
    fires on the reference it fires on in the interpreter.  A
    write-protect event stays due over a window of fetches until the
    first store; the map and bounds events fall due on a cycle with no
    reference, and fire on the next one."""
    fault = FaultConfig(seed=1, first_cycle=cycle, last_cycle=cycle, **{kind: 1})
    runs = {}
    for label, config in CONFIGS:
        cpu = _ref_loops(dataclasses.replace(config, fault_injection=fault))
        outcome = "halted"
        try:
            cpu.run(100_000)
        except Exception as error:
            outcome = repr(error)
        runs[label] = (list(cpu.fault_injector.trace), outcome,
                       architectural_json(cpu.snapshot()))
        if label == "traced":
            inlined = [fn for fn in cpu._traces.traces.values()
                       if "_resident.get(" in fn.source]
            assert inlined and cpu._traces.stats()["traced_cycles"] > 0
    (fired,), outcome, _ = runs["interp"]
    assert outcome == "halted"
    # Not at the event's own cycle: on a later reference, a store after
    # many fetches for the write-protect event.
    assert fired.cycle > cycle + (50 if kind == "write_protect_faults" else 0)
    for label in ("plan", "traced"):
        assert runs[label] == runs["interp"], label


# --------------------------------------------------------------------------
# Spurious memory faults are transient (unit level)
# --------------------------------------------------------------------------

def make_mem(fault: FaultConfig) -> MemorySystem:
    config = MachineConfig(storage_words=1 << 16, fault_injection=fault)
    mem = MemorySystem(config)
    mem.identity_map(64)
    return mem


def advance(mem, cycles):
    for _ in range(cycles):
        mem.tick()


def test_spurious_map_fault_is_transient():
    mem = make_mem(FaultConfig(seed=5, map_faults=1, last_cycle=0))
    mem.storage.write_word(0x100, 0x1234)
    assert mem.start_fetch(0, 0, 0x100)        # consumed by the injection
    assert mem.fault_flags == FAULT_MAP
    assert mem.md_ready(0), "a faulting reference completes immediately"
    assert mem.read_md(0) == 0
    assert mem.read_faults(clear=True) == FAULT_MAP
    # The map entry itself was never touched: the retry succeeds.
    assert mem.translator.map_read(0x100 >> PAGE_SHIFT) & FLAG_VALID
    assert mem.start_fetch(0, 0, 0x100)
    advance(mem, mem.config.miss_penalty)
    assert mem.read_md(0) == 0x1234
    assert mem.fault_flags == 0
    assert mem.counters.faults_injected == 1
    assert mem.counters.faults_latched == 1


def test_spurious_write_protect_waits_for_a_store():
    mem = make_mem(FaultConfig(seed=5, write_protect_faults=1, last_cycle=0))
    mem.storage.write_word(0x40, 0x5555)
    assert mem.start_fetch(0, 0, 0x40)          # fetches never trip WP events
    advance(mem, mem.config.miss_penalty)
    assert mem.read_md(0) == 0x5555
    assert mem.fault_flags == 0

    assert mem.start_store(0, 0, 0x40, 0x9999)  # the store consumes it
    assert mem.fault_flags == FAULT_WRITE_PROTECT
    advance(mem, mem.config.miss_penalty)
    assert mem.debug_read(0x40) == 0x5555, "the protected store was suppressed"

    mem.read_faults(clear=True)
    assert mem.start_store(0, 0, 0x40, 0x9999)  # the retry goes through
    advance(mem, mem.config.miss_penalty)
    assert mem.debug_read(0x40) == 0x9999


def test_spurious_bounds_fault():
    mem = make_mem(FaultConfig(seed=5, bounds_faults=1, last_cycle=0))
    assert mem.start_fetch(0, 0, 0x200)
    assert mem.fault_flags == FAULT_BOUNDS
    assert mem.md_ready(0) and mem.read_md(0) == 0
    assert mem.counters.faults_injected == 1


def test_debug_paths_never_consume_events():
    mem = make_mem(FaultConfig(seed=5, map_faults=1, storage_correctable=1, last_cycle=0))
    before = mem.injector.pending
    mem.debug_write(0x80, 0x1111)
    assert mem.debug_read(0x80) == 0x1111
    assert mem.injector.pending == before
    assert mem.fault_flags == 0 and mem.counters.faults_injected == 0


# --------------------------------------------------------------------------
# Uncorrectable storage errors: corrupt data, wake the fault task
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name,config", CONFIGS)
def test_uncorrectable_fault_wakes_the_fault_task(name, config):
    """The delivery chain end to end: a double-bit error corrupts MEMDATA,
    latches FAULT_STORAGE, and wakes the configured fault task, whose
    handler reads-and-clears the latch while task 0 is still held."""
    faulted = dataclasses.replace(
        config,
        fault_task=14,
        fault_injection=FaultConfig(seed=3, storage_uncorrectable=1, last_cycle=0),
    )
    asm = Assembler(faulted)
    asm.register("va", 1)
    asm.emit(r="va", b=0x0200, alu="B", load="RM")
    asm.emit(r="va", a="RM", fetch=True)        # miss -> double-bit error
    asm.emit(b="MD", alu="B", load="T")         # holds; task 14 runs here
    asm.emit(b="T", ff=FF.TRACE)
    asm.halt()
    asm.label("handler")
    asm.emit(ff=FF.READ_FAULTS, load="T")       # clears latch and wakeup
    asm.emit(b="T", ff=FF.TRACE, block=True, goto="handler")

    cpu = Processor(faulted)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    cpu.memory.storage.write_word(0x200, 0x0F0F)
    cpu.pipe.write_tpc(14, cpu.address_of("handler"))
    cpu.run(10_000)

    assert cpu.halted
    # The handler preempted the held emulator and saw the storage bit.
    assert cpu.console.trace[0] == FAULT_STORAGE
    assert cpu.counters.task_instructions[14] >= 2
    # Task 0's data arrived with at most one word damaged (two flipped
    # bits land somewhere in the fetched munch, not necessarily here).
    damage = cpu.console.trace[1] ^ 0x0F0F
    assert bin(damage).count("1") in (0, 2)
    # The latch and the wakeup line were both cleared by READ_FAULTS.
    assert cpu.memory.fault_flags == 0
    assert cpu.counters.ecc_uncorrected == 1
    # Storage itself is intact -- the error was on the read path.
    assert cpu.memory.storage.read_word(0x200) == 0x0F0F


def test_device_cannot_share_the_fault_task():
    from repro.errors import DeviceError

    config = dataclasses.replace(PRODUCTION, fault_task=9)
    cpu = Processor(config)
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=64))
    disk.task = 9
    with pytest.raises(DeviceError, match="fault task"):
        cpu.attach_device(disk)


# --------------------------------------------------------------------------
# Disk transfer errors: bounded retry, backoff, graceful degradation
# --------------------------------------------------------------------------

def disk_machine(fault: FaultConfig, words_per_sector: int = 64):
    config = MachineConfig(fault_injection=fault)
    asm = Assembler(config)
    asm.emit(idle=True)
    disk_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=words_per_sector))
    cpu.attach_device(disk)
    return cpu, disk


def test_disk_read_recovers_after_bounded_retries():
    cpu, disk = disk_machine(FaultConfig(seed=7, disk_errors=1, disk_error_persistence=2, last_cycle=0))
    image = [i & 0xFFFF for i in range(64)]
    disk.fill_sector(1, image)
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    assert disk.done and not disk.hard_error
    assert cpu.counters.disk_retries == 2, "persistence 2 costs exactly 2 retries"
    assert cpu.counters.disk_remaps == 0 and disk.remap == {}
    assert [cpu.memory.debug_read(0x4000 + i) for i in range(64)] == image
    # The retry trace shows the controller's backoff pacing.
    retries = [r for r in cpu.fault_injector.trace if r.kind == "retry"]
    assert len(retries) == 2
    assert retries[1].cycle - retries[0].cycle >= disk.geometry.retry_backoff_cycles


def test_disk_write_degrades_to_a_spare_sector():
    cpu, disk = disk_machine(FaultConfig(seed=7, disk_errors=1, disk_error_persistence=99, last_cycle=0))
    image = [(i * 3) & 0xFFFF for i in range(64)]
    for i, value in enumerate(image):
        cpu.memory.debug_write(0x4000 + i, value)
    disk.begin_write(cpu, sector=2, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    assert disk.done and not disk.hard_error
    assert cpu.counters.disk_remaps == 1
    assert disk.remap == {2: disk.geometry.sectors}, "first spare claimed"
    assert cpu.counters.disk_retries == disk.geometry.max_retries + 1
    # The data survived on the spare, and reads follow the remap.
    assert disk.read_sector_image(2) == image


def test_disk_read_of_a_truly_bad_sector_reports_hard_error():
    cpu, disk = disk_machine(FaultConfig(seed=7, disk_errors=1, disk_error_persistence=99, last_cycle=0))
    disk.fill_sector(1, [i & 0xFFFF for i in range(64)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    assert disk.done and disk.hard_error
    assert disk.read_register(1) & 0x4, "status register exposes the hard error"


# --------------------------------------------------------------------------
# A faulted machine is a fork of a clean one, given the fault plan
# --------------------------------------------------------------------------

def test_fork_refuses_a_config_that_differs_beyond_the_fault_plan():
    cpu = Processor(PRODUCTION)
    plan = FaultConfig(seed=3, map_faults=1)
    cpu.fork(config=dataclasses.replace(PRODUCTION, fault_injection=plan))
    for change in ({"tier": "interp"}, {"hold_limit": 64}, {"fault_task": 9},
                   {"bypass_enabled": False}):
        config = dataclasses.replace(PRODUCTION, fault_injection=plan, **change)
        with pytest.raises(ConfigError, match="only the fault plan"):
            cpu.fork(config=config)


def test_faulted_fork_of_a_traced_clean_template_runs_the_template_code():
    """A fork into a fault plan has its parent's composition -- the plan
    is data the generated code reads, not a code mode -- so it runs the
    parent's table pair and enters its regions from the first cycle,
    bit-identically to the interpreter, fault trace included; forked back
    to no plan mid-run, it still runs that pair."""
    fault = FaultConfig(seed=9, storage_correctable=4, map_faults=2, last_cycle=3000)
    runs = {}
    for label, config in (CONFIGS[0], CONFIGS[2]):
        template = ALL_WORKLOADS["mesa_loop_sum"](config=config).cpu
        template.run(1500)
        cpu = template.fork(config=dataclasses.replace(config, fault_injection=fault))
        if label == "traced":
            assert template._traces.traces, "the template compiled no region"
            assert cpu._traces.traces is template._traces.traces
            assert cpu._traces.steps is template._traces.steps
        cycles = cpu.run(1500)
        clean = cpu.fork(config=config)
        assert clean.fault_injector is None
        runs[label] = (cycles + cpu.run(100_000), cpu, clean.run(100_000), clean)
    _, cpu, _, clean = runs["traced"]
    assert cpu.counters.faults_latched, "no fault latched"
    for machine in (cpu, clean):
        assert machine._traces.traces is template._traces.traces
        assert machine._traces.stats()["traced_cycles"] > 0
    assert runs["traced"][0::2] == runs["interp"][0::2]
    assert_same_machine(cpu, runs["interp"][1])
    assert_same_machine(clean, runs["interp"][3])
    assert cpu.fault_injector.trace == runs["interp"][1].fault_injector.trace


def _e14_disk_outcome(cpu, disk, write):
    """Report E14's disk scenario: a read retried, or a write remapped."""
    if write:
        for i in range(64):
            cpu.memory.debug_write(0x4000 + i, (i * 3) & 0xFFFF)
        disk.begin_write(cpu, sector=2, buffer_va=0x4000)
    else:
        disk.fill_sector(1, [i & 0xFFFF for i in range(64)])
        disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    counters = cpu.counters
    return (disk.done, disk.hard_error, counters.disk_retries, counters.disk_remaps,
            disk.read_sector_image(2), cpu.snapshot().to_json())


@pytest.mark.parametrize("persistence,write", [(2, False), (99, True)],
                         ids=["read-retried", "write-remapped"])
def test_faulted_fork_of_a_clean_disk_machine_matches_a_direct_build(persistence, write):
    """The disk reaches its injector through the memory system it is
    attached to, so a clean disk machine forked into a plan retries and
    remaps exactly as one built for that plan."""
    fault = FaultConfig(seed=7, disk_errors=1, disk_error_persistence=persistence,
                        last_cycle=0)
    clean, _ = disk_machine(None)
    cpu = clean.fork(config=MachineConfig(fault_injection=fault))
    forked = _e14_disk_outcome(cpu, cpu.devices[0], write)
    assert forked == _e14_disk_outcome(*disk_machine(fault), write)
    done, hard_error, retries, remaps = forked[:4]
    assert done and not hard_error
    if write:
        assert remaps == 1 and forked[4] == [(i * 3) & 0xFFFF for i in range(64)]
    else:
        assert (retries, remaps) == (2, 0)
    assert clean.counters.disk_retries == 0 and clean.fault_injector is None


# --------------------------------------------------------------------------
# The Hold watchdog: diagnosable, not a silent wedge
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name,config", CONFIGS)
def test_hold_timeout_diagnostics(name, config):
    """Using MEMDATA with no reference outstanding can never unblock;
    the watchdog must say who, where, and why."""
    watched = dataclasses.replace(config, hold_limit=64)
    asm = Assembler(watched)
    asm.emit(b="MD", alu="B", load="T")   # never-ready reference
    asm.halt()
    cpu = Processor(watched)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(4)
    with pytest.raises(HoldTimeout) as caught:
        cpu.run(10_000)
    error = caught.value
    assert error.task == 0
    assert error.holds == 65, "the watchdog fires one past the limit"
    assert error.cycle < 200
    assert not error.md_valid
    message = str(error)
    assert "held" in message
    assert "no reference ever completed" in message
