"""Differential lock-down of the fast execution tiers.

The simulator has three cycle implementations: the interpretive
reference (every microword field re-decoded each cycle), the decoded
execution-plan fast path (``PLAN_ONLY``), and the compiled-trace tier
that PRODUCTION layers on top of the plans.  Every test here runs the
same scenario under all three configurations and requires bit-identical
results -- architectural state, performance counters, cycle counts,
hold-cause attribution, the supervisor's ``architectural_json`` digest,
and the whole storage image.  Property tests interleave microstore
rewrites with stepping (plans) and free-running (traces) to prove
neither cache ever goes stale.
"""

import dataclasses
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, Processor
from repro.cluster.programs import build_ring_cluster, ring_epoch_budget
from repro.config import INTERPRETED, PLAN_ONLY, PRODUCTION, MachineConfig
from repro.core.microword import (
    ASel,
    BSel,
    LoadControl,
    MicroInstruction,
    NextControl,
    NextType,
)
from repro.fault.plan import FaultConfig
from repro.graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
from repro.graphics.bitmap import Bitmap
from repro.io.disk import DiskController, DiskGeometry, disk_microcode
from repro.perf.corebench import display_band
from repro.perf.workloads import ALL_WORKLOADS
from repro.supervise import architectural_json

CONFIGS = (
    ("interp", INTERPRETED),
    ("plan", PLAN_ONLY),
    ("traced", PRODUCTION),
)


def machine_state(cpu: Processor) -> dict:
    """Everything observable about a machine, for bit-exact comparison."""
    regs = cpu.regs
    return {
        "counters": dataclasses.asdict(cpu.counters),
        "rm": list(regs.rm),
        "t": list(regs.t),
        "q": regs.q,
        "count": regs.count,
        "shiftctl": regs.shiftctl,
        "rbase": list(regs.rbase),
        "membase": list(regs.membase),
        "saved_carry": list(regs.saved_carry),
        "ioaddress": list(regs.ioaddress),
        "tpc": list(cpu.pipe.tpc),
        "this_task": cpu.pipe.this_task,
        "lines": cpu.pipe.lines,
        "ready": cpu.pipe.ready,
        "link": list(cpu.control.link),
        "this_pc": cpu.this_pc,
        "halted": cpu.halted,
        "now": cpu.now,
        "trace": list(cpu.console.trace),
        "notifications": list(cpu.console.notifications),
    }


def assert_same_machine(cpu_a: Processor, cpu_b: Processor) -> None:
    assert machine_state(cpu_a) == machine_state(cpu_b)
    assert architectural_json(cpu_a.snapshot()) == architectural_json(cpu_b.snapshot())
    assert cpu_a.memory.storage._data == cpu_b.memory.storage._data


def assert_clean_traces(cpu: Processor) -> None:
    """A traced-tier machine must never have abandoned a compile."""
    assert cpu._traces.failures == []


# --------------------------------------------------------------------------
# Every benchmark workload, all three configurations
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_workload_parity(name):
    runs = {}
    for label, config in CONFIGS:
        workload = ALL_WORKLOADS[name](config=config)
        cycles = workload.run()
        runs[label] = (cycles, workload.cpu)
    assert_clean_traces(runs["traced"][1])
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0], (
            f"{label} cycle count diverged from the reference"
        )
        # Hold-cause attribution is part of the counters, but call it
        # out on its own: a trace that mis-charges a held cycle shows
        # up here with a readable diff.
        assert (
            runs[label][1].counters.hold_causes
            == runs["interp"][1].counters.hold_causes
        )
        assert_same_machine(runs[label][1], runs["interp"][1])


# --------------------------------------------------------------------------
# A seeded fault plan under all three tiers
# --------------------------------------------------------------------------

#: Correctable storage errors are absorbed by ECC -- the workload still
#: verifies -- but the injector must fire on the same references and
#: bump the same counters on every tier.  ``last_cycle=0`` arms both
#: events immediately so they hit the workload's first storage reads.
_CORRECTABLE = FaultConfig(seed=9, storage_correctable=2, last_cycle=0)

#: Spurious map faults latch a fault the workload's microcode never
#: handles, so the run ends with a wrong result; all three tiers must
#: still agree on every bit of the wreckage.  The latch stays up for the
#: rest of the run, and regions keep running under it.
_FAULTING = FaultConfig(seed=9, storage_correctable=4, map_faults=2, last_cycle=3000)


def test_fault_plan_parity_verified():
    runs = {}
    for label, config in CONFIGS:
        faulted = dataclasses.replace(config, fault_injection=_CORRECTABLE)
        workload = ALL_WORKLOADS["lisp_cons_kernel"](config=faulted)
        cycles = workload.run()
        runs[label] = (cycles, workload.cpu)
    assert runs["interp"][1].counters.faults_injected > 0
    assert_clean_traces(runs["traced"][1])
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0]
        assert_same_machine(runs[label][1], runs["interp"][1])


def test_fault_plan_parity_latched():
    runs = {}
    for label, config in CONFIGS:
        faulted = dataclasses.replace(config, fault_injection=_FAULTING)
        workload = ALL_WORKLOADS["mesa_loop_sum"](config=faulted)
        # Run the machine directly: verification would (rightly) fail.
        cycles = workload.cpu.run(max_cycles=200_000)
        runs[label] = (cycles, workload.cpu)
    assert runs["interp"][1].memory.fault_flags, "fault never latched"
    assert_clean_traces(runs["traced"][1])
    # The latch rises early and stays up: most cycles run in regions.
    traced = runs["traced"][1]
    assert traced._traces.stats()["traced_cycles"] > traced.counters.cycles // 2
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0]
        assert_same_machine(runs[label][1], runs["interp"][1])


# --------------------------------------------------------------------------
# The report.py device scenarios: BitBlt, disk, fast-I/O display
# --------------------------------------------------------------------------

def _bitblt_run(config: MachineConfig):
    cpu = build_bitblt_machine(config)
    src = Bitmap(cpu.memory, 0x2000, 17, 16)
    dst = Bitmap(cpu.memory, 0x8000, 16, 16)
    src.load_pattern()
    dst.fill(0)
    cycles = run_bitblt(
        cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
        words_per_row=16, rows=16, src_pitch=17, dst_pitch=16, shift=5,
    )
    cycles += run_bitblt(
        cpu, BitBltFunction.XOR, src_va=0x2000, dst_va=0x8000,
        words_per_row=16, rows=16, src_pitch=17, dst_pitch=16, shift=3,
    )
    return cycles, cpu


def test_bitblt_parity():
    cycles_i, cpu_i = _bitblt_run(INTERPRETED)
    for _, config in CONFIGS[1:]:
        cycles, cpu = _bitblt_run(config)
        assert cycles == cycles_i
        assert_same_machine(cpu, cpu_i)


def _disk_run(config: MachineConfig):
    asm = Assembler(config)
    asm.emit(idle=True)
    disk_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=256))
    cpu.attach_device(disk)
    disk.fill_sector(1, [i & 0xFFFF for i in range(256)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    for i in range(256):
        cpu.memory.debug_write(0x6000 + i, (i * 3) & 0xFFFF)
    disk.begin_write(cpu, sector=2, buffer_va=0x6000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    return cpu


def test_disk_parity():
    cpu_i = _disk_run(INTERPRETED)
    for _, config in CONFIGS[1:]:
        assert_same_machine(_disk_run(config), cpu_i)


def _display_run(config: MachineConfig, explicit_notify: bool):
    cpu, display = display_band(config, explicit_notify, munches=32)
    cpu.run_until(lambda m: display.done, max_cycles=200_000)
    assert display.underruns == 0
    return cpu


@pytest.mark.parametrize("explicit_notify", [False, True])
def test_display_parity(explicit_notify):
    cpu_i = _display_run(INTERPRETED, explicit_notify)
    for _, config in CONFIGS[1:]:
        assert_same_machine(_display_run(config, explicit_notify), cpu_i)


def _ring_run(config: MachineConfig):
    cluster = build_ring_cluster(2, config=config)
    cluster.run(max_epochs=ring_epoch_budget(2, 2))
    assert cluster.nodes[0].program.verified
    return cluster


def test_cluster_ring_parity():
    """The relay ring is the one workload that runs general-mode traces
    with a device attached under ``run()`` (the device runs above all
    drive through ``run_until``, which never enters a trace)."""
    ring_i = _ring_run(INTERPRETED)
    for _, config in CONFIGS[1:]:
        ring = _ring_run(config)
        assert ring.report() == ring_i.report()
        for node, node_i in zip(ring.nodes, ring_i.nodes):
            assert node.cpu.counters.summary() == node_i.cpu.counters.summary()
            assert architectural_json(node.cpu.snapshot()) == architectural_json(
                node_i.cpu.snapshot()
            )
    for node in ring.nodes:  # the last ring ran PRODUCTION
        assert_clean_traces(node.cpu)
        assert any("D0.tick(" in src for src in (fn.source for fn in node.cpu._traces.traces.values()))
        assert node.cpu._traces.stats()["traced_cycles"] > node.cpu.counters.cycles // 2


# --------------------------------------------------------------------------
# Every example program, across the execution tiers
# --------------------------------------------------------------------------

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

# Re-runs the example with every Processor forced onto a slower tier,
# whatever configuration the script itself chose.
_FORCE_TIER = """
import runpy, sys
from repro.core.processor import Processor
_orig_init = Processor.__init__
def _init(self, *args, **kwargs):
    _orig_init(self, *args, **kwargs)
    self.tier = "{tier}"
Processor.__init__ = _init
script = sys.argv[1]
sys.argv = [script]
runpy.run_path(script, run_name="__main__")
"""


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_parity(script):
    fast = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert fast.returncode == 0, fast.stdout + fast.stderr
    for tier in ("plan", "interp"):
        slow = subprocess.run(
            [sys.executable, "-c", _FORCE_TIER.format(tier=tier), str(script)],
            capture_output=True, text=True, timeout=300,
        )
        assert slow.returncode == 0, slow.stdout + slow.stderr
        assert fast.stdout == slow.stdout, f"{tier} tier output diverged"


# --------------------------------------------------------------------------
# Microstore rewrites must never leave a stale plan behind
# --------------------------------------------------------------------------

RING = 16  # ring of GOTOs within page 0


def _ring_inst(data: int, dest: int) -> MicroInstruction:
    """A side-effect-free instruction ending in GOTO *dest* (page 0).

    With a ``CONST_*`` BSelect the FF byte is constant data, not a
    function, so any *data* byte is architecturally safe; the ALU op and
    load control still exercise the bypass latch, saved carry, and the
    branch-condition datapath.
    """
    return MicroInstruction(
        rsel=data & 0xF,
        aluop=(data >> 2) & 0xF,
        bsel=BSel(BSel.CONST_LZ + ((data >> 6) & 0x3)),
        lc=LoadControl((data >> 4) & 0x3),
        asel=ASel.T if data & 0x100 else ASel.RM,
        ff=data & 0xFF,
        nc=NextControl.pack(NextType.GOTO, dest),
    )


def _twin_machines():
    pair = []
    for config in (PRODUCTION, INTERPRETED):
        cpu = Processor(config)
        for slot in range(RING):
            cpu.im[slot] = _ring_inst(slot * 37, (slot + 1) % RING)
        pair.append(cpu)
    return pair


def _light_state(cpu: Processor) -> tuple:
    regs = cpu.regs
    return (
        cpu.this_pc,
        tuple(regs.rm[:16]),
        regs.t[0],
        regs.q,
        tuple(regs.saved_carry[:1]),
        cpu.counters.cycles,
        cpu.counters.instructions,
    )


_action = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 8)),
    st.tuples(st.just("console"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("direct"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_action, min_size=1, max_size=40))
def test_no_stale_decode_under_rewrites(actions):
    """Interleaved IM rewrites and stepping stay in lockstep.

    The fast machine compiles plans as it runs; every rewrite -- via the
    console's three-stage staging path or a direct ``im[...]`` poke --
    must drop the affected plan, or the two machines diverge on the very
    next visit to that slot.
    """
    fast, slow = _twin_machines()
    for action in actions:
        if action[0] == "step":
            for _ in range(action[1]):
                fast.step()
                slow.step()
        else:
            _, slot, data = action
            inst = _ring_inst(data, (slot + 1) % RING)
            if action[0] == "direct":
                fast.im[slot] = inst
                slow.im[slot] = inst
            else:
                bits = inst.encode()
                for cpu in (fast, slow):
                    console = cpu.console
                    console.latch_im_address(slot)
                    console.im_write_low(bits & 0xFFFF)
                    console.im_write_mid((bits >> 16) & 0xFFFF)
                    console.im_write_high(bits >> 32, cpu.im)
        assert _light_state(fast) == _light_state(slow)


# --------------------------------------------------------------------------
# ... and never a stale compiled trace either
# --------------------------------------------------------------------------

def _hot_twin_machines():
    """PRODUCTION vs INTERPRETED twins with a hair-trigger trace cache.

    The default hot threshold needs several trips around the ring before
    a trace exists; dropping it to 2 means nearly every ``run()`` below
    executes generated code, so a missed invalidation diverges fast.
    """
    fast, slow = _twin_machines()
    fast._traces.hot_threshold = 2
    return fast, slow


_trace_action = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 80)),
    st.tuples(st.just("console"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("direct"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("slice"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_trace_action, min_size=1, max_size=30))
def test_no_stale_trace_under_rewrites(actions):
    """Random mid-run IM pokes through every write path drop traces.

    Traces only execute inside ``run()``, so the machines free-run in
    matched bursts instead of stepping.  Any write path that failed to
    invalidate -- direct item assignment, slice assignment, or the
    console's staging registers -- would leave compiled code that still
    encodes the old microword, and the lockstep check would catch it on
    the next burst.
    """
    fast, slow = _hot_twin_machines()
    for action in actions:
        if action[0] == "run":
            fast.run(max_cycles=action[1])
            slow.run(max_cycles=action[1])
        else:
            _, slot, data = action
            inst = _ring_inst(data, (slot + 1) % RING)
            if action[0] == "direct":
                fast.im[slot] = inst
                slow.im[slot] = inst
            elif action[0] == "slice":
                fast.im[slot:slot + 1] = [inst]
                slow.im[slot:slot + 1] = [inst]
            else:
                bits = inst.encode()
                for cpu in (fast, slow):
                    console = cpu.console
                    console.latch_im_address(slot)
                    console.im_write_low(bits & 0xFFFF)
                    console.im_write_mid((bits >> 16) & 0xFFFF)
                    console.im_write_high(bits >> 32, cpu.im)
        assert _light_state(fast) == _light_state(slow)
    assert_clean_traces(fast)


def test_trace_property_is_not_vacuous():
    """The ring actually compiles to a trace at the lowered threshold."""
    fast, slow = _hot_twin_machines()
    fast.run(max_cycles=200)
    slow.run(max_cycles=200)
    assert _light_state(fast) == _light_state(slow)
    assert fast._traces.traces, "ring never became hot -- property is vacuous"
    assert fast._traces.entries > 0
    # A rewrite through each path empties the whole cache.
    fast.im[3] = _ring_inst(0o123, 4)
    slow.im[3] = _ring_inst(0o123, 4)
    assert not fast._traces.traces
    fast.run(max_cycles=200)
    slow.run(max_cycles=200)
    assert _light_state(fast) == _light_state(slow)
    assert_clean_traces(fast)


def _loop_loading_t(cpu: Processor, value: int) -> None:
    """Slots 0..1: load T with *value*, forever."""
    cpu.im[0] = MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl.T, ff=value,
        nc=NextControl.pack(NextType.GOTO, 1),
    )
    cpu.im[1] = MicroInstruction(nc=NextControl.pack(NextType.GOTO, 0))


def test_direct_im_write_invalidates_plan():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    assert cpu.regs.t[0] == 5
    _loop_loading_t(cpu, 7)  # rewrite through plain item assignment
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 7


def test_console_im_write_invalidates_plan():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    bits = MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl.T, ff=9,
        nc=NextControl.pack(NextType.GOTO, 1),
    ).encode()
    cpu.console.latch_im_address(0)
    cpu.console.im_write_low(bits & 0xFFFF)
    cpu.console.im_write_mid((bits >> 16) & 0xFFFF)
    cpu.console.im_write_high(bits >> 32, cpu.im)
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 9


def test_slice_im_write_invalidates_plans():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    replacement = Processor()
    _loop_loading_t(replacement, 11)
    cpu.im[0:2] = replacement.im[0:2]
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 11


def test_im_write_invalidates_hot_trace():
    """The T-loop, run hot enough to trace, then rewritten mid-run."""
    cpu = Processor(PRODUCTION)
    cpu._traces.hot_threshold = 2
    _loop_loading_t(cpu, 5)
    cpu.run(max_cycles=40)
    assert cpu.regs.t[0] == 5
    assert cpu._traces.traces
    _loop_loading_t(cpu, 7)
    assert not cpu._traces.traces
    cpu.run(max_cycles=8)
    assert cpu.regs.t[0] == 7
    assert_clean_traces(cpu)


# --------------------------------------------------------------------------
# SHIFTCTL decodes exactly once per shift instruction, on all paths
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,config", CONFIGS)
def test_shiftctl_decodes_once_per_shift(label, config, monkeypatch):
    """All three shift FFs decode the live SHIFTCTL exactly once.

    ``_result_override`` used to decode it up to three times per
    instruction; both it and the generated steps share a single decode,
    which this test pins by counting calls through the interpreter's
    and the trace compiler's module-level ``ShiftControl`` references.
    The step and region memos are swapped for empty ones, so all code
    is generated here, bound to the counting decode, whatever earlier
    tests left in the process-wide memos.
    """
    import repro.core.processor as processor_mod
    import repro.core.tracecache as tracecache_mod
    from repro.core.functions import FF
    from repro.core.shifter import ShiftControl, field_control, shift, shift_masked

    calls = []

    class CountingShiftControl:
        @staticmethod
        def decode(value):
            calls.append(value)
            return ShiftControl.decode(value)

    monkeypatch.setattr(processor_mod, "ShiftControl", CountingShiftControl)
    monkeypatch.setattr(tracecache_mod, "ShiftControl", CountingShiftControl)
    monkeypatch.setattr(tracecache_mod, "_STEP_MEMO", {})
    monkeypatch.setattr(tracecache_mod, "_REGION_MEMO", {})

    control = field_control(4, 6)
    word, fill = 0x0A50, 0x9C01

    def build(asm):
        asm.register("w", 1)
        asm.register("addr", 2)
        asm.load_constant("w", word)
        asm.load_constant(3, control.encode())
        asm.emit(r=3, b="RM", ff=FF.SHIFTCTL_B)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_OUT, load="T")
        asm.emit(b="T", ff=FF.TRACE)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_MASKZ, load="T")
        asm.emit(b="T", ff=FF.TRACE)
        asm.emit(r="addr", b=0x0100, alu="B", load="RM")
        asm.emit(r="addr", a="RM", b=fill & 0xFF00, alu="B", store=True)
        asm.emit(r="addr", a="RM", fetch=True)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_MASKMD, load="T")
        asm.emit(b="T", ff=FF.TRACE)

    from tests.conftest import run_microcode

    cpu = run_microcode(build, config=config)
    # One decode per executed shift microinstruction -- held cycles
    # (SHIFT_MASKMD waiting on MEMDATA) must not decode at all.
    assert len(calls) == 3
    # And each path produced the architecturally right value.
    raw = shift(control, word, 0)
    maskz = shift_masked(control, word, 0, 0)
    maskmd = shift_masked(control, word, 0, fill & 0xFF00)
    assert cpu.console.trace == [raw, maskz, maskmd]
