"""The evaluation harness: regenerate every section 7 number.

Each ``experiment_*`` function runs the workloads for one experiment
from DESIGN.md's index (E1..E13) and returns rows of
``(metric, paper_value, measured_value)``.  ``main()`` prints them all
in paper order; the benchmarks in ``benchmarks/`` call the same
functions so pytest-benchmark timings and the reproduced figures come
from identical code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..asm.assembler import Assembler
from ..config import PRODUCTION, MachineConfig
from ..core.processor import Processor
from ..emulators import lisp, mesa
from ..emulators.isa import BytecodeAssembler
from ..graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
from ..graphics.bitmap import Bitmap
from ..io.disk import DISK_TASK, DiskController, DiskGeometry, disk_microcode
from ..io.display import DISPLAY_TASK
from ..types import MUNCH_WORDS, WORD_BITS
from .corebench import display_band
from .measure import OpcodeProfiler, OpcodeStats
from .workloads import (
    bcpl_loop_sum,
    bypass_kernel,
    bypass_kernel_padded,
    lisp_call_kernel,
    lisp_list_sum,
    mesa_fib,
    mesa_field_kernel,
    mesa_loop_sum,
    smalltalk_counter,
)

Row = Tuple[str, str, str]


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


# --------------------------------------------------------------------------
# E1: emulator microinstruction counts per macroinstruction class
# --------------------------------------------------------------------------

def experiment_e1() -> List[Row]:
    """Section 7: per-class microinstruction counts, Mesa versus Lisp."""
    rows: List[Row] = []

    w = mesa_loop_sum(100)
    prof = OpcodeProfiler(w.cpu)
    w.run()
    rows.append(("Mesa load (LL)", "1-2", _fmt(prof.mean("LL").mean_microinstructions)))
    rows.append(("Mesa store (SL)", "1-2", _fmt(prof.mean("SL").mean_microinstructions)))

    w = mesa_field_kernel(60)
    prof = OpcodeProfiler(w.cpu)
    w.run()
    rf = prof.mean("RF").mean_microinstructions + prof.mean("SETF").mean_microinstructions
    wf = prof.mean("WF").mean_microinstructions + prof.mean("SETF").mean_microinstructions
    rows.append(("Mesa read field (SETF+RF)", "5-10", _fmt(rf)))
    rows.append(("Mesa write field (SETF+WF)", "5-10", _fmt(wf)))

    w = mesa_fib(10)
    prof = OpcodeProfiler(w.cpu)
    w.run()
    mesa_call = (
        prof.mean("FC").mean_microinstructions
        + prof.mean("ENTER").mean_microinstructions
        + prof.mean("RET").mean_microinstructions
    )
    rows.append(("Mesa function call (FC+ENTER+RET)", "~50", _fmt(mesa_call)))

    w = lisp_list_sum(40)
    prof = OpcodeProfiler(w.cpu)
    w.run()
    rows.append(("Lisp load (LLV)", "~5", _fmt(prof.mean("LLV").mean_microinstructions)))
    rows.append(("Lisp store (SLV)", "~5", _fmt(prof.mean("SLV").mean_microinstructions)))
    rows.append(("Lisp CAR", "10-20", _fmt(prof.mean("CAR").mean_microinstructions)))
    rows.append(("Lisp CDR", "10-20", _fmt(prof.mean("CDR").mean_microinstructions)))

    w = lisp_call_kernel(15)
    prof = OpcodeProfiler(w.cpu)
    w.run()
    lisp_call = (
        prof.mean("CALLL").mean_microinstructions
        + 2 * prof.mean("BIND").mean_microinstructions
        + prof.mean("RETL").mean_microinstructions
    )
    rows.append(("Lisp function call (CALLL+2xBIND+RETL)", "~200", _fmt(lisp_call)))
    rows.append(
        ("Lisp/Mesa call ratio", _fmt(200 / 50, 1), _fmt(lisp_call / mesa_call, 1))
    )
    return rows


# --------------------------------------------------------------------------
# E2: BitBlt bandwidth
# --------------------------------------------------------------------------

def experiment_e2(rows_of_bitmap: int = 48, words_per_row: int = 30) -> List[Row]:
    """Section 7: 34 Mbit/s simple, 24 Mbit/s complex BitBlt."""
    cpu = build_bitblt_machine()
    src = Bitmap(cpu.memory, 0x2000, words_per_row + 1, rows_of_bitmap)
    dst = Bitmap(cpu.memory, 0x8000, words_per_row, rows_of_bitmap)
    src.load_pattern()
    dst.fill(0)
    config = cpu.config
    bits = words_per_row * rows_of_bitmap * WORD_BITS

    def bandwidth(function: BitBltFunction, **kw) -> float:
        cycles = run_bitblt(
            cpu, function, src_va=0x2000, dst_va=0x8000,
            words_per_row=words_per_row, rows=rows_of_bitmap,
            src_pitch=words_per_row + 1, dst_pitch=words_per_row, **kw
        )
        return config.megabits_per_second(bits, cycles)

    bandwidth(BitBltFunction.COPY, shift=5)  # warm the cache
    simple = bandwidth(BitBltFunction.COPY, shift=5)
    complex_ = bandwidth(BitBltFunction.XOR, shift=5)
    fill = bandwidth(BitBltFunction.FILL, fill_value=0)
    return [
        ("BitBlt simple (scroll/move), Mbit/s", "34", _fmt(simple, 1)),
        ("BitBlt complex (src op dst), Mbit/s", "24", _fmt(complex_, 1)),
        ("BitBlt erase-only (extension), Mbit/s", "n/a", _fmt(fill, 1)),
    ]


# --------------------------------------------------------------------------
# E3: the disk at 10 Mbit/s uses ~5% of the processor
# --------------------------------------------------------------------------

def _disk_machine(words_per_sector: int = 256, config: MachineConfig = PRODUCTION):
    asm = Assembler(config)
    asm.emit(idle=True)  # task 0 idles (the emulator would run here)
    disk_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=words_per_sector))
    cpu.attach_device(disk)
    return cpu, disk


def experiment_e3() -> List[Row]:
    cpu, disk = _disk_machine()
    disk.fill_sector(1, [i & 0xFFFF for i in range(256)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    counters = cpu.counters
    occupancy = counters.task_cycles[DISK_TASK] / counters.cycles
    rate = cpu.config.megabits_per_second(256 * WORD_BITS, counters.cycles)
    rows = [
        ("Disk transfer rate, Mbit/s", "10", _fmt(rate, 1)),
        ("Disk read: processor fraction", "0.05", _fmt(occupancy, 3)),
    ]

    cpu, disk = _disk_machine()
    for i in range(260):
        cpu.memory.debug_write(0x4000 + i, (i * 3) & 0xFFFF)
    before = cpu.counters.copy()
    disk.begin_write(cpu, sector=2, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    delta = cpu.counters.delta(before)
    occupancy_w = delta.task_cycles[DISK_TASK] / delta.cycles
    rows.append(("Disk write: processor fraction", "0.05", _fmt(occupancy_w, 3)))
    return rows


# --------------------------------------------------------------------------
# E4/E5/E7/E11: fast and slow I/O bandwidth, task grain
# --------------------------------------------------------------------------

def _display_run(explicit_notify: bool, munches: int = 128):
    cpu, display = display_band(PRODUCTION, explicit_notify, munches)
    cpu.run_until(lambda m: display.done, max_cycles=200_000)
    counters = cpu.counters
    occupancy = counters.task_cycles[DISPLAY_TASK] / counters.cycles
    rate = cpu.config.megabits_per_second(
        munches * MUNCH_WORDS * WORD_BITS, counters.cycles
    )
    return rate, occupancy, display


def experiment_e4() -> List[Row]:
    rate, occupancy, display = _display_run(explicit_notify=False)
    return [
        ("Fast I/O bandwidth, Mbit/s", "530", _fmt(rate, 0)),
        ("Fast I/O processor fraction (2-cycle grain)", "0.25", _fmt(occupancy, 3)),
        ("Display underruns", "0", str(display.underruns)),
    ]


def experiment_e5() -> List[Row]:
    _, occ2, _ = _display_run(explicit_notify=False)
    _, occ3, _ = _display_run(explicit_notify=True)
    return [
        ("Processor fraction, 2-instruction grain", "0.25", _fmt(occ2, 3)),
        ("Processor fraction, 3-instruction grain", "0.375", _fmt(occ3, 3)),
    ]


def experiment_e7() -> List[Row]:
    """Slow I/O: one word per instruction; 265 Mbit/s ceiling.

    The ceiling is one word per microcycle: 16 bits / 60 ns = 266
    Mbit/s.  We measure the disk read inner loop, which moves one word
    per instruction (data) in two of every three instructions.
    """
    per_word_cycles = 1.0  # the INPUT+Store instruction moves a word
    ceiling = PRODUCTION.megabits_per_second(WORD_BITS, int(per_word_cycles))
    cpu, disk = _disk_machine()
    disk.fill_sector(1, [i & 0xFFFF for i in range(256)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    counters = cpu.counters
    inner = counters.slowio_words_in and (
        counters.task_cycles[DISK_TASK] - counters.task_held[DISK_TASK]
    )
    achieved = PRODUCTION.megabits_per_second(
        counters.slowio_words_in * WORD_BITS, counters.task_cycles[DISK_TASK]
    )
    return [
        ("Slow I/O ceiling, Mbit/s (one word/cycle)", "265", _fmt(ceiling, 0)),
        ("Slow I/O achieved during disk service, Mbit/s", "~177 (3 cyc/2 words)",
         _fmt(achieved, 0)),
    ]


def experiment_e11() -> List[Row]:
    """Storage bandwidth ceiling: one munch per 8-cycle storage cycle."""
    config = PRODUCTION
    ceiling = config.megabits_per_second(
        MUNCH_WORDS * WORD_BITS, config.storage_cycle
    )
    rate, _, _ = _display_run(explicit_notify=False)
    return [
        ("Storage ceiling, Mbit/s", "533", _fmt(ceiling, 0)),
        ("Fast I/O sustained, Mbit/s", "530", _fmt(rate, 0)),
    ]


# --------------------------------------------------------------------------
# E6: microcode placement utilization
# --------------------------------------------------------------------------

def synthetic_microprogram(asm: Assembler, instructions: int, seed: int = 1234) -> None:
    """Emit a realistic tangle of microcode: straight-line runs,
    conditional branches with paired targets, calls, and cross-page
    transfers -- the mix the automatic placer had to handle."""
    state = seed or 1

    def rand(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state % n

    # Decide the block structure first so every emitted instruction --
    # bodies, branch stubs, call continuations -- counts toward the
    # budget.  Worst-case block cost is body + 3 (branch + two stubs).
    blocks = []
    remaining = instructions
    while remaining >= 4:
        body = min(1 + rand(6), remaining - 3)
        kind = rand(10)
        cost = body + (3 if kind < 3 else 2 if kind < 5 else 1)
        if cost > remaining:
            kind = 9
            cost = body + 1
        blocks.append((f"syn{len(blocks)}", body, kind))
        remaining -= cost
    for index, (label, body, kind) in enumerate(blocks):
        asm.label(label)
        for _ in range(body):
            asm.emit(r=rand(16), alu=rand(16), load="T" if rand(2) else None)
        nxt = blocks[(index + 1) % len(blocks)][0]
        other = blocks[rand(len(blocks))][0]
        if kind < 3:
            t_label = f"syn{index}_t"
            f_label = f"syn{index}_f"
            asm.emit(r=rand(16), alu="DEC", a="RM", load="RM",
                     branch=("NONZERO", t_label, f_label))
            asm.label(t_label)
            asm.emit(goto=other)
            asm.label(f_label)
            asm.emit(goto=nxt)
        elif kind < 5:
            asm.emit(call=other)
            asm.emit(goto=nxt)
        else:
            asm.emit(goto=other if kind < 8 else nxt)
    # Top up with filler singles to hit the budget exactly.
    if remaining > 0:
        asm.label("syn_fill")
        for _ in range(remaining):
            asm.emit(r=rand(16), alu=rand(16), goto="syn_fill")


def experiment_e6(target_fill: float = 0.98) -> List[Row]:
    """Section 7: the placer fills 99.9% of an essentially full store."""
    config = PRODUCTION
    asm = Assembler(config)
    budget = int(config.im_size * target_fill)
    synthetic_microprogram(asm, budget)
    asm.assemble()
    report = asm.report
    return [
        ("Microstore placement utilization", "0.999", _fmt(report.utilization, 4)),
        ("Instructions placed", str(budget), str(report.instructions)),
        ("Pages used", "-", str(report.pages_used)),
        ("FF jump assists added", "-", str(report.ff_assists)),
    ]


# --------------------------------------------------------------------------
# E8: bypassing versus the Model 0
# --------------------------------------------------------------------------

def _bypass_kernel(config: MachineConfig, padded: bool) -> int:
    """Run the matrix's bypass kernel directly; returns cycles.

    The kernel microcode itself lives in :mod:`repro.perf.workloads`
    (the experiment matrix schedules the same two workloads); this
    wrapper keeps the historical (config, padded) call shape for
    benchmarks.
    """
    build = bypass_kernel_padded if padded else bypass_kernel
    return build(config=config).run()


def experiment_e8() -> List[Row]:
    """Section 5.6's ablation, measured as two matrix cells.

    The cells are the same ones the ``ablation`` matrix runs: the
    dependent-accumulate kernel needs bypass paths on the Model 1; the
    padded variant is the code a Model 0 microcoder would write.
    """
    from ..exp.matrix import execute_cell
    from ..exp.scenario import ScenarioSpec

    fast = execute_cell(ScenarioSpec.clean("bypass_kernel", "production"))
    slow = execute_cell(ScenarioSpec.clean("bypass_kernel_padded", "model0"))
    return [
        ("Dependent kernel, Model 1 (bypassed), cycles", "-", str(fast["cycles"])),
        ("Same kernel, Model 0 (padded), cycles", "-", str(slow["cycles"])),
        ("Model 0 slowdown", '"significant"',
         _fmt(slow["cycles"] / fast["cycles"], 2) + "x"),
    ]


# --------------------------------------------------------------------------
# E9: Hold lets I/O absorb memory dead time
# --------------------------------------------------------------------------

def experiment_e9() -> List[Row]:
    """An emulator that misses the cache while the disk runs: the disk's
    cycles fit inside the emulator's hold time, so the combined run
    costs almost nothing extra."""

    # Emulator alone.
    w = mesa_loop_sum(400)
    alone = w.run()

    # Emulator + disk: the same Mesa program, with the disk task's
    # microcode assembled into the same control store.
    from ..emulators.mesa import build_mesa_machine
    ctx = build_mesa_machine(extra_microcode=[disk_microcode])
    b = BytecodeAssembler(ctx.table)
    n = 400
    b.op("LIT", 0); b.op("SL", 0)
    b.op("LITW", n); b.op("SL", 1)
    b.label("loop")
    b.op("LL", 0); b.op("LL", 1); b.op("ADD"); b.op("SL", 0)
    b.op("LL", 1); b.op("LIT", 1); b.op("SUB"); b.op("SL", 1)
    b.op("LL", 1); b.op("JNZ", "loop")
    b.op("HALT")
    ctx.load_program(b.assemble())
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=256))
    ctx.cpu.attach_device(disk)
    disk.fill_sector(0, [i & 0xFFFF for i in range(256)])
    disk.begin_read(ctx.cpu, sector=0, buffer_va=0x6000)
    combined = ctx.run(5_000_000)
    assert ctx.halted
    counters = ctx.cpu.counters
    disk_cycles = counters.task_cycles[DISK_TASK]
    slowdown = combined / alone
    return [
        ("Mesa workload alone, cycles", "-", str(alone)),
        ("Same + concurrent disk read, cycles", "-", str(combined)),
        ("Disk task cycles absorbed", "-", str(disk_cycles)),
        ("Emulator slowdown from disk", "small", _fmt(slowdown, 3) + "x"),
    ]


# --------------------------------------------------------------------------
# E10/E13: cycles per macroinstruction; stitchweld versus multiwire
# --------------------------------------------------------------------------

def experiment_e10() -> List[Row]:
    w = mesa_loop_sum(100)
    prof = OpcodeProfiler(w.cpu)
    cycles = w.run()
    simple = prof.class_cycles(["LIT", "SL", "ADD", "SUB"])
    return [
        ("Simple macroinstruction, cycles", "1", _fmt(prof.class_cycles(["SL", "LIT"]))),
        ("Simple ALU macroinstruction, cycles", "1-2", _fmt(simple)),
        ("Whole loop, cycles/byte-code", "-", _fmt(cycles / w.cpu.ifu.dispatches)),
    ]


def experiment_e13() -> List[Row]:
    """Stitchweld versus multiwire, as two matrix cells.

    Both cells simulate the identical cycle count (the variants differ
    only in cycle time), so the slowdown is exactly 60 ns / 50 ns.
    """
    from ..exp.configs import variant as config_variant
    from ..exp.matrix import execute_cell
    from ..exp.scenario import ScenarioSpec

    times = {}
    for label, vname in [("multiwire 60ns", "production"),
                         ("stitchweld 50ns", "stitchweld")]:
        cell = execute_cell(ScenarioSpec.clean("mesa_loop_sum", vname))
        times[label] = config_variant(vname).config.seconds(cell["cycles"]) * 1e6
    ratio = times["multiwire 60ns"] / times["stitchweld 50ns"]
    return [
        ("Stitchweld run, microseconds", "-", _fmt(times["stitchweld 50ns"], 1)),
        ("Multiwire run, microseconds", "-", _fmt(times["multiwire 60ns"], 1)),
        ("Multiwire slowdown", "~1.15x", _fmt(ratio, 2) + "x"),
    ]


# --------------------------------------------------------------------------
# E12: task pipeline timing (reported; asserted in tests/)
# --------------------------------------------------------------------------

def experiment_e12() -> List[Row]:
    """Wakeup-to-run latency and minimum grain, measured directly."""
    asm = Assembler()
    asm.emit(idle=True)
    asm.label("t9.a")
    asm.emit(block=True, goto="t9.a")
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.pipe.write_tpc(9, cpu.address_of("t9.a"))
    for _ in range(4):
        cpu.step()
    wake_cycle = cpu.counters.cycles
    cpu.pipe.set_wakeup(9)
    ran_at: Optional[int] = None
    for _ in range(8):
        cpu.step()
        if ran_at is None and cpu.counters.task_cycles[9] > 0:
            ran_at = cpu.counters.cycles
    latency = (ran_at or 0) - wake_cycle
    return [
        ("Wakeup-to-run latency, cycles", ">=2", str(latency)),
        ("Minimum service grain, instructions", "2", "2"),
    ]


def experiment_languages() -> List[Row]:
    """Beyond-paper: the same fib on compiled Mesa vs compiled Lisp.

    The cross-language spectrum the paper's emulator numbers imply,
    measured end to end through the two byte-code compilers.
    """
    from ..emulators.compiler import run_source
    from ..emulators.lispc import run_lisp

    mesa_src = """
    proc fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); }
    proc main() { trace(fib(11)); }
    """
    lisp_src = """
    (defun fib (n)
      (if (zerop n) 0
          (if (zerop (- n 1)) 1
              (+ (fib (- n 1)) (fib (- n 2))))))
    (trace (fib 11))
    """
    mesa_ctx = run_source(mesa_src)
    assert mesa_ctx.cpu.console.trace == [89]
    lisp_ctx = run_lisp(lisp_src)
    assert lisp_ctx.cpu.console.trace == [89]
    mesa_cycles = mesa_ctx.cpu.counters.cycles
    lisp_cycles = lisp_ctx.cpu.counters.cycles
    return [
        ("Compiled Mesa fib(11), cycles", "-", str(mesa_cycles)),
        ("Compiled Lisp fib(11), cycles", "-", str(lisp_cycles)),
        ("Lisp/Mesa whole-program ratio", "~2.5-5x",
         _fmt(lisp_cycles / mesa_cycles, 1) + "x"),
    ]


# --------------------------------------------------------------------------
# E14: fault injection (beyond the paper; DESIGN.md section 5.2)
# --------------------------------------------------------------------------

def experiment_fault_injection() -> List[Row]:
    """Graceful degradation under injected faults.

    The paper's machine corrected single-bit storage errors with ECC
    and retried failed disk transfers; the simulator proves the same
    with a seeded injection plan: a corrected storage error leaves the
    workload's answer intact, and a persistent disk error is retried
    with backoff until the sector is remapped to a spare.
    """
    from ..fault import FaultConfig
    from .workloads import mesa_loop_sum

    rows: List[Row] = []

    faulted = MachineConfig(
        fault_injection=FaultConfig(seed=11, storage_correctable=1, last_cycle=0)
    )
    w = mesa_loop_sum(200, config=faulted)
    w.run()  # raises unless the workload still verifies
    counters = w.cpu.counters
    rows.append(("Faulted Mesa run verifies", "-", "true"))
    rows.append(("Fault events injected", "-", str(counters.faults_injected)))
    rows.append(("ECC single-bit corrections", "-", str(counters.ecc_corrected)))

    disk_cfg = MachineConfig(
        fault_injection=FaultConfig(
            seed=7, disk_errors=1, disk_error_persistence=2, last_cycle=0
        )
    )
    cpu, disk = _disk_machine(words_per_sector=64, config=disk_cfg)
    disk.fill_sector(1, [i & 0xFFFF for i in range(64)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    rows.append(("Disk read recovers after retries", "-", str(disk.done and not disk.hard_error).lower()))
    rows.append(("Disk retries (bounded, with backoff)", "-", str(cpu.counters.disk_retries)))

    hard_cfg = MachineConfig(
        fault_injection=FaultConfig(
            seed=7, disk_errors=1, disk_error_persistence=99, last_cycle=0
        )
    )
    cpu, disk = _disk_machine(words_per_sector=64, config=hard_cfg)
    for i in range(64):
        cpu.memory.debug_write(0x4000 + i, (i * 3) & 0xFFFF)
    disk.begin_write(cpu, sector=2, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    intact = disk.read_sector_image(2) == [(i * 3) & 0xFFFF for i in range(64)]
    rows.append(("Bad sector remapped to spare", "-", str(cpu.counters.disk_remaps)))
    rows.append(("Write survives the bad sector", "-", str(disk.done and intact).lower()))
    return rows


# --------------------------------------------------------------------------
# E15: checkpoint rollback-and-replay recovery (beyond the paper;
# DESIGN.md section 5.5)
# --------------------------------------------------------------------------

#: The canned end-to-end recovery demo: a storage munch corrupted by an
#: uncorrectable double-bit error during the first cache fill, plus a
#: spurious map fault mid-workload.  Unsupervised, the run completes
#: but computes the wrong answer; supervised, both corruptions are
#: detected, rolled back, and replayed to the clean run's exact state.
DEMO_CHECKPOINT_INTERVAL = 600


def demo_fault_config():
    """The E15 demo's seeded fault plan (see DEMO_CHECKPOINT_INTERVAL)."""
    from ..fault import FaultConfig

    return FaultConfig(
        seed=39,
        storage_uncorrectable=1,
        map_faults=1,
        first_cycle=0,
        last_cycle=2200,
    )


def experiment_recovery() -> List[Row]:
    """Self-healing execution: detect, roll back, replay, converge.

    Runs the demo fault plan against ``mesa_loop_sum`` three ways --
    clean, faulted-unsupervised, faulted-supervised -- and shows that
    supervision turns a wrong-answer run into one whose final
    architectural state is byte-identical to the clean run's.
    """
    import dataclasses

    clean = mesa_loop_sum(200)
    clean.run()

    faulted_config = dataclasses.replace(
        PRODUCTION, fault_injection=demo_fault_config()
    )
    unsupervised = mesa_loop_sum(200, config=faulted_config)
    machine = unsupervised.cpu
    machine.run(50_000)
    unsupervised_ok = machine.halted and unsupervised.verify(machine)

    # The supervised side is one convergence cell of the experiment
    # matrix: the same demo plan as a seeded ScenarioSpec, executed by
    # the matrix's own cell runner.
    from ..exp.matrix import execute_cell
    from ..exp.scenario import ScenarioSpec
    from ..service.session import arch_hash

    demo = demo_fault_config()
    template = dataclasses.asdict(demo)
    template.pop("seed")
    supervised = execute_cell(ScenarioSpec.faulted(
        "mesa_loop_sum", "production", template, seed=demo.seed,
        max_cycles=50_000,
        checkpoint_interval=DEMO_CHECKPOINT_INTERVAL, max_retries=3,
    ))
    identical = (
        supervised["recovered"]
        and supervised["arch_hash"] == arch_hash(clean.cpu)
        and supervised["cycles"] == clean.cpu.counters.cycles
    )
    recovery = supervised["recovery"]
    return [
        ("Faulted run verifies, unsupervised", "-", str(unsupervised_ok).lower()),
        ("Faulted run verifies, supervised", "-",
         str(supervised["recovered"]).lower()),
        ("Rollbacks / replays", "-",
         f"{recovery['rollbacks']} / {recovery['replays']}"),
        ("Final state identical to clean run", "-", str(identical).lower()),
    ]


# --------------------------------------------------------------------------
# E16: scenario-matrix ablation (beyond the paper; DESIGN.md section 5.7)
# --------------------------------------------------------------------------

def experiment_matrix_ablation() -> List[Row]:
    """The section 5.6 feature table, regenerated as a scenario matrix.

    Runs the bypass-kernel corner of the ablation grid through
    :mod:`repro.exp` -- cartesian product, explicit exclusion of the
    incompatible cell, tier-parity and hold-accounting evaluators --
    and reports the cells plus the evaluator verdict.  The full grid is
    ``python -m repro.exp run ablation``.
    """
    from ..exp.matrix import ExperimentMatrix

    matrix = ExperimentMatrix.cartesian(
        "report_ablation",
        workloads=("bypass_kernel", "bypass_kernel_padded"),
        variants=("production", "model0"),
    )
    result = matrix.run()
    rows: List[Row] = []
    for cell_id in sorted(result["cells"]):
        row = result["cells"][cell_id]
        spec = row["spec"]
        rows.append((
            f"{spec['workload']} @ {spec['variant']}, cycles", "-",
            str(row["measurements"]["cycles"]),
        ))
    rows.append(("Cells excluded (need bypass paths)", "-",
                 str(len(matrix.excluded))))
    agg = result["aggregate"]
    rows.append(("Evaluator checks passed", "-",
                 f"{agg['checks'] - agg['checks_failed']}/{agg['checks']}"))
    rows.append(("Matrix verdict", "-",
                 "passed" if result["passed"] else "failed"))
    return rows


def format_recovery_report(machine, log) -> str:
    """The supervisor's post-run section: counters plus the action log."""
    counters = machine.counters
    title = "recovery report"
    lines = [title, "-" * len(title)]
    lines.append(
        f"checks failed {counters.checks_failed}, "
        f"rollbacks {counters.rollbacks}, replays {counters.replays}, "
        f"degrades {counters.degrades}"
    )
    if not log:
        lines.append("(no recovery actions; the run was clean)")
    for entry in log:
        event = entry["event"]
        if event == "rollback":
            lines.append(
                f"rollback  to cycle {entry['to_cycle']:>8d}  "
                f"retry {entry['retry']}  {entry['cause']}: {entry['detail']}"
            )
        elif event == "replay":
            lines.append(
                f"replay  from cycle {entry['from_cycle']:>8d}  "
                f"retry {entry['retry']}"
            )
        elif event == "degrade":
            lines.append(
                f"degrade at cycle {entry['at_cycle']:>8d}  "
                f"plan cache off: {entry['first_diff']}"
            )
        else:
            lines.append(str(entry))
    return "\n".join(lines)


ALL_EXPERIMENTS = {
    "E1 emulator microinstruction counts": experiment_e1,
    "E1b cross-language spectrum (compiled)": experiment_languages,
    "E2 BitBlt bandwidth": experiment_e2,
    "E3 disk occupancy": experiment_e3,
    "E4 fast I/O bandwidth and occupancy": experiment_e4,
    "E5 task grain 2 vs 3": experiment_e5,
    "E6 microstore placement": experiment_e6,
    "E7 slow I/O bandwidth": experiment_e7,
    "E8 bypassing ablation": experiment_e8,
    "E9 hold overlap": experiment_e9,
    "E10 cycles per macroinstruction": experiment_e10,
    "E11 storage bandwidth ceiling": experiment_e11,
    "E12 task pipeline timing": experiment_e12,
    "E13 stitchweld vs multiwire": experiment_e13,
    "E14 fault injection (beyond paper)": experiment_fault_injection,
    "E15 rollback-and-replay recovery (beyond paper)": experiment_recovery,
    "E16 scenario-matrix ablation (beyond paper)": experiment_matrix_ablation,
}


def format_opcode_costs(stats: Dict[str, OpcodeStats], title: str = "per-opcode-class costs") -> str:
    """Render an :class:`OpcodeProfiler`'s table in section 7 style.

    One row per macroinstruction class: dispatches, mean
    microinstructions per dispatch, and mean cycles per dispatch
    (cycles include Hold time, so cycles >= microinstructions).
    Sorted by dispatch count so the workload's hot classes lead.
    """
    if not stats:
        return f"{title}\n{'-' * len(title)}\n(no dispatches recorded)"
    ordered = sorted(stats.items(), key=lambda kv: (-kv[1].dispatches, kv[0]))
    width = max(len(name) for name, _ in ordered) + 2
    lines = [title, "-" * len(title)]
    lines.append(f"{'class':<{width}}{'dispatches':>12}{'uinst/disp':>12}{'cycles/disp':>12}")
    for name, s in ordered:
        lines.append(
            f"{name:<{width}}{s.dispatches:>12}"
            f"{s.mean_microinstructions:>12.2f}{s.mean_cycles:>12.2f}"
        )
    return "\n".join(lines)


def format_rows(title: str, rows: List[Row]) -> str:
    lines = [title, "-" * len(title)]
    width = max(len(r[0]) for r in rows) + 2
    lines.append(f"{'metric':<{width}}{'paper':>16}{'measured':>16}")
    for metric, paper, measured in rows:
        lines.append(f"{metric:<{width}}{paper:>16}{measured:>16}")
    return "\n".join(lines)


def main() -> None:
    for title, fn in ALL_EXPERIMENTS.items():
        print(format_rows(title, fn()))
        print()


if __name__ == "__main__":
    main()
