"""Core simulator speed: the three execution tiers, side by side.

``python -m repro.perf.corebench`` times the cycle-stepped core on three
representative workloads -- the E1 Mesa emulator loop, the E2 BitBlt
inner loop, and the E4 fast-I/O display service -- under all three
cycle implementations: the interpretive reference (``INTERPRETED``),
the compiled one-cycle steps (``PLAN_ONLY``), and the compiled-trace
tier that PRODUCTION layers on top (``repro.core.tracecache``).  It
writes ``BENCH_core.json`` with the cycles-per-second of each and the
tier-over-tier speedups.  Only the run phase is timed (see
:func:`~repro.perf.measure.measure_staged_rate`): microcode assembly
and machine building are identical across tiers and would otherwise
dilute the comparison.  The simulated cycle counts are asserted
identical across all three runs, so the file doubles as a parity
receipt.

The benchmark runs with no instrumentation-bus subscribers attached, so
it also pins the bus's zero-cost guarantee: an idle bus leaves
``Processor.trace_hook`` as ``None`` and the step loop pays the
same single check it paid before the bus existed.  ``--baseline`` reruns
the bench and compares against a previously written BENCH_core.json:
simulated cycle counts must match exactly, and each scenario's speedup
must not have regressed below the baseline's by more than the tolerance
(absolute cycles-per-second are host-specific, the speedup *ratio* is
the portable number).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Tuple

from ..config import TIERS, MachineConfig
from ..core.processor import Processor
from ..asm.assembler import Assembler
from ..graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
from ..graphics.bitmap import Bitmap
from ..io.display import DisplayController, display_fast_microcode
from ..types import MUNCH_WORDS
from .measure import measure_staged_rate
from .workloads import mesa_loop_sum

#: Scenario factories return a *stage* callable: calling it builds a
#: fresh machine and returns the zero-arg run callable that simulates
#: and reports cycles.  ``measure_staged_rate`` times only the latter.


def _e1_mesa_loop(config: MachineConfig) -> Callable[[], Callable[[], int]]:
    """E1: the byte-code emulator's load/store/branch loop."""
    def stage() -> Callable[[], int]:
        workload = mesa_loop_sum(200, config=config)
        return workload.run
    return stage


def _e2_bitblt(config: MachineConfig) -> Callable[[], Callable[[], int]]:
    """E2: the BitBlt inner loop (shift-and-merge at full tilt)."""
    def stage() -> Callable[[], int]:
        cpu = build_bitblt_machine(config)
        src = Bitmap(cpu.memory, 0x2000, 31, 32)
        dst = Bitmap(cpu.memory, 0x8000, 30, 32)
        src.load_pattern()
        dst.fill(0)

        def run() -> int:
            return run_bitblt(
                cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
                words_per_row=30, rows=32, src_pitch=31, dst_pitch=30, shift=5,
            )
        return run
    return stage


def display_band(
    config: MachineConfig, explicit_notify: bool = False, munches: int = 128
) -> Tuple[Processor, DisplayController]:
    """The display scenario: an idle emulator task, the display's
    fast-I/O microcode, and a band of *munches* patterned munches armed
    for refresh.  Run it with ``cpu.run_until(lambda m: display.done)``.
    """
    asm = Assembler(config)
    asm.emit(idle=True)
    display_fast_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    display = DisplayController(
        munch_interval_cycles=8, explicit_notify=explicit_notify
    )
    cpu.attach_device(display)
    for i in range(munches * MUNCH_WORDS):
        cpu.memory.debug_write(0x4000 + i, i & 0xFFFF)
    display.begin_band(cpu, 0x4000, munches)
    return cpu, display


def _e4_fast_io(config: MachineConfig) -> Callable[[], Callable[[], int]]:
    """E4: the display's fast-I/O munch service, tasking included."""
    def stage() -> Callable[[], int]:
        cpu, display = display_band(config)

        def run() -> int:
            cpu.run_until(lambda m: display.done, max_cycles=200_000)
            return cpu.counters.cycles
        return run
    return stage


SCENARIOS: Dict[str, Callable[[MachineConfig], Callable[[], Callable[[], int]]]] = {
    "E1_mesa_loop_sum": _e1_mesa_loop,
    "E2_bitblt_copy": _e2_bitblt,
    "E4_display_fast_io": _e4_fast_io,
}

def run_corebench(repeats: int = 3) -> Dict[str, dict]:
    """Measure every scenario under all three cycle implementations."""
    results: Dict[str, dict] = {}
    for name, make in SCENARIOS.items():
        rates = {
            tier: measure_staged_rate(make(MachineConfig(tier=tier)), repeats=repeats)
            for tier in TIERS
        }
        before, after, traced = rates["interp"], rates["plan"], rates["traced"]
        for tier in ("plan", "traced"):
            if rates[tier].cycles != before.cycles:
                raise AssertionError(
                    f"{name}: the {tier} tier changed the simulated cycle "
                    f"count ({before.cycles} != {rates[tier].cycles})"
                )
        results[name] = {
            "simulated_cycles": after.cycles,
            "before_cycles_per_second": round(before.cycles_per_second),
            "after_cycles_per_second": round(after.cycles_per_second),
            "traced_cycles_per_second": round(traced.cycles_per_second),
            "speedup": round(after.cycles_per_second / before.cycles_per_second, 2),
            "traced_speedup": round(
                traced.cycles_per_second / after.cycles_per_second, 2
            ),
        }
    return results


def run_warmstart_bench(repeats: int = 3) -> dict:
    """Reaching the E1 machine's end state: full run versus restore.

    A "cold" start assembles the Mesa emulator microcode, builds the
    machine, and simulates the workload to HALT; a "warm" start restores
    a :class:`~repro.state.MachineState` checkpoint of that end state
    into an existing machine, skipping the simulation entirely.  Every
    cold repeat must simulate the identical cycle count, and the
    restored machine must verify the workload's result -- the restore
    path's correctness receipt.  Wall times are best-of-*repeats*; only
    the cycle count is portable.
    """
    cold_best = float("inf")
    cold_cycles = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload = mesa_loop_sum(200)
        cycles = workload.run()
        cold_best = min(cold_best, time.perf_counter() - t0)
        if cold_cycles is not None and cycles != cold_cycles:
            raise AssertionError(
                f"cold runs disagree on the simulated cycle count "
                f"({cold_cycles} != {cycles})"
            )
        cold_cycles = cycles
    cpu = workload.cpu
    end_state = cpu.snapshot()

    warm_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        cpu.restore(end_state)
        warm_best = min(warm_best, time.perf_counter() - t0)
    if not workload.verify(workload.cpu):
        raise AssertionError("restored machine failed workload verification")
    return {
        "simulated_cycles": cold_cycles,
        "cold_seconds": round(cold_best, 6),
        "warm_restore_seconds": round(warm_best, 6),
        "warm_speedup": round(cold_best / warm_best, 2),
    }


#: Supervision (checkpoint snapshots + sanitizer sweeps) may cost at
#: most this factor in wall-clock over the bare run; ``main`` enforces
#: it when a ``--baseline`` carries a ``supervised_overhead`` section.
#: The supervised run keeps the compiled-trace tier: sweeps and
#: checkpoint snapshots (which walk only touched storage pages) cost
#: about equally, plus traces cut short at sweep boundaries.  The bound
#: is deliberately loose enough for CI noise but tight enough that an
#: accidentally-hot sanitizer (or per-cycle snapshots) fails.
SUPERVISED_OVERHEAD_LIMIT = 8.0


def run_supervised_bench(repeats: int = 3) -> dict:
    """The E1 workload, bare versus supervised: overhead with parity.

    The supervised run carries periodic checkpoints and machine-check
    sweeps but no faults, so it must simulate the *identical* cycle
    count (the supervisor's zero-perturbation guarantee) -- enforced
    here, making the row a correctness receipt as well as a price tag.
    The overhead factor is only reported here: a wall-clock ratio is
    noisy under load, so ``main`` gates it against
    ``SUPERVISED_OVERHEAD_LIMIT`` in the baseline comparison.
    """
    from ..supervise import Supervisor

    bare_best = float("inf")
    bare_cycles = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload = mesa_loop_sum(200)
        cycles = workload.run()
        bare_best = min(bare_best, time.perf_counter() - t0)
        if bare_cycles is not None and cycles != bare_cycles:
            raise AssertionError(
                f"bare runs disagree on the simulated cycle count "
                f"({bare_cycles} != {cycles})"
            )
        bare_cycles = cycles

    supervised_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload = mesa_loop_sum(200)
        supervisor = Supervisor(
            workload.cpu, checkpoint_interval=1500, check_interval=256
        )
        cycles = supervisor.run()
        supervised_best = min(supervised_best, time.perf_counter() - t0)
        if cycles != bare_cycles:
            raise AssertionError(
                f"supervision perturbed the simulated cycle count "
                f"({bare_cycles} != {cycles})"
            )
        if not workload.verify(workload.cpu):
            raise AssertionError("supervised run failed workload verification")
    overhead = supervised_best / bare_best
    return {
        "simulated_cycles": bare_cycles,
        "bare_seconds": round(bare_best, 6),
        "supervised_seconds": round(supervised_best, 6),
        "overhead_factor": round(overhead, 2),
        "overhead_limit": SUPERVISED_OVERHEAD_LIMIT,
    }


def compare_to_baseline(
    results: Dict[str, dict], baseline: Dict[str, dict], tolerance: float = 0.35
) -> List[str]:
    """Differences that matter between a fresh run and a baseline file.

    Returns human-readable problem strings (empty = clean): a missing
    scenario, a simulated-cycle mismatch (a correctness change, never
    acceptable), or a plan or traced speedup below
    ``base * (1 - tolerance)`` (a perf regression beyond timing noise).
    A baseline row lacking a speedup column is a problem too: there is
    one baseline format.  Absolute cycles-per-second are deliberately
    not compared -- they differ per host.
    """
    problems: List[str] = []
    for name, base in baseline.items():
        row = results.get(name)
        if row is None:
            problems.append(f"{name}: scenario missing from this run")
            continue
        if row["simulated_cycles"] != base["simulated_cycles"]:
            problems.append(
                f"{name}: simulated cycles changed "
                f"({base['simulated_cycles']} -> {row['simulated_cycles']})"
            )
        for column in ("speedup", "traced_speedup"):
            if column not in base:
                problems.append(f"{name}: baseline lacks the {column} column")
                continue
            floor = base[column] * (1.0 - tolerance)
            if row[column] < floor:
                problems.append(
                    f"{name}: {column} regressed ({base[column]}x -> "
                    f"{row[column]}x, floor {floor:.2f}x)"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_core.json",
                        help="where to write the JSON report")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing runs per scenario (best one wins)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against a previous BENCH_core.json; "
                             "exit nonzero on cycle mismatch or speedup regression")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="fractional speedup regression allowed vs --baseline")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    baseline = baseline_warm = baseline_supervised = None
    if args.baseline is not None:
        try:
            with open(args.baseline) as f:
                doc = json.load(f)
            baseline = doc["workloads"]
            baseline_warm = doc.get("warm_start")
            baseline_supervised = doc.get("supervised_overhead")
        except (OSError, KeyError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
    try:
        output = open(args.output, "w")
    except OSError as exc:
        parser.error(f"cannot write {args.output}: {exc}")

    results = run_corebench(repeats=args.repeats)
    warm = run_warmstart_bench(repeats=args.repeats)
    supervised = run_supervised_bench(repeats=args.repeats)
    report = {
        "benchmark": "core simulator cycle rate across the three "
                     "execution tiers (interp, plan, traced)",
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "workloads": results,
        "warm_start": warm,
        "supervised_overhead": supervised,
    }
    with output as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    width = max(len(n) for n in results) + 2
    print(
        f"{'workload':<{width}}{'interp c/s':>12}{'plan c/s':>12}"
        f"{'traced c/s':>12}{'plan x':>8}{'traced x':>9}"
    )
    for name, row in results.items():
        print(
            f"{name:<{width}}{row['before_cycles_per_second']:>12}"
            f"{row['after_cycles_per_second']:>12}"
            f"{row['traced_cycles_per_second']:>12}"
            f"{row['speedup']:>7.2f}x{row['traced_speedup']:>8.2f}x"
        )
    print(
        f"warm start: cold build+run {warm['cold_seconds']*1e3:.1f} ms, "
        f"restore {warm['warm_restore_seconds']*1e3:.1f} ms "
        f"({warm['warm_speedup']:.2f}x)"
    )
    print(
        f"supervision: bare {supervised['bare_seconds']*1e3:.1f} ms, "
        f"supervised {supervised['supervised_seconds']*1e3:.1f} ms "
        f"({supervised['overhead_factor']:.2f}x of "
        f"{supervised['overhead_limit']:.1f}x budget)"
    )
    print(f"wrote {args.output}")
    if baseline is not None:
        problems = compare_to_baseline(results, baseline, tolerance=args.tolerance)
        for section, base_row, row in (
            ("warm_start", baseline_warm, warm),
            ("supervised_overhead", baseline_supervised, supervised),
        ):
            if base_row is None:
                problems.append(f"{section}: missing from {args.baseline}")
            elif row["simulated_cycles"] != base_row.get("simulated_cycles"):
                problems.append(
                    f"{section}: simulated cycles changed "
                    f"({base_row.get('simulated_cycles')} -> "
                    f"{row['simulated_cycles']})"
                )
        if supervised["overhead_factor"] > SUPERVISED_OVERHEAD_LIMIT:
            problems.append(
                f"supervised_overhead: {supervised['overhead_factor']:.2f}x "
                f"exceeds the {SUPERVISED_OVERHEAD_LIMIT}x budget"
            )
        if problems:
            for p in problems:
                print(f"BASELINE MISMATCH: {p}")
            return 1
        print(f"baseline {args.baseline}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
