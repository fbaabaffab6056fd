"""The layered benchmark of the Dorado simulator and its session fleet.

    python3 perfbench/run.py --workload core_run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Runs one workload (core_run,
fleet_churn or fleet_resident) in this process, checks every session it
completes against the serial reference pinned in ``reference.json``,
and prints as its last line one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1
when any output is wrong and 2 when the checkout holds no simulator
sources.  README.md documents the workloads and the metric -> layer ->
workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from load import DEFAULT_SEED, PROFILES, ROTATION, SIZE_ARG, Profile, stream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where runs keep their scratch spool directories and span dumps.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Cold set-ups timed per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: Repeats per layer probe in the traced run (after one warm-up call).
PROBE_REPEATS = 5


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def setup(profile: Profile, tiny: bool, spool_dir: str,
          repeats: int) -> Tuple[float, Any]:
    """Median seconds, at the reference pace, of *repeats* cold set-ups;
    returns the last fleet.

    A set-up is the boot-cache prewarm of every size the profile can
    draw, plus spawning the fleet's workers when it has any.
    """
    from drivers import paced_s
    from repro.service.fleet import Fleet
    from repro.service.session import booted_workload, clear_boot_cache

    specs = [(w, {SIZE_ARG[w]: size}) for w in ROTATION
             for size in profile.sizes(w, tiny)]
    samples: List[float] = []
    fleets: List[Any] = []

    def set_up() -> None:
        if profile.workers:
            fleets.append(Fleet(
                workers=profile.workers, capacity=profile.capacity,
                spool_dir=spool_dir,
                prewarm=[(w, args, None) for w, args in specs],
                checkpoint_interval=profile.checkpoint_interval,
                max_retries=profile.max_retries,
                checkpoint_every=profile.checkpoint_every,
            ))
        else:
            for w, args in specs:
                booted_workload(w, tuple(sorted(args.items())))

    for _ in range(repeats):
        while fleets:
            fleets.pop().close()
        clear_boot_cache()
        gc.collect()
        samples.append(paced_s(set_up))
    return statistics.median(samples), (fleets[0] if fleets else None)


def peak_rss_mb() -> float:
    """Peak resident MiB of this process plus its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def measure(profile: Profile, seed: int, seconds: float, tiny: bool,
            reference, work_dir: str):
    """The untraced run: end-to-end metrics over a timed window."""
    from drivers import REFERENCE_S, Tally, run_core, run_fleet
    from spans import Tracer, tail

    setup_s, fleet = setup(profile, tiny, work_dir, SETUP_REPEATS)
    tally = Tally(warmup=profile.warmup, seconds=seconds, pace=True)
    started = time.perf_counter()
    try:
        entries = stream(profile, seed, tiny)
        if fleet is None:
            run_core(profile, entries, reference, tally, Tracer())
        else:
            run_fleet(fleet, profile, entries, reference, tally, Tracer())
    finally:
        if fleet is not None:
            fleet.close()
    wall = time.perf_counter() - started
    paced = tally.paced()
    sim = [(s, r[2]) for s, r in zip(paced, tally.requests) if r[2]]
    cycles = sum(c for _, c in sim)
    slices = [paced[i] for i in tally.slices]
    pct, tail_s = tail(slices)
    # A window without one correct session reports 0 (and fails).
    turnaround = [sum(paced[a:b]) for a, b in tally.sessions] or [0.0]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "cycles_per_s": _metric(cycles / sum(s for s, _ in sim), "cycles/s"),
        "sessions_per_s": _metric(
            tally.completed / sum(paced[:tally.done_upto]), "1/s"),
        "turnaround_p50_s": _metric(statistics.median(turnaround), "s"),
        "slice_p50_ms": _metric(statistics.median(slices) * 1e3, "ms"),
        "success_frac": _metric(1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MiB"),
    }
    timed = [tally.requests[i][0] for i in tally.slices]
    references = [r[1] for r in tally.requests]
    print(f"{profile.name} seed {seed}: {tally.completed} sessions, "
          f"{len(tally.requests)} requests in a {tally.window_s:.2f} s window "
          f"after warm-up; {wall:.2f} s wall")
    print(f"parity: {cycles} simulated cycles in the window; all sessions "
          f"{tally.counts['cycles']} cycles in {wall:.2f} s")
    # Not a metric: a tail this far out moves with the host's other
    # tenants more than the bound allows (README.md).
    print(f"slice tail: p{pct} {tail_s * 1e3:.3f} ms of {len(slices)} "
          f"slice requests")
    print(f"as timed, before pacing: slice p50 "
          f"{statistics.median(timed) * 1e3:.3f} ms; reference loop "
          f"p50 {statistics.median(references) * 1e3:.3f} ms "
          f"(pace {REFERENCE_S * 1e3:.1f} ms), "
          f"min {min(references) * 1e3:.3f}, max {max(references) * 1e3:.3f}")
    return tally, metrics


def trace(profile: Profile, seed: int, tiny: bool, reference,
          work_dir: str):
    """The traced run: one pass untraced, the same pass traced, probes."""
    from drivers import Tally, run_core, run_fleet, serve_inline, traced_spool
    from probes import probe_fleet, probe_layers
    from spans import SHARES, SUM_TOLERANCE, Tracer, layer_seconds, shares

    tracer = Tracer()
    _, fleet = setup(profile, tiny, work_dir, 1)
    repeats = 1 if tiny else PROBE_REPEATS

    def one_pass() -> Tuple[Any, float]:
        tally = Tally()
        entries = itertools.islice(stream(profile, seed, tiny),
                                   profile.trace_entries)
        start = time.perf_counter()
        with tracer.span("pass"):
            if fleet is None:
                run_core(profile, entries, reference, tally, tracer)
            else:
                run_fleet(fleet, profile, entries, reference, tally, tracer)
        return tally, time.perf_counter() - start

    counts: Dict[str, int] = {}
    try:
        with contextlib.ExitStack() as stack:
            if fleet is not None:
                serve_inline(fleet, tracer)
                stack.enter_context(traced_spool(tracer))
            warm, _ = one_pass()
            plain, untraced_s = one_pass()
            before = dict(fleet.counters) if fleet is not None else {}
            tracer.enabled = True
            traced, traced_s = one_pass()
            tracer.enabled = False
            if fleet is not None:
                counts = {k: fleet.counters[k] - before[k] for k in before}
    finally:
        if fleet is not None:
            fleet.close()

    layers = probe_layers(profile, work_dir, repeats)
    layers.update(probe_fleet(profile, work_dir, repeats))

    spans = tracer.spans
    requests = sum(1 for s in spans if s["name"].startswith("host."))
    ipc_s = layers["fleet.ipc_rtt_ms"] / 1e3 * requests
    share, gap = shares(spans, traced_s, ipc_s)
    cycles = traced.counts["cycles"]
    sim_ns = layer_seconds(spans)["sim"] * 1e9

    metrics = {
        "core.host_ns_per_cycle": _metric(sim_ns / cycles, "ns/cycle"),
        "core.cycles": _metric(cycles, "cycles"),
        "core.instructions_per_cycle": _metric(
            traced.counts["instructions"] / cycles, "ratio"),
        "core.hold_share": _metric(
            traced.counts["held_cycles"] / cycles, "ratio"),
    }
    units = {"bytes": "bytes", "overhead": "ratio"}
    for name, value in layers.items():
        unit = next((u for k, u in units.items() if name.endswith(k)), "ms")
        metrics[name] = _metric(value, unit)
    metrics["supervise.rollbacks"] = _metric(traced.counts["rollbacks"], "count")
    metrics["supervise.replays"] = _metric(traced.counts["replays"], "count")
    for name in ("evictions", "resumes", "migrations", "checkpoints",
                 "retries", "worker_crashes"):
        metrics[f"fleet.{name}"] = _metric(counts.get(name, 0), "count")
    for name in SHARES:
        metrics[f"share.{name}"] = _metric(share[name], "share")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{profile.name}-seed{seed}.json")
    tracer.write(span_path)

    tallies = (warm, plain, traced)
    summary = Tally()
    summary.attempted = sum(t.attempted for t in tallies)
    summary.failed = sum(t.failed for t in tallies)
    summary.errors = [e for t in tallies for e in t.errors]
    if gap > SUM_TOLERANCE:
        summary.fail("share", f"layer self-times miss the traced wall "
                              f"total by {gap:.2%} (> {SUM_TOLERANCE:.0%})")
    print(f"{profile.name} seed {seed}: traced pass of "
          f"{profile.trace_entries} sessions, {len(spans)} spans in {span_path}")
    print(f"parity: {cycles} simulated cycles in {traced_s:.3f} s traced, "
          f"{plain.counts['cycles']} in {untraced_s:.3f} s untraced")
    print(f"tracing overhead: {traced_s - untraced_s:+.3f} s "
          f"(traced total minus untraced total)")
    print(f"layer self-times sum to the traced wall within {gap:.3%} "
          f"(tolerance {SUM_TOLERANCE:.0%}); IPC estimated as "
          f"{requests} requests x {layers['fleet.ipc_rtt_ms']:.3f} ms")
    return summary, metrics


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed window (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (selftest.py)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {src}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)["specs"]
    profile = PROFILES[args.workload]
    work_dir = os.path.join(OUT_DIR, f"{profile.name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            tally, metrics = trace(profile, args.seed, args.tiny, reference,
                                   work_dir)
        else:
            tally, metrics = measure(profile, args.seed, args.seconds,
                                     args.tiny, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    for error in tally.errors:
        print(f"WRONG: {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
