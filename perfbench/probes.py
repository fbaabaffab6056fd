"""Direct timings of single layers, taken by the traced run.

Each probe times public calls on one representative session -- the E1
loop, ``mesa_loop_sum``, long enough never to halt while probed.  Every
timing makes one warm-up call first, collects garbage before and
disables the collector during each timed call, and reports the median
of the repeats.  That is also how the admission probes time cold and
warm builds, which BENCH_service's one-shot ``cold_over_warm_fork``
reading did not.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from typing import Callable, Dict, Iterable, Optional

from repro.service.fleet import Fleet
from repro.service.frontend import Frontend
from repro.service.session import Session, arch_hash, clear_boot_cache
from repro.service.spool import spool_read, spool_write
from repro.state import canonical_json, parse_canonical_json

PROBE_WORKLOAD = "mesa_loop_sum"
PROBE_ARGS = {"n": 30000}

#: Cycles per frontend-overhead request: small, so that simulation time
#: stays well below the overhead being measured.
FRONTEND_CYCLES = 200


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_ms(fn: Callable[[], object], repeats: int,
             setup: Optional[Callable[[], object]] = None) -> float:
    """Median ms of *repeats* calls after one warm-up call."""
    samples = []
    for index in range(repeats + 1):
        if setup is not None:
            setup()
        elapsed = _timed(fn)
        if index:
            samples.append(elapsed)
    return statistics.median(samples) * 1e3


def _each_ms(fn: Callable[[str], object], names: Iterable[str]) -> float:
    """Median ms of fn(name) over *names*, the first call a warm-up."""
    samples = [_timed(lambda: fn(name)) for name in names]
    return statistics.median(samples[1:]) * 1e3


def probe_layers(profile, work_dir: str, repeats: int) -> Dict[str, float]:
    """The session, state, spool and supervise layers, one call at a time."""
    def build():
        return Session.build(PROBE_WORKLOAD, args=PROBE_ARGS)

    out: Dict[str, float] = {}
    out["session.build_cold_ms"] = timed_ms(build, repeats,
                                            setup=clear_boot_cache)
    out["session.build_warm_ms"] = timed_ms(build, repeats)
    session = Session.build(PROBE_WORKLOAD, name="probe", args=PROBE_ARGS)
    out["session.slice_ms"] = timed_ms(
        lambda: session.run_slice(profile.slice_cycles), repeats)
    envelope = session.suspend()
    out["session.suspend_ms"] = timed_ms(session.suspend, repeats)
    out["session.resume_ms"] = timed_ms(lambda: Session.resume(envelope),
                                        repeats)
    out["session.result_ms"] = timed_ms(session.result, repeats)
    out["session.envelope_bytes"] = len(envelope.encode())

    cpu = session.cpu
    state = cpu.snapshot()
    text = canonical_json(state.data)
    out["state.snapshot_ms"] = timed_ms(cpu.snapshot, repeats)
    out["state.restore_ms"] = timed_ms(lambda: cpu.restore(state), repeats)
    out["state.fork_ms"] = timed_ms(cpu.fork, repeats)
    out["state.encode_ms"] = timed_ms(lambda: canonical_json(state.data),
                                      repeats)
    out["state.decode_ms"] = timed_ms(lambda: parse_canonical_json(text),
                                      repeats)
    out["state.arch_hash_ms"] = timed_ms(lambda: arch_hash(cpu), repeats)

    path = os.path.join(work_dir, "probe.spool")
    out["spool.write_ms"] = timed_ms(lambda: spool_write(path, envelope),
                                     repeats)
    out["spool.read_ms"] = timed_ms(lambda: spool_read(path), repeats)
    out["spool.bytes"] = os.path.getsize(path)

    out["supervise.slice_overhead"] = _supervise_overhead(profile, repeats)
    return out


def _supervise_overhead(profile, repeats: int) -> float:
    """Supervised over bare ``run_slice`` time at equal simulated cycles."""
    bare = Session.build(PROBE_WORKLOAD, name="bare", args=PROBE_ARGS,
                         supervise=False,
                         checkpoint_interval=profile.checkpoint_interval)
    watched = Session.build(PROBE_WORKLOAD, name="watched", args=PROBE_ARGS,
                            supervise=True,
                            checkpoint_interval=profile.checkpoint_interval)
    plain, supervised = [], []
    for index in range(repeats + 1):
        bare_s = _timed(lambda: bare.run_slice(profile.slice_cycles))
        watched_s = _timed(lambda: watched.run_slice(profile.slice_cycles))
        if bare.cpu.counters.cycles != watched.cpu.counters.cycles:
            raise RuntimeError(
                f"supervision changed the simulated cycles "
                f"({bare.cpu.counters.cycles} != {watched.cpu.counters.cycles})"
            )
        if index:
            plain.append(bare_s)
            supervised.append(watched_s)
    return statistics.median(supervised) / statistics.median(plain)


def probe_fleet(profile, work_dir: str, repeats: int) -> Dict[str, float]:
    """Per-request latency on a one-worker fleet, IPC and frontend included."""
    names = [f"probe{index}" for index in range(repeats + 1)]
    out: Dict[str, float] = {}
    with Fleet(workers=1, capacity=len(names), spool_dir=work_dir,
               prewarm=[(PROBE_WORKLOAD, PROBE_ARGS, None)],
               checkpoint_every=0) as fleet:
        host = fleet.hosts[0]
        out["fleet.ipc_rtt_ms"] = timed_ms(
            lambda: host.call({"op": "stats"}), 4 * repeats)
        out["fleet.open_ms"] = _each_ms(
            lambda name: fleet.open_session(name, PROBE_WORKLOAD,
                                            args=PROBE_ARGS),
            names)
        out["fleet.round_ms"] = timed_ms(
            lambda: fleet.run_round(names, profile.slice_cycles), repeats)
        out["frontend.request_overhead_ms"] = _frontend_overhead(
            fleet, names[0], 4 * repeats)
        out["fleet.result_ms"] = _each_ms(fleet.result, names)
        out["fleet.close_ms"] = _each_ms(fleet.close_session, names)
    return out


def _frontend_overhead(fleet, name: str, repeats: int) -> float:
    """``Frontend.handle({"op": "run"})`` minus the same ``Fleet.run_slice``."""
    async def measure() -> float:
        frontend = Frontend(fleet)
        # handle() serializes fleet calls on the lock serve() would
        # create; creating it here keeps the probe off the network.
        frontend._lock = asyncio.Lock()
        request = {"op": "run", "name": name, "cycles": FRONTEND_CYCLES}
        via, direct = [], []
        for index in range(repeats + 1):
            gc.collect()
            start = time.perf_counter()
            reply = await frontend.handle(request)
            middle = time.perf_counter()
            fleet.run_slice(name, FRONTEND_CYCLES)
            end = time.perf_counter()
            if not reply.get("ok"):
                raise RuntimeError(f"frontend refused a run request: {reply}")
            if index:
                via.append(middle - start)
                direct.append(end - middle)
        return (statistics.median(via) - statistics.median(direct)) * 1e3

    return asyncio.run(measure())
