"""The deterministic load test: the fleet's byte-identity gate.

``python -m repro.service loadtest`` replays a *scripted* request
stream -- N named sessions in a fixed workload rotation, every third
one armed with a seeded fault plan and supervised -- through the fleet,
slicing every live session each round until it halts (or fails, or
exhausts the cycle budget).  A capacity far below the session count
forces continual LRU eviction to checkpoint files and warm-restores
onto round-robin workers, i.e. migrations, mid-run.

The artifact records only simulated quantities (per-session results
keyed by name, plus the script parameters); worker count, capacity,
eviction and migration tallies go to stderr.  CI runs the same script
serially and at 1/2/4 workers and ``cmp``s the artifacts byte for byte
-- the "your session doesn't care where it ran" proof.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import DoradoError
from ..fault.plan import derive_seed
from ..state import canonical_json
from .fleet import Fleet
from .session import Session

#: The scripted workload rotation: one per emulator family plus the
#: hardware-multiply kernel, all fast enough to run by the dozen.
ROTATION = (
    "mesa_loop_sum",
    "lisp_list_sum",
    "bcpl_loop_sum",
    "smalltalk_counter",
    "mesa_mul_kernel",
)

#: FaultConfig field template for the scripted faulted sessions (the
#: demo recoverable plan: one ECC double-bit error plus one spurious
#: map fault, early in the run).  Each faulted session gets its own
#: derived seed.
FAULT_TEMPLATE = {
    "storage_uncorrectable": 1,
    "map_faults": 1,
    "first_cycle": 0,
    "last_cycle": 2200,
}


def build_script(
    sessions: int = 60, *, seed: int = 17, fault_every: int = 3
) -> List[Dict[str, Any]]:
    """The scripted request stream: deterministic, parameterized, mixed."""
    script: List[Dict[str, Any]] = []
    for index in range(sessions):
        name = f"s{index:04d}"
        fault = None
        if fault_every and index % fault_every == fault_every - 1:
            fault = dict(FAULT_TEMPLATE, seed=derive_seed(seed, name))
        script.append({
            "name": name,
            "workload": ROTATION[index % len(ROTATION)],
            "args": {},
            "fault": fault,
        })
    return script


def _slice_schedule(max_cycles: int, slice_cycles: int) -> int:
    """Rounds granted: every session gets whole slices until the budget."""
    return -(-max_cycles // slice_cycles)  # ceil


def _run_serial(
    script: List[Dict[str, Any]],
    *,
    slice_cycles: int,
    max_cycles: int,
    checkpoint_interval: int,
    max_retries: int,
) -> Dict[str, Dict[str, Any]]:
    """Ground truth: plain sessions, same whole-slice schedule, no fleet."""
    rounds = _slice_schedule(max_cycles, slice_cycles)
    results: Dict[str, Dict[str, Any]] = {}
    for entry in script:
        session = Session.build(
            entry["workload"],
            name=entry["name"],
            args=entry["args"],
            fault=entry["fault"],
            checkpoint_interval=checkpoint_interval,
            max_retries=max_retries,
        )
        for _ in range(rounds):
            if session.status != "running":
                break
            try:
                session.run_slice(slice_cycles)
            except DoradoError:
                break
        results[entry["name"]] = session.result()
    return results


def _run_fleet(
    script: List[Dict[str, Any]],
    *,
    workers: int,
    capacity: int,
    slice_cycles: int,
    max_cycles: int,
    checkpoint_interval: int,
    max_retries: int,
    spool_dir: Optional[str] = None,
    chaos: Optional[Dict[str, Any]] = None,
    checkpoint_every: int = 8,
    max_respawns: int = 2,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The same script through a fleet; returns (results, fleet stats)."""
    rounds = _slice_schedule(max_cycles, slice_cycles)
    prewarm = [(workload, {}, None) for workload in ROTATION]
    results: Dict[str, Dict[str, Any]] = {}
    with Fleet(
        workers=workers,
        capacity=capacity,
        spool_dir=spool_dir,
        prewarm=prewarm,
        checkpoint_interval=checkpoint_interval,
        max_retries=max_retries,
        chaos=chaos,
        checkpoint_every=checkpoint_every,
        max_respawns=max_respawns,
    ) as fleet:
        for entry in script:
            fleet.open_session(
                entry["name"], entry["workload"],
                args=entry["args"], fault=entry["fault"],
            )
        active = [entry["name"] for entry in script]
        for _ in range(rounds):
            if not active:
                break
            replies = fleet.run_round(active, slice_cycles)
            still_running = []
            for name in active:
                if replies[name]["status"] == "running":
                    still_running.append(name)
                else:
                    results[name] = fleet.result(name)
                    fleet.close_session(name)
            active = still_running
        for name in active:  # budget exhausted with work remaining
            results[name] = fleet.result(name)
            fleet.close_session(name)
        stats = fleet.stats()
    return results, stats


def run_loadtest(
    *,
    sessions: int = 60,
    workers: int = 1,
    capacity: int = 12,
    slice_cycles: int = 1200,
    max_cycles: int = 240_000,
    seed: int = 17,
    fault_every: int = 3,
    checkpoint_interval: int = 600,
    max_retries: int = 4,
    serial: bool = False,
    spool_dir: Optional[str] = None,
    chaos: Optional[Dict[str, Any]] = None,
    checkpoint_every: int = 8,
    max_respawns: int = 2,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the scripted stream; return (artifact, execution stats).

    The artifact is a pure function of the script parameters -- serial
    or fleet, 1 worker or 16, evictions or not, it is byte-identical.
    ``chaos`` arms a seeded :class:`~repro.service.chaos.
    ServiceFaultConfig` storm; recovery keeps it out of the artifact
    (chaos parameters and counters live in the stats, which go to
    stderr), so a chaos run still ``cmp``s clean against the serial
    ground truth -- that comparison *is* the recovery proof.
    """
    script = build_script(sessions, seed=seed, fault_every=fault_every)
    if serial:
        results = _run_serial(
            script,
            slice_cycles=slice_cycles,
            max_cycles=max_cycles,
            checkpoint_interval=checkpoint_interval,
            max_retries=max_retries,
        )
        stats = {"mode": "serial"}
    else:
        results, fleet_stats = _run_fleet(
            script,
            workers=workers,
            capacity=capacity,
            slice_cycles=slice_cycles,
            max_cycles=max_cycles,
            checkpoint_interval=checkpoint_interval,
            max_retries=max_retries,
            spool_dir=spool_dir,
            chaos=chaos,
            checkpoint_every=checkpoint_every,
            max_respawns=max_respawns,
        )
        stats = {"mode": "fleet", **fleet_stats}
    artifact = {
        "format": 1,
        "loadtest": {
            "sessions": sessions,
            "seed": seed,
            "fault_every": fault_every,
            "rotation": list(ROTATION),
            "fault_template": dict(FAULT_TEMPLATE),
            "slice_cycles": slice_cycles,
            "max_cycles": max_cycles,
            "checkpoint_interval": checkpoint_interval,
            "max_retries": max_retries,
        },
        "results": results,
    }
    return artifact, stats


def loadtest_json(artifact: Dict[str, Any]) -> str:
    """The canonical serialization CI compares byte-for-byte."""
    return canonical_json(artifact) + "\n"


def summarize(artifact: Dict[str, Any]) -> Dict[str, int]:
    """Headline counts for the stderr report."""
    results = artifact["results"].values()
    return {
        "sessions": len(artifact["results"]),
        "halted": sum(1 for r in results if r["halted"]),
        "verified": sum(1 for r in results if r["verified"]),
        "faulted": sum(1 for r in results if r["faulted"]),
        "recovered": sum(1 for r in results if r["recovered"]),
        "failed": sum(1 for r in results if r["status"] == "failed"),
        "total_cycles": sum(r["meter"]["cycles"] for r in results),
    }
