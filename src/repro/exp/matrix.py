"""The experiment matrix: cartesian product, fan-out, measurement.

An :class:`ExperimentMatrix` owns a list of :class:`~repro.exp.scenario.
ScenarioSpec` cells -- usually the cartesian product of gold workloads
x config variants x fault plans (:meth:`ExperimentMatrix.cartesian`),
with incompatible pairs (unpadded emulator microcode on the bypass-less
Model 0) excluded explicitly, never silently: the exclusions are part
of the matrix identity and the artifact.

Running the matrix fans cells out across worker processes.  Cell
execution is a thin client of the session service
(:mod:`repro.service.session`), which owns the per-process *boot
cache*: the first cell needing a (workload, args, config) machine
builds and boots it once, and every later run of that pair starts from
a :meth:`~repro.core.processor.Processor.fork` of the pristine boot --
a shared-snapshot seeded fork, so microcode assembly is paid once per
worker, not once per cell.  A cell that raises is recorded as a
*failed cell* in the result, never a hung or aborted matrix.

Measurements are exclusively simulated quantities (cycles, counters,
architectural-state hashes) -- no wall clock, no host names -- so a
rerun of the same matrix with the same seed assembles a byte-identical
result artifact regardless of worker count or scheduling.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.counters import HOLD_CAUSE_NAMES
from ..errors import DoradoError
from ..fault.plan import FaultConfig, derive_seed
from ..perf.workloads import ALL_WORKLOADS, Workload
from ..service.session import Session, arch_hash, clear_boot_cache
from ..workers import can_fork, map_unordered
from .configs import tier_configs, variant
from .kernels import bypass_kernel, bypass_kernel_padded
from .scenario import ScenarioSpec

__all__ = [
    "CLUSTER_WORKLOAD",
    "ExperimentMatrix",
    "WORKLOAD_DEFS",
    "WorkloadDef",
    "clear_boot_cache",  # re-export: the cache moved to repro.service
    "derive_seed",  # re-export: the derivation moved to repro.fault.plan
    "execute_cell",
]


# --------------------------------------------------------------------------
# the workload registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadDef:
    """A gold workload the matrix can schedule.

    ``model0_safe`` declares that the workload's microcode pads every
    dependent use-after-write and therefore runs correctly without
    bypass paths; the emulator workloads are written in the Model 1
    idiom and are not.
    """

    name: str
    build: Callable[..., Workload]
    model0_safe: bool = False


WORKLOAD_DEFS: Dict[str, WorkloadDef] = {
    **{
        name: WorkloadDef(name, factory, model0_safe=False)
        for name, factory in ALL_WORKLOADS.items()
    },
    "bypass_kernel": WorkloadDef("bypass_kernel", bypass_kernel,
                                 model0_safe=False),
    "bypass_kernel_padded": WorkloadDef(
        "bypass_kernel_padded", bypass_kernel_padded, model0_safe=True
    ),
}


# --------------------------------------------------------------------------
# cell execution (sessions over the service's shared boot cache)
# --------------------------------------------------------------------------

def _counter_metrics(counters) -> Dict[str, Any]:
    """The deterministic counter-derived metrics a cell records."""
    return {
        "instructions": counters.instructions,
        "held_cycles": counters.held_cycles,
        "hold_causes": dict(zip(HOLD_CAUSE_NAMES, counters.hold_causes)),
        "cache_hits": counters.cache_hits,
        "cache_misses": counters.cache_misses,
        "task_switches": counters.task_switches,
    }


def _execute_clean(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run the cell under all three execution tiers; record each."""
    base = variant(spec.variant).config
    tiers: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    for tier, config in tier_configs(base).items():
        session = Session.build(
            spec.workload, args=dict(spec.args), config=config,
            supervise=False,
        )
        cycles = session.run(max_cycles=spec.max_cycles)
        tiers[tier] = {
            "cycles": cycles,
            "arch_hash": session.arch_hash(),
        }
        if tier == "traced":
            metrics = _counter_metrics(session.cpu.counters)
    return {"kind": "clean", "tiers": tiers, "metrics": metrics,
            "cycles": tiers["traced"]["cycles"],
            "arch_hash": tiers["traced"]["arch_hash"]}


def _execute_faulted(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run the seeded fault plan under the recovery supervisor.

    An unrecovered run (supervisor retry exhaustion, livelock, wrong
    answer) is a *measurement* -- ``recovered: false`` with the failure
    recorded -- not a failed cell: Monte-Carlo campaigns count these.
    """
    base = variant(spec.variant).config
    config = dataclasses.replace(base, fault_injection=spec.fault_config())
    session = Session.build(
        spec.workload, args=dict(spec.args), config=config,
        supervise=True,
        checkpoint_interval=spec.checkpoint_interval,
        max_retries=spec.max_retries,
    )
    cpu = session.cpu
    failure: Optional[str] = None
    try:
        session.run_slice(spec.max_cycles)
        if not cpu.halted:
            failure = f"did not halt within {spec.max_cycles} cycles"
        elif not session.verify():
            failure = "halted but failed verification"
    except DoradoError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    counters = cpu.counters
    return {
        "kind": "faulted",
        "recovered": failure is None,
        "failure": failure,
        "cycles": counters.cycles,
        "arch_hash": arch_hash(cpu),
        "faults_injected": counters.faults_injected,
        "ecc_uncorrected": counters.ecc_uncorrected,
        "recovery": {
            "checks_failed": counters.checks_failed,
            "rollbacks": counters.rollbacks,
            "replays": counters.replays,
            "degrades": counters.degrades,
        },
        "metrics": _counter_metrics(counters),
    }


#: The cluster demo workload: not in WORKLOAD_DEFS because a cluster
#: cell measures N machines plus a fabric, not one Workload object.
CLUSTER_WORKLOAD = "cluster_ring"


def _execute_cluster(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run a relay-ring cluster cell: N nodes, optional per-node faults.

    A faulted cluster cell arms *every* node with its own fault plan,
    each seeded from the cell seed and the node index -- so the sweep
    exercises N distinct deterministic fault streams at once.  The
    recorded ``cluster_hash`` covers the canonical cluster snapshot
    (all machines, programs, and the fabric), which is what makes the
    cell a replay check: same seed, same hash.
    """
    from ..cluster import build_ring_cluster, ring_epoch_budget

    args = dict(spec.args)
    nodes = args.get("nodes", 3)
    laps = args.get("laps", 2)
    payload_words = args.get("payload_words", 16)
    fault_plans = None
    if spec.is_faulted:
        template = dict(spec.fault)
        fault_plans = {
            index: FaultConfig(
                seed=derive_seed(spec.seed, "node", index), **template
            )
            for index in range(nodes)
        }
    cluster = build_ring_cluster(
        nodes,
        laps=laps,
        payload_words=payload_words,
        seed=spec.seed or 11,
        config=variant(spec.variant).config,
        fault_plans=fault_plans,
    )
    epochs = cluster.run(max_epochs=ring_epoch_budget(nodes, laps))
    report = cluster.report()
    origin = cluster.nodes[0].program
    metrics: Dict[str, Any] = {
        "instructions": 0,
        "held_cycles": 0,
        "hold_causes": {name: 0 for name in HOLD_CAUSE_NAMES},
        "cache_hits": 0,
        "cache_misses": 0,
        "task_switches": 0,
    }
    for node in cluster.nodes:
        node_metrics = _counter_metrics(node.cpu.counters)
        for key, value in node_metrics.items():
            if key == "hold_causes":
                for cause, count in value.items():
                    metrics["hold_causes"][cause] += count
            else:
                metrics[key] += value
    cluster_hash = hashlib.sha256(
        cluster.snapshot().to_json().encode()
    ).hexdigest()[:16]
    return {
        "kind": "cluster",
        "nodes": nodes,
        "laps": laps,
        "epochs": epochs,
        "done": bool(origin.done),
        "verified": bool(origin.done and origin.verified),
        "failures": list(origin.failures),
        "cycles": report["total_cycles"],
        "cluster_hash": cluster_hash,
        "packets_delivered": report["fabric"]["packets_delivered"],
        "faults_injected": sum(
            node.cpu.counters.faults_injected for node in cluster.nodes
        ),
        "metrics": metrics,
    }


def execute_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Measure one cell (raises on broken specs; see ``_cell_row``)."""
    if spec.workload == CLUSTER_WORKLOAD:
        return _execute_cluster(spec)
    if spec.workload not in WORKLOAD_DEFS:
        known = ", ".join(sorted(WORKLOAD_DEFS))
        raise KeyError(f"unknown workload {spec.workload!r} (known: {known})")
    if spec.is_faulted:
        return _execute_faulted(spec)
    return _execute_clean(spec)


def _cell_row(spec: ScenarioSpec) -> Dict[str, Any]:
    """One cell's artifact row: a cell that raises is a failed row."""
    row: Dict[str, Any] = {"cell": spec.cell_id, "spec": spec.to_dict()}
    try:
        row["measurements"] = execute_cell(spec)
        row["status"] = "ok"
        row["error"] = None
    except Exception as exc:  # a failed cell, not a failed matrix
        row["measurements"] = None
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


# --------------------------------------------------------------------------
# the matrix
# --------------------------------------------------------------------------

class ExperimentMatrix:
    """A named, seeded, hash-identified set of scenario cells."""

    def __init__(
        self,
        name: str,
        cells: Sequence[ScenarioSpec],
        *,
        seed: int = 0,
        excluded: Sequence[Dict[str, str]] = (),
    ) -> None:
        self.name = name
        self.cells = list(cells)
        self.seed = seed
        self.excluded = list(excluded)
        ids = [spec.cell_id for spec in self.cells]
        duplicates = {i for i in ids if ids.count(i) > 1}
        if duplicates:
            raise ValueError(f"duplicate cell ids: {sorted(duplicates)}")

    @classmethod
    def cartesian(
        cls,
        name: str,
        workloads: Sequence[str],
        variants: Sequence[str],
        plans: Sequence[Optional[Dict[str, Any]]] = (None,),
        *,
        seed: int = 0,
        spec_kw: Optional[Dict[str, Any]] = None,
    ) -> "ExperimentMatrix":
        """The full product, minus explicitly-excluded incompatible pairs.

        *plans* entries are either ``None`` (a clean cell) or a
        FaultConfig field template (seedless; each faulted cell gets a
        seed derived from the matrix seed and its coordinates).
        """
        kw = spec_kw or {}
        cells: List[ScenarioSpec] = []
        excluded: List[Dict[str, str]] = []
        for wname in workloads:
            wdef = WORKLOAD_DEFS[wname]
            for vname in variants:
                vcfg = variant(vname).config
                if not vcfg.bypass_enabled and not wdef.model0_safe:
                    excluded.append({
                        "workload": wname, "variant": vname,
                        "reason": "workload microcode requires bypass paths "
                                  "(not Model-0 safe)",
                    })
                    continue
                for index, plan in enumerate(plans):
                    if plan is None:
                        cells.append(ScenarioSpec.clean(wname, vname, **kw))
                    else:
                        cells.append(ScenarioSpec.faulted(
                            wname, vname, plan,
                            seed=derive_seed(seed, wname, vname, index), **kw
                        ))
        return cls(name, cells, seed=seed, excluded=excluded)

    @property
    def hash(self) -> str:
        """Identity of the whole grid: name, seed, every cell, exclusions."""
        from .configs import hash_payload

        return hash_payload({
            "name": self.name,
            "seed": self.seed,
            "cells": [spec.to_dict() for spec in self.cells],
            "excluded": self.excluded,
        })

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "hash": self.hash,
            "cells": [spec.to_dict() | {"cell": spec.cell_id}
                      for spec in sorted(self.cells, key=lambda s: s.cell_id)],
            "excluded": self.excluded,
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        workers: int = 0,
        evaluators: Optional[Sequence] = None,
        goldens: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """Execute every cell and assemble the evaluated result artifact.

        ``workers <= 1`` runs inline (same code path the workers run);
        more fans out over forked workers.  The result is independent
        of *workers* byte-for-byte.
        """
        if workers > 1 and len(self.cells) > 1 and can_fork():
            rows = map_unordered(
                lambda message: _cell_row(message["spec"]),
                ({"op": "cell", "name": spec.cell_id, "spec": spec}
                 for spec in self.cells),
                min(workers, len(self.cells)),
            )
        else:
            rows = [_cell_row(spec) for spec in self.cells]
        rows.sort(key=lambda r: r["cell"])

        from .evaluate import default_evaluators
        from .results import aggregate

        result: Dict[str, Any] = {
            "format": 1,
            "matrix": self.describe(),
            "cells": {row["cell"]: {k: v for k, v in row.items()
                                    if k != "cell"}
                      for row in rows},
        }
        active = list(evaluators) if evaluators is not None else (
            default_evaluators(goldens=goldens)
        )
        checks: List[Dict[str, Any]] = []
        for evaluator in active:
            checks.extend(evaluator.evaluate(result))
        checks.sort(key=lambda c: (c["cell"], c["evaluator"], c["check"]))
        result["matrix"]["evaluators"] = sorted(e.name for e in active)
        result["checks"] = checks
        result["aggregate"] = aggregate(result)
        result["passed"] = (
            result["aggregate"]["failed_cells"] == 0
            and result["aggregate"]["checks_failed"] == 0
        )
        return result
