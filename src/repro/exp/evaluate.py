"""Pluggable evaluators: the invariants a matrix run must prove.

An :class:`Evaluator` inspects the assembled result (all cells'
measurements) and emits *checks* -- plain dicts
``{evaluator, cell, check, passed, detail}`` -- that land in the result
artifact and decide whether the matrix passed.  Running over the
assembled result rather than inside the workers keeps evaluation
deterministic and lets cross-cell invariants (a faulted cell converging
to its clean counterpart) pair cells without re-running anything.

The contract: ``evaluate(result)`` must be a pure function of the
result dict -- no wall clock, no machine access -- and must return one
check per invariant instance it judged (cells it does not apply to
produce no check).  ``name`` identifies the evaluator in artifacts and
CLI summaries.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import TIERS


def _ok_cells(result: Dict[str, Any]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    for cell_id in sorted(result["cells"]):
        row = result["cells"][cell_id]
        if row["status"] == "ok":
            yield cell_id, row


class Evaluator:
    """Base class; subclasses set ``name`` and implement ``evaluate``."""

    name = "evaluator"

    def evaluate(self, result: Dict[str, Any]) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def _check(self, cell: str, check: str, passed: bool,
               detail: str = "") -> Dict[str, Any]:
        return {"evaluator": self.name, "cell": cell, "check": check,
                "passed": bool(passed), "detail": detail}


class TierParityEvaluator(Evaluator):
    """Clean cells must simulate identically on all three tiers.

    Both the cycle count and the architectural-state hash must agree
    across interp/plan/traced -- the matrix-wide form of the
    differential parity suite.
    """

    name = "tier_parity"

    def evaluate(self, result):
        checks = []
        for cell_id, row in _ok_cells(result):
            m = row["measurements"]
            if m["kind"] != "clean":
                continue
            tiers = m["tiers"]
            cycles = {t: tiers[t]["cycles"] for t in TIERS}
            same_cycles = len(set(cycles.values())) == 1
            checks.append(self._check(
                cell_id, "tier_cycles_equal", same_cycles,
                ", ".join(f"{t}={c}" for t, c in cycles.items()),
            ))
            hashes = {t: tiers[t]["arch_hash"] for t in TIERS}
            same_state = len(set(hashes.values())) == 1
            checks.append(self._check(
                cell_id, "tier_state_identical", same_state,
                "" if same_state else
                ", ".join(f"{t}={h}" for t, h in hashes.items()),
            ))
        return checks


class GoldenPinEvaluator(Evaluator):
    """Cells with a pinned cycle count must reproduce it exactly.

    Pins come from ``tests/goldens.json`` (the ``matrix_cycles``
    section), keyed by the cell's pin key; cells without a pin are
    simply not judged.
    """

    name = "golden_pins"

    def __init__(self, pins: Optional[Dict[str, int]] = None) -> None:
        self.pins = dict(pins or {})

    def evaluate(self, result):
        checks = []
        for cell_id, row in _ok_cells(result):
            m = row["measurements"]
            if m["kind"] != "clean":
                continue
            pin = self.pins.get(_pin_key(row["spec"]))
            if pin is None:
                continue
            cycles = m["cycles"]
            checks.append(self._check(
                cell_id, "golden_cycles", cycles == pin,
                f"measured {cycles}, pinned {pin}",
            ))
        return checks


def _pin_key(spec: Dict[str, Any]) -> str:
    key = f"{spec['workload']}@{spec['variant']}"
    if spec.get("args"):
        key += "@" + ",".join(
            f"{k}={v}" for k, v in sorted(spec["args"].items())
        )
    return key


class ConvergenceEvaluator(Evaluator):
    """Supervised faulted cells must converge to their clean counterpart.

    Recovery's whole guarantee: the faulted run halts, verifies, and
    its architectural trajectory (hash and cycle count) is identical to
    the clean cell with the same workload, args, and variant.
    """

    name = "convergence"

    def evaluate(self, result):
        clean_by_key: Dict[str, Dict[str, Any]] = {}
        for cell_id, row in _ok_cells(result):
            if row["measurements"]["kind"] == "clean":
                clean_by_key[_pin_key(row["spec"])] = row["measurements"]
        checks = []
        for cell_id, row in _ok_cells(result):
            m = row["measurements"]
            if m["kind"] != "faulted":
                continue
            checks.append(self._check(
                cell_id, "recovered", m["recovered"],
                m["failure"] or
                f"rollbacks {m['recovery']['rollbacks']}, "
                f"replays {m['recovery']['replays']}",
            ))
            counterpart = clean_by_key.get(_pin_key(row["spec"]))
            if counterpart is None:
                checks.append(self._check(
                    cell_id, "converges_to_clean", False,
                    "no clean counterpart cell in this matrix",
                ))
                continue
            identical = (
                m["recovered"]
                and m["arch_hash"] == counterpart["arch_hash"]
                and m["cycles"] == counterpart["cycles"]
            )
            checks.append(self._check(
                cell_id, "converges_to_clean", identical,
                f"faulted {m['cycles']} cycles/{m['arch_hash']}, "
                f"clean {counterpart['cycles']} cycles/"
                f"{counterpart['arch_hash']}",
            ))
        return checks


class HoldAccountingEvaluator(Evaluator):
    """Counter-derived sanity: every held cycle has exactly one cause."""

    name = "hold_accounting"

    def evaluate(self, result):
        checks = []
        for cell_id, row in _ok_cells(result):
            metrics = row["measurements"].get("metrics")
            if not metrics:
                continue
            attributed = sum(metrics["hold_causes"].values())
            checks.append(self._check(
                cell_id, "hold_causes_sum", attributed == metrics["held_cycles"],
                f"attributed {attributed}, held {metrics['held_cycles']}",
            ))
        return checks


class ClusterEvaluator(Evaluator):
    """Cluster cells must finish, verify, and actually move packets.

    The ring workload's end-to-end guarantee: the origin's payload came
    back incremented once per relay on every lap (``ring_verified``),
    and the fabric delivered traffic at all (``packets_flowed`` -- a
    verified ring with zero deliveries would mean the check never
    exercised the wire).
    """

    name = "cluster"

    def evaluate(self, result):
        checks = []
        for cell_id, row in _ok_cells(result):
            m = row["measurements"]
            if m["kind"] != "cluster":
                continue
            checks.append(self._check(
                cell_id, "ring_verified", m["verified"],
                "; ".join(m["failures"]) if m["failures"] else
                f"{m['laps']} lap(s) over {m['nodes']} node(s) "
                f"in {m['epochs']} epochs",
            ))
            checks.append(self._check(
                cell_id, "packets_flowed", m["packets_delivered"] > 0,
                f"{m['packets_delivered']} packet(s) delivered",
            ))
        return checks


#: Evaluator registry for the CLI's ``--evaluators`` selection.
EVALUATORS = {
    TierParityEvaluator.name: TierParityEvaluator,
    GoldenPinEvaluator.name: GoldenPinEvaluator,
    ConvergenceEvaluator.name: ConvergenceEvaluator,
    HoldAccountingEvaluator.name: HoldAccountingEvaluator,
    ClusterEvaluator.name: ClusterEvaluator,
}


def default_evaluators(goldens: Optional[Dict[str, int]] = None) -> List[Evaluator]:
    """The standard panel; golden pins only when pins were provided."""
    panel: List[Evaluator] = [
        TierParityEvaluator(),
        ConvergenceEvaluator(),
        HoldAccountingEvaluator(),
        ClusterEvaluator(),
    ]
    if goldens:
        panel.append(GoldenPinEvaluator(goldens))
    return panel
