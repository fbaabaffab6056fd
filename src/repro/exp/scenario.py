"""Scenario cells: one point of the workloads x configs x faults grid.

A :class:`ScenarioSpec` is *pure plain data* -- strings, ints, and
tuples -- so it is frozen, hashable, picklable across worker processes,
and serializes losslessly into the result artifact.  Its identity
(:attr:`ScenarioSpec.hash`, baked into :attr:`ScenarioSpec.cell_id`) is
a content hash over the canonical dict, so two specs describe the same
experiment exactly when their ids match, and the matrix artifact of a
rerun is byte-identical.

A cell is *clean* (``fault is None``): the workload runs under all
three execution tiers and the evaluators assert cycle parity and golden
pins.  Or it is *faulted*: the fault template plus the cell's seed
builds a :class:`~repro.fault.plan.FaultConfig`, the run goes through
the recovery supervisor, and the evaluators assert convergence to the
clean counterpart cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..fault.plan import FaultConfig
from .configs import hash_payload

#: Item-tuple encoding of a kwargs dict, sorted by key -- the hashable
#: form ScenarioSpec stores.
Items = Tuple[Tuple[str, Any], ...]


def _as_items(mapping: Optional[Dict[str, Any]]) -> Optional[Items]:
    if mapping is None:
        return None
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell: (workload, config variant, fault plan or None, seed)."""

    workload: str
    variant: str
    #: Workload-builder keyword arguments (empty = the defaults the
    #: golden pins are taken at).
    args: Items = ()
    #: FaultConfig fields *without* the seed (the cell's own seed is
    #: substituted), or None for a clean cell.
    fault: Optional[Items] = None
    #: Seed for the fault plan; 0 and unused on clean cells.
    seed: int = 0
    max_cycles: int = 400_000
    checkpoint_interval: int = 400
    max_retries: int = 4

    @classmethod
    def clean(cls, workload: str, variant: str,
              args: Optional[Dict[str, Any]] = None, **kw) -> "ScenarioSpec":
        return cls(workload=workload, variant=variant,
                   args=_as_items(args) or (), **kw)

    @classmethod
    def faulted(cls, workload: str, variant: str, fault: Dict[str, Any],
                seed: int, args: Optional[Dict[str, Any]] = None,
                **kw) -> "ScenarioSpec":
        template = dict(fault)
        template.pop("seed", None)
        FaultConfig(seed=seed, **template)  # validate the fields early
        return cls(workload=workload, variant=variant,
                   args=_as_items(args) or (), fault=_as_items(template),
                   seed=seed, **kw)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form: what workers receive and artifacts store."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "args": dict(self.args),
            "fault": dict(self.fault) if self.fault is not None else None,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "checkpoint_interval": self.checkpoint_interval,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        return cls(
            workload=data["workload"],
            variant=data["variant"],
            args=_as_items(data.get("args") or {}) or (),
            fault=_as_items(data.get("fault")),
            seed=data.get("seed", 0),
            max_cycles=data.get("max_cycles", 400_000),
            checkpoint_interval=data.get("checkpoint_interval", 400),
            max_retries=data.get("max_retries", 4),
        )

    @property
    def hash(self) -> str:
        return hash_payload(self.to_dict())

    @property
    def is_faulted(self) -> bool:
        return self.fault is not None

    @property
    def pin_key(self) -> str:
        """The golden-pin lookup key: workload@variant[@args]."""
        key = f"{self.workload}@{self.variant}"
        if self.args:
            key += "@" + ",".join(f"{k}={v}" for k, v in self.args)
        return key

    @property
    def cell_id(self) -> str:
        """Human-readable unique id within (and across) matrices."""
        kind = "clean" if self.fault is None else f"fault-{self.seed}"
        return f"{self.pin_key}#{kind}#{self.hash[:8]}"

    def fault_config(self) -> Optional[FaultConfig]:
        """Realize the seeded fault plan (None on clean cells)."""
        if self.fault is None:
            return None
        return FaultConfig(seed=self.seed, **dict(self.fault))
