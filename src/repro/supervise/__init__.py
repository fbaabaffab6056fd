"""Self-checking, self-healing execution (DESIGN.md section 5.5).

Three layers close the loop from detection to recovery:

* :class:`~repro.supervise.sanitize.MachineCheckSanitizer` -- cheap
  microarchitectural invariants, swept over the live machine.
* :class:`~repro.supervise.supervisor.Supervisor` -- sweeps between
  ``run()`` chunks, periodic checkpoints, failure classification, bounded
  rollback-to-last-good-and-replay, compiled-steps -> interpreter
  degradation.
* :func:`~repro.supervise.diverge.find_divergence` -- lockstep
  differential comparison of the two cycle implementations on forks of
  the live machine.

:func:`architectural_json` is the comparison basis the acceptance
tests use: the canonical JSON of a snapshot with everything that
legitimately differs between a supervised and an unsupervised run
stripped -- the config signature (fault plan, cycle-path selection),
the fault section (cursors and trace), and the recovery counters.
What remains is the machine's architectural trajectory, which recovery
is required to preserve exactly.
"""

from __future__ import annotations

from ..core.counters import RECOVERY_FIELDS
from ..state import MachineState
from .diverge import DivergenceReport, find_divergence
from .sanitize import CheckFailure, MachineCheckSanitizer
from .supervisor import Supervisor

__all__ = [
    "CheckFailure",
    "DivergenceReport",
    "MachineCheckSanitizer",
    "Supervisor",
    "architectural_json",
    "find_divergence",
]


def architectural_json(state) -> str:
    """Canonical JSON of *state* minus supervision-variant sections.

    Shallow-copies on the way down; the input snapshot is not mutated.
    """
    data = state.data if isinstance(state, MachineState) else state
    data = dict(data)
    data.pop("config", None)
    data.pop("fault", None)
    core = dict(data["core"])
    counters = dict(core["counters"])
    for name in RECOVERY_FIELDS:
        counters.pop(name, None)
    core["counters"] = counters
    data["core"] = core
    return MachineState(data).to_json()
