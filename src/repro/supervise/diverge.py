"""Differential divergence detection: compiled steps versus interpreter.

The plan tier's compiled steps and the interpreter of
:class:`~repro.core.processor.Processor` are required to be
observationally identical; when the recovery supervisor suspects the
step table (a tripped ``plans`` machine check, or repeated replay
failures), :func:`find_divergence` settles the question
experimentally.  It forks the machine twice -- clones that share no
state with it, built through the snapshot protocol, which join its
fork family and so run its *live* step table, suspect entries
included -- pins one fork to each tier, and steps both in lockstep.
Each cycle a cheap probe tuple is compared; on the first
mismatch, or at the window's end, a full snapshot comparison through
:func:`~repro.state.diff_states` names the exact divergent
architectural paths.

A ``None`` return is a clean bill of health: over the window the
steps and the interpreter agreed bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import DoradoError
from ..state import diff_states


@dataclass(frozen=True)
class DivergenceReport:
    """Where the two implementations first disagreed."""

    cycle: int
    diffs: Tuple[str, ...]

    def __str__(self) -> str:
        head = self.diffs[0] if self.diffs else "state mismatch"
        more = f" (+{len(self.diffs) - 1} more)" if len(self.diffs) > 1 else ""
        return f"divergence at cycle {self.cycle}: {head}{more}"


def _probe(machine) -> tuple:
    """A cheap per-cycle fingerprint; full snapshots only on mismatch."""
    counters = machine.counters
    regs = machine.regs
    return (
        machine.now,
        machine.this_pc,
        machine.pipe.this_task,
        machine.halted,
        counters.instructions,
        counters.held_cycles,
        regs.q,
        regs.count,
    )


def _pinpoint(interp, plan) -> DivergenceReport:
    diffs = diff_states(interp.snapshot(), plan.snapshot())
    return DivergenceReport(cycle=plan.now, diffs=tuple(diffs))


def find_divergence(machine, window: int = 2000) -> Optional[DivergenceReport]:
    """Lockstep-compare plan vs. interpreter forks of *machine*.

    Returns a :class:`DivergenceReport` naming the first divergent
    cycle and architectural paths, or ``None`` when both
    implementations agree over the whole *window* (or until both
    halt).  The machine itself is never stepped or mutated.
    """
    plan_fork = machine.fork()
    interp_fork = machine.fork()
    plan_fork.tier = "plan"
    interp_fork.tier = "interp"

    for _ in range(window):
        if plan_fork.halted and interp_fork.halted:
            break
        plan_exc = interp_exc = None
        try:
            plan_fork.step()
        except DoradoError as exc:
            plan_exc = exc
        try:
            interp_fork.step()
        except DoradoError as exc:
            interp_exc = exc
        if (plan_exc is None) != (interp_exc is None):
            which, exc = (
                ("plan path", plan_exc) if plan_exc is not None
                else ("interpreter", interp_exc)
            )
            return DivergenceReport(
                cycle=max(plan_fork.now, interp_fork.now),
                diffs=(f"{which} alone raised {type(exc).__name__}: {exc}",),
            )
        if plan_exc is not None:
            break  # both raised: a machine problem, not a plan problem
        if _probe(plan_fork) != _probe(interp_fork):
            return _pinpoint(interp_fork, plan_fork)

    final = diff_states(interp_fork.snapshot(), plan_fork.snapshot())
    if final:
        return DivergenceReport(cycle=plan_fork.now, diffs=tuple(final))
    return None
