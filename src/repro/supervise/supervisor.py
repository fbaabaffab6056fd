"""The recovery supervisor: checkpoint, detect, roll back, replay.

The Dorado's answer to a storage error was architectural -- latch the
fault, wake the fault task, let microcode retry (section 4.3).  The
supervisor is the simulator's equivalent one level up: it wraps a
:class:`~repro.core.processor.Processor` and closes the loop from
detection (the machine-check sanitizer, latched uncorrectable faults,
:class:`~repro.errors.HoldTimeout` livelocks) to recovery (rollback to
the last good checkpoint and replay), in bounded retries.

The protocol (DESIGN.md section 5.5):

1. Snapshot the machine (PR 4's ``MachineState``) every
   ``checkpoint_interval`` cycles.  A checkpoint is only *promoted* to
   last-known-good after the slice beyond it completed with no
   detector firing and no new latched fault.  A run that starts where
   the previous one promoted its last checkpoint reuses it instead of
   snapshotting the same state again, and a supervisor built with the
   state its machine was just restored from starts with it promoted;
   whoever replaces the machine's state between runs calls
   :meth:`Supervisor.discard_checkpoint`.
2. Run each slice in ``machine.run()`` chunks that end every
   ``check_interval`` cycles (replayed cycles count too), and sweep the
   sanitizer between chunks.  Recoverable failures -- the
   :class:`~repro.errors.TransientFault` family,
   :class:`~repro.errors.MicrocodeCrash`
   (including ``HoldTimeout``), :class:`~repro.errors.EmulatorError` --
   trigger rollback; structural errors (:class:`~repro.errors.
   StateError`, :class:`~repro.errors.ConfigError`, ...) propagate.
3. Rollback restores the checkpoint **except** the fault injector's
   cursors and trace, which are carried across the restore: a
   scheduled transient event that already fired stays consumed, so the
   replay runs clean and the run converges to the clean run's exact
   final state.  The recovery counters (``RECOVERY_FIELDS``) are
   carried over too -- they describe the supervision, not the
   trajectory.
4. When the evidence implicates the step table (a ``plans`` machine
   check, or repeated replay failures) the supervisor runs the
   differential divergence detector; a confirmed divergence degrades
   the machine to the interpreter path for the rest of the run and
   empties the tables its fork family shares.
5. The retry budget is per-checkpoint: a slice that completes cleanly
   resets it.  Exhausting it raises :class:`~repro.errors.
   UnrecoverableFault` chaining the final cause.

Every action is counted in ``Counters`` and appended to
:attr:`Supervisor.log`, the one event record, which
:func:`~repro.perf.report.format_recovery_report` prints.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.counters import RECOVERY_FIELDS
from ..errors import (
    CorruptionDetected,
    EmulatorError,
    MicrocodeCrash,
    TransientFault,
    UnrecoverableFault,
)
from .diverge import find_divergence
from .sanitize import MachineCheckSanitizer


class Supervisor:
    """Self-healing execution of one machine.

    Retries are immediate: simulated time is the thing being recovered,
    and a rollback rewinds the simulated clock, so there is no wall-clock
    backoff to wait out.
    """

    #: Failures rollback-and-replay can cure.  Everything else --
    #: StateError, ConfigError, EncodingError, plain DoradoError --
    #: means the *experiment* is broken, not the machine, and
    #: propagates unchanged.
    RECOVERABLE = (TransientFault, MicrocodeCrash, EmulatorError)

    def __init__(
        self,
        machine,
        *,
        checkpoint_interval: int = 2000,
        max_retries: int = 3,
        check_interval: int = 256,
        checkpoint=None,
    ) -> None:
        """*checkpoint*, when given, is a snapshot of *machine*'s
        current state that is already known good (the state a session
        was resumed from): it starts out promoted, so the first run
        reuses it instead of snapshotting the same state again."""
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        if check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.machine = machine
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.check_interval = check_interval
        self.sanitizer = MachineCheckSanitizer(machine)
        self.log: List[dict] = []
        self._checkpoint = checkpoint
        self._retries = 0

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run to HALT (or *max_cycles*) with recovery; returns cycles used.

        Counts only forward progress: replayed cycles advance the same
        simulated clock the rollback rewound, so the return value (and
        ``Counters.cycles``) match an unsupervised clean run exactly.
        """
        machine = self.machine
        counters = machine.counters
        start = counters.cycles
        limit = start + max_cycles
        self._retries = 0
        self._countdown = self.check_interval
        if self._checkpoint is None or self._checkpoint_cycle() != start:
            self._checkpoint = machine.snapshot()
        while not machine.halted and counters.cycles < limit:
            target = min(
                self._checkpoint_cycle() + self.checkpoint_interval, limit
            )
            try:
                self._run_checked(target)
            except self.RECOVERABLE as exc:
                self._recover(exc)
                continue
            failure = self._boundary_failure()
            if failure is not None:
                self._recover(failure)
                continue
            self._checkpoint = machine.snapshot()
            self._retries = 0
        return counters.cycles - start

    def _run_checked(self, target: int) -> None:
        """Run to cycle *target* (or HALT) in ``run()`` chunks that end
        where the sweep countdown reaches zero, sweeping between them."""
        machine = self.machine
        counters = machine.counters
        while not machine.halted and counters.cycles < target:
            before = counters.cycles
            try:
                machine.run(min(self._countdown, target - before))
            finally:  # cycles run before a failure count too
                self._countdown -= counters.cycles - before
            if not self._countdown:
                self._countdown = self.check_interval
                self.sanitizer.sweep()

    def discard_checkpoint(self) -> None:
        """Forget the promoted checkpoint: the machine's state was
        replaced between runs, so the next run snapshots afresh."""
        self._checkpoint = None

    def _checkpoint_cycle(self) -> int:
        return self._checkpoint.data["core"]["counters"]["cycles"]

    def _boundary_failure(self) -> Optional[TransientFault]:
        """Health check at a checkpoint boundary.

        A latched uncorrectable/memory fault with no fault-task
        microcode to service it means the slice is corrupt even though
        nothing raised.  Machines that *do* route faults to microcode
        (``config.fault_task``) own their own recovery -- the
        supervisor stays out of the way.
        """
        machine = self.machine
        if machine.config.fault_task is not None:
            return None
        counters = machine.counters
        base = self._checkpoint.data["core"]["counters"]
        if counters.ecc_uncorrected > base["ecc_uncorrected"]:
            return TransientFault(
                "uncorrectable storage error latched during slice",
                cycle=counters.cycles,
            )
        if machine.memory.fault_flags:
            return TransientFault(
                f"memory fault latch {machine.memory.fault_flags:#x} set "
                f"with no fault task",
                cycle=counters.cycles,
            )
        return None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self, exc: Exception) -> None:
        machine = self.machine
        counters = machine.counters
        self._retries += 1
        if self._retries > self.max_retries:
            raise UnrecoverableFault(
                exc,
                self.max_retries,
                task=machine.pipe.this_task,
                pc=machine.this_pc,
                cycle=machine.now,
            ) from exc

        # Carry the injector's progress and the recovery counters across
        # the restore: consumed transient events must stay consumed
        # (that is what makes the replay clean), and the supervision
        # record is not part of the rewound trajectory.
        injector = machine.fault_injector
        injector_state = injector.state_dict() if injector is not None else None
        recovery = {name: getattr(counters, name) for name in RECOVERY_FIELDS}
        machine.restore(self._checkpoint)
        if injector_state is not None:
            injector.load_state(injector_state)
        for name, value in recovery.items():
            setattr(counters, name, value)

        counters.rollbacks += 1
        checkpoint_cycle = self._checkpoint_cycle()
        self.log.append({
            "event": "rollback",
            "to_cycle": checkpoint_cycle,
            "retry": self._retries,
            "cause": type(exc).__name__,
            "detail": str(exc),
        })
        self._maybe_degrade(exc)
        counters.replays += 1
        self.log.append({
            "event": "replay",
            "from_cycle": checkpoint_cycle,
            "retry": self._retries,
        })

    def _maybe_degrade(self, exc: Exception) -> None:
        machine = self.machine
        if machine.tier == "interp":
            return
        implicates_plans = isinstance(exc, CorruptionDetected) and any(
            f.startswith("plans") for f in exc.failures
        )
        if not (implicates_plans or self._retries >= 2):
            return
        found = find_divergence(machine, window=self.checkpoint_interval)
        if found is None:
            return
        machine.tier = "interp"
        # The machine's fork family runs the convicted tables too: empty
        # them, and its other members refill them from the memos.
        machine._traces.invalidate_all()
        machine.counters.degrades += 1
        self.log.append({
            "event": "degrade",
            "at_cycle": found.cycle,
            "first_diff": found.diffs[0] if found.diffs else "",
        })
