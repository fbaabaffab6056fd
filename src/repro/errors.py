"""Exception hierarchy for the Dorado simulator.

Every error raised by the package derives from :class:`DoradoError`, so
callers can catch the whole family with one clause.  Microcode-visible
hardware conditions (stack overflow, page faults) are *not* Python
exceptions at run time -- the hardware latches them and microcode tests
them -- but building or configuring the machine incorrectly raises one
of these.
"""

from __future__ import annotations


class DoradoError(Exception):
    """Base class for all errors raised by the simulator."""


class EncodingError(DoradoError):
    """A microinstruction field was given a value that does not fit."""


class AssemblyError(DoradoError):
    """The microassembler rejected a program (bad label, FF conflict, ...)."""


class PlacementError(AssemblyError):
    """The instruction placer could not satisfy the page constraints."""


class ConfigError(DoradoError):
    """A :class:`~repro.config.MachineConfig` value is out of range."""


class MicrocodeCrash(DoradoError):
    """Microcode executed an explicit breakpoint/crash function.

    The hardware analogue is the console microcomputer halting the
    machine; simulations raise this so tests fail loudly instead of
    spinning.
    """


class HoldTimeout(MicrocodeCrash):
    """The Hold watchdog: a task was held past the configured limit.

    The real machine would simply livelock if a reference never
    completed; the simulator raises instead, carrying enough of the
    pipeline state (task, microaddress, cycle, MEMDATA readiness, and
    the last attributed hold cause) to diagnose which reference never
    became ready.
    """

    def __init__(
        self,
        task: int,
        pc: int,
        cycle: int,
        holds: int,
        md_valid: bool = False,
        md_ready_at: int = 0,
        storage_busy_until: int = 0,
        hold_cause: str | None = None,
    ) -> None:
        self.task = task
        self.pc = pc
        self.cycle = cycle
        self.holds = holds
        self.md_valid = md_valid
        self.md_ready_at = md_ready_at
        self.storage_busy_until = storage_busy_until
        self.hold_cause = hold_cause
        md = (
            f"MEMDATA ready at cycle {md_ready_at}" if md_valid
            else "no reference ever completed for this task"
        )
        cause = f"; last hold cause {hold_cause}" if hold_cause else ""
        super().__init__(
            f"task {task} held {holds} consecutive cycles at {pc:#o} "
            f"(cycle {cycle}; {md}; storage busy until "
            f"{storage_busy_until}{cause})"
        )


class StateError(DoradoError):
    """A machine snapshot cannot be captured, restored, or decoded.

    Raised for version/config mismatches between a
    :class:`~repro.state.MachineState` and the machine it is applied
    to, for malformed serialized state, and for snapshots that cannot
    be taken (e.g. in-flight fast I/O with no device mapping).
    """


class TransientFault(DoradoError):
    """A failure the recovery supervisor believes rollback can cure.

    Base of the recoverable half of the failure taxonomy (DESIGN.md
    section 5.5).  Carries whatever machine context was available at
    the detection point so post-mortems do not need a live machine.
    """

    def __init__(
        self,
        message: str,
        *,
        task: int | None = None,
        pc: int | None = None,
        cycle: int | None = None,
        hold_cause: str | None = None,
    ) -> None:
        self.task = task
        self.pc = pc
        self.cycle = cycle
        self.hold_cause = hold_cause
        where = []
        if task is not None:
            where.append(f"task {task}")
        if pc is not None:
            where.append(f"upc {pc:#o}")
        if cycle is not None:
            where.append(f"cycle {cycle}")
        if hold_cause is not None:
            where.append(f"hold cause {hold_cause}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class CorruptionDetected(TransientFault):
    """The machine-check sanitizer found a violated invariant.

    ``failures`` is a tuple of human-readable descriptions, one per
    tripped check (a single sweep can trip several).
    """

    def __init__(self, failures, **context) -> None:
        self.failures = tuple(str(f) for f in failures)
        count = len(self.failures)
        head = self.failures[0] if self.failures else "unspecified"
        more = f" (+{count - 1} more)" if count > 1 else ""
        super().__init__(f"machine check failed: {head}{more}", **context)


class UnrecoverableFault(DoradoError):
    """The recovery supervisor exhausted its retry budget.

    Chains the final failure as ``cause`` and records how many
    rollback-and-replay attempts were spent, plus the machine context
    of the last attempt.
    """

    def __init__(
        self,
        cause: BaseException,
        attempts: int,
        *,
        task: int | None = None,
        pc: int | None = None,
        cycle: int | None = None,
    ) -> None:
        self.cause = cause
        self.attempts = attempts
        self.task = task
        self.pc = pc
        self.cycle = cycle
        where = []
        if task is not None:
            where.append(f"task {task}")
        if pc is not None:
            where.append(f"upc {pc:#o}")
        if cycle is not None:
            where.append(f"cycle {cycle}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(
            f"recovery failed after {attempts} rollback attempts: "
            f"{cause}{suffix}"
        )


class DeviceError(DoradoError):
    """An I/O device model was used inconsistently."""


class ServiceError(DoradoError):
    """A session/fleet request the simulation service cannot honour.

    Raised by :mod:`repro.service` for protocol-level mistakes -- an
    unknown workload or session name, a malformed suspend envelope, a
    duplicate open -- as opposed to failures *of* the simulated run,
    which surface as the usual :class:`EmulatorError` /
    :class:`UnrecoverableFault` family and are recorded on the session.
    """


class WorkerCrashed(ServiceError):
    """A forked worker process died (or its pipe closed) mid-request.

    Carries the worker slot, the operation in flight, and the names it
    addressed (sessions, matrix cells, cluster nodes), so the fleet's
    recovery path (and post-mortems) know exactly what was lost without
    a live process to ask.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int | None = None,
        op: str | None = None,
        sessions: tuple[str, ...] | list[str] = (),
    ) -> None:
        self.worker = worker
        self.op = op
        self.sessions = tuple(sessions)
        where = []
        if worker is not None:
            where.append(f"worker {worker}")
        if op is not None:
            where.append(f"op {op!r}")
        if self.sessions:
            where.append(f"addressing {', '.join(self.sessions)}")
        suffix = f" ({'; '.join(where)})" if where else ""
        super().__init__(message + suffix)


class CallTimeout(ServiceError):
    """A fleet request got no reply in time (lost or stalled)."""


class GarbledReply(ServiceError):
    """A fleet worker's reply arrived corrupted or unparseable."""


class SpoolCorruption(ServiceError):
    """A spool checkpoint file failed its integrity checks.

    Raised by :func:`repro.service.spool.spool_decode` for truncated
    files, checksum mismatches, and unsupported envelope versions; the
    fleet catches it and falls back to the previous spool generation.
    """


class EmulatorError(DoradoError):
    """A byte-code program or emulator image is malformed."""
