"""One workload's lifecycle as a service object (DESIGN.md 5.9).

A :class:`Session` owns everything ``python -m repro`` used to hand-wire
inline: building a booted machine for a (workload, args, config) triple,
restoring a checkpoint into it, running in bounded slices so one session
cannot monopolize a worker, supervised recovery for faulted
configurations, per-session metering from a :class:`~repro.core.
counters.Counters` baseline, and suspend/resume through a canonical-JSON
envelope -- the eviction/migration currency of the fleet
(:mod:`repro.service.fleet`).

The module also owns the process-local *boot cache* (moved here from
``repro.exp.matrix``): the first session needing a (workload, args,
config) machine builds and boots it once, and every session starts from
a :meth:`~repro.core.processor.Processor.fork` of that pristine
template, so microcode assembly is paid once per process.  Templates are
fault-free: a faulted session forks its config's template into the plan,
and its boot is byte-identical to a direct build (``tests/test_service.py``).

Determinism contract: a session's trajectory is a pure function of its
(workload, args, config, fault seed) identity and the sequence of slice
budgets it is granted.  Where it ran, whether it was evicted and resumed
elsewhere, and how often, are invisible -- suspend/resume round-trips
byte-identically (PR 4) and supervised recovery converges byte-
identically (PR 5) -- which is what lets the fleet prove N-worker runs
equal to serial ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from ..config import PRODUCTION, MachineConfig
from ..core.counters import Counters
from ..errors import DoradoError, EmulatorError, ServiceError
from ..fault.plan import FaultConfig
from ..perf.workloads import SESSION_WORKLOADS, SliceResult, Workload
from ..state import MachineState, canonical_json, parse_canonical_json

#: Version tag of the suspend envelope; bumped when its layout changes.
SERVICE_FORMAT_VERSION = 1

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


def valid_session_name(name: Any) -> bool:
    """Session names double as spool filenames; keep them filesystem-safe."""
    return isinstance(name, str) and _NAME_RE.match(name) is not None


def check_open_request(workload: Any, args: Any, fault: Any) -> None:
    """Refuse an unknown *workload*, malformed *args* or *fault* up front.

    Both must be mappings (or None), and every workload argument a plain
    ``int`` (``bool`` refused): a string would reach the byte-code
    assembler as a label, a ``True`` would silently run as 1.  Where the
    builder declares its arguments (``arg_ranges``), each must be one of
    them and inside its range: outside it the run would end in a wrong
    result, reported as if the machine had failed.
    """
    ranges = getattr(_resolve_builder(workload), "arg_ranges", None)
    for what, value in (("args", args), ("fault", fault)):
        if value is not None and not isinstance(value, Mapping):
            raise ServiceError(f"{what} must be a mapping, got {value!r}")
    for key, value in (args or {}).items():
        if type(value) is not int:
            raise ServiceError(
                f"workload arg {key!r} must be an int, got {value!r}"
            )
        if ranges is None:
            continue
        if key not in ranges:
            raise ServiceError(
                f"bad workload args: {workload} takes no argument {key!r} "
                f"(takes {', '.join(sorted(ranges))})"
            )
        low, high = ranges[key]
        if (low is not None and value < low) or (
            high is not None and value > high
        ):
            raise ServiceError(
                f"bad workload args: {workload} {key}={value} is outside "
                f"{low}..{high}"
            )


def _resolve_builder(name: Any):
    """The workload factory a session opens for *name*."""
    if not isinstance(name, str):
        raise ServiceError(f"workload must be a name, got {name!r}")
    if name not in SESSION_WORKLOADS:
        known = ", ".join(sorted(SESSION_WORKLOADS))
        raise ServiceError(f"unknown workload {name!r} (known: {known})")
    return SESSION_WORKLOADS[name]


def config_from_signature(signature: Dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from a snapshot's config section.

    The signature is ``dataclasses.asdict(config)`` (see
    :func:`repro.state.config_signature`), so the nested fault plan comes
    back as a plain dict and must be re-frozen first.
    """
    fields = dict(signature)
    fault = fields.pop("fault_injection", None)
    try:
        return MachineConfig(
            fault_injection=FaultConfig(**fault) if fault is not None else None,
            **fields,
        )
    except TypeError as exc:
        raise ServiceError(f"unusable config signature: {exc}") from exc


# --------------------------------------------------------------------------
# per-process boot cache: build once, fork per session
# --------------------------------------------------------------------------

#: (workload, args, config) -> the pristine booted template Workload,
#: least recently used first.  Process-local; fleet workers each grow
#: their own on demand (or inherit a prewarmed parent cache across
#: ``fork``).  Keys are fault-free configs.  A template is only ever
#: forked, never run or handed out.
_BOOT_CACHE: "OrderedDict[Tuple[str, Tuple, MachineConfig], Workload]" = OrderedDict()

#: Templates the boot cache keeps (~2.5 MiB each): a process's memory
#: must not grow with the keys clients ask for.  The ablation matrix,
#: the largest key set in use, has 23.
_BOOT_CACHE_LIMIT = 32


def _template(name: str, args: Tuple, config: MachineConfig) -> Workload:
    """The cached fault-free template for *config* (its plan left out)."""
    config = dataclasses.replace(config, fault_injection=None)
    key = (name, args, config)
    template = _BOOT_CACHE.get(key)
    if template is None:
        template = _BOOT_CACHE[key] = _resolve_builder(name)(
            config=config, **dict(args)
        )
        if len(_BOOT_CACHE) > _BOOT_CACHE_LIMIT:
            _BOOT_CACHE.popitem(last=False)
    else:
        _BOOT_CACHE.move_to_end(key)
    return template


def prewarm_boot_cache(name: str, args: Tuple, config: MachineConfig) -> None:
    """Boot the template sessions of *config* fork, on a miss.  Forks
    nothing, so a fleet's workers inherit no machine that nobody runs."""
    _template(name, args, config)


def booted_workload(
    name: str,
    args: Tuple = (),
    config: MachineConfig = PRODUCTION,
    state: Optional[MachineState] = None,
) -> Workload:
    """The workload on a machine of its own, booted for *config*.

    The machine is the cached fault-free template's fork into *config*'s
    fault plan, if any; the returned workload shares the template's
    oracle and owns the fork.  With *state* (a snapshot of a machine
    built for *config*), the template is forked straight into it.
    """
    args = tuple(args)
    template = _template(name, args, config)
    return dataclasses.replace(template, cpu=template.cpu.fork(state, config))


def clear_boot_cache() -> None:
    """Drop the process-local boot cache (tests use this)."""
    _BOOT_CACHE.clear()


def arch_hash(cpu) -> str:
    """Short hash of the machine's architectural trajectory."""
    from ..supervise import architectural_json

    text = architectural_json(cpu.snapshot())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# the session
# --------------------------------------------------------------------------

class Session:
    """One named workload run: build/restore, slice, suspend, meter.

    The session owns its machine, ``self.cpu`` (the ``cpu`` of the
    workload copy ``booted_workload`` made for it): it runs that machine
    and hands it to the workload's oracle.  Nothing shared -- the boot
    cache's templates above all -- points at it, so a suspended, closed
    or dropped session's machine is freed at once.
    """

    def __init__(
        self,
        name: str,
        workload: Workload,
        *,
        supervise: bool = False,
        checkpoint_interval: int = 2000,
        max_retries: int = 3,
        spec: Dict[str, Any],
    ) -> None:
        if not valid_session_name(name):
            raise ServiceError(f"invalid session name {name!r}")
        self.name = name
        self.workload = workload
        self.cpu = workload.cpu
        self.supervise = bool(supervise)
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.failure: Optional[str] = None
        self._supervisor = None
        #: The state a resumed session's machine was restored from: its
        #: supervisor, once built, starts from it as a promoted checkpoint.
        self._resumed_from: Optional[MachineState] = None
        self._spec = dict(spec)
        self._meter_base = self.cpu.counters.state_dict()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        workload_name: str,
        *,
        name: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
        config: Optional[MachineConfig] = None,
        fault: Optional[Dict[str, Any]] = None,
        supervise: Optional[bool] = None,
        checkpoint_interval: int = 2000,
        max_retries: int = 3,
    ) -> "Session":
        """Boot a fresh session for *workload_name*.

        *args* maps workload parameters to plain ints; *fault* is a
        FaultConfig field template layered onto *config*; *supervise*
        defaults to "whenever a fault plan is armed", the fleet's
        recovery posture.
        """
        check_open_request(workload_name, args, fault)
        config = config if config is not None else PRODUCTION
        if fault is not None:
            try:
                config = dataclasses.replace(
                    config, fault_injection=FaultConfig(**dict(fault))
                )
            except TypeError as exc:
                raise ServiceError(f"bad fault template: {exc}") from exc
        if supervise is None:
            supervise = config.fault_injection is not None
        items = tuple(sorted((args or {}).items()))
        try:
            workload = booted_workload(workload_name, items, config)
        except TypeError as exc:
            raise ServiceError(f"bad workload args: {exc}") from exc
        return cls(
            name or workload_name,
            workload,
            supervise=supervise,
            checkpoint_interval=checkpoint_interval,
            max_retries=max_retries,
            spec={"workload": workload_name, "args": dict(items)},
        )

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    @property
    def halted(self) -> bool:
        return self.cpu.halted

    @property
    def status(self) -> str:
        if self.failure is not None:
            return "failed"
        return "halted" if self.cpu.halted else "running"

    @property
    def faulted(self) -> bool:
        return self.cpu.config.fault_injection is not None

    @property
    def supervisor(self):
        """The lazily-created recovery supervisor (None until first slice)."""
        return self._supervisor

    def _ensure_supervisor(self):
        if self._supervisor is None:
            from ..supervise import Supervisor

            self._supervisor = Supervisor(
                self.cpu,
                checkpoint_interval=self.checkpoint_interval,
                max_retries=self.max_retries,
                checkpoint=self._resumed_from,
            )
            self._resumed_from = None
        return self._supervisor

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_slice(self, cycles: int) -> SliceResult:
        """Grant a bounded cycle budget; never raises past recording.

        A failed session stays failed (the machine is left for
        post-mortem); further slices are zero-cycle no-ops, as are
        slices granted after HALT.
        """
        if not isinstance(cycles, int) or isinstance(cycles, bool):
            raise ServiceError(f"slice budget must be an int, got {cycles!r}")
        if cycles < 1:
            raise ServiceError(f"slice budget must be positive, got {cycles}")
        if self.failure is not None or self.cpu.halted:
            return SliceResult(cycles=0, halted=self.cpu.halted)
        try:
            if self.supervise:
                ran = self._ensure_supervisor().run(max_cycles=cycles)
            else:
                ran = self.cpu.run(cycles)
        except DoradoError as exc:
            self.failure = f"{type(exc).__name__}: {exc}"
            raise
        return SliceResult(cycles=ran, halted=self.cpu.halted)

    def run(
        self, max_cycles: int = 5_000_000, slice_cycles: Optional[int] = None
    ) -> int:
        """Run to HALT (or budget exhaustion) and verify; return cycles ran.

        The all-or-nothing entry point the CLI and the experiment matrix
        use; raises the same :class:`EmulatorError` messages the
        pre-session code paths raised.
        """
        total = 0
        while total < max_cycles:
            budget = max_cycles - total
            step = min(slice_cycles, budget) if slice_cycles else budget
            result = self.run_slice(step)
            total += result.cycles
            if result.halted or result.cycles == 0:
                break
        if not self.cpu.halted:
            if self.supervise:
                message = (
                    f"{self.workload.name} did not halt within "
                    f"{max_cycles} supervised cycles"
                )
            else:
                message = f"workload {self.workload.name} did not halt"
            self.failure = f"EmulatorError: {message}"
            raise EmulatorError(message)
        if not self.verify():
            if self.supervise:
                message = (
                    f"{self.workload.name} halted but failed verification "
                    f"under supervision"
                )
            else:
                message = (
                    f"workload {self.workload.name} computed a wrong result"
                )
            self.failure = f"EmulatorError: {message}"
            raise EmulatorError(message)
        return total

    def verify(self) -> bool:
        """The workload's correctness oracle against this session's machine."""
        return bool(self.workload.verify(self.cpu))

    # ------------------------------------------------------------------
    # state: load, suspend, resume
    # ------------------------------------------------------------------

    def load(self, state: MachineState) -> None:
        """Restore a plain machine snapshot (the CLI's ``--load-state``).

        Metering re-bases at the restored point: a session resumed from a
        checkpoint meters the work *it* did, not its previous life's.
        """
        self.cpu.restore(state)
        self._resumed_from = None
        if self._supervisor is not None:
            self._supervisor.discard_checkpoint()
        self._meter_base = self.cpu.counters.state_dict()

    def suspend(self) -> str:
        """The canonical-JSON suspend envelope (byte-identical per state).

        Everything needed to resume on any worker rides along: the full
        machine snapshot (whose config section includes the fault plan),
        the supervision posture, and the metering baseline.  The live
        supervisor is not serialized: the resumed session's supervisor
        starts from the envelope's machine section as its promoted
        checkpoint, which rollback's convergence guarantee makes
        trajectory-invisible.
        """
        data = {
            "service_version": SERVICE_FORMAT_VERSION,
            "name": self.name,
            "workload": self._spec["workload"],
            "args": dict(self._spec["args"]),
            "supervise": self.supervise,
            "checkpoint_interval": self.checkpoint_interval,
            "max_retries": self.max_retries,
            "failure": self.failure,
            "meter_base": self._meter_base,
            "machine": self.cpu.snapshot().data,
        }
        return canonical_json(data) + "\n"

    @classmethod
    def resume(cls, envelope, *, name: Optional[str] = None) -> "Session":
        """Rebuild a session from a suspend envelope (text or parsed)."""
        if isinstance(envelope, str):
            try:
                data = parse_canonical_json(envelope)
            except DoradoError as exc:
                raise ServiceError(
                    f"suspend envelope is not parseable: {exc}"
                ) from exc
        else:
            data = envelope
        if not isinstance(data, dict):
            raise ServiceError("suspend envelope is not a JSON object")
        version = data.get("service_version")
        if version != SERVICE_FORMAT_VERSION:
            raise ServiceError(
                f"suspend envelope version {version!r} unsupported "
                f"(expected {SERVICE_FORMAT_VERSION})"
            )
        try:
            state = MachineState(data["machine"])
            config = config_from_signature(state.config)
            items = tuple(sorted(dict(data["args"]).items()))
            workload = booted_workload(data["workload"], items, config, state)
            session = cls(
                name or data["name"],
                workload,
                supervise=data["supervise"],
                checkpoint_interval=data["checkpoint_interval"],
                max_retries=data["max_retries"],
                spec={"workload": data["workload"], "args": dict(data["args"])},
            )
            session.failure = data["failure"]
            session._meter_base = data["meter_base"]
            if session.supervise:
                session._resumed_from = state
        except KeyError as exc:
            raise ServiceError(f"suspend envelope lacks {exc}") from exc
        except ServiceError:
            raise
        except (DoradoError, TypeError, ValueError) as exc:
            raise ServiceError(f"suspend envelope rejected: {exc}") from exc
        return session

    # ------------------------------------------------------------------
    # metering and results
    # ------------------------------------------------------------------

    def meter(self) -> Dict[str, Any]:
        """Counter deltas since admission (or the last restore/load)."""
        base = Counters()
        base.load_state(self._meter_base)
        return self.cpu.counters.delta(base).summary()

    def arch_hash(self) -> str:
        return arch_hash(self.cpu)

    def result(self) -> Dict[str, Any]:
        """The session's deterministic measurement record.

        Only simulated quantities -- no wall clock, no worker identity,
        no eviction history -- so the record is byte-identical however
        the fleet scheduled the session.
        """
        halted = self.cpu.halted
        verified = (
            self.verify() if halted and self.failure is None else False
        )
        faulted = self.faulted
        return {
            "workload": self._spec["workload"],
            "args": dict(self._spec["args"]),
            "faulted": faulted,
            "supervised": self.supervise,
            "status": self.status,
            "cycles": self.cpu.counters.cycles,
            "halted": halted,
            "verified": verified,
            "recovered": (
                (self.failure is None and halted and verified)
                if faulted else None
            ),
            "failure": self.failure,
            "arch_hash": self.arch_hash(),
            "meter": self.meter(),
        }
