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
config) machine builds and boots it once, and every later session starts
from a :meth:`~repro.core.processor.Processor.fork` of the pristine
boot, so microcode assembly is paid once per process.  Only fault-free
configs are cached -- a seeded fault plan is single-use and would only
pin memory -- which also keeps faulted machines bit-identical to direct
construction, the basis of the existing golden pins.

Determinism contract: a session's trajectory is a pure function of its
(workload, args, config, fault seed) identity and the sequence of slice
budgets it is granted.  Where it ran, whether it was evicted and resumed
elsewhere, and how often, are invisible -- suspend/resume round-trips
byte-identically (PR 4) and supervised recovery converges byte-
identically (PR 5) -- which is what lets the fleet prove N-worker runs
equal to serial ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import re
from typing import Any, Dict, Mapping, Optional, Tuple

from ..config import PRODUCTION, MachineConfig
from ..core.counters import Counters
from ..errors import DoradoError, EmulatorError, ServiceError
from ..fault.plan import FaultConfig
from ..perf.workloads import SliceResult, Workload
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
    """Workload factory for *name*, resolved lazily to dodge import cycles.

    ``repro.exp`` imports this module (the boot cache lives here), so the
    bypass kernels it contributes are looked up at call time, not import
    time.
    """
    from ..perf.workloads import ALL_WORKLOADS

    if not isinstance(name, str):
        raise ServiceError(f"workload must be a name, got {name!r}")
    if name in ALL_WORKLOADS:
        return ALL_WORKLOADS[name]
    from ..exp.kernels import bypass_kernel, bypass_kernel_padded

    extras = {
        "bypass_kernel": bypass_kernel,
        "bypass_kernel_padded": bypass_kernel_padded,
    }
    if name in extras:
        return extras[name]
    known = ", ".join(sorted(ALL_WORKLOADS) + sorted(extras))
    raise ServiceError(f"unknown workload {name!r} (known: {known})")


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

#: (workload, args, config) -> (Workload, pristine booted Processor).
#: Process-local; fleet workers each grow their own on demand (or inherit
#: a prewarmed parent cache across ``fork``).  Only fault-free configs
#: are cached: seeded faulted configs are single-use.
_BOOT_CACHE: Dict[Tuple[str, Tuple, MachineConfig], Tuple[Workload, Any]] = {}


def prewarm_boot_cache(
    name: str, args: Tuple, config: MachineConfig
) -> Tuple[Workload, Any]:
    """The cached (workload, pristine machine) for a fault-free *config*,
    built on a miss.  Forks nothing and leaves the context unbound, so
    a fleet's workers inherit no machine that nobody runs."""
    key = (name, args, config)
    cached = _BOOT_CACHE.get(key)
    if cached is None:
        workload = _resolve_builder(name)(config=config, **dict(args))
        cached = _BOOT_CACHE[key] = (workload, workload.ctx.cpu)
        workload.ctx.cpu = None
    return cached


def booted_workload(
    name: str,
    args: Tuple = (),
    config: MachineConfig = PRODUCTION,
    state: Optional[MachineState] = None,
) -> Workload:
    """A runnable workload on a fresh machine for *config*.

    A fault-free config's cached pristine processor is forked and
    swapped into the workload's context (every accessor and verify
    closure reads ``ctx.cpu`` late, so the fork is the machine that
    runs).  A faulted config is built directly and never cached.

    With *state*, the machine is restored to that snapshot: a cached
    boot is forked straight into it, without snapshotting the boot
    first; a directly built machine restores it in place.
    """
    args = tuple(args)
    if config.fault_injection is not None:
        workload = _resolve_builder(name)(config=config, **dict(args))
        if state is not None:
            workload.ctx.cpu.restore(state)
        return workload
    workload, pristine = prewarm_boot_cache(name, args, config)
    workload.ctx.cpu = pristine.fork(state)
    return workload


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

    Because booted workloads are shared through the boot cache (their
    ``ctx.cpu`` is swapped per fork), a session pins its own machine in
    ``self.cpu`` and binds the context to it for the length of each
    operation that reads it; hosts are single-threaded per process, so
    many live sessions of the same workload coexist safely in one
    process.  Between operations the shared context is unbound: left
    pointing at this machine, it would keep the machine alive after the
    session was suspended, closed or dropped.
    """

    def __init__(
        self,
        name: str,
        workload: Workload,
        *,
        supervise: bool = False,
        checkpoint_interval: int = 2000,
        max_retries: int = 3,
        spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not valid_session_name(name):
            raise ServiceError(f"invalid session name {name!r}")
        self.name = name
        self.workload = workload
        self.cpu = workload.ctx.cpu
        self.supervise = bool(supervise)
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.failure: Optional[str] = None
        self._supervisor = None
        self._spec = dict(spec) if spec else {
            "workload": workload.name, "args": {},
        }
        self._meter_base = self.cpu.counters.state_dict()
        workload.ctx.cpu = None  # booted_workload bound it; see _bound()

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
    # binding
    # ------------------------------------------------------------------

    @property
    def ctx(self):
        """The workload's context, bound to THIS session's machine.

        The binding stays until the next operation of any session of
        this workload: the caller holds the context.
        """
        self.workload.ctx.cpu = self.cpu
        return self.workload.ctx

    @contextlib.contextmanager
    def _bound(self):
        """Bind the workload's context to this machine for one operation."""
        ctx = self.workload.ctx
        ctx.cpu = self.cpu
        try:
            yield
        finally:
            ctx.cpu = None

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
            )
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
                return SliceResult(cycles=ran, halted=self.cpu.halted)
            with self._bound():
                return self.workload.run_slice(cycles)
        except DoradoError as exc:
            self.failure = f"{type(exc).__name__}: {exc}"
            raise

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
        with self._bound():
            return bool(self.workload.verify())

    # ------------------------------------------------------------------
    # state: load, suspend, resume
    # ------------------------------------------------------------------

    def load(self, state: MachineState) -> None:
        """Restore a plain machine snapshot (the CLI's ``--load-state``).

        Metering re-bases at the restored point: a session resumed from a
        checkpoint meters the work *it* did, not its previous life's.
        """
        self.cpu.restore(state)
        self._meter_base = self.cpu.counters.state_dict()

    def suspend(self) -> str:
        """The canonical-JSON suspend envelope (byte-identical per state).

        Everything needed to resume on any worker rides along: the full
        machine snapshot (whose config section includes the fault plan),
        the supervision posture, and the metering baseline.  The live
        supervisor is not serialized -- it re-checkpoints from the
        restored state on the next slice, which PR 5's convergence
        guarantees makes trajectory-invisible.
        """
        data = {
            "service_version": SERVICE_FORMAT_VERSION,
            "name": self.name,
            "workload": self._spec.get("workload", self.workload.name),
            "args": dict(self._spec.get("args", {})),
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
            machine = data["machine"]
            config = config_from_signature(machine["config"])
            items = tuple(sorted(dict(data["args"]).items()))
            workload = booted_workload(
                data["workload"], items, config, MachineState(machine)
            )
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
            "workload": self._spec.get("workload", self.workload.name),
            "args": dict(self._spec.get("args", {})),
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
