"""Deterministic fault-injection schedules.

The real Dorado survived storage and I/O errors: single-bit storage
errors were corrected by ECC, double-bit errors latched a fault for the
fault task, and disk microcode retried transfers.  The simulator
reproduces that robustness under test by *injecting* faults from a
seeded schedule -- an :class:`InjectionPlan` -- instead of waiting for
alpha particles.

Everything here is pure data.  A :class:`FaultConfig` (hashable, so it
can ride inside the frozen :class:`~repro.config.MachineConfig`)
describes *how many* faults of each kind to generate and over which
cycle window; :meth:`InjectionPlan.from_config` expands it with a
deterministic generator into a sorted schedule of :class:`FaultEvent`
objects keyed by (cycle, component).  An event fires at the first
matching operation at-or-after its cycle, which makes injection
independent of the simulator's cycle implementation: the compiled and
interpretive tiers count cycles identically, so they consume the same
events at the same operations and produce identical fault traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Sequence, Tuple

from ..errors import ConfigError


class FaultKind(Enum):
    """What kind of hardware misbehaviour an event models."""

    ECC_CORRECTABLE = "ecc_correctable"      #: single-bit storage error
    ECC_UNCORRECTABLE = "ecc_uncorrectable"  #: double-bit storage error
    MAP = "map"                              #: spurious map (page) fault
    WRITE_PROTECT = "write_protect"          #: spurious write-protect fault
    BOUNDS = "bounds"                        #: spurious bounds violation
    DISK_TRANSFER = "disk_transfer"          #: disk word-transfer error


#: Which simulated component consumes events of each kind.
COMPONENT_OF: Dict[FaultKind, str] = {
    FaultKind.ECC_CORRECTABLE: "storage",
    FaultKind.ECC_UNCORRECTABLE: "storage",
    FaultKind.MAP: "map",
    FaultKind.WRITE_PROTECT: "map",
    FaultKind.BOUNDS: "map",
    FaultKind.DISK_TRANSFER: "disk",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``cycle`` is the earliest machine cycle at which the event may fire;
    the injector delivers it at the first matching operation at or after
    that cycle.  ``arg`` is kind-specific: for ECC events it selects the
    word within the munch and the bit(s) to flip; for disk events it is
    the number of consecutive failed transfer attempts (persistence).
    """

    cycle: int
    kind: FaultKind
    arg: int = 0

    @property
    def component(self) -> str:
        return COMPONENT_OF[self.kind]


@dataclass(frozen=True)
class FaultRecord:
    """One entry of a run's fault trace (see ``FaultInjector.trace``)."""

    cycle: int
    component: str
    kind: str
    address: int = 0
    detail: str = ""


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault-generation parameters.

    All fields are plain ints so the config stays hashable inside the
    frozen :class:`~repro.config.MachineConfig`.  Counts say how many
    events of each kind the plan contains; the generator spreads them
    deterministically over ``[first_cycle, last_cycle]``.

    Attributes:
        seed: Generator seed; identical seeds give identical plans.
        storage_correctable: Single-bit storage errors (ECC corrects
            them in flight; only a counter and a trace entry result).
        storage_uncorrectable: Double-bit storage errors (data is
            delivered corrupted and the storage fault latch is set).
        map_faults: Spurious map faults on processor references.
        write_protect_faults: Spurious write-protect faults (fire on the
            first *store* at or after their cycle).
        bounds_faults: Spurious bounds violations.
        disk_errors: Disk word-transfer errors.
        disk_error_persistence: Failed attempts per disk error; when it
            exceeds the controller's retry budget the sector goes bad
            and is remapped to a spare.
        first_cycle: Earliest cycle any event may fire.
        last_cycle: Latest cycle assigned to a generated event.
    """

    seed: int = 1
    storage_correctable: int = 0
    storage_uncorrectable: int = 0
    map_faults: int = 0
    write_protect_faults: int = 0
    bounds_faults: int = 0
    disk_errors: int = 0
    disk_error_persistence: int = 1
    first_cycle: int = 0
    last_cycle: int = 100_000

    def __post_init__(self) -> None:
        for name in (
            "storage_correctable", "storage_uncorrectable", "map_faults",
            "write_protect_faults", "bounds_faults", "disk_errors",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.disk_error_persistence < 1:
            raise ConfigError("disk_error_persistence must be at least 1")
        if self.first_cycle < 0 or self.last_cycle < self.first_cycle:
            raise ConfigError("need 0 <= first_cycle <= last_cycle")

    @property
    def total_events(self) -> int:
        return (
            self.storage_correctable + self.storage_uncorrectable
            + self.map_faults + self.write_protect_faults
            + self.bounds_faults + self.disk_errors
        )


def derive_seed(master: int, *parts: Any) -> int:
    """A stable plan seed: ``sha256("master/part/...")``, 31 bits, never 0."""
    text = "/".join([str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return (int.from_bytes(digest[:4], "big") & 0x7FFFFFFF) or 1


class _Lcg:
    """The repo's usual deterministic pseudo-random source."""

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x5DEECE66D) & 0xFFFFFFFF or 1

    def next(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0xFFFFFFFF
        return (self.state >> 8) % bound


class InjectionPlan:
    """A realized schedule of fault events, grouped by component."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.cycle, e.kind.value, e.arg))
        )

    @classmethod
    def empty(cls) -> "InjectionPlan":
        return cls(())

    @classmethod
    def from_config(cls, config: FaultConfig) -> "InjectionPlan":
        rng = _Lcg(config.seed)
        span = config.last_cycle - config.first_cycle + 1
        events: List[FaultEvent] = []

        def cycle() -> int:
            return config.first_cycle + rng.next(span)

        for _ in range(config.storage_correctable):
            events.append(FaultEvent(cycle(), FaultKind.ECC_CORRECTABLE, rng.next(1 << 12)))
        for _ in range(config.storage_uncorrectable):
            events.append(FaultEvent(cycle(), FaultKind.ECC_UNCORRECTABLE, rng.next(1 << 12)))
        for _ in range(config.map_faults):
            events.append(FaultEvent(cycle(), FaultKind.MAP))
        for _ in range(config.write_protect_faults):
            events.append(FaultEvent(cycle(), FaultKind.WRITE_PROTECT))
        for _ in range(config.bounds_faults):
            events.append(FaultEvent(cycle(), FaultKind.BOUNDS))
        for _ in range(config.disk_errors):
            events.append(
                FaultEvent(cycle(), FaultKind.DISK_TRANSFER, config.disk_error_persistence)
            )
        return cls(events)

    def schedule(self, component: str) -> List[FaultEvent]:
        """The component's events, earliest first."""
        return [e for e in self.events if e.component == component]

    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events
