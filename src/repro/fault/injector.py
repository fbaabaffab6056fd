"""Run-time fault delivery: consume the plan, corrupt, count, trace.

One :class:`FaultInjector` is built per machine (by
:class:`~repro.mem.pipeline.MemorySystem` when the config carries a
:class:`~repro.fault.plan.FaultConfig`) and shared by every component
that can misbehave: storage consults :attr:`FaultInjector.ecc` on each
munch read, the memory pipeline asks :meth:`memory_fault_due` before
each timed reference, and the disk controller asks
:meth:`disk_error_due` before each word transfer.

Delivery is strictly in plan order per component: each component drains
its own FIFO of events, an event firing at the first matching operation
at or after its scheduled cycle.  Because both cycle implementations of
the core count cycles identically, a given seed produces the identical
fault trace under either -- the differential tests in
``tests/test_fault_injection.py`` enforce exactly that.

:attr:`FaultInjector.trace` is the one record of what fired: the CLI,
:func:`~repro.perf.report.format_fault_trace` and
:func:`~repro.perf.instrument.metrics_snapshot` all read it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..types import MUNCH_WORDS
from .plan import FaultEvent, FaultKind, FaultRecord, InjectionPlan


class EccFilter:
    """Models the storage ECC check on the munch read path.

    A correctable (single-bit) event is fixed in flight: the data is
    delivered intact and only the correction counter and the fault
    trace record it happened.  An uncorrectable (double-bit) event
    delivers the munch with two bits flipped in one word and reports
    upward so the storage fault latch is set for the fault task.
    """

    def __init__(self, injector: "FaultInjector") -> None:
        self._injector = injector

    def filter_read(self, base: int, words: List[int]) -> List[int]:
        injector = self._injector
        queue = injector._storage_queue
        if not queue or queue[0].cycle > injector.now:
            return words
        event = queue.popleft()
        counters = injector.counters
        counters.faults_injected += 1
        word_index = (event.arg >> 8) % MUNCH_WORDS
        bit = (event.arg >> 4) & 0xF
        if event.kind is FaultKind.ECC_CORRECTABLE:
            counters.ecc_corrected += 1
            injector.record(
                "storage", event.kind.value, base + word_index,
                f"single-bit error in bit {bit}, corrected",
            )
            return words
        second = event.arg & 0xF
        if second == bit:
            second = (bit + 1) & 0xF
        counters.ecc_uncorrected += 1
        corrupted = list(words)
        corrupted[word_index] ^= (1 << bit) | (1 << second)
        injector.record(
            "storage", event.kind.value, base + word_index,
            f"double-bit error in bits {bit},{second}, uncorrectable",
        )
        if injector.on_uncorrectable is not None:
            injector.on_uncorrectable()
        return corrupted


class FaultInjector:
    """Delivers an :class:`InjectionPlan`'s events to the machine."""

    def __init__(self, plan: InjectionPlan, counters) -> None:
        self.plan = plan
        self.counters = counters
        self.trace: List[FaultRecord] = []
        self._storage_queue: Deque[FaultEvent] = deque(plan.schedule("storage"))
        self._map_queue: Deque[FaultEvent] = deque(plan.schedule("map"))
        self._disk_queue: Deque[FaultEvent] = deque(plan.schedule("disk"))
        self.ecc = EccFilter(self)
        self._clock: Callable[[], int] = lambda: 0
        self.on_uncorrectable: Optional[Callable[[], None]] = None

    def bind(
        self,
        clock: Callable[[], int],
        on_uncorrectable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Attach the machine's cycle clock and the fault-latch hook."""
        self._clock = clock
        self.on_uncorrectable = on_uncorrectable

    @property
    def now(self) -> int:
        return self._clock()

    @property
    def pending(self) -> int:
        """Events not yet delivered."""
        return len(self._storage_queue) + len(self._map_queue) + len(self._disk_queue)

    def reset(self) -> None:
        """Rewind to the freshly-built state: full schedules, empty trace.

        ``Processor.boot()`` calls this so back-to-back booted runs
        under one injector replay the identical fault schedule instead
        of resuming from wherever the previous run's cursors stopped.
        """
        for component, attr in self._QUEUES:
            setattr(self, attr, deque(self.plan.schedule(component)))
        self.trace.clear()

    def record(self, component: str, kind: str, address: int = 0, detail: str = "") -> None:
        self.trace.append(FaultRecord(self.now, component, kind, address, detail))

    # --- snapshot protocol (DESIGN.md section 5.4) ---------------------------

    _QUEUES = (
        ("storage", "_storage_queue"),
        ("map", "_map_queue"),
        ("disk", "_disk_queue"),
    )

    def state_dict(self) -> dict:
        """Per-component consumed-event cursors plus the fault trace.

        The plan itself is pure data derived from the config seed, so
        only how far each queue has drained is state; ``load_state``
        re-slices the plan's schedules.  The clock binding and the
        record/uncorrectable hooks are wiring, not state.
        """
        consumed = {
            component: len(self.plan.schedule(component)) - len(getattr(self, attr))
            for component, attr in self._QUEUES
        }
        return {
            "consumed": consumed,
            "trace": [
                [r.cycle, r.component, r.kind, r.address, r.detail]
                for r in self.trace
            ],
        }

    def load_state(self, state: dict) -> None:
        for component, attr in self._QUEUES:
            schedule = self.plan.schedule(component)
            setattr(self, attr, deque(schedule[state["consumed"][component]:]))
        self.trace = [FaultRecord(*row) for row in state["trace"]]

    # --- memory pipeline -----------------------------------------------------

    def memory_fault_due(self, write: bool, address: int = 0) -> Optional[FaultKind]:
        """A due map/write-protect/bounds event for this reference, if any.

        Events drain strictly in plan order: a write-protect event at
        the head waits (blocking later map events) until a store comes
        along, which keeps delivery deterministic.
        """
        queue = self._map_queue
        if not queue or queue[0].cycle > self.now:
            return None
        if queue[0].kind is FaultKind.WRITE_PROTECT and not write:
            return None
        event = queue.popleft()
        self.counters.faults_injected += 1
        self.record(
            "map", event.kind.value, address,
            f"spurious {event.kind.value} fault on a "
            + ("store" if write else "fetch"),
        )
        return event.kind

    # --- disk controller -----------------------------------------------------

    def disk_error_due(self) -> Optional[FaultEvent]:
        """A due transfer-error event, if any (arg = failed attempts)."""
        queue = self._disk_queue
        if not queue or queue[0].cycle > self.now:
            return None
        event = queue.popleft()
        self.counters.faults_injected += 1
        self.record(
            "disk", event.kind.value, 0,
            f"transfer error, persists {event.arg} attempt(s)",
        )
        return event
