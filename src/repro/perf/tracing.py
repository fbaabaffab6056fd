"""Cycle-by-cycle execution tracing and timeline rendering.

The Dorado was debugged without scope probes on most signals
(section 4) -- the console and microcode counters carried the load.
:class:`PipelineTracer` is the simulator's version: it records every
cycle's (task, microaddress, held) triple and renders per-task timelines
like::

    task  0 emulator  ################hhhh####....########
    task 13 disk      ................####................

which makes Hold windows and task multiplexing visible at a glance.

The tracer is one subscriber on the machine's instrumentation bus
(:class:`~repro.perf.instrument.InstrumentationBus`): it composes with
the :class:`~repro.perf.measure.OpcodeProfiler` and any other
subscriber in either attach order, and
detaching it leaves the others in place.  Its records are the hold-span
and task-switch record: :meth:`PipelineTracer.hold_windows` finds each
task's held spans without another task's cycles splitting them.  The
record store is a ``collections.deque(maxlen=...)``, so a bounded
window costs O(1) per cycle instead of a per-cycle memmove.

Faulted runs (DESIGN.md section 5.2) leave a second kind of record: the
:class:`~repro.fault.plan.FaultRecord` entries the injector appends to
its trace.  :func:`format_fault_trace` renders those the same way the
timeline renders cycles, so ``repro.perf.report`` can summarize what
went wrong and what the machine did about it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..fault.plan import FaultRecord


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    task: int
    pc: int
    held: bool


class PipelineTracer:
    """Attachable cycle recorder.

    Attach with :meth:`install`; every subsequent ``Processor.step``
    appends a :class:`TraceRecord`.  Recording a bounded window keeps
    long runs cheap: set *max_records* and the earliest records are
    dropped (the timeline renders whatever remains).
    """

    def __init__(self, machine, max_records: int = 100_000) -> None:
        self.machine = machine
        self.max_records = max_records
        self.records: Deque[TraceRecord] = deque(maxlen=max_records)
        self._installed = False
        self._name: Optional[str] = None

    def install(self) -> "PipelineTracer":
        if not self._installed:
            self._name = self.machine.instruments.install(cycle=self._on_cycle)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.machine.instruments.uninstall(self._name)
            self._installed = False
            self._name = None

    def _on_cycle(self, now: int, task: int, pc: int, inst, held: bool) -> None:
        self.records.append(TraceRecord(now, task, pc, held))

    # --- analysis ----------------------------------------------------------

    def tasks_seen(self) -> List[int]:
        return sorted({r.task for r in self.records})

    def cycles_by_task(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for r in self.records:
            counts[r.task] = counts.get(r.task, 0) + 1
        return counts

    def holds_by_task(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for r in self.records:
            if r.held:
                counts[r.task] = counts.get(r.task, 0) + 1
        return counts

    def hold_windows(self, task: int) -> List[Tuple[int, int]]:
        """Contiguous held spans for *task*: (start_cycle, length).

        A span is a run of consecutive *task* records that are held.
        Records from other tasks are ignored entirely -- a multiplexed
        machine interleaves other tasks' cycles inside a hold window
        (that overlap is the whole point of Hold, section 5.7), and
        such interleaving must not split the window.
        """
        windows: List[Tuple[int, int]] = []
        start: Optional[int] = None
        length = 0
        for r in self.records:
            if r.task != task:
                continue
            if r.held:
                if start is None:
                    start = r.cycle
                    length = 1
                else:
                    length += 1
            elif start is not None:
                windows.append((start, length))
                start = None
        if start is not None:
            windows.append((start, length))
        return windows

    def timeline(self, width: int = 72, labels: Optional[Dict[int, str]] = None) -> str:
        """Per-task activity strip: '#' running, 'h' held, '.' idle."""
        if not self.records:
            return "(no records)"
        labels = labels or {}
        first = self.records[0].cycle
        last = self.records[-1].cycle
        span = max(1, last - first + 1)
        scale = min(1.0, width / span)
        columns = min(width, span)
        rows: Dict[int, List[str]] = {}
        for r in self.records:
            column = min(columns - 1, int((r.cycle - first) * scale))
            row = rows.setdefault(r.task, ["."] * columns)
            mark = "h" if r.held else "#"
            if row[column] != "h":  # holds dominate a bucket
                row[column] = mark
        lines = [f"cycles {first}..{last}"]
        for task in sorted(rows):
            name = labels.get(task, f"task {task:2d}")
            lines.append(f"{name:<14s}{''.join(rows[task])}")
        return "\n".join(lines)


def format_fault_trace(records: Sequence[FaultRecord]) -> str:
    """Render an injector's fault trace, one event per line::

        cycle     38  storage  ecc_correctable   @0x4006  single-bit error...
    """
    if not records:
        return "(no fault events)"
    lines = []
    for r in records:
        lines.append(
            f"cycle {r.cycle:>8d}  {r.component:<8s} {r.kind:<18s}"
            f"@{r.address:#06x}  {r.detail}"
        )
    return "\n".join(lines)
