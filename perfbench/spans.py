"""In-memory spans and the arithmetic the benchmark reports on them.

A span records one public call made by the benchmark: its name, start,
end, parent span and session.  Spans stay in memory while a pass runs
and are written out once the run ends.  A span's *self time* is its
duration minus the part of it that its child spans cover; summing self
time by layer splits a traced pass's wall time into the ``share.*``
metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The layer each span's self time is charged to.  ``session.result``
#: and ``host.result`` are state work: nearly all of a result is its
#: ``arch_hash``.  A warm ``session.open``/``host.open`` is a fork of the
#: boot template, also state work.
LAYER = {
    "pass": "other",
    "stage.build": "other",
    "stage.run": "sim",
    "stage.hash": "state",
    "session.open": "state",
    "session.slice": "sim",
    "session.result": "state",
    "fleet.open": "sched",
    "fleet.round": "sched",
    "fleet.result": "sched",
    "fleet.close": "sched",
    "host.open": "state",
    "host.resume": "state",
    "host.suspend": "state",
    "host.checkpoint": "state",
    "host.result": "state",
    "host.run": "sim",
    "host.run_batch": "sim",
    "host.close": "sched",
    "spool.write": "spool",
    "spool.read": "spool",
}

#: The share metrics, in report order; ``ipc`` is estimated, not spanned.
SHARES = ("sim", "state", "spool", "ipc", "sched", "other")

#: How far the layer self-times may stray from the traced wall total.
SUM_TOLERANCE = 0.01

#: The ladder of tail percentiles ``tail`` may report, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)

_IDLE = contextlib.nullcontext()


class Tracer:
    """Records spans while ``enabled``; otherwise costs one branch."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def span(self, name: str, session: Optional[str] = None):
        return self._span(name, session) if self.enabled else _IDLE

    @contextlib.contextmanager
    def _span(self, name: str, session: Optional[str]):
        record = {
            "name": name,
            "session": session,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter_ns()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans: Sequence[Dict[str, Any]]) -> List[int]:
    """Each span's duration minus the part its children cover, in ns."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0, span["start"]
        for child in children.get(index, ()):
            low = max(spans[child]["start"], cursor)
            high = min(spans[child]["end"], span["end"])
            if high > low:
                covered += high - low
                cursor = high
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_seconds(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed by layer, in seconds."""
    totals = dict.fromkeys(SHARES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[LAYER.get(span["name"], "other")] += own / 1e9
    return totals


def shares(spans: Sequence[Dict[str, Any]], wall_s: float,
           ipc_s: float) -> Tuple[Dict[str, float], float]:
    """Layer shares of (traced wall + estimated IPC) and the sum check.

    Returns the shares and the relative gap between the summed layer
    self-times and *wall_s*, which must stay within ``SUM_TOLERANCE``.
    """
    layers = layer_seconds(spans)
    gap = abs(sum(layers.values()) - wall_s) / wall_s
    layers["ipc"] += ipc_s
    total = wall_s + ipc_s
    return {name: seconds / total for name, seconds in layers.items()}, gap


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *samples* (0 <= pct <= 100)."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples: Sequence[float]) -> Tuple[int, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it (the median when there are too few)."""
    count = len(samples)
    pct = next(
        (p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10), 50
    )
    return pct, percentile(samples, pct)
