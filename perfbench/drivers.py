"""The workloads' closed request loops, and the in-process host the
traced run swaps into a fleet.

One driver process sends every request and waits for its reply before
sending the next.  Each request is one public call, timed from outside;
with tracing on, the same calls are wrapped in spans (``spans.py``).
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import PRODUCTION
from repro.errors import DoradoError
from repro.perf.corebench import SCENARIOS
from repro.service import fleet as fleet_module
from repro.service.fleet import SessionHost
from repro.service.session import Session, arch_hash

from spans import Tracer

#: Meter fields summed over every completed session.
COUNTED = ("cycles", "instructions", "held_cycles", "rollbacks", "replays")

#: Iterations of the reference loop (about 1.5 ms of host time).
REFERENCE_N = 20_000
#: The reference loop's time that defines the reference pace.
REFERENCE_S = 1.5e-3
#: A request's pace is the median reference time of the 2 * PACE_SPAN + 1
#: requests around it.
PACE_SPAN = 10


def reference_loop() -> int:
    """A fixed pure-Python loop outside the program: no change to the
    simulator moves its time, so its time tracks how fast the host runs
    this process at that moment."""
    total = 0
    for i in range(REFERENCE_N):
        total += i * i % 7
    return total


def _timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def paced_s(call: Callable[[], Any]) -> float:
    """Seconds *call* takes, scaled to the reference pace by the median of
    reference loops timed just before and after it."""
    before = [_timed(reference_loop)[1] for _ in range(PACE_SPAN)]
    took = _timed(call)[1]
    after = [_timed(reference_loop)[1] for _ in range(PACE_SPAN)]
    return took * REFERENCE_S / statistics.median(before + after)


class Tally:
    """What one run's requests did, inside and outside the timed window.

    Timing samples count only inside the window; correctness counts for
    every session, warm-up included.  The window opens once *warmup*
    sessions have completed (0: at once) and closes at the first check
    after it has lasted *seconds* and seen a slice and a session finish.

    Every request timed in the window is kept as ``[seconds, reference
    seconds, cycles]``: with *pace* set, the reference loop is timed just
    before each request, so ``paced`` can scale the request to the
    reference pace.
    """

    def __init__(self, warmup: int = 0, seconds: float = float("inf"),
                 pace: bool = False) -> None:
        self.warmup = warmup
        self.seconds = seconds
        self.pace = pace
        self.opened_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.requests: List[List[float]] = []
        #: Indices into ``requests`` of the slice requests.
        self.slices: List[int] = []
        #: (first, end) request indices of each session opened and
        #: completed in the window, from its open to its result reply.
        self.sessions: List[Tuple[int, int]] = []
        #: Requests up to the window's last completion.
        self.done_upto = 0
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.counts = dict.fromkeys(COUNTED, 0)
        if warmup <= 0:
            self.opened_at = time.perf_counter()

    @property
    def measuring(self) -> bool:
        return self.opened_at is not None and self.closed_at is None

    @property
    def window_s(self) -> float:
        end = self.closed_at if self.closed_at is not None else time.perf_counter()
        return end - self.opened_at

    @property
    def mark(self) -> Optional[int]:
        """The index the next request will get (None outside the window)."""
        return len(self.requests) if self.measuring else None

    def expired(self) -> bool:
        finished = (self.completed or self.failed) and self.slices
        if self.measuring and finished and self.window_s >= self.seconds:
            self.closed_at = time.perf_counter()
        return self.closed_at is not None

    def request(self, call: Callable[[], Any]) -> Any:
        """Make one request, timing it when inside the window."""
        if not self.measuring:
            return call()
        reference = _timed(reference_loop)[1] if self.pace else REFERENCE_S
        out, took = _timed(call)
        self.requests.append([took, reference, 0])
        return out

    def simulated(self, cycles: int, is_slice: bool = True) -> None:
        """Credit *cycles* to the request just made (a slice if *is_slice*)."""
        if self.measuring:
            self.requests[-1][2] = cycles
            if is_slice:
                self.slices.append(len(self.requests) - 1)

    def paced(self) -> List[float]:
        """Each request's seconds at the reference pace: its time times
        REFERENCE_S over the median reference time around it."""
        references = [r[1] for r in self.requests]
        return [
            took * REFERENCE_S / statistics.median(
                references[max(0, i - PACE_SPAN):i + PACE_SPAN + 1])
            for i, (took, _, _) in enumerate(self.requests)
        ]

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {why}")

    def complete(self, entry: Dict[str, Any], result: Dict[str, Any],
                 pin: Optional[Dict[str, Any]], first: Optional[int],
                 end: int) -> None:
        """Check one finished session against its pinned serial reference.

        *first* and *end* bound its requests, open to result reply;
        *first* is None when it opened before the window.
        """
        for key in COUNTED:
            self.counts[key] += result["meter"].get(key, 0)
        good = (
            pin is not None
            and result["status"] == "halted"
            and result["verified"]
            and result["recovered"] is not False
            and result["cycles"] == pin["cycles"]
            and result["arch_hash"] == pin["arch_hash"]
        )
        if not good:
            self.fail(entry["name"], (
                f"{entry['key']} gave status={result['status']} "
                f"verified={result['verified']} cycles={result['cycles']} "
                f"arch_hash={result['arch_hash']}; reference {pin}"
            ))
        elif self.measuring:
            self.completed += 1
            self.done_upto = len(self.requests)
            if first is not None:
                self.sessions.append((first, end))
        if self.opened_at is None:
            self.warmup -= 1
            if self.warmup <= 0:
                self.opened_at = time.perf_counter()


# --------------------------------------------------------------------------
# core_run: sessions in this process, one after another
# --------------------------------------------------------------------------

def _core_session(entry, profile, tally: Tally, tracer: Tracer):
    name = entry["name"]
    tally.attempted += 1
    with tracer.span("session.open", name):
        session = tally.request(lambda: Session.build(
            entry["workload"], name=name, args=entry["args"],
            fault=entry["fault"],
            checkpoint_interval=profile.checkpoint_interval,
            max_retries=profile.max_retries,
        ))
    while True:
        tally.attempted += 1
        with tracer.span("session.slice", name):
            step = tally.request(lambda: session.run_slice(profile.slice_cycles))
        tally.simulated(step.cycles)
        if step.halted or step.cycles == 0:
            break
    tally.attempted += 1
    with tracer.span("session.result", name):
        return tally.request(session.result)


def stage_machine(run) -> Any:
    """The machine a corebench stage's run closure simulates."""
    return inspect.getclosurevars(run).nonlocals["cpu"]


def _core_stage(entry, profile, tally: Tally, tracer: Tracer):
    name = entry["name"]
    tally.attempted += 1
    with tracer.span("stage.build", name):
        run = tally.request(SCENARIOS[entry["workload"]](PRODUCTION))
    cpu = stage_machine(run)
    with tracer.span("stage.run", name):
        cycles = tally.request(run)
    tally.simulated(cycles, is_slice=False)
    with tracer.span("stage.hash", name):
        digest = tally.request(lambda: arch_hash(cpu))
    return {
        "status": "halted", "verified": True, "recovered": None,
        "cycles": cycles, "arch_hash": digest,
        "meter": cpu.counters.summary(),
    }


def run_core(profile, entries: Iterable[Dict[str, Any]], reference,
             tally: Tally, tracer: Tracer) -> None:
    """Sessions (and stages) one after another, until the window closes."""
    for entry in entries:
        first = tally.mark
        run = _core_stage if entry["stage"] else _core_session
        try:
            result = run(entry, profile, tally, tracer)
        except DoradoError as exc:
            tally.fail(entry["name"], f"{type(exc).__name__}: {exc}")
        else:
            tally.complete(entry, result, reference.get(entry["key"]),
                           first, len(tally.requests))
        if tally.expired():
            return


# --------------------------------------------------------------------------
# fleet_churn / fleet_resident: a fleet kept at in_flight open sessions
# --------------------------------------------------------------------------

def run_fleet(fleet, profile, entries: Iterable[Dict[str, Any]], reference,
              tally: Tally, tracer: Tracer) -> None:
    """Keep up to ``in_flight`` sessions open; one ``run_round`` per step.

    A halted session gets ``result`` + ``close`` and its slot goes to
    the next session of the stream.  At most one session opens per
    round, so sessions start staggered and finish one round apart
    instead of in convoys.  When the window closes, sessions still
    running are closed without a result.
    """
    entries = iter(entries)
    live: Dict[str, Dict[str, Any]] = {}

    def admit() -> None:
        if len(live) < profile.in_flight:
            entry = next(entries, None)
            if entry is None:
                return
            name = entry["name"]
            pin = reference.get(entry["key"]) or {}
            live[name] = {"entry": entry, "first": tally.mark,
                          "cycles": pin.get("base", 0)}
            tally.attempted += 1
            with tracer.span("fleet.open", name):
                tally.request(lambda: fleet.open_session(
                    name, entry["workload"], args=entry["args"],
                    fault=entry["fault"]))

    admit()
    while live:
        names = list(live)
        tally.attempted += 1
        with tracer.span("fleet.round"):
            replies = tally.request(
                lambda: fleet.run_round(names, profile.slice_cycles))
        ran = 0
        for name in names:
            ran += replies[name]["cycles"] - live[name]["cycles"]
            live[name]["cycles"] = replies[name]["cycles"]
        tally.simulated(ran)
        for name in names:
            if replies[name]["status"] == "running":
                continue
            state = live.pop(name)
            tally.attempted += 2
            with tracer.span("fleet.result", name):
                result = tally.request(lambda: fleet.result(name))
            end = len(tally.requests)
            with tracer.span("fleet.close", name):
                tally.request(lambda: fleet.close_session(name))
            tally.complete(state["entry"], result,
                           reference.get(state["entry"]["key"]),
                           state["first"], end)
        if tally.expired():
            for name in live:
                fleet.close_session(name)
            return
        admit()


class TracedHost:
    """A fleet worker slot served in this process, one span per request.

    Speaks the send/recv/call/close protocol of the fleet's own
    ``InlineHost`` around a public ``SessionHost``, so the traced run can
    put a fleet's request stream where the driver can time it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.host = SessionHost()
        self.tracer = tracer
        self._pending: collections.deque = collections.deque()

    def send(self, message: Dict[str, Any]) -> None:
        self._pending.append(message)

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        message = self._pending.popleft()
        with self.tracer.span(f"host.{message.get('op')}", message.get("name")):
            return self.host.handle(message)

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        self._pending.clear()
        self.host.sessions.clear()


def serve_inline(fleet, tracer: Tracer) -> None:
    """Replace *fleet*'s worker processes (no session live) by TracedHosts."""
    for host in fleet.hosts:
        host.close()
    fleet.hosts = [TracedHost(tracer) for _ in fleet.hosts]


@contextlib.contextmanager
def traced_spool(tracer: Tracer):
    """Span the fleet's spool writes and reads while the block runs."""
    write, read = fleet_module.spool_write, fleet_module.spool_read

    def traced_write(path: str, payload: str) -> None:
        with tracer.span("spool.write"):
            write(path, payload)

    def traced_read(path: str) -> str:
        with tracer.span("spool.read"):
            return read(path)

    fleet_module.spool_write, fleet_module.spool_read = traced_write, traced_read
    try:
        yield
    finally:
        fleet_module.spool_write, fleet_module.spool_read = write, read
