"""The session fleet: worker pool, LRU eviction, migration, recovery
(DESIGN.md 5.9 and 5.10).

A :class:`Fleet` multiplexes many named :class:`~repro.service.session.
Session` objects onto a pool of forked worker processes.  Each worker
runs a :class:`SessionHost` command loop over a pipe and serves
sessions from forks of its (inherited, prewarmed) boot cache; the
coordinator owns all placement and capacity decisions.

Determinism across worker counts is a design invariant, not an
accident:

* placement is round-robin in request order and capacity is *global*
  (one live-session budget for the whole fleet, not per worker), so
  which sessions are live, and which get evicted when, depends only on
  the request stream;
* eviction suspends the least-recently-used session to a checksummed
  canonical-JSON envelope on disk, and resumption restores that
  envelope on whichever worker round-robin points at next -- routinely
  a *different* worker (migration) -- which PR 4's byte-identical
  restore makes invisible to the session's trajectory;
* results record only simulated quantities, never worker identity.

PR 10 extends the invariant to *failure*: every request rides an
idempotent request id (a worker deduplicates retries against its last
reply), every acknowledged slice is journaled, and hot sessions are
background-checkpointed to generational spool files -- so when a worker
dies mid-request the fleet respawns the slot, warm-restores its
sessions from their last valid spool generation (falling back past
checksummed corruption), replays the journaled slices the checkpoint
missed, and retries the in-flight request exactly once.  Lost or
garbled messages are resent under the same request id; a slot that
exhausts its respawn budget degrades to an in-process
:class:`InlineHost`.  None of it can leak into results: a chaos run
under a seeded :class:`~repro.service.chaos.ServiceFaultPlan` converges
to an artifact byte-identical to the clean serial run, which the
``service-chaos`` CI job enforces at workers 1/2/4.
"""

from __future__ import annotations

import collections
import os
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CallTimeout,
    DoradoError,
    GarbledReply,
    ServiceError,
    SpoolCorruption,
    WorkerCrashed,
)
from ..workers import Worker, can_fork
from .chaos import ChaosInjector, ServiceFaultConfig, ServiceFaultKind, ServiceFaultPlan
from .session import Session, booted_workload, check_open_request, valid_session_name
from .spool import spool_read, spool_write

#: Spool generations retained per session: the corruption fallback depth.
SPOOL_KEEP = 2
#: Seconds to wait for one worker reply before it counts as lost.
CALL_TIMEOUT_S = 300.0
#: Resends of a lost, garbled or stalled request before the slot is
#: treated as wedged and crash-recovered.
MAX_CALL_RETRIES = 3


# --------------------------------------------------------------------------
# the host: a dict of live sessions behind a message protocol
# --------------------------------------------------------------------------

class SessionHost:
    """Live sessions in one process, driven by plain-dict messages.

    The message protocol is the worker wire format; running it in-process
    (the fork-less fallback, and the tests) exercises the same code path
    the forked workers run.  Failures *of a run* come back as data
    (``status: failed`` with the failure string); only protocol errors
    (unknown session, duplicate open) surface as ``ok: False``.

    Messages may carry a coordinator-assigned ``req`` id, echoed on the
    reply.  The host remembers its last (req, reply) pair and answers a
    repeated id from that cache without re-executing -- the idempotence
    that makes the fleet's retry-after-timeout and retry-after-garble
    paths safe for non-repeatable operations like ``run`` and
    ``suspend``.
    """

    def __init__(self) -> None:
        self.sessions: Dict[str, Session] = {}
        self._last_req: Optional[int] = None
        self._last_reply: Optional[Dict[str, Any]] = None

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        req = message.get("req")
        if req is not None and req == self._last_req:
            return self._last_reply  # duplicate of an already-served request
        try:
            reply = self._dispatch(message)
        except DoradoError as exc:
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if req is not None:
            reply = dict(reply, req=req)
            self._last_req, self._last_reply = req, reply
        return reply

    def _session(self, name: str) -> Session:
        try:
            return self.sessions[name]
        except KeyError:
            raise ServiceError(
                f"session {name!r} is not live on this worker"
            ) from None

    def _run(self, name: str, cycles: int) -> Dict[str, Any]:
        session = self._session(name)
        try:
            session.run_slice(cycles)
        except ServiceError:
            raise  # a refused request, not a failure of the run
        except DoradoError:
            pass  # recorded on the session; reported as data below
        return {
            "name": name,
            "status": session.status,
            "cycles": session.cpu.counters.cycles,
            "halted": session.cpu.halted,
            "failure": session.failure,
        }

    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "open":
            name = message["name"]
            if name in self.sessions:
                raise ServiceError(
                    f"session {name!r} is already live on this worker"
                )
            self.sessions[name] = Session.build(
                message["workload"],
                name=name,
                args=message.get("args"),
                config=message.get("config"),
                fault=message.get("fault"),
                supervise=message.get("supervise"),
                checkpoint_interval=message.get("checkpoint_interval", 2000),
                max_retries=message.get("max_retries", 3),
            )
            return {"ok": True, "name": name}
        if op == "resume":
            session = Session.resume(message["envelope"])
            if session.name in self.sessions:
                raise ServiceError(
                    f"session {session.name!r} is already live on this worker"
                )
            self.sessions[session.name] = session
            return {"ok": True, "name": session.name}
        if op == "run":
            return {"ok": True, **self._run(message["name"], message["cycles"])}
        if op == "run_batch":
            return {"ok": True, "replies": [
                self._run(name, cycles) for name, cycles in message["items"]
            ]}
        if op == "suspend":
            name = message["name"]
            envelope = self._session(name).suspend()
            del self.sessions[name]
            return {"ok": True, "envelope": envelope}
        if op == "checkpoint":
            # A non-destructive suspend: the envelope without the evict.
            # Snapshots are side-effect-free (PR 4), so checkpointing a
            # hot session cannot perturb its trajectory.
            envelope = self._session(message["name"]).suspend()
            return {"ok": True, "envelope": envelope}
        if op == "result":
            return {"ok": True, "result": self._session(message["name"]).result()}
        if op == "meter":
            return {"ok": True, "meter": self._session(message["name"]).meter()}
        if op == "close":
            self.sessions.pop(message["name"], None)
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "sessions": sorted(self.sessions)}
        raise ServiceError(f"unknown op {op!r}")


# --------------------------------------------------------------------------
# transports: a forked process, or the same host inline
# --------------------------------------------------------------------------

class ProcessHost(Worker):
    """A :class:`SessionHost` in a forked :class:`~repro.workers.Worker`."""

    def __init__(self, index: int = 0) -> None:
        super().__init__(SessionHost().handle, index=index)


class InlineHost:
    """The fork-less fallback: same protocol, same process.

    ``send`` queues and ``recv`` executes, preserving the fleet's
    send-all-then-collect batching discipline (and its reply ordering)
    without real concurrency.  Also the degraded form of a worker slot
    whose respawn budget ran out: it cannot crash, stall, or garble,
    which is exactly why the fleet falls back to it.
    """

    def __init__(self) -> None:
        self._host = SessionHost()
        self._pending: collections.deque = collections.deque()

    def send(self, message: Dict[str, Any]) -> None:
        self._pending.append(message)

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._host.handle(self._pending.popleft())

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        self._pending.clear()
        self._host.sessions.clear()


# --------------------------------------------------------------------------
# the fleet
# --------------------------------------------------------------------------

class Fleet:
    """N workers, one global LRU budget, checkpoint files as currency.

    Recovery options (all deterministic-by-construction):

    * ``chaos`` -- a :class:`~repro.service.chaos.ServiceFaultConfig`
      (or field dict) arming a seeded service-fault plan.
    * ``checkpoint_every`` -- background-checkpoint a hot session to a
      new spool generation every N acknowledged slices (0 disables);
      bounds how much replay a crash can cost.
    * ``max_respawns`` -- per-slot crash budget; beyond it the slot
      degrades to an :class:`InlineHost`.

    The retention depth, reply timeout and resend budget are the module
    constants :data:`SPOOL_KEEP`, :data:`CALL_TIMEOUT_S` and
    :data:`MAX_CALL_RETRIES`.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        capacity: int = 8,
        spool_dir: Optional[str] = None,
        prewarm: Sequence[Tuple[str, Dict[str, Any], Any]] = (),
        checkpoint_interval: int = 2000,
        max_retries: int = 3,
        chaos: Optional[Any] = None,
        checkpoint_every: int = 8,
        max_respawns: int = 2,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.checkpoint_every = checkpoint_every
        self.max_respawns = max_respawns
        if chaos is not None and not isinstance(chaos, ServiceFaultConfig):
            chaos = ServiceFaultConfig(**dict(chaos))
        self._chaos: Optional[ChaosInjector] = (
            ChaosInjector(ServiceFaultPlan.from_config(chaos))
            if chaos is not None else None
        )
        self._own_spool = spool_dir is None
        self.spool_dir = spool_dir or tempfile.mkdtemp(prefix="repro-fleet-")
        os.makedirs(self.spool_dir, exist_ok=True)
        # Warm the boot cache BEFORE forking so every worker inherits the
        # pristine booted templates (microcode assembly paid once).
        from ..config import PRODUCTION

        for wname, wargs, wconfig in prewarm:
            booted_workload(
                wname,
                tuple(sorted((wargs or {}).items())),
                wconfig if wconfig is not None else PRODUCTION,
            )
        if can_fork():
            self.hosts: List[Any] = [
                ProcessHost(index=i) for i in range(workers)
            ]
        else:  # pragma: no cover - exercised only on fork-less platforms
            # No fork, no shared boot cache to inherit: run the same
            # protocol inline.  Determinism is unaffected.
            self.hosts = [InlineHost()]
        self._live: Dict[str, int] = {}          # name -> worker index
        self._lru: "collections.OrderedDict[str, None]" = (
            collections.OrderedDict()
        )
        self._known: set = set()                 # every open (live or spooled)
        self._opens: Dict[str, Dict[str, Any]] = {}   # name -> open message
        self._history: Dict[str, List[int]] = {}      # acknowledged slices
        self._ckpt_index: Dict[str, int] = {}    # history idx of last spool
        self._gens: Dict[str, List[Tuple[str, int]]] = {}  # (path, hist idx)
        self._gen_seq: Dict[str, int] = {}
        self._last_host: Dict[str, int] = {}     # name -> last worker index
        self._reqs: Dict[int, int] = {}          # worker -> request counter
        self._crash_counts: Dict[int, int] = {}  # worker -> crashes so far
        self._rr = 0
        self.counters = {
            "opened": 0, "evictions": 0, "resumes": 0, "migrations": 0,
            "checkpoints": 0, "worker_crashes": 0, "respawns": 0,
            "retries": 0, "checkpoint_corruptions": 0, "degrades": 0,
        }

    # -- transport plumbing --------------------------------------------

    def _next_req(self, worker: int) -> int:
        self._reqs[worker] = self._reqs.get(worker, 0) + 1
        return self._reqs[worker]

    def _dispatch(
        self,
        worker: int,
        message: Dict[str, Any],
        *,
        req: Optional[int] = None,
        chaos: bool = True,
    ) -> Dict[str, Any]:
        """Send one request; returns the pending record for ``_collect``.

        A retry passes the original ``req`` so the worker's idempotence
        cache can answer it without re-executing; recovery traffic
        passes ``chaos=False`` so a fault storm cannot recurse into its
        own cleanup.
        """
        host = self.hosts[worker]
        if req is None:
            req = self._next_req(worker)
        message = dict(message, req=req)
        pending: Dict[str, Any] = {"message": message, "req": req, "action": None}
        if chaos and self._chaos is not None and isinstance(host, ProcessHost):
            event = self._chaos.next_transport()
            if event is not None:
                pending["action"] = event.kind
        if pending["action"] is ServiceFaultKind.MESSAGE_DROP:
            return pending  # lost in transit: never actually sent
        try:
            host.send(message)
        except WorkerCrashed as exc:
            pending["crash"] = exc  # raised when the reply is awaited
            return pending
        if pending["action"] is ServiceFaultKind.WORKER_CRASH:
            host.kill()  # SIGKILL mid-request, reply racing death
        return pending

    def _recv_matching(self, worker: int, req: int) -> Dict[str, Any]:
        """The reply for *req*, discarding stale duplicates from retries."""
        host = self.hosts[worker]
        while True:
            reply = host.recv(timeout=CALL_TIMEOUT_S)
            if not isinstance(reply, dict):
                raise GarbledReply(
                    f"worker {worker} sent a non-dict reply: {reply!r}"
                )
            got = reply.get("req")
            if got == req:
                return reply
            if isinstance(got, int) and got < req:
                continue  # stale duplicate of an earlier, retried request
            raise GarbledReply(
                f"worker {worker} replied to request {got!r} "
                f"while {req} was pending"
            )

    def _await_reply(self, worker: int, pending: Dict[str, Any]) -> Dict[str, Any]:
        action = pending.pop("action", None)
        req = pending["req"]
        if action is ServiceFaultKind.MESSAGE_DROP:
            raise CallTimeout(
                f"request {req} to worker {worker} lost in transit (injected)"
            )
        if "crash" in pending:
            raise pending.pop("crash")
        reply = self._recv_matching(worker, req)
        if action is ServiceFaultKind.WORKER_STALL:
            raise CallTimeout(
                f"worker {worker} stalled: reply {req} arrived too late "
                f"(injected)"
            )
        if action is ServiceFaultKind.REPLY_GARBLE:
            raise GarbledReply(
                f"reply {req} from worker {worker} corrupted in transit "
                f"(injected)"
            )
        return reply

    def _collect(self, worker: int, pending: Dict[str, Any]) -> Dict[str, Any]:
        """Wait out one pending request, recovering until it is answered."""
        attempts = 0
        while True:
            try:
                return self._await_reply(worker, pending)
            except WorkerCrashed:
                self._recover_crash(worker)
                pending = self._dispatch(
                    worker, pending["message"], req=pending["req"], chaos=False
                )
            except (CallTimeout, GarbledReply):
                self.counters["retries"] += 1
                attempts += 1
                if attempts > MAX_CALL_RETRIES:
                    # The slot is wedged: treat it as crashed.  kill()
                    # makes the diagnosis true before recovery acts on it.
                    host = self.hosts[worker]
                    if isinstance(host, ProcessHost):
                        host.kill()
                    self._recover_crash(worker)
                    pending = self._dispatch(
                        worker, pending["message"], req=pending["req"],
                        chaos=False,
                    )
                    attempts = 0
                    continue
                pending = self._dispatch(
                    worker, pending["message"], req=pending["req"]
                )

    def _call(
        self, worker: int, message: Dict[str, Any], *, chaos: bool = True
    ) -> Dict[str, Any]:
        pending = self._dispatch(worker, message, chaos=chaos)
        reply = self._collect(worker, pending)
        if not reply.get("ok"):
            raise ServiceError(f"worker {worker}: {reply.get('error')}")
        return reply

    # -- crash recovery ------------------------------------------------

    def _recover_crash(self, worker: int) -> None:
        """Respawn (or degrade) a dead slot and restore its sessions.

        The restored sessions come from their last valid spool
        generation plus a replay of the journaled slices the checkpoint
        missed, so the slot rejoins the fleet with every session at
        exactly the state the coordinator last acknowledged.  LRU order
        is untouched: recovery must stay invisible to eviction
        decisions, which are a pure function of the request stream.
        """
        self.counters["worker_crashes"] += 1
        self._crash_counts[worker] = self._crash_counts.get(worker, 0) + 1
        host = self.hosts[worker]
        if isinstance(host, ProcessHost):
            host.kill()
            host.reap()
        if self._crash_counts[worker] > self.max_respawns:
            self.hosts[worker] = InlineHost()
            self.counters["degrades"] += 1
        else:
            self.hosts[worker] = ProcessHost(index=worker)
            self.counters["respawns"] += 1
        for name in sorted(n for n, w in self._live.items() if w == worker):
            self._restore(name, worker, chaos=False)

    def _restore(self, name: str, worker: int, *, chaos: bool) -> None:
        """Bring *name* back on *worker* at its last acknowledged state.

        Resumes the newest valid spool generation, or -- when none
        survives (never checkpointed, or every generation corrupt) --
        rebuilds from the admission spec, then replays the journaled
        slices the restored state has not seen.  *chaos* makes the
        ``resume`` call chaos-eligible: a spooled resume is ordinary
        traffic, crash recovery is not.  The rebuild never is.
        """
        payload, replay_from = self._read_spool(name)  # (None, 0) if none
        if payload is None:
            self._call(worker, dict(self._opens[name]), chaos=False)
        else:
            self._call(worker, {"op": "resume", "envelope": payload},
                       chaos=chaos)
        self._replay(name, worker, replay_from)

    def _replay(self, name: str, worker: int, start: int) -> None:
        """Re-grant journaled slices the restored checkpoint has not seen.

        Sessions are pure functions of their granted slice budgets
        (DESIGN.md 5.9), so replaying the journal reconstructs the
        acknowledged state bit-for-bit; replies are data and need no
        inspection.
        """
        history = self._history.get(name, ())
        for chunk_start in range(start, len(history), 64):
            chunk = history[chunk_start:chunk_start + 64]
            self._call(worker, {
                "op": "run_batch",
                "items": [(name, cycles) for cycles in chunk],
            }, chaos=False)

    # -- spool generations ---------------------------------------------

    def _write_spool(self, name: str, envelope: str, index: int,
                     *, evict: bool) -> str:
        """Write a new checksummed spool generation for *name*.

        *index* is the journal position the envelope captures; restore
        replays everything after it.  Only eviction writes consume
        chaos spool events -- the load test is guaranteed to read those
        back, which keeps corruption *detection* deterministic.
        """
        gen = self._gen_seq[name] = self._gen_seq.get(name, 0) + 1
        path = os.path.join(self.spool_dir, f"{name}.g{gen:06d}.spool")
        spool_write(path, envelope)
        gens = self._gens.setdefault(name, [])
        gens.append((path, index))
        while len(gens) > SPOOL_KEEP:
            old_path, _ = gens.pop(0)
            try:
                os.unlink(old_path)
            except OSError:
                pass
        self._ckpt_index[name] = index
        if evict and self._chaos is not None:
            event = self._chaos.next_spool()
            if event is not None:
                self._mutate_spool(path, event)
        return path

    @staticmethod
    def _mutate_spool(path: str, event) -> None:
        """Apply an injected spool fault to a just-written file."""
        with open(path, "rb") as f:
            data = f.read()
        if event.kind is ServiceFaultKind.SPOOL_TRUNCATE:
            data = data[: event.arg % max(1, len(data))]
        else:
            pos = event.arg % max(1, len(data))
            data = data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]
        with open(path, "wb") as f:
            f.write(data)

    def _read_spool(self, name: str) -> Tuple[Optional[str], int]:
        """The newest valid spool payload and its journal position.

        Falls back through older generations on checksum failure,
        counting each detection once (a generation caught corrupt is
        pruned, never re-walked); ``(None, 0)`` means nothing on disk
        survived and the caller must rebuild from the admission spec.
        """
        gens = self._gens.get(name, [])
        for path, index in reversed(list(gens)):
            try:
                return spool_read(path), index
            except FileNotFoundError:
                gens.remove((path, index))
            except SpoolCorruption:
                self.counters["checkpoint_corruptions"] += 1
                gens.remove((path, index))
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return None, 0

    def _drop_spool(self, name: str) -> None:
        for path, _ in self._gens.pop(name, []):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._gen_seq.pop(name, None)

    # -- placement and capacity ----------------------------------------

    def _place(self) -> int:
        worker = self._rr % len(self.hosts)
        self._rr += 1
        return worker

    def _admit(self, name: str, worker: int) -> None:
        self._live[name] = worker
        self._lru[name] = None
        self._lru.move_to_end(name)

    def _touch(self, name: str) -> None:
        self._lru.move_to_end(name)

    def _make_room(self) -> None:
        while len(self._live) >= self.capacity:
            self._evict(next(iter(self._lru)))

    def _evict(self, name: str) -> str:
        """Suspend the session to its spool file; forget it on the worker."""
        worker = self._live[name]
        reply = self._call(worker, {"op": "suspend", "name": name})
        self._live.pop(name)
        self._lru.pop(name)
        path = self._write_spool(
            name, reply["envelope"], len(self._history.get(name, ())),
            evict=True,
        )
        self._last_host[name] = worker
        self.counters["evictions"] += 1
        return path

    def _maybe_checkpoint(self, name: str, status: str) -> None:
        """Background-checkpoint a hot session whose journal has grown.

        Skipped for halted/failed sessions (their results are about to
        be collected) and when disabled; the trigger depends only on
        the per-session journal length, never on placement.
        """
        if not self.checkpoint_every or status != "running":
            return
        history_len = len(self._history.get(name, ()))
        if history_len - self._ckpt_index.get(name, 0) < self.checkpoint_every:
            return
        worker = self._live[name]
        reply = self._call(worker, {"op": "checkpoint", "name": name})
        self._write_spool(name, reply["envelope"], history_len, evict=False)
        self.counters["checkpoints"] += 1

    # -- the session API ----------------------------------------------

    def open_session(
        self,
        name: str,
        workload: str,
        *,
        args: Optional[Dict[str, Any]] = None,
        config: Any = None,
        fault: Optional[Dict[str, Any]] = None,
        supervise: Optional[bool] = None,
    ) -> int:
        """Admit a new named session; returns the worker it landed on."""
        if not valid_session_name(name):
            raise ServiceError(f"invalid session name {name!r}")
        if name in self._known:
            raise ServiceError(f"session {name!r} already exists")
        check_open_request(workload, args, fault)
        self._make_room()
        worker = self._place()
        message = {
            "op": "open", "name": name, "workload": workload,
            "args": dict(args or {}), "config": config, "fault": fault,
            "supervise": supervise,
            "checkpoint_interval": self.checkpoint_interval,
            "max_retries": self.max_retries,
        }
        self._opens[name] = message
        self._history[name] = []
        try:
            self._call(worker, message)
        except ServiceError:
            self._opens.pop(name, None)
            self._history.pop(name, None)
            raise
        self._known.add(name)
        self._admit(name, worker)
        self.counters["opened"] += 1
        return worker

    def ensure_live(self, name: str) -> int:
        """The worker hosting *name*, resuming its envelope if spooled."""
        if name in self._live:
            self._touch(name)
            return self._live[name]
        if name not in self._known:
            raise ServiceError(f"unknown session {name!r}")
        self._make_room()
        worker = self._place()
        self._restore(name, worker, chaos=True)
        self._admit(name, worker)
        self.counters["resumes"] += 1
        if self._last_host.get(name, worker) != worker:
            self.counters["migrations"] += 1
        return worker

    def run_slice(self, name: str, cycles: int) -> Dict[str, Any]:
        worker = self.ensure_live(name)
        reply = self._call(worker, {
            "op": "run", "name": name, "cycles": cycles,
        })
        self._history[name].append(cycles)
        self._maybe_checkpoint(name, reply.get("status", ""))
        return {k: v for k, v in reply.items() if k not in ("ok", "req")}

    def run_round(
        self, names: Sequence[str], cycles: int
    ) -> Dict[str, Dict[str, Any]]:
        """One slice for every named session, workers running in parallel.

        Sessions are handled in capacity-sized waves (so a round over
        more sessions than the live budget churns the LRU exactly as
        consecutive single slices would), grouped by hosting worker,
        with each worker's batch dispatched before any is collected.
        A worker that dies mid-batch is recovered and its batch retried
        without disturbing the other workers' in-flight batches.
        """
        out: Dict[str, Dict[str, Any]] = {}
        names = list(names)
        for start in range(0, len(names), self.capacity):
            wave = names[start:start + self.capacity]
            batches: Dict[int, List[str]] = {}
            for name in wave:
                batches.setdefault(self.ensure_live(name), []).append(name)
            order = sorted(batches)
            pendings = {
                worker: self._dispatch(worker, {
                    "op": "run_batch",
                    "items": [(name, cycles) for name in batches[worker]],
                })
                for worker in order
            }
            for worker in order:
                reply = self._collect(worker, pendings[worker])
                if not reply.get("ok"):
                    raise ServiceError(
                        f"worker {worker}: {reply.get('error')}"
                    )
                for row in reply["replies"]:
                    out[row["name"]] = row
                    self._history[row["name"]].append(cycles)
                for row in reply["replies"]:
                    self._maybe_checkpoint(row["name"], row.get("status", ""))
        return out

    def result(self, name: str) -> Dict[str, Any]:
        worker = self.ensure_live(name)
        return self._call(worker, {"op": "result", "name": name})["result"]

    def meter(self, name: str) -> Dict[str, Any]:
        worker = self.ensure_live(name)
        return self._call(worker, {"op": "meter", "name": name})["meter"]

    def suspend(self, name: str) -> str:
        """Force-evict *name*; returns its (latest) envelope path."""
        if name in self._live:
            return self._evict(name)
        if name not in self._known:
            raise ServiceError(f"unknown session {name!r}")
        gens = self._gens.get(name)
        if not gens:
            raise ServiceError(f"session {name!r} has no spool generations")
        return gens[-1][0]

    def close_session(self, name: str) -> None:
        if name in self._live:
            worker = self._live[name]
            self._call(worker, {"op": "close", "name": name})
            self._live.pop(name, None)
            self._lru.pop(name, None)
        self._drop_spool(name)
        self._known.discard(name)
        self._opens.pop(name, None)
        self._history.pop(name, None)
        self._ckpt_index.pop(name, None)
        self._last_host.pop(name, None)

    def stats(self) -> Dict[str, Any]:
        degraded = sorted(
            index for index, host in enumerate(self.hosts)
            if isinstance(host, InlineHost) and self._crash_counts.get(index)
        )
        info: Dict[str, Any] = {
            "workers": len(self.hosts),
            "capacity": self.capacity,
            "live": sorted(self._live),
            "spooled": sorted(self._known - set(self._live)),
            "degraded_workers": degraded,
            **self.counters,
        }
        if self._chaos is not None:
            info.update(self._chaos.stats())
        return info

    def close(self) -> None:
        for host in self.hosts:
            host.close()
        if self._own_spool:
            shutil.rmtree(self.spool_dir, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
