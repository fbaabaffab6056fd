"""Forked workers: the one fan-out primitive (DESIGN.md 5.11).

A :class:`Worker` is a forked child serving plain-dict requests over a
pipe with a caller-supplied ``handler(message) -> reply``: the fleet's
session host, the cluster's node step, the matrix's cell runner.  The
child inherits the parent's memory through ``fork``, so only messages
and replies are pickled.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, Iterable, List, Optional

from .errors import CallTimeout, WorkerCrashed

#: A worker's request handler: ``handler(message) -> reply``.
Handler = Callable[[Dict[str, Any]], Any]

#: The fork start method, or ``None`` where there is none (run inline).
_FORK = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods() else None
)


def can_fork() -> bool:
    """True where :class:`Worker` can start (the fork start method exists)."""
    return _FORK is not None


def _serve(conn, handler: Handler) -> None:
    """Worker process entry point: serve messages until ``exit``."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message.get("op") == "exit":
            return
        try:
            conn.send(handler(message))
        except (BrokenPipeError, ConnectionError, OSError):
            return  # the parent hung up on a pending reply


def _request_context(message: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The op and the names (``name``, each ``items[i][0]``) a request
    addressed, for crash reports."""
    if not message:
        return {"op": None, "sessions": ()}
    names = [message["name"]] if "name" in message else []
    names += [item[0] for item in message.get("items", ())]
    return {"op": message.get("op"), "sessions": tuple(map(str, names))}


class Worker:
    """A forked child serving *handler* over a pipe.

    ``recv`` polls the pipe *and* the child's liveness: a child that
    dies mid-request raises :class:`~repro.errors.WorkerCrashed` naming
    the worker, the in-flight op and what it addressed, and a silent
    live child raises :class:`~repro.errors.CallTimeout` after
    *timeout*.  Send at most one request before reading its reply: an
    unread reply can fill the pipe and stall both ends.
    """

    #: Seconds between liveness checks while waiting for a reply.
    POLL_INTERVAL = 0.05

    def __init__(self, handler: Handler, index: int = 0) -> None:
        self.index = index
        self.last_request: Optional[Dict[str, Any]] = None
        self._conn, child = _FORK.Pipe()
        self._proc = _FORK.Process(
            target=_serve, args=(child, handler), daemon=True
        )
        self._proc.start()
        child.close()

    def _crashed(self, doing: str) -> WorkerCrashed:
        return WorkerCrashed(
            f"worker process died {doing}",
            worker=self.index,
            **_request_context(self.last_request),
        )

    def send(self, message: Dict[str, Any]) -> None:
        self.last_request = message
        try:
            self._conn.send(message)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise self._crashed(f"before the request was sent ({exc})") from exc

    def recv(self, timeout: Optional[float] = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(self.POLL_INTERVAL):
                    return self._conn.recv()
            except (EOFError, ConnectionError, OSError) as exc:
                raise self._crashed("mid-request (pipe closed)") from exc
            if not self._proc.is_alive():
                # Drain the race: a reply flushed just before death.
                try:
                    if self._conn.poll(0):
                        return self._conn.recv()
                except (EOFError, ConnectionError, OSError):
                    pass
                raise self._crashed("mid-request")
            if deadline is not None and time.monotonic() >= deadline:
                raise CallTimeout(
                    f"worker {self.index} sent no reply within {timeout:g}s "
                    f"({_request_context(self.last_request)['op']!r} pending)"
                )

    def call(self, message: Dict[str, Any]) -> Any:
        self.send(message)
        return self.recv()

    def kill(self) -> None:
        """SIGKILL the worker (chaos injection and wedged-slot recovery)."""
        if self._proc.is_alive():
            self._proc.kill()

    def reap(self, timeout: float = 5) -> None:
        """Release the pipe and collect the (dead or exiting) worker."""
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)

    def close(self) -> None:
        """Ask the worker to exit, then reap it."""
        try:
            self._conn.send({"op": "exit"})
        except (BrokenPipeError, ConnectionError, OSError):
            pass
        self.reap(timeout=30)


def map_unordered(
    handler: Handler, messages: Iterable[Dict[str, Any]], workers: int
) -> List[Any]:
    """Every message's reply, in completion order, from *workers* forked
    workers serving *handler*.  Each holds one request at a time and
    takes the next message as soon as its reply is read, so a slow
    request stalls only its own worker.  A dead worker raises
    ``WorkerCrashed``."""
    pending = iter(messages)
    pool = [Worker(handler, index=w) for w in range(workers)]
    waiting: Dict[Any, Worker] = {}  # reply pipe or death sentinel
    replies: List[Any] = []
    try:
        idle = pool
        while True:
            for worker in idle:
                message = next(pending, None)
                if message is not None:
                    worker.send(message)
                    waiting[worker._conn] = worker
                    waiting[worker._proc.sentinel] = worker
            if not waiting:
                return replies
            idle = list({waiting[ready]: None for ready in wait(waiting)})
            for worker in idle:
                del waiting[worker._conn], waiting[worker._proc.sentinel]
                replies.append(worker.recv())
    finally:
        for worker in pool:
            worker.close()
