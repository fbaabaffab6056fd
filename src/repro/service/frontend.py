"""The asyncio front end: named sessions over newline-delimited JSON.

``python -m repro.service serve`` listens on a TCP socket and speaks a
one-request-per-line JSON protocol::

    {"op": "open", "name": "alice", "workload": "mesa_loop_sum"}
    {"op": "run", "name": "alice", "cycles": 2000}
    {"op": "round", "names": ["alice", "bob"], "cycles": 2000}
    {"op": "result", "name": "alice"}
    {"op": "close", "name": "alice"}

Concurrency model: many clients multiplex on the event loop, but fleet
operations are serialized through one lock and pushed off the loop with
``asyncio.to_thread`` -- the *parallelism* lives inside the fleet
(worker processes running a round's batches side by side), while the
request stream stays totally ordered, which is what makes server runs
reproducible: the same request sequence is the same simulation.

Robustness contract (DESIGN.md 5.10): nothing a client sends may kill
its connection loop, let alone the server.  Malformed JSON, non-object
requests, unknown ops, missing fields, and lines longer than
``max_line`` all earn a structured ``{"ok": false, "error": ...}``
reply and the loop keeps reading.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from ..errors import DoradoError
from .fleet import Fleet

#: Default ceiling on one request line, in bytes.  Generous for every
#: legitimate op (requests are names and numbers) while bounding what a
#: confused or hostile client can make the server buffer.
MAX_LINE = 1 << 20


class Frontend:
    """The protocol brain: JSON requests in, JSON replies out."""

    def __init__(self, fleet: Fleet, *, max_line: int = MAX_LINE) -> None:
        self.fleet = fleet
        self.max_line = max_line
        self._lock: Optional[asyncio.Lock] = None
        self._shutdown: Optional[asyncio.Event] = None

    async def _fleet_call(self, fn, *args, **kwargs):
        async with self._lock:
            return await asyncio.to_thread(fn, *args, **kwargs)

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                return {"ok": True,
                        "stats": await self._fleet_call(self.fleet.stats)}
            if op == "open":
                worker = await self._fleet_call(
                    self.fleet.open_session,
                    request["name"], request["workload"],
                    args=request.get("args"),
                    fault=request.get("fault"),
                    supervise=request.get("supervise"),
                )
                return {"ok": True, "name": request["name"], "worker": worker}
            if op == "run":
                reply = await self._fleet_call(
                    self.fleet.run_slice, request["name"], request["cycles"]
                )
                return {"ok": True, **reply}
            if op == "round":
                rows = await self._fleet_call(
                    self.fleet.run_round, request["names"], request["cycles"]
                )
                return {"ok": True, "sessions": rows}
            if op == "result":
                result = await self._fleet_call(
                    self.fleet.result, request["name"]
                )
                return {"ok": True, "result": result}
            if op == "meter":
                meter = await self._fleet_call(
                    self.fleet.meter, request["name"]
                )
                return {"ok": True, "meter": meter}
            if op == "suspend":
                path = await self._fleet_call(
                    self.fleet.suspend, request["name"]
                )
                return {"ok": True, "spooled": path}
            if op == "close":
                await self._fleet_call(
                    self.fleet.close_session, request["name"]
                )
                return {"ok": True}
            if op == "shutdown":
                self._shutdown.set()
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (DoradoError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    async def _read_request(self, reader: asyncio.StreamReader):
        """One line -> (request dict, None) or (None, error reply).

        ``None, None`` means EOF.  An oversized line (the stream's
        ``limit`` is ``max_line``) is consumed to its newline and
        reported as a structured error, so one abusive request cannot
        desynchronize -- or kill -- the connection loop.
        """
        try:
            line = await reader.readline()
        except asyncio.LimitOverrunError as exc:  # pragma: no cover
            await reader.read(exc.consumed)
            return None, {"ok": False,
                          "error": f"line exceeds {self.max_line} bytes"}
        except ValueError:
            # StreamReader.readline signals a line longer than its limit
            # with a bare ValueError after discarding the buffer; the
            # tail of the oversized line (up to its newline) is consumed
            # as garbage by the next reads and earns its own bad-request
            # replies, which is fine -- the loop survives.
            return None, {"ok": False,
                          "error": f"line exceeds {self.max_line} bytes"}
        if not line:
            return None, None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return None, {"ok": False, "error": f"bad request: {exc}"}
        return request, None

    async def client(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request, error = await self._read_request(reader)
                if request is None and error is None:
                    break
                reply = error if error is not None else (
                    await self.handle(request)
                )
                writer.write(json.dumps(reply, sort_keys=True).encode())
                writer.write(b"\n")
                await writer.drain()
                if self._shutdown.is_set():
                    break
        except (ConnectionError, OSError):
            pass  # client went away mid-reply; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve(self, host: str = "127.0.0.1", port: int = 0,
                    *, ready=None) -> None:
        """Listen until a ``shutdown`` request arrives.

        *ready* (if given) is called with the bound ``(host, port)``
        once the socket is listening -- the tests and scripted clients
        use it to learn an ephemeral port.
        """
        self._lock = asyncio.Lock()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self.client, host, port, limit=self.max_line
        )
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        async with server:
            await self._shutdown.wait()
