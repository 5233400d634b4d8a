"""JSONL-over-TCP transport of the scheduler service (stdlib only).

One request per line, one JSON object per response line — the simplest
protocol that still gives remote clients typed request/response framing,
works with ``nc``/``socket``/``asyncio`` alike, and needs no third-party
dependency.  The asyncio server serialises all operations into the
single-threaded :class:`~repro.service.engine.SchedulerService` through
one lock, so the engine never sees concurrent mutation; in ``wall`` mode
a background task additionally ticks the virtual clock forward at the
configured ``time_scale``.

Wire format (requests)::

    {"op": "submit", "submission": {...JobSubmission.to_dict()...}}
    {"op": "submit_batch", "submissions": [...]}
    {"op": "status"} | {"op": "metrics"} | {"op": "ping"}
    {"op": "stream", "tenant": "*", "cursor": 0, "limit": 512}
    {"op": "advance", "to_time": 3600.0}
    {"op": "drain"} | {"op": "shutdown"}

Responses are ``{"ok": true, ...payload...}`` or
``{"ok": false, "error": "..."}`` — protocol errors are reported, never
raised across the socket.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
from typing import Any, Dict, List, Mapping, Optional

from repro.service.engine import SchedulerService
from repro.service.schemas import JobSubmission, ServiceConfig

#: Default TCP port (0 = ephemeral, reported on stdout after binding).
DEFAULT_PORT = 7061
_MAX_LINE = 1 << 22  # 4 MiB: far above any legal request line.


class ServiceServer:
    """Asyncio JSONL server around one :class:`SchedulerService`."""

    def __init__(
        self,
        service: SchedulerService,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        tick_interval: float = 0.05,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.tick_interval = float(tick_interval)
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = asyncio.Lock()
        self._stop = asyncio.Event()
        self._tick_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and (in wall mode) start the clock tick."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_MAX_LINE
        )
        bound = self._server.sockets[0].getsockname()
        self.port = int(bound[1])
        if self.service.config.mode == "wall":
            self._tick_task = asyncio.create_task(self._tick_clock())

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or a shutdown op) fires."""
        await self._stop.wait()
        await self.aclose()

    def request_stop(self) -> None:
        """Ask the serve loop to exit (signal-handler safe)."""
        self._stop.set()

    async def aclose(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _tick_clock(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval)
            async with self._lock:
                self.service.advance_to(self.service.wall_virtual_target())

    # -- request handling ---------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {"ok": False, "error": "line too long"})
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                response = await self._dispatch(text)
                await self._send(writer, response)
                if response.get("_shutdown"):
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: Mapping[str, Any]) -> None:
        body = {key: value for key, value in payload.items() if not key.startswith("_")}
        writer.write(json.dumps(body).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, text: str) -> Dict[str, Any]:
        try:
            request = json.loads(text)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"malformed JSON: {exc}"}
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "error": "request must be an object with an 'op' key"}
        op = str(request["op"])
        async with self._lock:
            try:
                return self._handle_op(op, request)
            except Exception as exc:  # protocol boundary: report, never crash
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle_op(self, op: str, request: Mapping[str, Any]) -> Dict[str, Any]:
        service = self.service
        if op == "ping":
            return {"ok": True, "virtual_time": service.now}
        if op == "submit":
            submission = JobSubmission.from_dict(request.get("submission", {}))
            decision = service.submit(submission)
            return {"ok": True, "decision": decision.to_dict()}
        if op == "submit_batch":
            decisions = [
                service.submit(JobSubmission.from_dict(entry)).to_dict()
                for entry in request.get("submissions", [])
            ]
            return {"ok": True, "decisions": decisions}
        if op == "status":
            return {"ok": True, "status": service.status()}
        if op == "metrics":
            return {"ok": True, "metrics": service.metrics()}
        if op == "stream":
            tenant = str(request.get("tenant", "*"))
            cursor = int(request.get("cursor", 0))
            limit = request.get("limit")
            records, next_cursor = service.streams.read(
                tenant, cursor, limit=int(limit) if limit is not None else None
            )
            return {
                "ok": True,
                "records": [dict(r) for r in records],
                "cursor": next_cursor,
                "dropped": service.streams.dropped(tenant),
            }
        if op == "advance":
            to_time = float(request.get("to_time", service.now))
            processed = service.advance_to(to_time)
            return {"ok": True, "processed": processed, "virtual_time": service.now}
        if op == "drain":
            result = service.drain()
            return {"ok": True, "result": result.summary()}
        if op == "shutdown":
            return {"ok": True, "stopping": True, "_shutdown": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def run_server(
    config: ServiceConfig,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    announce=print,
) -> int:
    """Stand up a service and serve until SIGTERM/SIGINT; returns exit code 0.

    The readiness line ``repro-ones service listening on HOST:PORT`` is
    emitted through ``announce`` once the socket is bound, so wrappers
    (the CI smoke job) can wait for it before submitting.
    """

    async def _main() -> None:
        service = SchedulerService(config)
        server = ServiceServer(service, host=host, port=port)
        await server.start()
        announce(
            f"repro-ones service listening on {server.host}:{server.port} "
            f"(scheduler={config.scheduler}, gpus={config.num_gpus}, "
            f"mode={config.mode})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX loops, or serving from a non-main thread
                # (tests): signals stay with the embedding application.
                pass
        await server.serve_until_stopped()

    asyncio.run(_main())
    return 0


class ServiceClient:
    """Blocking JSONL client (tests, CLI verbs, load drivers)."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw protocol -------------------------------------------------------------------

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op; returns the decoded response object.

        Raises ``RuntimeError`` when the server reports ``ok: false`` —
        rejected *submissions* are not errors (they come back as
        decisions), only protocol failures are.
        """
        payload = {"op": op, **fields}
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        response = json.loads(line.decode())
        if not response.get("ok", False):
            raise RuntimeError(f"service error for op {op!r}: {response.get('error')}")
        return response

    # -- convenience verbs --------------------------------------------------------------

    def submit_batch(self, submissions: List[JobSubmission]) -> List[Dict[str, Any]]:
        """Submit many jobs in one round trip; returns their decisions."""
        return self.request(
            "submit_batch", submissions=[s.to_dict() for s in submissions]
        )["decisions"]

    def status(self) -> Dict[str, Any]:
        """Control-plane snapshot (see ``SchedulerService.status``)."""
        return self.request("status")["status"]

    def metrics(self) -> Dict[str, Any]:
        """Observability snapshot (see ``SchedulerService.metrics``)."""
        return self.request("metrics")["metrics"]

    def stream(
        self, tenant: str = "*", cursor: int = 0, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        """Poll a tenant's decision stream from ``cursor``."""
        fields: Dict[str, Any] = {"tenant": tenant, "cursor": cursor}
        if limit is not None:
            fields["limit"] = int(limit)
        return self.request("stream", **fields)

    def drain(self) -> Dict[str, Any]:
        """Close the stream and run the cluster dry; returns the summary."""
        return self.request("drain")["result"]

    def shutdown(self) -> None:
        """Ask the server to exit its serve loop."""
        self.request("shutdown")
