"""Minimal stdlib ``asyncio`` HTTP/1.1 JSON API for the daemon.

Hand-rolled on :func:`asyncio.start_server` — no new dependencies.
One request per connection (``Connection: close``), JSON bodies both
ways, bounded request size (413 beyond ``max_body``).  Routing is a
flat table handed in by :class:`~repro.service.app.AnalysisService`;
this module knows HTTP, not jobs.

Endpoints (wired by the app):

* ``POST /v1/fleet``     — submit a fleet analysis job (202), 400 on a
  malformed body, 429 when the queue is full (with ``Retry-After``),
  503 while draining.
* ``GET /v1/jobs/<id>``  — job state; the full result document once
  ``done``.
* ``GET /v1/jobs``       — all job summaries.
* ``GET /healthz``       — liveness + queue/cache/perf gauges
  (200 while the process runs, even when degraded).
* ``GET /readyz``        — admission: 200 iff a new job would be
  accepted right now, else 503.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, Dict, Optional, Tuple

from .. import perf

__all__ = ["HttpServer", "JsonResponse"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: (status, body, extra headers)
JsonResponse = Tuple[int, Dict, Dict]

#: handler(method, path, body) -> JsonResponse
Handler = Callable[[str, str, Optional[Dict]], Awaitable[JsonResponse]]


class HttpServer:
    """One-shot-connection HTTP/1.1 JSON front end."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = 8 * 1024 * 1024,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body = max_body
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port
        )
        # Port 0 means "pick one"; publish what the kernel chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- wire handling -------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body, extra = await self._handle_one(reader)
            await self._write_response(writer, status, body, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:  # noqa: BLE001 - the daemon must not die here
            perf.add("service.api.errors")
            try:
                await self._write_response(
                    writer, 500, {"error": "internal error"}, {}
                )
            except Exception:  # noqa: BLE001 - already broken
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> JsonResponse:
        perf.add("service.api.requests")
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.LimitOverrunError, asyncio.TimeoutError):
            return 400, {"error": "malformed or slow request head"}, {}
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}, {}
        method, target, _version = parts
        headers = {}
        for raw in header_block.decode("latin-1").split("\r\n"):
            name, separator, value = raw.partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return 400, {"error": "bad Content-Length"}, {}
        if length < 0:
            return 400, {"error": "bad Content-Length"}, {}
        if length > self.max_body:
            return (
                413,
                {"error": f"body exceeds {self.max_body} bytes"},
                {},
            )
        body: Optional[Dict] = None
        if length:
            try:
                raw_body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=60.0
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return 400, {"error": "truncated request body"}, {}
            try:
                parsed = json.loads(raw_body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return 400, {"error": "request body is not valid JSON"}, {}
            if not isinstance(parsed, dict):
                return 400, {"error": "request body must be a JSON object"}, {}
            body = parsed
        path = target.split("?", 1)[0]
        return await self.handler(method.upper(), path, body)

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict,
        extra_headers: Dict,
    ) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in extra_headers.items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n")
        writer.write(payload)
        await writer.drain()
