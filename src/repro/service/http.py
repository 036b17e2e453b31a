"""Stdlib-asyncio HTTP/1.1 surface for the campaign service.

No web framework: requests are hand-parsed from the stream reader
(request line, headers, ``Content-Length`` body), which keeps the service
dependency-free.  The protocol is deliberately tiny:

==========================  =================================================
``GET  /healthz``           liveness + campaign count
``POST /campaigns``         submit a spec (YAML/JSON body, ``?scale=`` to
                            override); 202 with the campaign status, 400 on
                            a schema error.  Idempotent: resubmitting the
                            same spec at the same scale returns the
                            existing campaign.
``GET  /campaigns``         statuses of every known campaign
``GET  /campaigns/ID``      one campaign's status (404 unknown)
``GET  /campaigns/ID/results``  NDJSON result rows (409 until done)
``GET  /campaigns/ID/events``   NDJSON event stream, closed after the
                            terminal done/failed event
==========================  =================================================

Hostile framing is refused before routing: an over-long or malformed
request/header line or a negative or non-numeric ``Content-Length`` gets
a 400, a body over :data:`MAX_BODY_BYTES` a 413.

The single-writer discipline lives in :class:`~repro.service.fabric
.ShardPool` (its dispatcher thread); handlers only read pool state or
enqueue submissions, so the event loop never blocks on a simulation.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse

from repro.service.fabric import CampaignRun, ShardPool
from repro.service.schema import CampaignError, loads_campaign

#: Campaign specs are small; anything bigger than this is a client bug.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
}


class _RequestError(Exception):
    """``(status, message)``: a request refused before it is routed."""


class CampaignService:
    """Routes HTTP requests onto one :class:`ShardPool`."""

    def __init__(self, pool: ShardPool) -> None:
        self.pool = pool

    # -- low-level plumbing --------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, target, body = request
                await self._route(writer, method, target, body)
        except _RequestError as exc:
            self._error(writer, *exc.args)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # StreamReader's line limit (64 KiB) was overrun.
            raise _RequestError(400, "request or header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, target, body)``, or None when the client sent
        nothing; hostile framing raises :class:`_RequestError`."""
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _RequestError(400, "malformed request line")
        method, target, _version = parts
        length = 0
        while True:
            header = await self._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, colon, value = header.decode("latin-1").partition(":")
            if not colon:
                raise _RequestError(400, "malformed header line")
            if name.strip().lower() == "content-length":
                digits = value.strip()
                # Refuses signs and non-numbers alike (readexactly(-5)
                # would raise, a silent 0 would misframe the body).
                if not (digits.isascii() and digits.isdigit()):
                    raise _RequestError(400, "invalid Content-Length")
                length = int(digits)
        if length > MAX_BODY_BYTES:
            raise _RequestError(413, "campaign spec too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        else:
            body = payload if isinstance(payload, bytes) else str(payload).encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode()
        )
        writer.write(body)

    def _error(self, writer, status: int, message: str) -> None:
        self._respond(writer, status, {"error": message})

    # -- routing -------------------------------------------------------

    async def _route(self, writer, method: str, target: str, body) -> None:
        url = urllib.parse.urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(url.query)
        if path in ("/", "/healthz"):
            if method != "GET":
                self._error(writer, 405, "use GET")
                return
            self._respond(
                writer,
                200,
                {"ok": True, "campaigns": len(self.pool.list_runs())},
            )
            return
        if path == "/campaigns":
            if method == "POST":
                await self._submit(writer, body, query)
            elif method == "GET":
                self._respond(
                    writer,
                    200,
                    {"campaigns": [r.status() for r in self.pool.list_runs()]},
                )
            else:
                self._error(writer, 405, "use GET or POST")
            return
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):].split("/")
            run = self.pool.get(rest[0])
            if run is None:
                self._error(writer, 404, f"unknown campaign {rest[0]!r}")
                return
            if method != "GET":
                self._error(writer, 405, "use GET")
                return
            if len(rest) == 1:
                self._respond(writer, 200, run.status())
            elif rest[1] == "results":
                self._results(writer, run)
            elif rest[1] == "events":
                await self._events(writer, run)
            else:
                self._error(writer, 404, f"unknown endpoint {rest[1]!r}")
            return
        self._error(writer, 404, f"unknown path {path!r}")

    async def _submit(self, writer, body: bytes, query: dict) -> None:
        scale = query.get("scale", [None])[0]
        try:
            campaign = loads_campaign(body.decode("utf-8", "replace"))
            run = self.pool.submit(campaign, scale)
        except (CampaignError, ValueError) as exc:
            self._error(writer, 400, str(exc))
            return
        self._respond(writer, 202, run.status())

    def _results(self, writer, run: CampaignRun) -> None:
        try:
            rows = run.result_rows()
        except CampaignError as exc:
            self._error(writer, 409, str(exc))
            return
        body = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in rows
        ).encode()
        self._respond(writer, 200, body, content_type="application/x-ndjson")

    async def _events(self, writer, run: CampaignRun) -> None:
        """Tail the campaign's event log as NDJSON until it terminates."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        index = 0
        while True:
            events = self.pool.events_since(run, index)
            index += len(events)
            for event in events:
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
            await writer.drain()
            if run.state in ("done", "failed") and not self.pool.events_since(
                run, index
            ):
                return
            await asyncio.sleep(0.05)


# ---------------------------------------------------------------------------
# Server runners
# ---------------------------------------------------------------------------


async def serve_async(
    pool: ShardPool, host: str = "127.0.0.1", port: int = 8765
) -> asyncio.AbstractServer:
    service = CampaignService(pool)
    return await asyncio.start_server(service.handle, host, port)


def run_service(
    pool: ShardPool, host: str = "127.0.0.1", port: int = 8765
) -> None:
    """Blocking entry point for ``repro serve`` (Ctrl-C to stop)."""

    async def _main() -> None:
        server = await serve_async(pool, host, port)
        bound = server.sockets[0].getsockname()
        print(f"repro serve: listening on http://{bound[0]}:{bound[1]}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        pool.stop(wait=True)


class ServiceThread:
    """An in-process server on a background thread (tests, check gate).

    ``port=0`` binds an ephemeral port; :attr:`url` is valid once
    :meth:`start` returns.
    """

    def __init__(
        self, pool: ShardPool, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await serve_async(self.pool, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_event.wait()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10)
