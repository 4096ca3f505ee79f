"""``ecgrid serve`` — the asyncio HTTP front of the job table.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`
(stdlib only; no framework dependency).  Every route answers JSON from
:mod:`repro.serve.protocol`; blocking simulation work never touches
the event loop — it lives on the job table's executor threads.

Routes (see ``docs/serving.md`` for curl examples):

========  =============================  =====================================
method    path                           answers
========  =============================  =====================================
GET       ``/healthz``                   liveness + job/cache stats
POST      ``/v1/jobs``                   submit (``SubmitRequest`` body)
GET       ``/v1/jobs``                   job list (``?tenant=`` filter)
GET       ``/v1/jobs/<id>``              ``JobView`` status
GET       ``/v1/jobs/<id>/result``       schema-versioned result record
GET       ``/v1/jobs/<id>/figure``       figure record (figure jobs)
GET       ``/v1/jobs/<id>/events``       SSE progress/trace stream
POST      ``/v1/jobs/<id>/cancel``       request cancellation
DELETE    ``/v1/jobs/<id>``              alias of cancel
========  =============================  =====================================
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api import (
    ResultCache,
    default_cache_dir,
    figure_to_dict,
    result_to_dict,
)
from repro.serve.events import SSE_CONTENT_TYPE, sse_frame
from repro.serve.jobs import JobTable
from repro.serve.protocol import (
    API_VERSION,
    ErrorView,
    ProtocolError,
    SubmitRequest,
    parse_body,
    read_body,
    sweep_envelope,
)

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on accepted request bodies (a sweep spec is small; a
#: gigabyte of "config" is an attack).
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass
class ServerConfig:
    """Everything ``ecgrid serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Process-pool width per sweep/figure job (0 = inline points).
    sweep_workers: int = 0
    #: Jobs simulating concurrently (executor threads).
    concurrency: int = 2
    #: Queued+running ceiling per tenant (429 beyond it).
    max_active_per_tenant: int = 4
    #: Per-point timeout forwarded to the sweep runner.
    timeout_s: Optional[float] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False


class JobServer:
    """Owns the listening socket and the job table."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        cache = None
        if not self.config.no_cache:
            cache = ResultCache(self.config.cache_dir or default_cache_dir())
        self.table = JobTable(
            cache=cache,
            sweep_workers=self.config.sweep_workers,
            concurrency=self.config.concurrency,
            max_active_per_tenant=self.config.max_active_per_tenant,
            timeout_s=self.config.timeout_s,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_s = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.table.shutdown(wait=False)

    async def serve_forever(self) -> None:
        """Answer connections until cancelled (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is not None:
                method, path, query, headers, body = parsed
                await self._route(method, path, query, headers, body, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            pass
        except ProtocolError as exc:  # a malformed request head
            try:
                self._write_error(writer, exc)
            except ConnectionError:
                pass
        except Exception as exc:  # a handler bug answers 500, not a crash
            try:
                self._write_error(
                    writer, ProtocolError(f"internal error: {exc}", status=500)
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, Any], Dict[str, str], bytes]]:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        # HTTP allows only ASCII digits here; ``int`` would also take a
        # sign, underscores or non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ProtocolError(f"bad content-length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"content-length {length} exceeds the {MAX_BODY_BYTES}-byte "
                f"body limit",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path, query, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, Any],
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            if path == "/healthz" and method == "GET":
                self._write_json(writer, 200, self._healthz())
                return
            if path == "/v1/jobs":
                if method == "POST":
                    self._submit(writer, headers, body)
                    return
                if method == "GET":
                    views = self.table.list_views(tenant=query.get("tenant"))
                    self._write_json(
                        writer,
                        200,
                        {
                            "api_version": API_VERSION,
                            "jobs": [asdict(v) for v in views],
                        },
                    )
                    return
                raise ProtocolError(f"{method} not allowed here", status=405)
            parts = path.strip("/").split("/")
            if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
                job_id = parts[2]
                tail = parts[3] if len(parts) > 3 else None
                if len(parts) > 4:
                    raise ProtocolError(f"no route {path!r}", status=404)
                await self._job_route(method, job_id, tail, writer)
                return
            raise ProtocolError(f"no route {path!r}", status=404)
        except ProtocolError as exc:
            self._write_error(writer, exc)

    async def _job_route(
        self,
        method: str,
        job_id: str,
        tail: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> None:
        if tail is None:
            if method == "GET":
                self._write_json(writer, 200, asdict(self.table.view(job_id)))
                return
            if method == "DELETE":
                self._write_json(writer, 200, asdict(self.table.cancel(job_id)))
                return
            raise ProtocolError(f"{method} not allowed here", status=405)
        if tail == "cancel" and method == "POST":
            self._write_json(writer, 200, asdict(self.table.cancel(job_id)))
            return
        if method != "GET":
            raise ProtocolError(f"{method} not allowed here", status=405)
        if tail == "result":
            self._write_json(writer, 200, self._result_payload(job_id))
            return
        if tail == "figure":
            job = self.table.get(job_id)
            if job.kind != "figure":
                raise ProtocolError(
                    f"job {job_id!r} is a {job.kind!r} job, not a figure",
                    status=409,
                )
            self._write_json(writer, 200, figure_to_dict(self.table.result_of(job_id)))
            return
        if tail == "events":
            await self._stream_events(writer, job_id)
            return
        raise ProtocolError(f"no route for {tail!r}", status=404)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _submit(
        self, writer: asyncio.StreamWriter, headers: Dict[str, str], body: bytes
    ) -> None:
        data = parse_body(body)
        if isinstance(data, dict) and "tenant" not in data:
            tenant = headers.get("x-tenant")
            if tenant:
                data["tenant"] = tenant
        view = self.table.submit(read_body(SubmitRequest, data))
        self._write_json(writer, 201, asdict(view))

    def _result_payload(self, job_id: str) -> Dict[str, Any]:
        job = self.table.get(job_id)
        result = self.table.result_of(job_id)
        if job.kind == "run":
            return result_to_dict(result)
        if job.kind == "sweep":
            return sweep_envelope(result)
        return figure_to_dict(result)

    def _healthz(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "status": "ok",
            "api_version": API_VERSION,
            "uptime_s": round(time.time() - self._started_s, 3),
            "jobs": self.table.stats(),
        }
        if self.table.cache is not None:
            payload["cache"] = {
                "hits": self.table.cache.hits,
                "misses": self.table.cache.misses,
            }
        return payload

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        stream = self.table.get(job_id).stream  # 404 before the 200 head
        writer.write(
            (
                f"HTTP/1.1 200 OK\r\n"
                f"content-type: {SSE_CONTENT_TYPE}\r\n"
                f"cache-control: no-cache\r\n"
                f"connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        backlog, queue = stream.subscribe()
        try:
            for event, data, seq in backlog:
                writer.write(sse_frame(event, data, seq))
            await writer.drain()
            while queue is not None:
                frame = await queue.get()
                if frame is None:
                    break
                writer.write(sse_frame(frame[0], frame[1], frame[2]))
                await writer.drain()
        finally:
            if queue is not None:
                stream.unsubscribe(queue)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _write_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    def _write_error(
        self, writer: asyncio.StreamWriter, exc: ProtocolError
    ) -> None:
        view = ErrorView(
            status=exc.status,
            error=_REASONS.get(exc.status, "Error"),
            detail=exc.detail if hasattr(exc, "detail") else str(exc),
        )
        self._write_json(writer, exc.status, asdict(view))


async def _serve_async(config: ServerConfig) -> None:
    server = JobServer(config)
    await server.start()
    host, port = config.host, server.port
    cache_note = (
        "cache off"
        if config.no_cache
        else f"cache {config.cache_dir or default_cache_dir()}"
    )
    print(
        f"ecgrid serve: http://{host}:{port} (api v{API_VERSION}, "
        f"{config.concurrency} job thread(s), "
        f"{config.sweep_workers} sweep worker(s)/job, "
        f"quota {config.max_active_per_tenant}/tenant, {cache_note})"
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # loop shutdown
        pass
    finally:
        await server.stop()


def serve(config: Optional[ServerConfig] = None) -> int:
    """Blocking entry point behind ``ecgrid serve``."""
    try:
        asyncio.run(_serve_async(config or ServerConfig()))
    except KeyboardInterrupt:
        print("ecgrid serve: interrupted, shutting down")
    return 0
