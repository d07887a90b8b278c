"""The serve front door: an asyncio HTTP server over ``SurfaceService``.

Routing is a flat table of ``(method, path-pattern) -> handler``; every
handler translates one :class:`~repro.serve.service.SurfaceService`
call into a reply.  The event loop only ever parses requests, consults
the (lock-guarded, mostly O(1)) service bookkeeping, and streams bytes;
engine passes run on the batcher thread and big jobs on the service's
pool, so a slow surface never stalls another client's poll.

API (all JSON unless noted)::

    POST /v1/jobs                    submit a GenerationSpec  -> 202 job doc
    GET  /v1/jobs                    list job docs
    GET  /v1/jobs/{id}               one job doc
    GET  /v1/jobs/{id}/status        repro.obs.status/v1 doc (repro top)
    GET  /v1/jobs/{id}/chunks        chunk-grid geometry
    GET  /v1/jobs/{id}/chunks/{i}    raw <f8 C-order chunk bytes
    GET  /v1/jobs/{id}/heights       raw heights.npy, Range supported
    GET  /v1/jobs/{id}/result        .npy download (inline jobs only)
    GET  /status                     service-level status/v1 doc
    GET  /metrics                    Prometheus text
    GET  /health                     liveness

:class:`ServeServer` is :class:`repro.obs.httpd.HttpServer` — the
request reader, reply writer, keep-alive connection loop and the last
three routes — plus the ``/v1/jobs`` routes; the dist coordinator's
status port runs the same class without them.

Tenancy rides on the ``X-Tenant`` request header (default ``public``);
exhausted tenants get ``429`` with ``Retry-After``.  Error bodies are
``{"error": ..., "status": ...}`` with ``field`` added for spec
validation failures.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Optional, Tuple

from ..core.spec import SpecError
from ..obs.httpd import HttpError, HttpServer, Request, response_head
from .service import SurfaceService, TenantBusy

__all__ = ["ServeServer", "parse_range"]

#: Streamed-file write granularity: large enough to amortise syscalls,
#: small enough that ``drain()`` backpressure bounds per-client memory.
STREAM_CHUNK_BYTES = 1 << 20


def parse_range(header: Optional[str], size: int) -> Optional[Tuple[int, int]]:
    """Resolve a ``Range: bytes=`` header against ``size`` total bytes.

    Returns ``(offset, length)`` for a single satisfiable range,
    ``None`` when no range was requested (serve the whole entity), and
    raises ``HttpError(416)`` for unsatisfiable or multi-part ranges
    (multi-part is deliberately unsupported: chunk endpoints give
    clients aligned reads for free).
    """
    if header is None:
        return None
    if not header.startswith("bytes="):
        raise HttpError(416, f"unsupported range unit in {header!r}")
    spec = header[len("bytes="):]
    if "," in spec:
        raise HttpError(416, "multi-part ranges are not supported")
    start_text, sep, end_text = spec.partition("-")
    if not sep:
        raise HttpError(416, f"malformed range {header!r}")
    try:
        if not start_text:
            # suffix form: last N bytes
            length = int(end_text)
            if length <= 0:
                raise HttpError(416, f"empty range {header!r}")
            start = max(0, size - length)
            end = size - 1
        else:
            start = int(start_text)
            end = int(end_text) if end_text else size - 1
    except ValueError:
        raise HttpError(416, f"malformed range {header!r}")
    if start >= size or end < start:
        raise HttpError(416, f"range {header!r} outside entity "
                             f"of {size} bytes")
    end = min(end, size - 1)
    return start, end - start + 1


class ServeServer(HttpServer):
    """One listening socket bound to one :class:`SurfaceService`: the
    exposition routes of :class:`~repro.obs.httpd.HttpServer` plus
    ``/v1/jobs``."""

    obs_prefix = "serve"

    def __init__(self, service: SurfaceService, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(service.status_doc, service.metrics_doc,
                         extra_gauges_fn=service.extra_gauges,
                         host=host, port=port)
        self.service = service

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if parts[:2] != ["v1", "jobs"]:
            return await super()._dispatch(request, writer)
        handler: Optional[Callable[..., Awaitable[bool]]] = None
        args: tuple = ()
        rest = parts[2:]
        if not rest:
            handler = (self._h_submit if method == "POST"
                       else self._h_list)
        elif len(rest) == 1:
            handler, args = self._h_doc, (self.service.job_doc, rest[0])
        elif len(rest) == 2 and rest[1] == "status":
            handler, args = self._h_doc, (self.service.job_status_doc,
                                          rest[0])
        elif len(rest) == 2 and rest[1] == "chunks":
            handler, args = self._h_doc, (self.service.chunk_meta, rest[0])
        elif len(rest) == 3 and rest[1] == "chunks":
            handler, args = self._h_chunk, (rest[0], rest[2])
        elif len(rest) == 2 and rest[1] == "heights":
            handler, args = self._h_heights, (rest[0],)
        elif len(rest) == 2 and rest[1] == "result":
            handler, args = self._h_result, (rest[0],)
        elif len(rest) == 2 and rest[1] == "verify":
            handler, args = self._h_verify, (rest[0],)
        if handler is None:
            raise HttpError(404, f"no route for {request.path!r}")
        if method not in ("GET", "POST", "HEAD"):
            raise HttpError(405, f"method {method} not allowed")
        # bound methods compare by underlying function, not identity
        if method == "POST" and handler.__func__ is not ServeServer._h_submit:
            raise HttpError(405, "POST only accepted at /v1/jobs")
        return await handler(request, writer, *args)

    @staticmethod
    def _tenant(request: Request) -> str:
        return request.header("x-tenant") or "public"

    # -- handlers ------------------------------------------------------

    async def _h_submit(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        if not request.body:
            raise HttpError(400, "POST /v1/jobs requires a JSON spec body")
        loop = asyncio.get_running_loop()
        try:
            doc = await loop.run_in_executor(
                None, self.service.submit, request.body,
                self._tenant(request),
            )
        except SpecError as exc:
            raise HttpError(400, str(exc), field=exc.field)
        except TenantBusy as exc:
            raise HttpError(
                429, str(exc),
                headers={"Retry-After": f"{exc.retry_after_s:g}"},
                tenant=exc.tenant,
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}")
        return await self._reply_json(writer, 202, doc)

    async def _h_list(self, request: Request,
                      writer: asyncio.StreamWriter) -> bool:
        return await self._reply_json(
            writer, 200, {"jobs": self.service.list_docs()},
            head_only=request.method == "HEAD",
        )

    async def _h_doc(self, request: Request, writer: asyncio.StreamWriter,
                     doc_fn: Callable[[str], Any], job_id: str) -> bool:
        """Reply with ``doc_fn(job_id)``: a job, its status or its chunks."""
        try:
            doc = doc_fn(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        return await self._reply_json(writer, 200, doc,
                                      head_only=request.method == "HEAD")

    async def _h_chunk(self, request: Request, writer: asyncio.StreamWriter,
                       job_id: str, index_text: str) -> bool:
        try:
            index = int(index_text)
        except ValueError:
            raise HttpError(400, f"bad chunk index {index_text!r}")
        loop = asyncio.get_running_loop()
        try:
            data, meta = await loop.run_in_executor(
                None, self.service.read_chunk, job_id, index
            )
        except KeyError as exc:
            raise HttpError(404, str(exc))
        except LookupError as exc:
            # chunk exists but is not computed yet: retryable conflict
            raise HttpError(409, str(exc),
                            headers={"Retry-After": "1"})
        headers = {
            "X-Chunk-X0": str(meta["x0"]), "X-Chunk-Y0": str(meta["y0"]),
            "X-Chunk-NX": str(meta["nx"]), "X-Chunk-NY": str(meta["ny"]),
            "X-Dtype": meta["dtype"],
        }
        return await self._reply(writer, 200, data,
                                 content_type="application/octet-stream",
                                 headers=headers,
                                 head_only=request.method == "HEAD")

    async def _h_heights(self, request: Request,
                         writer: asyncio.StreamWriter, job_id: str) -> bool:
        """Range-read the raw heights file, streamed in bounded pieces.

        The file is read incrementally and written behind ``drain()``,
        so serving any slice of an arbitrarily large store costs the
        server O(STREAM_CHUNK_BYTES) memory per client.
        """
        try:
            path, size = self.service.heights_file(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        rng = parse_range(request.header("range"), size)
        if rng is None:
            status, offset, length = 200, 0, size
            headers = {"Content-Length": str(size)}
        else:
            offset, length = rng
            status = 206
            headers = {
                "Content-Length": str(length),
                "Content-Range": f"bytes {offset}-{offset + length - 1}"
                                 f"/{size}",
            }
        headers["Content-Type"] = "application/octet-stream"
        headers["Accept-Ranges"] = "bytes"
        writer.write(response_head(status, headers))
        if request.method != "HEAD":
            loop = asyncio.get_running_loop()
            with open(path, "rb") as fh:
                fh.seek(offset)
                remaining = length
                while remaining > 0:
                    piece = await loop.run_in_executor(
                        None, fh.read, min(STREAM_CHUNK_BYTES, remaining)
                    )
                    if not piece:
                        break  # truncated file; peer sees a short body
                    writer.write(piece)
                    await writer.drain()
                    remaining -= len(piece)
        await writer.drain()
        return True

    async def _h_result(self, request: Request,
                        writer: asyncio.StreamWriter, job_id: str) -> bool:
        loop = asyncio.get_running_loop()
        try:
            body = await loop.run_in_executor(
                None, self.service.result_npy, job_id
            )
        except KeyError as exc:
            raise HttpError(404, str(exc))
        except LookupError as exc:
            raise HttpError(409, str(exc), headers={"Retry-After": "1"})
        return await self._reply(writer, 200, body,
                                 content_type="application/octet-stream",
                                 head_only=request.method == "HEAD")

    async def _h_verify(self, request: Request,
                        writer: asyncio.StreamWriter, job_id: str) -> bool:
        # the streaming pass can take a moment on big stores — keep it
        # off the event loop (the result is cached in the job record)
        loop = asyncio.get_running_loop()
        try:
            doc = await loop.run_in_executor(
                None, self.service.verify_doc, job_id
            )
        except KeyError as exc:
            raise HttpError(404, str(exc))
        except LookupError as exc:
            raise HttpError(409, str(exc), headers={"Retry-After": "1"})
        return await self._reply_json(writer, 200, doc,
                                      head_only=request.method == "HEAD")

