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

The last three replies come from :func:`repro.obs.httpd.exposition_reply`,
the builder the coordinator's status server uses too.

Tenancy rides on the ``X-Tenant`` request header (default ``public``);
exhausted tenants get ``429`` with ``Retry-After``.  Error bodies are
``{"error": ..., "status": ...}`` with ``field`` added for spec
validation failures.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from .. import obs
from ..core.spec import SpecError
from ..obs.httpd import exposition_reply
from .http import HttpError, Request, parse_range, read_request, response_head
from .service import SurfaceService, TenantBusy

__all__ = ["ServeServer", "start_server"]

#: Streamed-file write granularity: large enough to amortise syscalls,
#: small enough that ``drain()`` backpressure bounds per-client memory.
STREAM_CHUNK_BYTES = 1 << 20


class ServeServer:
    """One listening socket bound to one :class:`SurfaceService`."""

    def __init__(self, service: SurfaceService, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        obs.event("serve.listen", host=self.host, port=self.port)
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection loop -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await self._reply_error(writer, exc)
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                try:
                    keep = await self._dispatch(request, writer)
                except HttpError as exc:
                    await self._reply_error(writer, exc)
                    keep = request.keep_alive
                except (ConnectionError, asyncio.CancelledError):
                    break
                except Exception as exc:  # never kill the acceptor
                    obs.event("serve.error", path=request.path,
                              error=repr(exc))
                    await self._reply_error(
                        writer, HttpError(500, f"internal error: {exc!r}")
                    )
                    keep = False
                if not keep or not request.keep_alive:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        handler: Optional[Callable[..., Awaitable[bool]]] = None
        args: tuple = ()
        reply = exposition_reply(method, path, self.service.status_doc,
                                 self.service.metrics_doc,
                                 self.service.extra_gauges)
        if reply is not None:
            code, content_type, body = reply
            return await self._reply(writer, code, body,
                                     content_type=content_type,
                                     head_only=method == "HEAD")
        if parts[:2] == ["v1", "jobs"]:
            rest = parts[2:]
            if not rest:
                handler = (self._h_submit if method == "POST"
                           else self._h_list)
            elif len(rest) == 1:
                handler, args = self._h_job, (rest[0],)
            elif len(rest) == 2 and rest[1] == "status":
                handler, args = self._h_job_status, (rest[0],)
            elif len(rest) == 2 and rest[1] == "chunks":
                handler, args = self._h_chunk_meta, (rest[0],)
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

    # -- reply helpers -------------------------------------------------

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, status: int, body: bytes,
                     *, content_type: str = "application/json",
                     headers: Optional[Dict[str, str]] = None,
                     head_only: bool = False) -> bool:
        hdrs = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Accept-Ranges": "bytes",
        }
        if headers:
            hdrs.update(headers)
        writer.write(response_head(status, hdrs))
        if not head_only:
            writer.write(body)
        await writer.drain()
        return True

    async def _reply_json(self, writer: asyncio.StreamWriter, status: int,
                          doc: Any, *, headers: Optional[Dict[str, str]] = None,
                          head_only: bool = False) -> bool:
        body = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        return await self._reply(writer, status, body, headers=headers,
                                 head_only=head_only)

    async def _reply_error(self, writer: asyncio.StreamWriter,
                           exc: HttpError) -> None:
        doc = {"error": exc.message, "status": exc.status, **exc.extra}
        try:
            await self._reply_json(writer, exc.status, doc,
                                   headers=exc.headers)
        except (ConnectionError, OSError):
            pass

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

    async def _h_job(self, request: Request, writer: asyncio.StreamWriter,
                     job_id: str) -> bool:
        try:
            doc = self.service.job_doc(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        return await self._reply_json(writer, 200, doc,
                                      head_only=request.method == "HEAD")

    async def _h_job_status(self, request: Request,
                            writer: asyncio.StreamWriter,
                            job_id: str) -> bool:
        try:
            doc = self.service.job_status_doc(job_id)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        return await self._reply_json(writer, 200, doc,
                                      head_only=request.method == "HEAD")

    async def _h_chunk_meta(self, request: Request,
                            writer: asyncio.StreamWriter,
                            job_id: str) -> bool:
        try:
            doc = self.service.chunk_meta(job_id)
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


async def start_server(service: SurfaceService, *, host: str = "127.0.0.1",
                       port: int = 0) -> ServeServer:
    """Create, bind and return a running :class:`ServeServer`."""
    server = ServeServer(service, host=host, port=port)
    await server.start()
    return server
