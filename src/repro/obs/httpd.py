"""The repo's one HTTP server: asyncio HTTP/1.1 with the exposition routes.

:class:`HttpServer` answers three paths from three snapshot functions;
the serve front door (:class:`repro.serve.server.ServeServer`) is the
same class plus the ``/v1/jobs`` routes, and the dist coordinator runs
one on a loop thread of its own (:meth:`HttpServer.start_thread`):

* ``GET /metrics`` — Prometheus text (``repro.obs.export``) rendered
  from ``metrics_fn()``'s ``Metrics.as_dict()`` payload;
* ``GET /status``  — the ``status_fn()`` dict as JSON (the
  ``repro.obs.status/v1`` schema);
* ``GET /health``  — ``{"ok": true}`` liveness probe;
* anything else    — 404 ``{"error": ..., "status": 404}``.

``HEAD`` gets the ``GET`` headers without the body.  The wire format
is hand-rolled: request line, headers, ``Content-Length`` bodies,
keep-alive.  Not here: chunked bodies (any ``Transfer-Encoding`` gets
a 501), TLS, pipelining, compression — a deployment puts a reverse
proxy in front.

Snapshot functions run on the event-loop thread, so they must be cheap
and internally locked (the coordinator's are).  Port 0 binds an
OS-assigned port, which ``start`` reports.  Serving never mutates run
state: a scrape can slow a run down, never change its bytes.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from .events import event
from .export import prometheus_text
from .recorder import enabled, trace

__all__ = ["HttpError", "HttpServer", "Request", "exposition_reply",
           "read_request", "response_head", "STATUS_REASONS"]

JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4"

#: Largest accepted request body (a spec document is a few KB; anything
#: bigger is a client error, not a workload).
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request line + header block.
MAX_HEAD_BYTES = 1 << 16

STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    416: "Range Not Satisfiable",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


def _json(doc: Any) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class HttpError(Exception):
    """An error reply with a status code and a JSON-able message.

    ``headers`` lets raisers attach reply headers — the tenant
    backpressure path uses it for ``Retry-After``.
    """

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 **extra) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.extra = extra


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        conn = (self.header("connection") or "").lower()
        if conn == "close":
            return False
        return True  # HTTP/1.1 default


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on input it cannot frame — 400 (malformed,
    or ``Content-Length`` headers that disagree), 413 (too large), 501
    (any ``Transfer-Encoding``) — and the caller replies and closes;
    raises ``asyncio.IncompleteReadError`` when the peer vanishes
    mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")
    headers: Dict[str, str] = {}
    lengths: Set[str] = set()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            lengths.add(value)
        headers[name] = value
    # a body framed any other way than one Content-Length would leave
    # this reader and a proxy in front of it disagreeing about where
    # the next request starts
    if "transfer-encoding" in headers:
        raise HttpError(501, "Transfer-Encoding is not supported; "
                             "send a Content-Length body")
    if len(lengths) > 1:
        raise HttpError(400, f"conflicting Content-Length headers "
                             f"{sorted(lengths)}")
    body = b""
    if lengths:
        (length_text,) = lengths
        if not (length_text.isascii() and length_text.isdigit()):
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds "
                                 f"the {MAX_BODY_BYTES} byte limit")
        body = await reader.readexactly(length)
    return Request(method=method.upper(), path=path, query=query,
                   headers=headers, body=body)


def response_head(status: int, headers: Dict[str, str]) -> bytes:
    """Serialise the status line + headers (callers append the body)."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def exposition_reply(
    method: str,
    path: str,
    status_fn: Callable[[], Dict[str, Any]],
    metrics_fn: Callable[[], Mapping[str, Any]],
    extra_gauges_fn: Optional[Callable[[], Mapping[str, float]]] = None,
) -> Optional[Tuple[int, str, bytes]]:
    """``(code, content_type, body)`` for ``/health``, ``/status``, ``/metrics``.

    Returns ``None`` for any other path so the caller can route it.
    The query string and trailing slashes are ignored; methods other
    than ``GET``/``HEAD`` get a 405.  A snapshot function that raises
    becomes a 500 reply instead of taking the server down.
    """
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path not in ("/health", "/status", "/metrics"):
        return None
    if method not in ("GET", "HEAD"):
        doc = {"error": f"method {method} not allowed", "status": 405}
        return 405, JSON_TYPE, _json(doc)
    try:
        if path == "/health":
            return 200, JSON_TYPE, _json({"ok": True})
        if path == "/status":
            return 200, JSON_TYPE, _json(status_fn())
        extra = extra_gauges_fn() if extra_gauges_fn is not None else None
        text = prometheus_text(metrics_fn(), extra_gauges=extra)
        return 200, PROMETHEUS_TYPE, text.encode()
    except Exception as exc:  # snapshot bug: report, don't kill serve
        return 500, JSON_TYPE, _json({"error": repr(exc), "status": 500})


class HttpServer:
    """Serve ``/health``, ``/status`` and ``/metrics`` over asyncio.

    Parameters
    ----------
    status_fn:
        Returns the ``/status`` JSON document (must be cheap; called
        per request on the event-loop thread).
    metrics_fn:
        Returns a ``Metrics.as_dict()``-shaped mapping for ``/metrics``.
    extra_gauges_fn:
        Optional extra gauge samples merged into ``/metrics`` (derived
        values like progress/ETA that live outside the registry).

    Run it on a loop the caller owns (``await start()`` … ``await
    close()``) or on a background loop thread of its own
    (:meth:`start_thread` … :meth:`stop_thread`).  Subclasses add
    routes by overriding :meth:`_dispatch`.
    """

    #: Prefix of the ``<prefix>.request`` span recorded around each
    #: request (attrs: method, path) and the ``<prefix>.listen`` /
    #: ``<prefix>.error`` events.
    obs_prefix = "http"

    def __init__(
        self,
        status_fn: Callable[[], Dict[str, Any]],
        metrics_fn: Callable[[], Mapping[str, Any]],
        *,
        extra_gauges_fn: Optional[Callable[[], Mapping[str, float]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.status_fn = status_fn
        self.metrics_fn = metrics_fn
        self.extra_gauges_fn = extra_gauges_fn
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- lifecycle on the caller's loop --------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        event(f"{self.obs_prefix}.listen", host=self.host, port=self.port)
        return self.host, self.port

    async def close(self) -> None:
        """Stop listening and cancel every open connection's handler."""
        if self._server is None:
            return
        self._server.close()
        await asyncio.sleep(0)  # let just-accepted connections register
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
        # on 3.12+ this also waits for the connections cancelled above
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- lifecycle on a loop thread of its own -------------------------

    def start_thread(self) -> Tuple[str, int]:
        """Bind, then serve from a daemon event-loop thread.

        Binds on the calling thread, so a bind error (say, the port is
        in use) raises here and no thread is left behind.  Returns the
        bound ``(host, port)``.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        loop = asyncio.new_event_loop()
        try:
            address = loop.run_until_complete(self.start())
        except BaseException:
            loop.close()
            raise
        self._loop = loop
        self._thread = threading.Thread(target=loop.run_forever,
                                        name="obs-http", daemon=True)
        self._thread.start()
        return address

    def stop_thread(self, timeout: float = 10.0) -> None:
        """Close the server, its connections and its loop; join the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        async def shutdown() -> None:
            await self.close()
            await loop.shutdown_default_executor()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            if not thread.is_alive():
                loop.close()
            self._loop = self._thread = None

    # -- connection loop -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    exc.headers.setdefault("Connection", "close")
                    await self._reply_error(writer, exc)
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                head_only = request.method == "HEAD"
                with trace(f"{self.obs_prefix}.request", {
                    "method": request.method, "path": request.path,
                } if enabled() else None):
                    try:
                        keep = await self._dispatch(request, writer)
                    except HttpError as exc:
                        await self._reply_error(writer, exc,
                                                head_only=head_only)
                        keep = request.keep_alive
                    except ConnectionError:
                        break
                    except Exception as exc:  # never kill the acceptor
                        event(f"{self.obs_prefix}.error", path=request.path,
                              error=repr(exc))
                        await self._reply_error(
                            writer,
                            HttpError(500, f"internal error: {exc!r}"),
                            head_only=head_only)
                        keep = False
                if not keep or not request.keep_alive:
                    break
        except asyncio.CancelledError:
            # close() ends the connection; end the task normally, since
            # 3.11's stream callback calls exception() on a cancelled one
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        reply = exposition_reply(request.method, request.path,
                                 self.status_fn, self.metrics_fn,
                                 self.extra_gauges_fn)
        if reply is None:
            raise HttpError(404, f"no route for {request.path!r}")
        code, content_type, body = reply
        return await self._reply(writer, code, body,
                                 content_type=content_type,
                                 head_only=request.method == "HEAD")

    # -- reply helpers -------------------------------------------------

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, status: int, body: bytes,
                     *, content_type: str = JSON_TYPE,
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
        return await self._reply(writer, status, _json(doc), headers=headers,
                                 head_only=head_only)

    async def _reply_error(self, writer: asyncio.StreamWriter,
                           exc: HttpError, *, head_only: bool = False) -> None:
        doc = {"error": exc.message, "status": exc.status, **exc.extra}
        try:
            await self._reply_json(writer, exc.status, doc,
                                   headers=exc.headers, head_only=head_only)
        except (ConnectionError, OSError):
            pass
