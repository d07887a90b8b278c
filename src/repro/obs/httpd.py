"""Opt-in HTTP exposition: ``/metrics``, ``/status``, ``/health``.

A tiny stdlib ``http.server`` wrapper the coordinator (or any
long-running job) starts as a daemon thread::

    server = StatusServer(status_fn=coord.status_snapshot,
                          metrics_fn=coord.metrics_snapshot)
    host, port = server.start()
    ...
    server.stop()

* ``GET /metrics`` — Prometheus text (``repro.obs.export``) rendered
  from ``metrics_fn()``'s ``Metrics.as_dict()`` payload;
* ``GET /status``  — the ``status_fn()`` dict as JSON (the
  ``repro.obs.status/v1`` schema when served by a coordinator);
* ``GET /health``  — ``{"ok": true}`` liveness probe;
* anything else    — 404.

:func:`exposition_reply` builds those three replies; ``HEAD`` gets the
``GET`` headers without the body.  The serve front door
(:mod:`repro.serve.server`) routes the same three paths through it, so
both servers answer them identically.

Handlers call the snapshot functions on the *serving* thread, so those
functions must be cheap and internally locked (the coordinator's are).
Binding to port 0 picks an OS-assigned port, reported by
:meth:`StatusServer.start` — the same contract as the coordinator's
listener.  Serving never mutates run state: a scrape can slow a run
down (it holds the coordinator lock for a snapshot), never change its
bytes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .export import prometheus_text

__all__ = ["StatusServer", "exposition_reply"]

JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4"


def _json(doc: Any) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


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


class _Handler(BaseHTTPRequestHandler):
    # set per-server via type() subclassing in StatusServer
    status_fn: Callable[[], Dict[str, Any]]
    metrics_fn: Callable[[], Mapping[str, Any]]
    extra_gauges_fn: Optional[Callable[[], Mapping[str, float]]]
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        reply = exposition_reply(self.command, self.path, self.status_fn,
                                 self.metrics_fn, self.extra_gauges_fn)
        if reply is None:
            path = self.path.split("?", 1)[0]
            reply = (404, JSON_TYPE,
                     _json({"error": "not found", "path": path}))
        code, content_type, body = reply
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)
        except BrokenPipeError:
            pass  # client went away mid-reply; nothing to salvage

    do_HEAD = do_GET

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # scrapes every few seconds would drown real output


class StatusServer:
    """Serve run status over HTTP from a daemon thread.

    Parameters
    ----------
    status_fn:
        Returns the ``/status`` JSON document (must be cheap; called
        per request on the serving thread).
    metrics_fn:
        Returns a ``Metrics.as_dict()``-shaped mapping for ``/metrics``.
    extra_gauges_fn:
        Optional extra gauge samples merged into ``/metrics`` (derived
        values like progress/ETA that live outside the registry).
    """

    def __init__(
        self,
        status_fn: Callable[[], Dict[str, Any]],
        metrics_fn: Callable[[], Mapping[str, Any]],
        *,
        extra_gauges_fn: Optional[Callable[[], Mapping[str, float]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {
            "status_fn": staticmethod(status_fn),
            "metrics_fn": staticmethod(metrics_fn),
            "extra_gauges_fn": (staticmethod(extra_gauges_fn)
                                if extra_gauges_fn is not None else None),
        })
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return (str(host), int(port))

    def start(self) -> Tuple[str, int]:
        """Begin serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("status server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            # stop() returns only after the loop's next poll; a short
            # poll keeps a run's shutdown from waiting on it (0.2 s
            # cost ~0.1 s per stop)
            kwargs={"poll_interval": 0.02},
            name="obs-status-http", daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None
