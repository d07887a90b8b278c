"""The dist coordinator: lease server + completion ledger over a store.

One coordinator owns one run: it listens on a TCP address, hands every
connecting worker the :class:`~repro.core.spec.GenerationSpec`, leases tiles
through a :class:`~repro.dist.lease.LeaseLedger`, and is the *only*
process that marks and persists the store's chunk bitmap.  Workers are
stateless and interchangeable; all run state that matters lives in the
ledger (in memory) and the store (on disk), which is what makes the
fault story compositional:

- **Worker crash**: its connection drops, its leases re-queue
  immediately, another worker recomputes the tiles.  Values are pure
  functions of ``(recipe, seed, tile)``, so recomputation is
  bit-identical.
- **Duplicate lease** (straggler raced a re-lease): both writers wrote
  identical bytes; the ledger marks once and counts a duplicate.
- **Coordinator crash**: the persisted bitmap undercounts (marks are
  persisted only after completion reports, bitmap before manifest), so
  a restarted coordinator re-leases at most the unpersisted tail —
  never trusts an unwritten chunk.

Concurrency model: one daemon thread per client connection, every
ledger/store/recorder mutation under a single coordinator lock.  The
protocol is request/reply per worker, so per-connection handlers are
straight-line loops and the lock is held only between frames, never
across a blocking recv of another client.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..io.store import SurfaceStore
from ..jobs.retry import RetryPolicy
from ..obs.events import event, new_run_id
from ..obs.httpd import HttpServer
from ..parallel.executor import _merge_tile_provenance
from ..parallel.tiles import TilePlan
from ..core.spec import GenerationSpec
from . import protocol
from .lease import LeaseLedger
from .status import RunTracker

__all__ = ["Coordinator"]


class Coordinator:
    """Serve one distributed run over ``store`` according to ``spec``.

    Usage::

        coord = Coordinator(spec, plan, store, n_shards=workers)
        host, port = coord.start()
        ... point workers at (host, port) ...
        summary = coord.serve()     # blocks; raises on failed runs

    ``serve`` raises the same exceptions as the single-host resilient
    executor (:class:`TileFailedError`, :class:`FailureBudgetExceeded`)
    so :mod:`repro.jobs` handles both paths identically.  A ``store``
    that records another run than ``spec`` is refused with a
    :class:`~repro.core.spec.SpecError` before anything is written.
    """

    def __init__(
        self,
        spec: GenerationSpec,
        plan: TilePlan,
        store: SurfaceStore,
        *,
        policy: Optional[RetryPolicy] = None,
        lease_timeout_s: float = 30.0,
        n_shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        persist_every: int = 8,
        on_tile: Optional[Callable[[int, Any], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        run_id: Optional[str] = None,
        heartbeat_s: Optional[float] = None,
        status_port: Optional[int] = None,
        status_host: str = "127.0.0.1",
    ) -> None:
        store.validate_plan(plan)
        spec.check_store(store)  # never continue another run's store
        if not store.owns_ledger:
            raise ValueError(
                "the coordinator must own the store ledger "
                "(open the store with ledger=True)"
            )
        self.spec = spec
        self.plan = plan
        self.store = store
        self.tiles = plan.tiles()
        self.ledger = LeaseLedger(
            store.done, self.tiles,
            policy=policy, lease_timeout_s=lease_timeout_s,
            shards=plan.shards(max(1, n_shards)),
        )
        self._host = host
        self._port = port
        self._persist_every = max(1, int(persist_every))
        self._on_tile = on_tile
        self._clock = clock
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._finished = threading.Event()
        self._error: Optional[BaseException] = None
        self._next_worker = 0
        self._workers_connected = 0
        self._since_persist = 0
        self._seconds_in_tiles = 0.0
        self.cache_delta = {"hits": 0, "misses": 0}
        self.prov_agg: Dict[str, Any] = {}
        # -- telemetry plane (all opt-in; off = zero protocol change) --
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be positive, got {heartbeat_s}"
            )
        self.run_id = run_id if run_id is not None else new_run_id()
        self.heartbeat_s = heartbeat_s
        self.tracker = RunTracker(run_id=self.run_id,
                                  heartbeat_s=heartbeat_s, clock=clock)
        self._status_server: Optional[HttpServer] = None
        self._status_port = status_port
        self._status_host = status_host
        # welcome payload is identical for every worker; build it once
        self._spec_wire = spec.to_wire()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, start accepting, and return the bound ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("coordinator already started")
        self._listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        self._host, self._port = self._listener.getsockname()[:2]
        if self.ledger.all_done():
            self._finished.set()  # resumed run with nothing left to do
        if self._status_port is not None:
            server = HttpServer(
                self.status_snapshot, self.metrics_snapshot,
                extra_gauges_fn=self._status_gauges,
                host=self._status_host, port=self._status_port,
            )
            try:
                server.start_thread()
            except BaseException:
                self._listener.close()
                self._listener = None
                raise
            self._status_server = server
        event("dist.run.start", run=self.run_id,
              tiles=len(self.tiles),
              pending=self.ledger.pending_count(),
              host=self._host, port=self._port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        return (self._host, self._port)

    @property
    def status_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the status server, or ``None``."""
        if self._status_server is None:
            return None
        return self._status_server.address

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    def abort(self, exc: BaseException) -> None:
        """Fail the run: remember ``exc``, wake :meth:`serve`, and make
        every subsequent worker request an ``abort`` reply."""
        with self._lock:
            if self._error is None:
                self._error = exc
        self._finished.set()

    def serve(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the run completes, fails, or ``timeout`` passes.

        On success returns the run summary (ledger counters, cache
        deltas, wall/compute seconds); on failure persists progress and
        re-raises the run's error; on timeout raises ``TimeoutError``
        (the run keeps its state — callers may retry).
        """
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"distributed run incomplete after {timeout} s "
                f"({self.ledger.pending_count()} tiles pending)"
            )
        try:
            with self._lock:
                self.store.persist_progress()
                error = self._error
            self._fsync_heights()
            if error is not None:
                raise error
            return self.summary()
        finally:
            self._shutdown()

    # -- internals ---------------------------------------------------------
    def _fsync_heights(self) -> None:
        """Make every worker's height write durable.

        fsync flushes an inode's dirty pages regardless of which fd
        (or process) wrote them, so one coordinator-side fsync covers
        all shared-store workers on this host.
        """
        try:
            fd = os.open(self.store.heights_path, os.O_RDWR)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _shutdown(self) -> None:
        event("dist.run.finish", run=self.run_id,
              state="failed" if self._error is not None else "complete",
              pending=self.ledger.pending_count())
        listener, self._listener = self._listener, None
        if listener is not None:
            try:  # close() alone does not wake a thread blocked in accept()
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        server, self._status_server = self._status_server, None
        if server is not None:
            server.stop_thread()
        # handlers are daemons; give orderly worker goodbyes a moment
        for t in list(self._handlers):
            t.join(timeout=5.0)

    def _accept_loop(self) -> None:
        listener = self._listener  # local ref: _shutdown nulls the attribute
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed; run is over
            with self._lock:
                ord_ = self._next_worker
                self._next_worker += 1
            t = threading.Thread(
                target=self._serve_client, args=(conn, ord_),
                name=f"dist-client-{ord_}", daemon=True,
            )
            # start before publishing: _shutdown may join any listed
            # handler, and joining an unstarted thread raises
            t.start()
            self._handlers.append(t)

    def _serve_client(self, conn: socket.socket, ord_: int) -> None:
        worker = f"w{ord_}"
        # generous per-frame timeout: a healthy worker computing a tile
        # is silent for at most one lease lifetime
        conn.settimeout(max(4 * self.ledger.lease_timeout_s, 60.0))
        try:
            with conn:
                hello = protocol.recv_json(conn)
                if (hello.get("type") != "hello"
                        or hello.get("protocol") != protocol.PROTOCOL_VERSION):
                    protocol.send_json(conn, {
                        "type": "abort",
                        "error": (
                            f"protocol mismatch: coordinator speaks "
                            f"{protocol.PROTOCOL_VERSION}, worker said "
                            f"{hello.get('protocol')!r}"
                        ),
                    })
                    return
                shard = self.ledger.shard_for(ord_)
                with self._lock:
                    self._workers_connected += 1
                    self.tracker.worker_connected(worker, self._clock())
                    if obs.enabled():
                        obs.set_gauge("dist.workers", self._workers_connected)
                welcome = {
                    "type": "welcome", "worker": worker, "shard": shard,
                    "spec": self._spec_wire,
                }
                if self.heartbeat_s is not None:
                    welcome["heartbeat_s"] = self.heartbeat_s
                protocol.send_json(conn, welcome)
                event("dist.worker.join", run=self.run_id,
                      worker=worker, shard=shard)
                self._message_loop(conn, worker, shard)
        except (protocol.PeerGone, protocol.ProtocolError,
                socket.timeout, OSError):
            pass  # lost worker; leases below
        finally:
            with self._lock:
                self._workers_connected -= 1
                released = self.ledger.release_worker(worker, self._clock())
                self.tracker.worker_gone(worker, self._clock())
                if obs.enabled():
                    obs.set_gauge("dist.workers", self._workers_connected)
                    if released:
                        obs.add("dist.worker_releases")
                        obs.add("dist.leases_released", len(released))
            event("dist.worker.leave", run=self.run_id, worker=worker,
                  leases_released=len(released),
                  level="warn" if released else "info")

    def _message_loop(self, conn: socket.socket, worker: str,
                      shard: int) -> None:
        while True:
            msg = protocol.recv_json(conn)
            kind = msg.get("type")
            if kind == "lease":
                reply = self._handle_lease(worker, shard)
            elif kind == "complete":
                heights = None
                if msg.get("heights_follow"):
                    fkind, payload = protocol.recv_frame(conn)
                    if fkind != protocol.KIND_BINARY:
                        raise protocol.ProtocolError(
                            "complete promised heights but sent JSON"
                        )
                    heights = payload
                reply = self._handle_complete(worker, msg, heights)
            elif kind == "failed":
                reply = self._handle_failed(worker, msg)
            elif kind == "heartbeat":
                reply = self._handle_heartbeat(worker, msg)
            else:
                raise protocol.ProtocolError(
                    f"unexpected message type {kind!r} from {worker}"
                )
            protocol.send_json(conn, reply)
            if reply["type"] in ("done", "abort"):
                return

    def _handle_lease(self, worker: str, shard: int) -> Dict[str, Any]:
        with self._lock:
            if self._error is not None:
                return {"type": "abort", "error": repr(self._error)}
            now = self._clock()
            verdict, detail = self.ledger.request(worker, shard, now)
            if verdict == "grant":
                self.tracker.lease_granted(worker, detail.index,
                                           detail.attempt, now)
                if obs.enabled():
                    obs.add("dist.leases_granted")
                    obs.set_gauge("dist.pending_tiles",
                                  self.ledger.pending_count())
                event("dist.lease.grant", run=self.run_id, level="debug",
                      worker=worker, tile=detail.index,
                      attempt=detail.attempt)
                return {
                    "type": "grant",
                    "tile": detail.index,
                    "attempt": detail.attempt,
                    "deadline_s": self.ledger.lease_timeout_s,
                }
            if verdict == "complete":
                return {"type": "done"}
            self.tracker.heartbeat(worker, now)  # waiting worker is alive
            return {"type": "wait", "seconds": detail}

    def _handle_heartbeat(self, worker: str, msg: Dict[str, Any]
                          ) -> Dict[str, Any]:
        """Fold one heartbeat into the live tracker; ack (or abort).

        Heartbeats may carry a drained obs payload (counter deltas
        accumulated since the last report); folding it here instead of
        waiting for the completion report keeps ``/metrics`` live
        during long tiles.  Drain payloads partition the counters, so
        run totals stay deterministic whether a delta arrived in a
        heartbeat or the final ``complete``.
        """
        with self._lock:
            if self._error is not None:
                return {"type": "abort", "error": repr(self._error)}
            self.tracker.heartbeat(
                worker, self._clock(),
                tile=msg.get("tile"), attempt=msg.get("attempt"),
                tiles_done=msg.get("tiles_done"),
                busy_s=msg.get("busy_s"),
            )
            if obs.enabled():
                obs.add("dist.heartbeats")
                payload = msg.get("obs")
                if payload:
                    obs.get_recorder().merge_wire(payload)
        return {"type": "ack"}

    def _handle_complete(self, worker: str, msg: Dict[str, Any],
                         heights: Optional[bytes]) -> Dict[str, Any]:
        idx = int(msg["tile"])
        x0, y0, nx, ny = self.store.chunk_window(idx)
        shipped = None
        if heights is not None:
            expect = nx * ny * self.store.dtype.itemsize
            if len(heights) != expect:
                raise protocol.ProtocolError(
                    f"tile {idx} shipped {len(heights)} bytes; "
                    f"expected {expect}"
                )
            shipped = np.frombuffer(heights, dtype=self.store.dtype
                                    ).reshape(nx, ny)
        with self._lock:
            if self._error is not None:
                return {"type": "abort", "error": repr(self._error)}
            now = self._clock()
            # peek, don't mark yet: ship-mode bytes must land first so
            # the bitmap never claims an unwritten chunk
            already = bool(self.store.done[idx])
            if shipped is not None and not already:
                self.store.write_window(x0, y0, shipped, mark=False)
                if obs.enabled():
                    obs.add("dist.bytes_shipped", len(heights))
            first = self.ledger.complete(idx, worker, now)
            self.tracker.tile_completed(
                worker, now, seconds=float(msg.get("seconds", 0.0)),
                first=first,
            )
            if first:
                self._absorb_report(msg)
                if self._on_tile is not None:
                    self._on_tile(idx, self.tiles[idx])
                self._since_persist += 1
                if (self._since_persist >= self._persist_every
                        or self.ledger.all_done()):
                    self.store.persist_progress()
                    self._since_persist = 0
                if obs.enabled():
                    obs.add("dist.tiles_completed")
                    obs.set_gauge("dist.pending_tiles",
                                  self.ledger.pending_count())
                event("dist.tile.complete", run=self.run_id, level="debug",
                      worker=worker, tile=idx,
                      seconds=round(float(msg.get("seconds", 0.0)), 4))
            elif obs.enabled():
                obs.add("dist.duplicate_completions")
            if self.ledger.all_done():
                self._finished.set()
                return {"type": "done"}
        return {"type": "ack"}

    def _absorb_report(self, msg: Dict[str, Any]) -> None:
        """Fold one completion report into run-level accounting
        (coordinator lock held)."""
        cache = msg.get("cache") or {}
        self.cache_delta["hits"] += int(cache.get("hits", 0))
        self.cache_delta["misses"] += int(cache.get("misses", 0))
        self._seconds_in_tiles += float(msg.get("seconds", 0.0))
        _merge_tile_provenance(self.prov_agg, msg.get("prov"))
        payload = msg.get("obs")
        if payload and obs.enabled():
            obs.get_recorder().merge_wire(payload)

    def _handle_failed(self, worker: str, msg: Dict[str, Any]
                       ) -> Dict[str, Any]:
        idx = int(msg["tile"])
        error = str(msg.get("error", "unknown error"))
        event("dist.tile.failed", run=self.run_id, level="warn",
              worker=worker, tile=idx, error=error)
        with self._lock:
            if self._error is not None:
                return {"type": "abort", "error": repr(self._error)}
            if obs.enabled():
                obs.add("dist.tile_failures")
            self.tracker.heartbeat(worker, self._clock())
            try:
                self.ledger.fail(idx, worker, error, self._clock())
            except BaseException as exc:
                self._error = exc
                self._finished.set()
                event("dist.run.abort", run=self.run_id, level="error",
                      error=repr(exc))
                return {"type": "abort", "error": repr(exc)}
        return {"type": "ack"}

    # -- telemetry read side ----------------------------------------------
    def status_snapshot(self) -> Dict[str, Any]:
        """The live ``repro.obs.status/v1`` document (HTTP ``/status``).

        Tile counts come from the store bitmap — the durable ledger —
        not from any counter the tracker keeps, so a scrape and a
        resume always agree on what is actually done.
        """
        with self._lock:
            if self._error is not None:
                state = "failed"
            elif self.ledger.all_done():
                state = "complete"
            else:
                state = "running"
            return self.tracker.snapshot(
                tiles_total=len(self.tiles),
                tiles_done=int(self.store.done.sum()),
                leased=len(self.ledger.leases),
                lease_summary=self.ledger.summary(),
                state=state,
                now=self._clock(),
            )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The installed recorder's registry (HTTP ``/metrics`` body).

        With recording off this is the null recorder's empty registry;
        ``/metrics`` still carries run progress via the derived gauges
        in :meth:`_status_gauges`.
        """
        return obs.get_recorder().metrics.as_dict()

    def _status_gauges(self) -> Dict[str, float]:
        """Derived samples exposed on ``/metrics`` even when obs is off."""
        doc = self.status_snapshot()
        gauges = {
            "dist.status.tiles_total": float(doc["tiles"]["total"]),
            "dist.status.tiles_done": float(doc["tiles"]["done"]),
            "dist.status.tiles_pending": float(doc["tiles"]["pending"]),
            "dist.status.tiles_leased": float(doc["tiles"]["leased"]),
            "dist.status.progress": float(doc["progress"]),
            "dist.status.elapsed_s": float(doc["elapsed_s"]),
            "dist.status.workers": float(len(doc["workers"])),
        }
        if doc["throughput_tiles_per_s"] is not None:
            gauges["dist.status.throughput_tiles_per_s"] = float(
                doc["throughput_tiles_per_s"]
            )
        if doc["eta_s"] is not None:
            gauges["dist.status.eta_s"] = float(doc["eta_s"])
        return gauges

    # -- accounting --------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The run's provenance block (``dist`` section + cache sums)."""
        with self._lock:
            return {
                "lease": self.ledger.summary(),
                "lease_timeout_s": self.ledger.lease_timeout_s,
                "shards": self.ledger.n_shards,
                "workers_seen": self._next_worker,
                "seconds_in_tiles": self._seconds_in_tiles,
                "plan_cache": dict(self.cache_delta),
                "provenance": dict(self.prov_agg),
            }
