"""The dist worker: a stateless tile computer driven by lease grants.

A worker connects, says hello, receives the run's
:class:`~repro.core.spec.GenerationSpec`, rebuilds the generator from
its recipe (the same ``rebuild`` recipes :mod:`repro.jobs` checkpoints
— values are pure functions of the recipe, seed and tile, so any
worker anywhere computes identical bytes), then
loops: request a lease, compute the tile, deliver the heights, report.

Height delivery follows ``spec.access``: ``shared`` workers open the
store themselves with ``ledger=False`` (write windows, never touch the
bitmap — the coordinator owns completion); ``ship`` workers send the
raw float64 bytes as a binary frame after the ``complete`` message.

Per-tile observability mirrors the process backend exactly: when the
spec asks for it, the worker installs its own recorder and attaches
each tile's drained span/metric payload to the completion report, which
the coordinator merges into one run-level view.

This module is transport-complete but policy-free: *when* to retry,
*who* computes what, and *what counts as done* all live coordinator-side
in the lease ledger, so a malfunctioning worker can cost throughput but
never correctness.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..core.engine import plan_cache
from ..core.rng import BlockNoise
from ..io.store import SurfaceStore
from ..jobs.faults import FaultPlan
from ..parallel.executor import _slim_provenance, _traced_tile
from ..core.spec import GenerationSpec
from . import protocol

__all__ = ["run_worker", "connect"]


def connect(host: str, port: int, *, timeout_s: float = 30.0,
            retry_for_s: float = 10.0) -> socket.socket:
    """Dial the coordinator, retrying briefly while it binds.

    Workers are usually spawned a moment before (or after) the
    coordinator starts listening; a short connect-retry window makes
    startup order irrelevant without masking a genuinely absent
    coordinator.
    """
    deadline = time.monotonic() + retry_for_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            sock.settimeout(timeout_s)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


def run_worker(
    host: str,
    port: int,
    *,
    max_tiles: Optional[int] = None,
    timeout_s: float = 120.0,
) -> Dict[str, Any]:
    """Serve one coordinator until the run completes (or aborts).

    Returns a small summary (tiles computed, failures reported, exit
    reason).  ``max_tiles`` bounds this worker's contribution — useful
    for drain-and-rotate tests and capped scratch hosts.

    Raises :class:`repro.dist.protocol.ProtocolError` (or the socket
    errors it wraps) on a broken conversation; tile-level compute
    errors are *reported*, not raised — the coordinator decides whether
    the run survives them.
    """
    sock = connect(host, port, timeout_s=timeout_s)
    computed = failures = 0
    reason = "done"
    store: Optional[SurfaceStore] = None
    try:
        protocol.send_json(sock, {
            "type": "hello", "protocol": protocol.PROTOCOL_VERSION,
        })
        welcome = protocol.recv_json(sock)
        if welcome.get("type") == "abort":
            raise protocol.ProtocolError(
                f"coordinator refused: {welcome.get('error')}"
            )
        if welcome.get("type") != "welcome":
            raise protocol.ProtocolError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        spec = GenerationSpec.from_wire(welcome["spec"])
        heartbeat_s = welcome.get("heartbeat_s")
        busy_total = 0.0
        generator, noise, tiles = _materialise(spec)
        fault_plan = (FaultPlan.from_dicts(spec.faults)
                      if spec.faults else None)
        if spec.access == "shared":
            store = SurfaceStore.open(spec.store_path, "r+", ledger=False)
        if spec.obs and not obs.enabled():
            obs.install(obs.Recorder())
        while True:
            protocol.send_json(sock, {"type": "lease"})
            msg = protocol.recv_json(sock)
            kind = msg.get("type")
            if kind == "wait":
                time.sleep(float(msg.get("seconds", 0.1)))
                continue
            if kind == "done":
                break
            if kind == "abort":
                reason = f"abort: {msg.get('error')}"
                break
            if kind != "grant":
                raise protocol.ProtocolError(
                    f"expected grant/wait/done, got {kind!r}"
                )
            idx = int(msg["tile"])
            attempt = int(msg.get("attempt", 1))
            tile = tiles[idx]
            try:
                if heartbeat_s:
                    outcome = _compute_with_heartbeats(
                        sock, generator, noise, tile, fault_plan,
                        idx, attempt, heartbeat_s,
                        tiles_done=computed, busy_total=busy_total,
                    )
                    if isinstance(outcome, str):
                        reason = outcome  # coordinator aborted mid-tile
                        break
                    heights, prov, seconds, before, after = outcome
                else:
                    if fault_plan is not None:
                        fault_plan.fire(idx, attempt)
                    before = plan_cache.stats()
                    heights, prov, seconds = _traced_tile(
                        generator, noise, tile
                    )
                    after = plan_cache.stats()
                busy_total += seconds
            except BaseException as exc:
                failures += 1
                protocol.send_json(sock, {
                    "type": "failed", "tile": idx, "attempt": attempt,
                    "error": repr(exc),
                })
                reply = protocol.recv_json(sock)
                if reply.get("type") == "abort":
                    reason = f"abort: {reply.get('error')}"
                    break
                continue
            ship: Optional[bytes] = None
            if store is not None:
                # global -> store-local coordinates via the plan origin
                store.write_window(tile.x0 - spec.plan.get("origin_x", 0),
                                   tile.y0 - spec.plan.get("origin_y", 0),
                                   heights, mark=False)
            else:
                ship = np.ascontiguousarray(
                    heights, dtype=np.float64
                ).tobytes()
            rec = obs.get_recorder()
            payload = rec.drain() if rec.enabled else None
            protocol.send_json(sock, {
                "type": "complete",
                "tile": idx,
                "attempt": attempt,
                "seconds": seconds,
                "prov": _slim_provenance(prov),
                "cache": {"hits": after.hits - before.hits,
                          "misses": after.misses - before.misses},
                "obs": payload,
                "heights_follow": ship is not None,
            })
            if ship is not None:
                protocol.send_binary(sock, ship)
            reply = protocol.recv_json(sock)
            if reply.get("type") == "abort":
                reason = f"abort: {reply.get('error')}"
                break
            if reply.get("type") not in ("ack", "done"):
                raise protocol.ProtocolError(
                    f"expected ack, got {reply.get('type')!r}"
                )
            computed += 1
            if reply.get("type") == "done":
                break
            if max_tiles is not None and computed >= max_tiles:
                reason = "max_tiles"
                break
    finally:
        if store is not None:
            store.close()  # non-owner handle: fsyncs data, leaves ledger
        sock.close()
    return {"tiles": computed, "failures": failures, "reason": reason}


def _compute_with_heartbeats(
    sock: socket.socket,
    generator: Any,
    noise: BlockNoise,
    tile: Any,
    fault_plan: Optional[FaultPlan],
    idx: int,
    attempt: int,
    heartbeat_s: float,
    *,
    tiles_done: int,
    busy_total: float,
):
    """Compute one tile while heartbeating the coordinator.

    The tile runs in a background thread; this (socket-owning) thread
    wakes every ``heartbeat_s`` and sends a ``heartbeat`` frame with
    the worker's progress counters and a drained obs payload (counter
    deltas since the last report), expecting ``ack``.  The computation
    itself is byte-for-byte the inline path — only the thread it runs
    on changes, and the engine is a pure function of its inputs, so
    heartbeating can never change the surface.

    Returns ``(heights, prov, seconds, cache_before, cache_after)``, or
    the abort reason string if the coordinator aborted mid-tile.
    Re-raises the tile's compute exception (the caller reports it as
    ``failed``, exactly like the inline path).
    """
    box: Dict[str, Any] = {}

    def compute() -> None:
        try:
            if fault_plan is not None:
                fault_plan.fire(idx, attempt)
            before = plan_cache.stats()
            heights, prov, seconds = _traced_tile(generator, noise, tile)
            after = plan_cache.stats()
            box["value"] = (heights, prov, seconds, before, after)
        except BaseException as exc:  # delivered to the caller below
            box["error"] = exc

    worker = threading.Thread(
        target=compute, name=f"dist-tile-{idx}", daemon=True
    )
    t0 = time.monotonic()
    worker.start()
    while True:
        worker.join(heartbeat_s)
        if not worker.is_alive():
            break
        rec = obs.get_recorder()
        protocol.send_json(sock, {
            "type": "heartbeat",
            "tile": idx,
            "attempt": attempt,
            "tiles_done": tiles_done,
            "busy_s": busy_total + (time.monotonic() - t0),
            "obs": rec.drain() if rec.enabled else None,
        })
        reply = protocol.recv_json(sock)
        if reply.get("type") == "abort":
            return f"abort: {reply.get('error')}"
        if reply.get("type") != "ack":
            raise protocol.ProtocolError(
                f"expected heartbeat ack, got {reply.get('type')!r}"
            )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _materialise(spec: GenerationSpec) -> Tuple[Any, BlockNoise, list]:
    """Rebuild the generator/noise/tiles a run spec describes."""
    generator = spec.build_generator()
    return generator, spec.noise(), spec.tile_plan().tiles()
