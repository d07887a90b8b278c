"""``generate_dist``: the distributed counterpart of ``generate_tiled``.

Runs one coordinator in-process and N workers as independent OS
processes (``python -m repro dist worker --connect host:port``) — the
same subprocess shape they would have on remote hosts, so the localhost
test substrate exercises the real seam: process isolation, socket
transport, crash detection, respawn.

Responsibilities are split three ways:

- the :class:`~repro.dist.coordinator.Coordinator` owns scheduling and
  the completion ledger,
- workers own tile compute and height delivery,
- this module owns *process supervision*: spawning local workers,
  respawning dead ones up to ``RetryPolicy.max_respawns`` (the same
  budget the process backend spends on broken pools), and failing the
  run with :class:`~repro.parallel.executor.PoolRespawnLimit` when no
  workers remain — a coordinator with work left and nobody to lease it
  to must fail loudly, not hang.

On a multi-host deployment this module is replaced by the operator:
start ``repro-rrs dist coordinator`` on one host, ``repro-rrs dist
worker --connect`` on the others; everything below the CLI is identical.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..core.surface import Surface
from ..io.store import SurfaceStore
from ..jobs.retry import RetryPolicy
from ..parallel.executor import PoolRespawnLimit
from ..core.spec import GenerationSpec
from .coordinator import Coordinator

__all__ = ["generate_dist", "worker_command", "worker_environment"]


def worker_command(host: str, port: int) -> List[str]:
    """The argv that starts a local worker for ``(host, port)``."""
    return [
        sys.executable, "-m", "repro",
        "dist", "worker", "--connect", f"{host}:{port}",
    ]


def worker_environment() -> Dict[str, str]:
    """Environment for spawned workers: inherit, plus make this exact
    ``repro`` importable even when the parent runs from a source tree."""
    import repro

    pkg_parent = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_parent + os.pathsep + existing if existing else pkg_parent
    )
    return env


def generate_dist(
    spec: GenerationSpec,
    store: SurfaceStore,
    *,
    workers: int = 2,
    retry: Optional[RetryPolicy] = None,
    lease_timeout_s: float = 30.0,
    persist_every: int = 8,
    on_tile: Optional[Callable[[int, Any], None]] = None,
    host: str = "127.0.0.1",
    run_id: Optional[str] = None,
    heartbeat_s: Optional[float] = None,
    status_port: Optional[int] = None,
) -> Surface:
    """Generate ``spec`` (which must have a plan) into ``store`` with
    ``workers`` local worker processes scheduled by a lease coordinator.

    The dist path ships the spec, never a live generator, which is both
    what makes it host-agnostic and what guarantees every worker builds
    the exact configuration the spec describes.  Faults to inject
    travel in ``spec.faults``; the store path, ``access="shared"`` and
    the obs switch are set here.  A ``store`` recording another run is
    refused before any worker starts.

    Chunks already marked done in the store's bitmap are not
    recomputed, so calling this on a partially-written store *is*
    resume — the same contract as every other store-backed path.

    Returns a :class:`Surface` whose heights are the store's read-only
    memmap; bit-identical to the single-host tiled backends for the
    same spec.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plan = spec.tile_plan()
    policy = retry if retry is not None else RetryPolicy()
    spec = replace(spec, store_path=str(Path(store.path).resolve()),
                   access="shared", obs=obs.enabled())
    coordinator = Coordinator(
        spec, plan, store,
        policy=policy, lease_timeout_s=lease_timeout_s,
        n_shards=workers, host=host,
        persist_every=persist_every, on_tile=on_tile,
        run_id=run_id, heartbeat_s=heartbeat_s, status_port=status_port,
    )
    bound_host, port = coordinator.start()
    supervisor = _Supervisor(
        coordinator, worker_command(bound_host, port),
        worker_environment(), workers, policy,
    )
    run_span = obs.trace("dist.run", {
        "tiles": len(plan), "workers": workers,
    } if obs.enabled() else None)
    try:
        with run_span:
            supervisor.start()
            summary = coordinator.serve()
    finally:
        supervisor.stop()

    from ..core.grid import Grid2D

    dx = float(store.manifest["dx"])
    dy = float(store.manifest["dy"])
    grid = Grid2D(nx=plan.total_nx, ny=plan.total_ny,
                  lx=plan.total_nx * dx, ly=plan.total_ny * dy)
    provenance: Dict[str, Any] = {
        "method": "tiled",
        "backend": "dist",
        "tiles": len(plan),
        "noise_seed": spec.seed,
        "plan_cache": summary["plan_cache"],
        "dist": {
            "workers": workers,
            "respawns": supervisor.respawns,
            "lease": summary["lease"],
            "lease_timeout_s": summary["lease_timeout_s"],
            "shards": summary["shards"],
            "workers_seen": summary["workers_seen"],
            "seconds_in_tiles": summary["seconds_in_tiles"],
            "run_id": coordinator.run_id,
            "heartbeat_s": heartbeat_s,
        },
        "store": store.progress_summary(),
    }
    provenance.update(summary["provenance"])
    if obs.enabled() and run_span.duration_s > 0.0:
        obs.set_gauge(
            "dist.worker_utilization",
            summary["seconds_in_tiles"] / (workers * run_span.duration_s),
        )
    return Surface(
        heights=store.heights("r"),
        grid=grid,
        origin=(plan.origin_x * dx, plan.origin_y * dy),
        provenance=provenance,
    )


class _Supervisor:
    """Keep ``n`` local worker processes alive until the run finishes.

    A worker that exits non-zero mid-run (crash, kill fault, OOM) is
    replaced while the respawn budget lasts; the budget is shared
    across all workers, mirroring the process backend's pool-respawn
    accounting.  Workers exiting zero are never replaced — the
    coordinator releases a clean leaver's leases on disconnect, and a
    zero exit after the finish event is just the normal shutdown.
    """

    def __init__(self, coordinator: Coordinator, command: List[str],
                 env: Dict[str, str], n: int, policy: RetryPolicy) -> None:
        self._coordinator = coordinator
        self._command = command
        self._env = env
        self._n = n
        self._policy = policy
        self._procs: List[subprocess.Popen] = []
        self._thread: Optional[threading.Thread] = None
        self.respawns = 0

    def start(self) -> None:
        for _ in range(self._n):
            self._procs.append(self._spawn())
        self._thread = threading.Thread(
            target=self._watch, name="dist-supervisor", daemon=True
        )
        self._thread.start()

    def _spawn(self) -> subprocess.Popen:
        return subprocess.Popen(
            self._command, env=self._env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )

    def _watch(self) -> None:
        finished = self._coordinator._finished
        while not finished.wait(0.1):
            alive: List[subprocess.Popen] = []
            for proc in self._procs:
                code = proc.poll()
                if code is None:
                    alive.append(proc)
                    continue
                if code != 0 and not finished.is_set():
                    if self.respawns < self._policy.max_respawns:
                        self.respawns += 1
                        if obs.enabled():
                            obs.add("dist.worker_respawns")
                        alive.append(self._spawn())
            self._procs = alive
            if not self._procs and not finished.is_set():
                self._coordinator.abort(PoolRespawnLimit(
                    f"all dist workers exited with "
                    f"{self._coordinator.ledger.pending_count()} tiles "
                    f"pending and the respawn budget "
                    f"({self._policy.max_respawns}) spent"
                ))
                return

    def stop(self) -> None:
        """Reap workers: brief grace for orderly exits, then terminate."""
        deadline = time.monotonic() + 10.0
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
