"""``SurfaceService``: the serve front door's HTTP-free core.

Everything the HTTP layer does is a thin translation onto this class,
so the whole job lifecycle — spec validation, tenant admission, small-
request batching, store-backed big jobs, chunk reads — is testable
without sockets.

Job taxonomy
------------
*Small* jobs (single-tile convolution specs at or below
``ServeConfig.small_max_elems`` output elements, no store) run through
the :class:`~repro.serve.batch.Batcher`: concurrent requests sharing a
spectrum collapse onto one engine pass and the results live in RAM.

*Big* jobs run through the :mod:`repro.jobs` checkpoint layer on a
thread pool: each gets a checkpoint directory (making every serve job
resumable with ``repro-rrs job resume``) and — above
``ServeConfig.store_threshold_elems`` or when the spec names a
``store_path`` — an out-of-core :class:`~repro.io.store.SurfaceStore`
sink, from which clients range-read chunks without the server ever
materialising the surface.

Admission control is per tenant (the ``X-Tenant`` header upstream):
at most ``tenant_max_active`` jobs of a tenant execute concurrently and
at most ``tenant_max_queued`` more may wait; beyond that, submission
raises :class:`TenantBusy`, which the HTTP layer maps to
``429 Too Many Requests`` + ``Retry-After``.

Heights served from a store are **bit-identical** to a direct
:func:`~repro.parallel.executor.generate_tiled` run of the same spec,
and batched small results are bit-identical to solo windowed
generation — the spec pins the bytes, the execution strategy never
does.
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.spec import GenerationSpec, SpecError
from ..dist.status import STATUS_SCHEMA
from ..io.store import SurfaceStore
from .batch import Batcher, BatchItem

__all__ = ["ServeConfig", "SurfaceService", "TenantBusy", "JOB_STATES"]

JOB_STATES = ("queued", "running", "complete", "failed")


class TenantBusy(Exception):
    """Per-tenant admission limits are exhausted; retry later."""

    def __init__(self, tenant: str, retry_after_s: float, detail: str) -> None:
        super().__init__(detail)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


@dataclass
class ServeConfig:
    """Service tuning knobs (all defaults are test-friendly)."""

    data_dir: Path
    tenant_max_active: int = 2       # concurrently executing jobs/tenant
    tenant_max_queued: int = 8       # additionally waiting jobs/tenant
    retry_after_s: float = 1.0       # advertised backoff on 429
    batch_linger_s: float = 0.005    # small-request pile-on window
    batch_max: int = 64              # largest single engine pass
    small_max_elems: int = 1 << 18   # <= 512^2 outputs are batch-eligible
    store_threshold_elems: int = 1 << 24   # > 16M elems auto-stream to store
    workers: int = 2                 # big-job thread pool size
    backend: str = "serial"          # inner backend for big jobs
    inner_workers: Optional[int] = None


@dataclass
class _Job:
    """Mutable job record; guarded by the service lock."""

    id: str
    tenant: str
    spec: GenerationSpec
    small: bool
    state: str = "queued"
    created_s: float = field(default_factory=time.monotonic)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    error_field: Optional[str] = None
    tiles_total: int = 1
    tiles_done: int = 0
    result: Optional[np.ndarray] = None
    result_meta: Dict[str, Any] = field(default_factory=dict)
    store_dir: Optional[Path] = None
    checkpoint_dir: Optional[Path] = None
    reader: Optional[SurfaceStore] = None
    verify_report: Optional[Dict[str, Any]] = None


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class SurfaceService:
    """Job manager behind the serve HTTP API (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        (self.data_dir / "jobs").mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._pending: List[_Job] = []          # big jobs awaiting a slot
        self._running: Dict[str, int] = {}      # tenant -> active count
        self._pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="serve-job"
        )
        self._batcher = Batcher(
            linger_s=config.batch_linger_s, max_batch=config.batch_max
        )
        self._batcher.start()
        self._generators: "OrderedDict[str, Any]" = OrderedDict()
        self._started_s = time.monotonic()
        self._started_at = _utc_stamp()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop accepting work, drain the batcher, release readers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.stop()
        self._pool.shutdown(wait=True)
        with self._lock:
            for job in self._jobs.values():
                if job.reader is not None:
                    job.reader.close()
                    job.reader = None

    # -- submission ----------------------------------------------------

    def submit(self, payload: Any, tenant: str = "public") -> Dict[str, Any]:
        """Admit one spec document; returns the job document.

        Raises :class:`~repro.core.spec.SpecError` on an invalid spec
        and :class:`TenantBusy` when the tenant's limits are exhausted.
        """
        if isinstance(payload, (bytes, str)):
            spec = GenerationSpec.from_json(
                payload.decode() if isinstance(payload, bytes) else payload
            )
        elif isinstance(payload, GenerationSpec):
            spec = payload
        else:
            spec = GenerationSpec.from_dict(payload)
        if spec.faults:
            raise SpecError("faults", "fault injection is not accepted "
                                      "over the serve API")
        spec = self._normalise(spec)
        job = _Job(
            id=uuid.uuid4().hex[:12],
            tenant=str(tenant or "public"),
            spec=spec,
            small=self._batch_eligible(spec),
            tiles_total=len(spec.tile_plan()),
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            self._admit(job.tenant)
            self._jobs[job.id] = job
            if job.small:
                self._running[job.tenant] = (
                    self._running.get(job.tenant, 0) + 1
                )
            else:
                self._pending.append(job)
        obs.event("serve.submit", job=job.id, tenant=job.tenant,
                  small=job.small, tiles=job.tiles_total)
        obs.add("serve.jobs_submitted")
        if job.small:
            self._submit_small(job)
        else:
            self._pump()
        return self.job_doc(job.id)

    def _admit(self, tenant: str) -> None:
        """Enforce the per-tenant inflight ceiling (lock held)."""
        limit = (self.config.tenant_max_active
                 + self.config.tenant_max_queued)
        inflight = sum(
            1 for j in self._jobs.values()
            if j.tenant == tenant and j.state in ("queued", "running")
        )
        if inflight >= limit:
            obs.add("serve.rejected_busy")
            raise TenantBusy(
                tenant, self.config.retry_after_s,
                f"tenant {tenant!r} has {inflight} jobs in flight "
                f"(limit {limit}); retry after "
                f"{self.config.retry_after_s:g}s",
            )

    def _normalise(self, spec: GenerationSpec) -> GenerationSpec:
        """The effective spec the service executes.

        Serve is always *windowed* (tiled over the unbounded noise
        plane): a spec without a plan gets the single-tile plan
        covering its grid, so every served surface is bit-identical to
        ``generate_tiled`` of the same spec regardless of size — the
        one-shot periodic path is a CLI/library concern, not a serving
        mode.  Big outputs with no explicit ``store_path`` are assigned
        an out-of-core store under the service data dir.
        """
        if spec.plan is None:
            nx, ny = spec.grid_shape
            spec = replace(spec, plan={
                "total_nx": nx, "total_ny": ny,
                "tile_nx": nx, "tile_ny": ny,
                "origin_x": 0, "origin_y": 0,
            })
        return spec

    def _batch_eligible(self, spec: GenerationSpec) -> bool:
        plan = spec.plan or {}
        single_tile = (plan.get("tile_nx", 0) >= plan.get("total_nx", 1)
                       and plan.get("tile_ny", 0) >= plan.get("total_ny", 1))
        nx, ny = spec.grid_shape
        return (spec.generator.get("kind") == "convolution"
                and single_tile
                and spec.store_path is None
                and plan.get("total_nx", nx) * plan.get("total_ny", ny)
                <= self.config.small_max_elems)

    # -- small (batched) path ------------------------------------------

    def _generator_for(self, spec: GenerationSpec) -> Any:
        """Per-recipe generator cache (kernel construction is not free;
        the kernel-plan cache underneath is process-global already)."""
        key = json.dumps(spec.generator, sort_keys=True)
        with self._lock:
            gen = self._generators.get(key)
            if gen is not None:
                self._generators.move_to_end(key)
                return gen
        gen = spec.build_generator()
        with self._lock:
            self._generators[key] = gen
            while len(self._generators) > 32:
                self._generators.popitem(last=False)
        return gen

    def _submit_small(self, job: _Job) -> None:
        plan = job.spec.plan
        window = (int(plan.get("origin_x", 0)), int(plan.get("origin_y", 0)),
                  int(plan["total_nx"]), int(plan["total_ny"]))
        job.state = "running"
        job.started_s = time.monotonic()

        def on_done(heights: np.ndarray, meta: Dict[str, Any]) -> None:
            with self._lock:
                job.result = heights
                job.result_meta = meta
                job.tiles_done = job.tiles_total
                self._finish(job, "complete")

        def on_error(exc: BaseException) -> None:
            with self._lock:
                job.error = repr(exc)
                self._finish(job, "failed")

        try:
            generator = self._generator_for(job.spec)
        except Exception as exc:
            with self._lock:
                job.error = repr(exc)
                self._finish(job, "failed")
            return
        self._batcher.submit(BatchItem(
            generator=generator,
            seed=job.spec.seed,
            noise_block=job.spec.noise_block,
            window=window,
            on_done=on_done,
            on_error=on_error,
        ))

    # -- big (jobs-layer) path -----------------------------------------

    def _pump(self) -> None:
        """Move pending big jobs into the pool within tenant limits."""
        to_start: List[_Job] = []
        with self._lock:
            remaining: List[_Job] = []
            for job in self._pending:
                if (self._running.get(job.tenant, 0)
                        < self.config.tenant_max_active):
                    self._running[job.tenant] = (
                        self._running.get(job.tenant, 0) + 1
                    )
                    to_start.append(job)
                else:
                    remaining.append(job)
            self._pending = remaining
        for job in to_start:
            self._pool.submit(self._run_big, job)

    def _run_big(self, job: _Job) -> None:
        from ..jobs import run_spec

        job_dir = self.data_dir / "jobs" / job.id
        job_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            job.state = "running"
            job.started_s = time.monotonic()
            job.checkpoint_dir = job_dir / "ckpt"
        obs.event("serve.job.start", job=job.id, tenant=job.tenant)
        store: Optional[SurfaceStore] = None
        try:
            spec = job.spec
            wants_store = (spec.store_path is not None
                           or spec.plan["total_nx"] * spec.plan["total_ny"]
                           > self.config.store_threshold_elems)
            if wants_store:
                store_dir = Path(spec.store_path) if spec.store_path \
                    else job_dir / "store"
                store = spec.create_store(store_dir)
                with self._lock:
                    job.store_dir = store_dir

            def on_tile(_index: int, _tile) -> None:
                with self._lock:
                    job.tiles_done += 1

            surface = run_spec(
                spec, checkpoint=job.checkpoint_dir,
                backend=self.config.backend,
                workers=self.config.inner_workers,
                store=store, on_tile=on_tile,
            )
            with self._lock:
                job.tiles_done = job.tiles_total
                if store is None:
                    job.result = np.asarray(surface.heights)
                    job.result.flags.writeable = False
                job.result_meta = {"backend": self.config.backend}
                self._finish(job, "complete")
        except BaseException as exc:
            with self._lock:
                job.error = repr(exc)
                self._finish(job, "failed")
        finally:
            if store is not None:
                store.close()
            with self._lock:
                self._running[job.tenant] = max(
                    0, self._running.get(job.tenant, 0) - 1
                )
            self._pump()

    def _finish(self, job: _Job, state: str) -> None:
        """Terminal bookkeeping (lock held)."""
        job.state = state
        job.finished_s = time.monotonic()
        if job.small:
            self._running[job.tenant] = max(
                0, self._running.get(job.tenant, 0) - 1
            )
        obs.add("serve.jobs_" + state)
        obs.event("serve.job.finish", job=job.id, tenant=job.tenant,
                  state=state, error=job.error)

    # -- documents -----------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job {job_id!r}")
        return job

    def job_doc(self, job_id: str) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` document."""
        job = self._get(job_id)
        with self._lock:
            nx, ny = job.spec.grid_shape
            doc: Dict[str, Any] = {
                "id": job.id,
                "tenant": job.tenant,
                "state": job.state,
                "small": job.small,
                "spec": job.spec.to_dict(),
                "shape": [nx, ny],
                "tiles": {"total": job.tiles_total, "done": job.tiles_done},
                "error": job.error,
                "elapsed_s": self._elapsed(job),
                "store": (str(job.store_dir)
                          if job.store_dir is not None else None),
                "checkpoint": (str(job.checkpoint_dir)
                               if job.checkpoint_dir is not None else None),
                "result": None,
            }
            if job.state == "complete":
                if job.result is not None:
                    doc["result"] = {"kind": "inline",
                                     "dtype": str(job.result.dtype),
                                     **job.result_meta}
                else:
                    doc["result"] = {"kind": "store", **job.result_meta}
        return doc

    def list_docs(self) -> List[Dict[str, Any]]:
        with self._lock:
            ids = list(self._jobs)
        return [self.job_doc(i) for i in ids]

    @staticmethod
    def _elapsed(job: _Job) -> Optional[float]:
        if job.started_s is None:
            return None
        end = job.finished_s if job.finished_s is not None else time.monotonic()
        return end - job.started_s

    def job_status_doc(self, job_id: str) -> Dict[str, Any]:
        """Per-job ``repro.obs.status/v1`` document (for ``repro top``)."""
        job = self._get(job_id)
        with self._lock:
            total = job.tiles_total
            done = job.tiles_done
            elapsed = self._elapsed(job)
            state = {"queued": "pending"}.get(job.state, job.state)
            rate = (done / elapsed) if elapsed and done else None
            eta = ((total - done) / rate) if rate else None
            return {
                "schema": STATUS_SCHEMA,
                "run_id": job.id,
                "state": state,
                "source": "serve",
                "tiles": {"total": total, "done": done,
                          "pending": total - done, "leased": None},
                "progress": (done / total) if total else 1.0,
                "throughput_tiles_per_s": rate,
                "eta_s": eta,
                "elapsed_s": elapsed,
                "lease": {},
                "workers": [],
            }

    def status_doc(self) -> Dict[str, Any]:
        """Service-level ``/status`` document.

        Same ``repro.obs.status/v1`` schema the dist coordinator
        serves — tiles aggregate over every admitted job — plus a
        ``serve`` block with queue/tenant detail, so one ``repro top``
        dashboard covers dist and serve runs alike.
        """
        with self._lock:
            jobs = list(self._jobs.values())
            counts = {s: 0 for s in JOB_STATES}
            tenants: Dict[str, Dict[str, int]] = {}
            total = done = 0
            for job in jobs:
                counts[job.state] += 1
                total += job.tiles_total
                done += job.tiles_done
                t = tenants.setdefault(job.tenant, {"inflight": 0,
                                                    "jobs": 0})
                t["jobs"] += 1
                if job.state in ("queued", "running"):
                    t["inflight"] += 1
            return {
                "schema": STATUS_SCHEMA,
                "run_id": "serve",
                "state": "running",
                "source": "serve",
                "started_at": self._started_at,
                "tiles": {"total": total, "done": done,
                          "pending": total - done, "leased": None},
                "progress": (done / total) if total else 1.0,
                "throughput_tiles_per_s": None,
                "eta_s": None,
                "elapsed_s": time.monotonic() - self._started_s,
                "lease": {},
                "workers": [],
                "serve": {
                    "jobs": counts,
                    "tenants": tenants,
                    "limits": {
                        "tenant_max_active": self.config.tenant_max_active,
                        "tenant_max_queued": self.config.tenant_max_queued,
                    },
                },
            }

    def metrics_doc(self) -> Dict[str, Any]:
        """``Metrics.as_dict()``-shaped mapping for ``/metrics``."""
        if obs.enabled():
            return obs.get_recorder().metrics.as_dict()
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def extra_gauges(self) -> Dict[str, float]:
        with self._lock:
            states = {s: 0 for s in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
        return {f"serve.jobs.{s}": float(n) for s, n in states.items()}

    # -- reading results -----------------------------------------------

    def _reader(self, job: _Job) -> SurfaceStore:
        """A read-only store handle for serving (memmap, pages only)."""
        with self._lock:
            if job.reader is None:
                if job.store_dir is None:
                    raise KeyError(f"job {job.id} has no store")
                job.reader = SurfaceStore.open(job.store_dir, "r",
                                               ledger=False)
            return job.reader

    def chunk_meta(self, job_id: str) -> Dict[str, Any]:
        """Chunk-grid geometry for range-reading clients."""
        job = self._get(job_id)
        if job.store_dir is None:
            raise KeyError(f"job {job.id} has no store (inline result)")
        store = self._reader(job)
        ck_nx, ck_ny = store.chunk_shape
        n_cx, n_cy = store.n_chunks
        return {
            "id": job.id,
            "shape": list(store.shape),
            "chunk": [ck_nx, ck_ny],
            "chunk_grid": [n_cx, n_cy],
            "chunks_total": store.chunks_total,
            "dtype": "float64",
        }

    def read_chunk(self, job_id: str, index: int
                   ) -> Tuple[bytes, Dict[str, Any]]:
        """One completed chunk's raw little-endian float64 C-order bytes.

        Reads through the store's read-only memmap: the server's
        resident footprint stays O(chunk), however large the surface.
        """
        job = self._get(job_id)
        store = self._reader(job)
        n_chunks = store.chunks_total
        if not (0 <= index < n_chunks):
            raise KeyError(
                f"chunk {index} outside grid of {n_chunks} chunks"
            )
        if job.state != "complete":
            store.refresh_done()
            if not bool(store.done[index]):
                raise LookupError(
                    f"chunk {index} is not complete yet"
                )
        x0, y0, cnx, cny = store.chunk_window(index)
        window = store.read_window(x0, y0, cnx, cny)
        data = np.ascontiguousarray(window, dtype="<f8").tobytes()
        obs.add("serve.chunks_read")
        return data, {"index": index, "x0": x0, "y0": y0,
                      "nx": cnx, "ny": cny, "dtype": "<f8"}

    def heights_file(self, job_id: str) -> Tuple[Path, int]:
        """``(path, size)`` of the raw ``heights.npy`` for range-reads."""
        job = self._get(job_id)
        if job.store_dir is None:
            raise KeyError(f"job {job.id} has no store (inline result)")
        store = self._reader(job)
        path = Path(store.heights_path)
        return path, path.stat().st_size

    def verify_doc(self, job_id: str) -> Dict[str, Any]:
        """``repro.verify/v1`` report for a completed job, computed lazily.

        The first call runs the streaming verification pass (out of core
        for store-backed jobs: the report is also persisted next to the
        job's checkpoint as ``verify.json``); subsequent calls return the
        cached document.  Incomplete jobs raise :class:`LookupError`
        (mapped to 409 + Retry-After by the server), unknown jobs
        :class:`KeyError` (404).
        """
        job = self._get(job_id)
        if job.state == "failed":
            raise LookupError(f"job {job.id} failed: {job.error}")
        if job.state != "complete":
            raise LookupError(f"job {job.id} is {job.state}")
        with self._lock:
            if job.verify_report is not None:
                return job.verify_report
        from ..verify import (REPORT_NAME, verify_heights, verify_store,
                              write_report)

        spectrum = job.spec.spectrum
        if job.store_dir is not None:
            report = verify_store(self._reader(job), spectrum)
            if job.checkpoint_dir is not None:
                write_report(report, Path(job.checkpoint_dir) / REPORT_NAME)
        else:
            if job.result is None:
                raise KeyError(f"job {job.id} has no result to verify")
            grid = job.spec.grid
            report = verify_heights(np.asarray(job.result), spectrum,
                                    dx=grid.dx, dy=grid.dy)
        doc = report.to_dict()
        doc["id"] = job.id
        with self._lock:
            if job.verify_report is None:
                job.verify_report = doc
        obs.add("serve.verifies")
        return job.verify_report

    def result_npy(self, job_id: str) -> bytes:
        """The completed surface as ``.npy`` bytes (inline jobs only).

        Store-backed jobs refuse: materialising them would defeat the
        out-of-core design — clients stream ``/chunks`` or ``/heights``
        instead.
        """
        job = self._get(job_id)
        if job.state == "failed":
            raise LookupError(f"job {job.id} failed: {job.error}")
        if job.state != "complete":
            raise LookupError(f"job {job.id} is {job.state}")
        if job.result is None:
            raise KeyError(
                f"job {job.id} streams from a store; use /chunks or "
                f"/heights instead of /result"
            )
        buf = io.BytesIO()
        np.save(buf, np.asarray(job.result))
        return buf.getvalue()
