"""Fault-tolerant job runner: checkpointed tiled/strip generation.

The paper's headline claim — successive computation of arbitrarily long
surfaces (Section 2.4, eqn 36) — at production scale means runs that
outlive worker crashes and process restarts.  This module ties the
resilient executor (:func:`repro.parallel.executor.generate_tiled` with
``retry=``) to the durable :class:`~repro.jobs.checkpoint.JobCheckpoint`
state:

* :func:`run_tiled` / :func:`run_spec` execute a plan into a
  :class:`~repro.io.store.SurfaceStore` — the caller's, or one the
  checkpoint creates for itself — whose chunk bitmap records completed
  tiles; any failure (injected or real) leaves a resumable checkpoint
  behind.  A job given no store returns its heights in RAM, in the
  generator's dtype.
* :func:`resume` finishes a checkpointed job — skipping completed tiles
  and recomputing the rest — with heights **bit-identical** to an
  uninterrupted run, because tile values are pure functions of
  ``(generator, noise seed, tile)``.
* :func:`status` summarises a checkpoint without touching the noise
  plane.

A strip job is a tiled job on :func:`repro.parallel.tiles.strip_plan`
(one tile per strip), the plan
:func:`repro.parallel.streaming.stream_strips` walks too — so it
inherits every backend and the whole retry machinery, and its output
equals ``assemble_strips(stream_strips(...))`` bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .. import obs
from ..core.rng import BlockNoise
from ..core.surface import Surface
from ..parallel.executor import generate_tiled
from ..parallel.tiles import TilePlan
from .checkpoint import (STORE_DIR, JobCheckpoint, check_new,
                         generator_fingerprint)
from .faults import FaultPlan
from .retry import RetryPolicy

__all__ = ["run_tiled", "run_spec", "resume", "status"]

PathLike = Union[str, Path]


def _execute(
    ckpt: JobCheckpoint,
    generator: Any,
    noise: BlockNoise,
    plan: TilePlan,
    *,
    backend: str,
    workers: Optional[int],
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    resumed: bool,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Run ``plan`` into the checkpoint's store.

    Progress is the store's chunk bitmap, which its writer marks and
    persists; the manifest is written only on a status change.  On
    *any* failure (including ``KeyboardInterrupt``) it is written with
    ``status="failed"`` before the exception propagates, so the run is
    always resumable.  ``on_tile`` (serve job trackers) fires as each
    tile is handed to the store's writer.
    """
    if resumed:
        # this process owns the job now: a live resume of a killed job
        # must read as running, not stale (nor failed)
        ckpt.write(status="running")
    policy = retry if retry is not None else (ckpt.retry or RetryPolicy())
    skip = ckpt.done_indices()
    if obs.enabled():
        obs.add("jobs.resumes" if resumed else "jobs.runs")
    obs.event(
        "jobs.run.start",
        kind=ckpt.manifest["kind"], backend=backend,
        resumed=resumed, tiles_skipped=len(skip),
        checkpoint=str(ckpt.path),
    )
    span = obs.trace("jobs.run", {
        "kind": ckpt.manifest["kind"], "backend": backend,
        "resumed": resumed, "tiles_skipped": len(skip),
    } if obs.enabled() else None)
    try:
        with span:
            if backend == "dist":
                # dist workers build the generator from the job's spec
                from ..dist.executor import generate_dist  # imports jobs

                if ckpt.spec is None:
                    raise ValueError("backend 'dist' runs the job's spec; "
                                     "this job records none")
                surface = generate_dist(dataclasses.replace(
                    ckpt.spec, faults=fault_plan.to_dicts()
                    if fault_plan is not None else []), ckpt.store,
                    workers=workers or 2, retry=policy, on_tile=on_tile)
            else:
                surface = generate_tiled(
                    generator, noise, plan,
                    backend=backend, workers=workers,
                    retry=policy, fault_plan=fault_plan,
                    out=ckpt.store, skip=skip, on_tile=on_tile,
                )
    except BaseException as exc:
        ckpt.manifest["error"] = repr(exc)
        ckpt.write(status="failed")
        if ckpt.owns_store:
            ckpt.store.close()
        obs.event(
            "jobs.run.failed", level="error",
            kind=ckpt.manifest["kind"], backend=backend,
            error=repr(exc), checkpoint=str(ckpt.path),
        )
        raise
    ckpt.manifest["error"] = None
    ckpt.manifest["resilience"] = surface.provenance.get("resilience")
    ckpt.write(status="complete")
    if ckpt.owns_store:
        # the caller asked for no store: hand the heights back in RAM,
        # in the generator's dtype (a float32 tile survives the float64
        # store exactly)
        surface = dataclasses.replace(surface, heights=np.array(
            ckpt.store.heights(),
            dtype=getattr(generator, "dtype", np.float64)))
        surface.provenance.pop("store", None)
        ckpt.store.close()
    obs.event(
        "jobs.run.finish",
        kind=ckpt.manifest["kind"], backend=backend,
        resumed=resumed, checkpoint=str(ckpt.path),
    )
    surface.provenance["job"] = {
        "checkpoint": str(ckpt.path),
        "resumed": resumed,
        "tiles_resumed": len(skip),
        "retry": policy.to_dict(),
    }
    return surface


def run_tiled(
    generator: Any,
    noise: BlockNoise,
    plan: TilePlan,
    *,
    checkpoint: PathLike,
    backend: str = "serial",
    workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    store: Optional[Any] = None,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Checkpointed tiled generation (resilient ``generate_tiled``).

    Parameters mirror :func:`repro.parallel.executor.generate_tiled`;
    additionally ``checkpoint`` names a fresh directory for the durable
    state.  A job started from a live generator records no spec, so
    :func:`resume` must be given the generator again
    (:func:`run_spec` records one).  Heights stream to a
    store whose chunk grid equals the plan: ``store`` (a
    :class:`repro.io.store.SurfaceStore`, left open, and the returned
    surface holds its read-only memmap), or else one the checkpoint
    creates under ``checkpoint/store`` (the returned heights are then
    an in-RAM array in the generator's dtype).  The manifest is written
    only on a status change, and resume skips the chunks the store's
    persisted bitmap records.  ``on_tile(index, tile)`` fires in the
    parent as each tile is handed to the store's writer.
    """
    policy = retry if retry is not None else RetryPolicy()
    ckpt = JobCheckpoint.create(
        checkpoint, kind="tiled", plan=plan, noise=noise,
        backend=backend, workers=workers, retry=policy,
        generator=generator, store=store,
    )
    return _execute(
        ckpt, generator, noise, plan,
        backend=backend, workers=workers, retry=policy,
        fault_plan=fault_plan, resumed=False, on_tile=on_tile,
    )


def run_spec(
    spec: Any,
    *,
    checkpoint: PathLike,
    backend: str = "serial",
    workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    store: Optional[Any] = None,
    on_tile: Optional[Any] = None,
    verify: bool = False,
) -> Surface:
    """Execute a :class:`~repro.core.spec.GenerationSpec` as a
    checkpointed tiled job.

    The spec is the single source of truth: generator, noise plane and
    tile plan are all materialised from it, and it is recorded as the
    checkpoint's ``"spec"``.  When ``store`` is not passed explicitly,
    a ``spec.store_path`` creates the out-of-core sink through
    :meth:`~repro.core.spec.GenerationSpec.create_store` (left open:
    closing fsyncs the whole heights file) once the checkpoint is known
    to be new; with neither, the job writes the checkpoint's own store,
    as in :func:`run_tiled`.  Any two calls with an equal spec produce
    bit-identical heights on every backend, ``"dist"`` included; this
    is what ``job run`` (flags or ``--spec``) and the ``repro.serve``
    front door run.

    ``verify=True`` runs the :mod:`repro.verify` streaming pass after
    generation, gating the job's store against the spec's spectrum.  The
    ``repro.verify/v1`` report is checkpointed as ``verify.json`` next
    to the job manifest and attached to ``surface.provenance["verify"]``;
    a failing report does not raise — callers decide what a red gate
    means (the CLI exits non-zero, serve surfaces it per job).
    """
    from ..core.spec import SpecError

    if spec.plan is None:
        raise SpecError("plan", "spec-driven jobs are tiled; give the "
                                "spec a plan (or a 'tile' shorthand)")
    generator = spec.build_generator()
    check_new(checkpoint)
    if store is None and spec.store_path:
        store = spec.create_store()
    policy = retry if retry is not None else RetryPolicy()
    if fault_plan is None and spec.faults:
        fault_plan = FaultPlan.from_dicts(spec.faults)
    plan, noise = spec.tile_plan(), spec.noise()
    ckpt = JobCheckpoint.create(
        checkpoint, kind="tiled", plan=plan, noise=noise,
        backend=backend, workers=workers, retry=policy,
        generator=generator, spec=spec, store=store,
    )
    surface = _execute(
        ckpt, generator, noise, plan,
        backend=backend, workers=workers, retry=policy,
        fault_plan=fault_plan, resumed=False, on_tile=on_tile,
    )
    if verify:
        from ..verify import REPORT_NAME, verify_store, write_report

        report = verify_store(
            store if store is not None
            else Path(checkpoint) / STORE_DIR, spec.spectrum)
        write_report(report, Path(checkpoint) / REPORT_NAME)
        surface.provenance["verify"] = report.to_dict()
    return surface


def resume(
    path: PathLike,
    generator: Any = None,
    *,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_generator: bool = True,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Finish a checkpointed job; bit-identical to an uninterrupted run.

    Loads the checkpoint, skips completed tiles, recomputes the rest
    (on ``backend`` if given, else the recorded one — the choice cannot
    change the values) and returns the completed surface.  When
    ``generator`` is omitted it is built from the recorded spec; when
    it is given and ``check_generator`` is true, its fingerprint
    must match the recorded one — resuming under a different
    configuration would silently weld two different surfaces together.
    """
    ckpt = JobCheckpoint.load(path)
    if generator is None:
        if ckpt.spec is None:
            raise ValueError(
                "checkpoint records no spec (the job was started from a "
                "live generator); pass generator= to resume()"
            )
        generator = ckpt.spec.build_generator()
    elif check_generator:
        recorded = (ckpt.manifest.get("generator") or {}).get("fingerprint")
        actual = generator_fingerprint(generator)
        if recorded is not None and recorded != actual:
            raise ValueError(
                f"generator fingerprint {actual} does not match the "
                f"checkpoint's {recorded}; pass check_generator=False "
                f"only if you are certain the configuration is identical"
            )
    return _execute(
        ckpt, generator, ckpt.noise, ckpt.plan,
        backend=backend or ckpt.manifest.get("backend", "serial"),
        workers=workers if workers is not None
        else ckpt.manifest.get("workers"),
        retry=retry, fault_plan=fault_plan, resumed=True, on_tile=on_tile,
    )


def status(path: PathLike) -> Dict[str, Any]:
    """Summarise a checkpoint (status, progress, accounting) as a dict."""
    return JobCheckpoint.load(path).summary()
