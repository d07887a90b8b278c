"""Fault-tolerant job runner: checkpointed tiled/strip generation.

The paper's headline claim — successive computation of arbitrarily long
surfaces (Section 2.4, eqn 36) — at production scale means runs that
outlive worker crashes and process restarts.  This module ties the
resilient executor (:func:`repro.parallel.executor.generate_tiled` with
``retry=``) to the durable :class:`~repro.jobs.checkpoint.JobCheckpoint`
state:

* :func:`run_tiled` / :func:`run_spec` execute a plan while recording
  completed tiles; any failure (injected or real) leaves a resumable
  checkpoint behind.
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

import itertools
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import obs
from ..core.rng import BlockNoise
from ..core.surface import Surface
from ..parallel.executor import generate_tiled
from ..parallel.tiles import TilePlan
from .checkpoint import JobCheckpoint, generator_fingerprint
from .faults import FaultPlan
from .retry import RetryPolicy

__all__ = ["run_tiled", "run_spec", "resume", "status",
           "generator_from_rebuild"]

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
    checkpoint_every: int,
    resumed: bool,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Run ``plan`` against the checkpoint, persisting progress.

    In-memory jobs mark completed tiles immediately and rewrite the
    checkpoint every ``checkpoint_every`` completions.  Store jobs leave
    progress to the store's chunk bitmap and write the manifest only on
    a status change.  On *any* failure (including ``KeyboardInterrupt``)
    the final state is flushed with ``status="failed"`` before the
    exception propagates, so the run is always resumable.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if backend == "dist" and ckpt.store is None:
        raise ValueError(
            "backend='dist' requires a store-backed job (store=): the "
            "store's chunk bitmap is the distributed completion ledger"
        )
    if resumed:
        # this process owns the job now: a live resume of a killed job
        # must read as running, not stale (nor failed)
        ckpt.write(status="running")
    policy = retry if retry is not None else (ckpt.retry or RetryPolicy())
    skip = ckpt.done_indices()
    # A store job's progress ledger is the store's chunk bitmap, which
    # its writer marks and persists, so per tile there is only the
    # caller's hook (serve job trackers), fired as the tile is handed to
    # the writer; the manifest is written only on a status change.
    record_tile = on_tile
    if ckpt.store is None:
        completions = itertools.count(1)

        def record_tile(index: int, tile) -> None:
            ckpt.mark_done(index)
            if next(completions) % checkpoint_every == 0:
                ckpt.write()
            if on_tile is not None:
                on_tile(index, tile)

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
            surface = generate_tiled(
                generator, noise, plan,
                backend=backend, workers=workers,
                retry=policy, fault_plan=fault_plan,
                out=ckpt.out_target, skip=skip, on_tile=record_tile,
                rebuild=ckpt.manifest.get("rebuild"),
            )
    except BaseException as exc:
        ckpt.manifest["error"] = repr(exc)
        ckpt.write(status="failed")
        obs.event(
            "jobs.run.failed", level="error",
            kind=ckpt.manifest["kind"], backend=backend,
            error=repr(exc), checkpoint=str(ckpt.path),
        )
        raise
    ckpt.manifest["error"] = None
    ckpt.manifest["resilience"] = surface.provenance.get("resilience")
    ckpt.write(status="complete")
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
    checkpoint_every: int = 1,
    rebuild: Optional[dict] = None,
    store: Optional[Any] = None,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Checkpointed tiled generation (resilient ``generate_tiled``).

    Parameters mirror :func:`repro.parallel.executor.generate_tiled`;
    additionally ``checkpoint`` names a fresh directory for the durable
    state, ``checkpoint_every`` sets how many completed tiles trigger a
    state flush of an in-memory job, and ``rebuild`` optionally records
    a recipe (spectrum or figure parameters) from which :func:`resume`
    can reconstruct the generator when the caller cannot pass one.
    ``store`` (a :class:`repro.io.store.SurfaceStore` whose chunk grid
    equals the plan) makes the job out-of-core: heights stream to the
    store, the checkpoint keeps no ``state.npz`` and writes its
    manifest only on a status change (``checkpoint_every`` does not
    apply), and resume skips the chunks the store's persisted bitmap
    records.  ``on_tile(index, tile)`` fires in the parent after each
    tile: for an in-memory job once the tile is marked, for a store job
    once it is handed to the store's writer.
    """
    policy = retry if retry is not None else RetryPolicy()
    ckpt = JobCheckpoint.create(
        checkpoint, kind="tiled", plan=plan, noise=noise,
        backend=backend, workers=workers, retry=policy,
        generator=generator, rebuild=rebuild, store=store,
    )
    return _execute(
        ckpt, generator, noise, plan,
        backend=backend, workers=workers, retry=policy,
        fault_plan=fault_plan, checkpoint_every=checkpoint_every,
        resumed=False, on_tile=on_tile,
    )


def _rebuild_truncation(rebuild: dict, default: float) -> Any:
    """The recipe's truncation spec, repaired after JSON round-trips.

    A fixed-footprint truncation is a ``(kx, ky)`` *tuple*, which JSON
    (checkpoint manifests, the dist wire) returns as a list —
    ``resolve_kernel`` dispatches on ``isinstance(..., tuple)``, so the
    list must be coerced back or it would be misread as an energy
    fraction and crash.
    """
    truncation = rebuild.get("truncation", default)
    if isinstance(truncation, list):
        if len(truncation) != 2:
            raise ValueError(
                f"truncation list must have two entries, got {truncation!r}"
            )
        return (truncation[0], truncation[1])
    return truncation


def generator_from_rebuild(rebuild: Optional[dict]) -> Any:
    """Reconstruct a generator from a ``rebuild`` recipe.

    Recipes are the JSON descriptions checkpoint manifests record and
    the dist protocol ships: enough to rebuild the generator with a
    matching fingerprint in any process on any host.
    """
    if not rebuild:
        raise ValueError(
            "checkpoint records no rebuild recipe; pass generator= to "
            "resume()"
        )
    kind = rebuild.get("kind")
    if kind == "convolution":
        from ..core.convolution import ConvolutionGenerator
        from ..core.grid import Grid2D
        from ..core.spectra import spectrum_from_dict

        g = rebuild["grid"]
        return ConvolutionGenerator(
            spectrum_from_dict(rebuild["spectrum"]),
            Grid2D(nx=g["nx"], ny=g["ny"], lx=g["lx"], ly=g["ly"]),
            truncation=_rebuild_truncation(rebuild, 0.9999),
            engine=rebuild.get("engine", "auto"),
            dtype=rebuild.get("dtype", "float64"),
        )
    if kind == "figure":
        from ..core.inhomogeneous import InhomogeneousGenerator
        from ..figures import default_grid, figure_layout

        grid = default_grid(rebuild["n"], rebuild["domain"])
        layout = figure_layout(rebuild["name"], rebuild["domain"])
        return InhomogeneousGenerator(
            layout, grid, truncation=_rebuild_truncation(rebuild, 0.999),
            engine=rebuild.get("engine", "auto"),
            dtype=rebuild.get("dtype", "float64"),
        )
    raise ValueError(f"unknown rebuild kind {kind!r}")


def run_spec(
    spec: Any,
    *,
    checkpoint: PathLike,
    backend: str = "serial",
    workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 1,
    store: Optional[Any] = None,
    on_tile: Optional[Any] = None,
    verify: bool = False,
) -> Surface:
    """Execute a :class:`~repro.core.spec.GenerationSpec` as a
    checkpointed tiled job.

    The spec is the single source of truth: generator, noise plane and
    tile plan are all materialised from it, its recipe is recorded as
    the checkpoint's ``rebuild``, and — when ``store`` is not passed
    explicitly — a ``spec.store_path`` creates the out-of-core sink
    through :meth:`~repro.core.spec.GenerationSpec.create_store` (left
    open: closing fsyncs the whole heights file).  Any two calls with an
    equal spec produce bit-identical heights on every backend; this is
    what ``job run`` (flags or ``--spec``) and the ``repro.serve``
    front door run.

    ``verify=True`` runs the :mod:`repro.verify` streaming pass after
    generation, gating the surface against the spec's spectrum.  The
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
    if store is None and spec.store_path:
        store = spec.create_store()
    if fault_plan is None and spec.faults:
        fault_plan = FaultPlan.from_dicts(spec.faults)
    surface = run_tiled(
        generator, spec.noise(), spec.tile_plan(),
        checkpoint=checkpoint, backend=backend, workers=workers,
        retry=retry, fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        rebuild=spec.generator, store=store, on_tile=on_tile,
    )
    if verify:
        from ..verify import (
            REPORT_NAME, verify_heights, verify_store, write_report,
        )

        spectrum = None
        if isinstance(spec.generator.get("spectrum"), dict):
            from ..core.spectra import spectrum_from_dict

            spectrum = spectrum_from_dict(spec.generator["spectrum"])
        if store is not None:
            report = verify_store(store, spectrum)
        else:
            grid = generator.grid
            report = verify_heights(
                surface.heights, spectrum, dx=grid.dx, dy=grid.dy)
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
    checkpoint_every: int = 1,
    check_generator: bool = True,
    on_tile: Optional[Any] = None,
) -> Surface:
    """Finish a checkpointed job; bit-identical to an uninterrupted run.

    Loads the checkpoint, skips completed tiles, recomputes the rest
    (on ``backend`` if given, else the recorded one — the choice cannot
    change the values) and returns the completed surface.  When
    ``generator`` is omitted the manifest's ``rebuild`` recipe is used;
    when it is given and ``check_generator`` is true, its fingerprint
    must match the recorded one — resuming under a different
    configuration would silently weld two different surfaces together.
    """
    ckpt = JobCheckpoint.load(path)
    if generator is None:
        generator = generator_from_rebuild(ckpt.manifest.get("rebuild"))
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
        retry=retry, fault_plan=fault_plan,
        checkpoint_every=checkpoint_every, resumed=True, on_tile=on_tile,
    )


def status(path: PathLike) -> Dict[str, Any]:
    """Summarise a checkpoint (status, progress, accounting) as a dict."""
    return JobCheckpoint.load(path).summary()
