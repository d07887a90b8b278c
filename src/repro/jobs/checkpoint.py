"""Durable on-disk job state: the ``repro.jobs/v1`` checkpoint format.

A checkpoint is a directory holding one atomically-written file,
``manifest.json``: everything needed to *re-derive* the run — the tile
plan, the noise plane's seed and block size, backend/workers, the retry
policy, a fingerprint of the generator's stable configuration, the
run's :class:`~repro.core.spec.GenerationSpec` document (``"spec"``,
which :func:`repro.jobs.resume` builds the generator from), retry/
respawn accounting, an observability counter snapshot, and the job
status (``running`` / ``failed`` / ``complete``).  A ``running``
manifest also names its ``owner`` (host and pid), so
:meth:`JobCheckpoint.summary` reports a job whose process is gone as
``stale``.  :meth:`JobCheckpoint.load` reads a manifest of an earlier
build, which holds a bare generator recipe, as a spec.

Every job writes its heights into a :class:`repro.io.store.SurfaceStore`
whose chunk grid is the tile plan: the caller's (``store=`` on
:func:`repro.jobs.run_tiled` / :func:`~repro.jobs.run_spec`), or else
one the checkpoint creates in its own ``store/`` subdirectory.  The
manifest records the store's path under ``"store"``: relative to the
checkpoint for its own store, so the directory can be moved, and
absolute for a caller's.  The store's per-chunk bitmap *is* the done
mask and the only progress ledger; the manifest is written only on a
status change (``running``, then ``failed`` or ``complete``), never per
tile.  Because the store writer marks a chunk only after its write, a
resumed job can never trust data that is not on disk.

Because tile values are pure functions of ``(generator, noise seed,
tile)``, a checkpoint plus the same generator configuration is
sufficient for :func:`repro.jobs.resume` to finish the run with heights
bit-identical to an uninterrupted one — the manifest's fingerprint
guards against resuming under a *different* configuration, which would
silently weld two different surfaces together.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .. import obs
from ..core.rng import BlockNoise
from ..core.spec import GenerationSpec, check_store_noise
from ..io.atomic import atomic_write_json
from ..io.store import SurfaceStore
from ..parallel.tiles import TilePlan
from .retry import RetryPolicy

__all__ = ["JobCheckpoint", "generator_fingerprint", "FORMAT_VERSION"]

FORMAT_VERSION = "repro.jobs/v1"
MANIFEST_NAME = "manifest.json"
#: Where a job given no store keeps its own, relative to the checkpoint.
STORE_DIR = "store"

PathLike = Union[str, Path]


def generator_fingerprint(generator: Any) -> str:
    """Stable digest of a generator's run-relevant configuration.

    Hashes the type name, engine, grid geometry, truncation spec and —
    when available — the spectrum parameters; deliberately excludes
    memory addresses and caches so the same configuration always
    fingerprints identically across processes.
    """
    desc: Dict[str, Any] = {"type": type(generator).__name__}
    engine = getattr(generator, "engine", None)
    if engine is not None:
        desc["engine"] = engine
    grid = getattr(generator, "grid", None)
    if grid is not None:
        desc["grid"] = [grid.nx, grid.ny, grid.lx, grid.ly]
    truncation = getattr(generator, "truncation", None)
    if truncation is not None:
        desc["truncation"] = repr(truncation)
    # only a non-default precision marks the digest, so checkpoints
    # written before dtype existed still resume with float64 generators
    dt = getattr(generator, "dtype", None)
    if dt is not None and np.dtype(dt) != np.float64:
        desc["dtype"] = np.dtype(dt).name
    spectrum = getattr(generator, "spectrum", None)
    if spectrum is not None and hasattr(spectrum, "to_dict"):
        desc["spectrum"] = spectrum.to_dict()
    layout = getattr(generator, "layout", None)
    if layout is not None:
        desc["layout"] = type(layout).__name__
    text = json.dumps(desc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class JobCheckpoint:
    """In-memory handle on one checkpoint directory.

    ``store`` is the open :class:`~repro.io.store.SurfaceStore` the
    executor fills (``out=``); its live chunk bitmap ``store.done``,
    which the store's writer marks after each durable chunk write, is
    the job's done mask.
    """

    path: Path
    manifest: Dict[str, Any]
    store: SurfaceStore

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        *,
        kind: str,
        plan: TilePlan,
        noise: BlockNoise,
        backend: str,
        workers: Optional[int],
        retry: Optional[RetryPolicy],
        generator: Any,
        spec: Optional[GenerationSpec] = None,
        store: Optional[SurfaceStore] = None,
    ) -> "JobCheckpoint":
        """Start a job at ``path`` recording ``spec`` (if the run has
        one).  Without ``store`` the job writes its heights into a new
        store of its own under ``path/store``."""
        path = check_new(path)
        if store is None:
            if spec is not None:
                store = spec.create_store(path / STORE_DIR)
            else:
                grid = generator.grid
                store = SurfaceStore.create(
                    path / STORE_DIR, shape=(plan.total_nx, plan.total_ny),
                    chunk=(plan.tile_nx, plan.tile_ny),
                    dx=grid.dx, dy=grid.dy,
                    origin=(plan.origin_x, plan.origin_y),
                )
            store_path = STORE_DIR
        else:
            store.validate_plan(plan)  # tile index must equal chunk index
            if spec is not None:
                spec.check_store(store)
            else:
                check_store_noise(store, noise)
            path.mkdir(parents=True, exist_ok=True)
            store_path = str(Path(store.path).resolve())
        manifest: Dict[str, Any] = {
            "format": FORMAT_VERSION,
            "kind": kind,
            "status": "running",
            "plan": {
                "total_nx": plan.total_nx, "total_ny": plan.total_ny,
                "tile_nx": plan.tile_nx, "tile_ny": plan.tile_ny,
                "origin_x": plan.origin_x, "origin_y": plan.origin_y,
            },
            "noise": {"seed": noise.seed,
                      "block": getattr(noise, "block", None)},
            "backend": backend,
            "workers": workers,
            "retry": retry.to_dict() if retry is not None else None,
            "generator": {
                "type": type(generator).__name__,
                "fingerprint": generator_fingerprint(generator),
            },
            "spec": spec.to_dict() if spec is not None else None,
            "progress": {"tiles_total": len(plan), "tiles_done": 0},
            "resilience": None,
            "obs_counters": None,
            "error": None,
            "store": {"path": store_path},
        }
        ckpt = cls(path=path, manifest=manifest, store=store)
        ckpt.write()
        return ckpt

    @classmethod
    def load(cls, path: PathLike) -> "JobCheckpoint":
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no checkpoint manifest at {manifest_path}"
            ) from None
        fmt = manifest.get("format")
        if fmt != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {fmt!r} at {path} "
                f"(this build reads {FORMAT_VERSION!r})"
            )
        if manifest.get("store") is None:
            raise ValueError(
                f"checkpoint at {path} records no store: an earlier build "
                f"wrote it for an in-memory job, whose heights this build "
                f"cannot read; re-run the job"
            )
        if "spec" not in manifest:  # an earlier build's, read once
            recipe = manifest.pop("rebuild", None)
            manifest["spec"] = recipe and GenerationSpec(
                generator=recipe, seed=manifest["noise"]["seed"],
                noise_block=manifest["noise"].get("block"),
                plan=manifest["plan"],
            ).to_dict()
        # heights + done live in the store; the bitmap — written only
        # after each durable chunk write — is authoritative.  A relative
        # path is the job's own store, inside this (movable) directory.
        store = SurfaceStore.open(path / manifest["store"]["path"],
                                  mode="r+")
        store.validate_plan(_plan_from_manifest(manifest))
        return cls(path=path, manifest=manifest, store=store)

    @property
    def owns_store(self) -> bool:
        """Whether the store is the job's own (created under ``path``)
        rather than one the caller passed in."""
        return not Path(self.manifest["store"]["path"]).is_absolute()

    # -- derived pieces ----------------------------------------------------
    @property
    def spec(self) -> Optional[GenerationSpec]:
        """The run's spec, or ``None`` for a job started from a live
        generator (which :func:`repro.jobs.resume` must be given)."""
        data = self.manifest.get("spec")
        return GenerationSpec.from_dict(data) if data else None

    @property
    def plan(self) -> TilePlan:
        return _plan_from_manifest(self.manifest)

    @property
    def noise(self) -> BlockNoise:
        spec = self.manifest["noise"]
        kwargs = {"seed": spec["seed"]}
        if spec.get("block") is not None:
            kwargs["block"] = spec["block"]
        return BlockNoise(**kwargs)

    @property
    def retry(self) -> Optional[RetryPolicy]:
        data = self.manifest.get("retry")
        return RetryPolicy.from_dict(data) if data else None

    @property
    def status(self) -> str:
        return self.manifest.get("status", "unknown")

    def done_indices(self) -> List[int]:
        return self.store.done_indices()

    # -- persistence -------------------------------------------------------
    def write(self, status: Optional[str] = None) -> None:
        """Persist the manifest atomically (a ``jobs.checkpoint.write``
        span).  The runner writes only on a status change, after the
        store's writer closed, so ``tiles_done`` is the persisted
        bitmap's count."""
        if status is not None:
            self.manifest["status"] = status
        if self.manifest["status"] == "running":
            self.manifest["owner"] = {"host": socket.gethostname(),
                                      "pid": os.getpid()}
        self.manifest["progress"]["tiles_done"] = int(self.store.done.sum())
        if obs.enabled():
            self.manifest["obs_counters"] = (
                obs.get_recorder().metrics.as_dict()
            )
        with obs.trace("jobs.checkpoint.write",
                       {"tiles_done":
                        self.manifest["progress"]["tiles_done"]}
                       if obs.enabled() else None):
            atomic_write_json(self.path / MANIFEST_NAME, self.manifest)
        if obs.enabled():
            obs.add("jobs.checkpoint_writes")

    def summary(self) -> Dict[str, Any]:
        """The ``repro job status`` view of this checkpoint."""
        progress = self.manifest["progress"]
        total = progress["tiles_total"]
        done = int(self.store.done.sum())
        state = self.manifest["status"]
        if state == "running" and not _owner_alive(self.manifest.get("owner")):
            state = "stale"
        return {
            "path": str(self.path),
            "format": self.manifest["format"],
            "kind": self.manifest["kind"],
            "status": state,
            "tiles_total": total,
            "tiles_done": done,
            "fraction_done": done / total if total else 0.0,
            "backend": self.manifest.get("backend"),
            "noise": self.manifest.get("noise"),
            "generator": self.manifest.get("generator"),
            "spec": self.manifest.get("spec"),
            "resilience": self.manifest.get("resilience"),
            "error": self.manifest.get("error"),
            "store": self.manifest["store"],
        }


def check_new(path: PathLike) -> Path:
    """``path``, unless a job checkpoint is already there."""
    path = Path(path)
    if (path / MANIFEST_NAME).exists():
        raise FileExistsError(
            f"checkpoint already exists at {path}; use "
            f"repro.jobs.resume() (or delete it) instead of "
            f"starting a new job there"
        )
    return path


def _owner_alive(owner: Optional[Dict[str, Any]]) -> bool:
    """False only when ``owner`` ran on this host and its pid is gone
    (a killed job); a job on another host cannot be checked here."""
    if not owner or owner.get("host") != socket.gethostname():
        return True
    try:
        os.kill(int(owner["pid"]), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but another user's process
        pass
    return True


def _plan_from_manifest(manifest: Dict[str, Any]) -> TilePlan:
    spec = manifest["plan"]
    return TilePlan(
        total_nx=spec["total_nx"], total_ny=spec["total_ny"],
        tile_nx=spec["tile_nx"], tile_ny=spec["tile_ny"],
        origin_x=spec.get("origin_x", 0), origin_y=spec.get("origin_y", 0),
    )
