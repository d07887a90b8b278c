"""Execution backends for tiled surface generation.

Maps a :class:`~repro.parallel.tiles.TilePlan` over a generator that
supports windowed generation (anything satisfying the
:class:`~repro.core.api.SurfaceGenerator` protocol with a 2D ``grid``)
and assembles the tiles into one height array.  Three backends:

``serial``
    Plain loop; the reference.  One helper thread draws the next
    tile's noise blocks (:meth:`~repro.core.rng.BlockNoise.prefetch`)
    while the current tile convolves: numpy's Philox fill and
    ``scipy.fft`` both release the GIL, so the two overlap.  Strip
    streams (:mod:`repro.parallel.streaming`) run through this loop too.
``thread``
    ``ThreadPoolExecutor``.  NumPy's FFT and BLAS release the GIL for
    large arrays, so threads give genuine speedups with zero pickling
    cost and shared output memory.  The best default on one machine.
``process``
    ``ProcessPoolExecutor`` with persistent workers: the generator and
    noise spec are broadcast **once** per worker through the pool
    initializer (not pickled per tile), and each worker writes its
    tiles directly into a ``multiprocessing.shared_memory`` output
    buffer — zero-copy assembly, nothing but a slim provenance record
    crosses the result pipe.  Full CPU parallelism regardless of the
    GIL; worth it when per-tile Python overhead (weight maps, blend
    fields) rivals the FFT work, at the cost of one kernel-plan warmup
    per worker.

For a fixed tile plan, all three backends produce *bit-identical* output
because tile values are pure functions of ``(generator, noise seed, tile
coordinates)`` — the counter-based noise plane
(:class:`~repro.core.rng.BlockNoise`) does for this code what keyed RNGs
do for GPU/MPI stochastic codes.  *Different* tile plans agree to
floating-point rounding (~1e-15 relative): the FFT used inside the
windowed convolution rounds differently for different window shapes.

All three backends run through one scheduler (``_ResilientRun``).  A
:class:`repro.jobs.RetryPolicy` — the ``retry`` keyword, or the default
policy whenever ``fault_plan`` / ``skip`` / ``on_tile`` / a store ``out``
is given (the substrate of :mod:`repro.jobs`) — makes it retry failed
tiles with deterministic exponential backoff, enforce a run-wide failure
budget, survive crashed process-pool workers (``BrokenProcessPool`` →
respawn the pool and requeue the in-flight tiles), and degrade process →
thread → serial when respawning keeps failing.  Without a policy a
failing tile's own exception propagates unwrapped, and a dead worker's
``BrokenProcessPool`` too.  Because tile values are backend-independent,
retries and degradation never change the output — only when it is
computed.

Run-level provenance aggregates what the windowed generators report per
tile: plan-cache hit/miss deltas (the parent's plus the process
workers' own caches), region/level active-set totals, batched-FFT
counters, and the run's retry/respawn/degradation counts.

This module is the library's MPI substitute (DESIGN.md S10): the tile
decomposition, halo arithmetic, and determinism contract are exactly
what an mpi4py backend would need; only the transport differs.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import os
import time
from collections import deque
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

import numpy as np

from .. import obs
from ..core.api import split_result
from ..core.engine import plan_cache
from ..core.rng import BlockNoise
from ..core.surface import Surface
from .tiles import Tile, TilePlan

__all__ = [
    "WindowedGenerator",
    "generate_tiled",
    "default_workers",
    "TileFailedError",
    "FailureBudgetExceeded",
    "PoolRespawnLimit",
]

#: Per-tile generator-provenance keys worth aggregating at run level
#: (and the only ones process workers ship back to the parent).
_TILE_PROV_KEYS = (
    "regions",
    "regions_active",
    "regions_skipped",
    "levels_active",
    "levels_skipped",
    "batch_fft",
)


class WindowedGenerator(Protocol):
    """Anything that can generate arbitrary windows of an unbounded RRS."""

    grid: "object"

    def generate_window(
        self, noise: BlockNoise, x0: int, y0: int, nx: int, ny: int
    ): ...


class TileFailedError(RuntimeError):
    """A tile kept failing past ``RetryPolicy.max_attempts``."""

    def __init__(self, index: int, tile: Tile, failures: int,
                 last: BaseException) -> None:
        super().__init__(
            f"tile {index} {tile} failed {failures} time(s); "
            f"last error: {last!r}"
        )
        self.index = index
        self.tile = tile
        self.failures = failures
        self.last = last


class FailureBudgetExceeded(RuntimeError):
    """The run-wide ``RetryPolicy.failure_budget`` was exhausted."""


class PoolRespawnLimit(RuntimeError):
    """The process pool kept breaking past ``RetryPolicy.max_respawns``
    and degradation was disabled."""


def default_workers() -> int:
    """Default worker count: physical parallelism minus one, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _tile_result(
    generator: WindowedGenerator, noise: BlockNoise, tile: Tile
) -> Tuple[np.ndarray, Optional[dict]]:
    """One tile's heights plus the generator's per-window provenance.

    Normalises every protocol-conformant return shape — ``Surface``,
    ``HeightField`` or bare array — via
    :func:`repro.core.api.split_result`.
    """
    out = generator.generate_window(noise, tile.x0, tile.y0, tile.nx, tile.ny)
    return split_result(out)


def _traced_tile(
    generator: WindowedGenerator,
    noise: BlockNoise,
    tile: Tile,
    submit_ns: Optional[int] = None,
) -> Tuple[np.ndarray, Optional[dict], float]:
    """One tile's result wrapped in an ``executor.tile`` span.

    Returns ``(heights, provenance, tile_seconds)``.  ``submit_ns``
    (thread backend) dates the pool submission so the span's start gap
    is recorded as queue wait.  All of this is a no-op when tracing is
    off — the null span allocates nothing and ``tile_seconds`` is 0.
    """
    if submit_ns is not None and obs.enabled():
        obs.observe("executor.queue_wait_seconds",
                    (time.perf_counter_ns() - submit_ns) / 1e9)
    with obs.trace("executor.tile",
                   {"x0": tile.x0, "y0": tile.y0,
                    "nx": tile.nx, "ny": tile.ny}
                   if obs.enabled() else None) as span:
        heights, prov = _tile_result(generator, noise, tile)
    if obs.enabled():
        obs.observe("executor.tile_seconds", span.duration_s)
        obs.add("executor.tiles")
    return heights, prov, span.duration_s


class _NoisePrefetch:
    """One helper thread that draws a tile's noise blocks into the
    plane's cache ahead of the serial loop reaching that tile.

    Only generators that name their noise window (``noise_window``) get
    a helper.  Blocks are pure functions of their key, so a prefetch
    never changes a value; a prefetch that fails is dropped, and the
    tile draws what is missing itself.  Leaving the ``with`` block
    cancels queued prefetches and joins the thread.
    """

    def __init__(self, generator: WindowedGenerator, noise: BlockNoise):
        self.window_of = getattr(generator, "noise_window", None)
        self.prefetch = noise.prefetch
        self.pool: Optional[cf.ThreadPoolExecutor] = None

    def __enter__(self) -> "_NoisePrefetch":
        if self.window_of is not None:
            self.pool = cf.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-noise-prefetch")
        return self

    def ahead(self, tile: Tile) -> None:
        """Queue the noise window of ``tile``, the loop's next tile."""
        if self.pool is not None:
            self.pool.submit(self.prefetch, *self.window_of(
                tile.x0, tile.y0, tile.nx, tile.ny))

    def __exit__(self, *exc: Any) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)


def _serial_tiles(
    generator: WindowedGenerator, noise: BlockNoise, tiles: Iterable[Tile]
) -> Iterator[Tuple[Tile, np.ndarray, Optional[dict], float]]:
    """The serial tile loop: ``(tile, heights, provenance, seconds)`` per
    tile of ``tiles``, in order, with the next tile's noise prefetched.

    ``tiles`` may be endless.  The helper thread lives as long as the
    loop: it is joined when the tiles run out, when a tile raises, and
    when the caller closes or drops the iterator.
    """
    tiles = iter(tiles)
    upcoming = next(tiles, None)
    with _NoisePrefetch(generator, noise) as prefetch:
        while upcoming is not None:
            tile, upcoming = upcoming, next(tiles, None)
            if upcoming is not None:
                prefetch.ahead(upcoming)
            heights, prov, dt = _traced_tile(generator, noise, tile)
            yield tile, heights, prov, dt


def _slim_provenance(prov: Optional[dict]) -> Optional[dict]:
    """The aggregatable subset of a tile's provenance."""
    if not prov:
        return None
    slim = {k: prov[k] for k in _TILE_PROV_KEYS if k in prov}
    return slim or None


def _merge_tile_provenance(agg: dict, prov: Optional[dict]) -> None:
    """Fold one tile's provenance into the run-level summary ``agg``."""
    if not prov:
        return
    for akey, pkey in (("regions", "regions_active"),
                       ("levels", "levels_active")):
        if pkey not in prov:
            continue
        active = int(prov[pkey])
        skipped = int(prov.get(pkey.replace("_active", "_skipped"), 0))
        row = agg.setdefault(akey, {
            "active_total": 0,
            "skipped_total": 0,
            "min_active": active,
            "max_active": active,
            "single_kernel_tiles": 0,
        })
        row["active_total"] += active
        row["skipped_total"] += skipped
        row["min_active"] = min(row["min_active"], active)
        row["max_active"] = max(row["max_active"], active)
        if active == 1 and skipped > 0:
            row["single_kernel_tiles"] += 1
    batch = prov.get("batch_fft")
    if batch:
        row = agg.setdefault("batch_fft", {})
        for key, val in batch.items():
            row[key] = row.get(key, 0) + int(val)


# ---------------------------------------------------------------------------
# Shared-memory process backend
# ---------------------------------------------------------------------------
#: Worker-side run state installed once by the pool initializer.
_POOL_STATE: dict = {}


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    The parent creates and unlinks the segment; workers must only map
    it.  ``track=False`` (Python >= 3.13) expresses that directly.  On
    older interpreters attaching re-registers the name with the shared
    resource tracker, which is harmless here: the tracker's cache is a
    set, so the workers' registrations collapse into the parent's and
    the parent's ``unlink`` balances them — no leak warning, and no
    explicit unregister (which would double-remove and make the
    parent's ``unlink`` trip the tracker).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 signature
        return shared_memory.SharedMemory(name=name)


def _generator_dtype(generator) -> np.dtype:
    """Output precision of ``generator`` (``float64`` unless it opts in).

    Generators grown a ``dtype`` attribute (the engine's ``float32``
    mode) drive the dtype of every executor-side buffer — the assembled
    output array, both shared-memory staging views, and the worker-side
    mappings — so tiles land without a hidden cast.
    """
    return np.dtype(getattr(generator, "dtype", np.float64))


def _pool_init(
    generator: WindowedGenerator,
    noise: BlockNoise,
    shm_name: str,
    shape: Tuple[int, int],
    origin: Tuple[int, int],
    obs_enabled: bool = False,
    fault_plan: Optional[Any] = None,
) -> None:
    """Pool initializer: receive the run state once per worker.

    Everything tile-independent — the generator (with its kernels), the
    noise spec, the mapped output buffer, and any fault-injection plan —
    lives in module state for the worker's lifetime, so per-tile tasks
    carry only a tile task (index, tile, attempt).
    When the parent is recording, each worker installs its own
    :class:`repro.obs.Recorder`; per-tile drains ride the result pipe
    next to the plan-cache deltas.
    """
    shm = _attach_shared_memory(shm_name)
    view = np.ndarray(shape, dtype=_generator_dtype(generator), buffer=shm.buf)
    if obs_enabled:
        obs.install(obs.Recorder())
    _POOL_STATE.update(
        generator=generator,
        noise=noise,
        shm=shm,  # keep the mapping alive for the worker's lifetime
        view=view,
        origin=origin,
        fault_plan=fault_plan,
    )


def _pool_tile(
    task: "_Task",
) -> Tuple[Optional[dict], Dict[str, int], Optional[Dict[str, Any]]]:
    """Worker task: fire any scheduled fault, then write one tile
    straight into the shared output.

    Returns the tile's slim provenance, this tile's plan-cache delta
    (each worker process holds its own cache), and — when the run is
    being recorded — the worker recorder's drained span/metric payload.
    No height data crosses the result pipe.
    """
    state = _POOL_STATE
    if state["fault_plan"] is not None:
        state["fault_plan"].fire(task.idx, task.attempt)
    tile = task.tile
    before = plan_cache.stats()
    heights, prov, _dt = _traced_tile(state["generator"], state["noise"], tile)
    after = plan_cache.stats()
    ox, oy = state["origin"]
    state["view"][
        tile.x0 - ox : tile.x0 - ox + tile.nx,
        tile.y0 - oy : tile.y0 - oy + tile.ny,
    ] = heights
    delta = {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
    }
    rec = obs.get_recorder()
    payload = rec.drain() if rec.enabled else None
    return _slim_provenance(prov), delta, payload


# ---------------------------------------------------------------------------
# Tile scheduler
# ---------------------------------------------------------------------------
class _Task(NamedTuple):
    idx: int
    tile: Tile
    attempt: int  # 1-based count of times this tile has been started


def _default_retry_policy():
    from ..jobs.retry import RetryPolicy  # local: jobs depends on us

    return RetryPolicy()


class _ResilientRun:
    """The single-host scheduler: runs one tile plan on a backend.

    Owns the pending queue, per-tile failure counts, the failure
    budget, process-pool respawn accounting and backend degradation.
    Tiles land in ``self.out`` (or go to ``self.writer``, the async
    store writeback), ``self.agg`` sums their provenance, and
    ``on_tile(idx, tile)`` fires in the parent after each tile's data
    is placed — the checkpoint hook of :mod:`repro.jobs`.  With
    ``policy`` ``None`` nothing is retried: the first failure raises.
    """

    def __init__(self, generator, noise, plan, backend, workers, policy,
                 fault_plan, out, skip, on_tile):
        self.generator = generator
        self.noise = noise
        self.plan = plan
        self.workers = workers
        self.policy = policy
        self.fault_plan = fault_plan
        self.out = out
        self.writer = None  # async store writeback (out is None then)
        self.shape = (plan.total_nx, plan.total_ny)
        self.on_tile = on_tile
        self.agg: dict = {}
        tiles = plan.tiles()
        self.skipped = frozenset(int(i) for i in (skip or ()))
        unknown = [i for i in self.skipped if not 0 <= i < len(tiles)]
        if unknown:
            raise ValueError(
                f"skip indices {sorted(unknown)} outside the plan's "
                f"{len(tiles)} tiles"
            )
        self.pending = deque(
            _Task(idx, tiles[idx], 1)
            for idx in range(len(tiles))
            if idx not in self.skipped
        )
        self.failures: Dict[int, int] = {}
        self.retries = 0
        self.respawns = 0
        self.degraded_to: Optional[str] = None
        self.busy_s = 0.0
        self.cache_delta = {"hits": 0, "misses": 0}  # process workers'
        self.backend_chain = {
            "process": ["process", "thread", "serial"],
            "thread": ["thread", "serial"],
            "serial": ["serial"],
        }[backend]

    # -- shared bookkeeping ------------------------------------------------
    def _fire(self, task: _Task) -> None:
        if self.fault_plan is not None:
            self.fault_plan.fire(task.idx, task.attempt)

    def _window(self, tile: Tile) -> Tuple[slice, slice]:
        """``tile``'s rows and columns of the run's output."""
        ix = tile.x0 - self.plan.origin_x
        iy = tile.y0 - self.plan.origin_y
        return slice(ix, ix + tile.nx), slice(iy, iy + tile.ny)

    def _place(self, idx: int, tile: Tile, values: np.ndarray) -> None:
        rows, cols = self._window(tile)
        if self.writer is not None:
            # Hand the tile to the async writeback path; the writer
            # marks the store's chunk bitmap only after the durable
            # write, so crash-resume never trusts unwritten data.
            self.writer.submit(idx, rows.start, cols.start, values)
        else:
            self.out[rows, cols] = values

    def _complete(self, task: _Task, values: np.ndarray,
                  prov: Optional[dict], busy_s: float) -> None:
        self.busy_s += busy_s
        self._place(task.idx, task.tile, values)
        _merge_tile_provenance(self.agg, _slim_provenance(prov))
        if self.on_tile is not None:
            self.on_tile(task.idx, task.tile)

    def _record_failure(self, task: _Task, exc: BaseException) -> None:
        """Account one genuine tile failure; raise when there is no
        policy or its budgets run out, otherwise sleep the deterministic
        backoff before the retry."""
        if self.policy is None:
            raise exc
        count = self.failures.get(task.idx, 0) + 1
        self.failures[task.idx] = count
        self.retries += 1
        if obs.enabled():
            obs.add("executor.tile_retries")
        budget = self.policy.failure_budget
        if budget is not None and self.retries > budget:
            raise FailureBudgetExceeded(
                f"{self.retries} failed tile attempts exceed the "
                f"failure budget of {budget}"
            ) from exc
        if count >= self.policy.max_attempts:
            raise TileFailedError(task.idx, task.tile, count, exc) from exc
        delay = self.policy.delay(count)
        if delay > 0:
            time.sleep(delay)

    # -- backends ----------------------------------------------------------
    def run(self) -> None:
        chain = iter(self.backend_chain)
        current = next(chain)
        while self.pending:
            try:
                if current == "serial":
                    self._run_serial()
                elif current == "thread":
                    self._run_thread()
                else:
                    self._run_process()
            except cf.BrokenExecutor as exc:
                # A broken pool that may not be respawned: degrade (the
                # values are backend-independent) or give up.
                if self.policy is None:
                    raise
                if not self.policy.degrade:
                    raise PoolRespawnLimit(
                        f"{current} pool kept breaking after "
                        f"{self.respawns} respawn(s)"
                    ) from exc
            if self.pending:
                current = next(chain)
                self.degraded_to = current
                if obs.enabled():
                    obs.add("executor.degradations")

    def _run_serial(self) -> None:
        """:func:`_serial_tiles` over ``pending``.  A failed tile ends
        that loop and its prefetch helper; the retry heads ``pending``
        and a fresh loop opens over what is left."""
        while self.pending:
            tiles = [task.tile for task in self.pending]
            with contextlib.closing(
                _serial_tiles(self.generator, self.noise, tiles)
            ) as results:
                while self.pending:
                    task = self.pending[0]
                    try:
                        # the loop is lazy: firing before the pull fires
                        # before the attempt
                        self._fire(task)
                        _tile, heights, prov, dt = next(results)
                    except Exception as exc:
                        self._record_failure(task, exc)
                        self.pending[0] = task._replace(
                            attempt=task.attempt + 1)
                        break
                    self.pending.popleft()
                    self._complete(task, heights, prov, dt)

    def _thread_tile(self, task: _Task, submit_ns: Optional[int]):
        self._fire(task)
        return _traced_tile(self.generator, self.noise, task.tile, submit_ns)

    def _run_thread(self) -> None:
        tracing = obs.enabled()
        with cf.ThreadPoolExecutor(max_workers=self.workers) as pool:

            def submit(task: _Task):
                ns = time.perf_counter_ns() if tracing else None
                return pool.submit(self._thread_tile, task, ns)

            inflight = {}
            while self.pending:
                task = self.pending.popleft()
                inflight[submit(task)] = task
            while inflight:
                done, _ = cf.wait(
                    list(inflight), return_when=cf.FIRST_COMPLETED
                )
                for fut in done:
                    task = inflight.pop(fut)
                    try:
                        heights, prov, dt = fut.result()
                    except Exception as exc:
                        self._record_failure(task, exc)
                        retry = task._replace(attempt=task.attempt + 1)
                        inflight[submit(retry)] = retry
                        continue
                    self._complete(task, heights, prov, dt)

    def _run_process(self) -> None:
        """Process backend with pool respawn and in-flight requeue.

        A worker death breaks the whole ``ProcessPoolExecutor`` (every
        pending future raises ``BrokenProcessPool``); the in-flight and
        unsubmitted tiles are requeued at ``attempt + 1`` — a bumped
        attempt, not a counted failure, so one crashing tile cannot
        exhaust its neighbours' retry budgets — and a fresh pool is
        spawned, up to ``RetryPolicy.max_respawns`` times.  Completed
        tiles are copied from the shared-memory buffer into ``out``
        incrementally, so already-done (skipped/resumed) regions of
        ``out`` are never overwritten with uninitialised memory.
        """
        dt = _generator_dtype(self.generator)
        nbytes = self.shape[0] * self.shape[1] * dt.itemsize
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        recorder = obs.get_recorder()
        try:
            view = np.ndarray(
                self.shape, dtype=dt, buffer=shm.buf
            )
            while self.pending:
                pool = cf.ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_init,
                    initargs=(self.generator, self.noise, shm.name,
                              self.shape,
                              (self.plan.origin_x, self.plan.origin_y),
                              obs.enabled(), self.fault_plan),
                )
                broken = False
                inflight: Dict[cf.Future, _Task] = {}
                try:

                    def submit(task: _Task) -> bool:
                        try:
                            fut = pool.submit(_pool_tile, task)
                        except cf.BrokenExecutor:
                            if self.policy is None:
                                raise
                            self.pending.append(task)
                            return False
                        inflight[fut] = task
                        return True

                    while self.pending:
                        if not submit(self.pending.popleft()):
                            broken = True
                            break
                    while inflight:
                        done, _ = cf.wait(
                            list(inflight), return_when=cf.FIRST_COMPLETED
                        )
                        for fut in done:
                            task = inflight.pop(fut)
                            try:
                                slim, delta, payload = fut.result()
                            except cf.BrokenExecutor:
                                if self.policy is None:
                                    raise
                                broken = True
                                self.pending.append(
                                    task._replace(attempt=task.attempt + 1)
                                )
                                continue
                            except Exception as exc:
                                self._record_failure(task, exc)
                                retry = task._replace(
                                    attempt=task.attempt + 1
                                )
                                if not submit(retry):
                                    broken = True
                                continue
                            self.cache_delta["hits"] += delta["hits"]
                            self.cache_delta["misses"] += delta["misses"]
                            busy_s = 0.0
                            if payload is not None and recorder.enabled:
                                stats = payload.get("span_stats", {})
                                tile_row = stats.get("executor.tile")
                                if tile_row:
                                    busy_s = tile_row[1] / 1e9
                                recorder.merge(payload)
                            values = view[self._window(task.tile)]
                            if self.writer is not None:
                                # the writer drains after the shared
                                # segment is gone: hand it a copy
                                values = values.copy()
                            self._complete(task, values, slim, busy_s)
                        if broken:
                            # every remaining in-flight future is doomed
                            # on the same broken pool: requeue them all
                            for other in inflight.values():
                                self.pending.append(
                                    other._replace(attempt=other.attempt + 1)
                                )
                            inflight.clear()
                finally:
                    pool.shutdown(wait=True, cancel_futures=True)
                if broken and self.pending:
                    self.respawns += 1
                    if obs.enabled():
                        obs.add("executor.pool_respawns")
                    if self.respawns > self.policy.max_respawns:
                        raise cf.BrokenExecutor(
                            "process pool kept breaking; respawn budget "
                            f"({self.policy.max_respawns}) spent"
                        )
        finally:
            shm.close()
            shm.unlink()


def generate_tiled(
    generator: WindowedGenerator,
    noise: BlockNoise,
    plan: TilePlan,
    backend: str = "serial",
    workers: Optional[int] = None,
    *,
    retry: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    out: Optional[np.ndarray] = None,
    skip: Optional[Iterable[int]] = None,
    on_tile: Optional[Callable[[int, Tile], None]] = None,
    rebuild: Optional[dict] = None,
    telemetry: Optional[dict] = None,
) -> Surface:
    """Generate a large surface tile-by-tile.

    Parameters
    ----------
    generator:
        A windowed generator (any :class:`~repro.core.api.
        SurfaceGenerator` with a 2D ``grid``); its grid supplies the
        sample spacing.
    noise:
        The shared deterministic noise plane (seed fixes the surface).
    plan:
        Tile decomposition covering the desired output.
    backend:
        ``"serial"``, ``"thread"``, ``"process"`` (see module
        docstring for the trade-offs) or ``"dist"`` — worker
        *processes* scheduled by a lease coordinator over a socket
        (:func:`repro.dist.executor.generate_dist`; requires ``out``
        to be a :class:`~repro.io.store.SurfaceStore` and a
        ``rebuild`` recipe, since live generators cannot cross hosts).
    workers:
        Pool size for the parallel backends (default
        :func:`default_workers`).
    retry:
        A :class:`repro.jobs.RetryPolicy` for the scheduler: per-tile
        retries with deterministic backoff, a run-wide failure budget,
        process-pool respawn on worker death, and process → thread →
        serial degradation.  ``None`` without ``fault_plan``, ``skip``,
        ``on_tile`` or a store ``out`` means no policy: a failing tile's
        own exception propagates, with no retry, and a dead process
        worker raises ``BrokenProcessPool``.
    fault_plan:
        A :class:`repro.jobs.FaultPlan` fired before each tile attempt
        (testing/debugging aid; implies the default
        :class:`~repro.jobs.retry.RetryPolicy` when ``retry`` is not
        given — as do a store ``out``, ``skip`` and ``on_tile``).
    out:
        Preallocated output of shape ``(plan.total_nx, plan.total_ny)``
        and the generator's dtype (float64 unless the generator opts
        into float32) to fill in place — the checkpoint/resume hook:
        tiles listed in ``skip`` keep whatever ``out`` already holds.
        May also be a :class:`repro.io.store.SurfaceStore` whose chunk
        grid equals the tile plan: tiles are then streamed to disk
        through an async :class:`~repro.io.store.StoreWriter` (the
        full array never exists in RAM; the returned surface holds a
        read-only memmap) and the store's chunk bitmap records
        completion after each durable write.  The process backend
        still allocates a full-size shared-memory staging buffer — use
        serial/thread backends when the output exceeds RAM.
    skip:
        Indices into ``plan.tiles()`` (row-major) already completed.
    on_tile:
        ``on_tile(index, tile)`` called in the parent after that tile's
        data has landed in the output array (any backend) — the
        incremental-checkpoint hook of :mod:`repro.jobs`.  With a
        store target the hook fires at *submission* to the writeback
        queue; durable completion is what the store's own bitmap
        records, so store-backed checkpoints must trust the bitmap,
        not this hook (``repro.jobs`` does).
    rebuild:
        Generator recipe (as checkpointed by :mod:`repro.jobs`) for
        the ``dist`` backend, whose workers rebuild the generator in
        their own processes instead of receiving this one.  Ignored by
        the single-host backends.
    telemetry:
        ``dist``-backend live-telemetry options forwarded to
        :func:`repro.dist.executor.generate_dist`: ``run_id``,
        ``heartbeat_s`` (periodic worker heartbeat frames) and
        ``status_port`` (coordinator HTTP ``/metrics``/``/status``/
        ``/health``).  Rejected for the single-host backends, which
        have no coordinator to serve it.

    Returns
    -------
    The assembled :class:`~repro.core.surface.Surface`; bit-identical
    across backends for a fixed plan, and equal up to FFT rounding across
    different tile shapes, for a fixed ``(generator, noise)``.

    Raises
    ------
    TileFailedError, FailureBudgetExceeded, PoolRespawnLimit
        When the retry policy's budgets are spent.  Without a policy,
        the failing tile's own exception or ``BrokenProcessPool``.
    """
    if backend not in ("serial", "thread", "process", "dist"):
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"expected serial|thread|process|dist"
        )
    if backend == "dist":
        if not (out is not None and hasattr(out, "write_window")
                and hasattr(out, "chunk_shape")):
            raise ValueError(
                "backend='dist' needs out= to be a SurfaceStore: the "
                "store's chunk bitmap is the distributed completion "
                "ledger"
            )
        if rebuild is None:
            raise ValueError(
                "backend='dist' needs a rebuild= recipe: workers run in "
                "separate processes (possibly other hosts) and rebuild "
                "the generator themselves"
            )
        from ..dist.executor import generate_dist  # local: avoid cycle

        # skip= is redundant here — done chunks are already marked in
        # the store bitmap, which is exactly what the ledger consults
        return generate_dist(
            rebuild, noise, plan, out,
            workers=workers or 2, retry=retry,
            fault_plan=fault_plan, on_tile=on_tile,
            **(telemetry or {}),
        )
    if telemetry:
        raise ValueError(
            "telemetry= (heartbeats/status server) is a dist-backend "
            f"option; backend {backend!r} has no coordinator to serve it"
        )
    grid = generator.grid  # type: ignore[attr-defined]
    # Duck-typed out-of-core target (repro.io.store.SurfaceStore): the
    # executor must not import repro.io (which imports this module), so
    # a store is recognised by its write/chunk protocol instead.
    store = out if (out is not None and hasattr(out, "write_window")
                    and hasattr(out, "chunk_shape")) else None
    gen_dtype = _generator_dtype(generator)
    if store is not None:
        store.validate_plan(plan)
        out = None
    elif out is not None:
        out = np.asarray(out)
        if out.shape != (plan.total_nx, plan.total_ny):
            raise ValueError(
                f"out has shape {out.shape}; plan needs "
                f"({plan.total_nx}, {plan.total_ny})"
            )
        if out.dtype != gen_dtype:
            raise ValueError(
                f"out must match the generator dtype {gen_dtype.name}"
            )
    else:
        out = np.empty((plan.total_nx, plan.total_ny), dtype=gen_dtype)
    if retry is None and (fault_plan is not None or skip is not None
                          or on_tile is not None or store is not None):
        retry = _default_retry_policy()
    n = workers or default_workers()
    pool_size = 1 if backend == "serial" else n
    run = _ResilientRun(generator, noise, plan, backend, n, retry,
                        fault_plan, out, skip, on_tile)
    n_tiles = len(plan.tiles())
    stats_before = plan_cache.stats()
    run_span = obs.trace("executor.run", {
        "backend": backend, "tiles": n_tiles, "workers": pool_size,
    } if obs.enabled() else None)
    with run_span:
        writer = run.writer = store.writer() if store is not None else None
        try:
            run.run()
        except BaseException:
            if writer is not None:
                # drain what's queued but don't mask the original
                # error with a secondary write failure
                writer.close(raise_pending=False)
            raise
        if writer is not None:
            writer.close()  # re-raises a deferred write error

    big_grid = grid.with_shape(plan.total_nx, plan.total_ny)
    origin = (plan.origin_x * grid.dx, plan.origin_y * grid.dy)
    provenance = {
        "method": "tiled",
        "backend": backend,
        "tiles": n_tiles,
        "noise_seed": noise.seed,
    }
    engine = getattr(generator, "engine", None)
    if engine is not None:
        provenance["engine"] = engine
    footprint = getattr(generator, "footprint", None)
    if footprint is not None:
        read, output = plan.halo_samples(tuple(footprint))
        # a degenerate plan (or stub) may report zero output samples;
        # overhead is then undefined, not infinite
        provenance["halo_overhead"] = (
            read / output - 1.0 if output > 0 else 0.0
        )
        if obs.enabled():
            obs.add("executor.halo_read_samples", read)
            obs.add("executor.output_samples", output)
            obs.set_gauge("executor.halo_overhead",
                          provenance["halo_overhead"])
    stats_after = plan_cache.stats()
    # The parent's cache delta covers the serial/thread tiles, the summed
    # worker deltas the process ones (degradation can mix them): misses
    # count each worker's warmup, hits the cross-tile reuse inside it.
    provenance["plan_cache"] = {
        "hits": stats_after.hits - stats_before.hits + run.cache_delta["hits"],
        "misses": (stats_after.misses - stats_before.misses
                   + run.cache_delta["misses"]),
    }
    provenance["resilience"] = {
        "retries": run.retries,
        "respawns": run.respawns,
        "degraded_to": run.degraded_to,
        "tiles_skipped": len(run.skipped),
    }
    provenance.update(run.agg)
    if obs.enabled() and run_span.duration_s > 0.0:
        obs.set_gauge(
            "executor.worker_utilization",
            run.busy_s / (pool_size * run_span.duration_s),
        )
    if store is not None:
        provenance["store"] = store.progress_summary()
        # Hand back the on-disk result as a read-only memmap; Surface
        # keeps it lazy, so the full field still never enters RAM.
        heights = store.heights("r")
    else:
        heights = out
    return Surface(
        heights=heights,
        grid=big_grid,
        origin=origin,
        provenance=provenance,
    )
