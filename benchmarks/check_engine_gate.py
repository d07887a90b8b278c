#!/usr/bin/env python
"""Perf-regression gate for the convolution engines.

Reads ``benchmarks/out/engine_fft.json`` (written by
``test_bench_engine_fft.py``) and fails when:

* the default path (``auto``, which dispatches to the FFT engine for
  production-size kernels) is more than ``--max-slowdown`` times the
  seed baseline (the pre-engine per-tile ``scipy.signal.fftconvolve``
  path) — the "don't regress the default" contract;
* the FFT engine's speedup over the spatial reference path falls below
  ``--min-speedup`` — the engine's reason to exist;
* either accuracy deviation exceeds ``--max-deviation``.

Also reads ``benchmarks/out/inhomo_batch.json`` (written by
``test_bench_inhomo_batch.py``) and fails when:

* the batched multi-region engine's speedup over the per-region path
  (one forward+inverse FFT pair per region) falls below
  ``--min-batch-speedup`` on the M=4 layout at 2048^2;
* the batched surface deviates from the spatial oracle by more than
  ``--max-deviation``;
* the homogeneous default path regressed beyond ``--max-homog-slowdown``
  relative to the seed ``fftconvolve`` baseline measured in the same
  run.

Additionally measures — live, in this process — the overhead of the
``repro.obs`` tracing layer on a homogeneous 2048^2 tiled FFT run
(129^2 kernel, warm plan cache) and fails when recording costs more
than ``--max-obs-overhead`` (default 3%) over the disabled no-op path.
The figure is recorded in ``benchmarks/out/obs_overhead.json``;
``--skip-obs-overhead`` skips the measurement (e.g. on loaded CI
machines).

Similarly measures the overhead of a retry policy
(``generate_tiled(..., retry=RetryPolicy())``, whose failure bookkeeping
surrounds every tile even when nothing fails) on the same clean 2048^2
serial tiled run and fails when it costs more than
``--max-jobs-overhead`` (default 2%) over the same scheduler with no
policy (``retry=None``, the "plain" columns).  Recorded in
``benchmarks/out/jobs_overhead.json``; ``--skip-jobs-overhead`` skips
it.

Also measures the overhead of the out-of-core store sink
(``generate_tiled(..., out=SurfaceStore)``: async double-buffered
writeback of every tile to disk) against the in-memory tiled run at
4096^2 and fails when it costs more than ``--max-store-overhead``
(default 5%).  Recorded in ``benchmarks/out/store_overhead.json``;
``--skip-store-overhead`` skips it.

Also measures the ``dtype="float32"`` engine mode against the default
``float64`` path on the homogeneous 4096^2 tiled FFT workload (engine
work only — the per-tile valid correlations; the dtype-independent
noise reads are excluded, same convention as the engine bench) and
fails when the speedup falls below ``--min-dtype-speedup`` (default
1.3x) or the float32 surface drifts from the float64 surface by more
than ``--max-dtype-deviation``.  Recorded in
``benchmarks/out/engine_dtype.json``; ``--skip-dtype-speedup`` skips
it.

Also measures the distributed backend's throughput scaling: the
homogeneous 8192^2 tiled path through ``generate_dist`` with 1 vs 2
local worker processes (lease-scheduled over the store bitmap).  The two
runs must be bit-identical (always enforced — sharding may never change
the surface) and, on machines with at least two usable cores, 2 workers
must deliver ``--min-dist-speedup`` (default 1.6x) over 1; on
single-core machines the speedup is recorded as context only, matching
the parallel bench's convention.  Recorded in
``benchmarks/out/dist_scaling.json``; ``--skip-dist`` skips it.

Also measures the serve front door's shared-spectrum batching: 8
concurrent small (512^2) requests drawing on the same noise plane with
4 distinct spectrum heights, run through the
``repro.serve.batch.Batcher`` (one noise read + one forward-FFT set
shared across the group, value-equal kernels deduplicated) vs the same
8 requests generated sequentially one solo windowed pass at a time.
Fails when the batched throughput falls below
``--min-serve-batch-speedup`` (default 1.5x) or any batched reply is
not bit-identical to its solo counterpart (always enforced — batching
may never change the bytes).  Recorded in
``benchmarks/out/serve_batching.json``; ``--skip-serve`` skips it.

Finally measures the circulant-embedding oracle's throughput against
the convolution method on a 512^2 window (fields per second; the
circulant sampler yields two independent fields per torus FFT) and
fails when the oracle's embedding needed eigenvalue repair beyond
rounding noise (``eig_clipped_mass`` > 1e-12 would mean the "exact"
oracle is silently approximate).  Recorded in
``benchmarks/out/circulant_throughput.json``; ``--skip-circulant``
skips it.

Also measures the ``repro.verify`` streaming verification pass against
the 4096^2 store-backed self-affine generation run it gates and fails
when verification costs more than ``--max-verify-overhead`` (default
10%) of the generation wall time, or when the reference surface fails
its own verification report.  Recorded in
``benchmarks/out/verify_overhead.json``; ``--skip-verify`` skips it.

Also times a serial 4096^2 run from a ``GenerationSpec`` to a verified
store (``run_spec(..., verify=True)``; 512^2 tiles, 129^2 kernel, 256^2
noise blocks) under tracing and reads the noise plane's own ``rng.*``
counters.  Fails when the run draws more than ``NOISE_MAX_BLOCKS_DRAWN``
(576) noise blocks — a count, not a time, so the row does not move with
machine speed — or when the surface fails its verification report.  Recorded in
``benchmarks/out/noise_reuse.json``; ``--skip-noise-reuse`` skips it.

Usage (CI tier-2, after running the benches)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine_fft.py \\
        benchmarks/test_bench_inhomo_batch.py
    PYTHONPATH=src python benchmarks/check_engine_gate.py

Exit code 0 on pass, 1 on any gate failure, 2 when a results file is
missing or unreadable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

DEFAULT_RESULTS = Path(__file__).resolve().parent / "out" / "engine_fft.json"
DEFAULT_INHOMO_RESULTS = (
    Path(__file__).resolve().parent / "out" / "inhomo_batch.json"
)
DEFAULT_OBS_RESULTS = (
    Path(__file__).resolve().parent / "out" / "obs_overhead.json"
)
DEFAULT_JOBS_RESULTS = (
    Path(__file__).resolve().parent / "out" / "jobs_overhead.json"
)
DEFAULT_STORE_RESULTS = (
    Path(__file__).resolve().parent / "out" / "store_overhead.json"
)
DEFAULT_DTYPE_RESULTS = (
    Path(__file__).resolve().parent / "out" / "engine_dtype.json"
)
DEFAULT_CIRCULANT_RESULTS = (
    Path(__file__).resolve().parent / "out" / "circulant_throughput.json"
)
DEFAULT_DIST_RESULTS = (
    Path(__file__).resolve().parent / "out" / "dist_scaling.json"
)
DEFAULT_TELEMETRY_RESULTS = (
    Path(__file__).resolve().parent / "out" / "telemetry_overhead.json"
)
DEFAULT_SERVE_RESULTS = (
    Path(__file__).resolve().parent / "out" / "serve_batching.json"
)
DEFAULT_VERIFY_RESULTS = (
    Path(__file__).resolve().parent / "out" / "verify_overhead.json"
)
DEFAULT_NOISE_RESULTS = (
    Path(__file__).resolve().parent / "out" / "noise_reuse.json"
)

# Overhead-measurement scenario: the engine bench's homogeneous FFT
# configuration (dx=1 grid, cl=24 Gaussian -> 129^2 kernel) tiled over a
# 2048^2 output — large enough that per-span cost, not startup jitter,
# dominates the delta.
OBS_SURFACE = 2048
OBS_TILE = 512
OBS_TRUNC = (64, 64)
OVERHEAD_REPEATS = 7  # odd: both overhead rows are medians of per-pair ratios

# Dist-scaling scenario: same engine configuration, large enough that
# tile compute dominates worker startup and socket chatter.
DIST_SURFACE = 8192
DIST_TILE = 512


def _import_repro():
    """Import ``repro``, falling back to the sibling ``src`` tree."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro  # noqa: F401
    return repro


def _write_row(path: Path, row: dict) -> None:
    """Record one gate row, stamped with schema/git-rev/timestamp."""
    _import_repro()
    try:
        from _helpers import write_bench_json
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from _helpers import write_bench_json
    path.parent.mkdir(exist_ok=True)
    write_bench_json(path, row)


def measure_obs_overhead() -> dict:
    """Time a tiled homogeneous FFT run with tracing off vs on.

    Returns the recorded row: best wall time per mode, the relative
    overhead (median of per-pair ratios over order-alternated
    back-to-back runs — see ``measure_jobs_overhead`` for why), and the
    span/counter volume of one traced pass.
    """
    _import_repro()
    from repro import obs
    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.parallel.executor import generate_tiled
    from repro.parallel.tiles import TilePlan

    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    gen = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                               engine="fft")
    noise = BlockNoise(seed=41)
    plan = TilePlan(total_nx=OBS_SURFACE, total_ny=OBS_SURFACE,
                    tile_nx=OBS_TILE, tile_ny=OBS_TILE)

    def run_off() -> float:
        t0 = time.perf_counter()
        generate_tiled(gen, noise, plan, backend="serial")
        return time.perf_counter() - t0

    span_count = counter_total = 0

    def run_on() -> float:
        nonlocal span_count, counter_total
        with obs.recording() as rec:
            t0 = time.perf_counter()
            generate_tiled(gen, noise, plan, backend="serial")
            elapsed = time.perf_counter() - t0
            span_count = len(rec.spans())
            counter_total = sum(rec.metrics.counters().values())
        return elapsed

    # Warm the plan cache, scipy FFT workspaces and both code paths so
    # the repeats time the steady state the budget is defined against.
    gen.generate_window(noise, 0, 0, OBS_TILE, OBS_TILE)
    run_off()
    run_on()

    times_off, times_on, ratios = [], [], []
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            toff, ton = run_off(), run_on()
        else:
            ton, toff = run_on(), run_off()
        times_off.append(toff)
        times_on.append(ton)
        ratios.append(ton / toff)
    t_off = min(times_off)
    t_on = min(times_on)
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    return {
        "claim": "repro.obs tracing costs <=3% on the homogeneous "
                 "2048^2 tiled FFT path",
        "surface": [OBS_SURFACE, OBS_SURFACE],
        "tile": [OBS_TILE, OBS_TILE],
        "repeats": OVERHEAD_REPEATS,
        "timings_s": {
            "tracing_off_best": t_off,
            "tracing_on_best": t_on,
            "tracing_off_all": times_off,
            "tracing_on_all": times_on,
        },
        "overhead": overhead,
        "spans_per_traced_run": span_count,
        "counter_increments_per_traced_run": counter_total,
    }


def measure_jobs_overhead() -> dict:
    """Time the clean 2048^2 serial tiled run without and with a retry
    policy.

    Both runs go through the executor's one scheduler; the "plain" run
    passes ``retry=None`` (no policy: the first failure raises), the
    "resilient" run ``retry=RetryPolicy()``, which arms the per-tile
    failure bookkeeping even when nothing fails.  The gate holds that
    cost to a small fraction of the no-policy run.  Overhead is the
    median of per-pair ratios over order-alternated back-to-back runs,
    which stays inside the tight 2% budget where independent best-of
    minima do not.
    """
    _import_repro()
    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.jobs import RetryPolicy
    from repro.parallel.executor import generate_tiled
    from repro.parallel.tiles import TilePlan

    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    gen = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                               engine="fft")
    noise = BlockNoise(seed=43)
    plan = TilePlan(total_nx=OBS_SURFACE, total_ny=OBS_SURFACE,
                    tile_nx=OBS_TILE, tile_ny=OBS_TILE)
    policy = RetryPolicy()

    def run_plain() -> float:
        t0 = time.perf_counter()
        generate_tiled(gen, noise, plan, backend="serial")
        return time.perf_counter() - t0

    def run_resilient() -> float:
        t0 = time.perf_counter()
        generate_tiled(gen, noise, plan, backend="serial", retry=policy)
        return time.perf_counter() - t0

    # warm the plan cache AND the scheduler with and without a policy:
    # the 2% budget is tight enough that first-call allocation noise
    # would dominate it
    run_plain()
    run_resilient()

    # The 2% budget sits inside this machine's run-to-run noise band, so
    # neither best-of nor totals are stable enough.  Instead: time the
    # two modes back to back (adjacent runs share whatever drift is
    # happening), alternate which mode goes first to cancel ordering
    # bias, and take the median of the per-pair ratios so one noisy pair
    # cannot move the verdict.
    times_plain, times_resilient, ratios = [], [], []
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            tp, tr = run_plain(), run_resilient()
        else:
            tr, tp = run_resilient(), run_plain()
        times_plain.append(tp)
        times_resilient.append(tr)
        ratios.append(tr / tp)
    t_plain = min(times_plain)
    t_resilient = min(times_resilient)
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    return {
        "claim": "the fault-tolerant executor path costs <=2% on a "
                 "clean homogeneous 2048^2 serial tiled run",
        "surface": [OBS_SURFACE, OBS_SURFACE],
        "tile": [OBS_TILE, OBS_TILE],
        "repeats": OVERHEAD_REPEATS,
        "retry_policy": policy.to_dict(),
        "timings_s": {
            "plain_best": t_plain,
            "resilient_best": t_resilient,
            "plain_all": times_plain,
            "resilient_all": times_resilient,
        },
        "overhead": overhead,
    }


def measure_store_overhead() -> dict:
    """Time the 4096^2 serial tiled run in-memory vs store-backed.

    The store path adds the async writeback pipeline: every 512^2 tile
    crosses a bounded queue and is ``pwrite``-written to the heights
    file by a background thread while the next tile computes.  The gate
    holds that full-surface disk writeback to a small fraction of the
    in-memory run.  Same pairing/median methodology as
    ``measure_jobs_overhead`` (the budget sits near machine noise).
    """
    import os
    import shutil
    import tempfile

    _import_repro()
    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.io.store import SurfaceStore
    from repro.parallel.executor import generate_tiled
    from repro.parallel.tiles import TilePlan

    # Flush dirty pages left by whatever ran before this measurement
    # (e.g. a full test-suite pass that wrote gigabytes of stores):
    # background writeback steals disk bandwidth from the store-backed
    # passes but not from the in-memory passes, which asymmetrically
    # inflates the measured ratio well past the real overhead.
    os.sync()

    surface_n = 4096
    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    gen = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                               engine="fft")
    noise = BlockNoise(seed=47)
    plan = TilePlan(total_nx=surface_n, total_ny=surface_n,
                    tile_nx=OBS_TILE, tile_ny=OBS_TILE)

    def run_memory() -> float:
        t0 = time.perf_counter()
        generate_tiled(gen, noise, plan, backend="serial")
        return time.perf_counter() - t0

    def run_store() -> float:
        scratch = tempfile.mkdtemp(prefix="store-gate-")
        try:
            store = SurfaceStore.create(
                Path(scratch) / "s", shape=(surface_n, surface_n),
                chunk=(OBS_TILE, OBS_TILE),
            )
            t0 = time.perf_counter()
            generate_tiled(gen, noise, plan, backend="serial", out=store)
            elapsed = time.perf_counter() - t0
            store.close()
            return elapsed
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # warm plan cache, FFT workspaces and both schedulers
    gen.generate_window(noise, 0, 0, OBS_TILE, OBS_TILE)
    run_memory()
    run_store()

    times_memory, times_store, ratios = [], [], []
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            tm, ts = run_memory(), run_store()
        else:
            ts, tm = run_store(), run_memory()
        times_memory.append(tm)
        times_store.append(ts)
        ratios.append(ts / tm)
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    return {
        "claim": "store-backed writeback costs <=5% over the in-memory "
                 "tiled run at 4096^2",
        "surface": [surface_n, surface_n],
        "tile": [OBS_TILE, OBS_TILE],
        "chunk": [OBS_TILE, OBS_TILE],
        "bytes_written_per_run": surface_n * surface_n * 8,
        "repeats": OVERHEAD_REPEATS,
        "timings_s": {
            "memory_best": min(times_memory),
            "store_best": min(times_store),
            "memory_all": times_memory,
            "store_all": times_store,
        },
        "overhead": overhead,
    }


def measure_dtype_speedup() -> dict:
    """Time the 4096^2 homogeneous FFT engine pass float64 vs float32.

    Engine work only: each pass runs the per-tile valid correlations
    over the full tile plan with the noise windows read outside the
    timer — the same convention as the engine bench, because the noise
    plane costs the same in both precisions and its jitter would dilute
    the dtype delta this row exists to pin.  Speedup is the median of
    per-pair ratios over order-alternated back-to-back passes.  The row
    also records the max float32-vs-float64 surface deviation, so a
    "fast but wrong" single-precision path cannot pass.
    """
    _import_repro()
    import numpy as np

    from repro.core.convolution import (
        ConvolutionGenerator,
        apply_kernels_valid,
        noise_window_for,
    )
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.parallel.tiles import TilePlan

    surface_n = 4096
    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    gen = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                               engine="fft")
    noise = BlockNoise(seed=53)
    plan = TilePlan(total_nx=surface_n, total_ny=surface_n,
                    tile_nx=OBS_TILE, tile_ny=OBS_TILE)

    windows = []
    for t in plan:
        wx0, wy0, wnx, wny = noise_window_for(gen.kernel, t.x0, t.y0,
                                              t.nx, t.ny)
        windows.append(noise.window(wx0, wy0, wnx, wny))

    def run(dtype) -> float:
        t0 = time.perf_counter()
        for w in windows:
            apply_kernels_valid([gen.kernel], w, engine="fft", dtype=dtype)
        return time.perf_counter() - t0

    # warm plan cache + FFT workspaces for both precisions
    run(np.float64)
    run(np.float32)

    times_f64, times_f32, ratios = [], [], []
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            t64, t32 = run(np.float64), run(np.float32)
        else:
            t32, t64 = run(np.float32), run(np.float64)
        times_f64.append(t64)
        times_f32.append(t32)
        ratios.append(t64 / t32)
    speedup = sorted(ratios)[len(ratios) // 2]

    # accuracy companion: the float32 surface must track float64 (one
    # tile is enough — every tile exercises the same kernel/plan)
    w = windows[0]
    out64 = apply_kernels_valid([gen.kernel], w, engine="fft")[0]
    out32 = apply_kernels_valid([gen.kernel], w, engine="fft",
                                dtype=np.float32)[0]
    maxdev = float(np.abs(out32.astype(np.float64) - out64).max())

    return {
        "claim": "float32 engine mode >=1.3x over float64 on the "
                 "homogeneous 4096^2 tiled FFT path, tracking float64 "
                 "to single-precision rounding",
        "surface": [surface_n, surface_n],
        "tile": [OBS_TILE, OBS_TILE],
        "kernel": list(gen.footprint),
        "tiles": len(plan),
        "repeats": OVERHEAD_REPEATS,
        "timings_s": {
            "float64_best": min(times_f64),
            "float32_best": min(times_f32),
            "float64_all": times_f64,
            "float32_all": times_f32,
        },
        "speedup_float32_vs_float64": speedup,
        "max_abs_dev_float32_vs_float64": maxdev,
    }


def _usable_cores() -> int:
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def measure_dist_scaling(workers_counts=(1, 2)) -> dict:
    """Throughput of ``generate_dist`` at 1 vs 2 worker processes.

    Runs the homogeneous 8192^2 tiled FFT workload (the engine bench's
    dx=1 / cl=24 / 129^2-kernel configuration, 512^2 tiles) through the
    coordinator/worker runtime once per worker count, each into a fresh
    scratch store.  Workers are real ``python -m repro dist worker``
    subprocesses, so the measurement includes the full distribution tax:
    process startup, recipe rebuild, socket leases, shared-store
    writeback, coordinator-side fsync.

    Each run's heights are hashed so the row also pins the dist
    invariant that matters more than speed: worker count may change
    wall time, never bytes.
    """
    import hashlib
    import shutil
    import tempfile

    _import_repro()
    import numpy as np

    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.dist.executor import generate_dist
    from repro.io.store import SurfaceStore
    from repro.parallel.tiles import TilePlan

    n, tile = DIST_SURFACE, DIST_TILE
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    rebuild = {
        "kind": "convolution",
        "spectrum": spec.to_dict(),
        "grid": {"nx": 256, "ny": 256, "lx": 256.0, "ly": 256.0},  # dx = 1
        "truncation": list(OBS_TRUNC),
        "engine": "fft",
        "dtype": "float64",
    }
    noise = BlockNoise(seed=59)
    plan = TilePlan(total_nx=n, total_ny=n, tile_nx=tile, tile_ny=tile)

    def run(workers: int):
        scratch = tempfile.mkdtemp(prefix="dist-gate-")
        try:
            store = SurfaceStore.create(
                Path(scratch) / "s", shape=(n, n), chunk=(tile, tile),
            )
            t0 = time.perf_counter()
            surface = generate_dist(rebuild, noise, plan, store,
                                    workers=workers, lease_timeout_s=300.0)
            elapsed = time.perf_counter() - t0
            digest = hashlib.sha256(
                np.ascontiguousarray(surface.heights).tobytes()
            ).hexdigest()
            lease = surface.provenance["dist"]["lease"]
            store.close()
            return elapsed, digest, lease
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    timings, digests, leases = {}, {}, {}
    for workers in workers_counts:
        elapsed, digest, lease = run(workers)
        key = f"workers_{workers}"
        timings[key] = elapsed
        digests[key] = digest
        leases[key] = lease

    base = f"workers_{workers_counts[0]}"
    top = f"workers_{workers_counts[-1]}"
    return {
        "claim": "dist backend: 2 workers >= 1.6x throughput over 1 on "
                 "the homogeneous 8192^2 path (enforced with >= 2 usable "
                 "cores); worker count never changes the bytes",
        "surface": [n, n],
        "tile": [tile, tile],
        "tiles": len(plan),
        "workers_counts": list(workers_counts),
        "usable_cores": _usable_cores(),
        "timings_s": timings,
        "throughput_samples_per_s": {
            k: n * n / t for k, t in timings.items()
        },
        "speedup": timings[base] / timings[top],
        "bit_identical_across_worker_counts":
            len(set(digests.values())) == 1,
        "heights_sha256": digests,
        "lease": leases,
    }


def measure_telemetry_overhead() -> dict:
    """Time the 2048^2 dist run with live telemetry off vs on.

    "On" means the full PR-8 telemetry plane: worker heartbeat frames
    every 0.25s (tile compute moved to a background thread so the
    socket stays responsive), coordinator-side :class:`RunTracker`
    folding, and the ``/metrics`` + ``/status`` + ``/health`` HTTP
    status thread bound to an OS-assigned port.  "Off" is the exact
    pre-heartbeat wire exchange.  Overhead is the median of per-pair
    ratios over order-alternated back-to-back runs (the budget sits
    near dist-run noise, same methodology as the jobs/store rows), and
    both modes' heights are hashed so the row also pins the obs
    contract: telemetry may cost milliseconds, never bits.
    """
    import hashlib
    import shutil
    import tempfile

    _import_repro()
    import numpy as np

    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.dist.executor import generate_dist
    from repro.io.store import SurfaceStore
    from repro.parallel.tiles import TilePlan

    n, tile = OBS_SURFACE, OBS_TILE
    heartbeat_s = 0.25
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    rebuild = {
        "kind": "convolution",
        "spectrum": spec.to_dict(),
        "grid": {"nx": 256, "ny": 256, "lx": 256.0, "ly": 256.0},  # dx = 1
        "truncation": list(OBS_TRUNC),
        "engine": "fft",
        "dtype": "float64",
    }
    noise = BlockNoise(seed=61)
    plan = TilePlan(total_nx=n, total_ny=n, tile_nx=tile, tile_ny=tile)

    def run(telemetry: bool):
        scratch = tempfile.mkdtemp(prefix="telemetry-gate-")
        try:
            store = SurfaceStore.create(
                Path(scratch) / "s", shape=(n, n), chunk=(tile, tile),
            )
            kwargs = (
                {"heartbeat_s": heartbeat_s, "status_port": 0}
                if telemetry else {}
            )
            t0 = time.perf_counter()
            surface = generate_dist(rebuild, noise, plan, store,
                                    workers=2, lease_timeout_s=300.0,
                                    **kwargs)
            elapsed = time.perf_counter() - t0
            digest = hashlib.sha256(
                np.ascontiguousarray(surface.heights).tobytes()
            ).hexdigest()
            store.close()
            return elapsed, digest
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # Warm both modes: worker subprocesses rebuild their plan caches per
    # run, so the warmup mainly settles the parent-side import state and
    # OS page/file caches the two modes share.
    run(False)
    run(True)

    times_off, times_on, ratios = [], [], []
    digests = set()
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            (toff, doff), (ton, don) = run(False), run(True)
        else:
            (ton, don), (toff, doff) = run(True), run(False)
        times_off.append(toff)
        times_on.append(ton)
        ratios.append(ton / toff)
        digests.update((doff, don))
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    return {
        "claim": "live telemetry (heartbeats + status HTTP endpoints) "
                 "costs <=2% on the 2048^2 2-worker dist path and never "
                 "changes the bytes",
        "surface": [n, n],
        "tile": [tile, tile],
        "tiles": len(plan),
        "workers": 2,
        "heartbeat_s": heartbeat_s,
        "repeats": OVERHEAD_REPEATS,
        "timings_s": {
            "telemetry_off_best": min(times_off),
            "telemetry_on_best": min(times_on),
            "telemetry_off_all": times_off,
            "telemetry_on_all": times_on,
        },
        "overhead": overhead,
        "bit_identical_on_vs_off": len(digests) == 1,
    }


def measure_serve_batching() -> dict:
    """Throughput of batched vs sequential shared-spectrum serving.

    The serving workload this row models: 8 clients concurrently
    request small (512^2) windows of the same noise plane (same seed,
    same window) under 4 distinct spectrum heights — the
    many-realisations / parameter-sweep pattern the serve front door
    batches.  "Batched" runs all 8 through one
    :class:`repro.serve.batch.Batcher` group (one noise read, one
    forward-FFT set shared across the group, value-equal kernels
    collapsed); "sequential" generates the same 8 replies one solo
    ``generate_window`` pass at a time, each reading its own noise —
    what serving would cost without the batcher.  Speedup is the median
    of per-pair ratios over order-alternated back-to-back runs, and
    every batched reply is compared byte-for-byte against its solo
    counterpart: batching may change wall time, never bytes.
    """
    import threading

    _import_repro()
    import numpy as np

    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum
    from repro.serve.batch import Batcher, BatchItem

    n = 512
    seed = 67
    requests = 8
    h_values = (0.5, 1.0, 1.5, 2.0)
    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    gens = [
        ConvolutionGenerator(
            GaussianSpectrum(h=h_values[i % len(h_values)],
                             clx=24.0, cly=24.0),
            grid, truncation=OBS_TRUNC, engine="fft",
        )
        for i in range(requests)
    ]

    def run_sequential():
        t0 = time.perf_counter()
        outs = [
            np.asarray(g.generate_window(BlockNoise(seed=seed), 0, 0, n, n))
            for g in gens
        ]
        return time.perf_counter() - t0, outs

    def run_batched():
        batcher = Batcher(linger_s=0.25, max_batch=requests)
        batcher.start()
        results: list = [None] * requests
        errors: list = []
        lock = threading.Lock()
        done = threading.Event()

        def make_callbacks(i):
            def on_done(heights, meta):
                with lock:
                    results[i] = (np.asarray(heights), meta)
                    if all(r is not None for r in results):
                        done.set()

            def on_error(exc):
                with lock:
                    errors.append(exc)
                    done.set()

            return on_done, on_error

        try:
            t0 = time.perf_counter()
            for i, g in enumerate(gens):
                on_done, on_error = make_callbacks(i)
                batcher.submit(BatchItem(
                    generator=g, seed=seed, noise_block=None,
                    window=(0, 0, n, n),
                    on_done=on_done, on_error=on_error,
                ))
            if not done.wait(120.0):
                raise RuntimeError("batched serve run timed out")
            elapsed = time.perf_counter() - t0
        finally:
            batcher.stop()
        if errors:
            raise errors[0]
        return elapsed, results

    # warm: kernel plans, FFT workspaces, both execution paths
    run_sequential()
    _, warm = run_batched()
    batched_with = warm[0][1]["batched_with"]
    distinct_kernels = warm[0][1]["distinct_kernels"]

    times_seq, times_batched, ratios = [], [], []
    identical = True
    for k in range(OVERHEAD_REPEATS):
        if k % 2 == 0:
            (ts, outs), (tb, got) = run_sequential(), run_batched()
        else:
            (tb, got), (ts, outs) = run_batched(), run_sequential()
        times_seq.append(ts)
        times_batched.append(tb)
        ratios.append(ts / tb)
        identical = identical and all(
            got[i][0].tobytes() == outs[i].tobytes()
            for i in range(requests)
        )
    speedup = sorted(ratios)[len(ratios) // 2]
    return {
        "claim": "serve batching: 8 concurrent same-noise 512^2 requests "
                 ">= 1.5x throughput over sequential solo generation, "
                 "every reply bit-identical to its solo counterpart",
        "window": [n, n],
        "requests": requests,
        "h_values": list(h_values),
        "kernel": list(gens[0].footprint),
        "batched_with": batched_with,
        "distinct_kernels": distinct_kernels,
        "repeats": OVERHEAD_REPEATS,
        "timings_s": {
            "sequential_best": min(times_seq),
            "batched_best": min(times_batched),
            "sequential_all": times_seq,
            "batched_all": times_batched,
        },
        "speedup_batched_vs_sequential": speedup,
        "bit_identical_per_request": identical,
    }


def measure_circulant_throughput() -> dict:
    """Field throughput of the circulant oracle vs the convolution path.

    Informational row (the oracle is a test instrument, not a
    production engine — there is no speed contract either way), plus
    one hard gate: the oracle's embedding on this configuration must be
    nonnegative definite up to rounding (``eig_clipped_mass`` <=
    1e-12), because a clipped embedding would make the "exact" sampler
    silently approximate and quietly weaken every oracle-tier bound.
    The circulant sampler yields two independent fields per torus FFT
    (real and imaginary parts), so its per-field rate is half its
    per-draw rate.
    """
    _import_repro()
    from repro.core.circulant import CirculantGenerator
    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra import GaussianSpectrum

    n = 512
    draws = 6
    grid = Grid2D(nx=n, ny=n, lx=float(n), ly=float(n))  # dx = 1
    spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
    circ = CirculantGenerator(spec, grid)
    conv = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                                engine="fft")

    # warm: builds the embedding eigenvalues / the kernel plan
    circ.generate_pair(seed=0)
    conv.generate(seed=0)

    t0 = time.perf_counter()
    for i in range(draws):
        circ.generate_pair(seed=1 + i)
    t_circ = time.perf_counter() - t0
    circ_fields_per_s = 2 * draws / t_circ

    t0 = time.perf_counter()
    for i in range(draws):
        conv.generate(seed=1 + i)
    t_conv = time.perf_counter() - t0
    conv_fields_per_s = draws / t_conv

    return {
        "claim": "circulant oracle throughput context; its embedding is "
                 "exact (no eigenvalue repair) on the bench "
                 "configuration",
        "surface": [n, n],
        "embedding": list(circ.embedding_info["embedding"]),
        "kernel": list(conv.footprint),
        "draws": draws,
        "timings_s": {
            "circulant_pair_draws": t_circ,
            "convolution_generates": t_conv,
        },
        "circulant_fields_per_s": circ_fields_per_s,
        "convolution_fields_per_s": conv_fields_per_s,
        "throughput_ratio_circulant_vs_convolution":
            circ_fields_per_s / conv_fields_per_s,
        "eig_clipped_mass": circ.embedding_info["eig_clipped_mass"],
        "eig_min": circ.embedding_info["eig_min"],
    }


def check(results: dict, max_slowdown: float, min_speedup: float,
          max_deviation: float) -> list:
    """Return the list of human-readable gate failures (empty = pass)."""
    failures = []
    timings = results["timings_s"]
    default_t = timings["fft_tiled"]  # auto dispatches to fft at this size
    seed_t = timings["legacy_fftconvolve_tiled"]
    ratio = default_t / seed_t
    if ratio > max_slowdown:
        failures.append(
            f"default path regressed: {default_t:.3f}s vs seed "
            f"{seed_t:.3f}s ({ratio:.2f}x > {max_slowdown:.2f}x allowed)"
        )
    speedup = results["speedup_fft_vs_spatial"]
    if speedup < min_speedup:
        failures.append(
            f"fft engine speedup {speedup:.2f}x over the spatial path is "
            f"below the required {min_speedup:.2f}x"
        )
    for key in ("max_abs_dev_fft_vs_legacy",
                "max_abs_dev_fft_vs_spatial_sample"):
        dev = results[key]
        if not dev <= max_deviation:  # catches NaN too
            failures.append(
                f"{key} = {dev:.3e} exceeds {max_deviation:.1e}"
            )
    return failures


def measure_verify_overhead() -> dict:
    """Time ``repro.verify`` against the generation run it gates.

    The verification subsystem is pitched as cheap enough to run on
    every generated surface, so the gate holds its streaming pass
    (radially averaged Welch PSD, ACF, RMS gates, Hurst fit) to a small
    fraction of the generation wall time it certifies.  Workload: the
    4096^2 store-backed self-affine run — the spectrum family with the
    most expensive verification (it adds the log-log Hurst slope fit
    and the roll-off plateau check on top of the common gates).
    Verification cost is held ~constant in surface area by the default
    ``VerifyConfig.max_windows`` window sampling, so this ratio tracks
    the verifier's fixed costs, not a lucky surface size.
    """
    import os
    import shutil
    import tempfile

    _import_repro()
    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.rng import BlockNoise
    from repro.core.spectra_ext import SelfAffineSpectrum
    from repro.io.store import SurfaceStore
    from repro.parallel.executor import generate_tiled
    from repro.parallel.tiles import TilePlan
    from repro.verify import verify_store

    os.sync()  # see measure_store_overhead

    surface_n = 4096
    seed = 42
    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    spec = SelfAffineSpectrum(sigma=1.0, hurst=0.8, qr=0.4)
    gen = ConvolutionGenerator(spec, grid, truncation=OBS_TRUNC,
                               engine="fft")
    noise = BlockNoise(seed=seed)
    plan = TilePlan(total_nx=surface_n, total_ny=surface_n,
                    tile_nx=OBS_TILE, tile_ny=OBS_TILE)

    scratch = tempfile.mkdtemp(prefix="verify-gate-")
    store_path = Path(scratch) / "s"

    def run_generate() -> float:
        shutil.rmtree(store_path, ignore_errors=True)
        store = SurfaceStore.create(
            store_path, shape=(surface_n, surface_n),
            chunk=(OBS_TILE, OBS_TILE),
            meta={"seed": seed, "spectrum": spec.to_dict()},
        )
        t0 = time.perf_counter()
        generate_tiled(gen, noise, plan, backend="serial", out=store)
        elapsed = time.perf_counter() - t0
        store.close()
        return elapsed

    def run_verify():
        t0 = time.perf_counter()
        report = verify_store(store_path)
        return time.perf_counter() - t0, report

    # Warm the plan cache, FFT workspaces and the page cache, then time
    # generation (expensive: best of a few full runs) and verification
    # (cheap: median of several passes over the final store).
    gen.generate_window(noise, 0, 0, OBS_TILE, OBS_TILE)
    times_generate = [run_generate() for _ in range(3)]
    run_verify()
    times_verify, report = [], None
    for _ in range(5):
        t, report = run_verify()
        times_verify.append(t)
    shutil.rmtree(scratch, ignore_errors=True)

    gen_best = min(times_generate)
    verify_median = sorted(times_verify)[len(times_verify) // 2]
    return {
        "claim": "streaming verification costs <=10% of the generation "
                 "wall time it gates at 4096^2",
        "surface": [surface_n, surface_n],
        "tile": [OBS_TILE, OBS_TILE],
        "spectrum": spec.to_dict(),
        "segment": report.config["segment"],
        "stride": report.config["stride"],
        "report_passed": bool(report.passed),
        "timings_s": {
            "generate_best": gen_best,
            "verify_median": verify_median,
            "generate_all": times_generate,
            "verify_all": times_verify,
        },
        "overhead": verify_median / gen_best,
    }


#: Noise blocks the noise-reuse row's run may draw: one per block a tile's
#: window does not share with the previous tile's.  Only meaningful for
#: the geometry ``measure_noise_reuse`` fixes: 4096^2 in 512^2 tiles,
#: 129^2 kernel, 256^2 blocks (64 windows of 4x4 blocks, 324 distinct
#: blocks).
NOISE_MAX_BLOCKS_DRAWN = 576


def measure_noise_reuse() -> dict:
    """Time a traced serial 4096^2 spec-to-verified-store run; count its
    noise draws.

    Each 512^2 tile reads a 640^2 halo window spanning 4x4 noise blocks
    of 256^2: 64 windows of 16 blocks.  The serial loop's helper thread
    draws most of them ahead of the tile (``rng.prefetch``); its draws
    count in ``rng.blocks_drawn`` with the tiles' own.  The row records
    the run's wall time, the plane's ``rng.*`` counters and its
    ``rng.noise`` and ``rng.prefetch`` spans.  Only the count is gated.
    """
    import os
    import shutil
    import tempfile

    _import_repro()
    from repro import obs
    from repro.core.spec import GenerationSpec
    from repro.jobs import run_spec

    os.sync()  # see measure_store_overhead

    surface_n = 4096
    noise_block = 256
    scratch = Path(tempfile.mkdtemp(prefix="noise-gate-"))
    spec = GenerationSpec(
        generator={
            "kind": "convolution",
            "spectrum": {"kind": "gaussian", "h": 1.0,
                         "clx": 24.0, "cly": 24.0},
            "grid": {"nx": 256, "ny": 256, "lx": 256.0, "ly": 256.0},
            "truncation": list(OBS_TRUNC),
        },
        seed=1, noise_block=noise_block,
        plan={"total_nx": surface_n, "total_ny": surface_n,
              "tile_nx": OBS_TILE, "tile_ny": OBS_TILE},
        store_path=str(scratch / "store"),
    )
    try:
        with obs.recording() as rec:
            t0 = time.perf_counter()
            surface = run_spec(spec, checkpoint=scratch / "ckpt",
                               verify=True)
            wall_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    counters = rec.metrics.counters("rng.")
    spans = rec.span_stats()
    drawn = counters.get("rng.blocks_drawn", 0)
    prefetched = counters.get("rng.blocks_prefetched", 0)
    reused = counters.get("rng.blocks_reused", 0)
    return {
        "claim": f"a serial 4096^2 spec-to-verified-store run draws "
                 f"<={NOISE_MAX_BLOCKS_DRAWN} noise blocks (512^2 tiles, "
                 f"129^2 kernel, 256^2 blocks)",
        "surface": [surface_n, surface_n],
        "tile": [OBS_TILE, OBS_TILE],
        "kernel": [2 * OBS_TRUNC[0] + 1, 2 * OBS_TRUNC[1] + 1],
        "noise_block": noise_block,
        "traced_wall_s": wall_s,
        "rng_noise_s": spans.get("rng.noise", {}).get("total_s", 0.0),
        "rng_prefetch_s": spans.get("rng.prefetch", {}).get("total_s", 0.0),
        # window reads: those that drew, plus those the cache served
        "blocks_requested": drawn - prefetched + reused,
        "blocks_drawn": drawn,
        "blocks_prefetched": prefetched,
        "blocks_reused": reused,
        "verify_passed": bool(surface.provenance["verify"]["passed"]),
    }


def check_noise_reuse(row: dict) -> list:
    """Gate failures for the noise-reuse row."""
    failures = []
    drawn = row["blocks_drawn"]
    if not drawn <= NOISE_MAX_BLOCKS_DRAWN:  # catches NaN too
        failures.append(
            f"the 4096^2 run drew {drawn} noise blocks, over the "
            f"{NOISE_MAX_BLOCKS_DRAWN} allowed — the plane is redrawing "
            f"blocks its neighbouring tiles already drew"
        )
    if not row["verify_passed"]:
        failures.append("the noise-reuse run failed its verification report")
    return failures


def check_inhomo(results: dict, min_batch_speedup: float,
                 max_deviation: float, max_homog_slowdown: float) -> list:
    """Gate failures for the batched multi-region bench row."""
    failures = []
    speedup = results["speedup_batched_vs_per_region"]
    if not speedup >= min_batch_speedup:  # catches NaN too
        failures.append(
            f"batched multi-region speedup {speedup:.2f}x over the "
            f"per-region path is below the required "
            f"{min_batch_speedup:.2f}x"
        )
    dev = results["max_abs_dev_batched_vs_spatial_sample"]
    if not dev <= max_deviation:
        failures.append(
            f"max_abs_dev_batched_vs_spatial_sample = {dev:.3e} exceeds "
            f"{max_deviation:.1e}"
        )
    ratio = results["homogeneous_ratio"]
    if not ratio <= max_homog_slowdown:
        failures.append(
            f"homogeneous default path regressed: {ratio:.2f}x of the "
            f"seed baseline > {max_homog_slowdown:.2f}x allowed"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="?", type=Path,
                        default=DEFAULT_RESULTS,
                        help="engine bench results JSON "
                             "(default: benchmarks/out/engine_fft.json)")
    parser.add_argument("--inhomo-results", type=Path,
                        default=DEFAULT_INHOMO_RESULTS,
                        help="batched multi-region bench results JSON "
                             "(default: benchmarks/out/inhomo_batch.json)")
    parser.add_argument("--max-slowdown", type=float, default=1.10,
                        help="allowed default-path time as a multiple of "
                             "the seed baseline (default 1.10)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required fft-vs-spatial speedup (default 3.0)")
    parser.add_argument("--min-batch-speedup", type=float, default=2.0,
                        help="required batched-vs-per-region speedup on "
                             "the M=4 layout (default 2.0)")
    parser.add_argument("--max-homog-slowdown", type=float, default=1.10,
                        help="allowed homogeneous-path time as a multiple "
                             "of the seed baseline (default 1.10)")
    parser.add_argument("--max-deviation", type=float, default=1e-10,
                        help="allowed max abs deviation between engines")
    parser.add_argument("--max-obs-overhead", type=float, default=0.03,
                        help="allowed relative tracing overhead on the "
                             "homogeneous FFT path (default 0.03 = 3%%)")
    parser.add_argument("--obs-results", type=Path,
                        default=DEFAULT_OBS_RESULTS,
                        help="where to record the obs-overhead row "
                             "(default: benchmarks/out/obs_overhead.json)")
    parser.add_argument("--skip-obs-overhead", action="store_true",
                        help="skip the live tracing-overhead measurement")
    parser.add_argument("--max-jobs-overhead", type=float, default=0.02,
                        help="allowed relative overhead of a retry "
                             "policy on a clean tiled run "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--jobs-results", type=Path,
                        default=DEFAULT_JOBS_RESULTS,
                        help="where to record the jobs-overhead row "
                             "(default: benchmarks/out/jobs_overhead.json)")
    parser.add_argument("--skip-jobs-overhead", action="store_true",
                        help="skip the live resilient-executor overhead "
                             "measurement")
    parser.add_argument("--max-store-overhead", type=float, default=0.05,
                        help="allowed relative overhead of the store-backed "
                             "writeback path vs the in-memory tiled run "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--store-results", type=Path,
                        default=DEFAULT_STORE_RESULTS,
                        help="where to record the store-overhead row "
                             "(default: benchmarks/out/store_overhead.json)")
    parser.add_argument("--skip-store-overhead", action="store_true",
                        help="skip the live store-writeback overhead "
                             "measurement")
    parser.add_argument("--min-dtype-speedup", type=float, default=1.3,
                        help="required float32-vs-float64 engine speedup "
                             "on the homogeneous 4096^2 path (default 1.3)")
    parser.add_argument("--max-dtype-deviation", type=float, default=1e-4,
                        help="allowed max abs float32-vs-float64 surface "
                             "deviation (default 1e-4; measured ~1e-6)")
    parser.add_argument("--dtype-results", type=Path,
                        default=DEFAULT_DTYPE_RESULTS,
                        help="where to record the dtype-speedup row "
                             "(default: benchmarks/out/engine_dtype.json)")
    parser.add_argument("--skip-dtype-speedup", action="store_true",
                        help="skip the live float32-speedup measurement")
    parser.add_argument("--min-dist-speedup", type=float, default=1.6,
                        help="required 2-worker-vs-1 throughput speedup "
                             "for the dist backend on the homogeneous "
                             "8192^2 path; enforced only with >= 2 usable "
                             "cores (default 1.6)")
    parser.add_argument("--dist-results", type=Path,
                        default=DEFAULT_DIST_RESULTS,
                        help="where to record the dist-scaling row "
                             "(default: benchmarks/out/dist_scaling.json)")
    parser.add_argument("--skip-dist", action="store_true",
                        help="skip the dist worker-scaling measurement")
    parser.add_argument("--max-telemetry-overhead", type=float,
                        default=0.02,
                        help="allowed relative overhead of live telemetry "
                             "(heartbeats + status endpoints) on the "
                             "2048^2 2-worker dist path "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--telemetry-results", type=Path,
                        default=DEFAULT_TELEMETRY_RESULTS,
                        help="where to record the telemetry-overhead row "
                             "(default: benchmarks/out/"
                             "telemetry_overhead.json)")
    parser.add_argument("--skip-telemetry", action="store_true",
                        help="skip the live telemetry-overhead "
                             "measurement")
    parser.add_argument("--min-serve-batch-speedup", type=float,
                        default=1.5,
                        help="required batched-vs-sequential throughput "
                             "speedup for 8 concurrent same-noise small "
                             "requests through the serve batcher "
                             "(default 1.5)")
    parser.add_argument("--serve-results", type=Path,
                        default=DEFAULT_SERVE_RESULTS,
                        help="where to record the serve-batching row "
                             "(default: benchmarks/out/serve_batching.json)")
    parser.add_argument("--skip-serve", action="store_true",
                        help="skip the serve-batching measurement")
    parser.add_argument("--max-eig-clipped-mass", type=float, default=1e-12,
                        help="allowed clipped-eigenvalue mass in the "
                             "circulant oracle's embedding (default 1e-12)")
    parser.add_argument("--circulant-results", type=Path,
                        default=DEFAULT_CIRCULANT_RESULTS,
                        help="where to record the circulant throughput row "
                             "(default: benchmarks/out/"
                             "circulant_throughput.json)")
    parser.add_argument("--skip-circulant", action="store_true",
                        help="skip the circulant-vs-convolution "
                             "throughput measurement")
    parser.add_argument("--max-verify-overhead", type=float, default=0.10,
                        help="max repro.verify cost as a fraction of the "
                             "generation wall time it gates "
                             "(default: 0.10)")
    parser.add_argument("--verify-results", type=Path,
                        default=DEFAULT_VERIFY_RESULTS,
                        help="where to record the verify overhead row "
                             "(default: benchmarks/out/"
                             "verify_overhead.json)")
    parser.add_argument("--skip-verify", action="store_true",
                        help="skip the verification-overhead measurement")
    parser.add_argument("--noise-results", type=Path,
                        default=DEFAULT_NOISE_RESULTS,
                        help="where to record the noise-reuse row "
                             "(default: benchmarks/out/noise_reuse.json)")
    parser.add_argument("--skip-noise-reuse", action="store_true",
                        help="skip the noise-reuse measurement")
    args = parser.parse_args(argv)

    failures = []
    if not args.skip_obs_overhead:
        # Live measurement first: the obs row is recorded even when the
        # bench JSONs are missing (that still exits 2 below).
        obs_row = measure_obs_overhead()
        _write_row(args.obs_results, obs_row)
        print(
            f"obs gate: tracing off {obs_row['timings_s']['tracing_off_best']:.3f}s, "
            f"on {obs_row['timings_s']['tracing_on_best']:.3f}s, overhead "
            f"{obs_row['overhead'] * 100:.2f}% "
            f"({obs_row['spans_per_traced_run']} spans)"
        )
        if not obs_row["overhead"] <= args.max_obs_overhead:  # catches NaN
            failures.append(
                f"tracing overhead {obs_row['overhead'] * 100:.2f}% exceeds "
                f"the {args.max_obs_overhead * 100:.1f}% budget"
            )

    if not args.skip_jobs_overhead:
        jobs_row = measure_jobs_overhead()
        _write_row(args.jobs_results, jobs_row)
        print(
            f"jobs gate: plain {jobs_row['timings_s']['plain_best']:.3f}s, "
            f"resilient {jobs_row['timings_s']['resilient_best']:.3f}s, "
            f"overhead {jobs_row['overhead'] * 100:.2f}%"
        )
        if not jobs_row["overhead"] <= args.max_jobs_overhead:  # catches NaN
            failures.append(
                f"resilient executor overhead "
                f"{jobs_row['overhead'] * 100:.2f}% exceeds the "
                f"{args.max_jobs_overhead * 100:.1f}% budget"
            )

    if not args.skip_store_overhead:
        store_row = measure_store_overhead()
        _write_row(args.store_results, store_row)
        print(
            f"store gate: memory "
            f"{store_row['timings_s']['memory_best']:.3f}s, store "
            f"{store_row['timings_s']['store_best']:.3f}s, overhead "
            f"{store_row['overhead'] * 100:.2f}%"
        )
        if not store_row["overhead"] <= args.max_store_overhead:  # NaN too
            failures.append(
                f"store writeback overhead "
                f"{store_row['overhead'] * 100:.2f}% exceeds the "
                f"{args.max_store_overhead * 100:.1f}% budget"
            )

    if not args.skip_dtype_speedup:
        dtype_row = measure_dtype_speedup()
        _write_row(args.dtype_results, dtype_row)
        print(
            f"dtype gate: float64 "
            f"{dtype_row['timings_s']['float64_best']:.3f}s, float32 "
            f"{dtype_row['timings_s']['float32_best']:.3f}s, speedup "
            f"{dtype_row['speedup_float32_vs_float64']:.2f}x, maxdev "
            f"{dtype_row['max_abs_dev_float32_vs_float64']:.2e}"
        )
        speedup = dtype_row["speedup_float32_vs_float64"]
        if not speedup >= args.min_dtype_speedup:  # catches NaN too
            failures.append(
                f"float32 engine speedup {speedup:.2f}x is below the "
                f"required {args.min_dtype_speedup:.2f}x"
            )
        dev = dtype_row["max_abs_dev_float32_vs_float64"]
        if not dev <= args.max_dtype_deviation:
            failures.append(
                f"float32 surface deviates from float64 by {dev:.3e} "
                f"(> {args.max_dtype_deviation:.1e} allowed)"
            )

    if not args.skip_dist:
        dist_row = measure_dist_scaling()
        _write_row(args.dist_results, dist_row)
        cores = dist_row["usable_cores"]
        print(
            f"dist gate: 1 worker "
            f"{dist_row['timings_s']['workers_1']:.3f}s, 2 workers "
            f"{dist_row['timings_s']['workers_2']:.3f}s, speedup "
            f"{dist_row['speedup']:.2f}x ({cores} usable core(s)), "
            f"bit-identical: "
            f"{dist_row['bit_identical_across_worker_counts']}"
        )
        if not dist_row["bit_identical_across_worker_counts"]:
            failures.append(
                "dist runs with different worker counts produced "
                "different bytes — sharding must never change the surface"
            )
        if cores >= 2:
            if not dist_row["speedup"] >= args.min_dist_speedup:  # NaN too
                failures.append(
                    f"dist 2-worker speedup {dist_row['speedup']:.2f}x is "
                    f"below the required {args.min_dist_speedup:.2f}x"
                )
        else:
            print(
                "dist gate: single usable core — speedup recorded as "
                "context, threshold not enforced"
            )

    if not args.skip_telemetry:
        tel_row = measure_telemetry_overhead()
        _write_row(args.telemetry_results, tel_row)
        print(
            f"telemetry gate: off "
            f"{tel_row['timings_s']['telemetry_off_best']:.3f}s, on "
            f"{tel_row['timings_s']['telemetry_on_best']:.3f}s, overhead "
            f"{tel_row['overhead'] * 100:.2f}%, bit-identical: "
            f"{tel_row['bit_identical_on_vs_off']}"
        )
        if not tel_row["bit_identical_on_vs_off"]:
            failures.append(
                "telemetry on vs off produced different bytes — the obs "
                "contract forbids telemetry from changing the surface"
            )
        if not tel_row["overhead"] <= args.max_telemetry_overhead:  # NaN
            failures.append(
                f"telemetry overhead {tel_row['overhead'] * 100:.2f}% "
                f"exceeds the {args.max_telemetry_overhead * 100:.1f}% "
                f"budget"
            )

    if not args.skip_serve:
        serve_row = measure_serve_batching()
        _write_row(args.serve_results, serve_row)
        print(
            f"serve gate: sequential "
            f"{serve_row['timings_s']['sequential_best']:.3f}s, batched "
            f"{serve_row['timings_s']['batched_best']:.3f}s, speedup "
            f"{serve_row['speedup_batched_vs_sequential']:.2f}x "
            f"({serve_row['batched_with']} requests/"
            f"{serve_row['distinct_kernels']} kernels), bit-identical: "
            f"{serve_row['bit_identical_per_request']}"
        )
        if not serve_row["bit_identical_per_request"]:
            failures.append(
                "serve batching produced bytes different from solo "
                "generation — batching must never change the surface"
            )
        speedup = serve_row["speedup_batched_vs_sequential"]
        if not speedup >= args.min_serve_batch_speedup:  # catches NaN too
            failures.append(
                f"serve batching speedup {speedup:.2f}x is below the "
                f"required {args.min_serve_batch_speedup:.2f}x"
            )

    if not args.skip_circulant:
        circ_row = measure_circulant_throughput()
        _write_row(args.circulant_results, circ_row)
        print(
            f"circulant gate: oracle "
            f"{circ_row['circulant_fields_per_s']:.1f} fields/s, "
            f"convolution {circ_row['convolution_fields_per_s']:.1f} "
            f"fields/s (ratio "
            f"{circ_row['throughput_ratio_circulant_vs_convolution']:.2f}x), "
            f"clipped mass {circ_row['eig_clipped_mass']:.1e}"
        )
        mass = circ_row["eig_clipped_mass"]
        if not mass <= args.max_eig_clipped_mass:  # catches NaN too
            failures.append(
                f"circulant embedding needed eigenvalue repair: clipped "
                f"mass {mass:.3e} > {args.max_eig_clipped_mass:.1e} — the "
                f"oracle is no longer exact on the bench configuration"
            )

    if not args.skip_verify:
        verify_row = measure_verify_overhead()
        _write_row(args.verify_results, verify_row)
        print(
            f"verify gate: generate "
            f"{verify_row['timings_s']['generate_best']:.3f}s, verify "
            f"{verify_row['timings_s']['verify_median']:.3f}s, ratio "
            f"{verify_row['overhead'] * 100:.2f}% (segment "
            f"{verify_row['segment']}, stride {verify_row['stride']}), "
            f"report passed: {verify_row['report_passed']}"
        )
        if not verify_row["report_passed"]:
            failures.append(
                "the reference self-affine surface failed its own "
                "verification report — the generator and the verifier "
                "disagree about the requested spectrum"
            )
        if not verify_row["overhead"] <= args.max_verify_overhead:  # NaN
            failures.append(
                f"verification costs {verify_row['overhead'] * 100:.2f}% "
                f"of the generation wall time, over the "
                f"{args.max_verify_overhead * 100:.1f}% budget"
            )

    if not args.skip_noise_reuse:
        noise_row = measure_noise_reuse()
        _write_row(args.noise_results, noise_row)
        print(
            f"noise gate: traced wall {noise_row['traced_wall_s']:.3f}s, "
            f"{noise_row['blocks_drawn']} blocks drawn for "
            f"{noise_row['blocks_requested']} block reads, "
            f"{noise_row['blocks_prefetched']} ahead of their tile "
            f"(rng.noise {noise_row['rng_noise_s']:.3f}s, "
            f"rng.prefetch {noise_row['rng_prefetch_s']:.3f}s)"
        )
        failures += check_noise_reuse(noise_row)

    try:
        results = json.loads(args.results.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"engine gate: cannot read {args.results}: {exc}",
              file=sys.stderr)
        print("run: PYTHONPATH=src python -m pytest "
              "benchmarks/test_bench_engine_fft.py", file=sys.stderr)
        return 2
    try:
        inhomo = json.loads(args.inhomo_results.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"engine gate: cannot read {args.inhomo_results}: {exc}",
              file=sys.stderr)
        print("run: PYTHONPATH=src python -m pytest "
              "benchmarks/test_bench_inhomo_batch.py", file=sys.stderr)
        return 2

    failures += check(results, args.max_slowdown, args.min_speedup,
                      args.max_deviation)
    failures += check_inhomo(inhomo, args.min_batch_speedup,
                             args.max_deviation, args.max_homog_slowdown)
    timings = results["timings_s"]
    print(
        f"engine gate: fft {timings['fft_tiled']:.3f}s, seed "
        f"{timings['legacy_fftconvolve_tiled']:.3f}s, spatial (est) "
        f"{timings['spatial_estimated_tiled']:.1f}s, speedup "
        f"{results['speedup_fft_vs_spatial']:.1f}x"
    )
    itimings = inhomo["timings_s"]
    print(
        f"batch gate: batched {itimings['batched_tiled']:.3f}s, "
        f"per-region {itimings['per_region_tiled']:.3f}s, speedup "
        f"{inhomo['speedup_batched_vs_per_region']:.2f}x, homogeneous "
        f"ratio {inhomo['homogeneous_ratio']:.2f}x"
    )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("engine gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
