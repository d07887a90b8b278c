"""Batched multi-region bench — shared-forward engine vs the per-region path.

Acceptance criteria of the batched-engine PR: tiled generation of a
2048x2048 surface over an M=4 ``LayeredLayout`` with 129x129 kernels
must be >=2x faster through the batched ``apply_kernels_valid`` path
(one forward FFT per noise block + one inverse per *active* region)
than through the PR 1 per-region path (one full forward+inverse
``apply_kernel_valid`` round-trip, and one noise-window read, per
region per tile), with max abs deviation <= 1e-10 vs the spatial
oracle, recorded in ``benchmarks/out/inhomo_batch.json``.

The layout places three patch regions in the low corner of the domain,
so most tiles lie outside every transition band: the active-set query
(`WeightMap.support`) reduces those tiles to exactly one convolution,
which is where the batched engine's advantage compounds beyond the
transform arithmetic (4 fwd + 4 inv -> 1 fwd + 1 inv on 12 of 16
tiles).

The same run times the homogeneous default path (plan-cached
overlap-save vs the seed ``fftconvolve`` baseline) at the same size so
``benchmarks/check_engine_gate.py`` can enforce the <=10% no-regression
contract on this PR too.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.convolution import (
    ConvolutionGenerator,
    _apply_kernel_valid_fftconvolve,
    apply_kernel_valid,
    apply_kernel_valid_fft,
    apply_kernel_valid_spatial,
    noise_window_for,
)
from repro.core.engine import plan_cache
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import InhomogeneousGenerator, blend_fields
from repro.core.rng import BlockNoise
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.parameter_map import LayeredLayout, RegionSpec
from repro.fields.regions import Circle
from repro.parallel.executor import generate_tiled
from repro.parallel.tiles import TilePlan

SURFACE = 2048
TILE = 512
TRUNC = (64, 64)  # -> 129 x 129 kernels for every region
SPATIAL_SAMPLE = 128  # spatial-oracle sample edge (M kernels: keep small)


def _layout() -> LayeredLayout:
    """M=4 layout: three patches clustered so 12 of 16 tiles see only
    the background (outermost transition-band reach is < 1024 on both
    axes)."""
    return LayeredLayout(
        background=GaussianSpectrum(h=1.0, clx=24.0, cly=24.0),
        patches=[
            RegionSpec(Circle(cx=400.0, cy=400.0, radius=150.0),
                       ExponentialSpectrum(h=0.6, clx=16.0, cly=16.0),
                       half_width=50.0),
            RegionSpec(Circle(cx=700.0, cy=300.0, radius=120.0),
                       GaussianSpectrum(h=1.5, clx=32.0, cly=32.0),
                       half_width=40.0),
            RegionSpec(Circle(cx=300.0, cy=700.0, radius=120.0),
                       ExponentialSpectrum(h=0.8, clx=20.0, cly=12.0),
                       half_width=40.0),
        ],
    )


@pytest.fixture(scope="module")
def gen():
    grid = Grid2D(nx=256, ny=256, lx=256.0, ly=256.0)  # dx = 1
    return InhomogeneousGenerator(_layout(), grid, truncation=TRUNC,
                                  engine="fft")


def _per_region_window(gen, noise, x0, y0, nx, ny):
    """The PR 1 per-region path, replicated verbatim: one noise-window
    read and one forward+inverse FFT round-trip per region of the
    window's weight map, then the eqn-(37) blend.

    Each region reads its window from a fresh plane with ``noise``'s
    seed and block: the path draws every block of every region's window,
    as it did before planes cached blocks, instead of having the
    repeated reads of one tile served from ``noise``'s cache."""
    win_grid = gen.grid.with_shape(nx, ny)
    origin = (x0 * gen.grid.dx, y0 * gen.grid.dy)
    wm = gen.layout.weight_map(win_grid, origin=origin)
    fields = []
    for spec in wm.spectra:
        kern = gen._kernel_for(spec)
        wx0, wy0, wnx, wny = noise_window_for(kern, x0, y0, nx, ny)
        window = BlockNoise(noise.seed, noise.block).window(wx0, wy0,
                                                            wnx, wny)
        fields.append(apply_kernel_valid(kern, window, engine=gen.engine))
    return blend_fields(wm.weights, fields)


def _time_tiled(plan, tile_fn):
    out = np.empty((plan.total_nx, plan.total_ny))
    t0 = time.perf_counter()
    for t in plan:
        out[t.x0 : t.x1, t.y0 : t.y1] = tile_fn(t)
    return out, time.perf_counter() - t0


def test_bench_inhomo_batch_speedup(benchmark, record, gen):
    kernels = [gen._kernel_for(s) for s in
               gen.layout.weight_map(gen.grid.with_shape(8, 8)).spectra]
    assert len(kernels) == 4
    assert all(k.shape == (129, 129) for k in kernels)

    noise = BlockNoise(seed=47)
    plan = TilePlan(total_nx=SURFACE, total_ny=SURFACE,
                    tile_nx=TILE, tile_ny=TILE)

    # Warm both code paths (kernel builds, scipy FFT workspaces).
    gen.generate_window(noise, 0, 0, TILE, TILE)
    _per_region_window(gen, noise, 0, 0, TILE, TILE)

    # --- batched engine (the generate_window default since this PR) ----
    plan_cache.clear()
    batched = generate_tiled(gen, noise, plan, backend="serial")
    cache_stats = plan_cache.stats().as_dict()
    _, t_batched = _time_tiled(
        plan, lambda t: gen.generate_window(noise, t.x0, t.y0,
                                            t.nx, t.ny).heights
    )

    # --- PR 1 baseline: per-region forward+inverse pairs ---------------
    per_region, t_per_region = _time_tiled(
        plan, lambda t: _per_region_window(gen, noise, t.x0, t.y0,
                                           t.nx, t.ny)
    )

    maxdev_paths = float(np.max(np.abs(batched.heights - per_region)))
    del per_region
    speedup = t_per_region / t_batched

    # --- spatial oracle on a sample window -----------------------------
    win_grid = gen.grid.with_shape(SPATIAL_SAMPLE, SPATIAL_SAMPLE)
    wm = gen.layout.weight_map(win_grid, origin=(0.0, 0.0))
    fields = []
    for spec in wm.spectra:
        kern = gen._kernel_for(spec)
        wx0, wy0, wnx, wny = noise_window_for(kern, 0, 0,
                                              SPATIAL_SAMPLE, SPATIAL_SAMPLE)
        fields.append(apply_kernel_valid_spatial(
            kern, noise.window(wx0, wy0, wnx, wny)))
    oracle = blend_fields(wm.weights, fields)
    maxdev_spatial = float(np.max(np.abs(
        batched.heights[:SPATIAL_SAMPLE, :SPATIAL_SAMPLE] - oracle
    )))

    # --- homogeneous no-regression probe at the same size --------------
    hom = ConvolutionGenerator(GaussianSpectrum(h=1.0, clx=24.0, cly=24.0),
                               gen.grid, truncation=TRUNC, engine="fft")

    def _hom_tiled(conv):
        elapsed = 0.0
        for t in plan:
            wx0, wy0, wnx, wny = noise_window_for(hom.kernel, t.x0, t.y0,
                                                  t.nx, t.ny)
            window = noise.window(wx0, wy0, wnx, wny)
            t0 = time.perf_counter()
            conv(hom.kernel, window)
            elapsed += time.perf_counter() - t0
        return elapsed

    _hom_tiled(apply_kernel_valid_fft)  # warm plans
    t_hom_fft = _hom_tiled(apply_kernel_valid_fft)
    t_hom_legacy = _hom_tiled(_apply_kernel_valid_fftconvolve)
    homogeneous_ratio = t_hom_fft / t_hom_legacy

    # timing-table entry: one warm mixed-region tile through the batched
    # engine
    benchmark.pedantic(
        lambda: gen.generate_window(noise, 0, 0, TILE, TILE),
        rounds=3, iterations=1,
    )

    regions = batched.provenance["regions"]
    record("inhomo_batch", {
        "claim": "batched multi-region engine >=2x over the per-region "
                 "path on M=4 LayeredLayout at 2048^2 / 129^2 kernels, "
                 "<=1e-10 deviation vs the spatial oracle",
        "surface": [SURFACE, SURFACE],
        "tile": [TILE, TILE],
        "kernel": [129, 129],
        "regions": 4,
        "tiles": len(plan),
        "timings_s": {
            "batched_tiled": t_batched,
            "per_region_tiled": t_per_region,
            "homogeneous_fft_tiled": t_hom_fft,
            "homogeneous_legacy_tiled": t_hom_legacy,
        },
        "speedup_batched_vs_per_region": speedup,
        "homogeneous_ratio": homogeneous_ratio,
        "max_abs_dev_batched_vs_per_region": maxdev_paths,
        "max_abs_dev_batched_vs_spatial_sample": maxdev_spatial,
        "spatial_sample_edge": SPATIAL_SAMPLE,
        "regions_provenance": regions,
        "batch_fft": batched.provenance["batch_fft"],
        "plan_cache": cache_stats,
    })

    assert speedup >= 2.0
    assert maxdev_spatial <= 1e-10
    assert maxdev_paths <= 1e-10  # same math, different FFT grouping
    assert homogeneous_ratio <= 1.10
    # active-set pruning: 12 of 16 tiles lie beyond every transition
    # band and convolve exactly one kernel
    assert regions["min_active"] == 1
    assert regions["single_kernel_tiles"] == 12
    assert regions["max_active"] >= 2
    # one plan per distinct spectrum, shared across tiles and regions
    assert cache_stats["misses"] == 4
