"""Ablation A2 — tiled parallel generation (the ICPP angle).

The convolution method's locality makes domain decomposition exact and
communication-free given the counter-based noise plane.  This bench
generates a 2048^2 surface through the tile executor and compares the
serial and threaded backends (NumPy's FFT releases the GIL, so threads
scale without pickling overhead), verifying equality and reporting the
speedup and halo overhead for the chosen tile size.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import GaussianSpectrum
from repro.parallel.executor import default_workers, generate_tiled
from repro.parallel.tiles import TilePlan

TOTAL = 2048
TILE = 512


@pytest.fixture(scope="module")
def gen():
    grid = Grid2D(nx=512, ny=512, lx=1024.0, ly=1024.0)
    return ConvolutionGenerator(
        GaussianSpectrum(h=1.0, clx=30.0, cly=30.0), grid, truncation=0.999
    )


def test_bench_a2_tiled_parallel(benchmark, gen, record):
    noise = BlockNoise(seed=7)
    plan = TilePlan(total_nx=TOTAL, total_ny=TOTAL, tile_nx=TILE, tile_ny=TILE)
    workers = default_workers()

    t0 = time.perf_counter()
    serial = generate_tiled(gen, noise, plan, backend="serial")
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    threaded = benchmark.pedantic(
        lambda: generate_tiled(gen, noise, plan, backend="thread",
                               workers=workers),
        rounds=2, iterations=1,
    )
    t_pedantic = time.perf_counter() - t0
    assert np.array_equal(serial.heights, threaded.heights)
    assert serial.heights.std() == pytest.approx(1.0, rel=0.1)

    # --benchmark-disable runs the target once and keeps no stats
    t_thread = (benchmark.stats.stats.min if benchmark.stats is not None
                else t_pedantic)
    record("a2_parallel_tiles", {
        "ablation": "A2: tiled generation, serial vs threaded",
        "total": [TOTAL, TOTAL],
        "tile": [TILE, TILE],
        "workers": workers,
        "halo_overhead": plan.halo_overhead(gen.footprint),
        "serial_s": t_serial,
        "thread_s": t_thread,
        "speedup": t_serial / t_thread,
    })
    if workers >= 2:
        # demand at least some parallel benefit when cores are available
        assert t_thread < t_serial * 1.05
