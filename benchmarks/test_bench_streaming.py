"""Claim C4 — arbitrarily long surfaces by successive computation.

Paper Section 2.4, advantage (a): "once the weighting array is computed,
we can generate any size of continuous RRSs because we can choose Nx and
Ny arbitrarily".

This bench streams a surface 16x longer than the kernel-construction
grid, verifies strips join seamlessly (equal to the one-shot windowed
computation to FFT rounding) and that per-strip statistics stay
stationary, and reports the streaming throughput in samples/second.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import bench_n

from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import GaussianSpectrum
from repro.parallel.streaming import assemble_strips, stream_strips


@pytest.fixture(scope="module")
def gen():
    grid = Grid2D(nx=512, ny=512, lx=1024.0, ly=1024.0)
    return ConvolutionGenerator(
        GaussianSpectrum(h=1.0, clx=30.0, cly=30.0), grid, truncation=0.999
    )


def test_bench_c4_streaming(benchmark, gen, record):
    noise = BlockNoise(seed=99)
    total_nx = 16 * 512
    width = 512
    strip = 512

    def run():
        stds = []
        for s in stream_strips(gen, noise, total_nx=total_nx,
                               width_ny=width, strip_nx=strip):
            stds.append(s.height_std())
        return np.array(stds)

    t0 = time.perf_counter()
    stds = benchmark.pedantic(run, rounds=1, iterations=1)
    t_pedantic = time.perf_counter() - t0
    assert stds.shape == (16,)
    # stationarity along the transect: every strip realises h = 1
    assert np.all(np.abs(stds - 1.0) < 0.15)
    assert stds.std() / stds.mean() < 0.05

    # seamlessness at one seam (strip boundary at x = 512)
    seam = gen.generate_window(noise, 512 - 64, 0, 128, width)
    left = next(stream_strips(gen, noise, total_nx=512, width_ny=width,
                              strip_nx=512))
    right = next(stream_strips(gen, noise, total_nx=512, width_ny=width,
                               strip_nx=512, x0=512))
    joined = np.concatenate(
        [left.heights[512 - 64 :, :], right.heights[:64, :]], axis=0
    )
    err = float(np.max(np.abs(joined - seam)))
    assert err < 1e-9

    # --benchmark-disable runs the target once and keeps no stats
    elapsed = (benchmark.stats.stats.mean if benchmark.stats is not None
               else t_pedantic)
    record("c4_streaming", {
        "claim": "C4: unbounded surfaces by successive computation",
        "total_samples": total_nx * width,
        "strip_stds": stds.tolist(),
        "seam_max_abs_error": err,
        "throughput_msamples_per_s": total_nx * width / elapsed / 1e6,
    })
