"""Extension bench E1 — 1D profile generation for propagation studies.

The paper's companion propagation work (FVTD/ray tracing, refs [8]-[12])
consumes 1D height profiles.  This bench verifies the 1D pipeline's
statistics and measures streaming throughput for transect-scale
generation (millions of samples), plus the marginal-spectrum identity:
a cut through a 2D surface has the Ky-marginal spectrum, not the 1D
family spectrum — the distinction matters when matching 1D studies to
2D terrain.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.convolution import convolve_full
from repro.core.oned import (
    BlockNoise1D,
    Gaussian1D,
    ProfileGenerator,
    marginal_of_2d,
)
from repro.core.spectra import GaussianSpectrum


def test_bench_e1_profile_streaming(benchmark, record):
    spec = Gaussian1D(h=1.0, cl=25.0)
    gen = ProfileGenerator(spec, 8192, 8192.0, truncation=0.9999)
    noise = BlockNoise1D(seed=3)
    total = 1_000_000
    chunk = 65536

    def run():
        stds = []
        for x0 in range(0, total, chunk):
            win = gen.generate_window(noise, x0, chunk)
            stds.append(win.std())
        return np.array(stds)

    t0 = time.perf_counter()
    stds = benchmark.pedantic(run, rounds=1, iterations=1)
    t_pedantic = time.perf_counter() - t0
    assert np.all(np.abs(stds - 1.0) < 0.1)

    # --benchmark-disable runs the target once and keeps no stats
    elapsed = (benchmark.stats.stats.mean if benchmark.stats is not None
               else t_pedantic)
    record("e1_profile_streaming", {
        "extension": "E1: 1D profile streaming",
        "total_samples": total,
        "per_chunk_std_range": [float(stds.min()), float(stds.max())],
        "throughput_msamples_per_s": total / elapsed / 1e6,
    })


def test_bench_e1_marginal_identity(benchmark, record):
    """A 2D cut is statistically the marginal spectrum, verified end to end."""
    spec2d = GaussianSpectrum(h=1.0, clx=30.0, cly=30.0)
    grid = Grid2D(nx=1024, ny=256, lx=4096.0, ly=1024.0)
    m1d = benchmark.pedantic(
        lambda: marginal_of_2d(spec2d), rounds=1, iterations=1
    )

    # ensemble ACF of 2D cuts vs the marginal's predicted ACF
    # (lags chosen as exact multiples of dx = 4 so indices are exact)
    lags = np.array([0.0, 16.0, 32.0, 64.0])
    lag_idx = (lags / grid.dx).astype(int)
    acc = np.zeros(lags.size)
    n_real, n_cuts = 12, 16
    for seed in range(n_real):
        f = convolve_full(spec2d, grid, seed=700 + seed)
        for j in range(0, grid.ny, grid.ny // n_cuts):
            cut = f[:, j]
            cut = cut - cut.mean()
            n = cut.size
            acf = np.fft.ifft(np.abs(np.fft.fft(cut)) ** 2).real / n
            acc += acf[lag_idx]
    measured = acc / (n_real * n_cuts)
    predicted = np.array([float(m1d.autocorrelation(l)) for l in lags])
    # Gaussian family: the marginal ACF equals the 2D ACF along the cut
    # (the residual ~0.015 at long lags is the per-cut demeaning bias)
    assert np.allclose(measured, predicted, atol=0.05)
    record("e1_marginal_identity", {
        "extension": "E1: 2D-cut ACF equals the Ky-marginal prediction",
        "lags": lags.tolist(),
        "measured_acf": measured.tolist(),
        "predicted_acf": predicted.tolist(),
    })
