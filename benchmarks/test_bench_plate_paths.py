"""Ablation A1 — fast linear-blend path vs literal per-point kernel mixing.

DESIGN.md S6 calls out the implementation insight that eqn (37) is linear
in the kernel, so the per-point kernel mixture can be computed as M
homogeneous convolutions plus a weighted sum.  This bench demonstrates
(a) the two paths agree to rounding, and (b) the speedup, which is what
makes the 1024^2 figures interactive instead of hours-long.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.inhomogeneous import (
    InhomogeneousGenerator,
    blend_reference,
    kernel_stack,
)
from repro.core.rng import standard_normal_field
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.parameter_map import PlateLattice

HALF = 6  # common kernel half-width for the literal path


@pytest.fixture(scope="module")
def setup():
    grid = Grid2D(nx=48, ny=48, lx=192.0, ly=192.0)
    lat = PlateLattice.quadrants(
        192.0, 192.0,
        GaussianSpectrum(h=1.0, clx=12.0, cly=12.0),
        ExponentialSpectrum(h=1.5, clx=10.0, cly=10.0),
        GaussianSpectrum(h=2.0, clx=16.0, cly=16.0),
        GaussianSpectrum(h=1.5, clx=12.0, cly=12.0),
        half_width=16.0,
    )
    gen = InhomogeneousGenerator(lat, grid, truncation=(HALF, HALF))
    noise = standard_normal_field(grid.shape, seed=3)
    return grid, gen, noise


def test_bench_a1_fast_blend(benchmark, setup, record):
    grid, gen, noise = setup
    t0 = time.perf_counter()
    fast = benchmark.pedantic(
        lambda: gen.generate(noise=noise).heights, rounds=3, iterations=1
    )
    t_pedantic = time.perf_counter() - t0

    wm = gen.weight_map
    kernels = kernel_stack(wm.spectra, grid, HALF, HALF)
    t0 = time.perf_counter()
    ref = blend_reference(wm, kernels, noise)
    t_ref = time.perf_counter() - t0

    err = float(np.max(np.abs(fast - ref)))
    assert err < 1e-9
    # --benchmark-disable runs the target once and keeps no stats
    t_fast = (benchmark.stats.stats.mean if benchmark.stats is not None
              else t_pedantic)
    record("a1_plate_paths", {
        "ablation": "A1: linear-blend fast path vs per-point kernel mixing",
        "grid": list(grid.shape),
        "kernel_half_width": HALF,
        "max_abs_difference": err,
        "fast_path_s": t_fast,
        "reference_path_s": t_ref,
        "speedup": t_ref / t_fast,
    })
    # the literal path is orders of magnitude slower even at 48^2
    assert t_ref > 5.0 * t_fast
