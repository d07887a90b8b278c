"""Claim C3 — DFT(w) reproduces the autocorrelation function.

The paper's accuracy check (below eqn 16): "the DFT of this weighting
array corresponds to the autocorrelation function ... useful for checking
the accuracy of the numerical results based on the DFT calculations."

This bench evaluates the check for all three spectral families across a
grid-resolution sweep and verifies that the discrepancy (spectral
truncation + discretisation error) decreases under refinement, with the
Gaussian family at machine precision already on coarse grids.
"""

from __future__ import annotations

import pytest
from conftest import bench_n

from repro.core.grid import Grid2D
from repro.core.spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
)
from repro.verify import variance_closure, weight_acf_error

SPECTRA = {
    "gaussian": GaussianSpectrum(h=1.0, clx=40.0, cly=40.0),
    "power_law_2": PowerLawSpectrum(h=1.5, clx=60.0, cly=60.0, order=2.0),
    "exponential": ExponentialSpectrum(h=2.0, clx=80.0, cly=80.0),
}
SIZES = [128, 256, 512, 1024]


def test_bench_c3_weight_accuracy(benchmark, record):
    rows = []
    for name, spec in SPECTRA.items():
        per_size = []
        for n in SIZES:
            grid = Grid2D(nx=n, ny=n, lx=2048.0, ly=2048.0)
            rep = weight_acf_error(spec, grid)
            per_size.append({
                "n": n,
                "max_abs_error": rep.max_abs_error,
                "rel_error_at_zero": rep.rel_error_at_zero,
                "variance_closure": variance_closure(spec, grid),
            })
        rows.append({"spectrum": name, "sweep": per_size})

        errs = [r["rel_error_at_zero"] for r in per_size]
        # refinement monotonically improves (or stays at) the closure
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:])), name
        if name == "gaussian":
            assert errs[0] < 1e-6  # effectively band-limited when coarse
            assert errs[-1] < 1e-12  # and exact once Nyquist covers the band
        else:
            assert errs[-1] < 0.05  # heavy tails: <5% at 1024^2

    grid = Grid2D(nx=512, ny=512, lx=2048.0, ly=2048.0)
    benchmark.pedantic(
        lambda: weight_acf_error(SPECTRA["exponential"], grid),
        rounds=3, iterations=1,
    )
    record("c3_weight_accuracy", {
        "claim": "C3: DFT(w) ~ rho(r) accuracy check",
        "domain": 2048.0,
        "rows": rows,
    })
