"""Seeded statistical conformance gates for generation paths.

The paper's contract (Section 2.1, eqns 1-4) is statistical: heights
are zero-mean Gaussian with variance ``h^2`` and the prescribed
autocorrelation.  This suite pins those properties — for every spectrum
family the paper treats — against **both** production paths:

* the in-memory tiled executor, and
* the out-of-core store-backed tiled path (which must be bit-identical
  to it, asserted here at ensemble scale as well).

All seeds are fixed, so every statistic is a deterministic number; the
tolerances (centralised in :mod:`tests.tolerances`) are calibrated
margins against FFT rounding drift, not flaky confidence intervals.
Alongside them, every cell also runs the production gate,
:func:`repro.verify.verify_heights` on the pooled fixture ensemble: it
must pass the request and fail a wrong one (see ``tests.tolerances``
for why the tighter fixed-seed bounds stay).

The whole suite is parametrized over the engine precision: the opt-in
``float32`` mode must satisfy the *same* calibrated statistical gates
as ``float64`` (cell-by-cell, see ``tolerances.FLOAT32_SAFE``) and must
track the float64 surface sample-by-sample within single-precision FFT
rounding (``tolerances.float32_vs_float64_atol``).
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
)
from repro.core.spectra_ext import SelfAffineSpectrum
from repro.core.weights import weight_array, weight_autocorrelation
from repro.io.store import SurfaceStore
from repro.parallel import TilePlan, generate_tiled
from repro.stats.acf import acf2d_unbiased
from repro.stats.spectral import periodogram, radial_spectrum
from repro.verify import verify_heights

from tests.tolerances import (
    FLOAT32_SAFE,
    SELF_AFFINE_HURST_ATOL,
    SELF_AFFINE_PLATEAU_LOG_MAX,
    acf_lag_cl_atol,
    float32_vs_float64_atol,
    ks_stat_max,
    mean_variance_rtol,
)

N = 96
TILE = 48
CL = 10.0  # clx = cly; lag index CL/dx = 10 on the unit-spacing grid
LAG = 10
SEED0 = 100
NSEEDS = 8
POOL_STRIDE = 7  # decimate pooled samples to tame spatial correlation

# The self-affine cell uses the roll-off form: qr = 0.4 puts the
# plateau corner well inside the resolved band (dK ~ 0.065, K_nyq ~ pi)
# and gives an effective correlation length clx = 1/qr = 2.5.
QR = 0.4
HURST = 0.8

SPECTRA = [
    GaussianSpectrum(h=1.0, clx=CL, cly=CL),
    ExponentialSpectrum(h=1.0, clx=CL, cly=CL),
    PowerLawSpectrum(h=1.0, clx=CL, cly=CL, order=2.0),
    SelfAffineSpectrum(sigma=1.0, hurst=HURST, qr=QR),
]

#: A wrong request per family for the production-gate companion test:
#: the correlation length 1.5x too long, or H = 0.5 instead of 0.8.
WRONG_REQUESTS = {
    "gaussian": GaussianSpectrum(h=1.0, clx=1.5 * CL, cly=1.5 * CL),
    "exponential": ExponentialSpectrum(h=1.0, clx=1.5 * CL, cly=1.5 * CL),
    "power_law": PowerLawSpectrum(h=1.0, clx=1.5 * CL, cly=1.5 * CL,
                                  order=2.0),
    "self_affine": SelfAffineSpectrum(sigma=1.0, hurst=0.5, qr=QR),
}


@pytest.fixture(scope="module", params=SPECTRA, ids=lambda s: s.kind)
def spectrum(request):
    return request.param


@pytest.fixture(scope="module", params=["float64", "float32"])
def dtype(request):
    return request.param


def _require_float32_safe(spectrum, dtype, statistic):
    """Gate a statistical cell on the calibrated float32-safe table."""
    if dtype == "float32" and (spectrum.kind, statistic) not in FLOAT32_SAFE:
        pytest.skip(
            f"({spectrum.kind}, {statistic}) is not verified "
            f"single-precision-safe; see tolerances.FLOAT32_SAFE"
        )


@pytest.fixture(scope="module")
def gen(spectrum, dtype):
    return ConvolutionGenerator(
        spectrum, Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)), dtype=dtype
    )


@pytest.fixture(scope="module")
def plan():
    return TilePlan(total_nx=N, total_ny=N, tile_nx=TILE, tile_ny=TILE)


@pytest.fixture(scope="module")
def fields_memory(gen, plan):
    return [
        generate_tiled(gen, BlockNoise(seed=SEED0 + i), plan,
                       backend="serial").heights
        for i in range(NSEEDS)
    ]


@pytest.fixture(scope="module")
def fields_store(gen, plan, spectrum, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"conformance-{spectrum.kind}")
    fields = []
    for i in range(NSEEDS):
        with SurfaceStore.create(root / f"s{i}", shape=(N, N),
                                 chunk=(TILE, TILE)) as store:
            generate_tiled(gen, BlockNoise(seed=SEED0 + i), plan,
                           backend="serial", out=store)
            fields.append(np.array(store.heights()))
    return fields


@pytest.fixture(scope="module", params=["memory", "store"])
def fields(request, fields_memory, fields_store):
    return fields_memory if request.param == "memory" else fields_store


@pytest.fixture(scope="module")
def discrete_variance(spectrum, gen):
    return float(weight_array(spectrum, gen.grid).sum())


def test_store_path_bit_identical_at_ensemble_scale(fields_memory,
                                                    fields_store):
    # The store format is float64-only; a float32 -> float64 cast is
    # exact, so store round-trips stay value-identical for both engine
    # precisions.
    for mem, st in zip(fields_memory, fields_store):
        np.testing.assert_array_equal(st, mem.astype(np.float64))


def test_float32_tracks_float64(spectrum, dtype, gen, plan):
    """The float32 surface is the float64 surface to FFT rounding."""
    if dtype != "float32":
        pytest.skip("cross-precision check runs once, on the float32 row")
    g64 = ConvolutionGenerator(spectrum, gen.grid)
    atol = float32_vs_float64_atol(spectrum)
    for i in range(2):
        h32 = generate_tiled(gen, BlockNoise(seed=SEED0 + i), plan,
                             backend="serial").heights
        h64 = generate_tiled(g64, BlockNoise(seed=SEED0 + i), plan,
                             backend="serial").heights
        assert h32.dtype == np.float32
        worst = float(np.abs(h32.astype(np.float64) - h64).max())
        assert worst < atol, (
            f"{spectrum.kind}: float32 deviates from float64 by {worst:.3e}"
        )


def test_height_marginal_ks(spectrum, dtype, fields, discrete_variance):
    """Pooled height samples follow N(0, sqrt(sum(w)))."""
    _require_float32_safe(spectrum, dtype, "ks")
    pooled = np.concatenate([f.ravel()[::POOL_STRIDE] for f in fields])
    ks = stats.kstest(pooled, "norm",
                      args=(0.0, np.sqrt(discrete_variance)))
    assert ks.statistic < ks_stat_max(spectrum), (
        f"{spectrum.kind}: KS statistic {ks.statistic:.4f} exceeds "
        f"{ks_stat_max(spectrum)}"
    )
    # and the mean is pinned near zero — with correlation length CL the
    # effective sample count is only ~(N/CL)^2 per field, so the bound
    # is ~4 sigma of the mean, not a naive i.i.d. interval
    assert abs(pooled.mean()) < 0.15 * np.sqrt(discrete_variance)


def test_rms_height(spectrum, dtype, fields, discrete_variance):
    """Ensemble variance converges to the discrete target ``sum(w)``."""
    _require_float32_safe(spectrum, dtype, "variance")
    measured = sum(float(f.var()) for f in fields) / len(fields)
    rel = abs(measured - discrete_variance) / discrete_variance
    assert rel < mean_variance_rtol(spectrum), (
        f"{spectrum.kind}: variance {measured:.4f} vs target "
        f"{discrete_variance:.4f} (rel {rel:.4f})"
    )


def test_acf_at_lag_cl(spectrum, dtype, gen, fields, discrete_variance):
    """Ensemble ACF at lag ``(clx, 0)`` matches the discrete target."""
    _require_float32_safe(spectrum, dtype, "acf")
    target = weight_autocorrelation(spectrum, gen.grid)[LAG, 0]
    acf = np.zeros((LAG + 1, LAG + 1))
    for f in fields:
        acf += acf2d_unbiased(np.asarray(f, dtype=np.float64),
                              max_lag=(LAG, LAG))
    acf /= len(fields)
    diff = abs(acf[LAG, 0] - target) / discrete_variance
    assert diff < acf_lag_cl_atol(spectrum), (
        f"{spectrum.kind}: ACF({CL}, 0) = {acf[LAG, 0]:.4f} vs target "
        f"{target:.4f} (normalised diff {diff:.4f})"
    )


def _radial_profiles(spectrum, gen, fields, n_bins=32):
    """Ensemble-averaged measured radial PSD and the target spectrum
    binned over the *same* annuli (cancels the within-bin averaging
    bias of a steep power law)."""
    grid = gen.grid
    est = np.zeros(grid.shape)
    for f in fields:
        est += periodogram(np.asarray(f, dtype=np.float64), grid)
    est /= len(fields)
    k, measured = radial_spectrum(est, grid, n_bins=n_bins)
    kx, ky = grid.k_meshgrid(signed=True)
    _, target = radial_spectrum(np.asarray(spectrum.spectrum(kx, ky)),
                                grid, n_bins=n_bins)
    return k, measured, target


def test_radial_psd_slope_recovers_hurst(spectrum, dtype, gen, fields):
    """Log-log radial-PSD slope over the scaling band returns ``H``:
    the generated surface really is self-affine with the requested
    exponent, not merely variance-correct."""
    if spectrum.kind != "self_affine":
        pytest.skip("Hurst slope gate applies to the self-affine cell")
    _require_float32_safe(spectrum, dtype, "psd")
    k, measured, _ = _radial_profiles(spectrum, gen, fields)
    sel = (k >= 1.5 * QR) & (k <= 0.55 * np.pi) & (measured > 0)
    assert sel.sum() >= 5, "fit band collapsed; fixture geometry changed?"
    slope = np.polyfit(np.log(k[sel]), np.log(measured[sel]), 1)[0]
    h_fit = -(slope + 2.0) / 2.0
    assert abs(h_fit - HURST) < SELF_AFFINE_HURST_ATOL, (
        f"fitted H {h_fit:.4f} vs requested {HURST} "
        f"(slope {slope:.4f})"
    )


def test_radial_psd_qr_plateau(spectrum, dtype, gen, fields):
    """Below the roll-off wavevector the measured radial PSD sits on
    the requested plateau (checked in log ratio, bin for bin)."""
    if spectrum.kind != "self_affine":
        pytest.skip("plateau gate applies to the self-affine cell")
    _require_float32_safe(spectrum, dtype, "psd")
    k, measured, target = _radial_profiles(spectrum, gen, fields,
                                           n_bins=48)
    dk = 2.0 * np.pi / N
    sel = (k >= 1.5 * dk) & (k <= 0.6 * QR) & (measured > 0)
    assert sel.sum() >= 1, "no plateau bins; fixture geometry changed?"
    worst = float(np.max(np.abs(np.log(measured[sel] / target[sel]))))
    assert worst < SELF_AFFINE_PLATEAU_LOG_MAX, (
        f"plateau deviates by up to {worst:.3f} in log ratio "
        f"over {int(sel.sum())} bins"
    )


@pytest.mark.verify
def test_production_gate_passes_request(spectrum, dtype, fields):
    """``repro.verify`` pooled over the fixture ensemble passes the
    request it was generated from."""
    report = verify_heights(fields, spectrum)
    assert report.surface["members"] == NSEEDS
    assert report.passed, [m.to_dict() for m in report.failures()]


@pytest.mark.verify
def test_production_gate_fails_wrong_request(spectrum, dtype, fields):
    """The same pooled ensemble checked against a wrong request goes red."""
    report = verify_heights(fields, WRONG_REQUESTS[spectrum.kind])
    assert not report.passed
