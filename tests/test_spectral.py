"""Unit tests for spectral estimators."""

import numpy as np
import pytest

from repro.core.convolution import convolve_full
from repro.core.grid import Grid2D
from repro.core.spectra import GaussianSpectrum
from repro.core.weights import weight_array
from repro.stats.spectral import (
    ensemble_spectrum,
    _half_periodogram,
    _mirror_half_spectrum,
    periodogram,
    radial_spectrum,
    spectrum_axis_profile,
    welch_spectrum,
)


@pytest.fixture
def grid128():
    return Grid2D(nx=128, ny=128, lx=512.0, ly=512.0)


@pytest.fixture
def spec():
    return GaussianSpectrum(h=1.0, clx=20.0, cly=20.0)


class TestPeriodogram:
    def test_parseval(self, grid128, rng):
        f = rng.standard_normal(grid128.shape)
        p = periodogram(f, grid128)
        assert p.sum() * grid128.spectral_cell == pytest.approx(f.var(), rel=1e-9)

    def test_shape_validation(self, grid128):
        with pytest.raises(ValueError):
            periodogram(np.zeros((4, 4)), grid128)

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (6, 5), (5, 2),
                                       (3, 1), (1, 4)])
    def test_matches_full_complex_fft(self, shape, rng):
        """The mirrored ``rfft2`` half plane equals the full ``fft2``
        periodogram to rounding, for odd and even edges alike."""
        f = rng.standard_normal(shape)
        grid = Grid2D(nx=shape[0], ny=shape[1], lx=2.0 * shape[0],
                      ly=3.0 * shape[1])
        spec = np.fft.fft2(f - f.mean())
        expected = np.abs(spec) ** 2 * grid.cell_area**2 / (
            4.0 * np.pi**2 * grid.lx * grid.ly)
        np.testing.assert_allclose(periodogram(f, grid), expected,
                                   rtol=1e-12, atol=1e-15 * expected.max())

    def test_half_planes_sum_then_mirror_exactly(self, grid128, rng):
        fields = [rng.standard_normal(grid128.shape) for _ in range(3)]
        full = sum(periodogram(f, grid128, demean=False) for f in fields)
        half = sum(_half_periodogram(f, grid128) for f in fields)
        assert np.array_equal(_mirror_half_spectrum(half, grid128.ny), full)

    def test_ensemble_mean_recovers_spectrum(self, grid128, spec):
        reals = [convolve_full(spec, grid128, seed=i) for i in range(24)]
        est = ensemble_spectrum(reals, grid128)
        target = weight_array(spec, grid128) / grid128.spectral_cell
        # compare at energetic bins
        mask = target > target.max() * 0.01
        rel = np.abs(est[mask] - target[mask]) / target[mask]
        assert np.median(rel) < 0.4  # chi2_2 noise / sqrt(24) ~ 0.2

    def test_ensemble_requires_input(self, grid128):
        with pytest.raises(ValueError):
            ensemble_spectrum([], grid128)


class TestWelch:
    def test_parseval_on_average(self, grid128, spec):
        f = convolve_full(spec, grid128, seed=3)
        sub, est = welch_spectrum(f, grid128, segments=(4, 4))
        total = est.sum() * sub.spectral_cell
        assert total == pytest.approx(f.var(), rel=0.5)

    def test_boxcar_window(self, grid128, rng):
        f = rng.standard_normal(grid128.shape)
        sub, est = welch_spectrum(f, grid128, segments=(2, 2), window="boxcar")
        assert est.shape == sub.shape

    def test_variance_reduction_vs_raw(self, grid128, spec):
        # Welch averages 16 patches: scatter at the spectral peak region
        # must be far below the raw periodogram's 100%
        target_fn = lambda g: weight_array(spec, g) / g.spectral_cell  # noqa: E731
        rels = []
        for seed in range(4):
            f = convolve_full(spec, grid128, seed=seed)
            sub, est = welch_spectrum(f, grid128, segments=(4, 4))
            t = target_fn(sub)
            mask = t > t.max() * 0.3
            rels.append(np.mean(np.abs(est[mask] - t[mask]) / t[mask]))
        assert np.mean(rels) < 0.6

    def test_segment_validation(self, grid128):
        with pytest.raises(ValueError):
            welch_spectrum(np.zeros(grid128.shape), grid128, segments=(0, 2))
        with pytest.raises(ValueError):
            welch_spectrum(np.zeros(grid128.shape), grid128, segments=(100, 2))

    def test_window_validation(self, grid128):
        with pytest.raises(ValueError):
            welch_spectrum(np.zeros(grid128.shape), grid128, window="kaiser")


class TestRadialAndProfiles:
    def test_radial_spectrum_shape(self, grid128, spec):
        est = periodogram(convolve_full(spec, grid128, seed=5), grid128)
        k, w = radial_spectrum(est, grid128, n_bins=24)
        assert k.shape == w.shape
        assert np.all(np.diff(k) > 0)

    def test_radial_spectrum_decays(self, grid128, spec):
        reals = [convolve_full(spec, grid128, seed=i) for i in range(8)]
        est = ensemble_spectrum(reals, grid128)
        k, w = radial_spectrum(est, grid128, n_bins=24)
        assert w[0] > 10.0 * w[-1]

    def test_axis_profile(self, grid128, spec):
        est = periodogram(convolve_full(spec, grid128, seed=6), grid128)
        k, p = spectrum_axis_profile(est, grid128, axis="x")
        assert k.shape == p.shape == (grid128.mx + 1,)
        k2, _ = spectrum_axis_profile(est, grid128, axis="y")
        assert k2[1] == pytest.approx(grid128.dky)
        with pytest.raises(ValueError):
            spectrum_axis_profile(est, grid128, axis="z")

    def test_mismatched_estimate_rejected(self, grid128):
        with pytest.raises(ValueError):
            radial_spectrum(np.zeros((4, 4)), grid128)
