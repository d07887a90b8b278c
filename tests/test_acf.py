"""Unit tests for autocorrelation estimators."""

import numpy as np
import pytest

from repro.core.convolution import convolve_full
from repro.core.grid import Grid2D
from repro.core.spectra import GaussianSpectrum
from repro.stats.acf import (
    acf2d,
    acf2d_unbiased,
    acf_profile_x,
    acf_profile_y,
    radial_acf,
)


class TestAcf2d:
    def test_zero_lag_is_variance(self, rng):
        f = rng.standard_normal((32, 32))
        acf = acf2d(f)
        assert acf[0, 0] == pytest.approx(f.var())

    def test_white_noise_decorrelates(self, rng):
        f = rng.standard_normal((128, 128))
        acf = acf2d(f)
        assert abs(acf[5, 7]) < 0.05 * acf[0, 0]

    def test_even_symmetry(self, rng):
        # ACF of a real field: acf[m, n] == acf[-m, -n] (point symmetry
        # through zero lag; per-axis symmetry holds only in expectation)
        f = rng.standard_normal((16, 16))
        acf = acf2d(f)
        mirrored = np.roll(acf[::-1, ::-1], shift=(1, 1), axis=(0, 1))
        assert np.allclose(acf, mirrored, atol=1e-12)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            acf2d(np.zeros(8))

    def test_recovers_target_acf(self):
        # ensemble-averaged estimate converges to DFT(w)
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        spec = GaussianSpectrum(h=1.0, clx=16.0, cly=16.0)
        acc = np.zeros(grid.shape)
        n = 24
        for i in range(n):
            acc += acf2d(convolve_full(spec, grid, seed=500 + i))
        acc /= n
        lag = 4  # 16 units = cl -> rho = h^2/e
        expected = spec.autocorrelation(grid.x_centered[lag], 0.0)
        assert acc[lag, 0] == pytest.approx(expected, abs=0.08)


class TestAcfUnbiased:
    def test_zero_lag_matches(self, rng):
        f = rng.standard_normal((64, 64))
        u = acf2d_unbiased(f, max_lag=(8, 8))
        assert u.shape == (9, 9)
        assert u[0, 0] == pytest.approx(f.var(), rel=1e-9)

    def test_default_max_lag(self, rng):
        f = rng.standard_normal((32, 48))
        u = acf2d_unbiased(f)
        assert u.shape == (9, 13)

    def test_max_lag_validation(self, rng):
        with pytest.raises(ValueError):
            acf2d_unbiased(np.zeros((8, 8)), max_lag=(8, 2))

    @pytest.mark.parametrize("max_lag", [(-1, 3), (3, -2)])
    def test_negative_max_lag_rejected(self, rng, max_lag):
        # (-1, 3) used to return an empty (0, 4) array, (3, -2) a bare
        # numpy broadcast error
        with pytest.raises(ValueError, match=r"max_lag"):
            acf2d_unbiased(rng.standard_normal((16, 16)), max_lag=max_lag)

    def test_no_circular_leakage(self):
        # a linear ramp has wildly different circular vs aperiodic ACF;
        # the unbiased estimator must not see the wrap discontinuity
        n = 64
        f = np.outer(np.arange(n, dtype=float), np.ones(n))
        u = acf2d_unbiased(f, demean=True, max_lag=(4, 4))
        c = acf2d(f, demean=True)
        # circular estimate at lag 1 decays (wrap jump); unbiased stays
        # near the variance
        assert u[1, 0] > 0.95 * u[0, 0]
        assert u[1, 0] > c[1, 0]


class TestProfilesAndRadial:
    def test_profiles_start_at_variance(self, rng):
        f = rng.standard_normal((32, 32))
        px = acf_profile_x(f)
        py = acf_profile_y(f)
        assert px[0] == pytest.approx(f.var())
        assert py[0] == pytest.approx(f.var())
        assert px.shape == (17,)

    def test_radial_acf_isotropic_surface(self):
        grid = Grid2D(nx=128, ny=128, lx=512.0, ly=512.0)
        spec = GaussianSpectrum(h=1.0, clx=24.0, cly=24.0)
        f = convolve_full(spec, grid, seed=77)
        r, rho = radial_acf(f, grid.dx, grid.dy, n_bins=32)
        assert rho[0] == pytest.approx(f.var(), rel=0.15)
        # monotone-ish decay over the first correlation length
        assert rho[0] > rho[np.searchsorted(r, 24.0)]

    def test_radial_acf_r_max(self, rng):
        f = rng.standard_normal((32, 32))
        r, rho = radial_acf(f, 1.0, 1.0, n_bins=8, r_max=4.0)
        assert r[-1] <= 4.0
