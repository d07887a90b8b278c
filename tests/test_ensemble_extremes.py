"""Tests for extreme-value statistics."""

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.spectra import GaussianSpectrum
from repro.stats.extremes import (
    effective_sample_count,
    exceedance_curve,
    expected_maximum_gaussian,
    peak_count,
)


class TestExceedance:
    def test_monotone_decreasing(self, rng):
        z, p = exceedance_curve(rng.standard_normal(10_000))
        assert np.all(np.diff(p) <= 1e-12)
        assert p[0] > 0.9 and p[-1] <= 0.01

    def test_gaussian_reference_point(self, rng):
        z, p = exceedance_curve(rng.standard_normal(200_000),
                                thresholds=np.array([0.0, 1.0, 2.0]))
        assert p[0] == pytest.approx(0.5, abs=0.01)
        assert p[1] == pytest.approx(0.1587, abs=0.01)
        assert p[2] == pytest.approx(0.0228, abs=0.005)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exceedance_curve(np.array([]))


class TestEffectiveCountAndMaximum:
    def test_effective_count(self):
        assert effective_sample_count(100.0, 100.0, 10.0, 10.0) == \
            pytest.approx(10_000.0 / (np.pi * 100.0))
        with pytest.raises(ValueError):
            effective_sample_count(0.0, 1.0, 1.0, 1.0)

    def test_expected_maximum_grows_with_n(self):
        lo = expected_maximum_gaussian(1.0, 100.0)
        hi = expected_maximum_gaussian(1.0, 1_000_000.0)
        assert hi > lo > 1.0

    def test_expected_maximum_matches_simulation(self, rng):
        n = 5000
        maxima = [rng.standard_normal(n).max() for _ in range(200)]
        predicted = expected_maximum_gaussian(1.0, n)
        assert np.mean(maxima) == pytest.approx(predicted, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_maximum_gaussian(-1.0, 100.0)
        with pytest.raises(ValueError):
            expected_maximum_gaussian(1.0, 2.0)


class TestPeakCount:
    def test_single_peak(self):
        h = np.zeros((5, 5))
        h[2, 2] = 3.0
        assert peak_count(h, 1.0) == 1
        assert peak_count(h, 5.0) == 0

    def test_boundary_not_counted(self):
        h = np.zeros((5, 5))
        h[0, 2] = 9.0
        assert peak_count(h, 1.0) == 0

    def test_plateau_not_strict_peak(self):
        h = np.zeros((5, 5))
        h[2, 2] = h[2, 3] = 2.0
        assert peak_count(h, 1.0) == 0

    def test_peak_density_scales_with_roughness(self):
        grid = Grid2D(nx=128, ny=128, lx=512.0, ly=512.0)
        from repro.core.convolution import convolve_full

        fine = convolve_full(GaussianSpectrum(h=1.0, clx=6.0, cly=6.0),
                             grid, seed=2)
        coarse = convolve_full(GaussianSpectrum(h=1.0, clx=40.0, cly=40.0),
                               grid, seed=2)
        assert peak_count(fine, 0.0) > 4 * peak_count(coarse, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_count(np.zeros((2, 5)), 0.0)
