"""Tests for slope statistics and strips streamed to a store."""

import numpy as np
import pytest

from repro.core.convolution import ConvolutionGenerator, convolve_full
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
)
from repro.io.store import SurfaceStore
from repro.parallel import generate_tiled, strip_plan
from repro.stats.slopes import (
    measured_forward_slope_variance,
    slope_variance_continuum,
    slope_variance_discrete,
    slope_variance_spectral,
)


class TestSlopeVariance:
    def test_gaussian_closed_form_matches_spectral(self):
        grid = Grid2D(nx=1024, ny=1024, lx=1024.0, ly=1024.0)
        s = GaussianSpectrum(h=1.5, clx=20.0, cly=30.0)
        closed = slope_variance_continuum(s)
        spectral = slope_variance_spectral(s, grid)
        assert spectral[0] == pytest.approx(closed[0], rel=1e-6)
        assert spectral[1] == pytest.approx(closed[1], rel=1e-6)
        assert closed[0] == pytest.approx(2 * 1.5**2 / 20.0**2)

    def test_power_law_closed_form_matches_spectral(self):
        grid = Grid2D(nx=2048, ny=2048, lx=2048.0, ly=2048.0)
        for n in (3.0, 4.0, 6.0):
            s = PowerLawSpectrum(h=1.0, clx=20.0, cly=20.0, order=n)
            closed = slope_variance_continuum(s)[0]
            spectral = slope_variance_spectral(s, grid)[0]
            assert spectral == pytest.approx(closed, rel=0.01), n

    def test_divergent_families_raise(self):
        with pytest.raises(ValueError, match="diverge"):
            slope_variance_continuum(
                ExponentialSpectrum(h=1.0, clx=10.0, cly=10.0)
            )
        with pytest.raises(ValueError, match="N <= 2"):
            slope_variance_continuum(
                PowerLawSpectrum(h=1.0, clx=10.0, cly=10.0, order=2.0)
            )

    def test_exponential_band_limited_grows_with_resolution(self):
        s = ExponentialSpectrum(h=1.0, clx=20.0, cly=20.0)
        coarse = slope_variance_spectral(
            s, Grid2D(nx=128, ny=128, lx=512.0, ly=512.0)
        )[0]
        fine = slope_variance_spectral(
            s, Grid2D(nx=1024, ny=1024, lx=512.0, ly=512.0)
        )[0]
        assert fine > 2.0 * coarse  # divergence made visible

    def test_discrete_identity_on_generated_surface(self):
        """The forward-difference identity holds exactly in expectation."""
        grid = Grid2D(nx=256, ny=256, lx=512.0, ly=512.0)
        s = ExponentialSpectrum(h=1.0, clx=15.0, cly=15.0)
        pred_x, pred_y = slope_variance_discrete(s, grid)
        acc_x = acc_y = 0.0
        n = 16
        for seed in range(n):
            f = convolve_full(s, grid, seed=300 + seed)
            mx, my = measured_forward_slope_variance(f, grid.dx, grid.dy)
            acc_x += mx
            acc_y += my
        assert acc_x / n == pytest.approx(pred_x, rel=0.05)
        assert acc_y / n == pytest.approx(pred_y, rel=0.05)

    def test_discrete_below_spectral(self):
        # the finite difference under-responds at high K: discrete < spectral
        grid = Grid2D(nx=256, ny=256, lx=512.0, ly=512.0)
        s = GaussianSpectrum(h=1.0, clx=6.0, cly=6.0)
        d = slope_variance_discrete(s, grid)[0]
        c = slope_variance_spectral(s, grid)[0]
        assert d < c

    def test_measured_validation(self):
        with pytest.raises(ValueError):
            measured_forward_slope_variance(np.zeros(8), 1.0, 1.0)


class TestStreamedExport:
    """Strips streamed into a :class:`SurfaceStore`, the one out-of-core
    format: the full array never exists in RAM."""

    @pytest.fixture
    def gen(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        return ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=12.0, cly=12.0), grid,
            truncation=(8, 8),
        )

    @staticmethod
    def _export(path, gen, bn, total_nx, ny, strip_nx=1024, x0=0, y0=0):
        plan = strip_plan(total_nx, ny, strip_nx, x0, y0)
        store = SurfaceStore.create(
            path, shape=(total_nx, ny), chunk=(plan.tile_nx, plan.tile_ny),
            dx=gen.grid.dx, dy=gen.grid.dy, origin=(x0, y0),
            meta={"noise_seed": bn.seed, "noise_block": bn.block},
        )
        generate_tiled(gen, bn, plan, out=store)
        return store

    def test_round_trip_matches_window(self, gen, tmp_path):
        bn = BlockNoise(seed=5)
        ref = gen.generate_window(bn, 50, 0, 70, 64)
        with self._export(tmp_path / "big", gen, bn, total_nx=200, ny=64,
                          strip_nx=64) as store:
            window = store.read_window(50, 0, 70, 64)
            s = store.surface().window(slice(50, 120), slice(None))
        assert np.allclose(window, ref, atol=1e-10)
        assert np.array_equal(s.heights, window)
        assert s.origin[0] == pytest.approx(50 * gen.grid.dx)

    def test_strip_width_invariance(self, gen, tmp_path):
        bn = BlockNoise(seed=6)
        with self._export(tmp_path / "a", gen, bn, total_nx=150, ny=32,
                          strip_nx=150) as a, \
             self._export(tmp_path / "b", gen, bn, total_nx=150, ny=32,
                          strip_nx=37) as b:
            assert np.allclose(a.heights(), b.heights(), atol=1e-10)

    def test_manifest_records_geometry(self, gen, tmp_path):
        bn = BlockNoise(seed=7, block=128)
        self._export(tmp_path / "c", gen, bn, total_nx=64, ny=32,
                     x0=10, y0=-5).close()
        with SurfaceStore.open(tmp_path / "c", mode="r") as store:
            assert store.manifest["meta"]["noise_seed"] == 7
            assert store.origin == (10, -5)
            assert store.surface().origin == pytest.approx(
                (10 * gen.grid.dx, -5 * gen.grid.dy))
            assert np.allclose(store.read_window(0, 0, 64, 32),
                               gen.generate_window(bn, 10, -5, 64, 32),
                               atol=1e-10)

    def test_readable_by_plain_numpy(self, gen, tmp_path):
        bn = BlockNoise(seed=8)
        with self._export(tmp_path / "d", gen, bn, total_nx=80,
                          ny=16) as store:
            mm = np.load(store.heights_path, mmap_mode="r")
        assert mm.shape == (80, 16)
        assert np.isfinite(mm[40, 8])

    def test_validation(self, gen, tmp_path):
        with pytest.raises(ValueError):
            strip_plan(0, 8, 1024)
        bn = BlockNoise(seed=1)
        with self._export(tmp_path / "y", gen, bn, total_nx=16,
                          ny=8) as store:
            with pytest.raises(ValueError):
                store.read_window(12, 0, 8, 8)
            with pytest.raises(ValueError):
                store.surface().window(slice(4, 4), slice(None))
            with pytest.raises(ValueError):
                store.surface().window(slice(0, 8, 2), slice(None))
