"""Tests for the propagation substrate (profiles, diffraction, two-ray,
Hata, link budgets)."""

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.surface import Surface
from repro.propagation.deygout import deygout_loss_db, principal_edge
from repro.propagation.fresnel import (
    diffraction_parameter,
    free_space_loss_db,
    fresnel_radius,
    knife_edge_loss_db,
    wavelength,
)
from repro.propagation.hata import hata_loss_db
from repro.propagation.link import evaluate_link, max_range
from repro.propagation.profile import PathProfile, bilinear_sample, extract_profile
from repro.propagation.tworay import (
    rayleigh_criterion_height,
    rayleigh_roughness_factor,
    two_ray_field_factor,
    two_ray_loss_db,
)


@pytest.fixture
def flat_surface():
    grid = Grid2D(nx=128, ny=32, lx=2048.0, ly=512.0)
    return Surface(heights=np.zeros(grid.shape), grid=grid)


@pytest.fixture
def hill_surface():
    # a 30 m ridge across the middle of an otherwise flat strip
    grid = Grid2D(nx=128, ny=32, lx=2048.0, ly=512.0)
    h = np.zeros(grid.shape)
    X, _ = grid.meshgrid()
    h += 30.0 * np.exp(-(((X - 1024.0) / 80.0) ** 2))
    return Surface(heights=h, grid=grid)


class TestFresnel:
    def test_wavelength(self):
        assert wavelength(300e6) == pytest.approx(0.999, rel=1e-3)
        with pytest.raises(ValueError):
            wavelength(0.0)

    def test_free_space_loss_slope(self):
        # +20 dB per decade of distance
        l1 = free_space_loss_db(np.array(100.0), 1e9)
        l2 = free_space_loss_db(np.array(1000.0), 1e9)
        assert l2 - l1 == pytest.approx(20.0)

    def test_free_space_loss_reference_value(self):
        # classic: 1 km @ 1 GHz ~ 92.4 dB
        assert free_space_loss_db(np.array(1000.0), 1e9) == pytest.approx(
            92.44, abs=0.1
        )

    def test_fresnel_radius_peak_at_midpath(self):
        f = 1e9
        r_mid = fresnel_radius(500.0, 500.0, f)
        r_edge = fresnel_radius(100.0, 900.0, f)
        assert r_mid > r_edge
        with pytest.raises(ValueError):
            fresnel_radius(1.0, 1.0, f, zone=0)

    def test_diffraction_parameter_sign(self):
        f = 1e9
        nu_block = diffraction_parameter(10.0, 500.0, 500.0, f)
        nu_clear = diffraction_parameter(-10.0, 500.0, 500.0, f)
        assert nu_block > 0 > nu_clear

    def test_knife_edge_loss_grazing(self):
        # nu = 0 (edge exactly on the ray): ~6 dB
        assert knife_edge_loss_db(np.array(0.0)) == pytest.approx(6.0, abs=1.0)

    def test_knife_edge_loss_clear_path(self):
        assert knife_edge_loss_db(np.array(-2.0)) == 0.0

    def test_knife_edge_loss_monotone(self):
        nu = np.linspace(-0.5, 5.0, 50)
        loss = knife_edge_loss_db(nu)
        assert np.all(np.diff(loss) >= -1e-9)


class TestProfile:
    def test_bilinear_exact_on_nodes(self, hill_surface):
        v = bilinear_sample(hill_surface, np.array([1024.0]), np.array([256.0]))
        ix = int(1024.0 / hill_surface.grid.dx)
        iy = int(256.0 / hill_surface.grid.dy)
        assert v[0] == pytest.approx(hill_surface.heights[ix, iy])

    def test_bilinear_out_of_range(self, flat_surface):
        with pytest.raises(ValueError):
            bilinear_sample(flat_surface, np.array([-5.0]), np.array([0.0]))

    def test_extract_profile_basics(self, hill_surface):
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=2.0, n_samples=181)
        assert p.length == pytest.approx(1800.0)
        assert p.ground.max() == pytest.approx(30.0, abs=2.0)
        assert not p.is_line_of_sight()

    def test_flat_profile_is_los(self, flat_surface):
        p = extract_profile(flat_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=5.0, rx_height=5.0)
        assert p.is_line_of_sight()
        assert np.allclose(p.clearance(), 5.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PathProfile(distances=np.array([0.0, 1.0]),
                        ground=np.array([0.0, 0.0]),
                        tx_height=0.0, rx_height=1.0)
        with pytest.raises(ValueError):
            PathProfile(distances=np.array([0.0, 0.0]),
                        ground=np.array([0.0, 0.0]),
                        tx_height=1.0, rx_height=1.0)

    def test_extract_validation(self, flat_surface):
        with pytest.raises(ValueError):
            extract_profile(flat_surface, (0.0, 0.0), (0.0, 0.0),
                            tx_height=1.0, rx_height=1.0)
        with pytest.raises(ValueError):
            extract_profile(flat_surface, (0.0, 0.0), (10.0, 0.0),
                            tx_height=1.0, rx_height=1.0, n_samples=1)
        with pytest.raises(TypeError, match="tx_height"):
            extract_profile(flat_surface, (0.0, 0.0), (10.0, 0.0))

    def test_extract_preserves_provenance(self, hill_surface):
        hill_surface.provenance["seed"] = 42
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=2.0)
        assert p.provenance["seed"] == 42
        assert p.provenance["path"]["start"] == [100.0, 256.0]
        assert p.provenance["path"]["n_samples"] == 256

    def test_extract_from_heightfield(self, hill_surface):
        # a unified-API generator result: HeightField + explicit grid
        from repro.core.api import HeightField

        field = HeightField.wrap(hill_surface.heights,
                                 {"method": "convolution", "seed": 9})
        p = extract_profile(field, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=2.0,
                            grid=hill_surface.grid)
        ref = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                              tx_height=10.0, rx_height=2.0)
        assert p.ground == pytest.approx(ref.ground)
        assert p.provenance["seed"] == 9

    def test_heightfield_without_grid_rejected(self, hill_surface):
        with pytest.raises(ValueError, match="grid"):
            extract_profile(np.asarray(hill_surface.heights),
                            (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=2.0)


class TestDeygout:
    def test_clear_path_no_loss(self, flat_surface):
        p = extract_profile(flat_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=10.0)
        res = deygout_loss_db(p, 1e9)
        assert res.loss_db == pytest.approx(0.0, abs=1.5)
        assert res.line_of_sight

    def test_ridge_produces_loss(self, hill_surface):
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=10.0, n_samples=256)
        res = deygout_loss_db(p, 1e9)
        assert res.loss_db > 10.0
        assert not res.line_of_sight
        assert len(res.edges) >= 1

    def test_principal_edge_near_ridge(self, hill_surface):
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=10.0, n_samples=361)
        idx, nu = principal_edge(p, 1e9)
        assert nu > 0
        # edge located near mid path (the ridge)
        assert abs(p.distances[idx] - 900.0) < 150.0

    def test_higher_frequency_more_loss_at_principal_edge(self, hill_surface):
        # single blocking edge: nu ~ sqrt(f), J monotone in nu.  (The full
        # multi-edge sum is NOT monotone in f because grazing sub-edges
        # with nu in (-0.78, 0) drop out at high frequency.)
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=10.0, n_samples=256)
        l_low = deygout_loss_db(p, 300e6, max_edges=1).loss_db
        l_high = deygout_loss_db(p, 3e9, max_edges=1).loss_db
        assert l_high > l_low

    def test_edge_budget_limits_recursion(self, hill_surface):
        p = extract_profile(hill_surface, (100.0, 256.0), (1900.0, 256.0),
                            tx_height=10.0, rx_height=10.0, n_samples=256)
        res1 = deygout_loss_db(p, 1e9, max_edges=1)
        res3 = deygout_loss_db(p, 1e9, max_edges=3)
        assert len(res1.edges) <= 1
        assert res3.loss_db >= res1.loss_db - 1e-9


class TestTwoRay:
    def test_roughness_factor_limits(self):
        assert rayleigh_roughness_factor(0.0, 0.1, 1e9) == pytest.approx(1.0)
        assert rayleigh_roughness_factor(100.0, 0.5, 1e9) < 1e-6

    def test_roughness_factor_monotone_in_h(self):
        hs = np.linspace(0.0, 2.0, 10)
        vals = [rayleigh_roughness_factor(h, 0.05, 1e9) for h in hs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rayleigh_criterion(self):
        h = rayleigh_criterion_height(0.1, 1e9)
        assert h == pytest.approx(wavelength(1e9) / (8 * np.sin(0.1)))
        with pytest.raises(ValueError):
            rayleigh_criterion_height(0.0, 1e9)

    def test_smooth_ground_interference_pattern(self):
        d = np.linspace(50.0, 5000.0, 2000)
        fac = two_ray_field_factor(d, 10.0, 2.0, 1e9, height_std=0.0)
        # oscillates between ~0 and ~2 near-in
        assert fac.max() > 1.5
        assert fac.min() < 0.5

    def test_rough_ground_suppresses_interference(self):
        # h large enough that k h sin(theta) >> 1 over the whole range
        # (the Rayleigh factor recovers at long range as grazing angles
        # shrink, so the roughness must dominate the chosen range)
        d = np.linspace(500.0, 2000.0, 500)
        smooth = two_ray_field_factor(d, 10.0, 2.0, 1e9, height_std=0.0)
        rough = two_ray_field_factor(d, 10.0, 2.0, 1e9, height_std=20.0)
        # rough: reflected ray killed -> factor ~ 1 (free space)
        assert np.all(np.abs(rough - 1.0) < 0.3)
        assert smooth.std() > rough.std()

    def test_two_ray_loss_asymptote(self):
        # far field: 40 dB/decade (d^4 law) for smooth ground
        l1 = two_ray_loss_db(np.array(20_000.0), 10.0, 2.0, 1e9)
        l2 = two_ray_loss_db(np.array(200_000.0), 10.0, 2.0, 1e9)
        assert l2 - l1 == pytest.approx(40.0, abs=3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_ray_field_factor(np.array(-1.0), 10.0, 2.0, 1e9)
        with pytest.raises(ValueError):
            two_ray_field_factor(np.array(10.0), 0.0, 2.0, 1e9)
        with pytest.raises(ValueError):
            rayleigh_roughness_factor(-1.0, 0.1, 1e9)


class TestHata:
    def test_urban_reference_magnitude(self):
        # 900 MHz, hb=30, hm=1.5, d=1 km: ~126 dB urban median loss
        loss = hata_loss_db(np.array(1.0), 900.0, 30.0, 1.5, "urban")
        assert 120.0 < float(loss) < 132.0

    def test_environment_ordering(self):
        d = np.array(5.0)
        urban = hata_loss_db(d, 900.0, environment="urban", mobile_height_m=1.5)
        suburban = hata_loss_db(d, 900.0, environment="suburban", mobile_height_m=1.5)
        open_ = hata_loss_db(d, 900.0, environment="open", mobile_height_m=1.5)
        assert float(urban) > float(suburban) > float(open_)

    def test_distance_slope(self):
        l1 = hata_loss_db(np.array(2.0), 900.0)
        l2 = hata_loss_db(np.array(20.0), 900.0)
        slope = float(l2 - l1)  # per decade
        assert slope == pytest.approx(44.9 - 6.55 * np.log10(30.0), abs=0.1)

    def test_validity_enforcement(self):
        with pytest.raises(ValueError):
            hata_loss_db(np.array(1.0), 100.0)  # f too low
        with pytest.raises(ValueError):
            hata_loss_db(np.array(50.0), 900.0)  # too far
        # escape hatch
        out = hata_loss_db(np.array(50.0), 900.0, strict=False)
        assert np.isfinite(out)

    def test_large_city_correction(self):
        a = hata_loss_db(np.array(5.0), 900.0, large_city=False)
        b = hata_loss_db(np.array(5.0), 900.0, large_city=True)
        assert float(a) != pytest.approx(float(b), abs=1e-6)

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            hata_loss_db(np.array(1.0), 900.0, environment="alpine")


class TestLinkBudget:
    def test_flat_vs_hill(self, flat_surface, hill_surface):
        kw = dict(frequency_hz=1e9, tx_height=10.0, rx_height=5.0)
        flat = evaluate_link(flat_surface, (100.0, 256.0), (1900.0, 256.0), **kw)
        hill = evaluate_link(hill_surface, (100.0, 256.0), (1900.0, 256.0), **kw)
        assert hill.total_db > flat.total_db + 5.0
        assert flat.line_of_sight and not hill.line_of_sight

    def test_budget_itemisation(self, flat_surface):
        b = evaluate_link(flat_surface, (100.0, 256.0), (1900.0, 256.0), 1e9)
        assert b.total_db == pytest.approx(
            b.free_space_db + b.diffraction_db - b.two_ray_gain_db
        )
        assert set(b.as_dict()) >= {"distance", "total_db", "line_of_sight"}

    def test_max_range_monotone_in_budget(self, hill_surface):
        kw = dict(frequency_hz=1e9, step=100.0)
        short = max_range(hill_surface, (100.0, 256.0), (1.0, 0.0),
                          max_loss_db=95.0, **kw)
        generous = max_range(hill_surface, (100.0, 256.0), (1.0, 0.0),
                             max_loss_db=160.0, **kw)
        assert generous >= short

    def test_max_range_validation(self, flat_surface):
        with pytest.raises(ValueError):
            max_range(flat_surface, (0.0, 0.0), (0.0, 0.0), 1e9, 100.0)
