"""Tests for the point-oriented method (paper eqns 40-46)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inhomogeneous
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import (
    InhomogeneousGenerator,
    PointOrientedLayout,
    PointSpec,
    point_oriented_weights,
)
from repro.core.rng import BlockNoise
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.transition import get_profile
from repro.parallel import TilePlan, generate_tiled


def _reference_point_oriented_weights(px, py, qx, qy, half_width,
                                      profile="linear"):
    """Dense one-pass evaluation of eqns (40)-(46): the byte oracle of
    :func:`point_oriented_weights`, which must match it exactly."""
    px = np.asarray(px, dtype=float).ravel()
    py = np.asarray(py, dtype=float).ravel()
    qx = np.asarray(qx, dtype=float).ravel()
    qy = np.asarray(qy, dtype=float).ravel()
    m = px.size
    p = qx.size
    if m == 0:
        raise ValueError("need at least one representative point")
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    phi = get_profile(profile)

    # Squared distances point -> query: (M, P)
    d2 = (px[:, None] - qx[None, :]) ** 2 + (py[:, None] - qy[None, :]) ** 2
    nearest = np.argmin(d2, axis=0)  # (P,)
    if m == 1:
        return np.ones((1, p))

    # Pairwise distances between representative points: (M, M)
    pd = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
    if np.any(pd[~np.eye(m, dtype=bool)] == 0.0):
        raise ValueError("representative points must be pairwise distinct")

    d2_min = d2[nearest, np.arange(p)]  # (P,)
    denom = pd[:, nearest]  # (M, P): |p_m - p_{m*}| per column
    is_star = np.arange(m)[:, None] == nearest[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (d2 - d2_min[None, :]) / (2.0 * denom)
    tau[is_star] = np.inf  # the nearest point is handled by the remainder rule

    weights = np.zeros((m, p))
    if half_width > 0.0:
        active = tau <= half_width
        fade = np.zeros_like(tau)
        fade[active] = 1.0 - phi(tau[active] / half_width)
        m_tilde = active.sum(axis=0)  # (P,) competitor count
        cols = m_tilde > 0
        if np.any(cols):
            weights[:, cols] = fade[:, cols] / (2.0 * m_tilde[None, cols])
    # eqn (45): nearest point absorbs the remainder (=1 when no competitor)
    remainder = 1.0 - weights.sum(axis=0)
    weights[nearest, np.arange(p)] = remainder
    return weights


@pytest.fixture
def sa():
    return GaussianSpectrum(h=1.0, clx=10.0, cly=10.0)


@pytest.fixture
def sb():
    return ExponentialSpectrum(h=2.0, clx=10.0, cly=10.0)


class TestWeights:
    def test_single_point_all_ones(self):
        w = point_oriented_weights(
            np.array([0.0]), np.array([0.0]),
            np.array([1.0, 5.0]), np.array([0.0, 2.0]), half_width=3.0,
        )
        assert np.allclose(w, 1.0)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(4)
        px, py = rng.uniform(0, 100, 6), rng.uniform(0, 100, 6)
        qx, qy = rng.uniform(0, 100, 200), rng.uniform(0, 100, 200)
        w = point_oriented_weights(px, py, qx, qy, half_width=20.0)
        assert np.allclose(w.sum(axis=0), 1.0)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_nearest_dominates(self):
        # eqn 45 consequence: the nearest point's weight >= 1/2
        rng = np.random.default_rng(5)
        px, py = rng.uniform(0, 100, 5), rng.uniform(0, 100, 5)
        qx, qy = rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
        w = point_oriented_weights(px, py, qx, qy, half_width=30.0)
        d2 = (px[:, None] - qx) ** 2 + (py[:, None] - qy) ** 2
        nearest = np.argmin(d2, axis=0)
        w_near = w[nearest, np.arange(qx.size)]
        assert np.all(w_near >= 0.5 - 1e-12)

    def test_far_from_bisectors_is_pure(self):
        # two points far apart: a query close to one of them is pure
        w = point_oriented_weights(
            np.array([0.0, 100.0]), np.array([0.0, 0.0]),
            np.array([1.0]), np.array([0.0]), half_width=5.0,
        )
        assert w[0, 0] == pytest.approx(1.0)
        assert w[1, 0] == pytest.approx(0.0)

    def test_on_bisector_equal_blend(self):
        # tau = 0 on the bisector: eqn 44 gives 1/(2*1), remainder 1/2
        w = point_oriented_weights(
            np.array([0.0, 10.0]), np.array([0.0, 0.0]),
            np.array([5.0]), np.array([3.0]), half_width=4.0,
        )
        assert w[0, 0] == pytest.approx(0.5)
        assert w[1, 0] == pytest.approx(0.5)

    def test_linear_fade_in_tau(self):
        # query sliding from the bisector towards point 0: competitor
        # weight decays linearly from 1/2 to 0 at tau = T (eqns 43-44)
        px = np.array([0.0, 10.0])
        py = np.array([0.0, 0.0])
        T = 3.0
        xs = np.array([5.0, 4.0, 3.5, 2.0, 1.0])  # tau = 0,1,1.5,3,4
        w = point_oriented_weights(px, py, xs, np.zeros_like(xs), half_width=T)
        expected = np.array([0.5, (1 - 1 / 3) / 2, 0.25, 0.0, 0.0])
        assert np.allclose(w[1], expected)

    def test_zero_half_width_is_voronoi(self):
        rng = np.random.default_rng(6)
        px, py = rng.uniform(0, 50, 4), rng.uniform(0, 50, 4)
        qx, qy = rng.uniform(0, 50, 100), rng.uniform(0, 50, 100)
        w = point_oriented_weights(px, py, qx, qy, half_width=0.0)
        assert set(np.unique(w)) <= {0.0, 1.0}
        d2 = (px[:, None] - qx) ** 2 + (py[:, None] - qy) ** 2
        nearest = np.argmin(d2, axis=0)
        assert np.all(w[nearest, np.arange(100)] == 1.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            point_oriented_weights(
                np.array([1.0, 1.0]), np.array([2.0, 2.0]),
                np.array([0.0]), np.array([0.0]), half_width=1.0,
            )

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            point_oriented_weights(
                np.array([0.0]), np.array([0.0]),
                np.array([1.0]), np.array([1.0]), half_width=-1.0,
            )

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            point_oriented_weights(
                np.array([]), np.array([]),
                np.array([1.0]), np.array([1.0]), half_width=1.0,
            )


class TestLayout:
    def test_weight_map_partition(self, sa, sb):
        grid = Grid2D(nx=32, ny=32, lx=128.0, ly=128.0)
        layout = PointOrientedLayout(
            [PointSpec(30, 30, sa), PointSpec(90, 90, sb), PointSpec(30, 90, sa)],
            half_width=20.0,
        )
        wm = layout.weight_map(grid)
        wm.validate()
        # points sharing a spectrum merge into one blend field
        assert wm.n_regions == 2

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            PointOrientedLayout([], half_width=1.0)

    def test_origin_offset_consistency(self, sa, sb):
        grid = Grid2D(nx=32, ny=16, lx=64.0, ly=32.0)
        layout = PointOrientedLayout(
            [PointSpec(10, 10, sa), PointSpec(50, 20, sb)], half_width=12.0
        )
        wm_full = layout.weight_map(grid)
        sub = grid.with_shape(16, 16)
        wm_sub = layout.weight_map(sub, origin=(32.0, 0.0))
        assert np.allclose(wm_sub.weights, wm_full.weights[:, 16:, :])


class TestGeneration:
    def test_fig4_style_generation(self, sa, sb):
        grid = Grid2D(nx=96, ny=96, lx=384.0, ly=384.0)
        pts = [
            PointSpec(192 + 120 * np.cos(2 * np.pi * i / 5),
                      192 + 120 * np.sin(2 * np.pi * i / 5), sa)
            for i in range(5)
        ] + [PointSpec(192.0, 192.0, sb)]
        layout = PointOrientedLayout(pts, half_width=40.0)
        gen = InhomogeneousGenerator(layout, grid, truncation=0.999)
        s = gen.generate(seed=17)
        assert s.shape == grid.shape
        # centre realises sb's larger h; ring region realises sa's
        centre = s.heights[40:56, 40:56]
        assert centre.std() > 1.0  # sb has h = 2

    def test_voronoi_limit_regions_pure(self, sa, sb):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        layout = PointOrientedLayout(
            [PointSpec(64, 128, sa), PointSpec(192, 128, sb)], half_width=0.0
        )
        wm = layout.weight_map(grid)
        assert set(np.unique(wm.weights)) <= {0.0, 1.0}


class TestDegenerateGeometry:
    """Edge cases of eqns (42)-(45): ties, zero distances, zero widths."""

    def test_equidistant_query_splits_evenly(self):
        # query on the bisector: tau = 0, so the competitor gets the full
        # fade 1/(2*1) = 1/2 and the nearest keeps the remainder 1/2
        w = point_oriented_weights(
            np.array([0.0, 2.0]), np.array([0.0, 0.0]),
            np.array([1.0]), np.array([0.0]), half_width=0.5,
        )
        assert np.allclose(w[:, 0], [0.5, 0.5])

    def test_equidistant_three_way_tie(self):
        # centroid of an equilateral triangle: two competitors at tau = 0
        # each take 1/(2*2); the (arbitrarily chosen) nearest keeps 1/2
        ang = 2.0 * np.pi * np.arange(3) / 3.0
        w = point_oriented_weights(
            np.cos(ang), np.sin(ang), np.array([0.0]), np.array([0.0]),
            half_width=0.3,
        )
        assert np.isclose(w.sum(), 1.0)
        assert np.isclose(w.max(), 0.5)
        assert np.allclose(np.sort(w[:, 0]), [0.25, 0.25, 0.5])

    def test_equidistant_query_zero_half_width(self):
        # hard-Voronoi limit with a tie: tau = 0 is not < T, so the
        # nearest (lowest index by argmin) takes everything — weights
        # stay a partition of unity, no NaN from the tie
        w = point_oriented_weights(
            np.array([0.0, 2.0]), np.array([0.0, 0.0]),
            np.array([1.0]), np.array([0.0]), half_width=0.0,
        )
        assert w[:, 0].tolist() == [1.0, 0.0]

    def test_query_coincident_with_representative(self):
        # d2_min = 0 exactly; tau for the rival is half its separation
        w = point_oriented_weights(
            np.array([0.0, 1.0]), np.array([0.0, 0.0]),
            np.array([0.0]), np.array([0.0]), half_width=0.2,
        )
        # rival's tau = 0.5 > T: the coincident point is pure
        assert w[:, 0].tolist() == [1.0, 0.0]
        w2 = point_oriented_weights(
            np.array([0.0, 1.0]), np.array([0.0, 0.0]),
            np.array([0.0]), np.array([0.0]), half_width=1.0,
        )
        # rival participates: fade = 1 - 0.5, share = 0.5 / 2 = 0.25
        assert np.allclose(w2[:, 0], [0.75, 0.25])
        assert w2[0, 0] >= 0.5  # eqn (45): own cell always dominates

    def test_coincident_query_zero_half_width(self):
        w = point_oriented_weights(
            np.array([0.0, 3.0, 0.0]), np.array([0.0, 0.0, 4.0]),
            np.array([0.0, 3.0]), np.array([0.0, 0.0]), half_width=0.0,
        )
        assert np.array_equal(w, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# Byte identity with the dense oracle
# ---------------------------------------------------------------------------
@st.composite
def weight_cases(draw):
    """Points, a query box and the arguments of one weights call."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["scatter", "collinear", "clustered",
                                 "lattice"]))
    if kind == "scatter":
        px, py = rng.uniform(0.0, 100.0, (2, m))
    elif kind == "collinear":
        ang = rng.uniform(0.0, 2.0 * np.pi)
        t = rng.uniform(0.0, 100.0, m)
        px, py = 50.0 + t * np.cos(ang), 50.0 + t * np.sin(ang)
    elif kind == "clustered":
        px, py = rng.uniform(0.0, 100.0, (2, 1)) + rng.normal(0.0, 1e-3,
                                                              (2, m))
    else:  # integer lattice: exact distance ties between points
        cells = rng.choice(121, size=m, replace=False)
        px, py = 10.0 * (cells // 11), 10.0 * (cells % 11)
    if draw(st.booleans()):  # some points far outside the query box
        far = rng.random(m) < 0.5
        px = px + far * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(3, 6)

    # Query box: deep inside one cell, across a band, or over everything.
    where = draw(st.sampled_from(["cell", "band", "span"]))
    i, j = rng.integers(0, m, 2)
    if where == "cell":
        centre, extent = (px[i], py[i]), rng.uniform(0.01, 2.0)
    elif where == "band":
        centre = ((px[i] + px[j]) / 2.0, (py[i] + py[j]) / 2.0)
        extent = rng.uniform(1.0, 50.0)
    else:
        centre, extent = (50.0, 50.0), 150.0
    nx = draw(st.integers(1, 150))
    ny = draw(st.integers(1, 150))
    gx, gy = np.meshgrid(
        centre[0] + extent * np.linspace(-0.5, 0.5, nx),
        centre[1] + extent * np.linspace(-0.5, 0.5, ny), indexing="ij",
    )
    if kind == "lattice":  # queries on the lattice too: exact ties
        gx, gy = np.round(gx), np.round(gy)
    half_width = draw(st.one_of(
        st.just(0.0),
        st.floats(1e-3, 1.0),           # narrower than any band
        st.floats(1.0, 20.0),           # of order the spacing / 5
        st.floats(50.0, 500.0),         # wider than the point spacing
    ))
    profile = draw(st.sampled_from(["linear", "smoothstep", "cosine"]))
    block = draw(st.one_of(st.none(), st.integers(2, 4096)))
    if block is not None:  # bounded block count keeps examples fast
        block = max(block, -(-gx.size // 64))
    return (px, py, gx.ravel(), gy.ravel(), half_width, profile), block


class TestByteIdentity:
    """The blocked, pruned weights equal the dense oracle bit for bit."""

    @given(case=weight_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        args, block = case
        try:
            expected = _reference_point_oriented_weights(*args)
        except ValueError:
            with pytest.raises(ValueError):
                point_oriented_weights(*args)
            return
        if block is None:
            got = point_oriented_weights(*args)
        else:
            with mock.patch.object(inhomogeneous, "_QUERY_BLOCK", block):
                got = point_oriented_weights(*args)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_fig4_tiles_match_reference(self):
        from repro.figures import default_grid, figure4_layout

        layout = figure4_layout()
        grid = default_grid(2048)
        tile = grid.with_shape(512, 512)
        origins = [(x0 * grid.dx, y0 * grid.dy)
                   for x0 in range(0, 2048, 512) for y0 in range(0, 2048, 512)]
        got = [layout.weight_map(tile, origin=o) for o in origins]
        with mock.patch.object(inhomogeneous, "point_oriented_weights",
                               _reference_point_oriented_weights):
            expected = [layout.weight_map(tile, origin=o) for o in origins]
        for g, e in zip(got, expected):
            assert g.spectra == e.spectra
            assert np.array_equal(g.weights, e.weights)

    @pytest.mark.parametrize("n_queries, block", [(1, 4), (3, 2)])
    def test_one_column_sums_keep_their_order(self, n_queries, block):
        # numpy sums a one-column (M, 1) block's rows pairwise, not in row
        # order: one query alone keeps every point, and a lone last query
        # joins the block before it
        rng = np.random.default_rng(1)
        for _ in range(40):
            ang = 2.0 * np.pi * np.arange(12) / 12 + rng.uniform(0.0, 1.0)
            px, py = 10.0 * np.cos(ang), 10.0 * np.sin(ang)
            px[rng.permutation(12)[:3]] += 1000.0  # pruned points
            qx, qy = rng.uniform(-3.0, 3.0, (2, n_queries))
            args = (px, py, qx, qy, 30.0)
            with mock.patch.object(inhomogeneous, "_QUERY_BLOCK", block):
                got = point_oriented_weights(*args)
            assert np.array_equal(got, _reference_point_oriented_weights(*args))

    def test_nan_query_keeps_argmin_rule(self):
        # a NaN coordinate makes argmin pick the first NaN row; the
        # blocked path follows the same rule
        args = (np.array([0.0, 5.0, 9.0]), np.array([0.0, np.nan, 1.0]),
                np.array([1.0, np.nan, 8.0]), np.array([0.0, 2.0, 1.0]), 2.0)
        with np.errstate(invalid="ignore"):
            expected = _reference_point_oriented_weights(*args)
            got = point_oriented_weights(*args)
        assert np.array_equal(got, expected)

    def test_block_with_one_point_left(self):
        # the queries sit deep in point 0's cell: the reach test keeps
        # only that point, and its one-row block still gives exact ones
        px, py = np.array([0.0, 100.0, 0.0]), np.array([0.0, 0.0, 100.0])
        qx, qy = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9))
        qx, qy = qx.ravel(), qy.ravel()
        assert list(inhomogeneous._reaching_points(px, py, qx, qy, 1.0)) == [0]
        args = (px, py, qx, qy, 1.0)
        assert np.array_equal(point_oriented_weights(*args),
                              _reference_point_oriented_weights(*args))


class TestValidation:
    def test_nan_half_width_rejected(self):
        with pytest.raises(ValueError, match="half_width must be >= 0"):
            point_oriented_weights(
                np.array([0.0, 4.0]), np.array([0.0, 0.0]),
                np.array([1.0]), np.array([1.0]), half_width=float("nan"),
            )

    @pytest.mark.parametrize("half_width", [-1.0, float("nan")])
    def test_layout_rejects_bad_half_width_at_construction(self, sa,
                                                           half_width):
        with pytest.raises(ValueError, match="half_width must be >= 0"):
            PointOrientedLayout([PointSpec(0.0, 0.0, sa)], half_width)

    def test_mismatched_coordinate_sizes_rejected(self):
        with pytest.raises(ValueError):
            point_oriented_weights(
                np.array([0.0, 4.0]), np.array([0.0, 0.0]),
                np.array([1.0, 2.0]), np.array([1.0]), half_width=1.0,
            )


class _UnhashableSpectrum(GaussianSpectrum):
    __hash__ = None


class TestUnhashableSpectrum:
    def test_layout_builds_and_tiles(self, sb):
        sa = _UnhashableSpectrum(h=1.0, clx=10.0, cly=10.0)
        with pytest.raises(TypeError):
            hash(sa)
        grid = Grid2D(nx=64, ny=64, lx=128.0, ly=128.0)
        layout = PointOrientedLayout(
            [PointSpec(20, 20, sa), PointSpec(100, 40, sb),
             PointSpec(40, 100, sa)],
            half_width=15.0,
        )
        wm = layout.weight_map(grid)
        # the two points carrying the same instance share one field
        assert wm.n_regions == 2 and wm.spectra[0] is sa
        gen = InhomogeneousGenerator(layout, grid, truncation=0.999)
        bn = BlockNoise(seed=4, block=32)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
        serial = generate_tiled(gen, bn, plan, backend="serial")
        thread = generate_tiled(gen, bn, plan, backend="thread", workers=2)
        assert np.array_equal(serial.heights, thread.heights)
        oneshot = gen.generate_window(bn, 0, 0, 64, 64)
        assert np.allclose(serial.heights, oneshot.heights, atol=1e-10)
