"""Unit tests for Gaussian RNG machinery (eqn 18) and block noise."""

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.rng import (
    BlockNoise,
    Lcg,
    as_generator,
    box_muller,
    normal_pair_from_uniform,
    standard_normal_field,
)


class TestBoxMuller:
    def test_known_values(self):
        # u1 = 0 (cos branch = 1): X = sqrt(-2 log u2)
        assert box_muller(0.0, np.exp(-0.5)) == pytest.approx(1.0)
        assert box_muller(0.0, 1.0) == pytest.approx(0.0)

    def test_pair_orthogonality(self):
        # cos and sin branches at u1 = pi/2 swap roles
        x, y = normal_pair_from_uniform(np.pi / 2.0, np.exp(-0.5))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0)

    def test_rejects_bad_u2(self):
        with pytest.raises(ValueError):
            box_muller(0.0, 0.0)
        with pytest.raises(ValueError):
            box_muller(0.0, 1.5)

    def test_moments_from_uniform_grid(self):
        # deterministic check: push a dense uniform lattice through the
        # transform and verify near-normal moments
        rng = np.random.default_rng(7)
        u1 = rng.uniform(0.0, 2 * np.pi, 200_000)
        u2 = rng.uniform(1e-12, 1.0, 200_000)
        x = box_muller(u1, u2)
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(1.0, abs=0.02)
        assert abs(np.mean(x**3)) < 0.05


class TestLcg:
    def test_deterministic_sequence(self):
        a = Lcg(state=1)
        b = Lcg(state=1)
        assert a.rand() == b.rand()
        assert a.rand(5.0) == b.rand(5.0)

    def test_range(self):
        g = Lcg(state=99)
        vals = g.rand(2.0 * np.pi, size=1000)
        assert np.all(vals >= 0.0) and np.all(vals <= 2.0 * np.pi)

    def test_normal_moments(self):
        g = Lcg(state=12345)
        x = g.normal(size=20000)
        assert abs(np.mean(x)) < 0.05
        assert np.std(x) == pytest.approx(1.0, abs=0.05)

    def test_normal_scalar(self):
        g = Lcg(state=3)
        assert isinstance(g.normal(), float)

    def test_low_bit_weakness_documented(self):
        # the classic LCG failure: low-order bits alternate with period 2
        g = Lcg(state=1)
        bits = []
        for _ in range(64):
            g.state = (g._A * g.state + g._C) % g._M
            bits.append(g.state & 1)
        assert bits == [bits[0], bits[1]] * 32  # period-2 low bit


class TestStandardNormalField:
    def test_shape_and_seeding(self):
        a = standard_normal_field((8, 8), seed=1)
        b = standard_normal_field((8, 8), seed=1)
        c = standard_normal_field((8, 8), seed=2)
        assert a.shape == (8, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_generator(self):
        gen = np.random.default_rng(5)
        a = standard_normal_field((4,), seed=gen)
        assert a.shape == (4,)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen


class TestBlockNoise:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockNoise(seed=-1)
        with pytest.raises(ValueError):
            BlockNoise(seed=1, block=0)

    def test_determinism(self):
        a = BlockNoise(seed=5, block=16).window(0, 0, 32, 32)
        b = BlockNoise(seed=5, block=16).window(0, 0, 32, 32)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = BlockNoise(seed=5).window(0, 0, 16, 16)
        b = BlockNoise(seed=6).window(0, 0, 16, 16)
        assert not np.array_equal(a, b)

    def test_overlapping_windows_agree(self):
        bn = BlockNoise(seed=11, block=16)
        big = bn.window(-8, -8, 48, 48)
        small = bn.window(4, 0, 10, 20)
        assert np.array_equal(big[12:22, 8:28], small)

    def test_window_crossing_block_boundaries(self):
        bn = BlockNoise(seed=3, block=8)
        w = bn.window(5, 5, 10, 10)  # spans 2x2 blocks
        # consistency with single-sample windows
        for i in (0, 4, 9):
            for j in (0, 4, 9):
                assert bn.window(5 + i, 5 + j, 1, 1)[0, 0] == w[i, j]

    def test_negative_coordinates(self):
        bn = BlockNoise(seed=1, block=8)
        w = bn.window(-20, -20, 8, 8)
        assert w.shape == (8, 8)
        assert np.all(np.isfinite(w))

    def test_negative_positive_blocks_distinct(self):
        bn = BlockNoise(seed=1, block=8)
        a = bn.window(-8, 0, 8, 8)  # block (-1, 0)
        b = bn.window(8, 0, 8, 8)   # block (1, 0)
        assert not np.array_equal(a, b)

    def test_empty_window(self):
        bn = BlockNoise(seed=1)
        assert bn.window(0, 0, 0, 5).shape == (0, 5)

    def test_rejects_negative_extent(self):
        bn = BlockNoise(seed=1)
        with pytest.raises(ValueError):
            bn.window(0, 0, -1, 5)

    def test_marginals_are_standard_normal(self):
        bn = BlockNoise(seed=77, block=64)
        w = bn.window(0, 0, 256, 256)
        assert abs(w.mean()) < 0.02
        assert w.std() == pytest.approx(1.0, abs=0.02)

    def test_block_size_changes_values_but_not_statistics(self):
        # values are keyed by (seed, block, coords): different block size
        # gives a different (but equally valid) noise plane
        a = BlockNoise(seed=5, block=8).window(0, 0, 16, 16)
        b = BlockNoise(seed=5, block=16).window(0, 0, 16, 16)
        assert not np.array_equal(a, b)


def _reference_window(seed, block, x0, y0, nx, ny):
    """The window assembled from whole blocks, one draw per sample."""
    out = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            bx, ix = divmod(x0 + i, block)
            by, iy = divmod(y0 + j, block)
            out[i, j] = _full_block(seed, block, bx, by)[ix, iy]
    return out


_FULL_BLOCKS = {}


def _full_block(seed, block, bx, by):
    key = (seed, block, bx, by)
    if key not in _FULL_BLOCKS:
        _FULL_BLOCKS[key] = BlockNoise(seed, block)._block_values(bx, by)
    return _FULL_BLOCKS[key]


def _window_blocks(block, x0, y0, nx, ny):
    return {(bx, by)
            for bx in range(x0 // block, (x0 + nx - 1) // block + 1)
            for by in range(y0 // block, (y0 + ny - 1) // block + 1)}


_windows = st.tuples(
    st.integers(-40, 40), st.integers(-40, 40),
    st.integers(0, 48), st.integers(0, 48),
)


class TestBlockCache:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), block=st.integers(8, 32),
           windows=st.lists(_windows, min_size=1, max_size=6))
    # block (0, 0) is cached by a short window, then read by a taller one
    @example(seed=1, block=16, windows=[(0, 0, 3, 8), (0, 0, 16, 16)])
    def test_window_sequence_matches_fresh_planes(self, seed, block, windows):
        plane = BlockNoise(seed, block)
        for x0, y0, nx, ny in windows:
            got = plane.window(x0, y0, nx, ny)
            assert np.array_equal(got, BlockNoise(seed, block).window(
                x0, y0, nx, ny))
            assert np.array_equal(got, _reference_window(
                seed, block, x0, y0, nx, ny))

    def test_repeated_window_draws_each_block_once(self):
        plane = BlockNoise(seed=4, block=16)
        with obs.recording() as rec:
            plane.window(0, 0, 3, 16)
            plane.window(0, 0, 3, 16)
            tall = plane.window(0, 0, 16, 16)
        counters = rec.metrics.counters("rng.")
        assert counters == {"rng.blocks_drawn": 1, "rng.blocks_reused": 2}
        assert np.array_equal(tall, _reference_window(4, 16, 0, 0, 16, 16))

    def test_cached_blocks_are_read_only(self):
        plane = BlockNoise(seed=2, block=8)
        out = plane.window(-4, -4, 20, 20)
        assert out.flags.writeable
        assert plane._cache
        for vals in plane._cache.values():
            assert not vals.flags.writeable
            with pytest.raises(ValueError):
                vals[0, 0] = 0.0
        out[:] = 0.0  # the returned window is the caller's own copy
        assert np.array_equal(plane.window(-4, -4, 20, 20),
                              _reference_window(2, 8, -4, -4, 20, 20))

    def test_pickle_drops_the_cache(self):
        plane = BlockNoise(seed=12, block=8)
        before = plane.window(0, 0, 24, 24)
        clone = pickle.loads(pickle.dumps(plane))
        assert (clone.seed, clone.block) == (12, 8)
        assert not clone._cache
        assert np.array_equal(clone.window(0, 0, 24, 24), before)
        assert clone._cache and clone._lock is not plane._lock

    def test_threads_sharing_a_plane_match_a_serial_sweep(self):
        windows = [(x0 - 5, y0 - 5, 26, 26)
                   for x0 in range(0, 128, 16) for y0 in range(0, 128, 16)]
        serial = [BlockNoise(seed=8, block=8).window(*w) for w in windows]
        shared = BlockNoise(seed=8, block=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.recording() as rec, \
                    ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(3):
                    got = list(pool.map(lambda w: shared.window(*w),
                                        windows, timeout=60))
                    for a, b in zip(got, serial):
                        assert np.array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)
        counters = rec.metrics.counters("rng.")
        assert (counters["rng.blocks_drawn"] + counters["rng.blocks_reused"]
                == 3 * 16 * len(windows))
        # every window ends by trimming the cache to the 4x4 blocks of
        # each reading thread's latest window
        assert len(shared._cache) <= 16 * 8
        assert all(v.shape[1] == 8 and not v.flags.writeable
                   for v in shared._cache.values())

    def test_blocks_another_thread_read_are_kept(self):
        """Tiles finish out of order across threads: one thread reads
        tile 1, then the main thread reads tile 0 and tile 2.  Trimming to
        tile 0's window alone would evict the tile 1 blocks tile 2
        needs; each block is drawn once instead."""
        block = 16
        windows = [(-8, y0 - 8, 48, 48) for y0 in (0, 32, 64)]
        plane = BlockNoise(seed=3, block=block)
        with obs.recording() as rec:
            other = threading.Thread(target=plane.window, args=windows[1])
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
            plane.window(*windows[0])
            plane.window(*windows[2])
        distinct = set().union(*(_window_blocks(block, *w)
                                 for w in windows))
        assert rec.metrics.counters("rng.")["rng.blocks_drawn"] == \
            len(distinct)

    def test_row_major_sweep_draws_one_window_cache_count(self):
        from repro.parallel.tiles import TilePlan

        block, halo = 16, 8
        plan = TilePlan(total_nx=128, total_ny=96, tile_nx=32, tile_ny=32)
        windows = [(t.x0 - halo, t.y0 - halo, t.nx + 2 * halo,
                    t.ny + 2 * halo) for t in plan]
        predicted, previous = 0, set()
        for w in windows:
            keys = _window_blocks(block, *w)
            predicted += len(keys - previous)
            previous = keys
        plane = BlockNoise(seed=3, block=block)
        with obs.recording() as rec:
            for w in windows:
                plane.window(*w)
        counters = rec.metrics.counters("rng.")
        requested = sum(len(_window_blocks(block, *w)) for w in windows)
        assert counters["rng.blocks_drawn"] == predicted
        assert counters["rng.blocks_reused"] == requested - predicted
        assert predicted < requested
        assert rec.span_stats()["rng.noise"]["count"] == len(windows)
