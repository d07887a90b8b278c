"""Tests for the batched multi-region valid-correlation engine.

Covers ``apply_kernels_valid`` (one forward FFT per noise block shared
by every region's kernel), the ``WeightMap.support`` active-set query,
the pruning bit-transparency contract (skipping a zero-weight region
never changes the surviving outputs), and the provenance the tiled
executor aggregates from it.
"""

import numpy as np
import pytest

from repro.core.convolution import (
    apply_kernel_valid_spatial,
    apply_kernels_valid,
    batched_noise_window_for,
    noise_window_for,
    resolve_kernel,
)
from repro.core.engine import BatchStats, common_margins
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import (
    InhomogeneousGenerator,
    blend_fields,
    blend_reference,
    kernel_stack,
)
from repro.core.rng import BlockNoise, standard_normal_field
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.continuous import ContinuousGenerator
from repro.fields.parameter_map import LayeredLayout, RegionSpec, WeightMap
from repro.fields.regions import Circle
from repro.parallel.executor import generate_tiled
from repro.parallel.tiles import TilePlan
from tests.test_convolution import _reference_apply_kernel_valid_fft


@pytest.fixture
def grid():
    return Grid2D(nx=48, ny=48, lx=48.0, ly=48.0)


@pytest.fixture
def kernels(grid):
    """Three kernels with deliberately different supports/centres."""
    return [
        resolve_kernel(GaussianSpectrum(h=1.0, clx=4.0, cly=4.0), grid, (5, 5)),
        resolve_kernel(ExponentialSpectrum(h=0.7, clx=3.0, cly=3.0), grid,
                       (7, 4)),
        resolve_kernel(GaussianSpectrum(h=2.0, clx=6.0, cly=2.0), grid,
                       (3, 6)),
    ]


def _per_kernel_expected(kernels, noise, margins=None):
    """Per-kernel spatial correlations on each kernel's own sub-window."""
    lx, rx, ly, ry = (common_margins(kernels) if margins is None
                      else margins)
    onx = noise.shape[0] - (lx + rx)
    ony = noise.shape[1] - (ly + ry)
    out = []
    for k in kernels:
        ox, oy = lx - k.cx, ly - k.cy
        sub = noise[ox : ox + onx + k.shape[0] - 1,
                    oy : oy + ony + k.shape[1] - 1]
        out.append(apply_kernel_valid_spatial(k, sub))
    return out


class TestCommonMargins:
    def test_dominates_every_kernel(self, kernels):
        lx, rx, ly, ry = common_margins(kernels)
        for k in kernels:
            assert k.cx <= lx and k.shape[0] - 1 - k.cx <= rx
            assert k.cy <= ly and k.shape[1] - 1 - k.cy <= ry
        # tight: each margin is achieved by some kernel
        assert lx == max(k.cx for k in kernels)
        assert ry == max(k.shape[1] - 1 - k.cy for k in kernels)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            common_margins([])


class TestBatchedWindow:
    def test_union_of_per_kernel_windows(self, kernels):
        wx0, wy0, wnx, wny = batched_noise_window_for(kernels, 3, -2, 10, 12)
        singles = [noise_window_for(k, 3, -2, 10, 12) for k in kernels]
        assert wx0 == min(s[0] for s in singles)
        assert wy0 == min(s[1] for s in singles)
        assert wx0 + wnx == max(s[0] + s[2] for s in singles)
        assert wy0 + wny == max(s[1] + s[3] for s in singles)

    def test_margins_override(self, kernels):
        margins = tuple(m + 2 for m in common_margins(kernels))
        wx0, wy0, wnx, wny = batched_noise_window_for(
            kernels, 0, 0, 8, 8, margins=margins
        )
        assert (wx0, wy0) == (-margins[0], -margins[2])
        assert (wnx, wny) == (8 + margins[0] + margins[1],
                              8 + margins[2] + margins[3])


class TestApplyKernelsValid:
    def test_spatial_matches_per_kernel_exactly(self, kernels):
        noise = standard_normal_field((40, 44), seed=11)
        got = apply_kernels_valid(kernels, noise, engine="spatial")
        for g, e in zip(got, _per_kernel_expected(kernels, noise)):
            assert np.array_equal(g, e)

    def test_fft_matches_spatial(self, kernels):
        noise = standard_normal_field((40, 44), seed=12)
        fft = apply_kernels_valid(kernels, noise, engine="fft")
        spatial = apply_kernels_valid(kernels, noise, engine="spatial")
        for a, b in zip(fft, spatial):
            assert np.allclose(a, b, atol=1e-12)

    def test_single_kernel_bit_identical_to_fft_path(self, kernels):
        k = kernels[0]
        noise = standard_normal_field((36, 36), seed=13)
        batched = apply_kernels_valid([k], noise, engine="fft")[0]
        assert np.array_equal(batched,
                              _reference_apply_kernel_valid_fft(k, noise))

    def test_empty_batch(self):
        assert apply_kernels_valid([], np.zeros((8, 8))) == []

    def test_active_mask_prunes_to_none(self, kernels):
        noise = standard_normal_field((40, 40), seed=14)
        full = apply_kernels_valid(kernels, noise, engine="fft")
        pruned = apply_kernels_valid(
            kernels, noise, active=np.array([True, False, True]), engine="fft"
        )
        assert pruned[1] is None
        # bit-transparent: surviving outputs identical to the unpruned run
        assert np.array_equal(pruned[0], full[0])
        assert np.array_equal(pruned[2], full[2])

    def test_active_index_sequence(self, kernels):
        noise = standard_normal_field((40, 40), seed=14)
        by_mask = apply_kernels_valid(
            kernels, noise, active=np.array([False, True, False])
        )
        by_index = apply_kernels_valid(kernels, noise, active=[1])
        assert by_mask[0] is None and by_index[0] is None
        assert np.array_equal(by_mask[1], by_index[1])
        by_numpy = apply_kernels_valid(kernels, noise, active=np.array([1]))
        assert np.array_equal(by_numpy[1], by_index[1])

    def test_stats_counters_single_block(self, kernels):
        noise = standard_normal_field((40, 40), seed=15)
        stats = BatchStats()
        apply_kernels_valid(kernels, noise, active=[0, 2], engine="fft",
                            stats=stats)
        assert stats.kernels_active == 2
        assert stats.kernels_skipped == 1
        assert stats.blocks == stats.forward_ffts
        # one inverse per active kernel per block — never one per pair
        assert stats.inverse_ffts == 2 * stats.blocks

    def test_bad_mask_shape_rejected(self, kernels):
        with pytest.raises(ValueError, match="active mask shape"):
            apply_kernels_valid(
                kernels, np.zeros((40, 40)), active=np.array([True, False])
            )

    @pytest.mark.parametrize("active, bad", [
        ([-1], "-1"),    # would wrap round to the last kernel
        ([0.9], "0.9"),  # would truncate to kernel 0
        ([3], "3"),      # past the end of a batch of 3
        ([0, 2, 7], "7"),
    ])
    def test_bad_active_index_rejected(self, kernels, active, bad):
        with pytest.raises(ValueError,
                           match=rf"active entry {bad} is not a kernel index"):
            apply_kernels_valid(kernels, np.zeros((40, 40)), active=active)

    def test_margins_too_small_rejected(self, kernels):
        with pytest.raises(ValueError, match="margins"):
            apply_kernels_valid(
                kernels, np.zeros((40, 40)), margins=(1, 1, 1, 1)
            )

    def test_noise_smaller_than_footprint_rejected(self, kernels):
        lx, rx, ly, ry = common_margins(kernels)
        with pytest.raises(ValueError):
            apply_kernels_valid(kernels, np.zeros((lx + rx, ly + ry + 4)))

    def test_wider_margins_shift_not_change_values(self, kernels):
        base = common_margins(kernels)
        wide = (base[0] + 3, base[1] + 1, base[2] + 2, base[3] + 4)
        noise = standard_normal_field((46, 46), seed=16)
        inner = noise[3 : 46 - 1, 2 : 46 - 4]
        got_wide = apply_kernels_valid(kernels, noise, margins=wide,
                                       engine="spatial")
        got_base = apply_kernels_valid(kernels, inner, margins=base,
                                       engine="spatial")
        for a, b in zip(got_wide, got_base):
            assert np.array_equal(a, b)


class TestWeightMapSupport:
    def _wm(self):
        w = np.zeros((3, 6, 6))
        w[0] = 1.0
        w[1, :2, :2] = 0.5
        w[0, :2, :2] = 0.5
        return WeightMap(
            spectra=[GaussianSpectrum(h=1.0, clx=2.0, cly=2.0)] * 3,
            weights=w,
        )

    def test_full_map_support(self):
        assert self._wm().support().tolist() == [True, True, False]

    def test_bbox_window(self):
        wm = self._wm()
        assert wm.support(bbox=(3, 3, 3, 3)).tolist() == [True, False, False]
        assert wm.active_set(bbox=(0, 0, 2, 2)).tolist() == [0, 1]

    def test_bad_bbox_rejected(self):
        with pytest.raises(ValueError):
            self._wm().support(bbox=(4, 4, 4, 4))


@pytest.fixture
def patch_layout():
    """Background + one localised patch: windows far from the circle see
    only the background region."""
    return LayeredLayout(
        background=GaussianSpectrum(h=1.0, clx=3.0, cly=3.0),
        patches=[RegionSpec(Circle(cx=8.0, cy=8.0, radius=4.0),
                            ExponentialSpectrum(h=2.0, clx=2.0, cly=2.0),
                            half_width=2.0)],
    )


def _unpruned_window(gen, noise, x0, y0, nx, ny):
    """Every region convolved (no active set), blended like the
    generator: the reference that pruning must reproduce bit for bit."""
    wm = gen.layout.weight_map(gen.grid.with_shape(nx, ny),
                               origin=(x0 * gen.grid.dx, y0 * gen.grid.dy))
    kernels = [gen._kernel_for(s) for s in wm.spectra]
    fields = apply_kernels_valid(
        kernels, noise.window(*gen.noise_window(x0, y0, nx, ny)),
        active=None, engine=gen.engine, margins=common_margins(kernels),
    )
    return blend_fields(wm.weights, fields)


class TestGeneratorPruning:
    def test_windows_bit_identical_with_and_without_pruning(
        self, patch_layout, grid
    ):
        gen = InhomogeneousGenerator(patch_layout, grid, truncation=(5, 5),
                                     engine="fft")
        noise = BlockNoise(seed=5)
        skipped = 0
        for (x0, y0) in [(0, 0), (16, 16), (32, 0), (-8, 40)]:
            a = gen.generate_window(noise, x0, y0, 16, 16)
            b = _unpruned_window(gen, noise, x0, y0, 16, 16)
            assert np.array_equal(a.heights, b)
            skipped += a.provenance["regions_skipped"]
        assert skipped > 0

    def test_far_window_convolves_exactly_one_kernel(self, patch_layout, grid):
        gen = InhomogeneousGenerator(patch_layout, grid, truncation=(5, 5))
        noise = BlockNoise(seed=5)
        # patch reach = radius + half_width = 6; window [32, 48)^2 is
        # far outside every transition band
        far = gen.generate_window(noise, 32, 32, 16, 16)
        assert far.provenance["regions_active"] == 1
        assert far.provenance["regions_skipped"] == 1
        near = gen.generate_window(noise, 4, 4, 16, 16)
        assert near.provenance["regions_active"] == 2
        assert near.provenance["regions_skipped"] == 0

    def test_full_grid_skips_region_with_no_support(self, grid):
        # the patch lies entirely outside the construction grid, so its
        # weight field is identically zero: prune must skip it and still
        # reproduce the unpruned surface bit-for-bit
        layout = LayeredLayout(
            background=GaussianSpectrum(h=1.0, clx=3.0, cly=3.0),
            patches=[RegionSpec(Circle(cx=100.0, cy=100.0, radius=4.0),
                                ExponentialSpectrum(h=2.0, clx=2.0, cly=2.0),
                                half_width=2.0)],
        )
        x = standard_normal_field(grid.shape, seed=9)
        gen = InhomogeneousGenerator(layout, grid, truncation=(5, 5))
        pruned = gen.generate(noise=x)
        margins = common_margins(gen.kernels)
        lx, rx, ly, ry = margins
        padded = np.pad(x, ((lx, rx), (ly, ry)), mode="wrap")
        unpruned = blend_fields(gen.weight_map.weights, apply_kernels_valid(
            gen.kernels, padded, active=None, margins=margins,
        ))
        assert pruned.provenance["regions_skipped"] == 1
        assert np.array_equal(pruned.heights, unpruned)

    def test_pruned_blend_matches_literal_reference(self):
        # subset-seeing layout: the reference evaluates eqn (37)
        # per-point over the full stack; the pruned fast path must agree
        grid = Grid2D(nx=24, ny=24, lx=24.0, ly=24.0)
        layout = LayeredLayout(
            background=GaussianSpectrum(h=1.0, clx=3.0, cly=3.0),
            patches=[RegionSpec(Circle(cx=60.0, cy=60.0, radius=3.0),
                                ExponentialSpectrum(h=2.0, clx=2.0, cly=2.0),
                                half_width=1.0)],
        )
        gen = InhomogeneousGenerator(layout, grid, truncation=(4, 4))
        x = standard_normal_field(grid.shape, seed=21)
        fast = gen.generate(noise=x)
        assert fast.provenance["regions_skipped"] == 1
        wm = gen.weight_map
        ref = blend_reference(wm, kernel_stack(wm.spectra, grid, 4, 4), x)
        assert np.allclose(fast.heights, ref, atol=1e-10)


class TestTiledProvenance:
    def test_serial_aggregates_region_counts(self, patch_layout, grid):
        gen = InhomogeneousGenerator(patch_layout, grid, truncation=(5, 5))
        plan = TilePlan(total_nx=48, total_ny=48, tile_nx=16, tile_ny=16)
        surf = generate_tiled(gen, BlockNoise(seed=7), plan, backend="serial")
        regions = surf.provenance["regions"]
        assert regions["min_active"] == 1
        assert regions["max_active"] == 2
        assert regions["single_kernel_tiles"] > 0
        assert (regions["active_total"] + regions["skipped_total"]
                == 2 * len(plan))
        batch = surf.provenance["batch_fft"]
        assert batch["forward_ffts"] >= len(plan)
        assert batch["inverse_ffts"] == regions["active_total"] * (
            batch["forward_ffts"] // len(plan)
        )

    def test_process_backend_identical_and_reports_cache(
        self, patch_layout, grid
    ):
        gen = InhomogeneousGenerator(patch_layout, grid, truncation=(5, 5))
        noise = BlockNoise(seed=7)
        plan = TilePlan(total_nx=48, total_ny=48, tile_nx=24, tile_ny=24)
        serial = generate_tiled(gen, noise, plan, backend="serial")
        proc = generate_tiled(gen, noise, plan, backend="process", workers=2)
        assert np.array_equal(serial.heights, proc.heights)
        assert set(proc.provenance["plan_cache"]) == {"hits", "misses"}
        assert proc.provenance["regions"] == serial.provenance["regions"]
        assert proc.provenance["batch_fft"] == serial.provenance["batch_fft"]


class TestContinuousLevelPruning:
    def test_level_pruning_bit_identical(self):
        grid = Grid2D(nx=32, ny=32, lx=32.0, ly=32.0)
        kwargs = dict(
            family=lambda cl: GaussianSpectrum(h=1.0, clx=cl, cly=cl),
            h_field=lambda x, y: 1.0 + 0.0 * x,
            # cl constant over most of the grid: upper levels unused
            cl_field=lambda x, y: 2.0 + 4.0 * (x > 28.0),
            grid=grid,
            levels=[2.0, 4.0, 6.0],
            truncation=(4, 4),
        )
        gen = ContinuousGenerator(**kwargs)
        margins = common_margins(gen._kernels)

        def unpruned(noise, gx, gy):
            # every level convolved (no active set), blended like the
            # generator: the reference pruning must reproduce bit for bit
            lower, upper, w_lo, w_hi, h_vals, _used = gen._level_mix(gx, gy)
            fields = apply_kernels_valid(gen._kernels, noise, active=None,
                                         margins=margins)
            return gen._blend_levels(fields, lower, upper, w_lo, w_hi,
                                     h_vals)

        noise = BlockNoise(seed=3)
        a = gen.generate_window(noise, 0, 0, 16, 16)
        gx, gy = grid.with_shape(16, 16).meshgrid()
        b = unpruned(noise.window(*gen.noise_window(0, 0, 16, 16)), gx, gy)
        assert np.array_equal(a.heights, b)
        assert a.provenance["levels_skipped"] > 0
        x = standard_normal_field(grid.shape, seed=4)
        fa = gen.generate(noise=x)
        lx, rx, ly, ry = margins
        padded = np.pad(x, ((lx, rx), (ly, ry)), mode="wrap")
        fb = unpruned(padded, *grid.meshgrid())
        assert fa.provenance["levels_skipped"] > 0
        assert np.array_equal(fa.heights, fb)
