"""Tests for tile plans, execution backends, and streaming strips."""

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.api import split_result
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import InhomogeneousGenerator
from repro.core.rng import BlockNoise
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.parameter_map import PlateLattice
from repro.parallel.executor import default_workers, generate_tiled
from repro.parallel.streaming import StripStream, assemble_strips, stream_strips
from repro.parallel.tiles import Tile, TilePlan, strip_plan


@pytest.fixture
def gen():
    grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
    return ConvolutionGenerator(
        GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), grid, truncation=(8, 8)
    )


@pytest.fixture
def inhom_gen():
    grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
    lat = PlateLattice.quadrants(
        256.0, 256.0,
        GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
        ExponentialSpectrum(h=1.5, clx=12.0, cly=12.0),
        GaussianSpectrum(h=1.0, clx=20.0, cly=20.0),
        GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
        half_width=16.0,
    )
    return InhomogeneousGenerator(lat, grid, truncation=(8, 8))


class TestTilePlan:
    def test_tiles_partition_output(self):
        plan = TilePlan(total_nx=100, total_ny=70, tile_nx=32, tile_ny=33)
        cover = np.zeros((100, 70), dtype=int)
        for t in plan:
            cover[t.x0 : t.x1, t.y0 : t.y1] += 1
        assert np.all(cover == 1)

    def test_len_and_counts(self):
        plan = TilePlan(total_nx=100, total_ny=70, tile_nx=32, tile_ny=33)
        assert plan.n_tiles == (4, 3)
        assert len(plan) == 12

    def test_origin_offsets(self):
        plan = TilePlan(total_nx=10, total_ny=10, tile_nx=10, tile_ny=10,
                        origin_x=-5, origin_y=7)
        (t,) = plan.tiles()
        assert (t.x0, t.y0) == (-5, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            TilePlan(total_nx=0, total_ny=10, tile_nx=4, tile_ny=4)
        with pytest.raises(ValueError):
            TilePlan(total_nx=10, total_ny=10, tile_nx=0, tile_ny=4)
        with pytest.raises(ValueError):
            Tile(x0=0, y0=0, nx=0, ny=5)

    def test_halo_overhead_decreases_with_tile_size(self):
        small = TilePlan(total_nx=128, total_ny=128, tile_nx=16, tile_ny=16)
        large = TilePlan(total_nx=128, total_ny=128, tile_nx=64, tile_ny=64)
        k = (17, 17)
        assert small.halo_overhead(k) > large.halo_overhead(k)

    def test_halo_samples_accounting(self):
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
        read, output = plan.halo_samples((9, 9))
        assert output == 64 * 64
        assert read == 4 * (32 + 8) * (32 + 8)
        assert plan.halo_overhead((9, 9)) == pytest.approx(read / output - 1.0)
        # a 1x1 kernel has no halo at all
        assert plan.halo_overhead((1, 1)) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            plan.halo_samples((0, 9))


class TestBackends:
    def test_serial_thread_process_identical(self, gen):
        bn = BlockNoise(seed=2, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        s = generate_tiled(gen, bn, plan, backend="serial")
        t = generate_tiled(gen, bn, plan, backend="thread", workers=3)
        assert np.array_equal(s.heights, t.heights)
        p = generate_tiled(gen, bn, plan, backend="process", workers=2)
        assert np.array_equal(s.heights, p.heights)
        # one provenance rule for every backend: a clean run reports an
        # idle resilience record, and one plan-cache lookup per tile —
        # the parent's delta plus the process workers' own
        for surface in (s, t, p):
            assert surface.provenance["resilience"] == {
                "retries": 0, "respawns": 0, "degraded_to": None,
                "tiles_skipped": 0,
            }
            cache = surface.provenance["plan_cache"]
            assert cache["hits"] + cache["misses"] == len(plan)

    def test_different_plans_agree_to_rounding(self, gen):
        bn = BlockNoise(seed=3, block=32)
        a = generate_tiled(
            gen, bn, TilePlan(total_nx=64, total_ny=64, tile_nx=64, tile_ny=64)
        )
        b = generate_tiled(
            gen, bn, TilePlan(total_nx=64, total_ny=64, tile_nx=17, tile_ny=23)
        )
        assert np.allclose(a.heights, b.heights, atol=1e-10)

    def test_inhomogeneous_tiled_matches_window(self, inhom_gen):
        bn = BlockNoise(seed=5, block=40)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=24, tile_ny=40)
        tiled = generate_tiled(inhom_gen, bn, plan, backend="serial")
        oneshot = inhom_gen.generate_window(bn, 0, 0, 64, 64)
        assert np.allclose(tiled.heights, oneshot.heights, atol=1e-10)

    def test_unknown_backend_rejected(self, gen):
        plan = TilePlan(total_nx=8, total_ny=8, tile_nx=8, tile_ny=8)
        with pytest.raises(ValueError):
            generate_tiled(gen, BlockNoise(seed=1), plan, backend="mpi")

    def test_negative_origin_plan(self, gen):
        bn = BlockNoise(seed=7)
        plan = TilePlan(total_nx=32, total_ny=32, tile_nx=16, tile_ny=16,
                        origin_x=-16, origin_y=-16)
        s = generate_tiled(gen, bn, plan)
        assert s.shape == (32, 32)
        assert s.origin == (-16 * gen.grid.dx, -16 * gen.grid.dy)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestBackendsFftEngine:
    """Satellite: backend determinism must survive the FFT engine."""

    @pytest.fixture
    def fft_gen(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        return ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), grid,
            truncation=(8, 8), engine="fft",
        )

    def test_serial_thread_process_identical_fft(self, fft_gen):
        bn = BlockNoise(seed=2, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        s = generate_tiled(fft_gen, bn, plan, backend="serial")
        t = generate_tiled(fft_gen, bn, plan, backend="thread", workers=3)
        assert np.array_equal(s.heights, t.heights)
        p = generate_tiled(fft_gen, bn, plan, backend="process", workers=2)
        assert np.array_equal(s.heights, p.heights)

    def test_fft_tiles_match_spatial_tiles(self, fft_gen):
        spatial_gen = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), fft_gen.grid,
            truncation=(8, 8), engine="spatial",
        )
        bn = BlockNoise(seed=6, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        fft = generate_tiled(fft_gen, bn, plan, backend="serial")
        spatial = generate_tiled(spatial_gen, bn, plan, backend="serial")
        assert np.max(np.abs(fft.heights - spatial.heights)) <= 1e-10

    def test_provenance_reports_engine_and_halo(self, fft_gen):
        bn = BlockNoise(seed=8)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
        s = generate_tiled(fft_gen, bn, plan, backend="serial")
        assert s.provenance["engine"] == "fft"
        assert s.provenance["halo_overhead"] == pytest.approx(
            plan.halo_overhead(fft_gen.footprint)
        )
        # every tile shares one kernel and one block shape: tiles - 1 hits
        # at most one miss (another test may have warmed the shared cache)
        pc = s.provenance["plan_cache"]
        assert pc["hits"] + pc["misses"] == len(plan)
        assert pc["misses"] <= 1

    def test_inhomogeneous_tiled_fft_matches_spatial(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        lat = PlateLattice.quadrants(
            256.0, 256.0,
            GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
            ExponentialSpectrum(h=1.5, clx=12.0, cly=12.0),
            GaussianSpectrum(h=1.0, clx=20.0, cly=20.0),
            GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
            half_width=16.0,
        )
        bn = BlockNoise(seed=5, block=40)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=24, tile_ny=40)
        outs = {}
        for engine in ("spatial", "fft"):
            g = InhomogeneousGenerator(lat, grid, truncation=(8, 8),
                                       engine=engine)
            outs[engine] = generate_tiled(g, bn, plan, backend="serial")
        assert np.max(
            np.abs(outs["fft"].heights - outs["spatial"].heights)
        ) <= 1e-10

    def test_streaming_fft_engine(self, fft_gen):
        from repro.parallel.streaming import assemble_strips, stream_strips

        bn = BlockNoise(seed=11)
        strips = list(
            stream_strips(fft_gen, bn, total_nx=60, width_ny=24, strip_nx=17)
        )
        assert all(s.provenance["engine"] == "fft" for s in strips)
        asm = assemble_strips(iter(strips))
        oneshot = fft_gen.generate_window(bn, 0, 0, 60, 24)
        assert np.allclose(asm.heights, oneshot, atol=1e-10)


class TestStreaming:
    def test_strip_stream_iterates(self, gen):
        bn = BlockNoise(seed=9)
        stream = StripStream(gen, bn, width_ny=32, strip_nx=16, n_strips=3)
        strips = list(stream)
        assert len(strips) == 3
        assert stream.emitted == 3
        assert strips[0].shape == (16, 32)
        # consecutive origins advance by strip_nx * dx
        assert strips[1].origin[0] == pytest.approx(16 * gen.grid.dx)

    def test_endless_stream_interface(self, gen):
        bn = BlockNoise(seed=9)
        stream = StripStream(gen, bn, width_ny=16, strip_nx=8)
        out = [next(stream) for _ in range(4)]
        assert len(out) == 4

    def test_stream_strips_clips_last(self, gen):
        bn = BlockNoise(seed=10)
        strips = list(stream_strips(gen, bn, total_nx=50, width_ny=16, strip_nx=20))
        assert [s.shape[0] for s in strips] == [20, 20, 10]

    def test_assembled_equals_oneshot(self, gen):
        bn = BlockNoise(seed=11)
        asm = assemble_strips(
            stream_strips(gen, bn, total_nx=60, width_ny=24, strip_nx=17)
        )
        oneshot = gen.generate_window(bn, 0, 0, 60, 24)
        assert np.allclose(asm.heights, oneshot, atol=1e-10)

    def test_assemble_rejects_gap(self, gen):
        bn = BlockNoise(seed=12)
        s1 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, n_strips=1))
        s3 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, x0=16, n_strips=1))
        with pytest.raises(ValueError, match="contiguous"):
            assemble_strips(iter([s1, s3]))

    def test_assemble_rejects_mismatched_width(self, gen):
        bn = BlockNoise(seed=12)
        s1 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, n_strips=1))
        s2 = next(StripStream(gen, bn, width_ny=16, strip_nx=8, x0=8, n_strips=1))
        with pytest.raises(ValueError, match="y window"):
            assemble_strips(iter([s1, s2]))

    def test_assemble_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_strips(iter([]))

    def test_validation(self, gen):
        with pytest.raises(ValueError):
            StripStream(gen, BlockNoise(seed=1), width_ny=0, strip_nx=4)
        with pytest.raises(ValueError):
            list(stream_strips(gen, BlockNoise(seed=1), total_nx=0,
                               width_ny=4, strip_nx=4))

    def test_inhomogeneous_streaming(self, inhom_gen):
        bn = BlockNoise(seed=13)
        asm = assemble_strips(
            stream_strips(inhom_gen, bn, total_nx=64, width_ny=64, strip_nx=20)
        )
        oneshot = inhom_gen.generate_window(bn, 0, 0, 64, 64)
        assert np.allclose(asm.heights, oneshot.heights, atol=1e-10)


def _prefetch_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-noise-prefetch")]


def _tilewise_reference(generator, seed, block, plan):
    """Every tile generated alone, by a fresh plane, one-shot."""
    out = np.empty((plan.total_nx, plan.total_ny))
    for t in plan:
        noise = BlockNoise(seed=seed, block=block)
        out[t.x0 - plan.origin_x : t.x1 - plan.origin_x,
            t.y0 - plan.origin_y : t.y1 - plan.origin_y] = split_result(
            generator.generate_window(noise, t.x0, t.y0, t.nx, t.ny))[0]
    return out


class _Paced:
    """A generator that starts a tile only once ``ready(noise, tile_no)``
    holds, so the prefetch helper's part of a run is deterministic."""

    def __init__(self, inner, ready):
        self.inner = inner
        self.ready = ready
        self.grid = inner.grid
        self.tiles_started = 0

    def noise_window(self, x0, y0, nx, ny):
        return self.inner.noise_window(x0, y0, nx, ny)

    def generate_window(self, noise, x0, y0, nx, ny):
        deadline = time.monotonic() + 60
        while not self.ready(noise, self.tiles_started):
            assert time.monotonic() < deadline, "prefetch never ran"
            time.sleep(0.001)
        self.tiles_started += 1
        return self.inner.generate_window(noise, x0, y0, nx, ny)


def _blocks_of(b, window):
    x0, y0, nx, ny = window
    return {(bx, by) for bx in range(x0 // b, (x0 + nx - 1) // b + 1)
            for by in range(y0 // b, (y0 + ny - 1) // b + 1)}


class TestNoisePrefetch:
    """The serial loop prefetches the next tile's noise blocks on a
    helper thread; no byte may change, and no helper may outlive a run."""

    # ragged: 100 = 2*40 + 20, 70 = 2*30 + 10
    PLAN = TilePlan(total_nx=100, total_ny=70, tile_nx=40, tile_ny=30,
                    origin_x=-13, origin_y=5)

    @pytest.mark.parametrize("which", ["gen", "inhom_gen"])
    def test_serial_matches_thread_and_one_shot_tiles(self, which, request):
        generator = request.getfixturevalue(which)
        serial = generate_tiled(generator, BlockNoise(seed=6, block=16),
                                self.PLAN, backend="serial")
        thread = generate_tiled(generator, BlockNoise(seed=6, block=16),
                                self.PLAN, backend="thread", workers=2)
        ref = _tilewise_reference(generator, 6, 16, self.PLAN)
        assert serial.heights.tobytes() == thread.heights.tobytes()
        assert serial.heights.tobytes() == ref.tobytes()
        assert not _prefetch_threads()

    @pytest.mark.parametrize("which", ["gen", "inhom_gen"])
    def test_helper_draws_each_next_tile_ahead(self, which, request):
        generator = request.getfixturevalue(which)
        windows = [generator.noise_window(t.x0, t.y0, t.nx, t.ny)
                   for t in self.PLAN]

        def prefetched(noise, i):
            with noise._lock:
                return i == 0 or _blocks_of(16, windows[i]) <= set(
                    noise._cache)

        paced = _Paced(generator, prefetched)
        with obs.recording() as rec:
            got = generate_tiled(paced, BlockNoise(seed=6, block=16),
                                 self.PLAN, backend="serial")
        assert rec.span_stats()["rng.prefetch"]["count"] == len(self.PLAN) - 1
        counters = rec.metrics.counters("rng.")
        first = len(_blocks_of(16, windows[0]))
        # the tiles themselves draw at most the first tile's blocks
        assert (counters["rng.blocks_drawn"]
                - counters["rng.blocks_prefetched"]) <= first
        ref = _tilewise_reference(generator, 6, 16, self.PLAN)
        assert got.heights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("which", ["gen", "inhom_gen"])
    def test_resumed_run_with_skip_matches(self, which, request):
        generator = request.getfixturevalue(which)
        full = generate_tiled(generator, BlockNoise(seed=8, block=16),
                              self.PLAN, backend="thread", workers=2)
        skip = [0, 3, 4]
        out = np.full((self.PLAN.total_nx, self.PLAN.total_ny), np.nan)
        for idx in skip:
            t = self.PLAN.tiles()[idx]
            ix, iy = t.x0 - self.PLAN.origin_x, t.y0 - self.PLAN.origin_y
            out[ix : ix + t.nx, iy : iy + t.ny] = \
                full.heights[ix : ix + t.nx, iy : iy + t.ny]
        resumed = generate_tiled(generator, BlockNoise(seed=8, block=16),
                                 self.PLAN, backend="serial", out=out,
                                 skip=skip)
        assert resumed.heights.tobytes() == full.heights.tobytes()
        assert not _prefetch_threads()

    def test_failed_prefetch_draw_changes_nothing(self, gen, monkeypatch):
        failed = []
        draw = BlockNoise._block_values

        def flaky(self, bx, by):
            if (threading.current_thread().name.startswith(
                    "repro-noise-prefetch") and not failed):
                failed.append((bx, by))
                raise RuntimeError("injected prefetch failure")
            return draw(self, bx, by)

        monkeypatch.setattr(BlockNoise, "_block_values", flaky)
        # the first tile waits for the helper's failed draw
        paced = _Paced(gen, lambda noise, i: bool(failed))
        got = generate_tiled(paced, BlockNoise(seed=4, block=16), self.PLAN,
                             backend="serial")
        monkeypatch.undo()
        assert failed
        ref = generate_tiled(gen, BlockNoise(seed=4, block=16), self.PLAN,
                             backend="thread", workers=2)
        assert got.heights.tobytes() == ref.heights.tobytes()
        assert not _prefetch_threads()

    def test_fault_plan_retry_is_byte_identical(self, gen):
        from repro.jobs import FaultPlan, FaultSpec, RetryPolicy

        ref = generate_tiled(gen, BlockNoise(seed=9, block=16), self.PLAN)
        got = generate_tiled(
            gen, BlockNoise(seed=9, block=16), self.PLAN, backend="serial",
            retry=RetryPolicy(backoff_base=0.0),
            fault_plan=FaultPlan.of(FaultSpec(tile=2), FaultSpec(tile=5)),
        )
        assert got.provenance["resilience"]["retries"] == 2
        assert got.heights.tobytes() == ref.heights.tobytes()
        assert not _prefetch_threads()

    def test_no_helper_outlives_a_failed_run(self, gen):
        from repro.jobs import FaultPlan, FaultSpec, RetryPolicy
        from repro.parallel.executor import TileFailedError

        with pytest.raises(TileFailedError):
            generate_tiled(
                gen, BlockNoise(seed=9, block=16), self.PLAN,
                retry=RetryPolicy(max_attempts=1, backoff_base=0.0),
                fault_plan=FaultPlan.of(FaultSpec(tile=3)),
            )
        assert not _prefetch_threads()

    def test_generator_without_noise_window_gets_no_helper(self, gen):
        class Opaque:
            grid = gen.grid

            def generate_window(self, noise, x0, y0, nx, ny):
                assert not _prefetch_threads()
                return gen.generate_window(noise, x0, y0, nx, ny)

        with obs.recording() as rec:
            got = generate_tiled(Opaque(), BlockNoise(seed=2, block=16),
                                 self.PLAN)
        assert "rng.prefetch" not in rec.span_stats()
        ref = generate_tiled(gen, BlockNoise(seed=2, block=16), self.PLAN)
        assert got.heights.tobytes() == ref.heights.tobytes()


class _FailsAt:
    """Delegates to ``inner``, but the tile at ``at`` raises
    ``ValueError`` (``kill``: ends its process) after logging the attempt
    to the file ``log``, which process workers share with the test."""

    def __init__(self, inner, at, log, kill=False):
        self.inner = inner
        self.grid = inner.grid
        self.at = at
        self.log = str(log)
        self.kill = kill

    def noise_window(self, x0, y0, nx, ny):
        return self.inner.noise_window(x0, y0, nx, ny)

    def generate_window(self, noise, x0, y0, nx, ny):
        if (x0, y0) == self.at:
            with open(self.log, "a") as fh:
                fh.write("attempt\n")
            if self.kill:
                os._exit(17)
            raise ValueError(f"tile at {self.at} refuses")
        return self.inner.generate_window(noise, x0, y0, nx, ny)


class TestNoPolicy:
    """With no resilience keyword the scheduler has no retry policy: the
    first failure ends the run with the tile's own exception."""

    PLAN = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_failing_tile_raises_its_own_error_once(
            self, gen, backend, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        log = tmp_path / "attempts"
        with pytest.raises(ValueError, match="refuses"):
            generate_tiled(_FailsAt(gen, (32, 0), log), BlockNoise(seed=3),
                           self.PLAN, backend=backend, workers=2)
        assert log.read_text().splitlines() == ["attempt"]
        assert sleeps == []
        assert not _prefetch_threads()

    def test_dead_worker_raises_broken_process_pool(self, gen, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        log = tmp_path / "attempts"
        with pytest.raises(BrokenProcessPool):
            generate_tiled(_FailsAt(gen, (0, 32), log, kill=True),
                           BlockNoise(seed=3), self.PLAN,
                           backend="process", workers=2)
        assert log.read_text().splitlines() == ["attempt"]


class TestStripLoop:
    """Strips run through the executor's serial tile loop: the same
    spans and noise prefetch as tiles, and the same bytes as one-shot
    windows."""

    def test_traced_strips_record_tile_spans_and_prefetch(self, gen):
        plan = strip_plan(4 * 24, 40, 24)
        windows = [gen.noise_window(t.x0, t.y0, t.nx, t.ny) for t in plan]

        def prefetched(noise, i):
            if i == 0:
                return True
            assert _prefetch_threads(), "strips run without a helper"
            with noise._lock:
                return _blocks_of(16, windows[i]) <= set(noise._cache)

        with obs.recording() as rec:
            strips = list(stream_strips(_Paced(gen, prefetched),
                                        BlockNoise(seed=6, block=16),
                                        total_nx=4 * 24, width_ny=40,
                                        strip_nx=24))
        assert len(strips) == 4
        spans = rec.span_stats()
        assert spans["executor.tile"]["count"] == 4
        assert spans["rng.prefetch"]["count"] == 3
        assert not any(name.startswith("stream.") for name in spans)
        assert rec.metrics.counters("executor.")["executor.tiles"] == 4
        assert rec.metrics.counters("rng.")["rng.blocks_prefetched"] > 0
        assert not _prefetch_threads()

    @pytest.mark.parametrize("which", ["gen", "inhom_gen"])
    def test_strips_match_one_shot_windows(self, which, request):
        generator = request.getfixturevalue(which)
        # ragged: 70 = 2*24 + 22; negative origin
        plan = strip_plan(70, 40, 24, x0=-9, y0=3)
        ref = _tilewise_reference(generator, 6, 16, plan)
        finite = assemble_strips(stream_strips(
            generator, BlockNoise(seed=6, block=16), 70, 40, 24, -9, 3))
        assert finite.heights.tobytes() == ref.tobytes()
        endless = StripStream(generator, BlockNoise(seed=6, block=16),
                              width_ny=40, strip_nx=24, x0=-9, y0=3)
        for strip in (next(endless), next(endless)):
            x0, y0, nx, ny = strip.provenance["window"]
            ix, iy = x0 - plan.origin_x, y0 - plan.origin_y
            assert strip.heights.tobytes() == \
                ref[ix : ix + nx, iy : iy + ny].tobytes()

    def test_dropped_endless_stream_stops_its_helper(self, gen):
        stream = StripStream(gen, BlockNoise(seed=3, block=16), width_ny=16,
                             strip_nx=8)
        strips = [next(stream) for _ in range(2)]
        assert len(strips) == 2
        assert _prefetch_threads()  # the helper lives while the stream does
        del stream
        gc.collect()
        assert not _prefetch_threads()
