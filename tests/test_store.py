"""Differential & fault tests for the out-of-core store (repro.io.store).

The store's contract: store-backed generation is **bit-identical** to
the in-memory path (same plan, any backend), the chunk bitmap only
records durably-written chunks (so resume never double-writes or trusts
unwritten data), torn on-disk state fails loudly as
:class:`StoreCorrupt`, and peak RSS stays far below the output size —
the paper's "arbitrarily large surface" claim made operational.
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import GaussianSpectrum
from repro.io.store import FORMAT_VERSION, StoreCorrupt, SurfaceStore
from repro.jobs import (
    FaultPlan,
    FaultSpec,
    PoolRespawnLimit,
    RetryPolicy,
    TileFailedError,
    resume,
    run_tiled,
    status,
)
from repro.parallel import TilePlan, generate_tiled, strip_plan

pytestmark = pytest.mark.store

N = 96
TILE = 48

FAST = RetryPolicy(backoff_base=0.0)


def _gen():
    return ConvolutionGenerator(
        GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
        Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
    )


@pytest.fixture(scope="module")
def gen():
    return _gen()


@pytest.fixture(scope="module")
def noise():
    return BlockNoise(seed=11)


@pytest.fixture(scope="module")
def plan():
    return TilePlan(total_nx=N, total_ny=N, tile_nx=TILE, tile_ny=TILE)


@pytest.fixture(scope="module")
def reference(gen, noise, plan):
    """The in-memory serial run every store-backed run must reproduce."""
    return generate_tiled(gen, noise, plan, backend="serial").heights


def _make_store(path, plan, chunk=None):
    return SurfaceStore.create(
        path, shape=(plan.total_nx, plan.total_ny),
        chunk=chunk or (plan.tile_nx, plan.tile_ny),
    )


# ---------------------------------------------------------------------------
# Format basics
# ---------------------------------------------------------------------------
class TestStoreBasics:
    def test_create_open_round_trip(self, tmp_path):
        store = SurfaceStore.create(
            tmp_path / "s", shape=(10, 14), chunk=(4, 6),
            dx=0.5, dy=0.25, origin=(3, -2), meta={"note": "x"},
        )
        store.close()
        s2 = SurfaceStore.open(tmp_path / "s", mode="r")
        assert s2.shape == (10, 14)
        assert s2.chunk_shape == (4, 6)
        assert s2.n_chunks == (3, 3)
        assert s2.chunks_total == 9
        assert s2.origin == (3, -2)
        assert s2.manifest["meta"] == {"note": "x"}
        assert s2.fraction_done == 0.0
        assert s2.summary()["format"] == FORMAT_VERSION
        assert s2.summary()["nbytes"] == 10 * 14 * 8

    def test_create_refuses_existing(self, tmp_path):
        SurfaceStore.create(tmp_path / "s", shape=(8, 8), chunk=(4, 4))
        with pytest.raises(FileExistsError):
            SurfaceStore.create(tmp_path / "s", shape=(8, 8), chunk=(4, 4))

    def test_rejects_bad_geometry(self, tmp_path):
        with pytest.raises(ValueError):
            SurfaceStore.create(tmp_path / "a", shape=(0, 8), chunk=(4, 4))
        with pytest.raises(ValueError):
            SurfaceStore.create(tmp_path / "b", shape=(8, 8), chunk=(0, 4))

    def test_chunk_grid_matches_tile_plan(self, tmp_path):
        """Chunk index must equal tile index for a matching plan."""
        plan = TilePlan(total_nx=10, total_ny=14, tile_nx=4, tile_ny=6)
        store = _make_store(tmp_path / "s", plan)
        tiles = plan.tiles()
        assert store.chunks_total == len(tiles)
        for i, t in enumerate(tiles):
            assert store.chunk_window(i) == (t.x0, t.y0, t.nx, t.ny)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        store = SurfaceStore.create(tmp_path / "s", shape=(10, 14),
                                    chunk=(4, 6))
        full = np.zeros((10, 14))
        for i in range(store.chunks_total):
            x0, y0, nx, ny = store.chunk_window(i)
            values = rng.normal(size=(nx, ny))
            full[x0:x0 + nx, y0:y0 + ny] = values
            store.write_chunk(i, values)
        assert store.done.all()
        store.close()
        s2 = SurfaceStore.open(tmp_path / "s", mode="r")
        assert s2.done.all()
        np.testing.assert_array_equal(np.asarray(s2.heights()), full)
        np.testing.assert_array_equal(s2.read_window(2, 3, 5, 7),
                                      full[2:7, 3:10])

    def test_partial_window_marks_nothing(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4))
        store.write_window(1, 1, np.ones((5, 5)))  # spans, covers no chunk
        assert not store.done.any()
        store.write_window(0, 0, np.ones((4, 8)))  # covers chunks 0 and 1
        assert store.done_indices() == [0, 1]

    def test_write_bounds_and_modes(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4))
        with pytest.raises(ValueError):
            store.write_window(6, 0, np.ones((4, 4)))
        with pytest.raises(ValueError):
            store.write_chunk(0, np.ones((3, 3)))
        with pytest.raises(IndexError):
            store.chunk_window(99)
        store.close()
        ro = SurfaceStore.open(tmp_path / "s", mode="r")
        with pytest.raises(ValueError):
            ro.write_window(0, 0, np.ones((4, 4)))
        with pytest.raises(ValueError):
            SurfaceStore.open(tmp_path / "s", mode="w")

    def test_surface_view_is_memmap(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4), dx=2.0, dy=2.0,
                                    origin=(4, 0))
        store.write_window(0, 0, np.full((8, 8), 1.5))
        store.flush()
        surf = store.surface()
        assert isinstance(surf.heights, np.memmap)
        assert surf.origin == (8.0, 0.0)
        assert surf.grid.dx == 2.0
        assert surf.height_mean() == 1.5
        assert surf.provenance["store"]["chunks_done"] == 4

    def test_validate_plan_mismatch(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4))
        store.validate_plan(TilePlan(total_nx=8, total_ny=8,
                                     tile_nx=4, tile_ny=4))
        with pytest.raises(ValueError):
            store.validate_plan(TilePlan(total_nx=8, total_ny=8,
                                         tile_nx=2, tile_ny=4))
        with pytest.raises(ValueError):
            store.validate_plan(TilePlan(total_nx=12, total_ny=8,
                                         tile_nx=4, tile_ny=4))


# ---------------------------------------------------------------------------
# Corruption: every torn file fails loudly, never garbage heights
# ---------------------------------------------------------------------------
class TestStoreCorruption:
    @pytest.fixture
    def store_dir(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4))
        store.write_window(0, 0, np.ones((8, 8)))
        store.close()
        return tmp_path / "s"

    def test_torn_manifest(self, store_dir):
        manifest = store_dir / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])  # torn mid-file
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_manifest_not_object(self, store_dir):
        (store_dir / "manifest.json").write_text('"just a string"')
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_missing_manifest(self, store_dir):
        (store_dir / "manifest.json").unlink()
        with pytest.raises(FileNotFoundError):
            SurfaceStore.open(store_dir)

    def test_wrong_format_version(self, store_dir):
        manifest = store_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["format"] = "repro.store/v999"
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_missing_geometry(self, store_dir):
        manifest = store_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        del data["chunk"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_missing_heights(self, store_dir):
        (store_dir / "heights.npy").unlink()
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_truncated_heights(self, store_dir):
        heights = store_dir / "heights.npy"
        with open(heights, "r+b") as fh:
            fh.truncate(heights.stat().st_size - 64)
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_heights_shape_mismatch(self, store_dir):
        np.save(store_dir / "heights.npy", np.zeros((4, 4)))
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_bitmap_wrong_length(self, store_dir):
        np.save(store_dir / "chunks.npy", np.zeros(7, dtype=bool))
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)

    def test_bitmap_wrong_dtype(self, store_dir):
        np.save(store_dir / "chunks.npy", np.zeros(4, dtype=np.int64))
        with pytest.raises(StoreCorrupt):
            SurfaceStore.open(store_dir)


# ---------------------------------------------------------------------------
# Async writeback
# ---------------------------------------------------------------------------
class TestStoreWriter:
    def test_async_writes_land(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(8, 8),
                                    chunk=(4, 4))
        rng = np.random.default_rng(1)
        full = np.empty((8, 8))
        with store.writer() as writer:
            for i in range(store.chunks_total):
                x0, y0, nx, ny = store.chunk_window(i)
                values = rng.normal(size=(nx, ny))
                full[x0:x0 + nx, y0:y0 + ny] = values
                writer.submit(i, x0, y0, values)
        assert store.done.all()
        np.testing.assert_array_equal(np.asarray(store.heights()), full)
        # bitmap was persisted by the writer, not just in memory
        reopened = SurfaceStore.open(tmp_path / "s", mode="r")
        assert reopened.done.all()

    def test_error_propagates_without_deadlock(self, tmp_path, monkeypatch):
        store = SurfaceStore.create(tmp_path / "s", shape=(64, 8),
                                    chunk=(4, 8))

        def boom(self, x0, y0, values, *, mark=True):
            raise OSError("disk on fire")

        monkeypatch.setattr(SurfaceStore, "write_window", boom)
        writer = store.writer(queue_depth=1)
        # keep submitting past the failure: the writer must keep
        # draining (no deadlock) and surface the error eventually
        with pytest.raises(OSError, match="disk on fire"):
            for i in range(store.chunks_total):
                x0, y0, nx, ny = store.chunk_window(i)
                writer.submit(i, x0, y0, np.zeros((nx, ny)))
            writer.close()
        writer.close(raise_pending=False)
        assert not store.done.any()

    def test_submit_after_close_rejected(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(4, 4),
                                    chunk=(4, 4))
        writer = store.writer()
        writer.close()
        with pytest.raises(RuntimeError):
            writer.submit(0, 0, 0, np.zeros((4, 4)))

    def test_queue_depth_validated(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(4, 4),
                                    chunk=(4, 4))
        with pytest.raises(ValueError):
            store.writer(queue_depth=0)

    def test_obs_metrics_recorded(self, tmp_path, gen, noise, plan):
        store = _make_store(tmp_path / "s", plan)
        with obs.recording() as rec:
            generate_tiled(gen, noise, plan, backend="serial", out=store)
        counters = rec.metrics.as_dict()["counters"]
        assert counters["store.chunks_written"] == len(plan)
        assert counters["store.bytes_written"] == N * N * 8
        gauges = rec.metrics.as_dict()["gauges"]
        assert "store.queue_depth" in gauges
        hists = rec.metrics.as_dict()["histograms"]
        assert hists["store.flush_seconds"]["count"] == len(plan)


# ---------------------------------------------------------------------------
# Differential: store-backed == in-memory, bit for bit
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("thread", 2), ("process", 2),
    ])
    def test_backends_bit_identical(self, tmp_path, gen, noise, plan,
                                    reference, backend, workers):
        store = _make_store(tmp_path / "s", plan)
        surface = generate_tiled(gen, noise, plan, backend=backend,
                                 workers=workers, out=store)
        np.testing.assert_array_equal(np.asarray(surface.heights), reference)
        assert isinstance(surface.heights, np.memmap)
        assert surface.provenance["store"]["chunks_done"] == len(plan)
        assert store.done.all()

    @given(tile_nx=st.integers(min_value=13, max_value=64),
           tile_ny=st.integers(min_value=13, max_value=64))
    @settings(max_examples=6, deadline=None)
    def test_tile_shapes_bit_identical(self, gen, noise, tile_nx, tile_ny):
        """For any tile/chunk shape, store == in-memory on the same plan."""
        plan = TilePlan(total_nx=N, total_ny=N,
                        tile_nx=tile_nx, tile_ny=tile_ny)
        expected = generate_tiled(gen, noise, plan, backend="serial").heights
        tmp = tempfile.mkdtemp()
        try:
            store = _make_store(Path(tmp) / "s", plan)
            surface = generate_tiled(gen, noise, plan, backend="serial",
                                     out=store)
            np.testing.assert_array_equal(np.asarray(surface.heights),
                                          expected)
            store.close()
        finally:
            shutil.rmtree(tmp)

    def test_tiled_run_resumes_from_bitmap(self, tmp_path, gen, noise):
        """generate_tiled(out=store, skip=store.done_indices()) never
        recomputes a chunk the bitmap already records."""
        plan = TilePlan(total_nx=N, total_ny=N, tile_nx=TILE, tile_ny=N)
        store = _make_store(tmp_path / "s", plan)
        expected = generate_tiled(gen, noise, plan, backend="serial").heights
        # pre-write the first full-width chunk by hand
        x0, y0, nx, ny = store.chunk_window(0)
        strip = generate_tiled(
            gen, noise,
            TilePlan(total_nx=nx, total_ny=ny, tile_nx=nx, tile_ny=ny),
            backend="serial",
        ).heights
        store.write_chunk(0, strip)
        assert store.done_indices() == [0]
        calls = []
        orig = type(gen).generate_window

        def spy(self, noise_, x0_, y0_, nx_, ny_, **kw):
            calls.append((x0_, y0_))
            return orig(self, noise_, x0_, y0_, nx_, ny_, **kw)

        type(gen).generate_window = spy
        try:
            generate_tiled(gen, noise, plan, out=store,
                           skip=store.done_indices())
        finally:
            type(gen).generate_window = orig
        assert (0, 0) not in calls  # chunk 0 was never recomputed
        assert calls == [(TILE, 0)]  # chunk 1, once
        assert store.done.all()
        np.testing.assert_array_equal(np.asarray(store.heights()), expected)
        store.close()

    def test_store_job_resume_mid_write(self, tmp_path, gen, noise, plan,
                                        reference):
        """Interrupt a store-backed job, resume, get identical heights —
        and the bitmap prevents any double-write of durable chunks."""
        store = _make_store(tmp_path / "store", plan)
        fp = FaultPlan.parse(
            [f"tile=2,attempt={a},kind=raise" for a in (1, 2, 3)]
        )
        with pytest.raises(TileFailedError):
            run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                      retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                      fault_plan=fp, store=store)
        store.close()
        st_ = status(tmp_path / "ck")
        assert st_["status"] == "failed"
        assert "store" in st_
        # no npz heights blob for store-backed jobs
        assert not (tmp_path / "ck" / "state.npz").exists()
        done_before = set(
            SurfaceStore.open(tmp_path / "store", mode="r").done_indices()
        )
        assert done_before  # the serial run durably finished tiles 0, 1
        written = []
        orig = SurfaceStore.write_window

        def spy(self, x0, y0, values, *, mark=True):
            written.append((x0, y0))
            return orig(self, x0, y0, values, mark=mark)

        SurfaceStore.write_window = spy
        try:
            surface = resume(tmp_path / "ck", gen, retry=FAST)
        finally:
            SurfaceStore.write_window = orig
        np.testing.assert_array_equal(np.asarray(surface.heights), reference)
        tiles = plan.tiles()
        durable = {(tiles[i].x0, tiles[i].y0) for i in done_before}
        assert durable.isdisjoint(written), "durable chunks were rewritten"
        assert len(written) == len(tiles) - len(done_before)
        assert status(tmp_path / "ck")["status"] == "complete"

    def test_store_strips_job(self, tmp_path, gen, noise):
        # strip jobs compute full-width windows, so the bit-identity
        # reference must use the matching strip plan
        expected = generate_tiled(
            gen, noise,
            TilePlan(total_nx=N, total_ny=N, tile_nx=TILE, tile_ny=N),
            backend="serial",
        ).heights
        store = SurfaceStore.create(tmp_path / "store", shape=(N, N),
                                    chunk=(TILE, N))
        surface = run_tiled(gen, noise, strip_plan(N, N, TILE),
                            checkpoint=tmp_path / "ck",
                            retry=FAST, store=store)
        np.testing.assert_array_equal(np.asarray(surface.heights), expected)
        assert store.done.all()


class TestStoreJobManifest:
    """A store job's progress ledger is the store's chunk bitmap, so its
    job manifest is written only on a status change: ``running`` on
    create, then ``failed`` or ``complete``."""

    @pytest.mark.parametrize("tile", [TILE, 32])  # 4 and 9 tiles
    def test_completed_job_writes_manifest_twice(self, tmp_path, gen,
                                                 noise, tile):
        plan = TilePlan(total_nx=N, total_ny=N, tile_nx=tile, tile_ny=tile)
        store = _make_store(tmp_path / "store", plan)
        with obs.recording() as rec:
            run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                      retry=FAST, store=store)
        assert rec.metrics.counter("jobs.checkpoint_writes") == 2
        assert status(tmp_path / "ck")["status"] == "complete"
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["progress"]["tiles_done"] == len(plan)

    def test_failed_job_manifest_never_overcounts(self, tmp_path, gen,
                                                  noise, plan):
        store = _make_store(tmp_path / "store", plan)
        fp = FaultPlan.parse(
            [f"tile=2,attempt={a},kind=raise" for a in (1, 2)]
        )
        with obs.recording() as rec:
            with pytest.raises(TileFailedError):
                run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                          retry=RetryPolicy(max_attempts=2,
                                            backoff_base=0.0),
                          fault_plan=fp, store=store)
        assert rec.metrics.counter("jobs.checkpoint_writes") == 2
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        persisted = SurfaceStore.open(tmp_path / "store", mode="r").done
        assert manifest["progress"]["tiles_done"] == int(persisted.sum())
        assert persisted.any()  # tiles 0 and 1 finished before the fault
        store.close()


# ---------------------------------------------------------------------------
# Crash injection through the store
# ---------------------------------------------------------------------------
@pytest.mark.faults
class TestStoreFaults:
    def test_kill_through_store_then_resume(self, tmp_path, gen, noise,
                                            plan, reference):
        """A pool worker dies mid-job while writing through the store;
        resume finishes from the bitmap with no double-writes and
        heights identical to an uninterrupted run."""
        store = _make_store(tmp_path / "store", plan)
        fp = FaultPlan.of(FaultSpec(tile=1, attempt=1, kind="kill"))
        with pytest.raises(PoolRespawnLimit):
            run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                      backend="process", workers=2,
                      retry=RetryPolicy(backoff_base=0.0, max_respawns=0,
                                        degrade=False),
                      fault_plan=fp, store=store)
        store.close()
        done_before = set(
            SurfaceStore.open(tmp_path / "store", mode="r").done_indices()
        )
        written = []
        orig = SurfaceStore.write_window

        def spy(self, x0, y0, values, *, mark=True):
            written.append((x0, y0))
            return orig(self, x0, y0, values, mark=mark)

        SurfaceStore.write_window = spy
        try:
            surface = resume(tmp_path / "ck", gen, backend="serial",
                             retry=FAST)
        finally:
            SurfaceStore.write_window = orig
        np.testing.assert_array_equal(np.asarray(surface.heights), reference)
        tiles = plan.tiles()
        durable = {(tiles[i].x0, tiles[i].y0) for i in done_before}
        assert durable.isdisjoint(written), "durable chunks were rewritten"
        assert len(written) == len(tiles) - len(done_before)

    def test_kill_respawn_completes_through_store(self, tmp_path, gen,
                                                  noise, plan, reference):
        """With respawns allowed the job survives the worker death in one
        go — still bit-identical through the store."""
        store = _make_store(tmp_path / "store", plan)
        fp = FaultPlan.of(FaultSpec(tile=1, attempt=1, kind="kill"))
        surface = run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                            backend="process", workers=2,
                            retry=RetryPolicy(backoff_base=0.0),
                            fault_plan=fp, store=store)
        np.testing.assert_array_equal(np.asarray(surface.heights), reference)
        assert store.done.all()

    @pytest.mark.parametrize("caller_store", [True, False],
                             ids=["store", "no-store"])
    def test_sigkill_mid_job_then_resume(self, tmp_path, gen, noise,
                                         caller_store):
        """SIGKILL the whole process in the middle of a serial job — one
        writing the caller's store, and one given no store, which writes
        its checkpoint's own: no manifest write, no writer close.
        Resume finishes from the persisted bitmap alone, bit-identical
        to an uninterrupted run, without rewriting any chunk that bitmap
        holds."""
        plan = TilePlan(total_nx=N, total_ny=N, tile_nx=24, tile_ny=24)
        reference = generate_tiled(gen, noise, plan,
                                   backend="serial").heights
        script = textwrap.dedent("""
            import os, signal, sys, time
            from pathlib import Path
            import numpy as np
            from repro.core.convolution import ConvolutionGenerator
            from repro.core.grid import Grid2D
            from repro.core.rng import BlockNoise
            from repro.core.spectra import GaussianSpectrum
            from repro.io.store import BITMAP_NAME, SurfaceStore
            from repro.jobs import FaultPlan, FaultSpec, RetryPolicy, run_tiled
            from repro.parallel import TilePlan

            N, TILE, KILL_AFTER = 96, 24, 5
            store_dir, ck_dir = sys.argv[1], sys.argv[2]
            gen = ConvolutionGenerator(
                GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
                Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
            )
            plan = TilePlan(total_nx=N, total_ny=N,
                            tile_nx=TILE, tile_ny=TILE)
            store = (SurfaceStore.create(store_dir, shape=(N, N),
                                         chunk=(TILE, TILE))
                     if sys.argv[3] == "store" else None)
            bitmap = Path(store_dir) / BITMAP_NAME

            def on_tile(index, tile):
                if index != KILL_AFTER:
                    return
                # the delayed tile 2 lets the writer's 0.5 s persist
                # mark chunks; wait (bounded) until it is on disk
                deadline = time.monotonic() + 10.0
                while (not np.load(bitmap).any()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)

            run_tiled(gen, BlockNoise(seed=11), plan, checkpoint=ck_dir,
                      retry=RetryPolicy(backoff_base=0.0),
                      fault_plan=FaultPlan.of(FaultSpec(
                          tile=2, attempt=1, kind="delay", delay_s=0.6)),
                      store=store, on_tile=on_tile)
            print("NOT KILLED")
        """)
        ck = tmp_path / "ck"
        store_dir = tmp_path / "store" if caller_store else ck / "store"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(store_dir), str(ck),
             "store" if caller_store else "none"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src")},
        )
        assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr
        # the manifest still says running, but its owner pid is gone
        assert status(ck)["status"] == "stale"
        done_before = set(
            SurfaceStore.open(store_dir, mode="r").done_indices()
        )
        assert done_before and len(done_before) < len(plan)
        written = []
        orig = SurfaceStore.write_window

        def spy(self, x0, y0, values, *, mark=True):
            written.append((x0, y0))
            return orig(self, x0, y0, values, mark=mark)

        SurfaceStore.write_window = spy
        try:
            surface = resume(ck, gen, retry=FAST)
        finally:
            SurfaceStore.write_window = orig
        np.testing.assert_array_equal(np.asarray(surface.heights), reference)
        # only a job given no store gets its heights back in RAM
        assert isinstance(surface.heights, np.memmap) is caller_store
        tiles = plan.tiles()
        durable = {(tiles[i].x0, tiles[i].y0) for i in done_before}
        assert durable.isdisjoint(written), "durable chunks were rewritten"
        assert len(written) == len(tiles) - len(done_before)
        assert status(ck)["status"] == "complete"

    def test_moved_storeless_checkpoint_resumes(self, tmp_path, gen, noise,
                                                plan, reference):
        """A job given no store records its own store relative to the
        checkpoint, so a failed checkpoint moved elsewhere resumes
        there to the same bytes."""
        fp = FaultPlan.parse(
            [f"tile=2,attempt={a},kind=raise" for a in (1, 2)]
        )
        with pytest.raises(TileFailedError):
            run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck",
                      retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                      fault_plan=fp)
        assert status(tmp_path / "ck")["status"] == "failed"
        moved = tmp_path / "elsewhere" / "ck"
        moved.parent.mkdir()
        shutil.move(str(tmp_path / "ck"), str(moved))
        surface = resume(moved, gen, retry=FAST)
        assert surface.heights.tobytes() == reference.tobytes()
        assert surface.provenance["job"]["tiles_resumed"] == 2
        assert status(moved)["status"] == "complete"

    def test_manifest_without_store_is_rejected(self, tmp_path, gen, noise,
                                                plan):
        """A v1 manifest with no ``store`` comes from an in-memory job of
        an earlier build: resume says so instead of failing to find its
        heights file."""
        run_tiled(gen, noise, plan, checkpoint=tmp_path / "ck", retry=FAST)
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["store"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="re-run the job"):
            resume(tmp_path / "ck", gen)


# ---------------------------------------------------------------------------
# Scale: the acceptance contracts
# ---------------------------------------------------------------------------
class TestScale:
    def test_2048_bit_identical(self, tmp_path, noise):
        """2048^2: store-backed tiled == in-memory tiled, bit for bit."""
        n = 2048
        gen = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
            Grid2D(nx=n, ny=n, lx=float(n), ly=float(n)),
            truncation=(16, 16),
        )
        plan = TilePlan(total_nx=n, total_ny=n, tile_nx=512, tile_ny=512)
        expected = generate_tiled(gen, noise, plan, backend="serial").heights
        store = _make_store(tmp_path / "s", plan)
        surface = generate_tiled(gen, noise, plan, backend="serial",
                                 out=store)
        np.testing.assert_array_equal(np.asarray(surface.heights), expected)
        store.close()

    def test_16384_peak_rss_under_half_output(self, tmp_path):
        """Generate a 16384^2 float64 surface (2 GiB) through the store
        in a fresh subprocess; its peak RSS must stay under 50% of the
        output size (it actually stays around a tenth)."""
        free = shutil.disk_usage(tmp_path).free
        if free < 3 * 2**30:  # pragma: no cover - tiny CI disks
            pytest.skip("needs ~2 GiB of scratch disk")
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from repro.core.grid import Grid2D
            from repro.core.rng import BlockNoise
            from repro.io.store import SurfaceStore
            from repro.parallel import TilePlan, generate_tiled

            N, TILE = 16384, 1024

            class StubGen:
                # cheap deterministic windowed generator: the test
                # measures the I/O path's memory, not FFT throughput
                grid = Grid2D(nx=N, ny=N, lx=float(N), ly=float(N))

                def generate_window(self, noise, x0, y0, nx, ny):
                    out = np.empty((nx, ny))
                    out[:] = np.arange(x0, x0 + nx)[:, None]
                    out += np.arange(y0, y0 + ny)[None, :] * 1e-6
                    return out

            plan = TilePlan(total_nx=N, total_ny=N,
                            tile_nx=TILE, tile_ny=TILE)
            store = SurfaceStore.create(sys.argv[1], shape=(N, N),
                                        chunk=(TILE, TILE))
            surface = generate_tiled(StubGen(), BlockNoise(seed=0), plan,
                                     backend="serial", out=store)
            assert store.done.all()
            # spot-check a few windows without paging the whole file
            for x0, y0 in ((0, 0), (N - 7, N - 5), (8000, 12000)):
                got = store.read_window(x0, y0, 4, 4)
                want = (np.arange(x0, x0 + 4)[:, None]
                        + np.arange(y0, y0 + 4)[None, :] * 1e-6)
                np.testing.assert_array_equal(got, want)
            store.close()
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print("PEAK_RSS_KIB", peak_kib)
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "big")],
            capture_output=True, text=True, timeout=560,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src")},
        )
        assert out.returncode == 0, out.stderr
        peak_kib = int(out.stdout.split("PEAK_RSS_KIB")[1].split()[0])
        output_bytes = 16384 * 16384 * 8
        assert peak_kib * 1024 < output_bytes // 2, (
            f"peak RSS {peak_kib / 2**20:.2f} GiB is not under half the "
            f"{output_bytes / 2**30:.0f} GiB output"
        )
        # the heights file really holds the full surface
        st = SurfaceStore.open(tmp_path / "big", mode="r")
        assert st.shape == (16384, 16384)
        assert st.fraction_done == 1.0
