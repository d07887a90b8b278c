"""Distributed tile-sharding tests: protocol, lease ledger, scale-out.

Layered like the subsystem itself: pure framing over socketpairs, the
lease state machine under a fake clock (no sockets, no sleeps), run-spec
round-trips, then full coordinator/worker runs — in-process worker
threads where determinism is the point, real ``python -m repro dist
worker`` subprocesses where process isolation is the point (crash
drills, the 2048^2 bit-identity gate).

Everything here asserts determinism and bookkeeping, never timing.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spec import GenerationSpec
from repro.core.spectra import GaussianSpectrum
from repro.dist import Coordinator, LeaseLedger, generate_dist
from repro.dist import protocol
from repro.dist.worker import run_worker
from repro.io.store import SurfaceStore
from repro.jobs.faults import FaultPlan, FaultSpec
from repro.jobs.retry import RetryPolicy
from repro.parallel.executor import (FailureBudgetExceeded, TileFailedError,
                                     generate_tiled)
from repro.parallel.tiles import TilePlan

pytestmark = pytest.mark.dist


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_json_round_trip(self):
        a, b = self._pair()
        with a, b:
            msg = {"type": "lease", "n": 3, "nested": {"x": [1, 2]}}
            protocol.send_json(a, msg)
            assert protocol.recv_json(b) == msg

    def test_binary_round_trip(self):
        a, b = self._pair()
        with a, b:
            payload = np.arange(257, dtype=np.float64).tobytes()
            protocol.send_binary(a, payload)
            kind, got = protocol.recv_frame(b)
            assert kind == protocol.KIND_BINARY
            assert got == payload

    def test_oversize_send_refused(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        a, b = self._pair()
        with a, b:
            with pytest.raises(protocol.ProtocolError, match="refusing"):
                protocol.send_binary(a, b"x" * 65)

    def test_oversize_recv_refused(self, monkeypatch):
        a, b = self._pair()
        with a, b:
            # forge a header claiming a frame beyond the limit
            a.sendall(struct.pack(">IB", protocol.MAX_FRAME_BYTES + 1,
                                  protocol.KIND_BINARY))
            with pytest.raises(protocol.ProtocolError, match="refusing"):
                protocol.recv_frame(b)

    def test_unknown_frame_kind_refused(self):
        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">IB", 0, 7))
            with pytest.raises(protocol.ProtocolError, match="kind"):
                protocol.recv_frame(b)

    def test_eof_at_boundary_is_peer_gone(self):
        a, b = self._pair()
        with b:
            a.close()
            with pytest.raises(protocol.PeerGone):
                protocol.recv_frame(b)

    def test_eof_mid_frame_is_protocol_error(self):
        a, b = self._pair()
        with b:
            a.sendall(struct.pack(">IB", 100, protocol.KIND_JSON) + b"{")
            a.close()
            with pytest.raises(protocol.ProtocolError, match="mid-frame"):
                protocol.recv_frame(b)

    def test_recv_json_rejects_binary_frame(self):
        a, b = self._pair()
        with a, b:
            protocol.send_binary(a, b"\x00\x01")
            with pytest.raises(protocol.ProtocolError, match="JSON"):
                protocol.recv_json(b)

    def test_recv_json_rejects_non_object(self):
        a, b = self._pair()
        with a, b:
            a.sendall(struct.pack(">IB", 2, protocol.KIND_JSON) + b"[]")
            with pytest.raises(protocol.ProtocolError, match="object"):
                protocol.recv_json(b)


# ---------------------------------------------------------------------------
# plan sharding + halo accounting
# ---------------------------------------------------------------------------
class TestShards:
    def test_partition_is_contiguous_and_balanced(self):
        plan = TilePlan(total_nx=70, total_ny=70, tile_nx=10, tile_ny=10)
        shards = plan.shards(3)
        flat = [i for s in shards for i in s]
        assert flat == list(range(len(plan)))  # contiguous, complete
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_tiles(self):
        plan = TilePlan(total_nx=32, total_ny=32, tile_nx=32, tile_ny=32)
        shards = plan.shards(4)
        assert [len(s) for s in shards] == [1, 0, 0, 0]

    def test_rejects_nonpositive(self):
        plan = TilePlan(total_nx=32, total_ny=32, tile_nx=16, tile_ny=16)
        with pytest.raises(ValueError):
            plan.shards(0)

    def test_halo_samples_arithmetic(self):
        plan = TilePlan(total_nx=8, total_ny=8, tile_nx=4, tile_ny=4)
        read, output = plan.halo_samples((3, 5))
        assert output == 64
        assert read == 4 * (4 + 2) * (4 + 4)  # four tiles of (nx+2)(ny+4)

    def test_halo_exceeding_tile_size(self):
        # a 9x9 kernel over 4x4 tiles: each tile reads a noise window
        # dominated by halo — legal, just inefficient
        plan = TilePlan(total_nx=8, total_ny=8, tile_nx=4, tile_ny=4)
        read, output = plan.halo_samples((9, 9))
        assert read == 4 * 12 * 12
        assert plan.halo_overhead((9, 9)) == pytest.approx(read / 64 - 1)

    def test_halo_rejects_bad_kernel(self):
        plan = TilePlan(total_nx=8, total_ny=8, tile_nx=4, tile_ny=4)
        with pytest.raises(ValueError):
            plan.halo_samples((0, 3))


# ---------------------------------------------------------------------------
# lease ledger (fake clock throughout; no sockets, no sleeps)
# ---------------------------------------------------------------------------
def _ledger(n_tiles=4, *, policy=None, timeout=10.0, shards=None,
            done=None):
    plan = TilePlan(total_nx=n_tiles * 8, total_ny=8, tile_nx=8, tile_ny=8)
    bitmap = done if done is not None else np.zeros(n_tiles, dtype=bool)
    return LeaseLedger(bitmap, plan.tiles(), policy=policy,
                       lease_timeout_s=timeout, shards=shards)


class TestLeaseLedger:
    def test_grant_complete_lifecycle(self):
        led = _ledger(2)
        verdict, lease = led.request("w0", 0, now=0.0)
        assert verdict == "grant"
        assert lease.attempt == 1 and lease.deadline == 10.0
        assert led.complete(lease.index, "w0", now=1.0) is True
        assert led.done[lease.index]
        verdict, lease2 = led.request("w0", 0, now=1.0)
        assert verdict == "grant" and lease2.index != lease.index
        led.complete(lease2.index, "w0", now=2.0)
        assert led.request("w0", 0, now=2.0) == ("complete", None)
        assert led.summary()["pending"] == 0

    def test_all_leased_means_wait(self):
        led = _ledger(1)
        led.request("w0", 0, now=0.0)
        verdict, seconds = led.request("w1", 0, now=0.0)
        assert verdict == "wait"
        assert 0.05 <= seconds <= 1.0  # clamped poll hint

    def test_expiry_releases_with_backoff(self):
        pol = RetryPolicy(backoff_base=0.5, backoff_factor=2.0)
        led = _ledger(1, policy=pol, timeout=10.0)
        _, lease = led.request("w0", 0, now=0.0)
        # deadline passes: next request re-leases at attempt 2, but only
        # after the deterministic backoff window
        verdict, detail = led.request("w1", 0, now=10.0)
        assert verdict == "wait"
        assert led.expired == 1
        verdict, lease2 = led.request("w1", 0, now=10.0 + pol.delay(1))
        assert verdict == "grant"
        assert lease2.index == lease.index and lease2.attempt == 2
        # expiries are re-leases, not failures
        assert led.total_failures == 0

    def test_release_worker_requeues_all_its_leases(self):
        led = _ledger(4, shards=[[0, 1], [2, 3]])
        _, l0 = led.request("w0", 0, now=0.0)
        _, l1 = led.request("w0", 0, now=0.0)
        _, l2 = led.request("w1", 1, now=0.0)
        released = led.release_worker("w0", now=1.0)
        assert sorted(released) == sorted([l0.index, l1.index])
        assert led.worker_releases == 2
        assert l2.index in led.leases  # the healthy worker keeps its lease

    def test_straggler_completion_is_counted_duplicate(self):
        led = _ledger(1, timeout=10.0)
        _, lease = led.request("w0", 0, now=0.0)
        led.expire(now=20.0)
        _, release = led.request("w1", 0, now=20.0 + 1.0)
        assert release.index == lease.index
        assert led.complete(lease.index, "w1", now=22.0) is True
        # the straggler reports afterwards: accepted, counted, not re-marked
        assert led.complete(lease.index, "w0", now=23.0) is False
        assert led.duplicates == 1
        assert led.completions[lease.index] == 2
        assert led.completed == 1

    def test_fail_exhausts_max_attempts(self):
        pol = RetryPolicy(max_attempts=2, backoff_base=0.01)
        led = _ledger(1, policy=pol)
        _, lease = led.request("w0", 0, now=0.0)
        led.fail(lease.index, "w0", "boom", now=0.0)
        _, lease = led.request("w0", 0, now=1.0)
        assert lease.attempt == 2
        with pytest.raises(TileFailedError):
            led.fail(lease.index, "w0", "boom again", now=1.0)

    def test_failure_budget_is_run_wide(self):
        pol = RetryPolicy(max_attempts=10, backoff_base=0.01,
                          failure_budget=2)
        led = _ledger(4, policy=pol)
        for k in range(2):
            _, lease = led.request("w0", 0, now=float(k))
            led.fail(lease.index, "w0", "boom", now=float(k))
        _, lease = led.request("w0", 0, now=5.0)
        with pytest.raises(FailureBudgetExceeded):
            led.fail(lease.index, "w0", "boom", now=5.0)

    def test_resumed_bitmap_is_never_queued(self):
        done = np.array([True, False, True, False])
        led = _ledger(4, done=done)
        granted = set()
        for k in range(2):
            _, lease = led.request("w0", 0, now=float(k))
            granted.add(lease.index)
        assert granted == {1, 3}
        assert led.request("w1", 0, now=3.0)[0] == "wait"

    def test_home_shard_first_then_steal_from_fullest(self):
        led = _ledger(4, shards=[[0, 1], [2, 3]])
        _, first = led.request("w1", 1, now=0.0)
        assert first.index in (2, 3)  # home shard drained first
        _, second = led.request("w1", 1, now=0.0)
        assert second.index in (2, 3)
        _, stolen = led.request("w1", 1, now=0.0)
        assert stolen.index in (0, 1)  # idle worker steals

    def test_shards_must_cover_every_index(self):
        with pytest.raises(ValueError, match="cover"):
            _ledger(4, shards=[[0, 1], [3]])

    def test_bitmap_tile_length_mismatch(self):
        plan = TilePlan(total_nx=16, total_ny=16, tile_nx=8, tile_ny=8)
        with pytest.raises(ValueError, match="bits"):
            LeaseLedger(np.zeros(3, dtype=bool), plan.tiles())


# ---------------------------------------------------------------------------
# coordinator/worker end-to-end
# ---------------------------------------------------------------------------
def _problem(n, tile, seed, cl=20.0):
    grid = Grid2D(nx=n, ny=n, lx=float(n), ly=float(n))
    spectrum = GaussianSpectrum(h=1.0, clx=cl, cly=cl)
    gen = ConvolutionGenerator(spectrum, grid, truncation=0.9999)
    rebuild = {
        "kind": "convolution",
        "spectrum": spectrum.to_dict(),
        "grid": {"nx": n, "ny": n, "lx": float(n), "ly": float(n)},
        "truncation": 0.9999,
        "engine": "auto",
        "dtype": "float64",
    }
    plan = TilePlan(total_nx=n, total_ny=n, tile_nx=tile, tile_ny=tile)
    return gen, rebuild, BlockNoise(seed=seed), plan, grid


def _store_for(tmp_path, name, n, tile, grid):
    return SurfaceStore.create(
        tmp_path / name, shape=(n, n), chunk=(tile, tile),
        dx=grid.dx, dy=grid.dy, meta={},
    )


class TestDistEndToEnd:
    def test_two_workers_bit_identical_to_serial_2048(self, tmp_path):
        """The headline gate: a 2048^2 run sharded over two
        process-isolated workers equals the single-host tiled path."""
        gen, rebuild, noise, plan, grid = _problem(2048, 256, seed=11, cl=8.0)
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "dist2048", 2048, 256, grid)
        try:
            surface = generate_dist(rebuild, noise, plan, store, workers=2)
            assert np.array_equal(np.asarray(surface.heights), ref.heights)
            dist = surface.provenance["dist"]
            assert dist["workers"] == 2
            assert dist["lease"]["completed"] == len(plan)
            assert dist["lease"]["pending"] == 0
            assert surface.provenance["store"]["chunks_done"] == len(plan)
        finally:
            store.close()

    def test_backend_dist_via_generate_tiled(self, tmp_path):
        gen, rebuild, noise, plan, grid = _problem(128, 64, seed=5)
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "viabackend", 128, 64, grid)
        try:
            surface = generate_tiled(
                gen, noise, plan, backend="dist", workers=2,
                out=store, rebuild=rebuild,
            )
            assert np.array_equal(np.asarray(surface.heights), ref.heights)
            assert surface.provenance["backend"] == "dist"
        finally:
            store.close()

    def test_backend_dist_requires_store_and_rebuild(self):
        gen, rebuild, noise, plan, _grid = _problem(64, 32, seed=1)
        with pytest.raises(ValueError, match="SurfaceStore"):
            generate_tiled(gen, noise, plan, backend="dist", rebuild=rebuild)

    def test_kill_one_worker_relesases_without_double_writes(self, tmp_path):
        """Crash drill: a kill fault takes down a real worker process
        mid-run; the run completes via re-lease and every chunk is
        completed exactly once (bitmap + completion audit)."""
        gen, rebuild, noise, plan, grid = _problem(128, 32, seed=9)
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "killdrill", 128, 32, grid)
        fault = FaultPlan([FaultSpec(tile=3, attempt=1, kind="kill")])
        try:
            surface = generate_dist(
                rebuild, noise, plan, store, workers=2, fault_plan=fault,
                lease_timeout_s=15.0,
            )
            assert np.array_equal(np.asarray(surface.heights), ref.heights)
            lease = surface.provenance["dist"]["lease"]
            assert lease["pending"] == 0
            assert lease["completed"] == len(plan)
            # the killed worker never reported tile 3, so no tile may
            # have two completion reports — no double-written chunks
            assert lease["duplicates"] == 0
            assert lease["worker_releases"] >= 1
            assert bool(store.done.all())
        finally:
            store.close()

    def test_resume_off_bitmap_skips_done_chunks(self, tmp_path):
        """A second coordinator over a half-finished store leases only
        the bitmap's complement and lands bit-identical."""
        gen, rebuild, noise, plan, grid = _problem(128, 32, seed=4)
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "resume", 128, 32, grid)
        # first pass: one in-process worker computes half the tiles
        half = len(plan) // 2
        spec = GenerationSpec(generator=rebuild, seed=4,
                              plan={"total_nx": 128, "total_ny": 128,
                                    "tile_nx": 32, "tile_ny": 32},
                              store_path=str(store.path), access="shared")
        coord = Coordinator(spec, plan, store, lease_timeout_s=30.0)
        host, port = coord.start()
        t = threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"max_tiles": half}, daemon=True,
        )
        t.start()
        t.join(timeout=60.0)
        assert not t.is_alive()
        # end the first pass; serve persists progress before re-raising
        coord.abort(RuntimeError("first pass over"))
        with pytest.raises(RuntimeError, match="first pass"):
            coord.serve(timeout=10.0)
        store.close()

        reopened = SurfaceStore.open(tmp_path / "resume", "r+")
        try:
            assert reopened.done.sum() == half
            remaining = len(plan) - half
            surface = generate_dist(rebuild, noise, plan, reopened,
                                    workers=2)
            lease = surface.provenance["dist"]["lease"]
            assert lease["granted"] == remaining
            assert lease["completed"] == remaining
            assert np.array_equal(np.asarray(surface.heights), ref.heights)
        finally:
            reopened.close()

    def test_ship_mode_bit_identical(self, tmp_path):
        """``access="ship"``: workers have no store; heights travel as
        binary frames and the coordinator writes them."""
        gen, rebuild, noise, plan, grid = _problem(96, 32, seed=6)
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "shipmode", 96, 32, grid)
        spec = GenerationSpec(generator=rebuild, seed=6,
                              plan={"total_nx": 96, "total_ny": 96,
                                    "tile_nx": 32, "tile_ny": 32},
                              access="ship", store_path=None)
        coord = Coordinator(spec, plan, store, n_shards=2)
        host, port = coord.start()
        threads = [
            threading.Thread(target=run_worker, args=(host, port),
                             daemon=True)
            for _ in range(2)
        ]
        try:
            for t in threads:
                t.start()
            summary = coord.serve(timeout=120.0)
            assert summary["lease"]["pending"] == 0
            heights = store.heights("r")
            assert np.array_equal(np.asarray(heights), ref.heights)
            assert bool(store.done.all())
        finally:
            for t in threads:
                t.join(timeout=10.0)
            store.close()

    def test_kernel_halo_exceeding_tile_size(self, tmp_path):
        """Tiny tiles under a large kernel (halo > tile edge on both
        axes) still shard and reassemble bit-identically."""
        gen, rebuild, noise, plan, grid = _problem(64, 16, seed=8, cl=20.0)
        assert max(gen.kernel.shape) > 16  # the premise: halo > tile
        ref = generate_tiled(gen, noise, plan, backend="serial")
        store = _store_for(tmp_path, "bighalo", 64, 16, grid)
        try:
            surface = generate_dist(rebuild, noise, plan, store, workers=2)
            assert np.array_equal(np.asarray(surface.heights), ref.heights)
        finally:
            store.close()

    def test_protocol_mismatch_is_refused(self, tmp_path):
        gen, rebuild, noise, plan, grid = _problem(64, 32, seed=2)
        store = _store_for(tmp_path, "mismatch", 64, 32, grid)
        spec = GenerationSpec(generator=rebuild, seed=2,
                              plan={"total_nx": 64, "total_ny": 64,
                                    "tile_nx": 32, "tile_ny": 32},
                              store_path=str(store.path), access="shared")
        coord = Coordinator(spec, plan, store)
        host, port = coord.start()
        try:
            with socket.create_connection((host, port), timeout=5.0) as s:
                s.settimeout(5.0)
                protocol.send_json(s, {"type": "hello",
                                       "protocol": "repro.dist/v0"})
                reply = protocol.recv_json(s)
                assert reply["type"] == "abort"
                assert "protocol mismatch" in reply["error"]
        finally:
            coord.abort(RuntimeError("test over"))
            with pytest.raises(RuntimeError):
                coord.serve(timeout=5.0)
            store.close()

    def test_handler_is_started_before_shutdown_can_join_it(
            self, tmp_path, monkeypatch):
        """A worker accepted just as the run ends must not crash the
        shutdown: a handler is listed for joining only once started."""
        gen, rebuild, noise, plan, grid = _problem(64, 32, seed=2)
        store = _store_for(tmp_path, "late", 64, 32, grid)
        spec = GenerationSpec(generator=rebuild, seed=2,
                              plan={"total_nx": 64, "total_ny": 64,
                                    "tile_nx": 32, "tile_ny": 32},
                              store_path=str(store.path), access="shared")
        coord = Coordinator(spec, plan, store)
        listed_at_start = []
        real_start = threading.Thread.start

        def start(thread):
            if thread.name.startswith("dist-client-"):
                listed_at_start.append(thread in coord._handlers)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        host, port = coord.start()
        try:
            with socket.create_connection((host, port), timeout=5.0) as s:
                s.settimeout(5.0)
                protocol.send_json(s, {"type": "hello",
                                       "protocol": "repro.dist/v0"})
                assert protocol.recv_json(s)["type"] == "abort"
        finally:
            coord.abort(RuntimeError("test over"))
            with pytest.raises(RuntimeError):
                coord.serve(timeout=5.0)
            store.close()
        assert listed_at_start == [False]


# ---------------------------------------------------------------------------
# CLI validation (satellite: --workers must be positive everywhere)
# ---------------------------------------------------------------------------
class TestCLIValidation:
    @pytest.mark.parametrize("argv", [
        ["generate", "--cl", "20", "--workers", "0"],
        ["generate", "--cl", "20", "--workers", "-2"],
        ["figure", "fig3", "--workers", "0"],
        ["job", "run", "--cl", "20", "--checkpoint", "x", "--tile", "16",
         "--workers", "0"],
        ["job", "resume", "ckpt", "--workers", "0"],
        ["dist", "coordinator", "--cl", "20", "--tile", "16",
         "--store", "s", "--workers", "0"],
        ["dist", "coordinator", "--cl", "20", "--tile", "0", "--store", "s"],
        ["dist", "worker", "--connect", "h:1", "--max-tiles", "0"],
    ])
    def test_nonpositive_workers_rejected(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "positive integer" in capsys.readouterr().err

    def test_workers_fractional_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["generate", "--cl", "20", "--workers", "1.5"])
        assert exc.value.code == 2

    def test_generate_dist_requires_store(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--store"):
            main(["generate", "--cl", "20", "--n", "32", "--domain", "32",
                  "--tile", "16", "--backend", "dist"])

    def test_generate_dist_requires_tile(self):
        # without --tile the one-shot path would silently ignore the
        # backend — a "distributed" run on one process
        from repro.cli import main

        with pytest.raises(SystemExit, match="--tile"):
            main(["generate", "--cl", "20", "--n", "32", "--domain", "32",
                  "--backend", "dist"])

    def test_figure_rejects_dist_backend(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="job run"):
            main(["figure", "fig3", "--backend", "dist"])

    def test_worker_rejects_malformed_connect(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["dist", "worker", "--connect", "nocolon"])
