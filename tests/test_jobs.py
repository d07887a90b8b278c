"""Tests for the fault-tolerant checkpoint/resume job layer (repro.jobs).

Covers the retry policy, deterministic fault injection, the resilient
executor (retries, worker-crash respawn, backend degradation), the
``repro.jobs/v1`` checkpoint format, and — the headline contract —
resume-to-bit-identical-heights for both tiled and strip jobs across all
execution backends.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spec import GenerationSpec
from repro.core.spectra import GaussianSpectrum
from repro.jobs import (
    FailureBudgetExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobCheckpoint,
    PoolRespawnLimit,
    RetryPolicy,
    TileFailedError,
    generator_fingerprint,
    resume,
    run_spec,
    run_tiled,
    status,
    strip_plan,
)
from repro.parallel import (
    TilePlan,
    assemble_strips,
    generate_tiled,
    stream_strips,
)

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
    """The uninterrupted serial run every resilient run must reproduce."""
    return generate_tiled(gen, noise, plan, backend="serial").heights


class TestRetryPolicy:
    def test_delay_schedule(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=0.35)
        assert p.delay(0) == 0.0
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.35)  # capped
        assert p.delay(10) == pytest.approx(0.35)

    def test_round_trip(self):
        p = RetryPolicy(max_attempts=5, failure_budget=7, degrade=False)
        assert RetryPolicy.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base": -1.0},
        {"backoff_factor": 0.5},
        {"failure_budget": -1},
        {"max_respawns": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_parse(self):
        fp = FaultPlan.parse([
            "tile=3,attempt=2,kind=kill",
            "tile=0,kind=delay,delay=0.25",
            "tile=1",
        ])
        assert fp.lookup(3, 2) == FaultSpec(tile=3, attempt=2, kind="kill")
        assert fp.lookup(0, 1).delay_s == 0.25
        assert fp.lookup(1, 1).kind == "raise"
        assert fp.lookup(1, 2) is None

    @pytest.mark.parametrize("text", [
        "attempt=1",          # missing tile
        "tile=1,shape=oval",  # unknown key
        "tile",               # not key=value
        "tile=1,kind=melt",   # unknown kind
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse([text])

    def test_fire_raise(self):
        fp = FaultPlan.of(FaultSpec(tile=2))
        fp.fire(0, 1)  # not scheduled: no-op
        with pytest.raises(InjectedFault):
            fp.fire(2, 1)

    def test_kill_inert_in_parent(self):
        # In the parent process a kill fault must be a no-op — the test
        # process surviving this call is the assertion.
        FaultPlan.of(FaultSpec(tile=0, kind="kill")).fire(0, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(tile=-1)
        with pytest.raises(ValueError):
            FaultSpec(tile=0, attempt=0)


@pytest.mark.faults
class TestResilientExecutor:
    def test_serial_retry_recovers(self, gen, noise, plan, reference):
        fp = FaultPlan.of(FaultSpec(tile=1, attempt=1))
        out = generate_tiled(gen, noise, plan, backend="serial",
                             retry=FAST, fault_plan=fp)
        assert np.array_equal(out.heights, reference)
        assert out.provenance["resilience"]["retries"] == 1

    def test_thread_retry_recovers(self, gen, noise, plan, reference):
        fp = FaultPlan.of(FaultSpec(tile=0, attempt=1),
                          FaultSpec(tile=3, attempt=1))
        out = generate_tiled(gen, noise, plan, backend="thread", workers=2,
                             retry=FAST, fault_plan=fp)
        assert np.array_equal(out.heights, reference)
        assert out.provenance["resilience"]["retries"] == 2

    def test_max_attempts_exhausted(self, gen, noise, plan):
        fp = FaultPlan.of(*(FaultSpec(tile=2, attempt=a)
                            for a in (1, 2, 3)))
        with pytest.raises(TileFailedError) as exc:
            generate_tiled(gen, noise, plan, backend="serial",
                           retry=FAST, fault_plan=fp)
        assert exc.value.index == 2
        assert exc.value.failures == 3

    def test_failure_budget(self, gen, noise, plan):
        fp = FaultPlan.of(FaultSpec(tile=0, attempt=1),
                          FaultSpec(tile=1, attempt=1),
                          FaultSpec(tile=2, attempt=1))
        policy = RetryPolicy(max_attempts=5, backoff_base=0.0,
                             failure_budget=2)
        with pytest.raises(FailureBudgetExceeded):
            generate_tiled(gen, noise, plan, backend="serial",
                           retry=policy, fault_plan=fp)

    def test_process_kill_respawns_bit_identical(self, gen, noise, plan,
                                                 reference):
        fp = FaultPlan.of(FaultSpec(tile=1, attempt=1, kind="kill"))
        out = generate_tiled(gen, noise, plan, backend="process", workers=2,
                             retry=FAST, fault_plan=fp)
        assert np.array_equal(out.heights, reference)
        res = out.provenance["resilience"]
        assert res["respawns"] >= 1
        assert res["degraded_to"] is None

    def test_process_degrades_to_thread(self, gen, noise, plan, reference):
        # Kill tile 1 on every attempt: the pool breaks until the respawn
        # budget is spent, then the run degrades to the thread backend
        # where kill faults are inert — and the values are unchanged.
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a, kind="kill")
                            for a in range(1, 8)))
        policy = RetryPolicy(backoff_base=0.0, max_respawns=1)
        out = generate_tiled(gen, noise, plan, backend="process", workers=2,
                             retry=policy, fault_plan=fp)
        assert np.array_equal(out.heights, reference)
        res = out.provenance["resilience"]
        assert res["degraded_to"] == "thread"
        assert res["respawns"] == 1

    def test_no_degrade_raises(self, gen, noise, plan):
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a, kind="kill")
                            for a in range(1, 8)))
        policy = RetryPolicy(backoff_base=0.0, max_respawns=0,
                             degrade=False)
        with pytest.raises(PoolRespawnLimit):
            generate_tiled(gen, noise, plan, backend="process", workers=2,
                           retry=policy, fault_plan=fp)

    @pytest.mark.parametrize("max_respawns", [0, 1])
    def test_respawns_count_respawns_not_breaks(self, gen, noise, plan,
                                                reference, max_respawns):
        # every pool break past the budget ends the process backend; a
        # break the budget covers is one respawn — never one more
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a, kind="kill")
                            for a in range(1, 8)))
        strict = RetryPolicy(backoff_base=0.0, max_respawns=max_respawns,
                             degrade=False)
        with pytest.raises(PoolRespawnLimit,
                           match=rf"after {max_respawns} respawn\(s\)"):
            generate_tiled(gen, noise, plan, backend="process", workers=2,
                           retry=strict, fault_plan=fp)
        out = generate_tiled(
            gen, noise, plan, backend="process", workers=2,
            retry=RetryPolicy(backoff_base=0.0, max_respawns=max_respawns),
            fault_plan=fp)
        assert np.array_equal(out.heights, reference)
        assert out.provenance["resilience"]["respawns"] == max_respawns
        assert out.provenance["resilience"]["degraded_to"] == "thread"

    def test_skip_preserves_out(self, gen, noise, plan, reference):
        # Skipped tiles must keep whatever ``out`` already holds — the
        # resume contract.
        out = np.full((N, N), 7.25)
        surface = generate_tiled(gen, noise, plan, backend="serial",
                                 out=out, skip=[0])
        tile0 = plan.tiles()[0]
        assert np.all(
            surface.heights[:tile0.nx, :tile0.ny] == 7.25
        )
        assert np.array_equal(surface.heights[TILE:], reference[TILE:])
        assert surface.provenance["resilience"]["tiles_skipped"] == 1

    def test_skip_rejects_bad_index(self, gen, noise, plan):
        with pytest.raises(ValueError):
            generate_tiled(gen, noise, plan, backend="serial", skip=[99])

    def test_on_tile_ordering(self, gen, noise, plan):
        seen = []
        generate_tiled(gen, noise, plan, backend="serial",
                       on_tile=lambda idx, tile: seen.append(idx))
        assert seen == [0, 1, 2, 3]

    def test_out_validation(self, gen, noise, plan):
        with pytest.raises(ValueError):
            generate_tiled(gen, noise, plan,
                           out=np.zeros((N, N), dtype=np.float32),
                           skip=[])
        with pytest.raises(ValueError):
            generate_tiled(gen, noise, plan, out=np.zeros((N, N + 1)))


class TestCheckpoint:
    def test_create_load_round_trip(self, tmp_path, gen, noise, plan):
        ckpt = JobCheckpoint.create(
            tmp_path / "job", kind="tiled", plan=plan, noise=noise,
            backend="serial", workers=None, retry=FAST, generator=gen,
        )
        # a job given no store writes through its own
        ckpt.store.write_chunk(0, np.full((TILE, TILE), 3.5))
        ckpt.store.persist_progress()
        ckpt.write()
        loaded = JobCheckpoint.load(tmp_path / "job")
        assert loaded.done_indices() == [0]
        assert np.all(loaded.store.heights()[:TILE, :TILE] == 3.5)
        assert loaded.retry == FAST
        assert loaded.noise.seed == noise.seed
        assert loaded.plan.tiles() == plan.tiles()
        assert loaded.status == "running"

    def test_create_refuses_existing(self, tmp_path, gen, noise, plan):
        kwargs = dict(kind="tiled", plan=plan, noise=noise,
                      backend="serial", workers=None, retry=None,
                      generator=gen)
        JobCheckpoint.create(tmp_path / "job", **kwargs)
        with pytest.raises(FileExistsError):
            JobCheckpoint.create(tmp_path / "job", **kwargs)

    def test_running_job_with_dead_owner_is_stale(self, tmp_path, gen,
                                                  noise, plan):
        import socket
        import subprocess
        import sys

        ckpt = JobCheckpoint.create(
            tmp_path / "job", kind="tiled", plan=plan, noise=noise,
            backend="serial", workers=None, retry=None, generator=gen,
        )
        owner = ckpt.manifest["owner"]
        assert owner == {"host": socket.gethostname(), "pid": os.getpid()}
        assert status(tmp_path / "job")["status"] == "running"
        # a reaped child's pid is gone
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        manifest_path = tmp_path / "job" / "manifest.json"
        for host, expected in ((owner["host"], "stale"),
                               ("another-host", "running")):
            manifest = json.loads(manifest_path.read_text())
            manifest["owner"] = {"host": host, "pid": dead.pid}
            manifest_path.write_text(json.dumps(manifest))
            assert status(tmp_path / "job")["status"] == expected
        # only a running manifest can go stale
        ckpt.write(status="failed")
        assert status(tmp_path / "job")["status"] == "failed"

    def test_resumed_job_reads_running(self, tmp_path, gen, noise, plan):
        path = tmp_path / "job"
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a)
                            for a in range(1, 4)))
        with pytest.raises(TileFailedError):
            run_tiled(gen, noise, plan, checkpoint=path, retry=FAST,
                      fault_plan=fp)
        assert status(path)["status"] == "failed"
        seen = []

        def on_tile(index, tile):
            seen.append(status(path)["status"])

        resume(path, gen, on_tile=on_tile)
        assert seen and set(seen) == {"running"}
        assert status(path)["status"] == "complete"

    def test_load_rejects_foreign_format(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "somebody-else/v9"})
        )
        with pytest.raises(ValueError, match="format"):
            JobCheckpoint.load(tmp_path)

    def test_load_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            JobCheckpoint.load(tmp_path / "nowhere")

    def test_fingerprint_stability(self, gen):
        assert generator_fingerprint(gen) == generator_fingerprint(_gen())
        other = ConvolutionGenerator(
            GaussianSpectrum(h=2.0, clx=10.0, cly=10.0),
            Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
        )
        assert generator_fingerprint(gen) != generator_fingerprint(other)


@pytest.mark.faults
class TestResumeDeterminism:
    def _interrupt(self, tmp_path, gen, noise, plan):
        """Start a job that dies after two tiles; return its checkpoint."""
        fp = FaultPlan.of(*(FaultSpec(tile=2, attempt=a)
                            for a in range(1, 4)))
        path = tmp_path / "job"
        with pytest.raises(TileFailedError):
            run_tiled(gen, noise, plan, checkpoint=path, retry=FAST,
                      fault_plan=fp)
        assert status(path)["status"] == "failed"
        assert 0 < status(path)["tiles_done"] < len(plan)
        return path

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_kill_resume_bit_identical(self, tmp_path, gen, noise, plan,
                                       reference, backend):
        path = self._interrupt(tmp_path, gen, noise, plan)
        surface = resume(path, gen, backend=backend)
        assert np.array_equal(surface.heights, reference)
        job = surface.provenance["job"]
        assert job["resumed"] is True
        assert job["tiles_resumed"] == 2
        assert status(path)["status"] == "complete"

    def test_worker_death_then_resume(self, tmp_path, gen, noise, plan,
                                      reference):
        # Interrupt a *process* run via worker kills that exhaust the
        # respawn budget with degradation off, then resume on a fresh
        # process pool.
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a, kind="kill")
                            for a in range(1, 8)))
        policy = RetryPolicy(backoff_base=0.0, max_respawns=0,
                             degrade=False)
        path = tmp_path / "job"
        with pytest.raises(PoolRespawnLimit):
            run_tiled(gen, noise, plan, checkpoint=path,
                      backend="process", workers=2,
                      retry=policy, fault_plan=fp)
        st = status(path)
        assert st["status"] == "failed"
        surface = resume(path, gen, backend="process", retry=FAST)
        assert np.array_equal(surface.heights, reference)

    def test_resume_completed_job(self, tmp_path, gen, noise, plan,
                                  reference):
        path = tmp_path / "job"
        run_tiled(gen, noise, plan, checkpoint=path)
        surface = resume(path, gen)
        assert np.array_equal(surface.heights, reference)
        assert surface.provenance["job"]["tiles_resumed"] == len(plan)

    def test_resume_rejects_wrong_generator(self, tmp_path, gen, noise,
                                            plan):
        path = self._interrupt(tmp_path, gen, noise, plan)
        other = ConvolutionGenerator(
            GaussianSpectrum(h=2.0, clx=10.0, cly=10.0),
            Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
        )
        with pytest.raises(ValueError, match="fingerprint"):
            resume(path, other)

    def test_resume_from_rebuild_recipe(self, tmp_path, gen, noise, plan,
                                        reference):
        """A checkpoint written before jobs recorded their spec holds a
        bare ``rebuild`` recipe (and its store no spec); it still
        resumes, to the same bytes, and is rewritten once in the
        current shape."""
        spec = GenerationSpec(
            generator={
                "kind": "convolution",
                "spectrum": gen.spectrum.to_dict(),
                "grid": {"nx": N, "ny": N, "lx": float(N), "ly": float(N)},
                "engine": gen.engine,
            },
            seed=noise.seed,
            plan={"total_nx": N, "total_ny": N,
                  "tile_nx": TILE, "tile_ny": TILE},
        )
        fp = FaultPlan.of(*(FaultSpec(tile=2, attempt=a)
                            for a in range(1, 4)))
        path = tmp_path / "job"
        with pytest.raises(TileFailedError):
            run_spec(spec, checkpoint=path, retry=FAST, fault_plan=fp)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["rebuild"] = manifest.pop("spec")["generator"]
        manifest_path.write_text(json.dumps(manifest))
        store_manifest = path / "store" / "manifest.json"
        doc = json.loads(store_manifest.read_text())
        doc["meta"] = {}
        store_manifest.write_text(json.dumps(doc))
        assert 0 < status(path)["tiles_done"] < len(plan)

        surface = resume(path)  # generator built from the legacy recipe
        assert np.array_equal(surface.heights, reference)
        manifest = json.loads(manifest_path.read_text())
        assert "rebuild" not in manifest
        assert manifest["spec"]["generator"] == spec.generator
        assert manifest["spec"]["seed"] == noise.seed

    def test_resume_without_recipe_needs_generator(self, tmp_path, gen,
                                                   noise, plan):
        path = self._interrupt(tmp_path, gen, noise, plan)
        with pytest.raises(ValueError, match="records no spec"):
            resume(path)

    def test_float32_job_resumes_bit_identical(self, tmp_path, noise,
                                               plan):
        # regression: the checkpoint must allocate (and reload) its live
        # array in the generator's precision, or the executor rejects it
        # as an out= target and a float32 job can neither run nor resume
        g32 = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
            Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
            dtype="float32",
        )
        reference32 = generate_tiled(g32, noise, plan,
                                     backend="serial").heights
        assert reference32.dtype == np.float32
        path = self._interrupt(tmp_path, g32, noise, plan)
        surface = resume(path, g32)
        assert surface.heights.dtype == np.float32
        assert np.array_equal(surface.heights, reference32)

    def test_fingerprint_distinguishes_precision(self, gen):
        g32 = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
            Grid2D(nx=N, ny=N, lx=float(N), ly=float(N)),
            dtype="float32",
        )
        # a float32 checkpoint must refuse a float64 generator (and vice
        # versa); the default precision keeps the pre-dtype digest
        assert generator_fingerprint(gen) != generator_fingerprint(g32)


@pytest.mark.faults
class TestStripJobs:
    STRIP = 40  # does not divide N: exercises the clipped final strip

    def test_matches_stream_strips(self, tmp_path, gen, noise):
        streamed = assemble_strips(
            stream_strips(gen, noise, N, TILE, self.STRIP)
        )
        surface = run_tiled(gen, noise, strip_plan(N, TILE, self.STRIP),
                            checkpoint=tmp_path / "job")
        assert np.array_equal(surface.heights, streamed.heights)
        assert surface.provenance["tiles"] == len(
            strip_plan(N, TILE, self.STRIP)
        )

    def test_strip_resume_bit_identical(self, tmp_path, gen, noise):
        streamed = assemble_strips(
            stream_strips(gen, noise, N, TILE, self.STRIP)
        )
        fp = FaultPlan.of(*(FaultSpec(tile=1, attempt=a)
                            for a in range(1, 4)))
        path = tmp_path / "job"
        with pytest.raises(TileFailedError):
            run_tiled(gen, noise, strip_plan(N, TILE, self.STRIP),
                      checkpoint=path, retry=FAST, fault_plan=fp)
        st = status(path)
        # a strip job is a tiled job on the strip plan
        assert st["kind"] == "tiled"
        assert st["status"] == "failed"
        surface = resume(path, gen)
        assert np.array_equal(surface.heights, streamed.heights)

    def test_strip_plan_geometry(self):
        plan = strip_plan(100, 64, 48, x0=10, y0=-4)
        tiles = plan.tiles()
        assert [t.nx for t in tiles] == [48, 48, 4]
        assert all(t.ny == 64 for t in tiles)
        assert tiles[0].x0 == 10 and tiles[0].y0 == -4


class TestJobStatus:
    def test_summary_keys(self, tmp_path, gen, noise, plan):
        path = tmp_path / "job"
        run_tiled(gen, noise, plan, checkpoint=path)
        st = status(path)
        assert st["format"] == "repro.jobs/v1"
        assert st["kind"] == "tiled"
        assert st["status"] == "complete"
        assert st["tiles_done"] == st["tiles_total"] == len(plan)
        assert st["fraction_done"] == 1.0
        assert st["generator"]["fingerprint"] == generator_fingerprint(gen)
        assert st["error"] is None
        json.dumps(st)  # must stay JSON-serialisable for the CLI


class TestStreamAccounting:
    """Regression tests for the strip-stream emitted/off-by-one fix."""

    class _Flaky:
        """Windowed generator that fails the first ``fail`` calls."""

        def __init__(self, inner, fail):
            self.inner = inner
            self.grid = inner.grid
            self.engine = inner.engine
            self.remaining = fail

        def noise_window(self, x0, y0, nx, ny):
            return self.inner.noise_window(x0, y0, nx, ny)

        def generate_window(self, noise, x0, y0, nx, ny, **kwargs):
            if self.remaining > 0:
                self.remaining -= 1
                raise RuntimeError("flaky window")
            return self.inner.generate_window(noise, x0, y0, nx, ny,
                                              **kwargs)

    def test_failed_strip_is_retried_not_skipped(self, gen, noise):
        from repro.parallel import StripStream

        clean = list(StripStream(gen, noise, width_ny=TILE, strip_nx=32,
                                 n_strips=3))
        flaky = self._Flaky(gen, fail=1)
        stream = StripStream(flaky, noise, width_ny=TILE, strip_nx=32,
                             n_strips=3)
        with pytest.raises(RuntimeError):
            next(stream)
        # the failed strip was NOT counted as emitted...
        assert stream.emitted == 0
        assert stream.next_index == 0
        strips = list(stream)
        # ...so the retry re-produces strip 0 and nothing is skipped
        assert len(strips) == 3
        for got, want in zip(strips, clean):
            assert np.array_equal(got.heights, want.heights)
            assert got.origin == want.origin
        # the failed loop's prefetch helper and the retry's are both gone
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-noise-prefetch")]

    def test_start_index_resumes_mid_stream(self, gen, noise):
        from repro.parallel import StripStream

        full = list(StripStream(gen, noise, width_ny=TILE, strip_nx=32,
                                n_strips=4))
        tail = StripStream(gen, noise, width_ny=TILE, strip_nx=32,
                           n_strips=2, start_index=2)
        assert tail.next_index == 2
        strips = list(tail)
        assert tail.emitted == 2
        for got, want in zip(strips, full[2:]):
            assert np.array_equal(got.heights, want.heights)
            assert got.provenance["strip_index"] == \
                want.provenance["strip_index"]

    def test_strip_provenance_records_noise(self, gen, noise):
        strip = next(iter(stream_strips(gen, noise, 32, TILE, 32)))
        prov = strip.provenance
        assert prov["noise_seed"] == noise.seed
        assert prov["noise_block"] == noise.block
        assert prov["window"] == [0, 0, 32, TILE]
        assert prov["strip_index"] == 0
