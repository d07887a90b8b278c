"""Unit tests for the engine perf-regression gate script.

The gate itself runs in tier-2 CI against real bench output; these tests
pin its decision logic and exit codes against synthetic result rows so a
broken gate cannot silently wave regressions through.
"""

import importlib.util
import json
import math
import threading
from pathlib import Path

import pytest

_GATE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks"
    / "check_engine_gate.py"
)
_spec = importlib.util.spec_from_file_location("check_engine_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _results(fft=1.0, legacy=1.0, spatial_est=100.0, speedup=None,
             dev_legacy=1e-15, dev_spatial=1e-15):
    return {
        "timings_s": {
            "fft_tiled": fft,
            "legacy_fftconvolve_tiled": legacy,
            "spatial_estimated_tiled": spatial_est,
        },
        "speedup_fft_vs_spatial": (
            spatial_est / fft if speedup is None else speedup
        ),
        "max_abs_dev_fft_vs_legacy": dev_legacy,
        "max_abs_dev_fft_vs_spatial_sample": dev_spatial,
    }


def _inhomo_results(batched=1.0, per_region=4.0, speedup=None,
                    dev_spatial=1e-15, homog_ratio=1.0):
    return {
        "timings_s": {
            "batched_tiled": batched,
            "per_region_tiled": per_region,
        },
        "speedup_batched_vs_per_region": (
            per_region / batched if speedup is None else speedup
        ),
        "max_abs_dev_batched_vs_spatial_sample": dev_spatial,
        "homogeneous_ratio": homog_ratio,
    }


def _write_pair(tmp_path, results=None, inhomo=None):
    """Write both gate inputs; return CLI argv selecting them.

    The live measurements (obs/jobs/store overheads, dtype speedup,
    dist scaling, circulant throughput) are skipped: these tests pin the gate's
    decision logic against synthetic rows, and the live timings are
    both slow and machine-noise sensitive (they run for real in the
    tier-2 standalone gate invocation, in a fresh process).
    """
    engine_path = tmp_path / "engine_fft.json"
    engine_path.write_text(json.dumps(_results() if results is None
                                      else results))
    inhomo_path = tmp_path / "inhomo_batch.json"
    inhomo_path.write_text(json.dumps(_inhomo_results() if inhomo is None
                                      else inhomo))
    return [str(engine_path), "--inhomo-results", str(inhomo_path),
            "--skip-obs-overhead", "--skip-jobs-overhead",
            "--skip-store-overhead", "--skip-dtype-speedup",
            "--skip-dist", "--skip-telemetry", "--skip-serve",
            "--skip-circulant", "--skip-verify", "--skip-noise-reuse"]


class TestCheck:
    def test_clean_results_pass(self):
        assert gate.check(_results(), 1.10, 3.0, 1e-10) == []

    def test_default_path_slowdown_fails(self):
        failures = gate.check(_results(fft=1.2, legacy=1.0), 1.10, 3.0, 1e-10)
        assert len(failures) == 1
        assert "default path regressed" in failures[0]

    def test_slowdown_within_margin_passes(self):
        assert gate.check(_results(fft=1.09, legacy=1.0), 1.10, 3.0,
                          1e-10) == []

    def test_insufficient_speedup_fails(self):
        failures = gate.check(_results(speedup=2.5), 1.10, 3.0, 1e-10)
        assert any("speedup" in f for f in failures)

    def test_deviation_fails(self):
        failures = gate.check(_results(dev_legacy=1e-8), 1.10, 3.0, 1e-10)
        assert any("max_abs_dev_fft_vs_legacy" in f for f in failures)

    def test_nan_deviation_fails(self):
        # NaN must not satisfy "<= bound"
        failures = gate.check(_results(dev_spatial=math.nan), 1.10, 3.0,
                              1e-10)
        assert any("max_abs_dev_fft_vs_spatial_sample" in f
                   for f in failures)

    def test_multiple_failures_reported_together(self):
        failures = gate.check(
            _results(fft=2.0, legacy=1.0, speedup=1.0, dev_legacy=1.0),
            1.10, 3.0, 1e-10,
        )
        assert len(failures) == 3


class TestCheckInhomo:
    def test_clean_results_pass(self):
        assert gate.check_inhomo(_inhomo_results(), 2.0, 1e-10, 1.10) == []

    def test_insufficient_batch_speedup_fails(self):
        failures = gate.check_inhomo(_inhomo_results(speedup=1.7), 2.0,
                                     1e-10, 1.10)
        assert len(failures) == 1
        assert "batched multi-region speedup" in failures[0]

    def test_nan_batch_speedup_fails(self):
        failures = gate.check_inhomo(_inhomo_results(speedup=math.nan),
                                     2.0, 1e-10, 1.10)
        assert any("speedup" in f for f in failures)

    def test_deviation_fails(self):
        failures = gate.check_inhomo(_inhomo_results(dev_spatial=1e-8),
                                     2.0, 1e-10, 1.10)
        assert any("max_abs_dev_batched_vs_spatial_sample" in f
                   for f in failures)

    def test_homogeneous_regression_fails(self):
        failures = gate.check_inhomo(_inhomo_results(homog_ratio=1.25),
                                     2.0, 1e-10, 1.10)
        assert any("homogeneous default path regressed" in f
                   for f in failures)

    def test_multiple_failures_reported_together(self):
        failures = gate.check_inhomo(
            _inhomo_results(speedup=1.0, dev_spatial=1.0, homog_ratio=2.0),
            2.0, 1e-10, 1.10,
        )
        assert len(failures) == 3


def _noise_row(blocks_drawn=324, verify_passed=True):
    return {"traced_wall_s": 1.8, "rng_noise_s": 0.2, "rng_prefetch_s": 1.0,
            "blocks_requested": 1024, "blocks_drawn": blocks_drawn,
            "blocks_prefetched": blocks_drawn - 10,
            "blocks_reused": 1024 - 10,
            "verify_passed": verify_passed}


class TestCheckNoiseReuse:
    def test_one_window_cache_count_passes(self):
        assert gate.check_noise_reuse(_noise_row()) == []

    def test_bound_is_inclusive(self):
        row = _noise_row(gate.NOISE_MAX_BLOCKS_DRAWN)
        assert gate.check_noise_reuse(row) == []

    def test_one_block_over_fails(self):
        row = _noise_row(gate.NOISE_MAX_BLOCKS_DRAWN + 1)
        assert len(gate.check_noise_reuse(row)) == 1

    def test_redrawing_every_block_fails(self):
        failures = gate.check_noise_reuse(_noise_row(1024))
        assert len(failures) == 1 and "1024" in failures[0]

    def test_nan_count_fails(self):
        assert len(gate.check_noise_reuse(_noise_row(math.nan))) == 1

    def test_red_verify_fails(self):
        failures = gate.check_noise_reuse(_noise_row(verify_passed=False))
        assert len(failures) == 1 and "verification" in failures[0]

    def test_helper_thread_draws_are_counted(self, monkeypatch):
        """The row gates ``rng.blocks_drawn``; the serial loop's prefetch
        helper draws most blocks, so its draws must land there too."""
        from repro import obs
        from repro.core.convolution import ConvolutionGenerator
        from repro.core.grid import Grid2D
        from repro.core.rng import BlockNoise
        from repro.core.spectra import GaussianSpectrum
        from repro.parallel import generate_tiled
        from repro.parallel.tiles import TilePlan

        draws = {"main": 0, "helper": 0}
        helper_drew = threading.Event()
        draw = BlockNoise._block_values

        def counted(self, bx, by):
            main = threading.current_thread() is threading.main_thread()
            draws["main" if main else "helper"] += 1
            if not main:
                helper_drew.set()
            return draw(self, bx, by)

        monkeypatch.setattr(BlockNoise, "_block_values", counted)
        grid = Grid2D(nx=64, ny=64, lx=64.0, ly=64.0)
        gen = ConvolutionGenerator(GaussianSpectrum(h=1.0, clx=6.0, cly=6.0),
                                   grid, truncation=(8, 8))
        tile = gen.generate_window

        def first_tile_waits_for_the_helper(noise, *window):
            assert helper_drew.wait(timeout=60)
            return tile(noise, *window)

        monkeypatch.setattr(gen, "generate_window",
                            first_tile_waits_for_the_helper)
        with obs.recording() as rec:
            generate_tiled(gen, BlockNoise(seed=1, block=16),
                           TilePlan(total_nx=128, total_ny=128,
                                    tile_nx=32, tile_ny=32))
        counters = rec.metrics.counters("rng.")
        assert draws["helper"] > 0
        assert counters["rng.blocks_drawn"] == draws["main"] + draws["helper"]
        assert counters["rng.blocks_prefetched"] == draws["helper"]

    @pytest.mark.parametrize("row, code", [(_noise_row(), 0),
                                           (_noise_row(1024), 1)])
    def test_main_gates_the_row(self, tmp_path, monkeypatch, capsys,
                                row, code):
        monkeypatch.setattr(gate, "measure_noise_reuse", lambda: row)
        argv = _write_pair(tmp_path)
        argv.remove("--skip-noise-reuse")
        out = tmp_path / "noise_reuse.json"
        assert gate.main(argv + ["--noise-results", str(out)]) == code
        assert "noise gate:" in capsys.readouterr().out
        assert (json.loads(out.read_text())["blocks_drawn"]
                == row["blocks_drawn"])


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        assert gate.main(_write_pair(tmp_path)) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_one(self, tmp_path, capsys):
        argv = _write_pair(tmp_path, results=_results(fft=5.0, legacy=1.0))
        assert gate.main(argv) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_inhomo_fail_exit_one(self, tmp_path, capsys):
        argv = _write_pair(tmp_path, inhomo=_inhomo_results(speedup=1.2))
        assert gate.main(argv) == 1
        assert "batched multi-region speedup" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        argv = _write_pair(tmp_path)
        argv[0] = str(tmp_path / "missing.json")
        assert gate.main(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_missing_inhomo_file_exit_two(self, tmp_path, capsys):
        argv = _write_pair(tmp_path)
        argv[2] = str(tmp_path / "missing_inhomo.json")
        assert gate.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "test_bench_inhomo_batch" in err

    def test_threshold_flags(self, tmp_path):
        argv = _write_pair(tmp_path, results=_results(fft=1.5, legacy=1.0))
        assert gate.main(argv) == 1
        assert gate.main(argv + ["--max-slowdown", "2.0"]) == 0

    def test_batch_threshold_flag(self, tmp_path):
        argv = _write_pair(tmp_path, inhomo=_inhomo_results(speedup=1.5))
        assert gate.main(argv) == 1
        assert gate.main(argv + ["--min-batch-speedup", "1.2"]) == 0

    def test_real_bench_output_passes_if_present(self):
        # keep the gate and the bench schema in lockstep: if the benches
        # have been run in this checkout, their real rows must gate
        # clean.  The live timing rows are skipped here: tight
        # percentage budgets (2-5%) measured inside a warm test-suite
        # process flip on page-cache and allocator state left by
        # whatever ran before, which is noise, not regression — the
        # live rows run for real in the standalone tier-2 gate, in a
        # fresh process.
        if not (gate.DEFAULT_RESULTS.exists()
                and gate.DEFAULT_INHOMO_RESULTS.exists()):
            pytest.skip("bench output not present")
        assert gate.main(["--skip-obs-overhead", "--skip-jobs-overhead",
                          "--skip-store-overhead", "--skip-dtype-speedup",
                          "--skip-dist", "--skip-telemetry", "--skip-serve",
                          "--skip-circulant", "--skip-verify",
                          "--skip-noise-reuse"]) == 0
