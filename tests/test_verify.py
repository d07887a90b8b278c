"""Tests for the ``repro.verify`` out-of-core verification subsystem.

The headline contract is the streamed-vs-in-memory differential: the
store-backed verification pass and the in-memory pass execute the
*identical* float64 accumulation, so on a 4096^2 store their metrics
agree bit for bit — asserted here literally, alongside bit-determinism
across repeated runs and a no-materialisation guard (the streamed pass
never touches ``SurfaceStore.heights``).

The smaller unit layers check ``stream_statistics`` against independent
numpy/``repro.stats`` computations of the same quantities, ensemble
input (pooled accumulators, selected by rank), the Hurst-slope gate,
the surface-free closure checks, the report schema round trip (with a
hypothesis property), the error paths, and the ``repro verify`` /
``repro validate --full`` CLI surfaces.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_NOT_GATED, VALIDATION_SPECTRA, main
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.core.spectra_ext import SelfAffineSpectrum
from repro.io.store import SurfaceStore
from repro.parallel import TilePlan, generate_tiled
from repro.stats.spectral import welch_spectrum
from repro.verify import (
    REPORT_NAME,
    VERIFY_SCHEMA,
    MetricResult,
    ReportError,
    VerifyConfig,
    VerifyError,
    VerifyReport,
    choose_segment,
    load_report,
    stream_statistics,
    variance_closure,
    verify_heights,
    verify_job,
    verify_store,
    weight_acf_error,
    write_report,
)

from tests.tolerances import VERIFY_VS_STATS_RTOL

pytestmark = pytest.mark.verify

N_BIG = 4096
TILE_BIG = 1024
SEED_BIG = 42

SPECTRUM = SelfAffineSpectrum(sigma=1.0, hurst=0.8, qr=0.4)


def _array_reader(h):
    def read(x0, y0, wx, wy):
        return h[x0 : x0 + wx, y0 : y0 + wy]

    return read


# ---------------------------------------------------------------------------
# choose_segment
# ---------------------------------------------------------------------------
class TestChooseSegment:
    def test_default_on_reference_workload(self):
        assert choose_segment((N_BIG, N_BIG)) == 256

    def test_halves_until_two_fit(self):
        assert choose_segment((300, 300)) == 128
        assert choose_segment((96, 96)) == 32
        assert choose_segment((512, 96)) == 32  # shorter axis governs

    def test_tiny_surface_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            choose_segment((4, 4096))

    def test_requested_validated(self):
        assert choose_segment((96, 96), 48) == 48
        with pytest.raises(ValueError, match="even"):
            choose_segment((96, 96), 7)
        with pytest.raises(ValueError, match="exceeds"):
            choose_segment((96, 96), 128)


# ---------------------------------------------------------------------------
# stream_statistics vs independent in-memory computations
# ---------------------------------------------------------------------------
class TestStreamStatistics:
    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(7)
        return rng.normal(size=(96, 96)) + 0.3

    def test_moments_match_numpy(self, field):
        raw = stream_statistics(_array_reader(field), field.shape,
                                1.0, 1.0, segment=32)
        assert raw["coverage"] == 1.0
        np.testing.assert_allclose(raw["mean"], field.mean(), rtol=1e-12)
        np.testing.assert_allclose(raw["var"], field.var(), rtol=1e-12)
        np.testing.assert_allclose(raw["rms"], field.std(), rtol=1e-12)

    def test_gradient_matches_numpy_diff(self, field):
        dx, dy = 2.0, 0.5
        raw = stream_statistics(_array_reader(field), field.shape,
                                dx, dy, segment=32)
        gx = np.diff(field, axis=0) / dx
        gy = np.diff(field, axis=1) / dy
        assert raw["grad_pairs"] == (gx.size, gy.size)
        np.testing.assert_allclose(raw["grad_msq_x"], (gx**2).mean(),
                                   rtol=1e-12)
        np.testing.assert_allclose(raw["grad_msq_y"], (gy**2).mean(),
                                   rtol=1e-12)

    def test_acf_matches_direct_pairs(self, field):
        lag = 5
        raw = stream_statistics(_array_reader(field), field.shape,
                                1.0, 1.0, segment=32,
                                acf_lags=((lag, 0), (0, lag)))
        for key, (left, right) in {
            (lag, 0): (field[:-lag, :], field[lag:, :]),
            (0, lag): (field[:, :-lag], field[:, lag:]),
        }.items():
            got = raw["acf"][key]
            assert got["count"] == left.size
            cov = (left * right).mean() - left.mean() * right.mean()
            np.testing.assert_allclose(got["cov"], cov, rtol=1e-10)
            np.testing.assert_allclose(got["coef"], cov / field.var(),
                                       rtol=1e-10)

    def test_welch_psd_parity(self, field):
        """Streamed PSD == ``stats.welch_spectrum`` when the segment
        divides the shape (same patches, same taper, same norm)."""
        grid = Grid2D(nx=96, ny=96, lx=96.0, ly=96.0)
        raw = stream_statistics(_array_reader(field), field.shape,
                                1.0, 1.0, segment=32)
        sub, expected = welch_spectrum(field, grid, segments=(3, 3))
        assert raw["psd_grid"].shape == sub.shape
        assert raw["psd_windows"] == 9
        np.testing.assert_allclose(raw["psd"], expected, rtol=1e-12)

    def test_partial_coverage_crops(self, field):
        raw = stream_statistics(_array_reader(field), field.shape,
                                1.0, 1.0, segment=40)
        crop = field[:80, :80]
        assert raw["crop"] == (80, 80)
        assert raw["coverage"] == pytest.approx((80 * 80) / (96 * 96))
        np.testing.assert_allclose(raw["var"], crop.var(), rtol=1e-12)

    def test_lag_validation(self, field):
        read = _array_reader(field)
        with pytest.raises(ValueError, match="axis-aligned"):
            stream_statistics(read, field.shape, 1.0, 1.0, segment=32,
                              acf_lags=((3, 3),))
        with pytest.raises(ValueError, match="smaller than segment"):
            stream_statistics(read, field.shape, 1.0, 1.0, segment=32,
                              acf_lags=((32, 0),))

    def test_bad_reader_shape_rejected(self, field):
        def read(x0, y0, wx, wy):
            return np.zeros((wx, max(wy - 1, 1)))

        with pytest.raises(ValueError, match="reader returned"):
            stream_statistics(read, field.shape, 1.0, 1.0, segment=32)


# ---------------------------------------------------------------------------
# The 4096^2 streamed-vs-in-memory differential (the acceptance gate)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    """A 4096^2 self-affine surface written through the store, with the
    spectrum recipe in the manifest meta (as the jobs runner records)."""
    root = tmp_path_factory.mktemp("verify-big")
    grid = Grid2D(nx=N_BIG, ny=N_BIG, lx=float(N_BIG), ly=float(N_BIG))
    gen = ConvolutionGenerator(SPECTRUM, grid, truncation=(16, 16))
    plan = TilePlan(total_nx=N_BIG, total_ny=N_BIG,
                    tile_nx=TILE_BIG, tile_ny=TILE_BIG)
    store = SurfaceStore.create(
        root / "s", shape=(N_BIG, N_BIG), chunk=(TILE_BIG, TILE_BIG),
        meta={"seed": SEED_BIG, "spectrum": SPECTRUM.to_dict()},
    )
    generate_tiled(gen, BlockNoise(seed=SEED_BIG), plan,
                   backend="serial", out=store)
    store.close()
    yield root / "s"


class TestStreamedDifferential:
    pytestmark = [pytest.mark.verify, pytest.mark.store]

    @pytest.fixture(scope="class")
    def reports(self, big_store):
        with SurfaceStore.open(big_store, "r", ledger=False) as store:
            heights = np.array(store.heights())
        streamed = verify_store(big_store)
        in_memory = verify_heights(heights, SPECTRUM, dx=1.0, dy=1.0)
        return streamed, in_memory, heights

    def test_passes_with_spectrum_from_manifest(self, reports):
        """The acceptance path: ``verify_store`` recovers the spectrum
        from the store manifest alone and the surface passes every
        gate, including the fitted Hurst exponent."""
        streamed, _, _ = reports
        assert streamed.passed
        assert streamed.failures() == []
        hurst = streamed.metric("hurst_fit")
        assert hurst.passed is True
        assert abs(hurst.measured - 0.8) < hurst.tolerance

    def test_streamed_equals_in_memory_bitwise(self, reports):
        """Identical windows, identical float64 ops: every metric agrees
        to the last bit between the store and in-memory passes."""
        streamed, in_memory, _ = reports
        assert len(streamed.metrics) == len(in_memory.metrics)
        for ms, mm in zip(streamed.metrics, in_memory.metrics):
            assert ms.name == mm.name
            assert ms.measured == mm.measured  # bitwise, no tolerance
            assert ms.target == mm.target
            assert ms.tolerance == mm.tolerance
            assert ms.passed == mm.passed

    def test_bit_deterministic_across_runs(self, big_store, reports):
        streamed, _, _ = reports
        again = verify_store(big_store)
        assert again.core_dict() == streamed.core_dict()

    def test_never_materialises(self, big_store, monkeypatch):
        """The streamed pass reads bounded windows through
        ``read_window`` only — never the whole surface at once."""
        requests = []
        original = SurfaceStore.read_window

        def spy(self, x0, y0, nx, ny):
            requests.append((nx, ny))
            return original(self, x0, y0, nx, ny)

        monkeypatch.setattr(SurfaceStore, "read_window", spy)
        report = verify_store(big_store)
        assert report.passed
        seg = report.config["segment"]
        halo = max(nx - seg for nx, _ in requests)
        assert requests, "streamed pass bypassed read_window"
        # every read is one segment window plus a small lag/gradient halo
        assert all(nx <= seg + halo and ny <= seg + halo
                   for nx, ny in requests)
        peak = max(nx * ny for nx, ny in requests)
        assert peak <= (seg + halo) ** 2
        assert peak * 16 < N_BIG * N_BIG  # orders below materialisation

    def test_rms_differential_vs_numpy(self, reports):
        """Streamed RMS vs the straight numpy reduction on the
        materialised array.  The gated report samples a strided subset
        of windows, so it only agrees statistically; a full stride-1
        pass over the same data must agree to float64 round-off."""
        streamed, _, heights = reports
        assert streamed.metric("rms_height").measured == pytest.approx(
            float(heights.std()), rel=0.02
        )
        seg = streamed.config["segment"]
        raw = stream_statistics(_array_reader(heights), heights.shape,
                                1.0, 1.0, segment=seg)
        assert raw["rms"] == pytest.approx(float(heights.std()), rel=1e-9)

    def test_psd_differential_vs_welch(self, reports):
        """Streamed Welch PSD band deviation recomputed from
        ``stats.welch_spectrum`` on the materialised array."""
        streamed, _, heights = reports
        seg = streamed.config["segment"]
        grid = Grid2D(nx=N_BIG, ny=N_BIG, lx=float(N_BIG), ly=float(N_BIG))
        _, est = welch_spectrum(heights, grid,
                                segments=(N_BIG // seg, N_BIG // seg))
        raw = stream_statistics(_array_reader(heights), heights.shape,
                                1.0, 1.0, segment=seg)
        np.testing.assert_allclose(raw["psd"], est, rtol=1e-9)


# ---------------------------------------------------------------------------
# Ensemble input: one code path, selected by the input's rank
# ---------------------------------------------------------------------------
def _self_affine(n, seed, hurst=0.8):
    spectrum = SelfAffineSpectrum(sigma=1.0, hurst=hurst, qr=0.4)
    grid = Grid2D(nx=n, ny=n, lx=float(n), ly=float(n))
    return np.asarray(ConvolutionGenerator(spectrum, grid).generate(seed=seed))


class TestEnsembleInput:
    @pytest.fixture(scope="class")
    def fields(self):
        return [_self_affine(96, seed) for seed in range(100, 104)]

    def test_one_member_ensemble_is_the_single_surface(self, fields):
        single = verify_heights(fields[0], SPECTRUM)
        assert "members" not in single.surface
        for one in (fields[:1], np.stack(fields[:1])):
            assert verify_heights(one, SPECTRUM).core_dict() == \
                single.core_dict()

    def test_stack_and_sequence_agree(self, fields):
        stacked = verify_heights(np.stack(fields), SPECTRUM)
        assert stacked.core_dict() == \
            verify_heights(fields, SPECTRUM).core_dict()
        assert stacked.surface["members"] == len(fields)
        assert stacked.surface["shape"] == [96, 96]

    def test_accumulators_pool(self, fields):
        """Windows and n_eff add up over members, the pooled RMS is the
        RMS of all samples together, and the tolerances tighten."""
        pooled = verify_heights(fields, SPECTRUM)
        single = verify_heights(fields[0], SPECTRUM)
        assert pooled.metric("psd_band").detail["windows"] == \
            len(fields) * single.metric("psd_band").detail["windows"]
        rms = pooled.metric("rms_height")
        assert rms.detail["n_eff"] == pytest.approx(
            len(fields) * single.metric("rms_height").detail["n_eff"])
        assert rms.measured == pytest.approx(
            float(np.concatenate([f.ravel() for f in fields]).std()),
            rel=VERIFY_VS_STATS_RTOL)
        for name in ("rms_height", "acf_lag_x", "psd_band", "hurst_fit"):
            assert pooled.metric(name).tolerance < \
                single.metric(name).tolerance, name

    def test_stream_statistics_pools_readers(self, fields):
        lags = ((5, 0), (0, 5))
        pooled = stream_statistics([_array_reader(f) for f in fields],
                                   (96, 96), 1.0, 1.0, segment=32,
                                   acf_lags=lags)
        one = stream_statistics(_array_reader(fields[0]), (96, 96),
                                1.0, 1.0, segment=32, acf_lags=lags)
        assert (pooled["members"], one["members"]) == (len(fields), 1)
        assert pooled["acf_lags"] == one["acf_lags"] == list(lags)
        assert pooled["n_samples"] == len(fields) * one["n_samples"]
        assert pooled["psd_windows"] == len(fields) * one["psd_windows"]
        assert pooled["acf"][(5, 0)]["count"] == \
            len(fields) * one["acf"][(5, 0)]["count"]

    def test_members_must_share_a_2d_shape(self, fields):
        with pytest.raises(VerifyError, match="same-shape"):
            verify_heights([fields[0], fields[1][:64, :64]], SPECTRUM)
        with pytest.raises(VerifyError, match="same-shape"):
            verify_heights([], SPECTRUM)
        with pytest.raises(VerifyError, match="2D"):
            verify_heights(np.zeros((2, 2, 8, 8)), SPECTRUM)


# ---------------------------------------------------------------------------
# hurst_fit: measured slope vs the target profile's slope, n-sigma of the fit
# ---------------------------------------------------------------------------
class TestHurstGate:
    @pytest.mark.parametrize("n", [96, 128])
    def test_clean_seeds_pass(self, n):
        for seed in range(100, 112):
            metric = verify_heights(_self_affine(n, seed),
                                    SPECTRUM).metric("hurst_fit")
            assert metric.passed is True, (n, seed, metric.to_dict())

    def test_target_reads_the_profile_slope(self):
        """At 96^2 the fit band still sees the roll-off curvature: the
        target profile itself reads H = 0.875, not the requested 0.8."""
        metric = verify_heights(_self_affine(96, 100),
                                SPECTRUM).metric("hurst_fit")
        assert metric.detail["requested"] == 0.8
        assert metric.target == pytest.approx(0.875, abs=5e-3)
        assert metric.tolerance == pytest.approx(
            1.5 * 4.0 * metric.detail["slope_se"] / 2.0)

    def test_wrong_hurst_fails_at_512(self):
        for seed in range(100, 104):
            report = verify_heights(_self_affine(512, seed, hurst=0.5),
                                    SPECTRUM)
            assert report.metric("hurst_fit").passed is False, seed
            assert not report.passed, seed


# ---------------------------------------------------------------------------
# Closure checks: the paper's DFT(w) ~ rho and sum(w) ~ h^2, no surface
# ---------------------------------------------------------------------------
class TestClosure:
    def test_gaussian_acf_check_tight(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        s = GaussianSpectrum(h=1.0, clx=20.0, cly=20.0)
        rep = weight_acf_error(s, grid)
        assert rep.max_abs_error < 1e-6
        assert rep.rel_error_at_zero < 1e-6
        assert rep.variance_target == 1.0

    def test_exponential_acf_check_reports_discretisation(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        s = ExponentialSpectrum(h=1.0, clx=15.0, cly=15.0)
        rep = weight_acf_error(s, grid)
        # heavy tail -> visible error, still moderate
        assert 1e-4 < rep.rel_error_at_zero < 0.2

    def test_error_shrinks_with_refinement(self):
        s = ExponentialSpectrum(h=1.0, clx=15.0, cly=15.0)
        coarse = weight_acf_error(s, Grid2D(nx=64, ny=64, lx=256.0, ly=256.0))
        fine = weight_acf_error(s, Grid2D(nx=256, ny=256, lx=256.0, ly=256.0))
        assert fine.rel_error_at_zero < coarse.rel_error_at_zero

    def test_variance_closure_values(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        assert variance_closure(
            GaussianSpectrum(h=1.0, clx=20.0, cly=20.0), grid
        ) < 1e-9
        assert variance_closure(
            GaussianSpectrum(h=0.0, clx=20.0, cly=20.0), grid
        ) == 0.0

    def test_report_as_dict(self):
        grid = Grid2D(nx=32, ny=32, lx=64.0, ly=64.0)
        d = weight_acf_error(GaussianSpectrum(h=1, clx=8, cly=8), grid).as_dict()
        assert set(d) == {
            "max_abs_error", "rms_error", "rel_error_at_zero", "variance_target"
        }


# ---------------------------------------------------------------------------
# Report schema: round trip + hypothesis property
# ---------------------------------------------------------------------------
def _report(metrics=(), passed=True):
    return VerifyReport(
        surface={"store": None, "shape": [8, 8], "dx": 1.0, "dy": 1.0},
        spectrum=SPECTRUM.to_dict(),
        metrics=tuple(metrics),
        config={"segment": 4, "window": "hann"},
        passed=passed,
        timings={"seconds": 0.01},
    )


class TestReport:
    def test_schema_tag(self):
        doc = _report().to_dict()
        assert doc["schema"] == VERIFY_SCHEMA

    def test_rejects_wrong_schema(self):
        doc = _report().to_dict()
        doc["schema"] = "repro.verify/v0"
        with pytest.raises(ReportError, match="schema"):
            VerifyReport.from_dict(doc)

    def test_core_dict_excludes_timings(self):
        assert "timings" not in _report().core_dict()

    finite = st.floats(allow_nan=False, allow_infinity=False,
                       width=64)

    @given(
        measured=finite, target=finite,
        tolerance=st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False),
        passed=st.none() | st.booleans(),
        name=st.sampled_from(["rms_height", "hurst_fit", "acf_lag_x"]),
        report_passed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, measured, target, tolerance,
                                 passed, name, report_passed):
        """Any report survives JSON round trip equal, metric for
        metric, including informational (``passed: null``) entries."""
        metric = MetricResult(name=name, measured=measured, target=target,
                              tolerance=tolerance, passed=passed,
                              detail={"bins": 3})
        report = _report(metrics=(metric,), passed=report_passed)
        again = VerifyReport.from_json(report.to_json())
        assert again == report
        assert again.metric(name) == metric
        assert again.metric(name).detail == {"bins": 3}

    def test_failures_lists_only_hard_fails(self):
        metrics = (
            MetricResult("a", 1.0, 0.0, 0.5, False),
            MetricResult("b", 0.1, 0.0, 0.5, True),
            MetricResult("c", 9.0, 0.0, 0.5, None),  # informational
        )
        report = _report(metrics=metrics, passed=False)
        assert [m.name for m in report.failures()] == ["a"]

    def test_write_and_load(self, tmp_path):
        report = _report()
        path = write_report(report, tmp_path / REPORT_NAME)
        assert load_report(path) == report
        assert not (tmp_path / (REPORT_NAME + ".tmp")).exists()


# ---------------------------------------------------------------------------
# Entry-point error paths
# ---------------------------------------------------------------------------
class TestErrors:
    def test_heights_must_be_2d(self):
        with pytest.raises(VerifyError, match="2D"):
            verify_heights(np.zeros(16), SPECTRUM)

    def test_incomplete_store_refused(self, tmp_path):
        store = SurfaceStore.create(tmp_path / "s", shape=(64, 64),
                                    chunk=(32, 32))
        store.write_chunk(0, np.zeros((32, 32)))
        store.close()
        with pytest.raises(VerifyError, match="incomplete"):
            verify_store(tmp_path / "s")

    def test_job_requires_manifest(self, tmp_path):
        with pytest.raises(VerifyError, match="manifest"):
            verify_job(tmp_path / "nowhere")

    def test_job_requires_store_backing(self, tmp_path):
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "manifest.json").write_text(json.dumps({"state": "complete"}))
        with pytest.raises(VerifyError, match="store-backed"):
            verify_job(ck)

    def test_no_spectrum_means_informational_only(self):
        rng = np.random.default_rng(3)
        report = verify_heights(rng.normal(size=(64, 64)))
        assert report.passed  # nothing gated -> nothing failed
        assert report.spectrum is None
        assert all(m.passed is None for m in report.metrics)


# ---------------------------------------------------------------------------
# CLI: `repro verify` + `repro job run --verify`
# ---------------------------------------------------------------------------
class TestCli:
    BASE = ["--spectrum", "self-affine", "--h", "1.0", "--hurst", "0.8",
            "--qr", "0.4", "--n", "256", "--domain", "256", "--seed", "5",
            "--tile", "128"]

    def test_verify_store_target(self, tmp_path, capsys, big_store):
        rc = main(["verify", str(big_store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify: PASS" in out
        assert "hurst_fit" in out

    def test_verify_json_output(self, tmp_path, capsys, big_store):
        out_path = tmp_path / "report.json"
        rc = main(["verify", str(big_store), "--json",
                   "--output", str(out_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == VERIFY_SCHEMA
        assert load_report(out_path).passed

    def test_job_run_verify_checkpoints_report(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        rc = main(["job", "run", "--checkpoint", str(ck),
                   "--store", str(tmp_path / "s"), "--verify"] + self.BASE)
        assert rc == 0
        assert "verify: PASS" in capsys.readouterr().out
        report = load_report(ck / REPORT_NAME)
        assert report.passed
        assert report.spectrum["kind"] == "self_affine"

    def test_verify_job_checkpoint_target(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(["job", "run", "--checkpoint", str(ck),
                     "--store", str(tmp_path / "s")] + self.BASE) == 0
        capsys.readouterr()
        rc = main(["verify", str(ck)])
        assert rc == 0
        assert "verify: PASS" in capsys.readouterr().out
        assert load_report(ck / REPORT_NAME).passed

    def test_verify_storeless_job_checkpoint(self, tmp_path, capsys):
        """A job run without --store writes its checkpoint's own store,
        so ``repro verify CKPT`` gates it like any other."""
        ck = tmp_path / "ck"
        assert main(["job", "run", "--checkpoint", str(ck)]
                    + self.BASE) == 0
        capsys.readouterr()
        rc = main(["verify", str(ck)])
        assert rc == 0
        assert "verify: PASS" in capsys.readouterr().out
        psd = load_report(ck / REPORT_NAME).metric("psd_band")
        assert psd.passed is not None

    def test_ungated_store_is_not_a_pass(self, tmp_path, capsys):
        """A figure layout records no spectrum: every metric is
        informational, and the CLI says NOT GATED with its own exit
        code instead of PASS."""
        store = tmp_path / "S"
        assert main(["job", "run", "--figure", "fig1", "--n", "128",
                     "--domain", "256", "--tile", "64",
                     "--checkpoint", str(tmp_path / "ck"),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        rc = main(["verify", str(store)])
        out = capsys.readouterr().out
        assert rc == EXIT_NOT_GATED and rc not in (0, 1)
        assert "verify: NOT GATED (no target spectrum; give --spec)" in out
        assert "verify: PASS" not in out
        assert main(["verify", str(store), "--json"]) == EXIT_NOT_GATED
        capsys.readouterr()
        assert main(["job", "run", "--figure", "fig1", "--n", "128",
                     "--domain", "256", "--tile", "64", "--verify",
                     "--checkpoint", str(tmp_path / "ck2")]) == EXIT_NOT_GATED
        assert "verify: NOT GATED" in capsys.readouterr().out

    def test_verify_spec_override_can_fail(self, tmp_path, capsys,
                                           big_store):
        """Gating the surface against a *wrong* spectrum goes red and
        exits non-zero — the loop actually closes."""
        spec = tmp_path / "wrong.json"
        spec.write_text(json.dumps({
            "schema": "repro.spec/v1",
            "generator": {
                "kind": "convolution",
                "spectrum": {"kind": "self_affine", "sigma": 5.0,
                             "hurst": 0.3, "qr": 0.4},
                "grid": {"nx": N_BIG, "ny": N_BIG,
                         "lx": float(N_BIG), "ly": float(N_BIG)},
                "truncation": 0.9999,
                "engine": "auto",
                "dtype": "float64",
            },
            "seed": SEED_BIG,
        }))
        rc = main(["verify", str(big_store), "--spec", str(spec)])
        assert rc == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_validate_full_gates_every_family(self, capsys):
        """``validate --full`` is a loop over ``verify_heights`` on one
        seeded ensemble per default family."""
        rc = main(["validate", "--full", "--n", "64", "--domain", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("verify: PASS") == len(VALIDATION_SPECTRA)
        for name in VALIDATION_SPECTRA:
            assert f"{name}: 16 realisations" in out

    def test_verify_missing_target(self, tmp_path):
        with pytest.raises(SystemExit, match="no manifest.json"):
            main(["verify", str(tmp_path / "nothing")])
