"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.npzio import load_surface


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig9"])


class TestGenerate:
    def test_generate_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "s.npz"
        rc = main([
            "generate", "--spectrum", "gaussian", "--h", "1.0", "--cl", "20",
            "--n", "64", "--domain", "256", "--seed", "3",
            "--npz", str(out),
        ])
        assert rc == 0
        s = load_surface(out)
        assert s.shape == (64, 64)
        assert s.provenance["spectrum"]["kind"] == "gaussian"
        summary = json.loads(
            capsys.readouterr().out.split("wrote")[0]
        )
        assert summary["std"] == pytest.approx(s.height_std())

    def test_generate_power_law(self, capsys):
        rc = main([
            "generate", "--spectrum", "power_law", "--order", "2.5",
            "--h", "1.0", "--cl", "15", "--n", "32", "--domain", "128",
        ])
        assert rc == 0

    def test_generate_requires_cl(self):
        with pytest.raises(SystemExit):
            main(["generate", "--spectrum", "gaussian", "--h", "1.0",
                  "--cl", None] if False else
                 ["generate", "--spectrum", "gaussian", "--h", "1.0",
                  "--n", "16", "--domain", "16"])

    def test_generate_engine_flag(self, tmp_path, capsys):
        surfaces = {}
        for engine in ("auto", "spatial", "fft"):
            out = tmp_path / f"{engine}.npz"
            rc = main([
                "generate", "--spectrum", "gaussian", "--h", "1.0",
                "--cl", "20", "--n", "48", "--domain", "192", "--seed", "9",
                "--engine", engine, "--npz", str(out),
            ])
            assert rc == 0
            capsys.readouterr()
            s = load_surface(out)
            assert s.provenance["engine"] == engine
            surfaces[engine] = s.heights
        assert np.max(
            np.abs(surfaces["spatial"] - surfaces["fft"])
        ) <= 1e-10

    def test_generate_engine_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--cl", "20", "--n", "16", "--domain", "64",
                  "--engine", "warp"])
        assert "--engine" in capsys.readouterr().err

    def test_generate_anisotropic(self, capsys):
        rc = main([
            "generate", "--clx", "10", "--cly", "30",
            "--n", "32", "--domain", "128",
        ])
        assert rc == 0

    def test_renders(self, tmp_path, capsys):
        pgm = tmp_path / "a.pgm"
        ppm = tmp_path / "a.ppm"
        rc = main([
            "generate", "--cl", "20", "--n", "32", "--domain", "128",
            "--pgm", str(pgm), "--ppm", str(ppm), "--preview",
        ])
        assert rc == 0
        assert pgm.read_bytes().startswith(b"P5\n")
        assert ppm.read_bytes().startswith(b"P6\n")


class TestFigureCommand:
    def test_figure_runs(self, tmp_path, capsys):
        out = tmp_path / "f.npz"
        rc = main(["figure", "fig3", "--n", "64", "--npz", str(out)])
        assert rc == 0
        s = load_surface(out)
        assert s.provenance["figure"] == "fig3"


class TestSharedExecutionFlags:
    def test_figure_accepts_engine(self, tmp_path, capsys):
        out = tmp_path / "f.npz"
        rc = main(["figure", "fig1", "--n", "48", "--engine", "fft",
                   "--npz", str(out)])
        assert rc == 0
        assert load_surface(out).provenance["figure"] == "fig1"

    def test_inject_fault_requires_tile(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--cl", "20", "--n", "32", "--domain", "128",
                  "--inject-fault", "tile=0"])

    def test_inject_fault_rejects_bad_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--cl", "20", "--n", "32", "--domain", "128",
                  "--tile", "16", "--inject-fault", "shape=oval"])

    def test_generate_tiled_with_injected_fault_recovers(self, tmp_path,
                                                         capsys):
        plain = tmp_path / "plain.npz"
        faulted = tmp_path / "faulted.npz"
        base = ["generate", "--cl", "10", "--n", "48", "--domain", "192",
                "--seed", "5", "--tile", "24"]
        assert main(base + ["--npz", str(plain)]) == 0
        assert main(base + ["--npz", str(faulted),
                            "--inject-fault", "tile=1,attempt=1"]) == 0
        a = load_surface(plain)
        b = load_surface(faulted)
        assert np.array_equal(a.heights, b.heights)
        assert b.provenance["resilience"]["retries"] == 1


@pytest.mark.faults
class TestJobCommand:
    BASE = ["--cl", "10", "--n", "48", "--domain", "192", "--seed", "5",
            "--tile", "24"]

    def test_run_status_complete(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        rc = main(["job", "run", "--checkpoint", str(ck)] + self.BASE)
        assert rc == 0
        capsys.readouterr()
        assert main(["job", "status", str(ck)]) == 0
        st = json.loads(capsys.readouterr().out)
        assert st["status"] == "complete"
        assert st["tiles_done"] == st["tiles_total"] == 4

    def test_failed_run_resumes_bit_identical(self, tmp_path, capsys):
        ref = tmp_path / "ref.npz"
        resumed = tmp_path / "resumed.npz"
        main(["generate", "--npz", str(ref)] + self.BASE)
        ck = tmp_path / "ck"
        with pytest.raises(SystemExit) as exc:
            main(["job", "run", "--checkpoint", str(ck),
                  "--max-attempts", "2", "--backoff-base", "0.001",
                  "--inject-fault", "tile=2,attempt=1",
                  "--inject-fault", "tile=2,attempt=2"] + self.BASE)
        assert "resume" in str(exc.value)
        capsys.readouterr()
        assert main(["job", "status", str(ck)]) == 0
        st = json.loads(capsys.readouterr().out)
        assert st["status"] == "failed"
        assert 0 < st["tiles_done"] < st["tiles_total"]
        # resume builds the generator from the spec in the manifest
        assert main(["job", "resume", str(ck),
                     "--npz", str(resumed)]) == 0
        assert np.array_equal(load_surface(ref).heights,
                              load_surface(resumed).heights)

    def test_worker_kill_exits_with_resume_hint(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        with pytest.raises(SystemExit) as exc:
            main(["job", "run", "--checkpoint", str(ck),
                  "--backend", "process", "--no-degrade",
                  "--max-respawns", "0",
                  "--inject-fault", "tile=2,attempt=1,kind=kill"]
                 + self.BASE)
        assert "resume" in str(exc.value)
        capsys.readouterr()
        assert main(["job", "status", str(ck)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "failed"

    def test_strips_mode(self, tmp_path, capsys):
        ref = tmp_path / "ref.npz"
        out = tmp_path / "out.npz"
        main(["generate", "--npz", str(ref)] + self.BASE)
        ck = tmp_path / "ck"
        rc = main(["job", "run", "--checkpoint", str(ck),
                   "--mode", "strips", "--npz", str(out)] + self.BASE)
        assert rc == 0
        # strip jobs cover stream_strips' windows, not the square tiles
        # of the tiled mode, so the oracle is the assembled strip stream
        import repro
        from repro.core import BlockNoise
        from repro.parallel import assemble_strips, stream_strips

        gen = repro.ConvolutionGenerator(
            repro.GaussianSpectrum(h=1.0, clx=10.0, cly=10.0),
            repro.Grid2D(nx=48, ny=48, lx=192.0, ly=192.0),
        )
        oracle = assemble_strips(
            stream_strips(gen, BlockNoise(seed=5), 48, 48, 24)
        )
        assert np.array_equal(load_surface(out).heights, oracle.heights)

    def test_run_refuses_existing_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(["job", "run", "--checkpoint", str(ck)] + self.BASE) == 0
        with pytest.raises(SystemExit):
            main(["job", "run", "--checkpoint", str(ck)] + self.BASE)

    def test_refused_run_creates_no_store(self, tmp_path, capsys):
        # the checkpoint is checked before the store is created, so a
        # retry with a fresh --checkpoint can still use the same --store
        ck, store = tmp_path / "ck", tmp_path / "S"
        assert main(["job", "run", "--checkpoint", str(ck)] + self.BASE) == 0
        with pytest.raises(SystemExit, match="already exists"):
            main(["job", "run", "--checkpoint", str(ck),
                  "--store", str(store)] + self.BASE)
        assert not store.exists()
        assert main(["job", "run", "--checkpoint", str(tmp_path / "ck2"),
                     "--store", str(store)] + self.BASE) == 0

    def test_status_reports_the_spec(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(["job", "run", "--checkpoint", str(ck)] + self.BASE) == 0
        capsys.readouterr()
        assert main(["job", "status", str(ck)]) == 0
        spec = json.loads(capsys.readouterr().out)["spec"]
        assert spec["seed"] == 5
        assert spec["generator"]["kind"] == "convolution"
        assert spec["plan"]["tile_nx"] == 24

    def test_status_missing_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["job", "status", str(tmp_path / "nope")])

    def test_run_requires_tile(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["job", "run", "--checkpoint", str(tmp_path / "ck"),
                  "--cl", "10", "--n", "48"])

    def test_figure_job(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        rc = main(["job", "run", "--checkpoint", str(ck),
                   "--figure", "fig1", "--n", "48", "--domain", "192",
                   "--tile", "24"])
        assert rc == 0
        capsys.readouterr()
        main(["job", "status", str(ck)])
        st = json.loads(capsys.readouterr().out)
        assert st["status"] == "complete"
        assert st["generator"]["type"] == "InhomogeneousGenerator"


class TestInspect:
    def test_inspect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s.npz"
        main(["generate", "--cl", "20", "--n", "32", "--domain", "128",
              "--seed", "9", "--npz", str(out)])
        capsys.readouterr()
        rc = main(["inspect", str(out)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["shape"] == [32, 32]
        assert info["provenance"]["seed"] == 9


class TestValidate:
    def test_validate_gaussian_passes(self, capsys):
        rc = main(["validate", "--spectrum", "gaussian", "--h", "1",
                   "--cl", "20", "--n", "64", "--domain", "256"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_abs_error"] < 1e-6

    def test_validate_flags_bad_discretisation(self, capsys):
        # cl comparable to the domain: heavy truncation error
        rc = main(["validate", "--spectrum", "exponential", "--h", "1",
                   "--cl", "200", "--n", "16", "--domain", "64"])
        assert rc == 1


class TestClassifyCommand:
    def test_classify_generated_surface(self, tmp_path, capsys):
        out = tmp_path / "s.npz"
        main(["generate", "--spectrum", "exponential", "--h", "1.0",
              "--cl", "25", "--n", "192", "--domain", "768", "--seed", "2",
              "--npz", str(out)])
        capsys.readouterr()
        rc = main(["classify", str(out), "--cl-guess", "20"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["best"]["family"] in ("exponential", "power_law")
        assert set(result["all"]) >= {"gaussian", "exponential"}


class TestMeshCommand:
    def test_mesh_export(self, tmp_path, capsys):
        src = tmp_path / "s.npz"
        dst = tmp_path / "s.obj"
        main(["generate", "--cl", "20", "--n", "32", "--domain", "128",
              "--npz", str(src)])
        rc = main(["mesh", str(src), str(dst), "--decimate", "4"])
        assert rc == 0
        text = dst.read_text()
        assert text.count("\nv ") + text.startswith("v ") == 64


class TestProfile1dCommand:
    def test_profile_summary_and_output(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        rc = main(["profile1d", "--spectrum", "exponential", "--h", "2.0",
                   "--cl", "30", "--n", "2048", "--domain", "2048",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.split("wrote")[0])
        assert summary["std"] == pytest.approx(2.0, rel=0.3)
        import numpy as np
        data = np.loadtxt(out)
        assert data.shape == (2048, 2)

    def test_matern_choice(self, capsys):
        rc = main(["profile1d", "--spectrum", "matern", "--order", "3.0",
                   "--h", "1.0", "--cl", "20", "--n", "1024",
                   "--domain", "1024"])
        assert rc == 0
