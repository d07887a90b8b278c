"""Tests for the canonical ``repro.spec/v1`` GenerationSpec.

Covers the invariants the serve/dist/jobs/CLI consumers rely on:
round-trip stability (dataclass -> dict -> dataclass, dataclass ->
JSON -> dataclass, dataclass -> dist wire -> dataclass), field-naming
validation errors, and the headline acceptance property — *one spec,
every consumer*: a spec dumped by the CLI drives ``generate --spec``
and ``job run --spec`` to the same bytes the flag path produces.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.spec import (
    ACCESS_MODES,
    SPEC_SCHEMA,
    GenerationSpec,
    SpecError,
)
from repro.io.npzio import load_surface


def conv_spec(**overrides):
    """A small but non-trivial convolution spec."""
    base = dict(
        generator={
            "kind": "convolution",
            "spectrum": {"kind": "gaussian", "h": 1.0,
                         "clx": 8.0, "cly": 8.0},
            "grid": {"nx": 64, "ny": 64, "lx": 64.0, "ly": 64.0},
            "truncation": 0.9999,
            "engine": "auto",
            "dtype": "float64",
        },
        seed=5,
        plan={"total_nx": 64, "total_ny": 64,
              "tile_nx": 32, "tile_ny": 32,
              "origin_x": 0, "origin_y": 0},
    )
    base.update(overrides)
    return GenerationSpec(**base)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = conv_spec()
        doc = spec.to_dict()
        assert doc["schema"] == SPEC_SCHEMA
        assert GenerationSpec.from_dict(doc) == spec

    def test_json_round_trip(self):
        spec = conv_spec(noise_block=128, obs=True)
        text = spec.to_json()
        again = GenerationSpec.from_json(text)
        assert again == spec
        # and the canonical document itself is stable
        assert again.to_json() == text

    def test_wire_round_trip(self):
        spec = conv_spec(store_path="/tmp/somewhere", access="shared")
        wire = spec.to_wire()
        # legacy dist field names, kept for deployed workers
        assert wire["rebuild"] == spec.generator
        assert wire["noise_seed"] == spec.seed
        assert GenerationSpec.from_wire(wire) == spec

    def test_wire_requires_store_for_shared(self):
        spec = conv_spec()  # no store_path, access defaults to shared
        with pytest.raises(SpecError, match="store_path"):
            spec.to_wire()

    def test_tile_shorthand(self):
        doc = conv_spec(plan=None).to_dict()
        doc.pop("plan")
        doc["tile"] = 16
        spec = GenerationSpec.from_dict(doc)
        assert spec.plan == {"total_nx": 64, "total_ny": 64,
                             "tile_nx": 16, "tile_ny": 16,
                             "origin_x": 0, "origin_y": 0}
        with pytest.raises(SpecError, match="tile"):
            GenerationSpec.from_dict({**doc, "plan": spec.plan})

    def test_invalid_json_is_spec_error(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            GenerationSpec.from_json("{nope")

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        tile=st.integers(min_value=1, max_value=64),
        noise_block=st.none() | st.integers(min_value=1, max_value=512),
        access=st.sampled_from(ACCESS_MODES),
        obs=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seed, tile, noise_block, access,
                                 obs):
        spec = conv_spec(seed=seed, noise_block=noise_block, obs=obs,
                         access=access,
                         store_path="/s" if access == "shared" else None,
                         ).with_plan(tile)
        assert GenerationSpec.from_json(spec.to_json()) == spec
        assert GenerationSpec.from_wire(spec.to_wire()) == spec

    @given(
        sigma=st.floats(min_value=1e-3, max_value=1e3,
                        allow_nan=False, allow_infinity=False),
        hurst=st.floats(min_value=0.01, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
        qr=st.none() | st.floats(min_value=1e-3, max_value=10.0,
                                 allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_self_affine_round_trip_property(self, sigma, hurst, qr, seed):
        """Self-affine spectra survive the spec round trip — including
        the optional roll-off wavevector (``qr: null`` in JSON) — and
        rebuild to an equal generator."""
        spec = conv_spec(seed=seed)
        generator = dict(spec.generator)
        generator["spectrum"] = {"kind": "self_affine", "sigma": sigma,
                                 "hurst": hurst, "qr": qr}
        spec = conv_spec(seed=seed, generator=generator, store_path="/s")
        again = GenerationSpec.from_json(spec.to_json())
        assert again == spec
        assert GenerationSpec.from_wire(spec.to_wire()) == spec
        rebuilt = again.build_generator().spectrum
        assert rebuilt.to_dict() == generator["spectrum"]


class TestValidationNamesField:
    @pytest.mark.parametrize("mutate, field_path", [
        (lambda d: d["generator"].pop("spectrum"), "generator.spectrum"),
        (lambda d: d["generator"].update(kind="warp"), "generator.kind"),
        (lambda d: d["generator"]["grid"].pop("ny"), "generator.grid.ny"),
        (lambda d: d["generator"]["grid"].update(nx=0), "generator.grid.nx"),
        (lambda d: d.update(seed="five"), "seed"),
        (lambda d: d["plan"].pop("tile_ny"), "plan.tile_ny"),
        (lambda d: d["plan"].update(tile_nx=0), "plan.tile_nx"),
        (lambda d: d["plan"].update(bogus=1), "plan.bogus"),
        (lambda d: d.update(noise_block=-1), "noise_block"),
        (lambda d: d.update(access="push"), "access"),
        (lambda d: d.update(schema="repro.spec/v0"), "schema"),
        (lambda d: d.update(surprise=1), "surprise"),
    ])
    def test_errors_name_offending_field(self, mutate, field_path):
        doc = conv_spec().to_dict()
        mutate(doc)
        with pytest.raises(SpecError) as exc:
            GenerationSpec.from_dict(doc)
        assert exc.value.field == field_path
        # the message leads with the dotted path, so CLI/HTTP surfaces
        # can show it verbatim
        assert str(exc.value).startswith(field_path)

    def test_faults_must_be_dicts(self):
        with pytest.raises(SpecError) as exc:
            conv_spec(faults=["drop"])
        assert exc.value.field == "faults"


class TestDerivedViews:
    def test_grid_shape_and_plan(self):
        spec = conv_spec()
        assert spec.grid_shape == (64, 64)
        plan = spec.tile_plan()
        assert len(plan) == 4
        assert conv_spec(plan=None).tile_plan() is None

    def test_noise_matches_seed(self):
        a = conv_spec(seed=11).noise().window(0, 0, 8, 8)
        b = conv_spec(seed=11).noise().window(0, 0, 8, 8)
        assert np.array_equal(a, b)

    def test_build_generator(self):
        gen = conv_spec().build_generator()
        assert gen.grid.shape == (64, 64)
        assert gen.spectrum.to_dict()["kind"] == "gaussian"


class TestStoreRecordsTheSpec:
    """A store records the spec that wrote it; ``check_store`` refuses
    a run that would continue another run's store."""

    def test_create_store_records_the_spec(self, tmp_path):
        spec = conv_spec()
        store = spec.create_store(tmp_path / "s")
        assert store.manifest["meta"] == {"spec": spec.to_dict()}
        assert GenerationSpec.from_dict(store.manifest["meta"]["spec"]) \
            == spec

    def test_same_run_passes_whatever_its_delivery(self, tmp_path):
        store = conv_spec().create_store(tmp_path / "s")
        conv_spec(store_path="elsewhere", access="ship",
                  faults=[{"tile": 0, "attempt": 1}]).check_store(store)
        # the default noise block, spelled out, is the same noise plane
        conv_spec(noise_block=conv_spec().noise().block).check_store(store)

    @pytest.mark.parametrize("override, field_path", [
        ({"seed": 6}, "seed"),
        ({"noise_block": 32}, "noise_block"),
        ({"plan": {"total_nx": 64, "total_ny": 64,
                   "tile_nx": 32, "tile_ny": 32, "origin_x": 32}}, "plan"),
    ])
    def test_another_run_is_refused(self, tmp_path, override, field_path):
        store = conv_spec().create_store(tmp_path / "s")
        with pytest.raises(SpecError) as exc:
            conv_spec(**override).check_store(store)
        assert exc.value.field == field_path

    def test_another_recipe_is_refused(self, tmp_path):
        store = conv_spec().create_store(tmp_path / "s")
        other = conv_spec().generator | {"truncation": [16, 16]}
        with pytest.raises(SpecError, match="generator"):
            conv_spec(generator=other).check_store(store)

    def test_json_round_trip_is_the_same_run(self, tmp_path):
        # a tuple truncation comes back from the manifest as a list
        gen = conv_spec().generator | {"truncation": (16, 16)}
        store = conv_spec(generator=gen).create_store(tmp_path / "s")
        conv_spec(generator=gen).check_store(store)

    def test_legacy_store_compares_the_seed(self, tmp_path):
        from repro.io.store import SurfaceStore

        store = SurfaceStore.create(tmp_path / "s", shape=(64, 64),
                                    chunk=(32, 32), meta={"seed": 5})
        conv_spec().check_store(store)
        with pytest.raises(SpecError, match="seed"):
            conv_spec(seed=7).check_store(store)
        bare = SurfaceStore.create(tmp_path / "b", shape=(64, 64),
                                   chunk=(32, 32))
        conv_spec(seed=7).check_store(bare)

    def test_live_generator_runs_check_the_noise(self, tmp_path):
        """``run_tiled`` and ``generate_tiled(out=store)`` have a live
        generator and no spec: they compare their noise plane's seed and
        block with the run the store records, before writing a chunk."""
        from repro.core.rng import BlockNoise
        from repro.io.store import SurfaceStore
        from repro.jobs import run_tiled
        from repro.parallel import generate_tiled

        spec = conv_spec(seed=7)
        gen, plan = spec.build_generator(), spec.tile_plan()
        store = spec.create_store(tmp_path / "S")
        files = ("chunks.npy", "manifest.json")
        before = {name: (store.path / name).read_bytes() for name in files}
        with pytest.raises(SpecError, match="seed 7, not 8") as exc:
            run_tiled(gen, BlockNoise(seed=8), plan,
                      checkpoint=tmp_path / "ck", store=store)
        assert exc.value.field == "seed"
        assert not (tmp_path / "ck").exists()
        with pytest.raises(SpecError, match="seed"):
            generate_tiled(gen, BlockNoise(seed=8), plan, out=store)
        with pytest.raises(SpecError) as exc:
            generate_tiled(gen, BlockNoise(seed=7, block=32), plan, out=store)
        assert exc.value.field == "noise_block"
        assert not store.done.any()
        assert before == {name: (store.path / name).read_bytes()
                          for name in files}
        # the same noise plane fills it, as before
        generate_tiled(gen, spec.noise(), plan, out=store)
        assert store.done.all()
        # a store of an earlier build records only its seed
        legacy = SurfaceStore.create(tmp_path / "L", shape=(64, 64),
                                     chunk=(32, 32), meta={"seed": 7})
        with pytest.raises(SpecError, match="seed"):
            generate_tiled(gen, BlockNoise(seed=8), plan, out=legacy)
        generate_tiled(gen, BlockNoise(seed=7, block=32), plan, out=legacy)
        assert legacy.done.all()
        store.close()
        legacy.close()

    def test_spectrum(self):
        assert conv_spec().spectrum.to_dict()["kind"] == "gaussian"
        figure = {"kind": "figure", "name": "fig1", "n": 32,
                  "domain": 64.0}
        assert conv_spec(generator=figure, plan=None).spectrum is None


class TestWireEdges:
    """The dist welcome frame: delivery modes and malformed payloads."""

    def test_ship_mode_needs_no_store(self):
        spec = conv_spec(access="ship", faults=[{"tile": 1, "kind": "raise"}])
        wire = spec.to_wire()
        assert wire["store_path"] is None
        assert GenerationSpec.from_wire(wire) == spec

    def test_shared_wire_without_store_refused(self):
        wire = conv_spec(access="ship").to_wire()
        wire["access"] = "shared"
        with pytest.raises(SpecError, match="store_path"):
            GenerationSpec.from_wire(wire)

    def test_unknown_access_mode(self):
        with pytest.raises(SpecError) as exc:
            conv_spec(access="carrier-pigeon", store_path="/s")
        assert exc.value.field == "access"

    def test_malformed_wire_payload(self):
        with pytest.raises(SpecError, match="malformed"):
            GenerationSpec.from_wire({"rebuild": {"kind": "x"}})


BASE_FLAGS = [
    "--spectrum", "gaussian", "--h", "1.0", "--cl", "8",
    "--n", "64", "--domain", "64", "--seed", "5",
]


class TestOneSpecEveryConsumer:
    """CLI ns -> spec -> dict -> spec -> identical surface."""

    def _dump_spec(self, capsys, extra=()):
        rc = main(["generate", *BASE_FLAGS, *extra, "--dump-spec"])
        assert rc == 0
        return capsys.readouterr().out

    def test_dump_spec_round_trips(self, capsys):
        text = self._dump_spec(capsys, ["--tile", "32"])
        spec = GenerationSpec.from_json(text)
        assert spec == GenerationSpec.from_dict(json.loads(spec.to_json()))
        assert spec.seed == 5
        assert spec.plan["tile_nx"] == 32

    def test_spec_file_reproduces_flag_surface(self, tmp_path, capsys):
        """generate --spec bytes == generate <flags> bytes (tiled)."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(self._dump_spec(capsys, ["--tile", "32"]))

        by_flags = tmp_path / "flags.npz"
        assert main(["generate", *BASE_FLAGS, "--tile", "32",
                     "--npz", str(by_flags)]) == 0
        by_spec = tmp_path / "spec.npz"
        assert main(["generate", "--spec", str(spec_file),
                     "--npz", str(by_spec)]) == 0
        capsys.readouterr()
        a = load_surface(by_flags).heights
        b = load_surface(by_spec).heights
        assert a.tobytes() == b.tobytes()

    def test_spec_drives_one_shot_too(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(self._dump_spec(capsys))

        by_flags = tmp_path / "flags.npz"
        assert main(["generate", *BASE_FLAGS, "--npz", str(by_flags)]) == 0
        by_spec = tmp_path / "spec.npz"
        assert main(["generate", "--spec", str(spec_file),
                     "--npz", str(by_spec)]) == 0
        capsys.readouterr()
        assert (load_surface(by_flags).heights.tobytes()
                == load_surface(by_spec).heights.tobytes())

    def test_job_run_spec_matches_generate_spec(self, tmp_path, capsys):
        """job run --spec == generate --spec, same bytes."""
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(self._dump_spec(capsys, ["--tile", "32"]))

        ref = tmp_path / "ref.npz"
        assert main(["generate", "--spec", str(spec_file),
                     "--npz", str(ref)]) == 0
        out = tmp_path / "job.npz"
        assert main(["job", "run", "--spec", str(spec_file),
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--npz", str(out)]) == 0
        capsys.readouterr()
        assert (load_surface(ref).heights.tobytes()
                == load_surface(out).heights.tobytes())

    @pytest.mark.parametrize("fault", [False, True],
                             ids=["clean", "inject-fault"])
    @pytest.mark.parametrize("store", [False, True], ids=["ram", "store"])
    @pytest.mark.parametrize("command", [
        ("generate",), ("job", "run"), ("job", "run", "--mode", "strips"),
    ], ids=["generate-tile", "job-run", "job-run-strips"])
    def test_dumped_spec_reproduces_command(self, tmp_path, capsys,
                                            command, store, fault):
        """A tiled command and its own --dump-spec document, run through
        --spec, give the same bytes and the same retry count."""
        flags = [*BASE_FLAGS, "--tile", "16"]
        if fault:
            flags += ["--inject-fault", "tile=1,attempt=1"]
        spec_command = ["generate"] if command == ("generate",) \
            else ["job", "run"]

        def sinks(tag):
            out = []
            if command[0] == "job":
                out += ["--checkpoint", str(tmp_path / f"ck-{tag}")]
            if store:
                out += ["--store", str(tmp_path / f"store-{tag}")]
            return out

        assert main([*command, *flags, *sinks("flags"),
                     "--npz", str(tmp_path / "flags.npz")]) == 0
        capsys.readouterr()
        # the dumped document names its own (not yet created) store
        assert main([*command, *flags, *sinks("spec"), "--dump-spec"]) == 0
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(capsys.readouterr().out)
        checkpoint = (["--checkpoint", str(tmp_path / "ck-run")]
                      if command[0] == "job" else [])
        assert main([*spec_command, "--spec", str(spec_file), *checkpoint,
                     "--npz", str(tmp_path / "spec.npz")]) == 0
        capsys.readouterr()
        a = load_surface(tmp_path / "flags.npz")
        b = load_surface(tmp_path / "spec.npz")
        assert a.heights.tobytes() == b.heights.tobytes()
        retries = a.provenance["resilience"]["retries"]
        assert retries == b.provenance["resilience"]["retries"]
        assert retries == (1 if fault else 0)

    def test_spec_and_flags_are_mutually_exclusive(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(self._dump_spec(capsys))
        with pytest.raises(SystemExit):
            main(["generate", "--spec", str(spec_file), "--dump-spec"])

    def test_bad_spec_file_names_field(self, tmp_path, capsys):
        doc = conv_spec().to_dict()
        doc["generator"]["grid"]["nx"] = 0
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--spec", str(spec_file)])
        assert "generator.grid.nx" in str(exc.value)


def _run_dist_coordinator(store):
    """``dist coordinator`` plus one ``dist worker``, as subprocesses."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    cli = [sys.executable, "-m", "repro.cli", "dist"]
    coord = subprocess.Popen(
        [*cli, "coordinator", *BASE_FLAGS, "--tile", "16",
         "--store", str(store), "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        address = coord.stdout.readline().rsplit(" ", 1)[-1].strip()
        worker = subprocess.run([*cli, "worker", "--connect", address],
                                capture_output=True, text=True,
                                timeout=120, env=env)
        out, err = coord.communicate(timeout=120)
    finally:
        coord.kill()
        coord.wait()
    assert worker.returncode == 0, worker.stdout + worker.stderr
    assert coord.returncode == 0, out + err


@pytest.mark.verify
class TestEveryStorePathGates:
    """Each CLI path that writes a store records the spectrum the
    store is verified against, so ``repro verify STORE`` gates it."""

    @pytest.mark.parametrize("route", [
        "generate-tile", "generate-spec", "job-run", "job-run-spec",
        "job-run-strips",
        pytest.param("dist-coordinator", marks=pytest.mark.dist),
    ])
    def test_store_gates_psd_band(self, tmp_path, capsys, route):
        store = tmp_path / "store"
        ck = ["--checkpoint", str(tmp_path / "ck")]
        tiled = [*BASE_FLAGS, "--tile", "16"]
        if route.endswith("-spec"):
            spec_file = tmp_path / "spec.json"
            assert main(["generate", *tiled, "--store", str(store),
                         "--dump-spec"]) == 0
            spec_file.write_text(capsys.readouterr().out)
        argv = {
            "generate-tile": ["generate", *tiled, "--store", str(store)],
            "generate-spec": ["generate", "--spec", str(tmp_path / "spec.json")],
            "job-run": ["job", "run", *tiled, *ck, "--store", str(store)],
            "job-run-spec": ["job", "run", "--spec",
                             str(tmp_path / "spec.json"), *ck],
            "job-run-strips": ["job", "run", *tiled, *ck, "--mode", "strips",
                               "--store", str(store)],
        }.get(route)
        if argv is None:
            _run_dist_coordinator(store)
        else:
            assert main(argv) == 0
        capsys.readouterr()
        main(["verify", str(store), "--json"])
        report = json.loads(capsys.readouterr().out)
        psd = [m for m in report["metrics"] if m["name"] == "psd_band"]
        assert psd and psd[0]["passed"] is not None, report["metrics"]
