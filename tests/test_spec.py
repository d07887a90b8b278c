"""Tests for the canonical ``repro.spec/v1`` GenerationSpec.

Covers the invariants the serve/dist/jobs/CLI consumers rely on:
round-trip stability (dataclass -> dict -> dataclass, dataclass ->
JSON -> dataclass, dataclass -> dist wire -> dataclass), field-naming
validation errors, and the headline acceptance property — *one spec,
every consumer*: a spec dumped by the CLI drives ``generate --spec``
and ``job run --spec`` to the same bytes the flag path produces.
"""

import json

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
