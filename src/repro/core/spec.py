"""``GenerationSpec``: the one canonical "what to generate" encoding.

A :class:`GenerationSpec` is a versioned (``repro.spec/v1``),
JSON-round-trippable, *declarative* value that the CLI, the jobs layer,
the dist protocol and the :mod:`repro.serve` front door all construct
and consume.  It is the run's identity: stores and job checkpoints
record the whole document, and a store recording another run is
refused (:meth:`GenerationSpec.check_store`).

Design rules:

* **Descriptive, never live.**  A spec holds only JSON-able data (the
  generator recipe, the noise seed, the tile-plan geometry, delivery
  switches) so it can cross process, host and version boundaries.  The
  heights it describes are a pure function of the spec: any two
  faithful executors produce bit-identical surfaces.
* **Versioned.**  ``to_dict`` stamps ``schema: repro.spec/v1``;
  ``from_dict`` rejects documents from a different schema instead of
  silently misreading them.
* **Errors name the field.**  All validation failures raise
  :class:`SpecError` (a ``ValueError``) whose ``.field`` attribute is
  the dotted path of the offending entry (``"generator.kind"``,
  ``"plan.tile_nx"``), so callers — the CLI, an HTTP 400 body — can
  point at exactly what to fix.

The dist wire document (``repro.dist/v1`` ``welcome`` frames) predates
this module and uses the old field names; :meth:`GenerationSpec.to_wire`
/ :meth:`from_wire` translate losslessly, keeping every deployed worker
compatible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ACCESS_MODES", "SPEC_SCHEMA", "GenerationSpec", "SpecError",
           "check_store_noise"]

#: Schema tag stamped into (and required of) every spec document.
SPEC_SCHEMA = "repro.spec/v1"

#: Height-delivery modes for distributed execution (see repro.dist).
ACCESS_MODES = ("shared", "ship")

#: Generator recipe kinds :meth:`GenerationSpec.build_generator` builds.
GENERATOR_KINDS = ("convolution", "figure")

_PLAN_KEYS = ("total_nx", "total_ny", "tile_nx", "tile_ny")
_PLAN_ORIGIN_KEYS = ("origin_x", "origin_y")


class SpecError(ValueError):
    """A spec document failed validation.

    ``field`` is the dotted path of the offending entry (for example
    ``"generator.grid.nx"``) so error surfaces — CLI usage lines, HTTP
    400 bodies — can name exactly what to fix.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _require(cond: bool, field_path: str, message: str) -> None:
    if not cond:
        raise SpecError(field_path, message)


def _as_int(value: Any, field_path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(field_path, f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SpecError(field_path, f"expected an integer, got {value!r}")
        value = int(value)
    return int(value)


def _validate_generator(recipe: Any) -> None:
    _require(isinstance(recipe, dict), "generator",
             f"expected a recipe dict, got {type(recipe).__name__}")
    kind = recipe.get("kind")
    _require(kind in GENERATOR_KINDS, "generator.kind",
             f"expected one of {GENERATOR_KINDS}, got {kind!r}")
    if kind == "convolution":
        spectrum = recipe.get("spectrum")
        _require(isinstance(spectrum, dict) and "kind" in spectrum,
                 "generator.spectrum",
                 "expected a spectrum dict with a 'kind'")
        grid = recipe.get("grid")
        _require(isinstance(grid, dict), "generator.grid",
                 "expected a grid dict (nx/ny/lx/ly)")
        for key in ("nx", "ny", "lx", "ly"):
            _require(key in grid, f"generator.grid.{key}", "missing")
        for key in ("nx", "ny"):
            n = _as_int(grid[key], f"generator.grid.{key}")
            _require(n >= 1, f"generator.grid.{key}",
                     f"must be >= 1, got {n}")
    else:  # figure
        _require(isinstance(recipe.get("name"), str) and recipe.get("name"),
                 "generator.name", "expected a figure name")
        n = _as_int(recipe.get("n"), "generator.n")
        _require(n >= 1, "generator.n", f"must be >= 1, got {n}")
        _require("domain" in recipe, "generator.domain", "missing")


def _validate_plan(plan: Any) -> None:
    _require(isinstance(plan, dict), "plan",
             f"expected a tile-plan dict, got {type(plan).__name__}")
    for key in _PLAN_KEYS:
        _require(key in plan, f"plan.{key}", "missing")
        value = _as_int(plan[key], f"plan.{key}")
        _require(value >= 1, f"plan.{key}", f"must be >= 1, got {value}")
    for key in _PLAN_ORIGIN_KEYS:
        if key in plan:
            _as_int(plan[key], f"plan.{key}")
    extra = set(plan) - set(_PLAN_KEYS) - set(_PLAN_ORIGIN_KEYS)
    _require(not extra, f"plan.{sorted(extra)[0]}" if extra else "plan",
             "unknown plan key")


def _truncation(recipe: Dict[str, Any], default: float) -> Any:
    """The recipe's truncation; a ``(kx, ky)`` footprint comes back from
    JSON as a list, which ``resolve_kernel`` would misread as a fraction."""
    truncation = recipe.get("truncation", default)
    if isinstance(truncation, list):
        if len(truncation) != 2:
            raise ValueError(
                f"truncation list must have two entries, got {truncation!r}"
            )
        return (truncation[0], truncation[1])
    return truncation


@dataclass(frozen=True)
class GenerationSpec:
    """Versioned, declarative description of one generation run.

    Attributes
    ----------
    generator:
        The generator recipe (``kind: convolution`` with
        spectrum/grid/truncation, or ``kind: figure`` with
        name/n/domain) that :meth:`build_generator` builds.
    seed:
        The :class:`~repro.core.rng.BlockNoise` seed.  Together with
        ``generator`` and ``plan`` it pins the output bytes.
    plan:
        Tile-plan geometry (``total_nx/total_ny/tile_nx/tile_ny`` and
        optional origins) for windowed generation over the unbounded
        noise plane, or ``None`` for the one-shot periodic path.
    noise_block:
        Noise-plane block edge override (``None`` = library default).
    store_path / access / obs / faults:
        Execution/delivery switches used by the dist wire and the jobs
        layer; local in-memory runs leave them at their defaults.
    """

    generator: Dict[str, Any]
    seed: int = 0
    plan: Optional[Dict[str, int]] = None
    noise_block: Optional[int] = None
    store_path: Optional[str] = None
    access: str = "shared"
    obs: bool = False
    faults: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SpecError` naming the first invalid field."""
        _validate_generator(self.generator)
        _require(isinstance(self.seed, int)
                 and not isinstance(self.seed, bool),
                 "seed", f"expected an integer, got {self.seed!r}")
        if self.plan is not None:
            _validate_plan(self.plan)
        if self.noise_block is not None:
            block = _as_int(self.noise_block, "noise_block")
            _require(block >= 1, "noise_block",
                     f"must be >= 1, got {block}")
        _require(self.access in ACCESS_MODES, "access",
                 f"expected one of {ACCESS_MODES}, got {self.access!r}")
        _require(isinstance(self.obs, bool), "obs",
                 f"expected a bool, got {self.obs!r}")
        _require(isinstance(self.faults, list)
                 and all(isinstance(f, dict) for f in self.faults),
                 "faults", "expected a list of fault dicts")

    # -- derived views -------------------------------------------------

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """The output grid ``(nx, ny)`` the recipe describes."""
        if self.generator["kind"] == "figure":
            n = int(self.generator["n"])
            return (n, n)
        grid = self.generator["grid"]
        return (int(grid["nx"]), int(grid["ny"]))

    @property
    def grid(self):
        """The recipe's :class:`~repro.core.grid.Grid2D`, read straight
        off the recipe (no kernel is built)."""
        from .grid import Grid2D

        if self.generator["kind"] == "figure":
            from ..figures import default_grid

            return default_grid(self.generator["n"], self.generator["domain"])
        g = self.generator["grid"]
        return Grid2D(nx=g["nx"], ny=g["ny"], lx=g["lx"], ly=g["ly"])

    @property
    def spectrum(self):
        """The recipe's target :class:`~repro.core.spectra.Spectrum`, or
        ``None`` when it has none (a figure layout)."""
        if self.generator["kind"] != "convolution":
            return None
        from .spectra import spectrum_from_dict

        return spectrum_from_dict(self.generator["spectrum"])

    def create_store(self, path=None):
        """Create the :class:`~repro.io.store.SurfaceStore` this spec's
        run writes: at ``path`` (default ``store_path``), one chunk per
        tile, the recipe's sample spacing, the plan's origin, and this
        spec document as ``meta["spec"]`` — what ``repro verify STORE``
        gates against and :meth:`check_store` compares."""
        from ..io.store import SurfaceStore

        _require(self.plan is not None, "plan",
                 "a store is written tile by tile; give the spec a plan")
        path = path if path is not None else self.store_path
        _require(bool(path), "store_path", "no store path given")
        plan, grid = self.plan, self.grid
        return SurfaceStore.create(
            path, shape=(plan["total_nx"], plan["total_ny"]),
            chunk=(plan["tile_nx"], plan["tile_ny"]),
            dx=grid.dx, dy=grid.dy,
            origin=(plan.get("origin_x", 0), plan.get("origin_y", 0)),
            meta={"spec": self.to_dict()},
        )

    def _identity(self) -> Dict[str, Any]:
        """What pins the heights (recipe, seed, plan, noise block), with
        defaults filled in and in its JSON form, so a recorded document
        compares equal."""
        plan = self.plan and {"origin_x": 0, "origin_y": 0, **self.plan}
        return json.loads(json.dumps({
            "generator": self.generator, "seed": self.seed,
            "plan": plan, "noise_block": self.noise().block,
        }))

    def check_store(self, store) -> None:
        """Raise :class:`SpecError` when ``store`` records another run
        (only the seed can be compared with a store of an earlier
        build), whose tiles this run's must not be welded onto."""
        _check_recorded_run(store, self._identity())

    def tile_plan(self):
        """The spec's :class:`~repro.parallel.tiles.TilePlan` (or None)."""
        if self.plan is None:
            return None
        from ..parallel.tiles import TilePlan

        return TilePlan(**{k: int(v) for k, v in self.plan.items()})

    def noise(self):
        """A fresh :class:`~repro.core.rng.BlockNoise` for this spec."""
        from .rng import BlockNoise

        kwargs: Dict[str, Any] = {"seed": self.seed}
        if self.noise_block is not None:
            kwargs["block"] = self.noise_block
        return BlockNoise(**kwargs)

    def build_generator(self):
        """The generator the recipe describes — the one builder shared
        by local runs, job resume, the dist workers and serve."""
        recipe = self.generator
        engine = recipe.get("engine", "auto")
        dtype = recipe.get("dtype", "float64")
        if recipe["kind"] == "convolution":
            from .convolution import ConvolutionGenerator

            return ConvolutionGenerator(
                self.spectrum, self.grid,
                truncation=_truncation(recipe, 0.9999),
                engine=engine, dtype=dtype,
            )
        from ..figures import figure_layout
        from .inhomogeneous import InhomogeneousGenerator

        return InhomogeneousGenerator(
            figure_layout(recipe["name"], recipe["domain"]), self.grid,
            truncation=_truncation(recipe, 0.999),
            engine=engine, dtype=dtype,
        )

    def with_plan(self, tile: int) -> "GenerationSpec":
        """This spec with a square tiling of edge ``tile`` samples."""
        nx, ny = self.grid_shape
        tile = _as_int(tile, "plan.tile_nx")
        _require(tile >= 1, "plan.tile_nx", f"must be >= 1, got {tile}")
        return replace(self, plan={
            "total_nx": nx, "total_ny": ny,
            "tile_nx": tile, "tile_ny": tile,
            "origin_x": 0, "origin_y": 0,
        })

    # -- canonical (repro.spec/v1) serialisation -----------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical ``repro.spec/v1`` document (JSON-able)."""
        return {
            "schema": SPEC_SCHEMA,
            "generator": dict(self.generator),
            "seed": self.seed,
            "plan": dict(self.plan) if self.plan is not None else None,
            "noise_block": self.noise_block,
            "store_path": self.store_path,
            "access": self.access,
            "obs": self.obs,
            "faults": list(self.faults),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "GenerationSpec":
        """Parse a spec document; raises :class:`SpecError` on problems.

        Accepts one convenience shorthand on top of the canonical
        shape: ``"tile": <edge>`` instead of a full ``plan`` block
        expands to a square tiling of the generator's grid.
        """
        _require(isinstance(data, dict), "spec",
                 f"expected a JSON object, got {type(data).__name__}")
        schema = data.get("schema", SPEC_SCHEMA)
        _require(schema == SPEC_SCHEMA, "schema",
                 f"expected {SPEC_SCHEMA!r}, got {schema!r}")
        known = {"schema", "generator", "seed", "plan", "tile",
                 "noise_block", "store_path", "access", "obs", "faults"}
        for key in data:
            _require(key in known, str(key), "unknown spec field")
        _require("generator" in data, "generator", "missing")
        plan = data.get("plan")
        if plan is not None:
            plan = {str(k): _as_int(v, f"plan.{k}")
                    for k, v in dict(plan).items()}
        seed = data.get("seed", 0)
        spec = cls(
            generator=data["generator"],
            seed=_as_int(seed, "seed"),
            plan=plan,
            noise_block=(None if data.get("noise_block") is None
                         else _as_int(data["noise_block"], "noise_block")),
            store_path=data.get("store_path"),
            access=data.get("access", "shared"),
            obs=bool(data.get("obs", False)),
            faults=list(data.get("faults") or []),
        )
        if data.get("tile") is not None:
            _require(spec.plan is None, "tile",
                     "give either 'tile' or a full 'plan', not both")
            spec = spec.with_plan(_as_int(data["tile"], "tile"))
        return spec

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "GenerationSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("spec", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- dist wire (repro.dist/v1) translation -------------------------

    def to_wire(self) -> Dict[str, Any]:
        """The ``repro.dist/v1`` welcome-frame document.

        Field names predate this module (``rebuild``/``noise_seed``);
        they are kept verbatim so coordinators and workers from
        different versions interoperate.
        """
        _require(not (self.access == "shared" and not self.store_path),
                 "store_path", "shared access requires a store path")
        return {
            "rebuild": self.generator,
            "noise_seed": self.seed,
            "noise_block": self.noise_block,
            "plan": self.plan,
            "store_path": self.store_path,
            "access": self.access,
            "obs": self.obs,
            "faults": list(self.faults),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "GenerationSpec":
        try:
            spec = cls(
                generator=data["rebuild"],
                seed=int(data["noise_seed"]),
                noise_block=(int(data["noise_block"])
                             if data.get("noise_block") is not None
                             else None),
                plan={k: int(v) for k, v in data["plan"].items()},
                store_path=data.get("store_path"),
                access=data.get("access", "shared"),
                obs=bool(data.get("obs", False)),
                faults=list(data.get("faults") or []),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError("spec", f"malformed run spec: {exc!r}") from exc
        _require(not (spec.access == "shared" and not spec.store_path),
                 "store_path", "shared access requires a store path")
        return spec


def check_store_noise(store, noise) -> None:
    """Raise :class:`SpecError` when ``store`` records a run on another
    noise plane: another seed, or another block size.  For runs of a
    live generator, which have no spec to compare
    (:meth:`GenerationSpec.check_store` compares the whole run)."""
    _check_recorded_run(store, {"seed": noise.seed,
                                "noise_block": noise.block})


def _check_recorded_run(store, ours: Dict[str, Any]) -> None:
    """Raise :class:`SpecError` when the run ``store`` records differs
    from the identity ``ours`` on a key both know.  A store of an
    earlier build records only its seed; one that records no run
    (made by ``SurfaceStore.create`` without meta) is never refused."""
    meta = store.manifest.get("meta") or {}
    if "spec" in meta:
        theirs = GenerationSpec.from_dict(meta["spec"])._identity()
    else:
        theirs = {"seed": meta["seed"]} if "seed" in meta else {}
    for key, value in theirs.items():
        if key in ours:
            _require(ours[key] == value, key,
                     f"store {store.path} holds a run with {key} "
                     f"{value!r}, not {ours[key]!r}")
