"""Meta-tests: the public API surface stays consistent and documented.

Catches the maintenance failures that unit tests never see: an __all__
entry that no longer exists, a public callable without a docstring, a
subpackage missing from the top-level re-exports.
"""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.core.api",
    "repro.core.grid",
    "repro.core.spectra",
    "repro.core.spectra_ext",
    "repro.core.weights",
    "repro.core.rng",
    "repro.core.direct_dft",
    "repro.core.convolution",
    "repro.core.inhomogeneous",
    "repro.core.oned",
    "repro.core.transform",
    "repro.core.surface",
    "repro.fields",
    "repro.fields.regions",
    "repro.fields.transition",
    "repro.fields.parameter_map",
    "repro.fields.continuous",
    "repro.stats",
    "repro.stats.estimators",
    "repro.stats.acf",
    "repro.stats.spectral",
    "repro.stats.correlation_length",
    "repro.stats.local",
    "repro.stats.fitting",
    "repro.stats.extremes",
    "repro.stats.anisotropy",
    "repro.stats.slopes",
    "repro.parallel",
    "repro.parallel.tiles",
    "repro.parallel.executor",
    "repro.parallel.streaming",
    "repro.jobs",
    "repro.jobs.retry",
    "repro.jobs.faults",
    "repro.jobs.checkpoint",
    "repro.jobs.runner",
    "repro.propagation",
    "repro.propagation.profile",
    "repro.propagation.fresnel",
    "repro.propagation.deygout",
    "repro.propagation.tworay",
    "repro.propagation.hata",
    "repro.propagation.link",
    "repro.propagation.raytrace",
    "repro.propagation.parabolic",
    "repro.propagation.coverage",
    "repro.scattering",
    "repro.scattering.kirchhoff",
    "repro.scattering.monte_carlo",
    "repro.io",
    "repro.io.atomic",
    "repro.io.npzio",
    "repro.io.asciigrid",
    "repro.io.pgm",
    "repro.io.objmesh",
    "repro.verify.closure",
    "repro.figures",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_with_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        pytest.skip("module defines no __all__")
    missing = [entry for entry in exported if not hasattr(mod, entry)]
    assert not missing, f"{name}: __all__ names missing: {missing}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "repro.cli"])
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    undocumented = []
    for entry in exported:
        obj = getattr(mod, entry)
        if callable(obj) and not inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(entry)
        elif inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(entry)
    assert not undocumented, f"{name}: undocumented exports: {undocumented}"


def test_top_level_reexports_resolve():
    import repro

    for entry in repro.__all__:
        assert hasattr(repro, entry), entry


def test_version_consistency():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


# ---------------------------------------------------------------------------
# Unified generator protocol (repro.core.api.SurfaceGenerator)
# ---------------------------------------------------------------------------
def _all_generators():
    """One cheap instance of each of the library's four generators."""
    import numpy as np

    from repro.core.convolution import ConvolutionGenerator
    from repro.core.grid import Grid2D
    from repro.core.inhomogeneous import InhomogeneousGenerator
    from repro.core.oned import Gaussian1D, ProfileGenerator
    from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
    from repro.fields import Circle, LayeredLayout, RegionSpec
    from repro.fields.continuous import ContinuousGenerator

    grid = Grid2D(nx=32, ny=32, lx=32.0, ly=32.0)
    layout = LayeredLayout(
        background=GaussianSpectrum(h=1.0, clx=4.0, cly=4.0),
        patches=[RegionSpec(Circle(cx=16.0, cy=16.0, radius=6.0),
                            ExponentialSpectrum(h=2.0, clx=3.0, cly=3.0),
                            half_width=2.0)],
    )
    return [
        ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=5.0, cly=5.0), grid,
            truncation=(6, 6),
        ),
        InhomogeneousGenerator(layout, grid, truncation=(6, 6)),
        ContinuousGenerator(
            lambda cl: GaussianSpectrum(h=1.0, clx=cl, cly=cl),
            h_field=lambda x, y: 1.0 + 0 * np.asarray(x),
            cl_field=lambda x, y: 4.0 + 0 * np.asarray(x),
            grid=grid, levels=2, truncation=(6, 6),
        ),
        ProfileGenerator(Gaussian1D(h=1.0, cl=5.0), 64, 64.0),
    ]


GENERATORS = {type(g).__name__: g for g in _all_generators()}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_satisfies_protocol(name):
    from repro.core.api import SurfaceGenerator, protocol_violations

    gen = GENERATORS[name]
    assert isinstance(gen, SurfaceGenerator), name
    assert protocol_violations(gen) == [], name


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generate_accepts_unified_keywords(name):
    import numpy as np

    from repro.core.api import split_result

    gen = GENERATORS[name]
    a = gen.generate(seed=5, trace=False, provenance={"run": "a"})
    b = gen.generate(seed=5, trace=True)
    assert np.array_equal(split_result(a)[0], split_result(b)[0]), name
    assert a.provenance.get("run") == "a", name


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generate_window_accepts_unified_keywords(name):
    import numpy as np

    from repro.core.oned import BlockNoise1D
    from repro.core.rng import BlockNoise

    gen = GENERATORS[name]
    if name == "ProfileGenerator":
        noise = BlockNoise1D(seed=3)
        a = gen.generate_window(noise, 0, 16, trace=False,
                                provenance={"run": "a"})
        b = gen.generate_window(noise, 0, 16, trace=True)
    else:
        noise = BlockNoise(seed=3)
        a = gen.generate_window(noise, 0, 0, 16, 16, trace=False,
                                provenance={"run": "a"})
        b = gen.generate_window(noise, 0, 0, 16, 16, trace=True)
    from repro.core.api import split_result

    assert np.array_equal(split_result(a)[0], split_result(b)[0]), name
    assert a.provenance.get("run") == "a", name


def _positional_extras():
    """Positional call shapes the keyword-only signatures must refuse."""
    import numpy as np

    from repro.propagation.profile import extract_profile
    from repro.scattering.monte_carlo import (
        coherent_attenuation_curve,
        run_ensemble,
    )

    calls = {f"{name}.generate": (lambda gen=gen: gen.generate(4, None))
             for name, gen in GENERATORS.items()}
    calls["extract_profile"] = lambda: extract_profile(
        np.zeros((8, 8)), (0.0, 0.0), (4.0, 4.0), 5.0, 5.0)
    calls["run_ensemble"] = lambda: run_ensemble(
        [np.zeros(64)], 1.0, 2.0, 0.1, np.array([0.1]))
    calls["coherent_attenuation_curve"] = lambda: coherent_attenuation_curve(
        lambda h, seed: np.zeros(64), [0.05], 1.0, 2.0, 0.1, 4)
    return calls


POSITIONAL_EXTRAS = _positional_extras()


@pytest.mark.parametrize("call", sorted(POSITIONAL_EXTRAS))
def test_positional_extras_raise_type_error(call):
    with pytest.raises(TypeError, match="positional"):
        POSITIONAL_EXTRAS[call]()


def test_height_field_behaves_like_ndarray():
    import pickle

    import numpy as np

    gen = GENERATORS["ConvolutionGenerator"]
    field = gen.generate(seed=8)
    # plain-array behaviour legacy callers depend on
    assert isinstance(field, np.ndarray)
    assert float(field.std()) > 0
    assert (field + 1.0).shape == field.shape
    assert np.asarray(field) is not None
    assert type(np.asarray(field)) is np.ndarray
    # unified-consumer extras
    assert field.provenance["method"] == "convolution"
    assert np.shares_memory(field.heights, field)
    clone = pickle.loads(pickle.dumps(field))
    assert np.array_equal(clone, field)
    assert clone.provenance == field.provenance


def test_split_result_normalises_every_shape():
    import numpy as np

    from repro.core.api import HeightField, split_result
    from repro.core.grid import Grid2D
    from repro.core.surface import Surface

    bare = np.ones((4, 4))
    h, p = split_result(bare)
    assert p is None and np.array_equal(h, bare)
    field = HeightField.wrap(bare, {"method": "x"})
    h, p = split_result(field)
    assert p == {"method": "x"} and type(h) is np.ndarray
    surf = Surface(heights=bare, grid=Grid2D(4, 4, 4.0, 4.0),
                   provenance={"method": "y"})
    h, p = split_result(surf)
    assert p == {"method": "y"} and np.array_equal(h, bare)
