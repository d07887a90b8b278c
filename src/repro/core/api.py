"""Unified generator API: the :class:`SurfaceGenerator` protocol.

Every generator in the library — :class:`~repro.core.convolution.
ConvolutionGenerator`, :class:`~repro.core.inhomogeneous.
InhomogeneousGenerator`, :class:`~repro.fields.continuous.
ContinuousGenerator` and the 1D :class:`~repro.core.oned.
ProfileGenerator` — implements one call shape:

``generate(seed=None, *, noise=None, trace=False, provenance=None, ...)``
    One realisation on the construction grid.  ``seed`` is the only
    positional parameter; everything else is keyword-only.  ``trace``
    wraps the call in a ``generate`` span of :mod:`repro.obs` (a no-op
    unless a recorder is installed); ``provenance`` is an extra mapping
    merged into the result's provenance record.

``generate_window(noise, x0, [y0,] nx, [ny,] *, trace=False,
provenance=None)``
    A window of the unbounded surface over a deterministic noise plane.
    2D generators take ``(noise, x0, y0, nx, ny)``; the 1D profile
    generator takes ``(noise, x0, nx)``.

Return types are part of the compatibility contract and unchanged:
generators that historically returned bare height arrays now return
:class:`HeightField` — an ``ndarray`` subclass that behaves exactly like
the old array (every NumPy operation, pickling, saving) but additionally
carries a ``.provenance`` dict and a ``.heights`` view, so tiled,
streamed and job layers can treat every generator uniformly via
:func:`split_result`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .. import obs

__all__ = [
    "SurfaceGenerator",
    "HeightField",
    "split_result",
    "traced",
    "merge_provenance",
    "protocol_violations",
]


@runtime_checkable
class SurfaceGenerator(Protocol):
    """Anything that generates rough surfaces the unified way.

    The runtime check (``isinstance(gen, SurfaceGenerator)``) verifies
    the member *presence*; the keyword discipline of the two methods is
    asserted by :func:`protocol_violations` (used by the conformance
    tests).  ``generate_tiled``, ``stream_strips`` and ``repro.jobs``
    accept any object satisfying this protocol (2D generators must also
    expose ``grid``).
    """

    engine: str

    def generate(self, seed: Any = None, **kwargs: Any) -> Any: ...

    def generate_window(self, noise: Any, *window: Any,
                        **kwargs: Any) -> Any: ...


class HeightField(np.ndarray):
    """Height array with provenance: an ``ndarray`` that knows its origin.

    Behaves exactly like the plain array the generators used to return
    (arithmetic, slicing, reductions, pickling, ``np.save``), so legacy
    callers are untouched; unified consumers read ``.provenance`` — the
    same record a :class:`~repro.core.surface.Surface` would carry.
    ``np.asarray(field)`` drops back to the base class without copying.
    """

    provenance: Dict[str, Any]

    @classmethod
    def wrap(cls, values: np.ndarray,
             provenance: Optional[dict] = None) -> "HeightField":
        field = np.asarray(values).view(cls)
        field.provenance = dict(provenance) if provenance else {}
        return field

    def __array_finalize__(self, obj: Any) -> None:
        if obj is None:
            return
        self.provenance = getattr(obj, "provenance", None) or {}

    @property
    def heights(self) -> np.ndarray:
        """The underlying plain array (mirror of ``Surface.heights``)."""
        return self.view(np.ndarray)

    def __reduce__(self):
        reconstruct, args, state = super().__reduce__()
        return (reconstruct, args, (state, self.provenance))

    def __setstate__(self, state):
        nd_state, provenance = state
        super().__setstate__(nd_state)
        self.provenance = provenance


def split_result(result: Any) -> Tuple[np.ndarray, Optional[dict]]:
    """``(heights, provenance)`` of any generator output.

    Accepts a :class:`~repro.core.surface.Surface`, a
    :class:`HeightField`, or a bare array (provenance ``None``) — the
    one normalisation point for the tiled/streamed/job layers.
    """
    heights = getattr(result, "heights", None)
    if heights is None:
        return np.asarray(result), None
    prov = getattr(result, "provenance", None) or None
    return np.asarray(heights), prov


class _NullSpanCtx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanCtx()


def traced(generator: Any, trace: bool, kind: str = "generate"):
    """Context manager for the unified ``trace=True`` keyword.

    When ``trace`` is false this is a shared null context (no
    allocation); when true it opens a ``generator.<kind>`` span via
    :mod:`repro.obs` — still a no-op unless a recorder is installed.
    """
    if not trace:
        return _NULL_SPAN
    return obs.trace(
        f"generator.{kind}",
        {"generator": type(generator).__name__} if obs.enabled() else None,
    )


def merge_provenance(record: Optional[dict],
                     extra: Optional[dict]) -> Dict[str, Any]:
    """Base provenance plus the caller's ``provenance=`` keyword."""
    merged = dict(record) if record else {}
    if extra:
        merged.update(extra)
    return merged


def protocol_violations(generator: Any) -> list:
    """Why ``generator`` fails the unified API contract (empty = none).

    Checks member presence (the :class:`SurfaceGenerator` runtime
    protocol) plus the keyword discipline the protocol cannot express:
    ``generate`` takes ``seed`` as its only positional parameter, and
    both methods accept the ``trace`` and ``provenance`` keywords.
    """
    import inspect

    problems = []
    if not isinstance(generator, SurfaceGenerator):
        for member in ("engine", "generate", "generate_window"):
            if not hasattr(generator, member):
                problems.append(f"missing member {member!r}")
        return problems
    for method_name in ("generate", "generate_window"):
        sig = inspect.signature(getattr(generator, method_name))
        params = sig.parameters
        for kw in ("trace", "provenance"):
            p = params.get(kw)
            if p is None or p.kind is not inspect.Parameter.KEYWORD_ONLY:
                problems.append(
                    f"{method_name}() lacks keyword-only {kw!r}"
                )
    gen_params = list(
        inspect.signature(generator.generate).parameters.values()
    )
    positional = [
        p for p in gen_params
        if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    ]
    if not positional or positional[0].name != "seed":
        problems.append("generate() must take 'seed' first")
    elif len(positional) > 1:
        problems.append(
            "generate() parameters after 'seed' must be keyword-only; "
            f"found positional {[p.name for p in positional[1:]]}"
        )
    return problems
