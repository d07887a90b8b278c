"""Continuously varying parameters: h(x, y) and cl(x, y) fields.

Section 3 of the paper opens with: "we can generate inhomogeneous RRSs
of which parameters are *continuously varied* from place to place", and
then discretises the idea into plates and points.  This module carries
the idea to its limit for the two parameters:

* the height std ``h`` enters the synthesis *linearly* (the kernel is
  proportional to ``h``), so a continuous ``h(x, y)`` field is realised
  **exactly**: generate a unit-variance surface and multiply pointwise;
* the correlation length ``cl`` deforms the kernel nonlinearly, so it is
  quantised onto ``L`` levels and the kernels of the two bracketing
  levels are linearly cross-faded — the same mechanism as the paper's
  transition regions (eqn 37), applied densely.  Refining ``L`` tightens
  the approximation; the continuous-gradient bench (A3) quantifies it.

The result is a generator with the same contract as
:class:`~repro.core.inhomogeneous.InhomogeneousGenerator` (periodic
one-shot and windowed generation over a :class:`BlockNoise` plane), so
streaming and tiling work unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.api import merge_provenance, traced
from ..core.convolution import (
    TruncationSpec,
    _check_engine,
    _pad_mode,
    apply_kernels_valid,
    batched_noise_window_for,
    resolve_kernel,
)
from ..core.engine import BatchStats, common_margins
from ..core.grid import Grid2D
from ..core.rng import BlockNoise, SeedLike, standard_normal_field
from ..core.spectra import Spectrum
from ..core.surface import Surface

__all__ = ["ContinuousGenerator", "level_weights"]

ParameterField = Callable[[np.ndarray, np.ndarray], np.ndarray]
FamilyBuilder = Callable[[float], Spectrum]


def level_weights(values: np.ndarray, levels: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear interpolation weights onto a sorted level ladder.

    Returns ``(lower_index, weight_lower, weight_upper)`` such that each
    value is represented as ``w_lo * levels[i] + w_hi * levels[i+1]``
    with ``w_lo + w_hi = 1``; values outside the ladder are clamped to
    the end levels (weight 1 on the nearest end).
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size < 1:
        raise ValueError("levels must be a non-empty 1D array")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing")
    v = np.asarray(values, dtype=float)
    if levels.size == 1:
        idx = np.zeros(v.shape, dtype=int)
        return idx, np.ones(v.shape), np.zeros(v.shape)
    clamped = np.clip(v, levels[0], levels[-1])
    upper = np.searchsorted(levels, clamped, side="right")
    upper = np.clip(upper, 1, levels.size - 1)
    lower = upper - 1
    span = levels[upper] - levels[lower]
    w_hi = (clamped - levels[lower]) / span
    return lower, 1.0 - w_hi, w_hi


class ContinuousGenerator:
    """Surfaces with continuous ``h(x, y)`` and ``cl(x, y)`` fields.

    Parameters
    ----------
    family:
        ``cl -> Spectrum`` builder returning a **unit-h** spectrum of the
        desired family at that correlation length, e.g.
        ``lambda cl: GaussianSpectrum(h=1.0, clx=cl, cly=cl)``.
    h_field, cl_field:
        Vectorised callables ``(x, y) -> value`` in physical coordinates.
    grid:
        Kernel-construction grid (its spacing is inherited by windows).
    levels:
        Either an explicit increasing sequence of cl levels, or an
        integer count (levels spread geometrically over the cl range
        observed on the construction grid).  More levels = tighter cl
        interpolation = more convolutions per surface.
    truncation:
        Kernel truncation spec per level.
    engine:
        Convolution engine for every per-level correlation: ``"auto"``
        (dispatch by kernel size), ``"spatial"`` or ``"fft"`` — see
        :func:`repro.core.convolution.apply_kernel_valid`.

    Examples
    --------
    A roughness gradient with a smooth valley::

        gen = ContinuousGenerator(
            family=lambda cl: GaussianSpectrum(h=1.0, clx=cl, cly=cl),
            h_field=lambda x, y: 0.5 + 1.5 * x / 1024.0,
            cl_field=lambda x, y: 20.0 + 60.0 * y / 1024.0,
            grid=Grid2D(nx=512, ny=512, lx=1024.0, ly=1024.0),
            levels=5,
        )
        surface = gen.generate(seed=1)
    """

    def __init__(
        self,
        family: FamilyBuilder,
        h_field: ParameterField,
        cl_field: ParameterField,
        grid: Grid2D,
        levels: int | Sequence[float] = 5,
        truncation: TruncationSpec = 0.999,
        engine: str = "auto",
        prune: bool = True,
    ) -> None:
        self.family = family
        self.h_field = h_field
        self.cl_field = cl_field
        self.grid = grid
        self.truncation = truncation
        self.engine = _check_engine(engine)
        self.prune = bool(prune)

        if isinstance(levels, (int, np.integer)):
            if levels < 1:
                raise ValueError("need at least one cl level")
            gx, gy = grid.meshgrid()
            cl_vals = np.asarray(cl_field(gx, gy), dtype=float)
            lo, hi = float(cl_vals.min()), float(cl_vals.max())
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0:
                raise ValueError("cl_field must be positive and finite")
            if np.isclose(lo, hi) or levels == 1:
                ladder = np.array([0.5 * (lo + hi)])
            else:
                ladder = np.geomspace(lo, hi, int(levels))
        else:
            ladder = np.asarray(list(levels), dtype=float)
            if ladder.ndim != 1 or ladder.size < 1 or np.any(ladder <= 0):
                raise ValueError("levels must be positive values")
            if np.any(np.diff(ladder) <= 0):
                raise ValueError("levels must be strictly increasing")
        self.levels = ladder

        self._spectra = [family(float(cl)) for cl in self.levels]
        for s, cl in zip(self._spectra, self.levels):
            if abs(s.h - 1.0) > 1e-9:
                raise ValueError(
                    "family must build unit-h spectra (the h field is "
                    f"applied separately); got h={s.h} at cl={cl}"
                )
        self._kernels = [
            resolve_kernel(s, grid, truncation) for s in self._spectra
        ]

    # ------------------------------------------------------------------
    def _level_mix(self, gx: np.ndarray, gy: np.ndarray):
        """Per-sample level interpolation data for an output window.

        Returns ``(lower, upper, w_lo, w_hi, h_vals, used)`` where
        ``used`` flags the levels referenced with non-zero weight
        anywhere in the window — the level-ladder analogue of the
        region active set: unused levels need no convolution.
        """
        with obs.trace("fields.weight_map"):
            cl_vals = np.asarray(self.cl_field(gx, gy), dtype=float)
            h_vals = np.asarray(self.h_field(gx, gy), dtype=float)
        if np.any(h_vals < 0):
            raise ValueError("h_field must be >= 0")
        lower, w_lo, w_hi = level_weights(cl_vals, self.levels)
        upper = np.minimum(lower + 1, len(self.levels) - 1)
        used = np.zeros(len(self.levels), dtype=bool)
        used[lower[w_lo > 0.0]] = True
        used[upper[w_hi > 0.0]] = True
        return lower, upper, w_lo, w_hi, h_vals, used

    def _blend_levels(self, fields, lower, upper, w_lo, w_hi,
                      h_vals) -> np.ndarray:
        """Cross-fade the bracketing level fields, then apply ``h``.

        Pruned levels arrive as ``None``; they are only ever gathered
        where their interpolation weight is zero, so a shared zero
        placeholder keeps ``take_along_axis`` well-defined without
        affecting the blend.
        """
        zeros: Optional[np.ndarray] = None
        full: List[np.ndarray] = []
        for f in fields:
            if f is None:
                if zeros is None:
                    zeros = np.zeros(h_vals.shape)
                full.append(zeros)
            else:
                full.append(f)
        stack = np.stack(full)  # (L, nx, ny)
        f_lo = np.take_along_axis(stack, lower[None, ...], axis=0)[0]
        f_hi = np.take_along_axis(stack, upper[None, ...], axis=0)[0]
        return (w_lo * f_lo + w_hi * f_hi) * h_vals

    def generate(self, seed: SeedLike = None, *,
                 noise: Optional[np.ndarray] = None,
                 boundary: str = "wrap",
                 trace: bool = False,
                 provenance: Optional[dict] = None) -> Surface:
        """One realisation on the construction grid.

        Unified signature (:mod:`repro.core.api`): parameters after
        ``seed`` are keyword-only; ``trace`` opens a
        ``generator.generate`` span, ``provenance`` adds entries to the
        surface's record.
        """
        with traced(self, trace):
            return self._generate(seed, noise, boundary, provenance)

    def _generate(self, seed, noise, boundary, provenance):
        if noise is None:
            noise = standard_normal_field(self.grid.shape, seed)
        noise = np.asarray(noise, dtype=float)
        if noise.shape != self.grid.shape:
            raise ValueError("noise shape does not match the grid")
        gx, gy = self.grid.meshgrid()
        lower, upper, w_lo, w_hi, h_vals, used = self._level_mix(gx, gy)
        lxm, rxm, lym, rym = common_margins(self._kernels)
        padded = np.pad(noise, ((lxm, rxm), (lym, rym)),
                        mode=_pad_mode(boundary))
        stats = BatchStats()
        fields = apply_kernels_valid(
            self._kernels, padded,
            active=used if self.prune else None,
            engine=self.engine, stats=stats,
        )
        heights = self._blend_levels(fields, lower, upper, w_lo, w_hi, h_vals)
        return Surface(
            heights=heights,
            grid=self.grid,
            provenance=merge_provenance({
                "method": "continuous-parameters",
                "levels": self.levels.tolist(),
                "truncation": repr(self.truncation),
                "engine": self.engine,
                "levels_active": stats.kernels_active,
                "levels_skipped": stats.kernels_skipped,
                "batch_fft": stats.as_dict(),
            }, provenance),
        )

    def generate_window(self, noise: BlockNoise, x0: int, y0: int,
                        nx: int, ny: int, *, trace: bool = False,
                        provenance: Optional[dict] = None) -> Surface:
        """Window of the unbounded continuous-parameter surface."""
        with traced(self, trace, "generate_window"):
            return self._generate_window(noise, x0, y0, nx, ny, provenance)

    def _generate_window(self, noise, x0, y0, nx, ny, provenance):
        win_grid = self.grid.with_shape(nx, ny)
        origin = (x0 * self.grid.dx, y0 * self.grid.dy)
        gx, gy = win_grid.meshgrid()
        lower, upper, w_lo, w_hi, h_vals, used = self._level_mix(
            gx + origin[0], gy + origin[1]
        )
        margins = common_margins(self._kernels)
        wx0, wy0, wnx, wny = batched_noise_window_for(
            self._kernels, x0, y0, nx, ny, margins=margins
        )
        window = noise.window(wx0, wy0, wnx, wny)
        stats = BatchStats()
        fields = apply_kernels_valid(
            self._kernels, window,
            active=used if self.prune else None,
            engine=self.engine, margins=margins, stats=stats,
        )
        heights = self._blend_levels(fields, lower, upper, w_lo, w_hi, h_vals)
        return Surface(
            heights=heights,
            grid=win_grid,
            origin=origin,
            provenance=merge_provenance({
                "method": "continuous-parameters-window",
                "window": [x0, y0, nx, ny],
                "levels": self.levels.tolist(),
                "noise_seed": noise.seed,
                "engine": self.engine,
                "levels_active": stats.kernels_active,
                "levels_skipped": stats.kernels_skipped,
                "batch_fft": stats.as_dict(),
            }, provenance),
        )
