"""Inhomogeneous rough-surface generation (paper Section 3).

The paper's contribution: because the convolution method (eqn 36) applies
a kernel *pointwise*, the kernel may vary from place to place.  At output
sample ``n`` the effective kernel is a convex combination of ``M``
homogeneous kernels,

.. math:: \\bar w^{(n)}_{k} = \\sum_{m=1}^{M} g_n(m)\\, \\bar w_k(m),
          \\qquad \\sum_m g_n(m) = 1,

with the blend fields ``g`` supplied either by the **plate-oriented
method** (eqns 37-39; :class:`repro.fields.parameter_map.PlateLattice` /
:class:`~repro.fields.parameter_map.LayeredLayout`) or by the
**point-oriented method** (eqns 40-46; :class:`PointOrientedLayout`
here).

Implementation insight (DESIGN.md S6): the synthesis is *linear in the
kernel*, so

.. math:: f_n = \\sum_k \\bar w^{(n)}_k X_{n+k-M}
            = \\sum_m g_n(m) \\underbrace{\\big(\\bar w(m) \\ast X\\big)_n}_{f^{(m)}_n},

i.e. generate each homogeneous surface ``f^(m)`` from the *same* noise
field and blend the results.  That turns an O(N^2 K^2 M) per-point
computation into M fast convolutions plus a weighted sum — and it is
*exactly* equal, not an approximation (verified against
:func:`blend_reference` in the tests and ablated in bench A1).

Sharing the noise field across regions is not merely an optimisation: it
is what makes the surface *continuous* across transitions (the paper's
"mixed type of RRS in their transition region") instead of a crossfade
of two independent terrains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import obs
from ..fields.parameter_map import WeightMap
from ..fields.transition import get_profile
from .api import merge_provenance, traced
from .convolution import (
    TruncationSpec,
    _check_engine,
    _pad_mode,
    apply_kernels_valid,
    batched_noise_window_for,
    resolve_kernel,
)
from .engine import BatchStats, check_dtype, common_margins
from .grid import Grid2D
from .rng import BlockNoise, SeedLike, standard_normal_field
from .spectra import Spectrum
from .surface import Surface
from .weights import Kernel, build_kernel, truncate_kernel

__all__ = [
    "Layout",
    "PointSpec",
    "PointOrientedLayout",
    "point_oriented_weights",
    "InhomogeneousGenerator",
    "blend_fields",
    "blend_reference",
    "kernel_stack",
]


class Layout(Protocol):
    """Anything that can produce blend fields on a grid.

    Implemented by :class:`~repro.fields.parameter_map.PlateLattice`,
    :class:`~repro.fields.parameter_map.LayeredLayout`, and
    :class:`PointOrientedLayout`.
    """

    def weight_map(self, grid: Grid2D, origin: Tuple[float, float] = (0.0, 0.0)
                   ) -> WeightMap: ...


# ---------------------------------------------------------------------------
# Point-oriented method (paper Section 3.2)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointSpec:
    """A representative point carrying a homogeneous spectrum (eqn 40)."""

    x: float
    y: float
    spectrum: Spectrum


def point_oriented_weights(
    px: np.ndarray,
    py: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    half_width: float,
    profile: str = "linear",
) -> np.ndarray:
    """Blend weights of the point-oriented method (paper eqns 40-46).

    Parameters
    ----------
    px, py:
        Coordinates of the ``M`` representative points, shape ``(M,)``.
    qx, qy:
        Coordinates of the query (observation) points, shape ``(P,)``.
    half_width:
        ``T`` — half of the transition width (eqn 41).
    profile:
        Fade profile applied to ``tau / T`` (linear reproduces eqn 44).

    Returns
    -------
    ``(M, P)`` array of weights; every column sums to 1, entries in
    ``[0, 1]``.

    Notes
    -----
    For observation point ``n`` with nearest representative ``m*``:

    * ``tau(n, m, m*)`` is the distance from ``n`` to the perpendicular
      bisector of the segment ``[p_m, p_m*]`` (eqn 42), computed as
      ``(|n - p_m|^2 - |n - p_m*|^2) / (2 |p_m - p_m*|)`` — non-negative
      because ``m*`` is nearest;
    * competitors with ``tau <= T`` participate (eqn 41); their count is
      ``M~`` and each gets ``g(m) = (1 - tau/T) / (2 M~)`` (eqns 43-44);
    * the nearest point receives the remainder (eqn 45), which is
      ``>= 1/2``: the local spectrum always dominates its own cell.

    With ``T -> 0`` this degenerates to a hard Voronoi partition of the
    plane among the representative points.
    """
    px = np.asarray(px, dtype=float).ravel()
    py = np.asarray(py, dtype=float).ravel()
    qx = np.asarray(qx, dtype=float).ravel()
    qy = np.asarray(qy, dtype=float).ravel()
    m = px.size
    p = qx.size
    if m == 0:
        raise ValueError("need at least one representative point")
    if half_width < 0:
        raise ValueError(f"half_width must be >= 0, got {half_width}")
    phi = get_profile(profile)

    # Squared distances point -> query: (M, P)
    d2 = (px[:, None] - qx[None, :]) ** 2 + (py[:, None] - qy[None, :]) ** 2
    nearest = np.argmin(d2, axis=0)  # (P,)
    if m == 1:
        return np.ones((1, p))

    # Pairwise distances between representative points: (M, M)
    pd = np.hypot(px[:, None] - px[None, :], py[:, None] - py[None, :])
    if np.any(pd[~np.eye(m, dtype=bool)] == 0.0):
        raise ValueError("representative points must be pairwise distinct")

    d2_min = d2[nearest, np.arange(p)]  # (P,)
    denom = pd[:, nearest]  # (M, P): |p_m - p_{m*}| per column
    is_star = np.arange(m)[:, None] == nearest[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (d2 - d2_min[None, :]) / (2.0 * denom)
    tau[is_star] = np.inf  # the nearest point is handled by the remainder rule

    weights = np.zeros((m, p))
    if half_width > 0.0:
        active = tau <= half_width
        fade = np.zeros_like(tau)
        fade[active] = 1.0 - phi(tau[active] / half_width)
        m_tilde = active.sum(axis=0)  # (P,) competitor count
        cols = m_tilde > 0
        if np.any(cols):
            weights[:, cols] = fade[:, cols] / (2.0 * m_tilde[None, cols])
    # eqn (45): nearest point absorbs the remainder (=1 when no competitor)
    remainder = 1.0 - weights.sum(axis=0)
    weights[nearest, np.arange(p)] = remainder
    return weights


class PointOrientedLayout:
    """Point-oriented parameter layout (paper Section 3.2, Figure 4).

    Parameters
    ----------
    points:
        Representative points with spectra.  Points sharing a
        :class:`Spectrum` instance (or equal spectra) are blended into a
        single field, so the number of convolutions is the number of
        *distinct* spectra, not the number of points.
    half_width:
        Transition half-width ``T`` (eqn 41); "its value should be
        appropriately chosen" — Figure 4 works well with ``T`` of order
        the point spacing / 5.
    profile:
        Fade profile (default linear = paper eqn 44).
    """

    def __init__(
        self,
        points: Sequence[PointSpec],
        half_width: float,
        profile: str = "linear",
    ) -> None:
        self.points = list(points)
        if not self.points:
            raise ValueError("need at least one representative point")
        self.half_width = float(half_width)
        self.profile = profile

    def weight_map(self, grid: Grid2D, origin: Tuple[float, float] = (0.0, 0.0)
                   ) -> WeightMap:
        gx, gy = grid.meshgrid()
        qx = (gx + origin[0]).ravel()
        qy = (gy + origin[1]).ravel()
        px = np.array([p.x for p in self.points])
        py = np.array([p.y for p in self.points])
        w_pts = point_oriented_weights(
            px, py, qx, qy, self.half_width, self.profile
        )  # (n_points, P)

        # Merge points that share a spectrum.
        spectra: List[Spectrum] = []
        index: dict = {}
        merged = []
        for i, p in enumerate(self.points):
            key = p.spectrum
            if key not in index:
                index[key] = len(spectra)
                spectra.append(key)
                merged.append(np.zeros(qx.size))
            merged[index[key]] += w_pts[i]
        weights = np.stack(merged).reshape(len(spectra), *grid.shape)
        wm = WeightMap(spectra=spectra, weights=weights)
        wm.validate()
        return wm


# ---------------------------------------------------------------------------
# Blending engine
# ---------------------------------------------------------------------------
def blend_fields(weights: np.ndarray,
                 fields: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """``f = sum_m g_m * f^(m)`` — the linear-blend fast path.

    ``fields[m]`` may be ``None`` for a pruned region, which is only
    legal when its blend weight is identically zero (the active-set
    contract); a zero-weight term is skipped either way, so pruned and
    unpruned blends are bit-identical.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != len(fields):
        raise ValueError("one weight field per homogeneous field required")
    out = np.zeros(weights.shape[1:], dtype=float)
    for g, f in zip(weights, fields):
        if f is None:
            if np.any(g != 0.0):
                raise ValueError(
                    "missing homogeneous field for a region with non-zero "
                    "blend weight"
                )
            continue
        if not np.any(g != 0.0):
            continue
        out += g * f
    return out


def kernel_stack(
    spectra: Sequence[Spectrum], grid: Grid2D, half_x: int, half_y: int
) -> List[Kernel]:
    """Kernels for several spectra truncated to a *common* support.

    Needed by :func:`blend_reference`, whose per-point kernel mixing
    (eqn 37 taken literally) requires aligned kernel arrays.
    """
    return [
        truncate_kernel(build_kernel(s, grid), half_x, half_y) for s in spectra
    ]


def blend_reference(
    weight_map: WeightMap,
    kernels: Sequence[Kernel],
    noise: np.ndarray,
) -> np.ndarray:
    """Literal per-point evaluation of eqns (36)-(37): O(N^2 K^2 M).

    For every output sample, mixes the kernel stack with that sample's
    blend weights and correlates it with the (circularly indexed) noise.
    Exists to validate the fast path; tests-only sizes.
    """
    shapes = {k.shape for k in kernels}
    centres = {(k.cx, k.cy) for k in kernels}
    if len(shapes) != 1 or len(centres) != 1:
        raise ValueError("reference blending requires a common kernel support")
    (kx, ky) = shapes.pop()
    (cx, cy) = centres.pop()
    noise = np.asarray(noise, dtype=float)
    nx, ny = noise.shape
    stack = np.stack([k.values for k in kernels])  # (M, kx, ky)
    g = weight_map.weights  # (M, nx, ny)
    out = np.empty((nx, ny))
    for i in range(nx):
        xi = (i - cx + np.arange(kx)) % nx
        for j in range(ny):
            yj = (j - cy + np.arange(ky)) % ny
            local = np.tensordot(g[:, i, j], stack, axes=(0, 0))
            out[i, j] = np.sum(local * noise[np.ix_(xi, yj)])
    return out


class InhomogeneousGenerator:
    """Generate inhomogeneous RRSs from any parameter layout (Section 3).

    Builds one convolution kernel per *distinct* spectrum in the layout,
    generates the homogeneous fields from a shared noise source, and
    blends them with the layout's weight fields.

    Parameters
    ----------
    layout:
        A :class:`Layout`: plate lattice, layered regions, or
        point-oriented.
    grid:
        Output grid (also the kernel-construction grid).
    truncation:
        Kernel truncation spec passed to each homogeneous kernel (see
        :func:`repro.core.convolution.resolve_kernel`).
    engine:
        Valid-correlation engine for every homogeneous convolution
        (``"auto"`` | ``"spatial"`` | ``"fft"``, see
        :func:`repro.core.convolution.apply_kernel_valid`).  Because the
        kernels come from :func:`~repro.core.convolution.resolve_kernel`
        they carry plan-cache identities: under the FFT engine each
        region's kernel transform is computed once and reused across
        every tile/strip of a run — the M-region blend then costs M
        block FFTs per tile, not M kernel transforms.

    Examples
    --------
    Figure 3 of the paper (pond in a field)::

        layout = LayeredLayout(
            background=GaussianSpectrum(h=1.0, clx=50.0, cly=50.0),
            patches=[RegionSpec(
                region=Circle(cx=512.0, cy=512.0, radius=500.0),
                spectrum=ExponentialSpectrum(h=0.2, clx=50.0, cly=50.0),
                half_width=100.0,
            )],
        )
        surface = InhomogeneousGenerator(layout, grid).generate(seed=1)
    """

    def __init__(
        self,
        layout: Layout,
        grid: Grid2D,
        truncation: TruncationSpec = 0.9999,
        engine: str = "auto",
        prune: bool = True,
        dtype="float64",
    ) -> None:
        self.layout = layout
        self.grid = grid
        self.truncation = truncation
        self.engine = _check_engine(engine)
        self.prune = bool(prune)
        self.dtype = check_dtype(dtype)
        self._weight_map: Optional[WeightMap] = None
        self._kernels: Optional[List[Kernel]] = None
        self._kernel_cache: dict = {}
        self._kernel_cache_fallback: List[Tuple[Spectrum, Kernel]] = []

    # -- cached pieces ---------------------------------------------------
    @property
    def weight_map(self) -> WeightMap:
        """Blend fields on the construction grid (computed once)."""
        if self._weight_map is None:
            with obs.trace("fields.weight_map"):
                self._weight_map = self.layout.weight_map(self.grid)
        return self._weight_map

    @property
    def kernels(self) -> List[Kernel]:
        """One truncated kernel per distinct spectrum (computed once)."""
        if self._kernels is None:
            self._kernels = [
                self._kernel_for(s) for s in self.weight_map.spectra
            ]
        return self._kernels

    def _kernel_for(self, spectrum: Spectrum) -> Kernel:
        """Kernel for one spectrum, cached by spectrum value.

        The cache is keyed directly by the (hashable, frozen) spectrum,
        so windowed/tiled/streamed runs resolve kernels without ever
        materialising the full-construction-grid weight map.  Unhashable
        custom spectra fall back to an identity-keyed list.
        """
        try:
            kern = self._kernel_cache.get(spectrum)
        except TypeError:
            for seen, kern in self._kernel_cache_fallback:
                if seen is spectrum:
                    return kern
            kern = resolve_kernel(spectrum, self.grid, self.truncation)
            self._kernel_cache_fallback.append((spectrum, kern))
            return kern
        if kern is None:
            kern = resolve_kernel(spectrum, self.grid, self.truncation)
            self._kernel_cache[spectrum] = kern
        return kern

    # -- generation --------------------------------------------------------
    def generate(
        self,
        seed: SeedLike = None,
        *,
        noise: Optional[np.ndarray] = None,
        boundary: str = "wrap",
        trace: bool = False,
        provenance: Optional[dict] = None,
    ) -> Surface:
        """One realisation on the construction grid.

        All regions share the single noise field ``X`` (continuity across
        transitions); ``boundary`` is handed to each homogeneous
        convolution (see :func:`repro.core.convolution.convolve_spatial`).
        Unified signature (:mod:`repro.core.api`): parameters after
        ``seed`` are keyword-only; ``trace`` opens a ``generator.generate`` span;
        ``provenance`` adds entries to the surface's record.
        """
        with traced(self, trace):
            return self._generate(seed, noise, boundary, provenance)

    def _generate(self, seed, noise, boundary, provenance):
        if noise is None:
            noise = standard_normal_field(self.grid.shape, seed)
        noise = np.asarray(noise, dtype=float)
        if noise.shape != self.grid.shape:
            raise ValueError(
                f"noise shape {noise.shape} != grid shape {self.grid.shape}"
            )
        wm = self.weight_map
        kernels = self.kernels
        # One padded noise field sized for the union of all kernel
        # footprints: the batched engine then shares each block's
        # forward FFT across every region.  Padding once by the common
        # margins is value-identical to per-kernel padding for all
        # three boundary modes.
        lx, rx, ly, ry = common_margins(kernels)
        padded = np.pad(noise, ((lx, rx), (ly, ry)), mode=_pad_mode(boundary))
        active = wm.support() if self.prune else None
        stats = BatchStats()
        fields = apply_kernels_valid(
            kernels, padded, active=active, engine=self.engine, stats=stats,
            dtype=self.dtype,
        )
        # The float64 blend weights promote float32 fields during the
        # weighted sum; cast back so the surface carries the requested
        # engine precision.
        heights = blend_fields(wm.weights, fields).astype(
            self.dtype, copy=False
        )
        return Surface(
            heights=heights,
            grid=self.grid,
            provenance=merge_provenance({
                "method": "inhomogeneous-convolution",
                "layout": type(self.layout).__name__,
                "spectra": [s.to_dict() for s in wm.spectra],
                "truncation": repr(self.truncation),
                "boundary": boundary,
                "engine": self.engine,
                "dtype": self.dtype.name,
                "regions_active": stats.kernels_active,
                "regions_skipped": stats.kernels_skipped,
                "batch_fft": stats.as_dict(),
            }, provenance),
        )

    def generate_window(
        self, noise: BlockNoise, x0: int, y0: int, nx: int, ny: int,
        *, trace: bool = False, provenance: Optional[dict] = None,
    ) -> Surface:
        """Window ``[x0, x0+nx) x [y0, y0+ny)`` of the unbounded surface.

        Combines the windowed homogeneous convolution (paper advantage
        (a)) with location-aware blend weights: windows generated
        separately agree on overlaps (to FFT rounding), enabling streamed
        and tiled inhomogeneous surfaces.
        """
        with traced(self, trace, "generate_window"):
            return self._generate_window(noise, x0, y0, nx, ny, provenance)

    def _generate_window(self, noise, x0, y0, nx, ny, provenance):
        win_grid = self.grid.with_shape(nx, ny)
        origin = (x0 * self.grid.dx, y0 * self.grid.dy)
        with obs.trace("fields.weight_map"):
            wm = self.layout.weight_map(win_grid, origin=origin)
        # Kernels match the distinct spectra of this window's weight map;
        # every layout lists all regions in every window (with possibly
        # all-zero weights), so the kernel batch — and hence the common
        # margins and block geometry — is the same for every tile.
        kernels = [self._kernel_for(s) for s in wm.spectra]
        margins = common_margins(kernels)
        wx0, wy0, wnx, wny = batched_noise_window_for(
            kernels, x0, y0, nx, ny, margins=margins
        )
        window = noise.window(wx0, wy0, wnx, wny)
        # Active set: regions with zero blend weight everywhere in this
        # window are not convolved at all.  Margins stay those of the
        # full batch, so pruning is bit-transparent.
        active = wm.support() if self.prune else None
        stats = BatchStats()
        fields = apply_kernels_valid(
            kernels, window, active=active, engine=self.engine,
            margins=margins, stats=stats, dtype=self.dtype,
        )
        heights = blend_fields(wm.weights, fields).astype(
            self.dtype, copy=False
        )
        return Surface(
            heights=heights,
            grid=win_grid,
            origin=origin,
            provenance=merge_provenance({
                "method": "inhomogeneous-convolution-window",
                "layout": type(self.layout).__name__,
                "window": [x0, y0, nx, ny],
                "noise_seed": noise.seed,
                "engine": self.engine,
                "dtype": self.dtype.name,
                "regions": wm.n_regions,
                "regions_active": stats.kernels_active,
                "regions_skipped": stats.kernels_skipped,
                "batch_fft": stats.as_dict(),
            }, provenance),
        )
