"""Spectral density estimation for sampled surfaces.

Inverts the synthesis relation: given a realisation, estimate
:math:`W(\\mathbf K)` of eqn (2) and compare with the target family.
The discrete periodogram consistent with the paper's conventions is

.. math:: \\hat W(\\mathbf K_m) = \\frac{|\\mathrm{DFT}(f)_m|^2\\,
          (\\Delta x\\, \\Delta y)^2}{4\\pi^2 L_x L_y},

whose sum times the spectral cell recovers the sample variance (a
Parseval identity the tests assert).  Welch-style averaging over
subwindows and ensemble averaging over realisations reduce the
periodogram's variance (the raw periodogram is exponentially distributed
about the true spectrum, so single-shot bins scatter by 100%).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import fft as sfft

from ..core.grid import Grid2D

__all__ = [
    "periodogram",
    "welch_spectrum",
    "radial_spectrum",
    "ensemble_spectrum",
    "spectrum_axis_profile",
]


def periodogram(heights: np.ndarray, grid: Grid2D, demean: bool = True) -> np.ndarray:
    """Raw 2D periodogram ``W-hat`` on the grid's (signed) frequency bins.

    Normalised such that ``periodogram.sum() * grid.spectral_cell``
    equals the sample variance of ``heights``.
    """
    f = np.asarray(heights, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"heights shape {f.shape} != grid shape {grid.shape}")
    if demean:
        f = f - f.mean()
    return _mirror_half_spectrum(_half_periodogram(f, grid), f.shape[1])


def _half_periodogram(f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The non-negative-``ky`` half of :func:`periodogram` (no demeaning).

    ``f`` is real, so its spectrum is Hermitian and the half plane from
    ``rfft2`` carries every value; sums of half periodograms mirror to
    the sum of the full ones (:func:`_mirror_half_spectrum`).
    """
    spec = sfft.rfft2(f)
    return (spec.real**2 + spec.imag**2) * (
        grid.cell_area**2 / (4.0 * np.pi**2 * grid.lx * grid.ly))


def _mirror_half_spectrum(half: np.ndarray, ny: int) -> np.ndarray:
    """Expand a :func:`_half_periodogram` to the full ``(nx, ny)`` grid.

    ``|F(-k)| = |F(k)|``, so column ``ny - k`` of the full grid is
    column ``k`` with its rows negated (mod ``nx``).
    """
    nh = half.shape[1]
    power = np.empty((half.shape[0], ny))
    power[:, :nh] = half
    power[:, nh:] = np.roll(half[::-1, ny - nh : 0 : -1], 1, axis=0)
    return power


def welch_spectrum(
    heights: np.ndarray,
    grid: Grid2D,
    segments: Tuple[int, int] = (4, 4),
    window: str = "hann",
) -> Tuple[Grid2D, np.ndarray]:
    """Welch-averaged spectrum over non-overlapping subwindows.

    Splits the field into ``segments`` patches per axis, applies a taper
    window (``"hann"`` or ``"boxcar"``), and averages the per-patch
    periodograms.  Returns the sub-grid and the averaged estimate (bias
    from the taper is compensated so Parseval holds on average).
    """
    f = np.asarray(heights, dtype=float)
    sx, sy = segments
    if sx <= 0 or sy <= 0:
        raise ValueError("segment counts must be positive")
    nx, ny = grid.nx // sx, grid.ny // sy
    if nx < 2 or ny < 2 or nx % 2 or ny % 2:
        raise ValueError(
            f"segments {segments} give invalid subwindow {nx}x{ny} "
            "(need even sizes >= 2)"
        )
    sub = grid.with_shape(nx, ny)
    if window == "hann":
        wx = np.hanning(nx)
        wy = np.hanning(ny)
    elif window == "boxcar":
        wx = np.ones(nx)
        wy = np.ones(ny)
    else:
        raise ValueError(f"unknown window {window!r}")
    taper = wx[:, None] * wy[None, :]
    norm = np.mean(taper**2)  # power-bias compensation
    acc = np.zeros((nx, ny))
    count = 0
    for i in range(sx):
        for j in range(sy):
            patch = f[i * nx : (i + 1) * nx, j * ny : (j + 1) * ny]
            patch = (patch - patch.mean()) * taper
            acc += periodogram(patch, sub, demean=False)
            count += 1
    return sub, acc / (count * norm)


def ensemble_spectrum(
    realisations: Sequence[np.ndarray], grid: Grid2D
) -> np.ndarray:
    """Average periodogram over independent realisations (eqn 2's
    ensemble average made literal)."""
    reals = list(realisations)
    if not reals:
        raise ValueError("need at least one realisation")
    acc = np.zeros(grid.shape)
    for r in reals:
        acc += periodogram(r, grid)
    return acc / len(reals)


def radial_spectrum(
    estimate: np.ndarray, grid: Grid2D, n_bins: int = 48,
    k_max: Optional[float] = None, return_counts: bool = False,
) -> Tuple[np.ndarray, ...]:
    """Isotropic radial average ``(K_centres, W(K))`` of a 2D estimate.

    With ``return_counts`` a third array holds the number of grid
    wavevectors averaged in each returned annulus.
    """
    if estimate.shape != grid.shape:
        raise ValueError("estimate shape mismatch")
    kx, ky = grid.k_meshgrid(signed=True)
    k = np.hypot(kx, ky)
    if k_max is None:
        k_max = min(grid.nyquist_kx, grid.nyquist_ky)
    edges = np.linspace(0.0, k_max, n_bins + 1)
    which = np.digitize(k.ravel(), edges) - 1
    ok = (which >= 0) & (which < n_bins)
    sums = np.bincount(which[ok], weights=estimate.ravel()[ok], minlength=n_bins)
    counts = np.bincount(which[ok], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        profile = sums / counts
    centres = 0.5 * (edges[:-1] + edges[1:])
    valid = counts > 0
    if return_counts:
        return centres[valid], profile[valid], counts[valid]
    return centres[valid], profile[valid]


def spectrum_axis_profile(
    estimate: np.ndarray, grid: Grid2D, axis: str = "x"
) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided spectrum cut along an axis ``(K, W(K, 0))``."""
    if axis == "x":
        k = grid.kx_folded[: grid.mx + 1]
        prof = estimate[: grid.mx + 1, 0]
    elif axis == "y":
        k = grid.ky_folded[: grid.my + 1]
        prof = estimate[0, : grid.my + 1]
    else:
        raise ValueError("axis must be 'x' or 'y'")
    return k.copy(), prof.copy()
