"""Autocorrelation estimation for sampled surfaces.

Estimates the 2D autocorrelation function :math:`\\rho(\\mathbf r)` of
eqn (4) from one realisation, via the Wiener-Khinchin FFT route:

.. math:: \\hat\\rho = \\mathrm{IDFT}\\big(|\\mathrm{DFT}(f - \\bar f)|^2\\big)/N

(circular/biased estimator; appropriate here because the generators are
circularly stationary on the grid by construction).  The *unbiased*
aperiodic variant (zero-padded, normalised by overlap counts) is also
provided for windows cut from larger surfaces, where circular wrap-around
would alias the estimate.

These estimators let the tests and benches confirm that generated
surfaces realise the target correlation *shape* — Gaussian vs exponential
vs power-law — and the target correlation length, region by region.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "acf2d",
    "acf2d_unbiased",
    "acf_profile_x",
    "acf_profile_y",
    "radial_acf",
]


def acf2d(heights: np.ndarray, demean: bool = True) -> np.ndarray:
    """Biased circular ACF estimate in wrap (FFT) lag order.

    ``acf[0, 0]`` is the sample variance; lags follow the same wrap
    convention as :attr:`repro.core.grid.Grid2D.x_centered`.
    """
    f = np.asarray(heights, dtype=float)
    if f.ndim != 2:
        raise ValueError("heights must be 2D")
    if demean:
        f = f - f.mean()
    spec = np.fft.fft2(f)
    acf = np.fft.ifft2(spec * np.conj(spec)).real / f.size
    return np.ascontiguousarray(acf)


def acf2d_unbiased(heights: np.ndarray, demean: bool = True,
                   max_lag: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Unbiased aperiodic ACF estimate.

    Zero-pads to avoid circular wrap and divides each lag by its overlap
    count.  Returns lags ``[0..max_lag_x] x [0..max_lag_y]`` (one-sided;
    the ACF of a real field is even).  Variance grows at large lags where
    few pairs overlap — restrict ``max_lag`` accordingly (default: a
    quarter of the field in each axis).
    """
    f = np.asarray(heights, dtype=float)
    if f.ndim != 2:
        raise ValueError("heights must be 2D")
    nx, ny = f.shape
    if demean:
        f = f - f.mean()
    if max_lag is None:
        max_lag = (nx // 4, ny // 4)
    lx, ly = max_lag
    if not (0 <= lx < nx and 0 <= ly < ny):
        raise ValueError(
            f"max_lag {max_lag!r} must satisfy 0 <= lag < {(nx, ny)} per axis"
        )
    px, py = 2 * nx, 2 * ny
    spec = np.fft.rfft2(f, s=(px, py))
    raw = np.fft.irfft2(spec * np.conj(spec), s=(px, py))
    counts_x = nx - np.arange(lx + 1)
    counts_y = ny - np.arange(ly + 1)
    counts = counts_x[:, None] * counts_y[None, :]
    return np.ascontiguousarray(raw[: lx + 1, : ly + 1] / counts)


def acf_profile_x(heights: np.ndarray, demean: bool = True) -> np.ndarray:
    """One-sided ACF along the x axis, lags ``0..nx//2`` (circular)."""
    acf = acf2d(heights, demean=demean)
    nx = acf.shape[0]
    return acf[: nx // 2 + 1, 0].copy()


def acf_profile_y(heights: np.ndarray, demean: bool = True) -> np.ndarray:
    """One-sided ACF along the y axis, lags ``0..ny//2`` (circular)."""
    acf = acf2d(heights, demean=demean)
    ny = acf.shape[1]
    return acf[0, : ny // 2 + 1].copy()


def radial_acf(
    heights: np.ndarray, dx: float, dy: float, n_bins: int = 64,
    r_max: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Isotropically averaged ACF profile ``(r_centres, rho(r))``.

    Bins the full 2D circular ACF estimate by lag radius.  Only
    meaningful for isotropic surfaces (``clx == cly``); anisotropic
    surfaces should use the axis profiles.
    """
    acf = acf2d(heights)
    nx, ny = acf.shape
    ix = np.fft.fftfreq(nx, d=1.0 / nx)  # signed integer lags
    iy = np.fft.fftfreq(ny, d=1.0 / ny)
    r = np.hypot(ix[:, None] * dx, iy[None, :] * dy)
    if r_max is None:
        r_max = min(nx * dx, ny * dy) / 4.0
    edges = np.linspace(0.0, r_max, n_bins + 1)
    which = np.digitize(r.ravel(), edges) - 1
    ok = (which >= 0) & (which < n_bins)
    sums = np.bincount(which[ok], weights=acf.ravel()[ok], minlength=n_bins)
    counts = np.bincount(which[ok], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        profile = sums / counts
    centres = 0.5 * (edges[:-1] + edges[1:])
    valid = counts > 0
    return centres[valid], profile[valid]
