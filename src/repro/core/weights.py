"""Discrete spectral weighting arrays and convolution kernels.

Implements Section 2.2 and the kernel construction of Section 2.4 of
Uchida, Honda & Yoon.

Given a grid (``Nx x Ny`` samples over ``Lx x Ly``) and a spectral
density ``W(K)``, the *weighting array* is (paper eqn 15)

.. math::

    w_{m_x m_y} = \\frac{4\\pi^2}{L_x L_y}\\,
        W(K_{\\bar m_x}, K_{\\bar m_y}),

where the bar denotes the frequency folding of eqn (16).  Its square root
``v = sqrt(w)`` (eqn 17) is the amplitude weighting used by both the
direct DFT method and the convolution method.

Two DFT identities make this array useful:

* ``DFT(w)[n] ~ rho(r_n)`` — the inverse-transform consistency check the
  paper states below eqn (16); exposed as :func:`weight_autocorrelation`
  and exercised by :mod:`repro.verify.closure`.
* ``kernel = fftshift(DFT(v)) / sqrt(Nx*Ny)`` is the real-space
  convolution kernel of eqns (34)-(35) normalised so that convolving an
  i.i.d. ``N(0,1)`` noise field with it yields a surface of variance
  ``sum(w) ~ h^2`` (Parseval; see DESIGN.md "Key numerical conventions").

The kernel returned here is centred (index ``(Mx, My)`` is the peak) so
that eqn (36) becomes an ordinary centred convolution.  Kernel truncation
— the paper's second advantage of the convolution method — is provided by
:func:`truncate_kernel` (explicit half-width) and
:func:`truncate_kernel_energy` (retain a target energy fraction).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Optional, Tuple

import numpy as np

from .grid import Grid2D
from .spectra import Spectrum

__all__ = [
    "weight_array",
    "amplitude_array",
    "weight_autocorrelation",
    "build_kernel",
    "truncate_kernel",
    "truncate_kernel_energy",
    "kernel_half_width",
    "Kernel",
]


def weight_array(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Weighting array ``w`` of paper eqns (14)-(16).

    Returns a ``(nx, ny)`` float array in FFT bin order (bin 0 = DC),
    with ``w[m] = (4*pi^2/(Lx*Ly)) * W(|K_mx|, |K_my|)``.

    The sum of the array approximates the height variance:
    ``w.sum() ~ integral of W = h**2`` (eqn 1); the approximation error is
    the spectral truncation+discretisation error and shrinks as the grid
    is refined/enlarged.
    """
    kx = grid.kx_folded[:, None]
    ky = grid.ky_folded[None, :]
    w = grid.spectral_cell * spectrum.spectrum(kx, ky)
    if np.any(w < 0):
        raise ValueError(
            "spectral density produced negative values; W(K) must be >= 0"
        )
    return w


def amplitude_array(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Amplitude weighting ``v = sqrt(w)`` of paper eqn (17)."""
    return np.sqrt(weight_array(spectrum, grid))


def weight_autocorrelation(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Discrete autocorrelation implied by the weights: ``DFT(w)``.

    The paper notes (below eqn 16) that the DFT of the weighting array
    corresponds to the autocorrelation function, ``DFT(w) ~ rho(r)``, and
    recommends it as an accuracy check.  The returned array is real, in
    wrap (FFT) lag order matching ``grid.x_centered`` / ``grid.y_centered``.

    Notes
    -----
    With the paper's unnormalised forward DFT (eqn 11) applied to ``w``,
    the DC lag equals ``sum(w) ~ h^2 = rho(0)``: the forward transform of
    the *sampled spectrum times the spectral cell* is a Riemann sum for
    the Fourier integral of eqn (4).  Because ``w`` is even under the
    folding, the imaginary part vanishes identically (up to rounding).
    """
    w = weight_array(spectrum, grid)
    acf = np.fft.fft2(w)
    return np.ascontiguousarray(acf.real)


def _validate_energy_fraction(energy_fraction: float) -> None:
    """Reject energy fractions outside (0, 1] (incl. NaN) with a clear error."""
    ef = float(energy_fraction)
    if not (0.0 < ef <= 1.0):  # NaN fails every comparison -> rejected too
        raise ValueError(
            f"energy_fraction must be in (0, 1], got {energy_fraction!r}; "
            "1.0 keeps the full kernel, values near 1 truncate mildly"
        )


# ---------------------------------------------------------------------------
# Convolution kernel (paper eqns 34-35)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """A centred real-space convolution kernel for RRS synthesis.

    Attributes
    ----------
    values:
        2D float array, centred: element ``(cx, cy)`` multiplies the noise
        sample aligned with the output point.
    cx, cy:
        Index of the kernel centre.
    dx, dy:
        Sample spacings the kernel was built for.  A kernel is only valid
        for noise/surfaces sampled at the same spacing.
    energy:
        ``sum(values**2)``; equals the variance of the surface the kernel
        generates from unit white noise.
    identity:
        Optional hashable provenance token for the FFT plan cache
        (:mod:`repro.core.engine`).  Kernels sharing an identity must be
        exact scalar multiples of each other with ratio ``scale``;
        :func:`repro.core.convolution.resolve_kernel` sets it to the
        unit-``h`` spectrum parameters + grid spacing + truncation spec.
        Anything that changes the values (truncation, arithmetic) must
        drop it — hence plain constructors leave it ``None`` and the
        cache falls back to a content :attr:`fingerprint`.
    scale:
        Linear amplitude relative to the ``identity``'s unit kernel
        (``h`` for spectrum-built kernels); only meaningful when
        ``identity`` is set.
    """

    values: np.ndarray
    cx: int
    cy: int
    dx: float
    dy: float
    identity: Optional[Hashable] = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"kernel must be 2D, got ndim={v.ndim}")
        if not (0 <= self.cx < v.shape[0] and 0 <= self.cy < v.shape[1]):
            raise ValueError("kernel centre outside kernel array")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape

    @property
    def energy(self) -> float:
        return float(np.sum(self.values * self.values))

    @property
    def half_width_x(self) -> int:
        """Max one-sided support in x (samples)."""
        return max(self.cx, self.shape[0] - 1 - self.cx)

    @property
    def half_width_y(self) -> int:
        """Max one-sided support in y (samples)."""
        return max(self.cy, self.shape[1] - 1 - self.cy)

    # -- plan-cache identity -------------------------------------------
    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the kernel (geometry, spacing, and values).

        Exact (byte-level) and therefore safe as a cache key for any
        kernel, including hand-built ones; computed lazily and cached on
        the instance (the dataclass is frozen, so values never change).
        """
        meta = np.array(
            [self.shape[0], self.shape[1], self.cx, self.cy], dtype=np.int64
        )
        digest = hashlib.sha1()
        digest.update(meta.tobytes())
        digest.update(np.array([self.dx, self.dy], dtype=float).tobytes())
        digest.update(np.ascontiguousarray(self.values).tobytes())
        return digest.hexdigest()

    @property
    def plan_key(self) -> Hashable:
        """Key under which the FFT plan cache files this kernel.

        Identity-carrying kernels share plans across amplitude scalings
        (``h`` variants); zero-scale (``h = 0``) kernels must not poison
        the shared entry with an unnormalisable plan, so they fall back
        to the exact fingerprint, as do anonymous kernels.
        """
        if self.identity is not None and self.scale != 0.0:
            return ("id", self.identity)
        return ("fp", self.fingerprint)

    @property
    def plan_scale(self) -> float:
        """Normalisation the plan cache applies for this kernel's key."""
        if self.identity is not None and self.scale != 0.0:
            return float(self.scale)
        return 1.0


def build_kernel(spectrum: Spectrum, grid: Grid2D) -> Kernel:
    """Centred convolution kernel ``w-bar`` of paper eqns (34)-(35).

    Computes ``DFT(v)``, permutes it to centred order (the paper's index
    shift ``k -> k +/- M`` of eqn (35) is exactly ``fftshift``), and
    normalises by ``sqrt(Nx*Ny)`` so that

    .. math:: f = \\bar w \\ast X, \\qquad X_{ij} \\sim N(0, 1)

    (eqn 36) yields ``Var f = sum(w) ~ h^2``.

    The kernel is real and, for the even spectra of Section 2.1,
    symmetric about its centre; tiny imaginary residue from the FFT is
    discarded after a sanity check.
    """
    v = amplitude_array(spectrum, grid)
    big_v = np.fft.fft2(v)
    imag_max = float(np.max(np.abs(big_v.imag))) if big_v.size else 0.0
    scale = float(np.max(np.abs(big_v.real))) or 1.0
    if imag_max > 1e-8 * scale:
        raise ValueError(
            "kernel transform is not real; spectrum must be even in Kx and Ky "
            f"(max |imag| = {imag_max:g})"
        )
    kern = np.fft.fftshift(big_v.real) / np.sqrt(grid.size)
    return Kernel(
        values=np.ascontiguousarray(kern),
        cx=grid.mx,
        cy=grid.my,
        dx=grid.dx,
        dy=grid.dy,
    )


def truncate_kernel(kernel: Kernel, half_x: int, half_y: int) -> Kernel:
    """Truncate to an explicit one-sided support (paper Section 2.4).

    Keeps indices ``[cx-half_x, cx+half_x] x [cy-half_y, cy+half_y]``
    (clipped to the kernel extent).  This is the paper's advantage (b):
    when the correlation length is small the kernel support is compact
    and computation shrinks proportionally.
    """
    if half_x < 0 or half_y < 0:
        raise ValueError("half widths must be >= 0")
    x0 = max(0, kernel.cx - half_x)
    x1 = min(kernel.shape[0], kernel.cx + half_x + 1)
    y0 = max(0, kernel.cy - half_y)
    y1 = min(kernel.shape[1], kernel.cy + half_y + 1)
    vals = np.ascontiguousarray(kernel.values[x0:x1, y0:y1])
    return Kernel(
        values=vals, cx=kernel.cx - x0, cy=kernel.cy - y0,
        dx=kernel.dx, dy=kernel.dy,
    )


def kernel_half_width(kernel: Kernel, energy_fraction: float = 0.999) -> Tuple[int, int]:
    """Smallest symmetric half-widths retaining ``energy_fraction`` energy.

    Searches square-ish windows grown outwards from the centre; returns
    ``(half_x, half_y)`` scaled by the kernel aspect ratio.  Used by
    :func:`truncate_kernel_energy` and by the kernel-scaling bench (C2).
    """
    _validate_energy_fraction(energy_fraction)
    total = kernel.energy
    if total == 0.0:
        return (0, 0)
    max_hx = kernel.half_width_x
    max_hy = kernel.half_width_y
    aspect = (max_hy + 1) / (max_hx + 1)
    for hx in range(max_hx + 1):
        hy = min(max_hy, int(round(aspect * hx)))
        sub = truncate_kernel(kernel, hx, hy)
        if sub.energy >= energy_fraction * total:
            return (hx, hy)
    return (max_hx, max_hy)


def truncate_kernel_energy(kernel: Kernel, energy_fraction: float = 0.999,
                           renormalise: bool = True) -> Kernel:
    """Truncate to the smallest window holding ``energy_fraction`` energy.

    Parameters
    ----------
    energy_fraction:
        Fraction of ``sum(kernel**2)`` (i.e. of the surface variance) that
        the truncated kernel must retain.
    renormalise:
        If true (default), rescale the truncated kernel so its energy
        equals the original: truncation then changes the correlation
        *shape* slightly but preserves the height variance exactly.

    Raises
    ------
    ValueError
        If ``energy_fraction`` lies outside ``(0, 1]`` (or is NaN).
    """
    _validate_energy_fraction(energy_fraction)
    hx, hy = kernel_half_width(kernel, energy_fraction)
    sub = truncate_kernel(kernel, hx, hy)
    if renormalise and sub.energy > 0.0:
        factor = np.sqrt(kernel.energy / sub.energy)
        sub = Kernel(values=sub.values * factor, cx=sub.cx, cy=sub.cy,
                     dx=sub.dx, dy=sub.dy)
    return sub
