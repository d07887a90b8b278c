"""Extended spectral families beyond the paper's three.

The paper motivates its generator with deserts, vegetable fields and
**sea surfaces**, and its reference list leans on ocean-scattering work
(Thorsos' Pierson-Moskowitz study, ref [2]).  This module supplies the
families needed to model those environments properly while reusing the
entire synthesis pipeline unchanged (every class here is a
:class:`~repro.core.spectra.Spectrum`, so kernels, inhomogeneous
layouts, streaming and tiling all work):

* :class:`RotatedSpectrum` — any base spectrum with its anisotropy axes
  rotated by an angle (directional dunes, wind-driven seas);
* :class:`CompositeSpectrum` — superposition of independent components
  (e.g. long swell + short ripple: two-scale ocean surfaces);
* :class:`PiersonMoskowitzSpectrum` — the classical fully-developed
  wind-sea elevation spectrum with cosine-power directional spreading,
  parameterised by wind speed.

Autocorrelations: rotation and composition inherit closed forms from
their parts; Pierson-Moskowitz has no elementary closed-form 2D ACF, so
:meth:`PiersonMoskowitzSpectrum.autocorrelation` evaluates the Fourier
integral numerically (cached quadrature) — exactly what the
``DFT(w) ~ rho`` closure check (:mod:`repro.verify.closure`) needs and
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import integrate, special

from .spectra import Spectrum, register_spectrum_loader, spectrum_from_dict

__all__ = [
    "RotatedSpectrum",
    "CompositeSpectrum",
    "PiersonMoskowitzSpectrum",
    "SelfAffineSpectrum",
    "fourier_synthesis",
    "GRAVITY",
]

GRAVITY = 9.81  # m/s^2 — used by the Pierson-Moskowitz parameterisation


class RotatedSpectrum(Spectrum):
    """A base spectrum with its principal axes rotated by ``angle``.

    The height field of the rotated spectrum is the base field observed
    in rotated coordinates: ``W'(K) = W(R^-1 K)`` and
    ``rho'(r) = rho(R^-1 r)`` with ``R`` the rotation by ``angle``
    radians (counter-clockwise, x towards y).

    Note that a *non-zero* rotation of an anisotropic spectrum is no
    longer even in ``Kx`` and ``Ky`` separately — but it remains even
    under ``K -> -K``, which is what the synthesis pipeline actually
    requires; the kernel builder accepts it because the full 2D folding
    (eqn 16 applied to both axes *jointly* through the signed-frequency
    sampling below) preserves realness.  To keep the paper's folded
    sampling valid, :meth:`spectrum` is defined on |K| pairs via the
    symmetrised form ``(W(R^-1 K) + W(R^-1 K*)) / 2`` where ``K*``
    flips the y component — i.e. the even-in-each-axis part of the
    rotated spectrum.  For rotations of 0 or 90 degrees this is exact;
    for intermediate angles it generates the symmetrised texture (the
    even part), which preserves ``h``, both correlation lengths along
    the grid axes, and the blended-axis anisotropy.
    """

    def __init__(self, base: Spectrum, angle: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "angle", float(angle))
        # Spectrum is a frozen dataclass; initialise its fields manually.
        object.__setattr__(self, "h", base.h)
        object.__setattr__(self, "clx", base.clx)
        object.__setattr__(self, "cly", base.cly)
        object.__setattr__(self, "kind", "rotated")

    def _rotate(self, ax: np.ndarray, ay: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return c * ax + s * ay, -s * ax + c * ay

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        ux, uy = self._rotate(kx, ky)
        vx, vy = self._rotate(kx, -ky)
        return 0.5 * (self.base.spectrum(ux, uy) + self.base.spectrum(vx, vy))

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ux, uy = self._rotate(x, y)
        vx, vy = self._rotate(x, -np.asarray(y, dtype=float))
        return 0.5 * (
            self.base.autocorrelation(ux, uy)
            + self.base.autocorrelation(vx, vy)
        )

    def to_dict(self) -> Dict:
        return {
            "kind": "rotated",
            "angle": self.angle,
            "base": self.base.to_dict(),
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RotatedSpectrum)
            and other.angle == self.angle
            and other.base == self.base
        )

    def __hash__(self) -> int:
        return hash(("rotated", self.angle, self.base))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RotatedSpectrum({self.base!r}, angle={self.angle:g})"


class CompositeSpectrum(Spectrum):
    """Superposition of independent spectral components.

    Heights add as independent Gaussian fields, so spectra and
    autocorrelations add and variances add in quadrature:
    ``h^2 = sum_i h_i^2``.  The classical use is a two-scale sea: a long
    swell component plus short wind ripple — surfaces whose scattering
    behaviour neither single family captures.
    """

    def __init__(self, components: Sequence[Spectrum]):
        comps = tuple(components)
        if not comps:
            raise ValueError("CompositeSpectrum needs at least one component")
        object.__setattr__(self, "components", comps)
        h = math.sqrt(sum(c.h**2 for c in comps))
        # effective correlation lengths: variance-weighted (documentation
        # value only; the true ACF is the component sum below)
        wsum = sum(c.h**2 for c in comps) or 1.0
        clx = sum(c.h**2 * c.clx for c in comps) / wsum
        cly = sum(c.h**2 * c.cly for c in comps) / wsum
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "clx", clx)
        object.__setattr__(self, "cly", cly)
        object.__setattr__(self, "kind", "composite")

    def spectrum(self, kx, ky):
        out = self.components[0].spectrum(kx, ky)
        for c in self.components[1:]:
            out = out + c.spectrum(kx, ky)
        return out

    def autocorrelation(self, x, y):
        out = self.components[0].autocorrelation(x, y)
        for c in self.components[1:]:
            out = out + c.autocorrelation(x, y)
        return out

    def to_dict(self) -> Dict:
        return {
            "kind": "composite",
            "components": [c.to_dict() for c in self.components],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositeSpectrum)
            and other.components == self.components
        )

    def __hash__(self) -> int:
        return hash(("composite", self.components))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompositeSpectrum({list(self.components)!r})"


class PiersonMoskowitzSpectrum(Spectrum):
    """Fully-developed wind-sea elevation spectrum (Pierson-Moskowitz).

    The omnidirectional PM elevation spectrum in wavenumber form,

    .. math::

        S(K) = \\frac{\\alpha}{2 K^3}
               \\exp\\big(-\\beta\\, g^2 / (K^2 U^4)\\big),

    with :math:`\\alpha = 8.1\\times10^{-3}`, :math:`\\beta = 0.74`,
    wind speed ``U`` (m/s at 19.5 m), gravity ``g``, distributed over
    direction with an even cosine-power spreading
    :math:`D(\\phi) \\propto \\cos^{2s}(\\phi - \\phi_w)` about the wind
    direction ``phi_w`` (``s = 1`` default), and normalised so that the
    2D integral equals the PM variance
    :math:`h^2 = \\alpha U^4 / (4 \\beta g^2)`.

    This is the spectrum of Thorsos' sea-scattering study the paper
    cites (ref [2]); the nominal correlation lengths exposed as
    ``clx``/``cly`` are the 1/e crossings of the numerically-evaluated
    ACF along the grid axes.

    Parameters
    ----------
    wind_speed:
        ``U`` in m/s (19.5 m reference height).  3-20 m/s is the
        physically sensible range.
    wind_direction:
        ``phi_w`` in radians from the +x axis.  Only 0 or pi/2 keep the
        spectrum even in each axis exactly; other angles are symmetrised
        exactly as in :class:`RotatedSpectrum`.
    spreading:
        Cosine power ``2s`` exponent parameter ``s >= 0`` (0 = isotropic).
    k_cutoff_low:
        Low-wavenumber cutoff as a fraction of the spectral peak
        ``K_p = beta^(1/2)?``; defaults to 0 (no cutoff).  The PM
        spectrum vanishes rapidly below the peak already.
    """

    ALPHA = 8.1e-3
    BETA = 0.74

    def __init__(self, wind_speed: float, wind_direction: float = 0.0,
                 spreading: float = 1.0):
        if not (0.5 <= wind_speed <= 60.0):
            raise ValueError(
                f"wind speed {wind_speed} m/s outside the sensible range"
            )
        if spreading < 0:
            raise ValueError("spreading exponent must be >= 0")
        object.__setattr__(self, "wind_speed", float(wind_speed))
        object.__setattr__(self, "wind_direction", float(wind_direction))
        object.__setattr__(self, "spreading", float(spreading))
        h = math.sqrt(self.ALPHA) * wind_speed**2 / (
            2.0 * math.sqrt(self.BETA) * GRAVITY
        )
        # nominal correlation length ~ 1 / peak wavenumber
        kp = math.sqrt(self.BETA) * GRAVITY / wind_speed**2
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "clx", 1.0 / kp)
        object.__setattr__(self, "cly", 1.0 / kp)
        object.__setattr__(self, "kind", "pierson_moskowitz")
        object.__setattr__(self, "_acf_cache", {})

    # -- directional spreading -------------------------------------------
    def _spread(self, phi: np.ndarray) -> np.ndarray:
        s = self.spreading
        if s == 0.0:
            return np.full_like(phi, 1.0 / (2.0 * np.pi))
        # even cos^{2s} spreading, normalised over [-pi, pi]
        norm = (
            2.0 * np.sqrt(np.pi) * special.gamma(s + 0.5) / special.gamma(s + 1.0)
        )
        c = np.cos(phi - self.wind_direction)
        out = np.where(np.abs(c) > 0, np.abs(c) ** (2.0 * s), 0.0) / norm
        return out

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        k = np.hypot(kx, ky)
        phi = np.arctan2(ky, kx)
        u = self.wind_speed
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            radial = (
                0.5 * self.ALPHA / np.maximum(k, 1e-300) ** 3
                * np.exp(-self.BETA * GRAVITY**2 / (
                    np.maximum(k, 1e-300) ** 2 * u**4))
            )
        radial = np.where(k > 0, radial, 0.0)
        # symmetrised spreading (even in each K axis: phi and -phi, and
        # phi mirrored through the Ky axis)
        d = 0.25 * (
            self._spread(phi) + self._spread(-phi)
            + self._spread(np.pi - phi) + self._spread(phi - np.pi)
        )
        # W(K) such that iint W dK = h^2: radial part integrates over
        # K dK dphi, so divide by K to express in Cartesian measure
        return radial / np.maximum(k, 1e-300) * d * np.where(k > 0, 1.0, 0.0)

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Numerically evaluated Fourier integral of :meth:`spectrum`.

        Cached per lag; intended for validation at a modest number of
        lags, not for dense maps (use ``weight_autocorrelation`` on a
        grid for that).
        """
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        shape = np.broadcast(x_arr, y_arr).shape
        xs = np.broadcast_to(x_arr, shape).ravel()
        ys = np.broadcast_to(y_arr, shape).ravel()
        out = np.empty(xs.shape)
        kp = math.sqrt(self.BETA) * GRAVITY / self.wind_speed**2
        k_hi = 80.0 * kp
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            key = (round(float(xi), 9), round(float(yi), 9))
            if key not in self._acf_cache:
                def integrand(k, phi, xi=xi, yi=yi):
                    kx = k * np.cos(phi)
                    ky = k * np.sin(phi)
                    return (
                        self.spectrum(kx, ky) * k * np.cos(kx * xi + ky * yi)
                    )
                val, _ = integrate.dblquad(
                    integrand, 0.0, np.pi, 1e-3 * kp, k_hi,
                    epsabs=1e-10, epsrel=1e-7,
                )
                # spectrum is even under K -> -K: double the half-plane
                self._acf_cache[key] = 2.0 * val
            out[i] = self._acf_cache[key]
        result = out.reshape(shape)
        return result if shape else float(result)

    def to_dict(self) -> Dict:
        return {
            "kind": "pierson_moskowitz",
            "wind_speed": self.wind_speed,
            "wind_direction": self.wind_direction,
            "spreading": self.spreading,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiersonMoskowitzSpectrum)
            and other.wind_speed == self.wind_speed
            and other.wind_direction == self.wind_direction
            and other.spreading == self.spreading
        )

    def __hash__(self) -> int:
        return hash(("pm", self.wind_speed, self.wind_direction,
                      self.spreading))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PiersonMoskowitzSpectrum(U={self.wind_speed:g} m/s, "
            f"dir={self.wind_direction:g}, s={self.spreading:g})"
        )


class SelfAffineSpectrum(Spectrum):
    """Isotropic self-affine (fractal) roughness spectrum with roll-off.

    The standard description of machined, fractured and deposited
    surfaces (and the spec implemented by the ``artificial_surf.m``
    exemplar): a power-law PSD governed by the Hurst exponent ``H``
    (fractal dimension ``D = 3 - H``), optionally flattened into a
    roll-off plateau below the roll-off wavevector ``qr``,

    .. math::

        W(q) = C \\Big(\\frac{\\max(q, q_r)}{q_r}\\Big)^{-2-2H},
        \\qquad
        C = \\frac{\\sigma^2 H}{\\pi\\, q_r^2\\, (1 + H)},

    normalised so that :math:`\\iint W\\, d\\mathbf K = \\sigma^2` — the
    plateau is what makes the total variance finite, exactly as in the
    exemplar.  Without a roll-off (``qr=None``) the surface has no
    outer scale and infinite total variance; we then adopt the
    convention :math:`W(q) = (\\sigma^2 H / \\pi)\\, q^{-2-2H}` (with
    ``W(0) = 0``), i.e. ``sigma`` is the rms roughness carried by
    wavevectors above ``q = 1``; the realised rms on any grid depends
    on the resolved band, and :meth:`autocorrelation` is undefined
    (it raises).

    The autocorrelation for ``qr`` set is the exact isotropic Hankel
    transform

    .. math::

        \\rho(r) = 2\\pi C \\Big[ \\frac{q_r J_1(q_r r)}{r}
            + q_r^2 (q_r r)^{2H} G(q_r r) \\Big],
        \\qquad G(a) = \\int_a^\\infty u^{-1-2H} J_0(u)\\, du,

    evaluated through a dense cached quadrature table for ``G`` (the
    plateau term is closed-form).  ``rho(0) = sigma**2`` holds exactly.

    Parameters
    ----------
    sigma:
        RMS roughness (the base-class ``h``).
    hurst:
        Hurst exponent ``H`` in ``(0, 1]``.  Small ``H`` means rough at
        every scale (slowly decaying PSD tail).
    qr:
        Roll-off wavevector (rad per unit length), or ``None`` for no
        plateau.  ``2*pi/qr`` is the roll-off wavelength; the nominal
        correlation length exposed as ``clx``/``cly`` is ``1/qr``.
    """

    def __init__(self, sigma: float, hurst: float, qr: float | None = None):
        if not np.isfinite(sigma) or sigma < 0:
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if not np.isfinite(hurst) or not (0.0 < hurst <= 1.0):
            raise ValueError(
                f"Hurst exponent must lie in (0, 1], got {hurst}"
            )
        if qr is not None and (not np.isfinite(qr) or qr <= 0):
            raise ValueError(f"roll-off wavevector qr must be > 0, got {qr}")
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "hurst", float(hurst))
        object.__setattr__(self, "qr", None if qr is None else float(qr))
        object.__setattr__(self, "h", float(sigma))
        nominal_cl = 1.0 if qr is None else 1.0 / float(qr)
        object.__setattr__(self, "clx", nominal_cl)
        object.__setattr__(self, "cly", nominal_cl)
        object.__setattr__(self, "kind", "self_affine")
        object.__setattr__(self, "_tail_cache", {})

    # -- PSD ------------------------------------------------------------
    def _amplitude(self) -> float:
        """The plateau level ``C`` (or the ``q=1`` level when no roll-off)."""
        s2, hu = self.sigma**2, self.hurst
        if self.qr is None:
            return s2 * hu / math.pi
        return s2 * hu / (math.pi * self.qr**2 * (1.0 + hu))

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        q = np.hypot(kx, ky)
        c = self._amplitude()
        exponent = -2.0 - 2.0 * self.hurst
        if self.qr is not None:
            return c * (np.maximum(q, self.qr) / self.qr) ** exponent
        with np.errstate(divide="ignore"):
            out = c * q**exponent
        return np.where(q > 0, out, 0.0)

    # -- ACF ------------------------------------------------------------
    #: quadrature extent of the cached tail table G(a); beyond it the
    #: first asymptotic term of J0 closes the integral analytically.
    _U_MAX = 6000.0

    def _tail_table(self):
        """Dense table of ``G(a) = int_a^inf u^(-1-2H) J0(u) du``.

        Built once per instance: log-spaced nodes resolve the
        ``u^(-2H)`` singularity below 1 (tabulating the *smooth
        remainder* ``G - a^(-2H)/(2H)`` there so interpolation stays
        accurate), linear phase-resolving nodes handle the oscillatory
        stretch up to ``_U_MAX``.
        """
        cached = self._tail_cache.get("table")
        if cached is not None:
            return cached
        hu = self.hurst
        u_lo = np.geomspace(1e-8, 1.0, 4001)
        u_hi = np.arange(1.0, self._U_MAX + 0.02, 0.02)
        u = np.concatenate([u_lo[:-1], u_hi])
        f = u ** (-1.0 - 2.0 * hu) * special.j0(u)
        # trapezoid segments, accumulated from the top down
        seg = 0.5 * (f[1:] + f[:-1]) * np.diff(u)
        tail = -math.sqrt(2.0 / math.pi) * self._U_MAX ** (
            -1.5 - 2.0 * hu
        ) * math.sin(self._U_MAX - 0.25 * math.pi)
        g = np.concatenate([
            (tail + np.cumsum(seg[::-1]))[::-1], [tail],
        ])
        # smooth remainder below u = 1 for singularity-free interpolation
        n_lo = u_lo.size - 1
        r_lo = g[: n_lo + 1] - u[: n_lo + 1] ** (-2.0 * hu) / (2.0 * hu)
        table = (u, g, n_lo, r_lo)
        self._tail_cache["table"] = table
        return table

    def _tail_integral(self, a: np.ndarray) -> np.ndarray:
        """``G(a)`` for ``a > 0`` (vectorised, table-interpolated)."""
        u, g, n_lo, r_lo = self._tail_table()
        hu = self.hurst
        a = np.asarray(a, dtype=float)
        out = np.empty(a.shape)
        sing = a ** (-2.0 * hu) / (2.0 * hu)
        below = a < 1.0
        # below 1: exact singular part + interpolated smooth remainder
        # (np.interp clamps, so a < 1e-8 reuses the leftmost remainder —
        # exact to O(a^(2-2H)) since J0 -> 1 there)
        out[below] = sing[below] + np.interp(a[below], u[: n_lo + 1], r_lo)
        high = ~below
        out[high] = np.interp(a[high], u[n_lo:], g[n_lo:])
        beyond = a >= self._U_MAX
        if np.any(beyond):
            ab = a[beyond]
            out[beyond] = -math.sqrt(2.0 / math.pi) * ab ** (
                -1.5 - 2.0 * hu
            ) * np.sin(ab - 0.25 * math.pi)
        return out

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.qr is None:
            raise ValueError(
                "a self-affine spectrum without a roll-off (qr=None) has "
                "infinite variance: the autocorrelation is undefined; set "
                "qr to give the surface an outer scale"
            )
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        shape = r.shape
        r = np.atleast_1d(r)
        qr, hu = self.qr, self.hurst
        a = qr * r
        small = a < 1e-9
        safe_r = np.where(small, 1.0, r)
        # plateau term: int_0^qr J0(q r) q dq = qr J1(qr r) / r
        plateau = np.where(
            small, 0.5 * qr**2, qr * special.j1(a) / safe_r
        )
        # power-law tail via the substitution u = q r
        tail = np.empty_like(a)
        tail[small] = qr**2 / (2.0 * hu)
        ns = ~small
        tail[ns] = qr**2 * a[ns] ** (2.0 * hu) * self._tail_integral(a[ns])
        rho = 2.0 * math.pi * self._amplitude() * (plateau + tail)
        rho = rho.reshape(shape)
        return rho if shape else float(rho)

    # -- plumbing --------------------------------------------------------
    def with_params(self, **kwargs) -> "SelfAffineSpectrum":
        """Copy with parameters replaced; ``h`` aliases ``sigma``.

        Supporting ``with_params(h=1.0)`` lets ``resolve_kernel`` give
        self-affine kernels a unit-amplitude plan-cache identity, so
        spectra differing only in ``sigma`` share one FFT plan exactly
        like the paper families share across ``h``.
        """
        params = {"sigma": self.sigma, "hurst": self.hurst, "qr": self.qr}
        if "h" in kwargs:
            params["sigma"] = kwargs.pop("h")
        unknown = set(kwargs) - set(params)
        if unknown:
            raise TypeError(
                f"unknown self-affine parameters {sorted(unknown)}"
            )
        params.update(kwargs)
        return SelfAffineSpectrum(**params)

    def to_dict(self) -> Dict:
        return {
            "kind": "self_affine",
            "sigma": self.sigma,
            "hurst": self.hurst,
            "qr": self.qr,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SelfAffineSpectrum)
            and other.sigma == self.sigma
            and other.hurst == self.hurst
            and other.qr == self.qr
        )

    def __hash__(self) -> int:
        return hash(("self_affine", self.sigma, self.hurst, self.qr))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SelfAffineSpectrum(sigma={self.sigma:g}, "
            f"hurst={self.hurst:g}, qr={self.qr!r})"
        )


# ---------------------------------------------------------------------------
# Fourier-coefficient-statistics synthesis (de Castro et al.)
# ---------------------------------------------------------------------------
def fourier_synthesis(
    spectrum: Spectrum,
    grid,
    seed=None,
    *,
    amplitude: str = "gaussian",
    phase: str = "random",
    zero_mean: bool = True,
) -> np.ndarray:
    """Direct spectral synthesis with switchable coefficient statistics.

    de Castro et al. study how the *statistics of the Fourier
    coefficients* — not just their mean power — shape fractional
    Brownian surfaces.  This implements both canonical choices on any
    :class:`~repro.core.spectra.Spectrum` (the ``artificial_surf.m``
    exemplar is the ``amplitude="deterministic"`` case):

    ``amplitude="gaussian"``
        Complex-Gaussian coefficients (Rayleigh amplitudes, uniform
        phases) — statistically identical to the convolution/DFT
        method; every realisation's periodogram scatters exponentially
        about the target.
    ``amplitude="deterministic"``
        Coefficient magnitudes pinned to ``sqrt(w)`` exactly; only the
        phases are random.  Every realisation then has *exactly* the
        target discrete power spectrum (and, with ``zero_mean``, mean
        square exactly ``sum(w) - w[0,0]``).

    ``phase`` is ``"random"`` (uniform, from the phases of a seeded
    white-noise DFT so Hermitian symmetry is automatic) or ``"zero"``
    (deterministic all-zero phases; only valid with deterministic
    amplitudes — it yields the centred kernel-like surface).

    Returns the ``grid.shape`` float64 height field.
    """
    from .weights import weight_array

    if amplitude not in ("gaussian", "deterministic"):
        raise ValueError(
            f"amplitude must be 'gaussian' or 'deterministic', got "
            f"{amplitude!r}"
        )
    if phase not in ("random", "zero"):
        raise ValueError(f"phase must be 'random' or 'zero', got {phase!r}")
    if amplitude == "gaussian" and phase == "zero":
        raise ValueError(
            "gaussian coefficient amplitudes imply random phases; use "
            "amplitude='deterministic' with phase='zero'"
        )
    w = weight_array(spectrum, grid)
    if zero_mean:
        w = w.copy()
        w[0, 0] = 0.0
    root_w = np.sqrt(w)
    n_total = grid.size
    if phase == "zero":
        coef = n_total * root_w.astype(complex)
    else:
        noise = np.random.default_rng(seed).standard_normal(grid.shape)
        big_f = np.fft.fft2(noise)
        if amplitude == "gaussian":
            coef = math.sqrt(n_total) * big_f * root_w
        else:
            mag = np.abs(big_f)
            unit = np.where(mag > 0, big_f / np.where(mag > 0, mag, 1.0), 1.0)
            coef = n_total * unit * root_w
    return np.fft.ifft2(coef).real


# ---------------------------------------------------------------------------
# Serialisation loaders
# ---------------------------------------------------------------------------
def _load_rotated(spec: Dict) -> RotatedSpectrum:
    return RotatedSpectrum(
        base=spectrum_from_dict(spec["base"]), angle=spec["angle"]
    )


def _load_composite(spec: Dict) -> CompositeSpectrum:
    return CompositeSpectrum(
        [spectrum_from_dict(c) for c in spec["components"]]
    )


def _load_pm(spec: Dict) -> PiersonMoskowitzSpectrum:
    return PiersonMoskowitzSpectrum(
        wind_speed=spec["wind_speed"],
        wind_direction=spec.get("wind_direction", 0.0),
        spreading=spec.get("spreading", 1.0),
    )


def _load_self_affine(spec: Dict) -> SelfAffineSpectrum:
    return SelfAffineSpectrum(
        sigma=spec["sigma"], hurst=spec["hurst"], qr=spec.get("qr"),
    )


register_spectrum_loader("rotated", _load_rotated)
register_spectrum_loader("composite", _load_composite)
register_spectrum_loader("pierson_moskowitz", _load_pm)
register_spectrum_loader("self_affine", _load_self_affine)
