"""Spectral density functions for 2D random rough surfaces.

Implements Section 2.1 of Uchida, Honda & Yoon: the spectral density
function :math:`W(\\mathbf{K})` of a two-dimensional random rough surface
(RRS) with height standard deviation ``h`` and per-axis correlation
lengths ``clx``, ``cly``, for the three families used throughout the
paper:

* :class:`GaussianSpectrum` — paper eqns (5)-(6);
* :class:`PowerLawSpectrum` (N-th order, ``N > 1``) — paper eqns (7)-(8);
* :class:`ExponentialSpectrum` — paper eqns (9)-(10).

Every spectrum satisfies the normalisation of eqn (1),

.. math:: \\iint W(\\mathbf{K})\\, d\\mathbf{K} = h^2 ,

equivalently :math:`\\rho(\\mathbf{0}) = h^2` for the autocorrelation
function :math:`\\rho` of eqn (4).  Both ``spectrum`` and
``autocorrelation`` are exposed and are *exact Fourier pairs*; this is
what makes the paper's accuracy check ``DFT(w) ~ rho(r)`` (below eqn 16)
implementable, see :mod:`repro.verify.closure`.

A note on the Power-Law pair
----------------------------
The printed eqn (8) of the paper gives an algebraic autocorrelation for
the N-th order Power-Law spectrum.  The exact 2D inverse Fourier
transform of eqn (7) is in fact a Matérn (modified-Bessel) form,

.. math::

    \\rho(\\mathbf r) = h^2\\,\\frac{2^{2-N}}{\\Gamma(N-1)}\\,
        s^{N-1} K_{N-1}(s), \\qquad
    s = 2\\sqrt{(x/cl_x)^2 + (y/cl_y)^2},

which reduces to :math:`h^2` at the origin for every ``N > 1``.  We
implement this exact form (derived via the Hankel-transform identity for
:math:`(1+a^2K^2)^{-N}`) so that spectrum and autocorrelation are a true
transform pair; see DESIGN.md section 2 (S1).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Dict, Type

import numpy as np
from scipy import special

__all__ = [
    "Spectrum",
    "GaussianSpectrum",
    "PowerLawSpectrum",
    "ExponentialSpectrum",
    "spectrum_from_dict",
    "register_spectrum",
    "register_spectrum_loader",
]


def _validate_params(h: float, clx: float, cly: float) -> None:
    if not np.isfinite(h) or h < 0:
        raise ValueError(f"height std h must be finite and >= 0, got {h}")
    for name, cl in (("clx", clx), ("cly", cly)):
        if not np.isfinite(cl) or cl <= 0:
            raise ValueError(f"{name} must be finite and > 0, got {cl}")


@dataclass(frozen=True)
class Spectrum(abc.ABC):
    """Abstract spectral density of a homogeneous 2D RRS.

    Parameters
    ----------
    h:
        Standard deviation of the surface height (eqn 1).
    clx, cly:
        Correlation lengths in the x and y directions (anisotropy is
        supported throughout, per eqns 5, 7, 9).

    Subclasses implement :meth:`spectrum` (``W(Kx, Ky)``) and
    :meth:`autocorrelation` (``rho(x, y)``), which must form an exact 2D
    Fourier pair under the convention of eqn (4):

    .. math:: \\rho(\\mathbf r) = \\iint W(\\mathbf K)
              e^{j \\mathbf K\\cdot\\mathbf r}\\, d\\mathbf K .
    """

    h: float
    clx: float
    cly: float

    #: short name used for serialisation / CLI specs; set by subclasses.
    kind: str = "abstract"

    def __post_init__(self) -> None:
        _validate_params(self.h, self.clx, self.cly)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        """Spectral density ``W(Kx, Ky)``; broadcasts over inputs."""

    @abc.abstractmethod
    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Autocorrelation ``rho(x, y)``; broadcasts over inputs.

        Normalised such that ``rho(0, 0) == h**2`` (eqns 1, 4).
        """

    # ------------------------------------------------------------------
    @property
    def variance(self) -> float:
        """Surface height variance ``h**2``."""
        return self.h * self.h

    def correlation_coefficient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Autocorrelation normalised to 1 at zero lag."""
        if self.h == 0:
            return np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)
        return self.autocorrelation(x, y) / self.variance

    def with_params(self, **kwargs: Any) -> "Spectrum":
        """Return a copy with some of ``h``, ``clx``, ``cly`` replaced."""
        params = {"h": self.h, "clx": self.clx, "cly": self.cly}
        extra = {
            k: v for k, v in self.__dict__.items() if k not in params and k != "kind"
        }
        params.update(extra)
        params.update(kwargs)
        return type(self)(**params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description (round-trips via
        :func:`spectrum_from_dict`)."""
        out: Dict[str, Any] = {"kind": self.kind, "h": self.h, "clx": self.clx,
                               "cly": self.cly}
        if isinstance(self, PowerLawSpectrum):
            out["order"] = self.order
        return out

    # convenience for isotropic construction ---------------------------------
    @classmethod
    def isotropic(cls, h: float, cl: float, **kwargs: Any) -> "Spectrum":
        """Construct with ``clx == cly == cl``."""
        return cls(h=h, clx=cl, cly=cl, **kwargs)


# ---------------------------------------------------------------------------
# Gaussian spectrum (paper eqns 5-6)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GaussianSpectrum(Spectrum):
    """Gaussian roughness spectrum, paper eqn (5).

    .. math::

        W(\\mathbf K) = \\frac{cl_x\\, cl_y\\, h^2}{4\\pi}
            \\exp\\!\\Big(-\\frac{(K_x cl_x)^2}{4}
                         -\\frac{(K_y cl_y)^2}{4}\\Big)

    with autocorrelation (eqn 6)

    .. math::

        \\rho(\\mathbf r) = h^2 \\exp\\!\\Big(-\\big(\\tfrac{x}{cl_x}\\big)^2
                                      -\\big(\\tfrac{y}{cl_y}\\big)^2\\Big).
    """

    kind: str = "gaussian"

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        amp = self.clx * self.cly * self.h * self.h / (4.0 * np.pi)
        arg = -0.25 * ((kx * self.clx) ** 2 + (ky * self.cly) ** 2)
        return amp * np.exp(arg)

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.variance * np.exp(-((x / self.clx) ** 2) - (y / self.cly) ** 2)


# ---------------------------------------------------------------------------
# N-th order Power-Law spectrum (paper eqns 7-8)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PowerLawSpectrum(Spectrum):
    """N-th order Power-Law roughness spectrum, paper eqn (7).

    .. math::

        W(\\mathbf K) = \\frac{cl_x\\, cl_y\\, h^2}{4\\pi}
            \\frac{\\Gamma(N)}{\\Gamma(N-1)}
            \\Big[1 + \\big(\\tfrac{K_x cl_x}{2}\\big)^2
                   + \\big(\\tfrac{K_y cl_y}{2}\\big)^2\\Big]^{-N}

    with ``N > 1`` (paper's assumption).  The exact autocorrelation is the
    Matérn form documented in the module docstring; at ``N = 3/2`` this
    family touches the exponential-correlation class, and as
    ``N -> infinity`` it approaches the Gaussian family.

    Parameters
    ----------
    order:
        The exponent ``N``.  Must satisfy ``N > 1`` for the spectrum to be
        integrable (finite ``h``).
    """

    order: float = 2.0
    kind: str = "power_law"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.isfinite(self.order) or self.order <= 1.0:
            raise ValueError(
                f"Power-Law order N must be > 1 (paper Section 2.1), got {self.order}"
            )

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        n = self.order
        # Gamma(N)/Gamma(N-1) == N - 1 for N > 1; use the closed form to
        # avoid overflow for large N.
        amp = self.clx * self.cly * self.h * self.h / (4.0 * np.pi) * (n - 1.0)
        base = 1.0 + (0.5 * kx * self.clx) ** 2 + (0.5 * ky * self.cly) ** 2
        return amp * base ** (-n)

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = self.order
        s = 2.0 * np.sqrt((x / self.clx) ** 2 + (y / self.cly) ** 2)
        out = np.empty(np.broadcast(x, y).shape, dtype=float)
        s = np.broadcast_to(s, out.shape)
        small = s < 1e-12
        # Matérn: rho = h^2 * 2^(2-N)/Gamma(N-1) * s^(N-1) * K_{N-1}(s)
        with np.errstate(invalid="ignore", over="ignore"):
            coef = self.variance * 2.0 ** (2.0 - n) / special.gamma(n - 1.0)
            body = coef * s ** (n - 1.0) * special.kv(n - 1.0, s)
        out[...] = body
        out[small] = self.variance
        # kv underflows to 0 for very large s; that is the correct limit.
        np.nan_to_num(out, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Exponential spectrum (paper eqns 9-10)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExponentialSpectrum(Spectrum):
    """Exponential-correlation roughness spectrum, paper eqn (9).

    .. math::

        W(\\mathbf K) = \\frac{cl_x\\, cl_y\\, h^2}{2\\pi}
            \\big[1 + (K_x cl_x)^2 + (K_y cl_y)^2\\big]^{-3/2}

    with autocorrelation (eqn 10)

    .. math::

        \\rho(\\mathbf r) = h^2 \\exp\\!\\Big(
            -\\sqrt{(x/cl_x)^2 + (y/cl_y)^2}\\Big).

    The exponential class models surfaces with much richer small-scale
    detail than the Gaussian class (its spectrum decays algebraically);
    the paper uses it for the pond/water regions in Figures 2-4.
    """

    kind: str = "exponential"

    def spectrum(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        amp = self.clx * self.cly * self.h * self.h / (2.0 * np.pi)
        base = 1.0 + (kx * self.clx) ** 2 + (ky * self.cly) ** 2
        return amp * base ** (-1.5)

    def autocorrelation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt((x / self.clx) ** 2 + (y / self.cly) ** 2)
        return self.variance * np.exp(-r)


# ---------------------------------------------------------------------------
# Registry / serialisation
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Spectrum]] = {}
_LOADERS: Dict[str, Any] = {}


def register_spectrum_loader(kind: str, loader) -> None:
    """Register a custom ``dict -> Spectrum`` factory for a kind.

    Used by spectra whose constructor signature is not the plain
    ``(h, clx, cly, ...)`` dataclass form (rotated/composite/ocean
    spectra in :mod:`repro.core.spectra_ext`).
    """
    if not kind or not callable(loader):
        raise ValueError("need a non-empty kind and a callable loader")
    _LOADERS[kind] = loader


def register_spectrum(cls: Type[Spectrum]) -> Type[Spectrum]:
    """Register a Spectrum subclass for :func:`spectrum_from_dict`.

    May be used as a decorator by downstream packages adding custom
    spectral families (e.g. Pierson-Moskowitz sea spectra).
    """
    kind = cls.kind if isinstance(cls.kind, str) else None
    if not kind or kind == "abstract":
        raise ValueError("Spectrum subclass must define a non-abstract 'kind'")
    _REGISTRY[kind] = cls
    return cls


for _cls in (GaussianSpectrum, PowerLawSpectrum, ExponentialSpectrum):
    register_spectrum(_cls)


def spectrum_from_dict(spec: Dict[str, Any]) -> Spectrum:
    """Reconstruct a :class:`Spectrum` from :meth:`Spectrum.to_dict` output.

    Raises
    ------
    KeyError
        If ``spec['kind']`` names an unregistered family.
    """
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind in _LOADERS:
        return _LOADERS[kind](spec)
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown spectrum kind {kind!r}; registered: "
            f"{sorted(set(_REGISTRY) | set(_LOADERS))}"
        ) from None
    return cls(**spec)
