"""One-dimensional rough profile generation.

The paper's propagation programme (refs [8]-[12]) analyses EM waves
along 1D rough *profiles* (FVTD and discrete ray tracing operate on a
height profile f(x)).  Two ways to obtain one:

1. cut a 1D profile out of a generated 2D surface
   (:meth:`repro.core.surface.Surface.profile_x`), whose spectrum is the
   ``Ky``-marginal of the 2D spectrum; or
2. generate the profile *directly* with the 1D convolution method — this
   module — which is orders of magnitude cheaper for long transects.

The 1D machinery mirrors the 2D pipeline exactly: a spectral density
``W1(K)`` with ``int W1 dK = h^2``, a weighting vector
``w_m = (2*pi/L) * W1(K_m)`` on folded bins, the kernel
``c = fftshift(DFT(sqrt(w))) / sqrt(N)``, and correlation with unit
white noise; streaming windows over a 1D :class:`BlockNoise` line.

Provided families (all exact transform pairs):

* :class:`Gaussian1D`:      ``rho = h^2 exp(-(x/cl)^2)``
* :class:`Exponential1D`:   ``rho = h^2 exp(-|x|/cl)``
* :class:`Matern1D` (order ``N > 1/2``): the 1D analogue of the paper's
  Power-Law family.
* :func:`marginal_of_2d`: the exact 1D spectrum of a straight cut
  through a 2D surface, ``W1(Kx) = int W2(Kx, Ky) dKy`` (numeric
  quadrature over the closed-form 2D spectrum).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import integrate, special

from .api import HeightField, merge_provenance, traced
from .rng import SeedLike, as_generator, standard_normal_field
from .spectra import Spectrum

__all__ = [
    "Spectrum1D",
    "Gaussian1D",
    "Exponential1D",
    "Matern1D",
    "TabulatedSpectrum1D",
    "marginal_of_2d",
    "weight_vector",
    "build_kernel_1d",
    "Kernel1D",
    "ProfileGenerator",
    "BlockNoise1D",
]


# ---------------------------------------------------------------------------
# 1D spectra
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Spectrum1D(abc.ABC):
    """Spectral density of a 1D rough profile: ``int W1(K) dK = h^2``."""

    h: float
    cl: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.h) or self.h < 0:
            raise ValueError(f"h must be finite and >= 0, got {self.h}")
        if not np.isfinite(self.cl) or self.cl <= 0:
            raise ValueError(f"cl must be finite and > 0, got {self.cl}")

    @property
    def variance(self) -> float:
        return self.h * self.h

    @abc.abstractmethod
    def spectrum(self, k: np.ndarray) -> np.ndarray:
        """``W1(K)`` — even, non-negative."""

    @abc.abstractmethod
    def autocorrelation(self, x: np.ndarray) -> np.ndarray:
        """``rho(x)`` with ``rho(0) = h^2``."""


@dataclass(frozen=True)
class Gaussian1D(Spectrum1D):
    """1D Gaussian pair: ``W1 = (cl h^2 / 2 sqrt(pi)) exp(-(K cl / 2)^2)``."""

    def spectrum(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        amp = self.cl * self.variance / (2.0 * math.sqrt(math.pi))
        return amp * np.exp(-0.25 * (k * self.cl) ** 2)

    def autocorrelation(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.variance * np.exp(-((x / self.cl) ** 2))


@dataclass(frozen=True)
class Exponential1D(Spectrum1D):
    """1D exponential pair: ``W1 = (cl h^2 / pi) / (1 + (K cl)^2)``."""

    def spectrum(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return self.cl * self.variance / (np.pi * (1.0 + (k * self.cl) ** 2))

    def autocorrelation(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.variance * np.exp(-np.abs(x) / self.cl)


@dataclass(frozen=True)
class Matern1D(Spectrum1D):
    """1D power-law (Matérn) pair of order ``N > 1/2``.

    ``W1(K) = A [1 + (K cl / 2)^2]^(-N)`` with ``A`` chosen so the
    integral is ``h^2``; the exact ACF is the 1D Matérn Bessel form
    ``rho = h^2 2^(3/2-N)/Gamma(N-1/2) s^(N-1/2) K_{N-1/2}(s)``,
    ``s = 2|x|/cl``.
    """

    order: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.order <= 0.5:
            raise ValueError(f"Matern1D requires N > 1/2, got {self.order}")

    def spectrum(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        n = self.order
        # int (1 + (K a)^2)^-N dK over R = (sqrt(pi)/a) G(N-1/2)/G(N)
        a = self.cl / 2.0
        norm = math.sqrt(math.pi) / a * special.gamma(n - 0.5) / special.gamma(n)
        return self.variance / norm * (1.0 + (k * a) ** 2) ** (-n)

    def autocorrelation(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.order
        s = 2.0 * np.abs(x) / self.cl
        out = np.empty(s.shape if s.shape else (1,))
        s_flat = np.atleast_1d(s)
        small = s_flat < 1e-12
        with np.errstate(invalid="ignore", over="ignore"):
            coef = (
                self.variance * 2.0 ** (1.5 - n) / special.gamma(n - 0.5)
            )
            body = coef * s_flat ** (n - 0.5) * special.kv(n - 0.5, s_flat)
        out = np.where(small, self.variance, body)
        np.nan_to_num(out, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        return out.reshape(s.shape) if s.shape else float(out[0])


class TabulatedSpectrum1D(Spectrum1D):
    """A 1D spectrum defined by a callable ``W1(K)`` (e.g. a marginal).

    ``h`` is computed by quadrature; the ACF by cosine-transform
    quadrature per lag (cached).  Used by :func:`marginal_of_2d`.
    """

    def __init__(self, w1: Callable[[np.ndarray], np.ndarray],
                 cl_nominal: float, k_max: float):
        var, _ = integrate.quad(lambda k: float(w1(np.asarray(k))),
                                -k_max, k_max, limit=400)
        object.__setattr__(self, "h", math.sqrt(max(var, 0.0)))
        object.__setattr__(self, "cl", float(cl_nominal))
        object.__setattr__(self, "_w1", w1)
        object.__setattr__(self, "_k_max", float(k_max))
        object.__setattr__(self, "_cache", {})

    def spectrum(self, k: np.ndarray) -> np.ndarray:
        return np.asarray(self._w1(np.asarray(k, dtype=float)), dtype=float)

    def autocorrelation(self, x: np.ndarray) -> np.ndarray:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x_arr.shape)
        for i, xi in enumerate(x_arr):
            key = round(float(abs(xi)), 9)
            if key not in self._cache:
                val, _ = integrate.quad(
                    lambda k: float(self._w1(np.asarray(k))) * math.cos(k * key),
                    -self._k_max, self._k_max, limit=400,
                )
                self._cache[key] = val
            out[i] = self._cache[key]
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])


def marginal_of_2d(spectrum2d: Spectrum, k_max_factor: float = 40.0
                   ) -> TabulatedSpectrum1D:
    """The exact 1D spectrum of a straight x-cut through a 2D surface.

    ``W1(Kx) = int W2(Kx, Ky) dKy`` — the profile keeps the full height
    variance (``int W1 = h^2``) but redistributes it: a cut through a 2D
    surface is *rougher* at small scales than a 1D profile generated
    from the same-family 1D spectrum.
    """
    k_hi = k_max_factor / min(spectrum2d.clx, spectrum2d.cly)

    def w1(kx: np.ndarray) -> np.ndarray:
        kx_arr = np.atleast_1d(np.asarray(kx, dtype=float))
        out = np.empty(kx_arr.shape)
        for i, k in enumerate(kx_arr):
            val, _ = integrate.quad(
                lambda ky: float(spectrum2d.spectrum(k, ky)),
                0.0, k_hi, limit=200,
            )
            out[i] = 2.0 * val  # even in Ky
        return out.reshape(np.shape(kx)) if np.shape(kx) else out[0]

    return TabulatedSpectrum1D(w1, cl_nominal=spectrum2d.clx, k_max=k_hi)


# ---------------------------------------------------------------------------
# 1D weighting / kernel / generation
# ---------------------------------------------------------------------------
def weight_vector(spectrum: Spectrum1D, n: int, length: float) -> np.ndarray:
    """1D weighting vector ``w_m = (2 pi / L) W1(|K_m|)`` on folded bins."""
    if n <= 0:
        raise ValueError("n must be positive")
    if length <= 0:
        raise ValueError("length must be positive")
    m = np.arange(n)
    folded = np.minimum(m, n - m)
    k = 2.0 * np.pi * folded / length
    w = (2.0 * np.pi / length) * spectrum.spectrum(k)
    if np.any(w < 0):
        raise ValueError("1D spectral density must be >= 0")
    return w


@dataclass(frozen=True)
class Kernel1D:
    """Centred 1D convolution kernel."""

    values: np.ndarray
    centre: int
    dx: float

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def energy(self) -> float:
        return float(np.sum(self.values**2))


def build_kernel_1d(spectrum: Spectrum1D, n: int, length: float,
                    truncation: Optional[float] = None) -> Kernel1D:
    """1D analogue of :func:`repro.core.weights.build_kernel`."""
    w = weight_vector(spectrum, n, length)
    v = np.sqrt(w)
    big_v = np.fft.fft(v)
    if np.max(np.abs(big_v.imag)) > 1e-8 * (np.max(np.abs(big_v.real)) or 1.0):
        raise ValueError("1D kernel transform is not real")
    kern = np.fft.fftshift(big_v.real) / math.sqrt(n)
    centre = n // 2
    if truncation is not None:
        if not 0.0 < truncation <= 1.0:
            raise ValueError("truncation must be an energy fraction in (0, 1]")
        total = float(np.sum(kern**2))
        half = 0
        while half <= centre:
            lo, hi = centre - half, min(n, centre + half + 1)
            if float(np.sum(kern[lo:hi] ** 2)) >= truncation * total:
                break
            half += 1
        lo, hi = max(0, centre - half), min(n, centre + half + 1)
        sub = kern[lo:hi]
        e = float(np.sum(sub**2))
        if e > 0:
            sub = sub * math.sqrt(total / e)
        return Kernel1D(values=np.ascontiguousarray(sub),
                        centre=centre - lo, dx=length / n)
    return Kernel1D(values=np.ascontiguousarray(kern), centre=centre,
                    dx=length / n)


class BlockNoise1D:
    """Deterministic location-addressable 1D noise line (cf. BlockNoise)."""

    def __init__(self, seed: int, block: int = 4096):
        if block <= 0:
            raise ValueError("block must be positive")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = int(seed)
        self.block = int(block)

    def _block_values(self, b: int) -> np.ndarray:
        kb = 2 * b if b >= 0 else -2 * b - 1
        ss = np.random.SeedSequence(entropy=[self.seed, kb, 0xD1])
        gen = np.random.Generator(np.random.Philox(seed=ss))
        return gen.standard_normal(self.block)

    def window(self, x0: int, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("window length must be >= 0")
        out = np.empty(n)
        if n == 0:
            return out
        b0 = x0 // self.block
        b1 = (x0 + n - 1) // self.block
        for b in range(b0, b1 + 1):
            g0 = max(x0, b * self.block)
            g1 = min(x0 + n, (b + 1) * self.block)
            vals = self._block_values(b)
            out[g0 - x0 : g1 - x0] = vals[g0 - b * self.block : g1 - b * self.block]
        return out


class ProfileGenerator:
    """1D convolution-method generator with windowed/streamed output.

    Parameters
    ----------
    spectrum:
        A 1D spectral density.
    n, length:
        Kernel-construction transform size and physical length; as in
        2D, the *spacing* ``length/n`` is what windows inherit.
    truncation:
        Optional kernel energy fraction (variance-preserving).
    engine:
        Correlation engine, mirroring the 2D generators' keyword:
        ``"fft"`` (and ``"auto"``, the historical behaviour) use
        ``scipy.signal.fftconvolve``; ``"spatial"`` uses the direct
        ``np.convolve`` — equal to rounding, and cheaper for very small
        kernels.
    """

    def __init__(self, spectrum: Spectrum1D, n: int, length: float,
                 truncation: Optional[float] = 0.9999,
                 engine: str = "auto"):
        from .convolution import _check_engine  # shared ENGINE vocabulary

        self.spectrum = spectrum
        self.n = n
        self.length = length
        self.engine = _check_engine(engine)
        self.kernel = build_kernel_1d(spectrum, n, length, truncation)

    @property
    def dx(self) -> float:
        return self.length / self.n

    def _correlate(self, padded: np.ndarray) -> np.ndarray:
        if self.engine == "spatial":
            return np.convolve(padded, self.kernel.values[::-1],
                               mode="valid")
        from scipy import signal  # ~1 s to import; only this path uses it

        return signal.fftconvolve(padded, self.kernel.values[::-1],
                                  mode="valid")

    def generate(self, seed: SeedLike = None, *,
                 noise: Optional[np.ndarray] = None,
                 trace: bool = False,
                 provenance: Optional[dict] = None) -> HeightField:
        """One periodic realisation of length ``n``.

        Unified signature (:mod:`repro.core.api`): parameters after
        ``seed`` are keyword-only; returns a
        :class:`~repro.core.api.HeightField` (an ``ndarray`` carrying
        provenance).
        """
        with traced(self, trace):
            if noise is None:
                noise = standard_normal_field((self.n,), seed)
            noise = np.asarray(noise, dtype=float)
            if noise.shape != (self.n,):
                raise ValueError(f"noise must have shape ({self.n},)")
            k = self.kernel
            pad_lo, pad_hi = k.centre, k.size - 1 - k.centre
            padded = np.pad(noise, (pad_lo, pad_hi), mode="wrap")
            heights = self._correlate(padded)
        record = {
            "method": "convolution-1d",
            "engine": self.engine,
            "n": self.n,
            "dx": self.dx,
        }
        return HeightField.wrap(heights, merge_provenance(record, provenance))

    def generate_window(self, noise: BlockNoise1D, x0: int, n: int,
                        *, trace: bool = False,
                        provenance: Optional[dict] = None) -> HeightField:
        """Window ``[x0, x0+n)`` of the unbounded profile."""
        with traced(self, trace, "generate_window"):
            k = self.kernel
            w = noise.window(x0 - k.centre, n + k.size - 1)
            heights = self._correlate(w)
        record = {
            "method": "convolution-1d-window",
            "window": [x0, n],
            "noise_seed": noise.seed,
            "engine": self.engine,
        }
        return HeightField.wrap(heights, merge_provenance(record, provenance))
