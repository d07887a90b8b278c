"""Non-Gaussian marginal transforms (Gaussian anamorphosis).

The paper's surfaces are Gaussian by construction (eqn 18 onward), but
real terrains are often skewed: dunes have flat troughs and sharp
crests, eroded terrain is positively skewed, sea surfaces weakly so.
The standard geostatistical remedy keeps the spectral machinery intact
and *transforms the marginal afterwards*: if ``f`` is a unit-variance
Gaussian field, then ``t(f)`` has marginal distribution ``Q(Phi(f))``
for a target quantile function ``Q`` (``Phi`` = standard normal CDF).

Caveat (stated prominently because it is the classical trap): a
monotone marginal transform *changes the autocorrelation*.  For target
correlation ``rho_f`` of the Gaussian input, the output correlation is
the Hermite-expansion image of ``rho_f`` — always closer to zero, with
equality only for affine transforms.  :func:`correlation_distortion`
quantifies the effect empirically so users can see what they traded.

Provided targets: lognormal, Weibull, uniform, and a generic
user-supplied quantile function.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy import special

from .surface import Surface

__all__ = [
    "gaussian_to_marginal",
    "lognormal_transform",
    "weibull_transform",
    "uniform_transform",
    "transform_surface",
    "correlation_distortion",
]

QuantileFn = Callable[[np.ndarray], np.ndarray]


def gaussian_to_marginal(
    field: np.ndarray, quantile: QuantileFn, std: Optional[float] = None
) -> np.ndarray:
    """Map a Gaussian field through a target marginal quantile function.

    Parameters
    ----------
    field:
        A (near-)Gaussian field; standardised internally using ``std``
        (or its sample std) so the uniformisation ``Phi(f/std)`` is
        calibrated.
    quantile:
        Target quantile (inverse-CDF) function, vectorised over [0, 1].
    std:
        The Gaussian field's standard deviation; defaults to the sample
        value (pass the nominal ``h`` for small fields).
    """
    f = np.asarray(field, dtype=float)
    s = float(f.std()) if std is None else float(std)
    if s <= 0:
        raise ValueError("field std must be positive to standardise")
    u = 0.5 * (1.0 + special.erf((f - f.mean()) / (s * math.sqrt(2.0))))
    # keep strictly inside (0,1) for unbounded quantile functions
    eps = 1e-12
    return np.asarray(quantile(np.clip(u, eps, 1.0 - eps)), dtype=float)


def lognormal_transform(
    field: np.ndarray, sigma: float = 0.5, scale: float = 1.0,
    std: Optional[float] = None,
) -> np.ndarray:
    """Lognormal marginal (positively skewed, e.g. eroded terrain)."""
    if sigma <= 0 or scale <= 0:
        raise ValueError("sigma and scale must be positive")
    from scipy import stats  # ~0.4 s to import; only these marginals use it

    return gaussian_to_marginal(
        field, lambda u: stats.lognorm.ppf(u, s=sigma, scale=scale), std=std
    )


def weibull_transform(
    field: np.ndarray, shape: float = 2.0, scale: float = 1.0,
    std: Optional[float] = None,
) -> np.ndarray:
    """Weibull marginal (shape < 3.6 => positive skew; ~3.6 => symmetric)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    from scipy import stats

    return gaussian_to_marginal(
        field, lambda u: stats.weibull_min.ppf(u, c=shape, scale=scale),
        std=std,
    )


def uniform_transform(
    field: np.ndarray, low: float = 0.0, high: float = 1.0,
    std: Optional[float] = None,
) -> np.ndarray:
    """Uniform marginal on [low, high] (bounded heights)."""
    if high <= low:
        raise ValueError("high must exceed low")
    return gaussian_to_marginal(
        field, lambda u: low + (high - low) * u, std=std
    )


def transform_surface(
    surface: Surface, quantile: QuantileFn, std: Optional[float] = None,
    label: str = "custom",
) -> Surface:
    """Surface-level wrapper: transformed heights, provenance annotated."""
    heights = gaussian_to_marginal(surface.heights, quantile, std=std)
    return Surface(
        heights=heights,
        grid=surface.grid,
        origin=surface.origin,
        provenance={
            **surface.provenance,
            "marginal_transform": label,
        },
    )


def correlation_distortion(
    field: np.ndarray, transformed: np.ndarray, lag: int = 1, axis: int = 0
) -> float:
    """Ratio of output to input correlation coefficient at a sample lag.

    Values < 1 quantify the decorrelation the monotone transform caused
    (1.0 for affine transforms; the stronger the non-linearity and the
    weaker the input correlation, the smaller the ratio).
    """
    def corr(a: np.ndarray) -> float:
        a = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
        x = a[:-lag].ravel()
        y = a[lag:].ravel()
        x = x - x.mean()
        y = y - y.mean()
        denom = math.sqrt(float(np.sum(x * x)) * float(np.sum(y * y)))
        if denom == 0:
            raise ValueError("zero-variance field in correlation estimate")
        return float(np.sum(x * y)) / denom

    c_in = corr(field)
    if abs(c_in) < 1e-12:
        raise ValueError("input field uncorrelated at this lag")
    return corr(transformed) / c_in
