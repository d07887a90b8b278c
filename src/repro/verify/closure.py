"""Deterministic closure checks on the spectral machinery.

The paper's own verification hook (below eqn 16): "the DFT of this
weighting array corresponds to the autocorrelation function ... and this
relation is useful for checking the accuracy of the numerical results".
:func:`weight_acf_error` quantifies that check — the discrepancy between
``DFT(w)`` and the closed-form :math:`\\rho(\\mathbf r)` — which is pure
spectral truncation + discretisation error: it vanishes as the grid is
refined *and* enlarged (bench C3 sweeps this).

Also here: the variance bookkeeping ``sum(w)`` vs ``h^2``.  Both are
properties of the request and the grid alone, so they need no surface;
the statistical gates on generated heights live in
:mod:`repro.verify.verifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.grid import Grid2D
from ..core.spectra import Spectrum
from ..core.weights import weight_array, weight_autocorrelation

__all__ = [
    "WeightAcfReport",
    "weight_acf_error",
    "variance_closure",
]


@dataclass(frozen=True)
class WeightAcfReport:
    """Discrepancy between DFT(w) and the analytic autocorrelation."""

    max_abs_error: float
    rms_error: float
    rel_error_at_zero: float
    variance_target: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "max_abs_error": self.max_abs_error,
            "rms_error": self.rms_error,
            "rel_error_at_zero": self.rel_error_at_zero,
            "variance_target": self.variance_target,
        }


def weight_acf_error(spectrum: Spectrum, grid: Grid2D) -> WeightAcfReport:
    """Evaluate the paper's DFT(w) ~ rho accuracy check on a grid.

    Compares the discrete autocorrelation implied by the weighting array
    against the closed-form ACF evaluated at the grid's wrap-ordered lag
    coordinates.
    """
    acf_discrete = weight_autocorrelation(spectrum, grid)
    x = grid.x_centered[:, None]
    y = grid.y_centered[None, :]
    acf_exact = spectrum.autocorrelation(x, y)
    err = acf_discrete - acf_exact
    var = spectrum.variance
    at_zero = abs(err[0, 0]) / var if var > 0 else 0.0
    return WeightAcfReport(
        max_abs_error=float(np.max(np.abs(err))),
        rms_error=float(np.sqrt(np.mean(err * err))),
        rel_error_at_zero=float(at_zero),
        variance_target=var,
    )


def variance_closure(spectrum: Spectrum, grid: Grid2D) -> float:
    """Relative error of ``sum(w)`` against ``h^2`` (eqn 1 discretised)."""
    var = spectrum.variance
    if var == 0:
        return 0.0
    return float(abs(weight_array(spectrum, grid).sum() - var) / var)
