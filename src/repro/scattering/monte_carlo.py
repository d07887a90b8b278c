"""Monte-Carlo Kirchhoff scattering from generated rough profiles.

The numerical half of the Thorsos-style experiment (paper refs [1]-[2]):
evaluate the Kirchhoff (physical-optics) scattering integral over
*generated* 1D profiles, average over an ensemble, and split the result
into coherent and incoherent parts for comparison with the closed forms
in :mod:`repro.scattering.kirchhoff`.

For a 1D Dirichlet surface ``z = f(x)`` under a plane wave incident at
``theta_i`` (from vertical), the KA far-field scattering amplitude in
direction ``theta_s`` is the stationary-phase surface integral

.. math::

    A(\\theta_s) = N(\\theta_i, \\theta_s)\\sqrt{\\frac{k}{L}}
        \\int w(x)\\, e^{\\,j k_{dx} x - j k_{dz} f(x)}\\,dx,

with ``k_dx = k(sin ts - sin ti)``, ``k_dz = k(cos ti + cos ts)``, the
shared angular kernel ``N`` and a Tukey amplitude taper ``w`` that
suppresses edge diffraction from the finite patch.  The discrete sum is
vectorised over all scattering angles at once (an outer product — one
``exp`` of an ``angles x samples`` matrix per realisation).

Ensemble decomposition: ``<A>`` is the coherent amplitude (peaked at
specular, attenuated by ``exp(-g/2)``); ``<|A|^2> - |<A>|^2`` is the
incoherent (diffuse) intensity compared against the KA series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .kirchhoff import coherent_reflection_coefficient, ka_angular_kernel

__all__ = [
    "ScatteringEnsemble",
    "scattering_amplitude",
    "tukey_taper",
    "run_ensemble",
    "coherent_attenuation_curve",
]


def tukey_taper(n: int, alpha: float = 0.5) -> np.ndarray:
    """Tukey (cosine-tapered rectangular) window of length ``n``."""
    if n < 2:
        raise ValueError("window needs n >= 2")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    w = np.ones(n)
    edge = int(alpha * (n - 1) / 2.0)
    if edge > 0:
        t = np.arange(edge + 1) / max(alpha * (n - 1) / 2.0, 1e-12)
        ramp = 0.5 * (1.0 + np.cos(np.pi * (t - 1.0)))
        w[: edge + 1] = ramp
        w[-(edge + 1):] = ramp[::-1]
    return w


def scattering_amplitude(
    x: np.ndarray,
    f: np.ndarray,
    k: float,
    theta_i: float,
    theta_s: np.ndarray,
    taper: Optional[np.ndarray] = None,
) -> np.ndarray:
    """KA scattering amplitudes ``A(theta_s)`` for one profile.

    Normalised so that a flat surface at ``theta_s = theta_i`` gives
    ``|A| ~ sqrt(k L_eff)`` concentrated in the specular lobe; tests and
    benches always *ratio* against the flat-surface response, making the
    convention cancel.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and f must be matching 1D arrays (n >= 2)")
    theta_s = np.asarray(theta_s, dtype=float)
    dx = float(x[1] - x[0])
    if taper is None:
        taper = tukey_taper(x.size, 0.5)
    elif taper.shape != x.shape:
        raise ValueError("taper must match the profile length")

    kdx = k * (np.sin(theta_s) - np.sin(theta_i))     # (A,)
    kdz = k * (np.cos(theta_i) + np.cos(theta_s))     # (A,)
    kernel = ka_angular_kernel(theta_i, theta_s)      # (A,)
    phase = np.exp(
        1j * (kdx[:, None] * x[None, :] - kdz[:, None] * f[None, :])
    )
    integral = phase @ (taper * dx)
    length = float(x[-1] - x[0])
    return kernel * np.sqrt(k / length) * integral


@dataclass
class ScatteringEnsemble:
    """Coherent/incoherent decomposition of an amplitude ensemble."""

    theta_s: np.ndarray
    mean_amplitude: np.ndarray     # <A>
    mean_intensity: np.ndarray     # <|A|^2>
    n_realisations: int
    #: Provenance of the profiles that built the ensemble (from the
    #: first :class:`~repro.core.api.HeightField`, when profiles carry
    #: one) plus the experiment geometry.
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def coherent_intensity(self) -> np.ndarray:
        return np.abs(self.mean_amplitude) ** 2

    @property
    def incoherent_intensity(self) -> np.ndarray:
        return np.maximum(self.mean_intensity - self.coherent_intensity, 0.0)


def run_ensemble(
    profiles: Sequence[np.ndarray],
    *,
    dx: Optional[float] = None,
    k: float,
    theta_i: float,
    theta_s: np.ndarray,
) -> ScatteringEnsemble:
    """Amplitude ensemble over a set of generated profiles.

    Profiles may be bare arrays or the :class:`~repro.core.api.
    HeightField` results of :class:`~repro.core.oned.ProfileGenerator`:
    when ``dx`` is omitted it is read from the first field's provenance
    (the unified generators stamp it), and the first field's provenance
    is carried into the returned ensemble.

    Everything after ``profiles`` is keyword-only.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one profile")
    source_prov = dict(getattr(profiles[0], "provenance", None) or {})
    if dx is None:
        dx = source_prov.get("dx")
        if dx is None:
            raise TypeError(
                "run_ensemble() requires dx= (the first profile carries "
                "no provenance to infer it from)"
            )
    n = profiles[0].size
    x = np.arange(n) * float(dx)
    taper = tukey_taper(n, 0.5)
    mean_a = np.zeros(np.asarray(theta_s).size, dtype=complex)
    mean_i = np.zeros(np.asarray(theta_s).size)
    for prof in profiles:
        prof = np.asarray(prof, dtype=float)
        if prof.shape != (n,):
            raise ValueError("all profiles must share one length")
        a = scattering_amplitude(x, prof, k, theta_i, theta_s, taper)
        mean_a += a
        mean_i += np.abs(a) ** 2
    m = len(profiles)
    provenance = source_prov
    provenance["experiment"] = {
        "kind": "ka-ensemble", "k": float(k),
        "theta_i": float(theta_i), "n_realisations": m,
    }
    return ScatteringEnsemble(
        theta_s=np.asarray(theta_s, dtype=float),
        mean_amplitude=mean_a / m,
        mean_intensity=mean_i / m,
        n_realisations=m,
        provenance=provenance,
    )


def coherent_attenuation_curve(
    generate: Callable[[float, int], np.ndarray],
    h_values: Sequence[float],
    *,
    dx: Optional[float] = None,
    k: float,
    theta_i: float,
    n_realisations: int = 24,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measured vs analytic coherent attenuation over a roughness sweep.

    ``generate(h, seed)`` must return a profile of fixed length with
    height std ``h`` — a bare array or a unified-API
    :class:`~repro.core.api.HeightField` (whose provenance supplies
    ``dx`` when the keyword is omitted).  Returns ``(h_values,
    measured, analytic)`` where both curves are normalised to the
    flat-surface (h -> 0) response at the specular angle — the cleanest
    KA validity check (Thorsos ref [1] uses exactly this
    normalisation).

    Parameters after ``h_values`` are keyword-only.
    """
    h_values = np.asarray(list(h_values), dtype=float)
    # flat reference (provenance, when present, can supply dx)
    probe = generate(0.0, 0)
    if dx is None:
        dx = (getattr(probe, "provenance", None) or {}).get("dx")
        if dx is None:
            raise TypeError(
                "coherent_attenuation_curve() requires dx= (the "
                "generated profiles carry no provenance to infer it)"
            )
    theta_spec = np.array([theta_i])
    flat = np.asarray(probe, dtype=float) * 0.0
    x = np.arange(flat.size) * float(dx)
    a_flat = scattering_amplitude(x, flat, k, theta_i, theta_spec)
    ref = abs(a_flat[0])
    measured = np.empty(h_values.size)
    analytic = np.empty(h_values.size)
    for i, h in enumerate(h_values):
        profiles = [generate(float(h), 1000 * i + s)
                    for s in range(n_realisations)]
        ens = run_ensemble(profiles, dx=float(dx), k=k, theta_i=theta_i,
                           theta_s=theta_spec)
        measured[i] = abs(ens.mean_amplitude[0]) / ref
        analytic[i] = coherent_reflection_coefficient(k, float(h), theta_i)
    return h_values, measured, analytic
