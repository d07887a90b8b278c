"""Gate a generated surface against its requested spectrum.

The verifier runs the single-pass streaming statistics of
:mod:`repro.verify.streaming` over a surface (memmapped store or
in-memory array) or an ensemble of same-shape surfaces, derives
per-metric *targets* from the requested
:class:`~repro.core.spectra.Spectrum`, and emits a
``repro.verify/v1`` :class:`~repro.verify.report.VerifyReport` with
explicit tolerances.

Targets come from the same discrete weight array the generator sampled
from — computed in row blocks so verification of an ``N x N`` store
never materialises an ``N x N`` array:

- variance target: ``sum(w)`` (paper eqn 21: the weights carry the
  full mean-square height);
- RMS-gradient target: ``sum(w * t)`` with the discrete forward-difference
  factor ``t = (2 - 2 cos(K d)) / d**2`` (matching
  :func:`repro.stats.slope_variance_discrete`);
- ACF target at sample lag ``r``: ``sum(w * cos(K . r)) / sum(w)`` —
  the exact discrete Wiener–Khinchin pair of the weights;
- radial-PSD target: the requested ``W(K)`` binned over the *same*
  annuli as the measured Welch estimate, so the power-law-in-a-bin
  averaging bias cancels instead of needing a tolerance.

Tolerances scale with the effective number of independent correlation
areas in the surface (``repro.stats.effective_sample_count``) and the
number of Welch windows, both pooled over ensemble members; the ``_TOL``
constants were calibrated against seeded ensembles (see docs/VERIFY.md).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.grid import Grid2D
from ..core.spectra import Spectrum, spectrum_from_dict
from ..io.store import SurfaceStore
from ..stats.extremes import effective_sample_count
from ..stats.spectral import radial_spectrum
from .report import VERIFY_SCHEMA, MetricResult, VerifyReport
from .streaming import Reader, choose_segment, stream_statistics

__all__ = [
    "VerifyConfig",
    "VerifyError",
    "verify_heights",
    "verify_store",
    "verify_job",
    "load_report",
    "write_report",
    "REPORT_NAME",
]

#: File name of the report checkpointed next to a job manifest.
REPORT_NAME = "verify.json"


class VerifyError(ValueError):
    """Verification could not run (incomplete store, missing spectrum...)."""


# -- calibrated tolerance model -------------------------------------------
#
# Each gated metric's tolerance is  max(scale * statistical_sigma, floor).
# The statistical sigma comes from the ensemble fluctuation model
# (sqrt(2/n_eff) for variance-like quantities, per-window counts for the
# Welch bins); scale and floor absorb the model's approximations and were
# calibrated on seeded ensembles so that n_sigma=4 gates pass clean seeds
# with wide margin while catching a wrong (H, qr, sigma, cl) request.
_TOL = {
    "rms_scale": 1.5,
    "rms_floor": 5e-3,
    "grad_scale": 1.5,
    "grad_floor": 2e-2,
    "acf_scale": 1.5,
    "acf_floor": 2e-2,
    "psd_base": 0.05,
    "psd_window_scale": 0.7,
    "hurst_scale": 1.5,
    "hurst_floor": 2e-2,
    "plateau_base": 0.20,
    "plateau_window_scale": 1.2,
}

#: Minimum radial bins required before a band metric gates (below this it
#: is reported as informational, ``passed=None``).
_MIN_BAND_BINS = 5
_MIN_PLATEAU_BINS = 3

#: Band metrics compare log profiles, so they only include bins whose
#: *target* power is within this factor of the strongest band bin.
#: Below it, a super-exponentially decaying spectrum (e.g. Gaussian far
#: tail) falls under the Welch/Hann spectral-leakage floor and the
#: measured profile reports the taper, not the surface — the log ratio
#: there is meaningless at any tolerance.  1e-5 keeps every bin of the
#: paper's power-law-tailed families on production geometries (a
#: ``K^(-2-2H)`` tail spans ~5 decades across the resolved band at
#: H = 1) while sitting two decades above the measured leakage floor.
_BAND_REL_FLOOR = 1e-5

#: Targets are discrete weight sums over the surface's spectral grid.
#: Beyond this many samples per axis the sums are evaluated on a
#: decimated k-grid (same Nyquist range, coarser spacing): the Riemann
#: sums of the paper's smooth spectra converge far below the metric
#: floors well before 1024 points per axis, and full-resolution sums on
#: a large store would dominate verification wall time for no accuracy.
_MAX_TARGET_GRID = 1024


@dataclass(frozen=True)
class VerifyConfig:
    """Streaming-verification knobs (all deterministic).

    ``segment=None`` auto-selects via
    :func:`repro.verify.streaming.choose_segment`.  ``acf_lag=None``
    derives the test lag from the spectrum's correlation lengths.
    ``max_windows`` caps the number of Welch windows actually visited:
    on surfaces with more segment windows than the cap, the pass
    samples a deterministic regular stride of them, keeping
    verification cost roughly constant in surface area (tolerances
    scale with the sampled counts).  ``None`` visits every window.
    """

    segment: Optional[int] = None
    psd_bins: int = 48
    window: str = "hann"
    n_sigma: float = 4.0
    acf_lag: Optional[float] = None
    max_windows: Optional[int] = 36

    def to_dict(self) -> Dict[str, Any]:
        return {
            "segment": self.segment,
            "psd_bins": self.psd_bins,
            "window": self.window,
            "n_sigma": self.n_sigma,
            "acf_lag": self.acf_lag,
            "max_windows": self.max_windows,
        }


# -- spectrum-derived targets ---------------------------------------------

def _weight_sums(
    spectrum: Spectrum,
    nx: int,
    ny: int,
    dx: float,
    dy: float,
    lags: Sequence[Tuple[float, float]],
    block: int = 128,
) -> Dict[str, Any]:
    """Row-blocked discrete weight sums on the surface's spectral grid.

    Returns ``sum(w)``, ``sum(w*t)`` (forward-difference factor), and the
    Wiener–Khinchin ACF sums at the requested axis-aligned physical lags,
    without ever holding more than ``block * ny`` weights.  Every factor
    depends on one axis only, so each sum is a row- or column-sum of
    ``w`` against a 1-D vector.  Above ``_MAX_TARGET_GRID`` samples per
    axis the k-grid is decimated (same Nyquist range, coarser ``dK``) —
    see the constant's rationale.
    """
    if any(rx and ry for rx, ry in lags):
        raise ValueError(f"ACF lags must be axis-aligned, got {list(lags)}")
    nx = min(int(nx), _MAX_TARGET_GRID)
    ny = min(int(ny), _MAX_TARGET_GRID)
    grid = Grid2D(nx=nx, ny=ny, lx=nx * dx, ly=ny * dy)
    kx = grid.kx_folded
    ky = grid.ky_folded
    cell = grid.spectral_cell
    rows = np.empty(nx)   # sum of w over ky, per kx
    cols = np.zeros(ny)   # sum of w over kx, per ky
    for i in range(0, nx, block):
        w = np.asarray(spectrum.spectrum(kx[i : i + block][:, None],
                                         ky[None, :]), dtype=float)
        rows[i : i + block] = w.sum(axis=1)
        cols += w.sum(axis=0)
    tx = (2.0 - 2.0 * np.cos(kx * dx)) / (dx * dx)
    ty = (2.0 - 2.0 * np.cos(ky * dy)) / (dy * dy)
    acf = {}
    for rx, ry in lags:
        sums = rows @ np.cos(kx * rx) if ry == 0 else cols @ np.cos(ky * ry)
        acf[(rx, ry)] = cell * float(sums)
    return {
        "sum_w": cell * float(rows.sum()),
        "sum_wt": cell * float(rows @ tx + cols @ ty),
        "acf": acf,
    }


def _radial_target(
    spectrum: Spectrum, sub: Grid2D, n_bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The requested ``W(K)`` averaged over the measurement's own annuli."""
    kx, ky = sub.k_meshgrid(signed=True)
    w = np.asarray(spectrum.spectrum(kx, ky), dtype=float)
    return radial_spectrum(w, sub, n_bins=n_bins)


def _log_band(
    centres: np.ndarray,
    measured: np.ndarray,
    target: np.ndarray,
    k_lo: float,
    k_hi: float,
) -> np.ndarray:
    """Mask of the band bins where both profiles are positive and the
    target is within ``_BAND_REL_FLOOR`` of the band's strongest target
    bin (below that, leakage — not the surface — sets the
    measurement)."""
    sel = (centres >= k_lo) & (centres <= k_hi) & (measured > 0) & (target > 0)
    if sel.any():
        sel &= target >= _BAND_REL_FLOOR * target[sel].max()
    return sel


def _mean_log_dev(
    measured: np.ndarray, target: np.ndarray, band: np.ndarray
) -> Optional[float]:
    """Mean ``|log(measured) - log(target)|`` over the band bins."""
    if not band.any():
        return None
    return float(np.mean(np.abs(np.log(measured[band])
                                - np.log(target[band]))))


# -- metric assembly -------------------------------------------------------

def _metric(
    name: str,
    measured: Optional[float],
    target: Optional[float],
    tol: Optional[float],
    error: Optional[float],
    detail: Optional[Dict[str, Any]] = None,
    gate: bool = True,
) -> MetricResult:
    passed: Optional[bool]
    if not gate or tol is None or error is None or not math.isfinite(error):
        passed = None
    else:
        passed = bool(error <= tol)
    return MetricResult(
        name=name,
        measured=None if measured is None else float(measured),
        target=None if target is None else float(target),
        tolerance=None if tol is None else float(tol),
        passed=passed,
        detail=detail or {},
    )


def _assess(
    raw: Dict[str, Any],
    spectrum: Optional[Spectrum],
    config: VerifyConfig,
    dx: float,
    dy: float,
) -> List[MetricResult]:
    metrics: List[MetricResult] = []
    nx, ny = raw["shape"]
    cx, cy = raw["crop"]
    seg = raw["segment"]
    n_windows = raw["psd_windows"]
    sub: Grid2D = raw["psd_grid"]
    _, profile, modes = radial_spectrum(raw["psd"], sub,
                                        n_bins=config.psd_bins,
                                        return_counts=True)

    if spectrum is None:
        # No target: report measurements, gate nothing.
        metrics.append(_metric("rms_height", raw["rms"], None, None, None,
                               gate=False))
        metrics.append(_metric(
            "rms_gradient",
            math.sqrt(max(raw["grad_msq_x"] + raw["grad_msq_y"], 0.0)),
            None, None, None, gate=False,
        ))
        return metrics

    n_sigma = config.n_sigma
    qr = getattr(spectrum, "qr", None)
    kind = getattr(spectrum, "kind", "")
    self_affine = kind == "self_affine"

    # Effective independent-sample count over the windows actually
    # sampled (window striding reduces it proportionally; ensemble
    # members multiply it).
    clx = float(getattr(spectrum, "clx", 1.0))
    cly = float(getattr(spectrum, "cly", 1.0))
    sampled_frac = raw["n_samples"] / float(cx * cy) if cx * cy else 1.0
    n_eff = max(
        effective_sample_count(cx * dx, cy * dy, clx, cly) * sampled_frac,
        1.0,
    )

    # The ACF lags the stream accumulated, one per axis.
    (lag_sx, _), (_, lag_sy) = raw["acf_lags"]
    lag_phys = [(lag_sx * dx, 0.0), (0.0, lag_sy * dy)]

    targets = _weight_sums(spectrum, nx, ny, dx, dy, lag_phys)
    sum_w = targets["sum_w"]

    # -- RMS height -------------------------------------------------------
    rms_target = math.sqrt(max(sum_w, 0.0))
    rms_rel = abs(raw["rms"] - rms_target) / rms_target if rms_target else None
    rms_tol = max(_TOL["rms_scale"] * n_sigma / math.sqrt(2.0 * n_eff),
                  _TOL["rms_floor"])
    # A roll-off-free self-affine PSD diverges as K -> 0: the realised
    # variance is dominated by a handful of lowest modes, so no
    # finite-surface gate on it is meaningful — report, don't gate.
    gate_rms = not (self_affine and qr is None)
    metrics.append(_metric(
        "rms_height", raw["rms"], rms_target, rms_tol, rms_rel,
        detail={"relative_error": rms_rel, "n_eff": n_eff,
                **({} if gate_rms else
                   {"reason": "no roll-off: lowest modes dominate variance"})},
        gate=gate_rms,
    ))

    # -- RMS gradient -----------------------------------------------------
    grad_msq = raw["grad_msq_x"] + raw["grad_msq_y"]
    grad_target = targets["sum_wt"]
    grad_rel = (abs(grad_msq - grad_target) / grad_target
                if grad_target else None)
    grad_tol = max(_TOL["grad_scale"] * n_sigma * math.sqrt(2.0 / n_eff),
                   _TOL["grad_floor"])
    metrics.append(_metric(
        "rms_gradient",
        math.sqrt(max(grad_msq, 0.0)),
        math.sqrt(max(grad_target, 0.0)),
        grad_tol, grad_rel,
        detail={"relative_error": grad_rel,
                "measured_msq": grad_msq, "target_msq": grad_target},
    ))

    # -- ACF at the correlation length ------------------------------------
    acf_tol = max(_TOL["acf_scale"] * n_sigma / math.sqrt(n_eff),
                  _TOL["acf_floor"])
    for axis, (lag_samples, phys) in (
        ("x", (lag_sx, lag_phys[0])),
        ("y", (lag_sy, lag_phys[1])),
    ):
        coef = raw["acf"].get((lag_samples, 0) if axis == "x"
                              else (0, lag_samples), {}).get("coef")
        target_coef = targets["acf"][phys] / sum_w if sum_w else None
        err = (abs(coef - target_coef)
               if coef is not None and target_coef is not None
               and math.isfinite(coef) else None)
        metrics.append(_metric(
            f"acf_lag_{axis}", coef, target_coef, acf_tol, err,
            detail={"lag_samples": lag_samples,
                    "lag": phys[0] if axis == "x" else phys[1]},
        ))

    # -- radially averaged PSD --------------------------------------------
    t_centres, t_profile = _radial_target(spectrum, sub, config.psd_bins)
    dk_sub = 2.0 * math.pi / (seg * min(dx, dy))
    k_nyq = 0.5 * min(sub.nyquist_kx, sub.nyquist_ky)
    k_lo = 3.0 * dk_sub
    k_hi = k_nyq
    band = _log_band(t_centres, profile, t_profile, k_lo, k_hi)
    psd_dev = _mean_log_dev(profile, t_profile, band)
    psd_tol = (_TOL["psd_base"]
               + _TOL["psd_window_scale"] / math.sqrt(max(n_windows, 1)))
    metrics.append(_metric(
        "psd_band", psd_dev, 0.0, psd_tol, psd_dev,
        detail={"k_lo": k_lo, "k_hi": k_hi, "bins": int(band.sum()),
                "windows": n_windows},
        gate=band.sum() >= _MIN_BAND_BINS,
    ))

    # -- self-affine extras: Hurst slope fit + roll-off plateau -----------
    if self_affine:
        hurst = float(getattr(spectrum, "hurst"))
        fit_lo = max(k_lo, 2.5 * qr) if qr is not None else k_lo
        fit = _log_band(t_centres, profile, t_profile, fit_lo, k_hi)
        if fit.sum() >= _MIN_BAND_BINS:
            # Fit the measured and the target profile over the same
            # bins: the target's own slope carries the roll-off
            # curvature the band still sees, so only the difference
            # is the surface's error.
            log_k = np.log(t_centres[fit])
            slope = float(np.polyfit(log_k, np.log(profile[fit]), 1)[0])
            t_slope = float(np.polyfit(log_k, np.log(t_profile[fit]), 1)[0])
            h_fit = -(slope + 2.0) / 2.0
            h_target = -(t_slope + 2.0) / 2.0
            # Standard error of that least-squares slope: each annulus
            # averages windows * modes / 2 independent periodogram
            # values (a real field's modes pair up), so a bin's log
            # power scatters with variance ~ 2 / (windows * modes).
            xc = log_k - log_k.mean()
            bin_var = 2.0 / (n_windows * modes[fit])
            slope_se = (math.sqrt(float(np.sum(xc * xc * bin_var)))
                        / float(np.sum(xc * xc)))
            h_err = abs(h_fit - h_target)
            h_tol = max(_TOL["hurst_scale"] * n_sigma * slope_se / 2.0,
                        _TOL["hurst_floor"])
            metrics.append(_metric(
                "hurst_fit", h_fit, h_target, h_tol, h_err,
                detail={"slope": slope, "target_slope": t_slope,
                        "slope_se": slope_se, "requested": hurst,
                        "k_lo": fit_lo, "k_hi": k_hi,
                        "bins": int(fit.sum())},
            ))
        else:
            metrics.append(_metric(
                "hurst_fit", None, hurst, None, None,
                detail={"reason": "insufficient fit band",
                        "bins": int(fit.sum())},
                gate=False,
            ))
        if qr is not None:
            plateau = _log_band(t_centres, profile, t_profile,
                                1.5 * dk_sub, 0.6 * qr)
            p_dev = _mean_log_dev(profile, t_profile, plateau)
            p_tol = (_TOL["plateau_base"]
                     + _TOL["plateau_window_scale"]
                     / math.sqrt(max(n_windows, 1)))
            metrics.append(_metric(
                "qr_plateau", p_dev, 0.0, p_tol, p_dev,
                detail={"qr": qr, "bins": int(plateau.sum())},
                gate=plateau.sum() >= _MIN_PLATEAU_BINS,
            ))

    return metrics


# -- entry points ----------------------------------------------------------

def _run(
    read: Union[Reader, Sequence[Reader]],
    shape: Tuple[int, int],
    dx: float,
    dy: float,
    spectrum: Optional[Spectrum],
    config: VerifyConfig,
    surface: Dict[str, Any],
) -> VerifyReport:
    t0 = time.perf_counter()
    seg = choose_segment(shape, config.segment)
    clx = float(getattr(spectrum, "clx", 1.0)) if spectrum is not None else 1.0
    cly = float(getattr(spectrum, "cly", 1.0)) if spectrum is not None else 1.0
    lag_sx = int(np.clip(round(clx / dx), 1, seg - 1))
    lag_sy = int(np.clip(round(cly / dy), 1, seg - 1))
    sx, sy = shape[0] // seg, shape[1] // seg
    stride = 1
    if config.max_windows is not None:
        while (-(-sx // stride)) * (-(-sy // stride)) > config.max_windows:
            stride += 1
    span = obs.trace("verify.run", {
        "shape": list(shape), "segment": seg, "stride": stride,
    } if obs.enabled() else None)
    with span:
        raw = stream_statistics(
            read, shape, dx, dy,
            segment=seg,
            acf_lags=((lag_sx, 0), (0, lag_sy)),
            window=config.window,
            stride=stride,
        )
        metrics = _assess(raw, spectrum, config, dx, dy)
    elapsed = time.perf_counter() - t0
    passed = all(m.passed is not False for m in metrics)

    surface = dict(surface)
    surface.update({
        "shape": [int(shape[0]), int(shape[1])],
        "dx": float(dx),
        "dy": float(dy),
        "coverage": raw["coverage"],
    })
    if raw["members"] > 1:
        surface["members"] = raw["members"]
    cfg = config.to_dict()
    cfg["segment"] = seg  # record the resolved values
    cfg["stride"] = stride
    report = VerifyReport(
        surface=surface,
        spectrum=spectrum.to_dict() if spectrum is not None else None,
        metrics=tuple(metrics),
        config=cfg,
        passed=passed,
        timings={"seconds": elapsed},
    )
    if obs.enabled():
        obs.add("verify.runs")
        obs.add("verify.windows", raw["psd_windows"])
        obs.observe("verify.seconds", elapsed)
        if not passed:
            obs.add("verify.failures")
    obs.event(
        "verify.report",
        passed=passed,
        failures=[m.name for m in report.failures()],
        shape=list(shape),
        seconds=round(elapsed, 6),
    )
    return report


def _array_reader(h: np.ndarray) -> Reader:
    def read(x0: int, y0: int, wx: int, wy: int) -> np.ndarray:
        return h[x0 : x0 + wx, y0 : y0 + wy]

    return read


def verify_heights(
    heights: Union[np.ndarray, Sequence[np.ndarray]],
    spectrum: Optional[Spectrum] = None,
    *,
    dx: float = 1.0,
    dy: float = 1.0,
    config: Optional[VerifyConfig] = None,
) -> VerifyReport:
    """Verify an in-memory surface, or an ensemble of them.

    The input's rank selects the mode: a 2-D array is one surface; a
    3-D stack or a sequence of same-shape 2-D arrays is an ensemble of
    realisations of the same request.  Every member streams through
    the same windows and the accumulators pool before the gates, so
    ``n_eff`` and the Welch window count — and with them every
    tolerance — scale with the member count.

    Runs exactly the same windowed accumulation as :func:`verify_store`
    (the reader slices the array), so the two paths produce
    bit-identical metrics on identical samples.
    """
    if isinstance(heights, (list, tuple)):
        members = [np.asarray(m) for m in heights]
    else:
        h = np.asarray(heights)
        if h.ndim not in (2, 3):
            raise VerifyError(
                f"heights must be 2D (or a 3D ensemble stack), "
                f"got shape {h.shape}")
        members = [h] if h.ndim == 2 else list(h)
    shapes = sorted({m.shape for m in members})
    if len(shapes) != 1 or len(shapes[0]) != 2:
        raise VerifyError(
            f"ensemble members must be same-shape 2D surfaces, "
            f"got shapes {shapes}")
    return _run([_array_reader(m) for m in members], shapes[0], dx, dy,
                spectrum, config or VerifyConfig(), {"store": None})


def verify_store(
    store: Union[SurfaceStore, str, os.PathLike],
    spectrum: Optional[Spectrum] = None,
    *,
    config: Optional[VerifyConfig] = None,
) -> VerifyReport:
    """Verify a (complete) on-disk store without materialising it.

    The requested spectrum is taken from the ``spectrum`` argument, or —
    when omitted — recovered from the recipe the generator recorded in
    the store manifest's ``meta["spectrum"]``.  With neither available
    the report carries measurements only and gates nothing.
    """
    opened = None
    try:
        if not isinstance(store, SurfaceStore):
            opened = store = SurfaceStore.open(store, "r", ledger=False)
        if store.fraction_done < 1.0:
            raise VerifyError(
                f"store at {store.path} is incomplete "
                f"({store.fraction_done:.1%} of chunks written); "
                "finish or resume the job before verifying"
            )
        meta = store.manifest.get("meta") or {}
        if spectrum is None and isinstance(meta.get("spectrum"), dict):
            spectrum = spectrum_from_dict(meta["spectrum"])
        dx = float(store.manifest["dx"])
        dy = float(store.manifest["dy"])
        surface = {"store": str(store.path)}
        if "seed" in meta:
            surface["seed"] = meta["seed"]
        return _run(store.read_window, store.shape, dx, dy, spectrum,
                    config or VerifyConfig(), surface)
    finally:
        if opened is not None:
            opened.close()


def verify_job(
    checkpoint: Union[str, os.PathLike],
    *,
    spectrum: Optional[Spectrum] = None,
    config: Optional[VerifyConfig] = None,
) -> VerifyReport:
    """Verify the store referenced by a job checkpoint directory.

    Reads the checkpoint manifest for the store path and the rebuild
    recipe's spectrum; only store-backed jobs can be verified out of
    core (in-memory jobs should call :func:`verify_heights` on their
    result).
    """
    ckpt = Path(checkpoint)
    manifest_path = ckpt / "manifest.json"
    if not manifest_path.is_file():
        raise VerifyError(f"no job manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    store_ref = manifest.get("store")
    if not store_ref or "path" not in store_ref:
        raise VerifyError(
            f"job at {ckpt} is not store-backed; re-run with --store or "
            "verify its in-memory result via verify_heights()"
        )
    if spectrum is None:
        recipe = (manifest.get("rebuild") or {}).get("spectrum")
        if isinstance(recipe, dict):
            spectrum = spectrum_from_dict(recipe)
    return verify_store(store_ref["path"], spectrum, config=config)


# -- report persistence ----------------------------------------------------

def write_report(report: VerifyReport, path: Union[str, os.PathLike]) -> Path:
    """Atomically write a report document next to a manifest."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(report.to_json() + "\n")
    os.replace(tmp, path)
    return path


def load_report(path: Union[str, os.PathLike]) -> VerifyReport:
    return VerifyReport.from_json(Path(path).read_text())
