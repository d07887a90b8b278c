"""Single-pass, out-of-core statistics over a windowed height reader.

Everything in :mod:`repro.verify` consumes surfaces through one seam: a
``read(x0, y0, nx, ny) -> ndarray`` callable.  A memmapped
:class:`~repro.io.store.SurfaceStore` supplies ``read_window``; an
in-memory array supplies a slicing closure.  Both paths then execute the
*identical* accumulation — same windows, same order, same float64 ops —
so the streamed and in-memory verification metrics agree bit-for-bit
(the differential suite asserts exactly that).  An ensemble of
same-shape surfaces is a sequence of readers: each member runs the same
window pass and all accumulators pool across members.

The pass tiles the surface into absolute ``segment x segment`` windows
(row-major, matching :func:`repro.stats.welch_spectrum`'s patch layout)
and reads each window once, extended by a small halo that serves the
forward-difference gradient and the ACF lag pairs.  Peak resident memory
is a few windows, independent of the surface size.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from ..core.grid import Grid2D
from ..stats.spectral import _half_periodogram, _mirror_half_spectrum

__all__ = ["choose_segment", "stream_statistics"]

Reader = Callable[[int, int, int, int], np.ndarray]

#: Auto-selected Welch segment edge (power of two); halved until at least
#: two segments fit per axis.  256 on the 4096^2 reference workload.
_DEFAULT_SEGMENT = 256

#: Smallest surface edge the streaming pass accepts.
_MIN_EDGE = 8


def choose_segment(shape: Tuple[int, int], requested: int | None = None) -> int:
    """Pick the Welch segment edge for a surface of ``shape``.

    The segment is the unit of streaming: windows of ``segment**2``
    samples are read one at a time.  Auto-selection halves
    ``_DEFAULT_SEGMENT`` until at least two segments fit along the
    shorter axis, which keeps the Welch average over >= 4 patches.
    """
    nx, ny = int(shape[0]), int(shape[1])
    edge = min(nx, ny)
    if edge < _MIN_EDGE:
        raise ValueError(
            f"surface {nx}x{ny} too small to verify (need >= {_MIN_EDGE} per axis)"
        )
    if requested is not None:
        seg = int(requested)
        if seg < 4 or seg % 2:
            raise ValueError(f"segment must be even and >= 4, got {seg}")
        if seg > edge:
            raise ValueError(f"segment {seg} exceeds surface edge {edge}")
        return seg
    seg = _DEFAULT_SEGMENT
    while seg * 2 > edge:
        seg //= 2
    return max(seg, 4)


def stream_statistics(
    read: Union[Reader, Sequence[Reader]],
    shape: Tuple[int, int],
    dx: float,
    dy: float,
    *,
    segment: int,
    acf_lags: Sequence[Tuple[int, int]] = (),
    window: str = "hann",
    stride: int = 1,
) -> Dict[str, object]:
    """One streaming pass: moments, gradients, Welch PSD, ACF at lags.

    Parameters
    ----------
    read:
        Window reader ``read(x0, y0, nx, ny)`` returning the height
        window as an array (any float dtype; accumulated in float64),
        or a sequence of readers over same-shape surfaces (an ensemble):
        every member streams through the same windows, in member order,
        into one set of accumulators.
    shape, dx, dy:
        Sample counts (per member) and spacings.
    segment:
        Welch segment edge (see :func:`choose_segment`).  The analysed
        region is the largest segment-aligned crop; the returned
        ``coverage`` records its fraction of the full surface.
    acf_lags:
        Axis-aligned sample lags ``(lag_x, lag_y)`` (one component zero)
        at which to accumulate autocovariance pair sums.  Lags must be
        smaller than ``segment`` so a one-window halo covers the pairs.
    stride:
        Sample every ``stride``-th window per axis (deterministically,
        starting at the origin window).  ``1`` visits every window; a
        larger stride keeps verification cost sublinear in surface area
        while every accumulated statistic remains an unbiased estimate
        over the sampled windows.  ``n_samples``/``psd_windows`` in the
        result reflect the sampled set; ``windows_total`` records the
        full count (per member).

    Returns a dict of raw measurements (pooled over members);
    :mod:`repro.verify.verifier` turns them into gated metrics.
    """
    readers = [read] if callable(read) else list(read)
    if not readers:
        raise ValueError("need at least one surface reader")
    nx, ny = int(shape[0]), int(shape[1])
    seg = int(segment)
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    sx, sy = nx // seg, ny // seg
    if sx < 1 or sy < 1:
        raise ValueError(f"segment {seg} exceeds surface {nx}x{ny}")
    cx, cy = sx * seg, sy * seg  # segment-aligned crop

    lags = [(int(a), int(b)) for a, b in acf_lags]
    for a, b in lags:
        if (a and b) or a < 0 or b < 0:
            raise ValueError(f"ACF lags must be axis-aligned and >= 0, got {(a, b)}")
        if max(a, b) >= seg:
            raise ValueError(
                f"ACF lag {(a, b)} must be smaller than segment {seg}"
            )
    halo_x = max([1] + [a for a, _ in lags])
    halo_y = max([1] + [b for _, b in lags])

    # Welch machinery — identical to stats.welch_spectrum on the crop.
    sub = Grid2D(nx=seg, ny=seg, lx=seg * float(dx), ly=seg * float(dy))
    if window == "hann":
        wx = np.hanning(seg)
    elif window == "boxcar":
        wx = np.ones(seg)
    else:
        raise ValueError(f"unknown window {window!r}")
    taper = wx[:, None] * wx[None, :]
    norm = np.mean(taper**2)

    n_samples = 0
    h_sum = 0.0
    h_sumsq = 0.0
    gx_sumsq = 0.0
    gx_pairs = 0
    gy_sumsq = 0.0
    gy_pairs = 0
    acf_acc = {lag: {"lr": 0.0, "l": 0.0, "r": 0.0, "n": 0} for lag in lags}
    psd_acc = np.zeros((seg, seg // 2 + 1))  # non-negative-ky half plane
    n_windows = 0

    windows = [(i * seg, j * seg)
               for i in range(0, sx, stride) for j in range(0, sy, stride)]
    for read in readers:
        for x0, y0 in windows:
            ax = min(halo_x, nx - (x0 + seg))
            ay = min(halo_y, ny - (y0 + seg))
            ext = np.asarray(read(x0, y0, seg + ax, seg + ay), dtype=float)
            if ext.shape != (seg + ax, seg + ay):
                raise ValueError(
                    f"reader returned shape {ext.shape}, "
                    f"expected {(seg + ax, seg + ay)}"
                )
            win = ext[:seg, :seg]

            # Sums of products go through einsum: no temporary array.
            n_samples += win.size
            win_sum = win.sum()
            h_sum += float(win_sum)
            h_sumsq += float(np.einsum("ij,ij->", win, win))

            # Forward differences; the +1 halo pairs the window's last
            # row/column with its neighbour, so every interior pair is
            # counted exactly once across the crop.
            mx = min(seg, ext.shape[0] - 1)
            if mx > 0:
                d = ext[1 : mx + 1, :seg] - ext[:mx, :seg]
                gx_sumsq += float(np.einsum("ij,ij->", d, d))
                gx_pairs += d.size
            my = min(seg, ext.shape[1] - 1)
            if my > 0:
                d = ext[:seg, 1 : my + 1] - ext[:seg, :my]
                gy_sumsq += float(np.einsum("ij,ij->", d, d))
                gy_pairs += d.size

            for lag in lags:
                la, lb = lag
                if la:
                    m = min(seg, ext.shape[0] - la)
                    left = ext[:m, :seg]
                    right = ext[la : la + m, :seg]
                else:
                    m = min(seg, ext.shape[1] - lb)
                    left = ext[:seg, :m]
                    right = ext[:seg, lb : lb + m]
                if m > 0:
                    acc = acf_acc[lag]
                    acc["lr"] += float(np.einsum("ij,ij->", left, right))
                    acc["l"] += float(left.sum())
                    acc["r"] += float(right.sum())
                    acc["n"] += left.size

            # Same ops as welch_spectrum: per-patch demean, taper,
            # periodogram without re-demeaning.  Halves are summed and
            # mirrored once at the end, which is exact: mirroring only
            # permutes elements.
            patch = (win - win_sum / win.size) * taper
            psd_acc += _half_periodogram(patch, sub)
            n_windows += 1

    mean = h_sum / n_samples
    var = max(h_sumsq / n_samples - mean * mean, 0.0)

    acf = {}
    for lag, acc in acf_acc.items():
        n = acc["n"]
        if n == 0 or var == 0.0:
            acf[lag] = {"count": n, "cov": float("nan"), "coef": float("nan")}
            continue
        cov = acc["lr"] / n - (acc["l"] / n) * (acc["r"] / n)
        acf[lag] = {"count": n, "cov": cov, "coef": cov / var}

    return {
        "shape": (nx, ny),
        "crop": (cx, cy),
        "coverage": (cx * cy) / (nx * ny),
        "segment": seg,
        "stride": stride,
        "windows_total": sx * sy,
        "window": window,
        "n_samples": n_samples,
        "mean": mean,
        "var": var,
        "rms": float(np.sqrt(var)),
        "grad_msq_x": (gx_sumsq / gx_pairs) / (dx * dx) if gx_pairs else float("nan"),
        "grad_msq_y": (gy_sumsq / gy_pairs) / (dy * dy) if gy_pairs else float("nan"),
        "grad_pairs": (gx_pairs, gy_pairs),
        "acf_lags": lags,
        "acf": acf,
        "members": len(readers),
        "psd_grid": sub,
        "psd": _mirror_half_spectrum(psd_acc, seg) / (n_windows * norm),
        "psd_windows": n_windows,
    }
