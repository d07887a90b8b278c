"""The convolution method for rough-surface generation (Section 2.4).

The paper rewrites the direct-DFT product (eqn 30) via the convolution
theorem into the real-space form (eqn 36)

.. math::

    f_{n_x n_y} = \\sum_{k_x}\\sum_{k_y} \\bar w_{k_x k_y}\\,
        X_{n_x + k_x - M_x,\\ n_y + k_y - M_y},

i.e. a (cross-)correlation of a compact centred kernel ``w-bar`` (built
by :func:`repro.core.weights.build_kernel`) with an i.i.d. ``N(0,1)``
noise field ``X``.  Two practical consequences — the paper's two stated
advantages — follow:

1. **Unbounded surfaces.**  Because any output sample depends only on the
   noise inside the kernel footprint, surfaces of arbitrary extent can be
   produced by *successive computations* over windows of a conceptually
   infinite noise plane (:class:`repro.core.rng.BlockNoise`), with exact
   agreement in overlaps.  See :func:`generate_window` and
   :mod:`repro.parallel.streaming`.
2. **Kernel truncation.**  When the correlation length is small the
   kernel support is compact; truncating it (``truncate_kernel*``) cuts
   cost proportionally at a controlled variance/shape error.

Execution paths, tested against each other:

* :func:`convolve_full` — FFT circular path, *identical* (to rounding)
  to the direct DFT method with matched noise (experiment C1);
* :func:`convolve_spatial` / :func:`apply_kernel_valid` — valid-mode
  correlation with a (possibly truncated) kernel, used for windowed,
  streamed and tiled generation.  Three interchangeable engines compute
  it (``--engine {auto,spatial,fft}`` on the CLI):

  ``"spatial"``
      Explicit sliding correlation, O(out * K^2).  The reference oracle
      for the equivalence tests, and the fastest choice for very small
      kernels where FFT setup dominates.
  ``"fft"``
      Overlap-save FFT (:func:`apply_kernel_valid_fft`) with the
      process-wide :data:`repro.core.engine.plan_cache`: the padded
      kernel spectrum is computed once per ``(kernel, block shape)`` and
      reused across tiles, strips, and inhomogeneous regions.
  ``"auto"``
      Dispatch by kernel support (:func:`select_engine`): spatial below
      ``SPATIAL_KERNEL_AREA_MAX`` kernel samples, FFT above.

For literal-minded verification, :func:`convolve_reference` evaluates
eqn (36) by direct summation (O(N^2 K^2); tests only).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple, Union

import numpy as np
from scipy import fft as sfft

from .. import obs
from .api import HeightField, merge_provenance, traced
from .engine import (
    BatchStats,
    KernelPlanCache,
    check_dtype,
    choose_block_shape,
    common_margins,
    plan_cache,
)
from .grid import Grid2D
from .rng import BlockNoise, SeedLike, as_generator, standard_normal_field
from .spectra import Spectrum
from .weights import (
    Kernel,
    amplitude_array,
    build_kernel,
    truncate_kernel,
    truncate_kernel_energy,
)

__all__ = [
    "convolve_full",
    "convolve_spatial",
    "convolve_reference",
    "apply_kernel_valid",
    "apply_kernel_valid_spatial",
    "apply_kernel_valid_fft",
    "apply_kernels_valid",
    "select_engine",
    "ENGINES",
    "SPATIAL_KERNEL_AREA_MAX",
    "noise_window_for",
    "batched_noise_window_for",
    "generate_window",
    "resolve_kernel",
    "ConvolutionGenerator",
]

TruncationSpec = Union[None, float, Tuple[int, int]]

#: Valid values for the ``engine`` argument of the windowed paths.
ENGINES = ("auto", "spatial", "fft")

#: ``auto`` dispatch threshold: kernels with at most this many samples
#: run through the explicit spatial correlation (cheaper than an FFT
#: round-trip at ~1-2 ns per kernel-sample per output on current CPUs);
#: larger kernels take the plan-cached overlap-save FFT engine.
SPATIAL_KERNEL_AREA_MAX = 49


def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {'|'.join(ENGINES)}"
        )
    return engine


def select_engine(kernel_shape: Tuple[int, int]) -> str:
    """The ``auto``-dispatch decision: ``"spatial"`` or ``"fft"``.

    Purely a function of the kernel support so that every tile of a run
    (and every worker process) makes the same choice — a prerequisite
    for bit-identical serial/thread/process execution.
    """
    kx, ky = kernel_shape
    return "spatial" if kx * ky <= SPATIAL_KERNEL_AREA_MAX else "fft"


def convolve_full(
    spectrum: Spectrum,
    grid: Grid2D,
    noise: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Full-kernel convolution method via FFT (circular boundary).

    Computes eqn (36) with the untruncated kernel using the spectral
    identity ``f = sqrt(Nx*Ny) * IDFT(v * DFT(X))`` (derived from the
    correlation theorem; see module docstring of
    :mod:`repro.core.direct_dft`).  The result is exactly the direct DFT
    method's surface for the Hermitian array matched to ``X``.

    Parameters
    ----------
    noise:
        Optional ``(nx, ny)`` i.i.d. ``N(0,1)`` field; drawn from ``seed``
        when omitted.
    """
    if noise is None:
        noise = standard_normal_field(grid.shape, seed)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != grid.shape:
        raise ValueError(f"noise shape {noise.shape} != grid shape {grid.shape}")
    v = amplitude_array(spectrum, grid)
    out = np.fft.ifft2(v * np.fft.fft2(noise)) * np.sqrt(grid.size)
    return np.ascontiguousarray(out.real)


def convolve_spatial(
    kernel: Kernel,
    noise: np.ndarray,
    boundary: str = "wrap",
    engine: str = "auto",
    cache: Optional[KernelPlanCache] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Apply a centred kernel to a noise field of the output's shape.

    Evaluates eqn (36) as a correlation.  ``boundary`` selects how noise
    outside the field is treated:

    ``"wrap"``
        Circular indexing, matching the DFT methods on the same noise.
    ``"reflect"`` / ``"zero"``
        Non-periodic edge handling (useful when the physical surface is a
        patch, not a torus).  ``"zero"`` tapers variance near edges.

    ``engine``/``cache``/``dtype`` select the valid-correlation engine
    and its precision, see :func:`apply_kernel_valid`.
    """
    noise = np.asarray(noise, dtype=check_dtype(dtype))
    if noise.ndim != 2:
        raise ValueError("noise must be 2D")
    kx, ky = kernel.shape
    px_lo, px_hi = kernel.cx, kx - 1 - kernel.cx
    py_lo, py_hi = kernel.cy, ky - 1 - kernel.cy
    mode = _pad_mode(boundary)
    padded = np.pad(noise, ((px_lo, px_hi), (py_lo, py_hi)), mode=mode)
    return apply_kernel_valid(kernel, padded, engine=engine, cache=cache,
                              dtype=dtype)


def _pad_mode(boundary: str) -> str:
    """Map a boundary name to the matching :func:`numpy.pad` mode.

    The extension value at any virtual index outside the field depends
    only on that index (not on the pad width) for all three modes, so
    padding once by the batch's common margins is value-identical to
    padding per kernel by its own margins.
    """
    if boundary == "wrap":
        return "wrap"
    if boundary == "reflect":
        return "symmetric"
    if boundary == "zero":
        return "constant"
    raise ValueError(f"unknown boundary {boundary!r}")


def _check_valid_shapes(kernel: Kernel, noise: np.ndarray,
                        dtype=np.float64) -> np.ndarray:
    noise = np.asarray(noise, dtype=check_dtype(dtype))
    kx, ky = kernel.shape
    if noise.shape[0] < kx or noise.shape[1] < ky:
        raise ValueError(
            f"noise window {noise.shape} smaller than kernel {kernel.shape}"
        )
    return noise


def apply_kernel_valid(
    kernel: Kernel,
    noise: np.ndarray,
    engine: str = "auto",
    cache: Optional[KernelPlanCache] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Valid-mode correlation: the core windowed-generation primitive.

    ``out[i, j] = sum_k kernel[k] * noise[i + k_x, j + k_y]`` for every
    position where the kernel fits entirely inside ``noise``; output shape
    is ``noise.shape - kernel.shape + 1``.  Output sample ``(i, j)``
    corresponds to the noise-plane location ``(i + cx, j + cy)``.

    Parameters
    ----------
    engine:
        ``"spatial"`` (explicit correlation, the reference oracle),
        ``"fft"`` (plan-cached overlap-save FFT), or ``"auto"``
        (dispatch by kernel support, :func:`select_engine`).  All
        engines agree to < 1e-12 absolute for unit-variance surfaces
        (property-tested) and each is individually deterministic.
    cache:
        Plan cache for the FFT engine (default: the process-wide
        :data:`repro.core.engine.plan_cache`).
    dtype:
        Engine precision (``float64`` default, ``float32`` opt-in):
        noise is coerced once, kernels/plans are rounded once, and the
        output carries the requested dtype with no silent up-casts.
    """
    engine = _check_engine(engine)
    if engine == "auto":
        engine = select_engine(kernel.shape)
    obs.add("conv.dispatch." + engine)
    if engine == "spatial":
        with obs.trace("conv.spatial"):
            return apply_kernel_valid_spatial(kernel, noise, dtype=dtype)
    return apply_kernel_valid_fft(kernel, noise, cache=cache, dtype=dtype)


def apply_kernel_valid_spatial(kernel: Kernel, noise: np.ndarray,
                               dtype=np.float64) -> np.ndarray:
    """Explicit spatial evaluation of the valid correlation.

    Accumulates one shifted noise slab per kernel sample — O(out * K^2)
    but allocation-light and exactly the printed sum of eqn (36), which
    makes it both the reference oracle for the FFT engine and the
    fastest path for very small (truncated) kernels.
    """
    noise = _check_valid_shapes(kernel, noise, dtype)
    kx, ky = kernel.shape
    onx = noise.shape[0] - kx + 1
    ony = noise.shape[1] - ky + 1
    out = np.zeros((onx, ony), dtype=noise.dtype)
    # Round the kernel to the working precision up front so every
    # slab product stays in that precision (a float64 coefficient
    # would silently promote float32 slabs).
    values = kernel.values.astype(noise.dtype, copy=False)
    for dx in range(kx):
        row = values[dx]
        for dy in range(ky):
            c = row[dy]
            if c == 0.0:
                continue
            out += c * noise[dx : dx + onx, dy : dy + ony]
    return out


def apply_kernel_valid_fft(
    kernel: Kernel,
    noise: np.ndarray,
    cache: Optional[KernelPlanCache] = None,
    block_shape: Optional[Tuple[int, int]] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Overlap-save FFT evaluation of the valid correlation.

    The noise window is processed in FFT blocks (one block when the
    window is small, fixed-size blocks stepped by ``block - kernel + 1``
    when it is large, see :func:`repro.core.engine.choose_block_shape`);
    each block is transformed with ``rfft2``, multiplied by the cached
    padded-kernel spectrum, and inverse-transformed, keeping only the
    wrap-free samples.  The kernel transform itself comes from ``cache``
    — across a tiled or streamed run it is computed once per kernel and
    block shape, which is what makes this the production hot path.

    Parameters
    ----------
    cache:
        Plan cache (default: process-wide :data:`~repro.core.engine.
        plan_cache`).
    block_shape:
        Explicit per-axis FFT lengths (testing/tuning); must be at least
        the kernel support per axis.  Default: automatic policy.
    dtype:
        Engine precision; ``float32`` plans/spectra halve the memory
        traffic (the 4096^2 homogeneous hot path gains >= 1.3x, gated
        in ``benchmarks/check_engine_gate.py``).

    Notes
    -----
    Results are a pure function of ``(kernel, noise, block shape,
    dtype)`` — cache hits, misses, and rebuilds in other processes
    produce bit-identical output, so all executor backends agree
    exactly.
    """
    dt = check_dtype(dtype)
    noise = _check_valid_shapes(kernel, noise, dt)
    kx, ky = kernel.shape
    onx = noise.shape[0] - kx + 1
    ony = noise.shape[1] - ky + 1
    # h = 0 (or an all-zero truncation) synthesises the flat surface; do
    # not route it through the cache, whose normalised plans assume a
    # non-degenerate amplitude.
    if kernel.scale == 0.0 or not np.any(kernel.values):
        return np.zeros((onx, ony), dtype=dt)
    if block_shape is None:
        block_shape = choose_block_shape(noise.shape, kernel.shape)
    bx, by = int(block_shape[0]), int(block_shape[1])
    if bx < kx or by < ky:
        raise ValueError(
            f"block_shape {block_shape} smaller than kernel {kernel.shape}"
        )
    plan = (cache if cache is not None else plan_cache).get_plan(
        kernel, (bx, by), dt
    )
    factor = kernel.plan_scale  # undoes the plan's normalisation
    out = np.empty((onx, ony), dt)
    step_x = bx - kx + 1
    step_y = by - ky + 1
    for x0 in range(0, onx, step_x):
        nx_blk = min(step_x, onx - x0)
        for y0 in range(0, ony, step_y):
            ny_blk = min(step_y, ony - y0)
            seg = noise[x0 : x0 + bx, y0 : y0 + by]
            with obs.trace("engine.fft.forward"):
                spec = sfft.rfft2(seg, s=(bx, by))
            spec *= plan.kfft
            with obs.trace("engine.fft.inverse"):
                conv = sfft.irfft2(spec, s=(bx, by))
            obs.add("engine.fft.forward_ffts")
            obs.add("engine.fft.inverse_ffts")
            obs.add("engine.fft.blocks")
            # circular wrap contaminates only the first kernel-1 rows /
            # columns of each block; the rest equals the linear result
            out[x0 : x0 + nx_blk, y0 : y0 + ny_blk] = conv[
                kx - 1 : kx - 1 + nx_blk, ky - 1 : ky - 1 + ny_blk
            ]
    if factor != 1.0:
        out *= factor
    return out


def _apply_kernel_valid_fftconvolve(kernel: Kernel, noise: np.ndarray
                                    ) -> np.ndarray:
    """The pre-engine implementation (``scipy.signal.fftconvolve``).

    Re-transforms the kernel on every call; retained as the seed-state
    baseline for the perf-regression gate
    (``benchmarks/check_engine_gate.py``) and as an extra cross-check in
    the equivalence tests.  Not part of the public engine choices.
    """
    # imported here: scipy.signal takes ~1 s to import and nothing on the
    # production path needs it
    from scipy import signal

    noise = _check_valid_shapes(kernel, noise)
    flipped = kernel.values[::-1, ::-1]
    out = signal.fftconvolve(noise, flipped, mode="valid")
    return np.ascontiguousarray(out)


def convolve_reference(kernel: Kernel, noise: np.ndarray) -> np.ndarray:
    """Literal evaluation of paper eqn (36) by direct summation.

    Circular ('wrap') boundary; O(N^2 K^2).  Exists so the optimised
    paths can be validated against the printed formula; do not use for
    production sizes.
    """
    noise = np.asarray(noise, dtype=float)
    nx, ny = noise.shape
    kx, ky = kernel.shape
    out = np.zeros_like(noise)
    for dx in range(kx):
        for dy in range(ky):
            c = kernel.values[dx, dy]
            if c == 0.0:
                continue
            out += c * np.roll(noise, shift=(-(dx - kernel.cx), -(dy - kernel.cy)),
                               axis=(0, 1))
    return out


def noise_window_for(
    kernel: Kernel, x0: int, y0: int, nx: int, ny: int
) -> Tuple[int, int, int, int]:
    """Noise-plane window needed to generate surface window ``[x0,x0+nx) x [y0,y0+ny)``.

    Returns ``(wx0, wy0, wnx, wny)`` in global noise coordinates such that
    valid correlation of the kernel over that window yields exactly the
    requested surface samples.
    """
    kx, ky = kernel.shape
    return (x0 - kernel.cx, y0 - kernel.cy, nx + kx - 1, ny + ky - 1)


def batched_noise_window_for(
    kernels: "list[Kernel] | tuple[Kernel, ...]",
    x0: int,
    y0: int,
    nx: int,
    ny: int,
    margins: Optional[Tuple[int, int, int, int]] = None,
) -> Tuple[int, int, int, int]:
    """Single noise-plane window serving a whole kernel batch.

    Like :func:`noise_window_for`, but for the batched engine: the
    returned ``(wx0, wy0, wnx, wny)`` covers the union of every kernel's
    footprint around the output window ``[x0, x0+nx) x [y0, y0+ny)``, so
    one window read (and one forward FFT per block) feeds all of them.

    ``margins`` overrides the computed :func:`~repro.core.engine.
    common_margins` — pass the full-region margins when pruning, so the
    window geometry does not depend on which regions happen to be
    active.
    """
    lx, rx, ly, ry = common_margins(kernels) if margins is None else margins
    return (x0 - lx, y0 - ly, nx + lx + rx, ny + ly + ry)


def _normalize_active(active, n: int) -> Optional[np.ndarray]:
    """Coerce an active-set spec (bool mask or index sequence) to a mask."""
    if active is None:
        return None
    arr = np.asarray(active)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(
                f"active mask shape {arr.shape} != (n_kernels,) = ({n},)"
            )
        return arr
    mask = np.zeros(n, dtype=bool)
    mask[arr.astype(int)] = True
    return mask


def apply_kernels_valid(
    kernels: "list[Kernel] | tuple[Kernel, ...]",
    noise: np.ndarray,
    active=None,
    engine: str = "auto",
    cache: Optional[KernelPlanCache] = None,
    block_shape: Optional[Tuple[int, int]] = None,
    margins: Optional[Tuple[int, int, int, int]] = None,
    stats: Optional[BatchStats] = None,
    dtype=np.float64,
) -> "list[Optional[np.ndarray]]":
    """Batched valid correlation: M kernels against one noise window.

    All kernels share the common output window implied by the batch's
    :func:`~repro.core.engine.common_margins` ``(lx, rx, ly, ry)``:
    output shape is ``noise.shape - (lx+rx, ly+ry)`` and output sample
    ``(i, j)`` corresponds to noise-plane location ``(i+lx, j+ly)``.
    On the FFT engine each overlap-save block is forward-transformed
    **once** and multiplied against every active kernel's cached plan —
    1 forward + M inverses instead of the M forward+inverse pairs of
    per-kernel calls — which is the multi-region hot-path optimisation.

    Parameters
    ----------
    active:
        Optional active set: boolean mask of length ``len(kernels)`` or
        a sequence of indices (e.g. from :meth:`repro.fields.
        parameter_map.WeightMap.support`).  Inactive kernels are not
        convolved and yield ``None`` in the result list.  Pruning is
        bit-transparent: block geometry derives from ``margins`` (or the
        *full* batch), so active outputs are identical with and without
        pruning.
    margins:
        Explicit ``(lx, rx, ly, ry)`` common margins; must dominate
        every kernel's one-sided supports.  Defaults to
        :func:`~repro.core.engine.common_margins` of the full batch.
    stats:
        Optional :class:`~repro.core.engine.BatchStats` accumulating
        forward/inverse FFT and active/skipped kernel counts.
    dtype:
        Engine precision, as in :func:`apply_kernel_valid`; every kernel
        of the batch runs at the same precision.

    Returns
    -------
    List of output arrays aligned with ``kernels`` (``None`` for pruned
    entries).  For a single-kernel batch the FFT result is bit-identical
    to :func:`apply_kernel_valid_fft` on the same window.
    """
    engine = _check_engine(engine)
    n = len(kernels)
    if n == 0:
        return []
    noise = np.asarray(noise, dtype=check_dtype(dtype))
    if noise.ndim != 2:
        raise ValueError("noise must be 2D")
    lx, rx, ly, ry = common_margins(kernels) if margins is None else margins
    for k in kernels:
        if (k.cx > lx or k.shape[0] - 1 - k.cx > rx
                or k.cy > ly or k.shape[1] - 1 - k.cy > ry):
            raise ValueError(
                f"margins {(lx, rx, ly, ry)} do not cover kernel "
                f"support {k.shape} centred at ({k.cx}, {k.cy})"
            )
    kx_eff = lx + rx + 1
    ky_eff = ly + ry + 1
    if noise.shape[0] < kx_eff or noise.shape[1] < ky_eff:
        raise ValueError(
            f"noise window {noise.shape} smaller than batch footprint "
            f"({kx_eff}, {ky_eff})"
        )
    mask = _normalize_active(active, n)
    if engine == "auto":
        # Dispatch on the common footprint so every tile of a run makes
        # the same choice regardless of which regions are active there.
        engine = select_engine((kx_eff, ky_eff))
    n_active = n if mask is None else int(mask.sum())
    if stats is not None:
        stats.kernels_active += n_active
        stats.kernels_skipped += n - n_active
    obs.add("conv.dispatch." + engine)
    obs.add("batch.kernels_active", n_active)
    obs.add("batch.kernels_skipped", n - n_active)
    if engine == "spatial":
        with obs.trace("conv.spatial"):
            return _apply_kernels_valid_spatial(kernels, noise, mask,
                                                (lx, rx, ly, ry))
    return _apply_kernels_valid_fft(kernels, noise, mask, (lx, rx, ly, ry),
                                    cache=cache, block_shape=block_shape,
                                    stats=stats)


def _apply_kernels_valid_spatial(
    kernels, noise, mask, margins
) -> "list[Optional[np.ndarray]]":
    """Spatial engine for the batch: per-kernel sub-window correlations.

    Each kernel reads its own footprint-sized view of the shared window
    (no copies), so results equal per-kernel
    :func:`apply_kernel_valid_spatial` calls exactly.
    """
    lx, rx, ly, ry = margins
    onx = noise.shape[0] - (lx + rx)
    ony = noise.shape[1] - (ly + ry)
    outs: "list[Optional[np.ndarray]]" = []
    for m, k in enumerate(kernels):
        if mask is not None and not mask[m]:
            outs.append(None)
            continue
        ox = lx - k.cx
        oy = ly - k.cy
        sub = noise[ox : ox + onx + k.shape[0] - 1,
                    oy : oy + ony + k.shape[1] - 1]
        outs.append(apply_kernel_valid_spatial(k, sub, dtype=noise.dtype))
    return outs


def _apply_kernels_valid_fft(
    kernels,
    noise,
    mask,
    margins,
    cache: Optional[KernelPlanCache] = None,
    block_shape: Optional[Tuple[int, int]] = None,
    stats: Optional[BatchStats] = None,
) -> "list[Optional[np.ndarray]]":
    """Shared-forward overlap-save engine for the batch.

    Block geometry (and hence FFT rounding) is a pure function of
    ``(noise.shape, margins, block_shape)`` — independent of the active
    set — and each kernel's wrap-free slice starts at row
    ``lx + (kx_m - 1 - cx_m)`` of its inverse transform, which reduces
    to the single-kernel engine's ``kx - 1`` when the margins are that
    kernel's own.
    """
    dt = noise.dtype  # caller coerced; one precision for the whole batch
    lx, rx, ly, ry = margins
    kx_eff = lx + rx + 1
    ky_eff = ly + ry + 1
    onx = noise.shape[0] - kx_eff + 1
    ony = noise.shape[1] - ky_eff + 1
    if block_shape is None:
        block_shape = choose_block_shape(noise.shape, (kx_eff, ky_eff))
    bx, by = int(block_shape[0]), int(block_shape[1])
    if bx < kx_eff or by < ky_eff:
        raise ValueError(
            f"block_shape {block_shape} smaller than batch footprint "
            f"({kx_eff}, {ky_eff})"
        )
    cache = cache if cache is not None else plan_cache
    outs: "list[Optional[np.ndarray]]" = [None] * len(kernels)
    plans = []  # (index, plan, row offset, col offset) of live kernels
    for m, k in enumerate(kernels):
        if mask is not None and not mask[m]:
            continue
        if k.scale == 0.0 or not np.any(k.values):
            outs[m] = np.zeros((onx, ony), dtype=dt)  # flat surface, no plan
            continue
        outs[m] = np.empty((onx, ony), dt)
        plans.append((
            m,
            cache.get_plan(k, (bx, by), dt),
            lx + (k.shape[0] - 1 - k.cx),
            ly + (k.shape[1] - 1 - k.cy),
        ))
    if plans:
        step_x = bx - kx_eff + 1
        step_y = by - ky_eff + 1
        for x0 in range(0, onx, step_x):
            nx_blk = min(step_x, onx - x0)
            for y0 in range(0, ony, step_y):
                ny_blk = min(step_y, ony - y0)
                seg = noise[x0 : x0 + bx, y0 : y0 + by]
                with obs.trace("engine.fft.forward"):
                    spec = sfft.rfft2(seg, s=(bx, by))
                obs.add("engine.fft.forward_ffts")
                obs.add("engine.fft.blocks")
                if stats is not None:
                    stats.forward_ffts += 1
                    stats.blocks += 1
                for m, plan, px, py in plans:
                    with obs.trace("engine.fft.inverse"):
                        conv = sfft.irfft2(spec * plan.kfft, s=(bx, by))
                    obs.add("engine.fft.inverse_ffts")
                    if stats is not None:
                        stats.inverse_ffts += 1
                    outs[m][x0 : x0 + nx_blk, y0 : y0 + ny_blk] = conv[
                        px : px + nx_blk, py : py + ny_blk
                    ]
    for m, _plan, _px, _py in plans:
        factor = kernels[m].plan_scale
        if factor != 1.0:
            outs[m] *= factor
    return outs


def generate_window(
    kernel: Kernel,
    noise: BlockNoise,
    x0: int,
    y0: int,
    nx: int,
    ny: int,
    engine: str = "auto",
    cache: Optional[KernelPlanCache] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Generate an arbitrary window of the infinite surface (advantage (a)).

    The surface value at global index ``(i, j)`` is a deterministic
    function of ``(kernel, noise.seed, engine, dtype)``; windows
    generated separately agree on overlaps (exactly in the underlying
    noise, to FFT rounding ~1e-15 in the heights), which is what enables
    streaming strips, parallel tiles, and surfaces of unbounded extent.
    """
    wx0, wy0, wnx, wny = noise_window_for(kernel, x0, y0, nx, ny)
    window = noise.window(wx0, wy0, wnx, wny)
    return apply_kernel_valid(kernel, window, engine=engine, cache=cache,
                              dtype=dtype)


def resolve_kernel(
    spectrum: Spectrum, grid: Grid2D, truncation: TruncationSpec
) -> Kernel:
    """Build (and optionally truncate) the kernel for a generator.

    ``truncation`` may be ``None`` (full kernel), a float in (0, 1]
    (energy fraction, see :func:`truncate_kernel_energy`), or an explicit
    ``(half_x, half_y)`` tuple of one-sided supports in samples.

    The returned kernel carries a plan-cache ``identity`` — spectrum
    parameters normalised to unit ``h``, grid geometry, and the
    truncation spec — and ``scale = h``: spectra differing only in
    height std then share one cached FFT plan (the synthesis is linear
    in ``h``), see :mod:`repro.core.engine`.
    """
    kernel = build_kernel(spectrum, grid)
    if truncation is None:
        pass
    elif isinstance(truncation, tuple):
        kernel = truncate_kernel(kernel, *truncation)
    else:
        kernel = truncate_kernel_energy(kernel, float(truncation))
    trunc_token = (
        tuple(int(t) for t in truncation)
        if isinstance(truncation, tuple)
        else truncation
    )
    try:
        unit = spectrum.with_params(h=1.0) if spectrum.h != 1.0 else spectrum
        identity = (
            unit,
            grid.nx, grid.ny, float(grid.dx), float(grid.dy),
            trunc_token,
        )
        hash(identity)  # custom spectra may be unhashable -> fingerprint
    except (TypeError, ValueError):
        return kernel
    return replace(kernel, identity=identity, scale=float(spectrum.h))


class ConvolutionGenerator:
    """High-level homogeneous-surface generator (the paper's Section 2.4).

    Precomputes the convolution kernel once ("once the weighting array is
    computed, we can generate any size of continuous RRSs") and exposes
    both periodic one-shot generation and windowed generation over the
    infinite noise plane.

    Parameters
    ----------
    spectrum:
        Target spectral density.
    grid:
        Kernel-construction grid.  Its *spacing* fixes the sampling of
        the surface; windows of any extent can then be generated at that
        spacing.  The grid extent bounds the kernel support, so choose
        ``lx, ly`` comfortably larger than a few correlation lengths.
    truncation:
        Kernel truncation spec, see :func:`resolve_kernel`.  Default
        retains 99.99% of the kernel energy, which keeps windowed
        generation cheap while changing the surface variance by < 0.01%.
    engine:
        Valid-correlation engine for the windowed paths
        (``"auto"`` | ``"spatial"`` | ``"fft"``), see
        :func:`apply_kernel_valid`.
    dtype:
        Working precision of the engine (``"float64"`` default,
        ``"float32"`` opt-in).  Stored on the generator as
        ``self.dtype`` so the tiled/streaming executors allocate
        matching output buffers; recorded in provenance.

    Examples
    --------
    >>> from repro.core.grid import Grid2D
    >>> from repro.core.spectra import GaussianSpectrum
    >>> gen = ConvolutionGenerator(
    ...     GaussianSpectrum(h=1.0, clx=40.0, cly=40.0),
    ...     Grid2D(nx=256, ny=256, lx=1024.0, ly=1024.0),
    ... )
    >>> heights = gen.generate(seed=7)
    >>> heights.shape
    (256, 256)
    """

    def __init__(
        self,
        spectrum: Spectrum,
        grid: Grid2D,
        truncation: TruncationSpec = 0.9999,
        engine: str = "auto",
        dtype="float64",
    ) -> None:
        self.spectrum = spectrum
        self.grid = grid
        self.truncation = truncation
        self.engine = _check_engine(engine)
        self.dtype = check_dtype(dtype)
        self.kernel = resolve_kernel(spectrum, grid, truncation)

    # ------------------------------------------------------------------
    def generate(
        self,
        seed: SeedLike = None,
        *,
        noise: Optional[np.ndarray] = None,
        boundary: str = "wrap",
        exact: bool = False,
        trace: bool = False,
        provenance: Optional[dict] = None,
    ) -> HeightField:
        """One realisation on the construction grid.

        Unified signature (:mod:`repro.core.api`): everything after
        ``seed`` is keyword-only.  Returns a
        :class:`~repro.core.api.HeightField` — a drop-in ``ndarray``
        carrying the run's provenance.

        Parameters
        ----------
        exact:
            If true, use the untruncated FFT path (:func:`convolve_full`)
            — exactly the direct-DFT surface for matched noise.  The
            default uses the (possibly truncated) spatial kernel, which
            is what the windowed/streamed paths use.
        trace:
            Wrap the call in a ``generator.generate`` span of
            :mod:`repro.obs` (no-op unless a recorder is installed).
        provenance:
            Extra entries merged into the result's provenance.
        """
        with traced(self, trace):
            if noise is None:
                noise = standard_normal_field(self.grid.shape, seed)
            if exact:
                heights = convolve_full(self.spectrum, self.grid, noise=noise)
                if self.dtype != heights.dtype:
                    # the exact path computes in float64; the cast is the
                    # only lossy step, matching the engine's output dtype
                    heights = heights.astype(self.dtype)
            else:
                heights = convolve_spatial(
                    self.kernel, noise, boundary=boundary, engine=self.engine,
                    dtype=self.dtype,
                )
        record = {
            "method": "convolution",
            "engine": self.engine,
            "boundary": boundary,
            "exact": exact,
            "dtype": self.dtype.name,
        }
        if hasattr(self.spectrum, "to_dict"):
            record["spectrum"] = self.spectrum.to_dict()
        return HeightField.wrap(
            heights, merge_provenance(record, provenance)
        )

    def generate_window(
        self, noise: BlockNoise, x0: int, y0: int, nx: int, ny: int,
        *, trace: bool = False, provenance: Optional[dict] = None,
    ) -> HeightField:
        """Window ``[x0, x0+nx) x [y0, y0+ny)`` of the infinite surface."""
        with traced(self, trace, "generate_window"):
            heights = generate_window(
                self.kernel, noise, x0, y0, nx, ny, engine=self.engine,
                dtype=self.dtype,
            )
        record = {
            "method": "convolution-window",
            "window": [x0, y0, nx, ny],
            "noise_seed": noise.seed,
            "engine": self.engine,
            "dtype": self.dtype.name,
        }
        return HeightField.wrap(
            heights, merge_provenance(record, provenance)
        )

    @property
    def footprint(self) -> Tuple[int, int]:
        """Kernel support ``(kx, ky)`` in samples (cost driver, claim C2)."""
        return self.kernel.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConvolutionGenerator(spectrum={self.spectrum!r}, "
            f"footprint={self.footprint}, truncation={self.truncation!r}, "
            f"engine={self.engine!r})"
        )
