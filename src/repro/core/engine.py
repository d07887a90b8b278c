"""Overlap-save FFT execution engine with process-wide kernel-plan caching.

The windowed convolution primitive (:func:`repro.core.convolution.
apply_kernel_valid`) is the hot path of every tiled, streamed, and
inhomogeneous generation: one "valid" correlation of a compact kernel
against a tile-plus-halo noise block per tile, per region.  Computing it
through a generic FFT convolution re-transforms the *kernel* on every
call even though a run touches only a handful of distinct kernels (one
per region spectrum) and a handful of distinct block shapes (one per
tile shape in the plan).

This module removes that redundancy:

* :class:`KernelPlan` — the padded-kernel spectrum ``rfft2(pad(w-bar))``
  for one ``(kernel, FFT-block shape)`` pair, the only kernel-dependent
  quantity the overlap-save loop needs;
* :class:`KernelPlanCache` — a bounded, thread-safe, process-wide LRU of
  plans with hit/miss/eviction statistics, so M-region blends and
  many-tile runs pay each kernel transform once per block shape;
* :func:`choose_block_shape` — the overlap-save block policy: one FFT
  over the whole noise window while it is small, fixed-size blocks
  stepped across it (classic overlap-save) once the window would exceed
  :data:`DEFAULT_MAX_BLOCK_ELEMS` elements.

Plan identity
-------------
Two keying modes, chosen per kernel (see
:attr:`repro.core.weights.Kernel.plan_key`):

* kernels built by :func:`repro.core.convolution.resolve_kernel` carry a
  symbolic ``identity`` — spectrum parameters *normalised to unit height
  std*, grid spacing/shape, and truncation spec — plus ``scale = h``.
  The cached spectrum is stored normalised by the scale of the kernel
  that built it, so two spectra differing only in ``h`` share one plan
  and the engine rescales the output (the synthesis is linear in ``h``);
* anonymous kernels (hand-built or re-truncated) fall back to a content
  fingerprint of the kernel bytes, which is exact but never shared
  across ``h`` variants.

Determinism: the engine always applies the *normalised* spectrum (also
on the miss that builds it), so for a fixed kernel-request order, cache
hits, misses, and re-builds in worker processes all produce bit-identical
surfaces — executor backends replay the same order, which is what makes
serial/thread/process runs agree exactly.  Plans *built* from different
``h`` variants of one identity differ by rounding only (``sqrt(h^2 S)/h``
vs ``sqrt(S)``, ~1e-16 relative), far inside the engines' 1e-10
equivalence contract.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Sequence, Tuple

import numpy as np
from scipy import fft as sfft

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (weights -> engine)
    from .weights import Kernel

__all__ = [
    "BatchStats",
    "CacheStats",
    "KernelPlan",
    "KernelPlanCache",
    "choose_block_shape",
    "common_margins",
    "check_dtype",
    "plan_cache",
    "DEFAULT_MAX_BLOCK_ELEMS",
    "ENGINE_DTYPES",
]

#: One FFT over the whole noise window is used while its padded element
#: count stays below this; larger windows are processed in overlap-save
#: blocks (bounds peak memory at ~100 MB of scratch for float64).
DEFAULT_MAX_BLOCK_ELEMS = 1 << 22

#: Minimum overlap-save block edge once a window is split: small blocks
#: waste their ``kernel - 1`` overlap, so blocks never shrink below this
#: unless the kernel itself is smaller.
_MIN_BLOCK_EDGE = 512

#: Precisions the FFT engine supports.  ``float64`` is the default and
#: the accuracy contract; ``float32`` is the opt-in hot path (complex64
#: spectra, roughly half the memory traffic) gated by the calibrated
#: conformance suite.
ENGINE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def check_dtype(dtype) -> np.dtype:
    """Normalise and validate an engine precision request.

    Accepts anything :func:`numpy.dtype` does (``"float32"``,
    ``np.float32``, a dtype instance); rejects everything outside
    :data:`ENGINE_DTYPES` with an actionable error.
    """
    dt = np.dtype(dtype)
    if dt not in ENGINE_DTYPES:
        names = "|".join(d.name for d in ENGINE_DTYPES)
        raise ValueError(
            f"unsupported engine dtype {dt.name!r}; expected one of {names}"
        )
    return dt


def choose_block_shape(
    noise_shape: Tuple[int, int],
    kernel_shape: Tuple[int, int],
    max_block_elems: int = DEFAULT_MAX_BLOCK_ELEMS,
) -> Tuple[int, int]:
    """FFT block shape for a valid correlation of ``kernel`` over ``noise``.

    Returns per-axis FFT lengths ``(bx, by)`` with ``bx >= kx``,
    ``by >= ky``.  Whole-window transforms (padded to the next fast FFT
    length) are preferred; beyond ``max_block_elems`` the window is
    processed in overlap-save blocks of roughly twice the kernel support
    (never below :data:`_MIN_BLOCK_EDGE`), which keeps the redundant
    overlap fraction at ~50% while bounding scratch memory.
    """
    nx, ny = noise_shape
    kx, ky = kernel_shape
    fx = sfft.next_fast_len(nx, real=True)
    fy = sfft.next_fast_len(ny, real=True)
    if fx * fy <= max_block_elems:
        return (fx, fy)
    bx = sfft.next_fast_len(min(nx, max(2 * kx - 1, _MIN_BLOCK_EDGE)), real=True)
    by = sfft.next_fast_len(min(ny, max(2 * ky - 1, _MIN_BLOCK_EDGE)), real=True)
    return (bx, by)


def common_margins(kernels: Sequence["Kernel"]) -> Tuple[int, int, int, int]:
    """One-sided noise margins covering every kernel of a batch.

    A valid correlation with kernel ``m`` (centre ``cx_m, cy_m``) reads
    ``cx_m`` noise samples to the left of an output sample and
    ``kx_m - 1 - cx_m`` to its right (and likewise in ``y``).  The
    common margins

    ``(lx, rx, ly, ry) = (max cx, max (kx-1-cx), max cy, max (ky-1-cy))``

    therefore describe the smallest single noise window from which
    *all* kernels of the batch can be applied to the same output window
    (footprint ``(lx + rx + 1, ly + ry + 1)``).  The batched engine
    derives its block geometry from these margins, so callers that want
    pruning to be bit-transparent must compute them from the *full*
    kernel set and pass them explicitly.
    """
    if not kernels:
        raise ValueError("common_margins() needs at least one kernel")
    lx = max(k.cx for k in kernels)
    rx = max(k.shape[0] - 1 - k.cx for k in kernels)
    ly = max(k.cy for k in kernels)
    ry = max(k.shape[1] - 1 - k.cy for k in kernels)
    return (lx, rx, ly, ry)


@dataclass
class BatchStats:
    """Mutable FFT-work counters filled in by the batched engine.

    ``forward_ffts`` counts noise-block transforms (one per overlap-save
    block, shared by every kernel of the batch); ``inverse_ffts`` counts
    per-kernel inverse transforms; ``kernels_active``/``kernels_skipped``
    count batch entries convolved vs pruned.  The per-region PR 1 path
    would have paid ``blocks * kernels_active`` forward transforms.
    """

    forward_ffts: int = 0
    inverse_ffts: int = 0
    blocks: int = 0
    kernels_active: int = 0
    kernels_skipped: int = 0

    def merge(self, other: "BatchStats") -> None:
        self.forward_ffts += other.forward_ffts
        self.inverse_ffts += other.inverse_ffts
        self.blocks += other.blocks
        self.kernels_active += other.kernels_active
        self.kernels_skipped += other.kernels_skipped

    def as_dict(self) -> Dict[str, int]:
        return {
            "forward_ffts": self.forward_ffts,
            "inverse_ffts": self.inverse_ffts,
            "blocks": self.blocks,
            "kernels_active": self.kernels_active,
            "kernels_skipped": self.kernels_skipped,
        }


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`KernelPlanCache`.

    ``hits``/``misses``/``evictions`` are monotone since the last
    :meth:`KernelPlanCache.clear`; ``size`` is the current entry count.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
        }


class KernelPlan:
    """Cached spectral image of one kernel at one FFT block shape.

    Attributes
    ----------
    kfft:
        ``rfft2`` of the index-flipped kernel zero-padded to
        ``block_shape``, divided by ``norm`` — multiplying a noise
        block's spectrum by this and inverse-transforming yields the
        valid *correlation* (paper eqn 36) of the unit-scale kernel.
        Complex precision follows ``dtype`` (``complex64`` for a
        ``float32`` plan).
    norm:
        Scale of the kernel the plan was built from (``h`` for
        identity-keyed kernels, 1.0 for fingerprint-keyed ones); the
        engine multiplies the output by the *requesting* kernel's scale.
    dtype:
        Real precision the plan was built at; part of the cache key, so
        a ``float32`` request can never be served a ``float64`` plan
        (or vice versa).
    """

    __slots__ = ("key", "block_shape", "kernel_shape", "kfft", "norm",
                 "dtype")

    def __init__(
        self,
        key: Hashable,
        block_shape: Tuple[int, int],
        kernel_shape: Tuple[int, int],
        kfft: np.ndarray,
        norm: float,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> None:
        self.key = key
        self.block_shape = block_shape
        self.kernel_shape = kernel_shape
        self.kfft = kfft
        self.norm = norm
        self.dtype = np.dtype(dtype)

    @property
    def nbytes(self) -> int:
        """Memory held by the cached spectrum."""
        return int(self.kfft.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelPlan(kernel={self.kernel_shape}, block={self.block_shape}, "
            f"norm={self.norm:g})"
        )


def _build_plan(kernel: "Kernel", block_shape: Tuple[int, int],
                key: Hashable, dtype: np.dtype = np.dtype(np.float64)
                ) -> KernelPlan:
    dtype = check_dtype(dtype)
    kx, ky = kernel.shape
    bx, by = block_shape
    if bx < kx or by < ky:
        raise ValueError(
            f"FFT block {block_shape} smaller than kernel {kernel.shape}"
        )
    padded = np.empty((bx, by), dtype)
    padded[:] = 0.0
    # Index flip turns the FFT's circular convolution into the
    # correlation of eqn (36).  A float32 plan rounds the kernel here,
    # once, instead of on every block.
    padded[:kx, :ky] = kernel.values[::-1, ::-1]
    norm = kernel.plan_scale
    kfft = sfft.rfft2(padded)
    if norm != 1.0:
        kfft /= norm
    return KernelPlan(key=key, block_shape=block_shape,
                      kernel_shape=(kx, ky), kfft=kfft, norm=norm,
                      dtype=dtype)


class KernelPlanCache:
    """Bounded, thread-safe LRU cache of :class:`KernelPlan` objects.

    One process-wide instance (:data:`plan_cache`) backs the default FFT
    engine; independent instances may be passed to the engine entry
    points for isolation (tests, bounded services).

    Parameters
    ----------
    maxsize:
        Maximum number of plans retained (>= 1).  The least recently
        used plan is evicted on overflow; evictions are counted.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._plans: "OrderedDict[Hashable, KernelPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get_plan(self, kernel: "Kernel", block_shape: Tuple[int, int],
                 dtype=np.float64) -> KernelPlan:
        """Fetch (or build and cache) the plan for ``(kernel, block, dtype)``.

        Identity-keyed kernels that differ only in overall scale map to
        the same entry; see the module docstring for the keying rules.
        ``dtype`` is part of the key: a ``float32`` request never
        receives a ``float64`` plan or vice versa (the spectra differ in
        both precision and rounding).
        """
        bx, by = int(block_shape[0]), int(block_shape[1])
        dt = check_dtype(dtype)
        # The kernel shape is part of the key so that an identity whose
        # energy truncation lands on different half-widths across ``h``
        # variants (borderline rounding) gets a fresh entry instead of a
        # silently mis-shaped plan.
        key = (kernel.plan_key, kernel.shape, bx, by, dt.str)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                obs.add("engine.plan_cache.hits")
                self._plans.move_to_end(key)
                return plan
            self._misses += 1
            obs.add("engine.plan_cache.misses")
            with obs.trace("engine.plan.build"):
                plan = _build_plan(kernel, (bx, by), key, dt)
            self._plans[key] = plan
            while len(self._plans) > self._maxsize:
                self._plans.popitem(last=False)
                self._evictions += 1
                obs.add("engine.plan_cache.evictions")
            return plan

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Current counters (thread-safe snapshot)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._plans),
                maxsize=self._maxsize,
            )

    def clear(self) -> None:
        """Drop all plans and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = self._evictions = 0

    def configure(self, maxsize: int) -> None:
        """Change the retention bound, evicting LRU entries if needed."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._plans) > self._maxsize:
                self._plans.popitem(last=False)
                self._evictions += 1
                obs.add("engine.plan_cache.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"KernelPlanCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses}, evictions={s.evictions})"
        )


#: The process-wide plan cache used by the default FFT engine.  Shared
#: across threads (locked); worker processes each hold their own copy
#: and warm it deterministically, so backends stay bit-identical.
plan_cache = KernelPlanCache()
