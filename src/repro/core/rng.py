"""Gaussian random number generation for RRS synthesis.

Section 2.3 of the paper builds its random surfaces from standard normal
deviates produced by the Box-Muller transform over C ``rand()`` uniforms
(eqn 18):

.. math::

    u_1 = \\mathrm{rand}(2\\pi),\\quad u_2 = \\mathrm{rand}(1),\\quad
    X = \\sqrt{-2 \\log u_2}\\, \\cos u_1 .

This module provides:

* :func:`box_muller` — the exact transform of eqn (18) over caller-chosen
  uniforms (property-tested for normality);
* :class:`Lcg` — a classic linear congruential ``rand()`` in the style of
  the C standard library the paper cites [Johnsonbaugh & Kalin], for
  recipe-faithful reproduction;
* :func:`standard_normal_field` — the production path: `numpy` PCG64
  Generator normals (statistically identical, orders of magnitude
  faster);
* :class:`BlockNoise` — deterministic, location-addressable noise: the
  value of the noise field at any global index is a pure function of
  ``(seed, block coordinates)``.  This is what makes streaming strips and
  parallel tiles *exactly* reproduce the one-shot surface (paper
  advantage (a), DESIGN.md S3/S9/S10): any worker can materialise any
  window of the infinite noise plane without communication.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .. import obs

__all__ = [
    "box_muller",
    "Lcg",
    "standard_normal_field",
    "normal_pair_from_uniform",
    "BlockNoise",
    "as_generator",
    "BLOCK_CACHE_BYTES",
]

#: Byte bound on one :class:`BlockNoise` plane's block cache.  The cache
#: holds the blocks a read plan still needs and those of each reading
#: thread's most recent window, but never more full float64 blocks than
#: fit in this many bytes.
BLOCK_CACHE_BYTES = 64 * 2**20

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer, a ``SeedSequence``, or
    an existing ``Generator`` (returned as-is).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def normal_pair_from_uniform(u1: np.ndarray, u2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full Box-Muller: two independent normals from two uniforms.

    ``u1`` is uniform on ``[0, 2*pi)`` (the angle) and ``u2`` uniform on
    ``(0, 1]`` (the radius driver), exactly as in paper eqn (18); the
    second output uses the sine branch.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if np.any(u2 <= 0.0) or np.any(u2 > 1.0):
        raise ValueError("u2 must lie in (0, 1]")
    r = np.sqrt(-2.0 * np.log(u2))
    return r * np.cos(u1), r * np.sin(u1)


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The cosine-branch Box-Muller transform of paper eqn (18)."""
    return normal_pair_from_uniform(u1, u2)[0]


@dataclass
class Lcg:
    """Minimal linear congruential uniform generator (C-``rand()`` style).

    Implements the ubiquitous ANSI-C parameters
    ``state = (1103515245*state + 12345) mod 2**31`` as printed in the
    reference the paper cites for ``rand(a)``.  Provided for
    recipe-faithful reproduction and for demonstrating *why* the library
    defaults to PCG64: the LCG's low-order bits fail even casual
    independence tests (see tests/test_rng.py).

    Not suitable for production surface generation; use
    :func:`standard_normal_field`.
    """

    state: int = 1

    _A = 1103515245
    _C = 12345
    _M = 2**31

    def rand(self, a: float = 1.0, size: Optional[int] = None) -> Union[float, np.ndarray]:
        """Uniform deviate(s) on ``[0, a]`` — the paper's ``rand(a)``."""
        if size is None:
            self.state = (self._A * self.state + self._C) % self._M
            return a * self.state / (self._M - 1)
        out = np.empty(size, dtype=float)
        s = self.state
        for i in range(size):
            s = (self._A * s + self._C) % self._M
            out[i] = s
        self.state = s
        out *= a / (self._M - 1)
        return out

    def normal(self, size: Optional[int] = None) -> Union[float, np.ndarray]:
        """Standard normal deviate(s) via paper eqn (18).

        ``u2 = 0`` (a possible LCG output) is nudged to the smallest
        positive uniform to keep the log finite.
        """
        n = 1 if size is None else size
        u1 = np.atleast_1d(np.asarray(self.rand(2.0 * np.pi, n)))
        u2 = np.atleast_1d(np.asarray(self.rand(1.0, n)))
        np.clip(u2, 1.0 / self._M, 1.0, out=u2)
        x = box_muller(u1, u2)
        return float(x[0]) if size is None else x


def standard_normal_field(shape: Tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """I.i.d. ``N(0,1)`` field of the requested shape (production path).

    Statistically equivalent to looping paper eqn (18); uses numpy's
    ziggurat sampler on PCG64 for speed (guides: vectorise, avoid Python
    loops on grids).
    """
    return as_generator(seed).standard_normal(shape)


class BlockNoise:
    """Deterministic, location-addressable white-noise plane.

    The infinite integer plane is partitioned into ``block x block``
    squares; the noise in the square with block coordinates ``(bx, by)``
    is drawn from a Philox generator keyed by ``(seed, bx, by)``.  Thus:

    * any window of the plane can be materialised independently by any
      process (no noise needs to be shipped between workers);
    * overlapping windows agree exactly on their overlap — the property
      that makes tiled/streamed convolution *bit-identical* to the
      one-shot computation.

    Negative block coordinates are supported (the plane is genuinely
    unbounded), enabling convolution halos that extend left/below the
    origin.

    Each plane caches the blocks it drew, capped at
    :data:`BLOCK_CACHE_BYTES`.  A reader that knows its windows ahead
    (the serial and thread tile loops, the serve batcher) registers them
    with :meth:`plan_reads`: each block of that plan stays cached until
    the last planned window that reads it, and is evicted right after
    its copy in that read, so a plan draws each of its blocks once.
    Blocks no plan needs are kept least recently used, sized to the
    block count of the most recent window (with several threads
    reading, of each live thread's most recent window): row-major tiles
    overlap their predecessor's halo, so the next tile reuses the blocks
    they share instead of redrawing them.  Values never depend on the
    cache: every block is a pure function of its key.  Cached blocks
    are read-only; :meth:`window` always returns a fresh array.  The
    cache belongs to this instance: a pickled plane carries only
    ``(seed, block)``, and threads may share one plane.  A block two
    threads miss at once is drawn once: the second thread waits for the
    first thread's draw (and draws the block itself if that draw
    fails).  :meth:`prefetch` fills the cache for a window ahead of the
    thread that will read it.

    Parameters
    ----------
    seed:
        Non-negative integer root key.
    block:
        Block edge length in samples (default 256).  Must be positive.
        The choice trades per-block generator setup cost against wasted
        samples at window edges; it does not affect values *within* a
        fixed (seed, block) configuration.

    Notes
    -----
    Philox is counter-based, so keying it per block is sound (streams for
    distinct keys are independent by construction); this mirrors how
    GPU/MPI codes key counter-based RNGs by lattice coordinates.
    """

    def __init__(self, seed: int, block: int = 256):
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.block = int(block)
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        # blocks some thread is drawing right now, set when the draw ends
        self._drawing: "dict[Tuple[int, int], threading.Event]" = {}
        self._max_blocks = max(1, BLOCK_CACHE_BYTES // (8 * self.block**2))
        # planned reads still to come per block of the current read
        # plan; 0 once a planned block's last read is done
        self._reads_left: "Dict[Tuple[int, int], int]" = {}
        # block count of each live thread's latest window on this plane
        self._readers: "weakref.WeakKeyDictionary[threading.Thread, int]" = (
            weakref.WeakKeyDictionary())

    def __reduce__(self):
        return (type(self), (self.seed, self.block))

    # -- internal ------------------------------------------------------
    def _block_values(self, bx: int, by: int) -> np.ndarray:
        """The ``(block, block)`` noise values of block ``(bx, by)``."""
        # Zigzag-encode signed block coords into the non-negative key words
        # Philox expects; distinct (bx, by) always map to distinct keys.
        kx = 2 * bx if bx >= 0 else -2 * bx - 1
        ky = 2 * by if by >= 0 else -2 * by - 1
        ss = np.random.SeedSequence(entropy=[self.seed, kx, ky])
        gen = np.random.Generator(np.random.Philox(seed=ss))
        return gen.standard_normal((self.block, self.block))

    def _cached_block(self, bx: int, by: int, ahead: bool = False
                      ) -> Tuple[Optional[np.ndarray], bool]:
        """Block ``(bx, by)`` and whether this call drew it.

        Draws happen outside the lock.  A block another thread is
        drawing is waited for, not drawn again; if that draw fails, the
        waiting thread draws the block itself.  A read ``ahead`` of its
        reader skips (returns ``None`` for) a planned block whose last
        planned read is already done.
        """
        key = (bx, by)
        while True:
            with self._lock:
                vals = self._cache.get(key)
                if vals is not None:
                    self._cache.move_to_end(key)
                    return vals, False
                if ahead and self._reads_left.get(key) == 0:
                    return None, False
                drawing = self._drawing.get(key)
                if drawing is None:
                    drawing = self._drawing[key] = threading.Event()
                    break
            drawing.wait()
        try:
            vals = self._block_values(bx, by)
            vals.flags.writeable = False
        finally:
            with self._lock:
                del self._drawing[key]
                if vals is not None:
                    self._cache[key] = vals
                    while len(self._cache) > self._max_blocks:
                        self._cache.popitem(last=False)
            drawing.set()
        return vals, True

    def _trim(self, capacity: int) -> None:
        """Evict least-recently-used blocks no read plan still needs
        until at most ``capacity`` of them remain (lock held)."""
        spare = [key for key in self._cache if not self._reads_left.get(key)]
        for key in spare[:max(0, len(spare) - capacity)]:
            del self._cache[key]

    def _retire(self, bx: int, by: int) -> None:
        """Count one read of block ``(bx, by)``; evict it if it is
        planned and that was its last planned read (lock held)."""
        key = (bx, by)
        left = self._reads_left.get(key)
        if left is not None:
            self._reads_left[key] = left = max(left - 1, 0)
            if left == 0:
                self._cache.pop(key, None)

    def _block_ranges(self, x0: int, y0: int, nx: int, ny: int
                      ) -> Tuple[range, range]:
        """Block coordinates covering a non-empty window."""
        b = self.block
        return (range(x0 // b, (x0 + nx - 1) // b + 1),
                range(y0 // b, (y0 + ny - 1) // b + 1))

    def _blocks(self, x0: int, y0: int, nx: int, ny: int
                ) -> Tuple[range, range]:
        """:meth:`_block_ranges`, recording the window's block count as
        the calling thread's share of the cache."""
        bxs, bys = self._block_ranges(x0, y0, nx, ny)
        with self._lock:
            self._readers[threading.current_thread()] = len(bxs) * len(bys)
        return bxs, bys

    # -- public --------------------------------------------------------
    def window(self, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
        """Materialise the noise window ``[x0, x0+nx) x [y0, y0+ny)``.

        Coordinates are global sample indices and may be negative.
        Returns a fresh C-contiguous ``(nx, ny)`` float array.
        """
        if nx < 0 or ny < 0:
            raise ValueError("window dimensions must be >= 0")
        out = np.empty((nx, ny), dtype=float)
        if nx == 0 or ny == 0:
            return out
        b = self.block
        bxs, bys = self._blocks(x0, y0, nx, ny)
        drawn = reused = 0
        with obs.trace("rng.noise"):
            for bx in bxs:
                gx0 = max(x0, bx * b)
                gx1 = min(x0 + nx, (bx + 1) * b)
                for by in bys:
                    gy0 = max(y0, by * b)
                    gy1 = min(y0 + ny, (by + 1) * b)
                    vals, fresh = self._cached_block(bx, by)
                    if fresh:
                        drawn += 1
                    else:
                        reused += 1
                    out[gx0 - x0 : gx1 - x0, gy0 - y0 : gy1 - y0] = vals[
                        gx0 - bx * b : gx1 - bx * b, gy0 - by * b : gy1 - by * b
                    ]
                    # free a planned block right after its last read,
                    # not after the whole window (dropping this
                    # reference too, so its memory goes with it)
                    del vals
                    if self._reads_left:
                        with self._lock:
                            self._retire(bx, by)
            # Of the unplanned blocks, keep every reading thread's
            # latest window: the next tile, on whichever thread, shares
            # blocks with its neighbours' windows.
            with self._lock:
                self._trim(sum(self._readers.values()))
        obs.add("rng.blocks_drawn", drawn)
        obs.add("rng.blocks_reused", reused)
        return out

    def prefetch(self, x0: int, y0: int, nx: int, ny: int) -> None:
        """Draw the missing blocks of window ``[x0, x0+nx) x [y0, y0+ny)``
        into the cache, without building the window.

        Meant for a helper thread running one window ahead of the thread
        that will :meth:`window` it: that thread then finds the blocks
        cached, or waits for the one still being drawn.  The calling
        thread counts as a cache reader of this window, so another
        thread's trim keeps the blocks it just drew.  It trims nothing
        itself: the window the reader is about to read may be older than
        the blocks drawn here, and only the reader's own trim, after that
        read, may evict it.  A planned block whose last planned read is
        already done is not drawn again.  Values are those of
        :meth:`window`; only who draws a block, and when, changes.
        """
        if nx < 0 or ny < 0:
            raise ValueError("window dimensions must be >= 0")
        if nx == 0 or ny == 0:
            return
        bxs, bys = self._blocks(x0, y0, nx, ny)
        drawn = 0
        try:
            with obs.trace("rng.prefetch"):
                for bx in bxs:
                    for by in bys:
                        drawn += self._cached_block(bx, by, ahead=True)[1]
        finally:
            # counted even when a draw fails part way: every block drawn
            # shows up in rng.blocks_drawn
            obs.add("rng.blocks_drawn", drawn)
            obs.add("rng.blocks_prefetched", drawn)

    @contextlib.contextmanager
    def plan_reads(self, windows: Iterable[Tuple[int, int, int, int]]
                   ) -> Iterator[None]:
        """Register the windows ``(x0, y0, nx, ny)`` that will be read,
        in any order, while the ``with`` block runs.

        Each block of the plan stays cached until the last planned read
        of it and is evicted right after, so the plan draws each of its
        blocks once (within :data:`BLOCK_CACHE_BYTES`).  Every
        :meth:`window` read counts against the plan, whichever window it
        is; a block read more often than planned is drawn again, never
        with other values.  Blocks outside the plan keep the
        least-recently-used trim.  A later plan replaces this one;
        leaving the block drops the plan, and the blocks it still held
        fall back to that trim.
        """
        reads_left: Dict[Tuple[int, int], int] = {}
        for x0, y0, nx, ny in windows:
            if nx > 0 and ny > 0:
                for key in itertools.product(
                        *self._block_ranges(x0, y0, nx, ny)):
                    reads_left[key] = reads_left.get(key, 0) + 1
        with self._lock:
            self._reads_left = reads_left
        try:
            yield
        finally:
            with self._lock:
                if self._reads_left is reads_left:
                    self._reads_left = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockNoise(seed={self.seed}, block={self.block})"
