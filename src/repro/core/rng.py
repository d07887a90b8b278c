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

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
#: holds the blocks of each reading thread's most recent window, but
#: never more full float64 blocks than fit in this many bytes.
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

    Each plane keeps a small least-recently-used cache of the blocks it
    drew, sized to the block count of the most recent window (with
    several threads reading, of each live thread's most recent window)
    and capped at :data:`BLOCK_CACHE_BYTES`.  Row-major tiles
    overlap their predecessor's halo, so the next tile reuses the blocks
    they share instead of redrawing them.  Values never depend on the
    cache: every block is a pure function of its key.  Cached blocks
    are read-only; :meth:`window` always returns a fresh array.  The
    cache belongs to this instance: a pickled plane carries only
    ``(seed, block)``, and threads may share one plane (a block two
    threads miss at once is drawn twice, harmlessly).

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
        self._max_blocks = max(1, BLOCK_CACHE_BYTES // (8 * self.block**2))
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

    def _cached_block(self, bx: int, by: int) -> Tuple[np.ndarray, bool]:
        """Block ``(bx, by)`` and whether it had to be drawn.  Draws
        happen outside the lock."""
        key = (bx, by)
        with self._lock:
            vals = self._cache.get(key)
            if vals is not None:
                self._cache.move_to_end(key)
                return vals, False
        vals = self._block_values(bx, by)
        vals.flags.writeable = False
        with self._lock:
            self._cache[key] = vals
            self._trim(self._max_blocks)
        return vals, True

    def _trim(self, capacity: int) -> None:
        """Evict least-recently-used blocks down to ``capacity`` (lock held)."""
        while len(self._cache) > capacity:
            self._cache.popitem(last=False)

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
        bx0 = x0 // b
        bx1 = (x0 + nx - 1) // b
        by0 = y0 // b
        by1 = (y0 + ny - 1) // b
        drawn = reused = 0
        with self._lock:
            self._readers[threading.current_thread()] = (
                (bx1 - bx0 + 1) * (by1 - by0 + 1))
        with obs.trace("rng.noise"):
            for bx in range(bx0, bx1 + 1):
                gx0 = max(x0, bx * b)
                gx1 = min(x0 + nx, (bx + 1) * b)
                for by in range(by0, by1 + 1):
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
            # Keep every reading thread's latest window: the next tile, on
            # whichever thread, shares blocks with its neighbours' windows.
            with self._lock:
                self._trim(sum(self._readers.values()))
        obs.add("rng.blocks_drawn", drawn)
        obs.add("rng.blocks_reused", reused)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockNoise(seed={self.seed}, block={self.block})"
