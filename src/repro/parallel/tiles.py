"""Tile decomposition of large surface computations.

The convolution method's locality (eqn 36: each output sample depends
only on noise inside the kernel footprint) makes domain decomposition
embarrassingly parallel *given* a location-addressable noise plane
(:class:`repro.core.rng.BlockNoise`): every tile is an independent
windowed generation whose implicit halo is read directly from the shared
noise function — the functional analogue of an MPI halo exchange, with
the exchange replaced by recomputation from the counter-based RNG
(DESIGN.md S10; mpi4py is substituted per the design's substitution
table).

A :class:`TilePlan` enumerates the output windows; executors in
:mod:`repro.parallel.executor` realise them serially, with threads, or
with processes, and all three produce bit-identical surfaces (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["Tile", "TilePlan", "strip_plan"]


@dataclass(frozen=True)
class Tile:
    """One output window ``[x0, x0+nx) x [y0, y0+ny)`` in global samples."""

    x0: int
    y0: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"tile must be non-empty, got {self}")

    @property
    def x1(self) -> int:
        return self.x0 + self.nx

    @property
    def y1(self) -> int:
        return self.y0 + self.ny

    @property
    def n_samples(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class TilePlan:
    """Decomposition of a ``total_nx x total_ny`` output into tiles.

    Parameters
    ----------
    total_nx, total_ny:
        Output extent in samples; the output's global origin is
        ``(origin_x, origin_y)`` (samples, may be negative).
    tile_nx, tile_ny:
        Nominal tile extent; edge tiles are clipped.

    Notes
    -----
    Tiles partition the output exactly (no overlap, no gaps) — the
    *noise* windows the tiles read do overlap by the kernel support, but
    that is handled inside windowed generation and never materialised
    globally.
    """

    total_nx: int
    total_ny: int
    tile_nx: int
    tile_ny: int
    origin_x: int = 0
    origin_y: int = 0

    def __post_init__(self) -> None:
        if self.total_nx <= 0 or self.total_ny <= 0:
            raise ValueError("total extent must be positive")
        if self.tile_nx <= 0 or self.tile_ny <= 0:
            raise ValueError("tile extent must be positive")

    @property
    def n_tiles(self) -> Tuple[int, int]:
        """Tile counts per axis."""
        cx = -(-self.total_nx // self.tile_nx)
        cy = -(-self.total_ny // self.tile_ny)
        return (cx, cy)

    def __len__(self) -> int:
        cx, cy = self.n_tiles
        return cx * cy

    def tiles(self) -> List[Tile]:
        """All tiles in row-major order."""
        return list(iter(self))

    def __iter__(self) -> Iterator[Tile]:
        for gx in range(self.origin_x, self.origin_x + self.total_nx, self.tile_nx):
            nx = min(self.tile_nx, self.origin_x + self.total_nx - gx)
            for gy in range(
                self.origin_y, self.origin_y + self.total_ny, self.tile_ny
            ):
                ny = min(self.tile_ny, self.origin_y + self.total_ny - gy)
                yield Tile(x0=gx, y0=gy, nx=nx, ny=ny)

    def shards(self, n_shards: int) -> List[List[int]]:
        """Partition the row-major tile indices into ``n_shards`` shards.

        Shards are contiguous index ranges balanced to within one tile —
        the static decomposition the distributed scheduler
        (:mod:`repro.dist`) uses for worker affinity: worker ``k``
        preferentially leases from shard ``k`` and steals from the
        fullest other shard when its own runs dry.  Contiguity keeps a
        worker's tiles row-adjacent, which maximises kernel-plan and
        page-cache reuse inside that worker.

        ``n_shards`` may exceed the tile count; the surplus shards are
        empty (a degenerate but valid decomposition — more hosts than
        tiles).  The shards always cover every index exactly once.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        total = len(self)
        base, extra = divmod(total, n_shards)
        out: List[List[int]] = []
        start = 0
        for i in range(n_shards):
            size = base + (1 if i < extra else 0)
            out.append(list(range(start, start + size)))
            start += size
        return out

    def halo_samples(self, kernel_shape: Tuple[int, int]) -> Tuple[int, int]:
        """Noise-read accounting for this plan under ``kernel_shape``.

        Each tile reads a noise window inflated by ``kernel - 1`` per
        axis (the halo).  Returns ``(total_read, output)`` — the total
        noise samples read across all tiles and the output sample count —
        so executors can report halo cost in provenance without
        re-walking the plan.
        """
        kx, ky = kernel_shape
        if kx <= 0 or ky <= 0:
            raise ValueError(f"kernel shape must be positive, got {kernel_shape}")
        read = 0
        for t in self:
            read += (t.nx + kx - 1) * (t.ny + ky - 1)
        return read, self.total_nx * self.total_ny

    def halo_overhead(self, kernel_shape: Tuple[int, int]) -> float:
        """Fraction of redundant noise reads caused by halos.

        ``(total noise samples read) / (output samples) - 1`` from
        :meth:`halo_samples`.  Guides the tile-size choice: halo cost
        ~ K/tile per axis (bench A2 sweeps this).
        """
        read, output = self.halo_samples(kernel_shape)
        return read / output - 1.0


def strip_plan(total_nx: int, width_ny: int, strip_nx: int,
               x0: int = 0, y0: int = 0) -> TilePlan:
    """The plan of full-width strips along x: ``strip_nx x width_ny``
    tiles from ``(x0, y0)``, the last one clipped to ``total_nx``.

    The one definition of the strip windows: both
    :func:`repro.parallel.streaming.stream_strips` and
    :func:`repro.jobs.run_strips` walk this plan's tiles.
    """
    return TilePlan(
        total_nx=total_nx, total_ny=width_ny,
        tile_nx=strip_nx, tile_ny=width_ny,
        origin_x=x0, origin_y=y0,
    )
