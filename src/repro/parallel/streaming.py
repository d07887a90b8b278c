"""Streaming (successive) generation of arbitrarily long surfaces.

Paper Section 2.4, advantage (a): "once the weighting array is computed,
we can generate any size of continuous RRSs ... by successive
computations".  This module makes that operational: a
:class:`StripStream` walks along the x axis emitting fixed-width strips
of an unbounded surface.  Because each strip is a windowed convolution
over the shared deterministic noise plane, consecutive strips join
*seamlessly* — the assembled strips equal the one-shot windowed surface
up to FFT rounding (~1e-15 relative; tested), and memory stays O(strip),
independent of the total length.  Strips run through the executor's
serial tile loop, so each strip's noise is drawn ahead on its helper
thread, exactly as for tiles.

Typical uses: kilometre-scale propagation transects sampled at
sub-metre resolution (the sensor-network scenario of the paper's
introduction), or out-of-core export of terrain too large for RAM.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

import numpy as np

from ..core.rng import BlockNoise
from ..core.surface import Surface
from .executor import WindowedGenerator, _serial_tiles, _slim_provenance
from .tiles import Tile, strip_plan

__all__ = ["StripStream", "stream_strips", "assemble_strips"]


def _strips(generator: WindowedGenerator, noise: BlockNoise,
            tiles: Iterable[Tile], first_index: int) -> Iterator[Surface]:
    """Run strip windows ``tiles`` through the executor's serial loop and
    wrap each as a :class:`Surface` numbered from ``first_index``.

    Each strip's provenance carries everything the checkpoint layer
    needs to re-derive it — its global index, exact window, and the
    noise plane's seed *and* block size.
    """
    engine = getattr(generator, "engine", None)
    results = _serial_tiles(generator, noise, tiles)
    for index, (tile, heights, tile_prov, _dt) in enumerate(results,
                                                            first_index):
        provenance = {
            "method": "strip-stream",
            "strip_index": index,
            "window": [tile.x0, tile.y0, tile.nx, tile.ny],
            "noise_seed": noise.seed,
            "noise_block": getattr(noise, "block", None),
        }
        if engine is not None:
            provenance["engine"] = engine
        # active-set / batched-FFT record of this strip's window
        provenance.update(_slim_provenance(tile_prov) or {})
        grid = generator.grid.with_shape(tile.nx, tile.ny)  # type: ignore[attr-defined]
        yield Surface(
            heights=heights,
            grid=grid,
            origin=(tile.x0 * grid.dx, tile.y0 * grid.dy),
            provenance=provenance,
        )


class StripStream:
    """Iterator of consecutive surface strips along x.

    Strips come from the executor's serial tile loop, so the next
    strip's noise is drawn on a helper thread while the current one
    convolves.  Dropping the stream stops the helper.

    Parameters
    ----------
    generator:
        Windowed generator (homogeneous or inhomogeneous).
    noise:
        Deterministic noise plane; fixes the surface.
    width_ny:
        Strip extent in y (constant across strips).
    strip_nx:
        Strip extent in x per emission.
    x0, y0:
        Global sample index of the first strip's corner.
    n_strips:
        Number of strips to emit, or ``None`` for an endless stream
        (terminate by breaking out of the loop).
    start_index:
        Strip index to start at (default 0): the stream behaves as if
        the first ``start_index`` strips had already been emitted — the
        resume hook of :mod:`repro.jobs`.  ``emitted`` still counts
        only this iterator's own emissions.

    Examples
    --------
    >>> stream = StripStream(gen, BlockNoise(seed=1), width_ny=256,
    ...                      strip_nx=128, n_strips=8)      # doctest: +SKIP
    >>> for strip in stream:                                 # doctest: +SKIP
    ...     process(strip.heights)
    """

    def __init__(
        self,
        generator: WindowedGenerator,
        noise: BlockNoise,
        width_ny: int,
        strip_nx: int,
        x0: int = 0,
        y0: int = 0,
        n_strips: Optional[int] = None,
        start_index: int = 0,
    ) -> None:
        if width_ny <= 0 or strip_nx <= 0:
            raise ValueError("strip dimensions must be positive")
        if n_strips is not None and n_strips < 0:
            raise ValueError("n_strips must be >= 0")
        if start_index < 0:
            raise ValueError("start_index must be >= 0")
        self.generator = generator
        self.noise = noise
        self.width_ny = width_ny
        self.strip_nx = strip_nx
        self.x0 = x0
        self.y0 = y0
        self.n_strips = n_strips
        self.start_index = start_index
        self._emitted = 0
        self._strips: Optional[Iterator[Surface]] = None

    @property
    def emitted(self) -> int:
        """Number of strips successfully produced so far.

        A strip that raises mid-iteration is not counted: the next
        ``next()`` call re-attempts it instead of skipping it.
        """
        return self._emitted

    @property
    def next_index(self) -> int:
        """Global index of the strip the next ``next()`` will produce."""
        return self.start_index + self._emitted

    def _open(self) -> Iterator[Surface]:
        """A strip iterator starting at :attr:`next_index`.

        Built from locals only, so the iterator (and its helper thread)
        holds no reference back to the stream and dies with it.
        """
        first = self.next_index
        if self.n_strips is None:
            indices = itertools.count(first)
        else:
            indices = range(first, self.start_index + self.n_strips)
        x0, y0, nx, ny = self.x0, self.y0, self.strip_nx, self.width_ny
        tiles = (Tile(x0=x0 + i * nx, y0=y0, nx=nx, ny=ny) for i in indices)
        return _strips(self.generator, self.noise, tiles, first)

    def __iter__(self) -> Iterator[Surface]:
        return self

    def __next__(self) -> Surface:
        if self._strips is None:
            self._strips = self._open()
        try:
            surface = next(self._strips)
        except BaseException:
            # The loop is finished, or died with this strip: drop it,
            # and start a new one at next_index on the next call.
            self._strips = None
            raise
        self._emitted += 1
        return surface


def stream_strips(
    generator: WindowedGenerator,
    noise: BlockNoise,
    total_nx: int,
    width_ny: int,
    strip_nx: int,
    x0: int = 0,
    y0: int = 0,
) -> Iterator[Surface]:
    """Finite strip stream covering ``total_nx`` samples along x: the
    tiles of :func:`~repro.parallel.tiles.strip_plan`, whose last strip
    is clipped so the strips exactly tile the requested extent.
    """
    plan = strip_plan(total_nx, width_ny, strip_nx, x0, y0)
    yield from _strips(generator, noise, plan.tiles(), 0)


def assemble_strips(strips: Iterator[Surface]) -> Surface:
    """Concatenate a finite strip stream back into one surface.

    Verifies strips are contiguous along x and share y extent/spacing.
    (Mostly for tests and small cases — the point of streaming is *not*
    to assemble.)
    """
    pieces = list(strips)
    if not pieces:
        raise ValueError("no strips to assemble")
    first = pieces[0]
    dy = first.grid.dy
    dx = first.grid.dx
    y_org = first.origin[1]
    ny = first.shape[1]
    expected_x = first.origin[0]
    arrays = []
    for s in pieces:
        if s.shape[1] != ny or abs(s.origin[1] - y_org) > 1e-9:
            raise ValueError("strips do not share the y window")
        if abs(s.grid.dx - dx) > 1e-12 or abs(s.grid.dy - dy) > 1e-12:
            raise ValueError("strips do not share sample spacing")
        if abs(s.origin[0] - expected_x) > 1e-9:
            raise ValueError(
                f"strips not contiguous: expected x origin {expected_x}, "
                f"got {s.origin[0]}"
            )
        arrays.append(s.heights)
        expected_x += s.shape[0] * dx
    heights = np.concatenate(arrays, axis=0)
    grid = first.grid.with_shape(heights.shape[0], ny)
    return Surface(
        heights=heights,
        grid=grid,
        origin=first.origin,
        provenance={"method": "strip-assembled", "strips": len(pieces)},
    )
