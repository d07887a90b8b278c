"""Terrain path profiles for propagation studies.

The paper's introduction motivates rough-surface generation by wireless
sensor networks: "studies on propagation characteristics along RRSs are
strongly required".  This subpackage supplies the lightweight propagation
substrate (DESIGN.md S11) used by the examples and the App. P bench — a
path-profile extractor plus classical link models (free space, two-ray,
knife-edge/Deygout diffraction, and the Hata empirical baseline the paper
cites as ref. [7]).

A :class:`PathProfile` is the terrain height sampled along the straight
line between a transmitter and receiver, with antenna heights *above
local ground*.  Profiles are extracted from any
:class:`~repro.core.surface.Surface` — or any
:class:`~repro.core.api.HeightField` the unified generators return,
given a grid — by bilinear interpolation, and carry the source's
provenance forward so a link study can always be traced back to the
spectrum/seed that produced its terrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.grid import Grid2D
from ..core.surface import Surface

__all__ = ["PathProfile", "extract_profile", "bilinear_sample"]


def _as_surface(source: Any, grid: Optional[Grid2D],
                origin: Tuple[float, float]) -> Surface:
    """Normalise a terrain source to a :class:`Surface`.

    Accepts a ``Surface`` directly, or a :class:`HeightField`/bare 2D
    array plus an explicit ``grid`` (generator outputs know their
    provenance but not their physical spacing).
    """
    if isinstance(source, Surface):
        return source
    heights = np.asarray(source, dtype=float)
    if heights.ndim != 2:
        raise ValueError(
            f"terrain source must be a Surface or a 2D height field; "
            f"got ndim={heights.ndim}"
        )
    if grid is None:
        raise ValueError(
            "sampling a HeightField needs grid= (a Grid2D giving the "
            "physical spacing); Surface sources carry their own"
        )
    return Surface(
        heights=heights, grid=grid, origin=origin,
        provenance=dict(getattr(source, "provenance", None) or {}),
    )


def bilinear_sample(surface: Any, px: np.ndarray, py: np.ndarray, *,
                    grid: Optional[Grid2D] = None,
                    origin: Tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Bilinearly interpolated heights at physical coordinates.

    ``surface`` is a :class:`Surface`, or a ``HeightField``/array with
    ``grid=`` supplied.  Coordinates must lie within the surface extent
    (no extrapolation); out-of-range queries raise.
    """
    surface = _as_surface(surface, grid, origin)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    gx = (px - surface.origin[0]) / surface.grid.dx
    gy = (py - surface.origin[1]) / surface.grid.dy
    nx, ny = surface.shape
    if np.any(gx < 0) or np.any(gx > nx - 1) or np.any(gy < 0) or np.any(gy > ny - 1):
        raise ValueError("query points outside the surface extent")
    ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
    iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
    tx = gx - ix
    ty = gy - iy
    h = surface.heights
    return (
        h[ix, iy] * (1 - tx) * (1 - ty)
        + h[ix + 1, iy] * tx * (1 - ty)
        + h[ix, iy + 1] * (1 - tx) * ty
        + h[ix + 1, iy + 1] * tx * ty
    )


@dataclass
class PathProfile:
    """Terrain profile between a transmitter and a receiver.

    Attributes
    ----------
    distances:
        Along-path distances from the transmitter, shape ``(n,)``,
        starting at 0 and ending at the total path length.
    ground:
        Terrain height at each sample.
    tx_height, rx_height:
        Antenna heights *above the local ground* at the two ends.
    """

    distances: np.ndarray
    ground: np.ndarray
    tx_height: float
    rx_height: float
    #: Provenance carried over from the source surface (spectrum, seed,
    #: engine, ...) plus the extraction geometry — empty for hand-built
    #: profiles.
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        g = np.asarray(self.ground, dtype=float)
        if d.ndim != 1 or d.shape != g.shape or d.size < 2:
            raise ValueError("distances and ground must be equal-length 1D, n>=2")
        if np.any(np.diff(d) <= 0):
            raise ValueError("distances must be strictly increasing")
        if self.tx_height <= 0 or self.rx_height <= 0:
            raise ValueError("antenna heights must be positive")
        self.distances = d
        self.ground = g

    @property
    def length(self) -> float:
        """Total path length."""
        return float(self.distances[-1] - self.distances[0])

    @property
    def tx_z(self) -> float:
        """Absolute transmitter antenna height."""
        return float(self.ground[0] + self.tx_height)

    @property
    def rx_z(self) -> float:
        """Absolute receiver antenna height."""
        return float(self.ground[-1] + self.rx_height)

    def line_of_sight(self) -> np.ndarray:
        """Height of the direct Tx-Rx ray above datum at each sample."""
        d = self.distances
        t = (d - d[0]) / (d[-1] - d[0])
        return self.tx_z + t * (self.rx_z - self.tx_z)

    def clearance(self) -> np.ndarray:
        """LoS ray height minus terrain (negative where terrain blocks)."""
        return self.line_of_sight() - self.ground

    def is_line_of_sight(self) -> bool:
        """True when no interior sample obstructs the direct ray."""
        c = self.clearance()
        return bool(np.all(c[1:-1] >= 0.0))


def extract_profile(
    surface: Any,
    start: Tuple[float, float],
    end: Tuple[float, float],
    *,
    tx_height: float,
    rx_height: float,
    n_samples: int = 256,
    grid: Optional[Grid2D] = None,
    origin: Tuple[float, float] = (0.0, 0.0),
) -> PathProfile:
    """Extract the terrain profile along the segment ``start -> end``.

    ``surface`` is a :class:`Surface` or any
    :class:`~repro.core.api.HeightField`/2D array with ``grid=``
    supplied.  Samples by bilinear interpolation at ``n_samples`` evenly
    spaced points (inclusive of both ends); the result's ``provenance``
    carries the source's record plus the extraction geometry.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    surface = _as_surface(surface, grid, origin)
    x0, y0 = start
    x1, y1 = end
    total = float(np.hypot(x1 - x0, y1 - y0))
    if total <= 0:
        raise ValueError("start and end coincide")
    t = np.linspace(0.0, 1.0, n_samples)
    px = x0 + t * (x1 - x0)
    py = y0 + t * (y1 - y0)
    ground = bilinear_sample(surface, px, py)
    provenance = dict(surface.provenance or {})
    provenance["path"] = {
        "start": [float(x0), float(y0)], "end": [float(x1), float(y1)],
        "n_samples": int(n_samples),
    }
    return PathProfile(
        distances=t * total,
        ground=ground,
        tx_height=tx_height,
        rx_height=rx_height,
        provenance=provenance,
    )
