"""Surface persistence and rendering: NPZ, ESRI ASCII grid, PGM/PPM."""

from .asciigrid import load_ascii_grid, save_ascii_grid
from .atomic import atomic_write_bytes, atomic_write_json
from .npzio import load_surface, save_surface
from .objmesh import save_obj
from .store import StoreCorrupt, StoreWriter, SurfaceStore
from .pgm import (
    ascii_preview,
    render_gray,
    render_hillshade,
    render_terrain,
    write_pgm,
    write_ppm,
)

__all__ = [
    "save_surface", "load_surface", "save_obj",
    "save_ascii_grid", "load_ascii_grid",
    "atomic_write_bytes", "atomic_write_json",
    "SurfaceStore", "StoreWriter", "StoreCorrupt",
    "write_pgm", "write_ppm", "render_gray", "render_hillshade",
    "render_terrain", "ascii_preview",
]
