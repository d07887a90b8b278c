"""Parallel and out-of-core generation: tile decomposition, execution
backends, and streaming strips over the unbounded noise plane."""

from .executor import (
    FailureBudgetExceeded,
    PoolRespawnLimit,
    TileFailedError,
    WindowedGenerator,
    default_workers,
    generate_tiled,
)
from .streaming import StripStream, assemble_strips, stream_strips
from .tiles import Tile, TilePlan, strip_plan

__all__ = [
    "Tile",
    "TilePlan",
    "strip_plan",
    "generate_tiled",
    "default_workers",
    "WindowedGenerator",
    "TileFailedError",
    "FailureBudgetExceeded",
    "PoolRespawnLimit",
    "StripStream",
    "stream_strips",
    "assemble_strips",
]
