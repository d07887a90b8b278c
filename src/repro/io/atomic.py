"""Atomic file writes for durable on-disk state.

Checkpoints must never be half-written: a crash *during* a checkpoint
write would otherwise destroy the very state the checkpoint exists to
protect.  Both helpers write to a temporary sibling in the destination
directory and ``os.replace`` it over the target — atomic on POSIX and
Windows — so readers only ever observe the old or the new complete file.

Durability note: fsyncing the *file* makes its contents durable, but on
POSIX the rename itself lives in the containing directory, which has its
own durability.  After ``os.replace`` we therefore fsync the directory
too; without it a power loss just after the rename can resurrect the old
file (or no file), which for the coordinator's bitmap/manifest would
silently roll progress back past chunks already handed out as done.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

__all__ = [
    "atomic_write_json",
    "atomic_write_bytes",
    "fsync_directory",
]

PathLike = Union[str, Path]


def fsync_directory(path: PathLike) -> None:
    """Make a directory's entries (renames, creates) durable on POSIX.

    No-op on platforms where directories cannot be opened for fsync
    (Windows), and tolerant of filesystems that reject directory fsync —
    durability degrades gracefully to the pre-fsync behaviour there.
    """
    if os.name != "posix":
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # e.g. some network/virtual filesystems refuse EINVAL
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp sibling + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def atomic_write_json(path: PathLike, obj: object) -> None:
    """Serialise ``obj`` as indented JSON and write it atomically."""
    atomic_write_bytes(
        path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    )
