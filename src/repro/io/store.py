"""Out-of-core surface store: a chunked, disk-backed output sink.

The paper's headline advantage for the convolution method is that
surfaces of arbitrary extent can be produced *by successive computation*
(Section 2.4) — synthesis cost should scale with the window being
computed, not with the whole field.  The tiled executor and
:mod:`repro.jobs` already compute piecewise; this module makes the
*output* piecewise too, so the full ``(nx, ny)`` float64 array never has
to exist in RAM.

A store is a directory holding three files:

``heights.npy``
    A standard NumPy array file (little-endian float64, C order)
    created sparse with ``numpy.lib.format.open_memmap`` — any NumPy
    stack reads the result with ``np.load(path, mmap_mode="r")``, no
    custom reader required.
``chunks.npy``
    Boolean completion bitmap over the row-major chunk grid, written
    atomically (:mod:`repro.io.atomic`).  A chunk is marked only
    *after* its heights are on disk, so the bitmap never overcounts —
    the resume contract of :mod:`repro.jobs`.
``manifest.json``
    Geometry (shape, chunk shape, sample spacing, origin), format
    version and progress, written atomically.  Torn or inconsistent
    files raise :class:`StoreCorrupt` at :meth:`SurfaceStore.open`
    rather than ever yielding garbage heights.

Why writes are syscalls, not memmap stores: dirty pages of a writable
``mmap`` are charged to the writing process's RSS until the kernel
gets around to cleaning them, which defeats the point of an
out-of-core sink.  :meth:`SurfaceStore.write_window` therefore writes
through ordinary ``seek``/``write`` on the underlying file — the data
lands in the page cache, which is *not* part of process RSS — and
reads go through a read-only memmap.  A 16384² (2 GiB) surface
generates with peak RSS well under the output size (tested).

Async writeback: :class:`StoreWriter` runs the writes on a background
thread behind a bounded queue (double-buffered by default), so tile
compute and disk I/O overlap; a full queue applies backpressure to the
producer.  Queue depth, flush latency and bytes written are recorded
via :mod:`repro.obs` (``store.*`` metrics).

The chunk grid mirrors :class:`repro.parallel.tiles.TilePlan` exactly
(row-major, edge chunks clipped), so for a matching plan the tile index
*is* the chunk index — :func:`repro.parallel.executor.generate_tiled`
accepts a store as its ``out=`` target and :mod:`repro.jobs` resumes
straight off the bitmap.
"""

from __future__ import annotations

import io as _io
import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..core.surface import Surface
from .atomic import atomic_write_bytes, atomic_write_json

__all__ = [
    "SurfaceStore",
    "StoreWriter",
    "StoreCorrupt",
    "FORMAT_VERSION",
]

FORMAT_VERSION = "repro.store/v1"
MANIFEST_NAME = "manifest.json"
HEIGHTS_NAME = "heights.npy"
BITMAP_NAME = "chunks.npy"

#: On-disk element type; fixed so files are portable across machines.
_DTYPE = np.dtype("<f8")

PathLike = Union[str, Path]


class StoreCorrupt(RuntimeError):
    """The store's on-disk state is torn or inconsistent.

    Raised by :meth:`SurfaceStore.open` for unreadable/truncated
    manifests, format mismatches, missing files, or geometry that
    disagrees between manifest, bitmap and heights header — never
    silently returning garbage heights.
    """


def _npy_header(path: Path) -> Tuple[int, Tuple[int, ...], np.dtype, bool]:
    """Parse an ``.npy`` header: ``(data_offset, shape, dtype, fortran)``."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:  # pragma: no cover - numpy only emits 1.0/2.0
            raise StoreCorrupt(f"unsupported npy version {version} in {path}")
        return fh.tell(), shape, dtype, fortran


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = _io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _pwrite_all(fd: int, data: memoryview, offset: int) -> None:
    """``os.pwrite`` the whole buffer, looping over short writes."""
    while data:
        n = os.pwrite(fd, data, offset)
        data = data[n:]
        offset += n


class SurfaceStore:
    """A chunked, memmap-backed on-disk height field.

    Create with :meth:`create` (fresh directory) or :meth:`open`
    (existing store); write with :meth:`write_chunk` /
    :meth:`write_window` (or asynchronously through :meth:`writer`);
    read with :meth:`heights` (read-only memmap), :meth:`read_window`
    or :meth:`surface`.

    The chunk grid is row-major with clipped edge chunks — identical
    to :class:`repro.parallel.tiles.TilePlan` — so a store created
    with ``chunk == (plan.tile_nx, plan.tile_ny)`` and ``shape ==
    (plan.total_nx, plan.total_ny)`` indexes chunks exactly like the
    plan indexes tiles (checked by :meth:`validate_plan`).
    """

    def __init__(self, path: Path, manifest: Dict[str, Any],
                 done: np.ndarray, mode: str,
                 owns_ledger: bool = True) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.done = done
        self.mode = mode
        #: Whether this handle may persist the bitmap/manifest.  A dist
        #: worker opens the store with ``ledger=False``: it writes height
        #: windows but its in-memory bitmap is a stale snapshot, and
        #: persisting it would roll back marks the coordinator (the
        #: single ledger owner) has already committed.
        self.owns_ledger = owns_ledger
        self._fh: Optional[Any] = None
        self._lock = threading.Lock()
        self._mm_r: Optional[np.ndarray] = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        shape: Tuple[int, int],
        chunk: Tuple[int, int],
        *,
        dx: float = 1.0,
        dy: float = 1.0,
        origin: Tuple[int, int] = (0, 0),
        meta: Optional[Dict[str, Any]] = None,
    ) -> "SurfaceStore":
        """Create a fresh store directory (refuses to overwrite one).

        ``shape``/``chunk``/``origin`` are in samples; ``dx``/``dy``
        are the physical sample spacings recorded for
        :meth:`surface`.  The heights file is created sparse, so disk
        is only consumed as chunks are written.
        """
        path = Path(path)
        nx, ny = int(shape[0]), int(shape[1])
        cnx, cny = int(chunk[0]), int(chunk[1])
        if nx <= 0 or ny <= 0:
            raise ValueError("store shape must be positive")
        if cnx <= 0 or cny <= 0:
            raise ValueError("chunk shape must be positive")
        if np.dtype(np.float64) != _DTYPE:  # pragma: no cover - BE platforms
            raise RuntimeError(
                "SurfaceStore requires a little-endian float64 platform"
            )
        if (path / MANIFEST_NAME).exists():
            raise FileExistsError(
                f"store already exists at {path}; open it with "
                f"SurfaceStore.open() (or delete it) instead"
            )
        path.mkdir(parents=True, exist_ok=True)
        mm = np.lib.format.open_memmap(
            path / HEIGHTS_NAME, mode="w+", dtype=np.float64, shape=(nx, ny)
        )
        del mm  # header written, file preallocated sparse
        n_chunks = (-(-nx // cnx)) * (-(-ny // cny))
        done = np.zeros(n_chunks, dtype=bool)
        atomic_write_bytes(path / BITMAP_NAME, _npy_bytes(done))
        manifest: Dict[str, Any] = {
            "format": FORMAT_VERSION,
            "shape": [nx, ny],
            "chunk": [cnx, cny],
            "dtype": _DTYPE.str,
            "dx": float(dx),
            "dy": float(dy),
            "origin": [int(origin[0]), int(origin[1])],
            "meta": meta or {},
            "progress": {"chunks_total": n_chunks, "chunks_done": 0},
        }
        atomic_write_json(path / MANIFEST_NAME, manifest)
        return cls(path=path, manifest=manifest, done=done, mode="r+")

    @classmethod
    def open(cls, path: PathLike, mode: str = "r+",
             *, ledger: bool = True) -> "SurfaceStore":
        """Open an existing store, validating every on-disk piece.

        Any torn or inconsistent file — a truncated manifest, a bitmap
        of the wrong length, a heights header that disagrees with the
        manifest — raises :class:`StoreCorrupt`.

        ``ledger=False`` opens a *non-owner* writer handle: it may write
        height windows but :meth:`flush`/:meth:`close` will not persist
        the bitmap or manifest.  Use it when another process (the dist
        coordinator) owns progress accounting over the same store.
        """
        if mode not in ("r", "r+"):
            raise ValueError(f"mode must be 'r' or 'r+', got {mode!r}")
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        try:
            text = manifest_path.read_text()
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no store manifest at {manifest_path}"
            ) from None
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorrupt(
                f"unreadable store manifest at {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise StoreCorrupt(f"store manifest at {manifest_path} "
                               f"is not a JSON object")
        fmt = manifest.get("format")
        if fmt != FORMAT_VERSION:
            raise StoreCorrupt(
                f"unsupported store format {fmt!r} at {path} "
                f"(this build reads {FORMAT_VERSION!r})"
            )
        try:
            nx, ny = (int(v) for v in manifest["shape"])
            cnx, cny = (int(v) for v in manifest["chunk"])
            dtype = np.dtype(manifest["dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorrupt(
                f"store manifest at {manifest_path} is missing or has "
                f"malformed geometry: {exc!r}"
            ) from exc
        if dtype != _DTYPE:
            raise StoreCorrupt(
                f"store dtype {dtype} is not {_DTYPE} at {path}"
            )
        heights_path = path / HEIGHTS_NAME
        if not heights_path.exists():
            raise StoreCorrupt(f"store heights file missing at {heights_path}")
        try:
            offset, h_shape, h_dtype, fortran = _npy_header(heights_path)
        except (ValueError, OSError) as exc:
            raise StoreCorrupt(
                f"unreadable heights header at {heights_path}: {exc}"
            ) from exc
        if h_shape != (nx, ny) or h_dtype != _DTYPE or fortran:
            raise StoreCorrupt(
                f"heights file {heights_path} (shape={h_shape}, "
                f"dtype={h_dtype}, fortran={fortran}) does not match the "
                f"manifest geometry ({nx}, {ny})"
            )
        expected = offset + nx * ny * _DTYPE.itemsize
        actual = heights_path.stat().st_size
        if actual != expected:
            raise StoreCorrupt(
                f"heights file {heights_path} has {actual} bytes; "
                f"expected {expected}"
            )
        bitmap_path = path / BITMAP_NAME
        try:
            done = np.load(bitmap_path)
        except (FileNotFoundError, ValueError, OSError) as exc:
            raise StoreCorrupt(
                f"unreadable chunk bitmap at {bitmap_path}: {exc}"
            ) from exc
        n_chunks = (-(-nx // cnx)) * (-(-ny // cny))
        if done.shape != (n_chunks,) or done.dtype != np.bool_:
            raise StoreCorrupt(
                f"chunk bitmap at {bitmap_path} (shape={done.shape}, "
                f"dtype={done.dtype}) does not match the {n_chunks}-chunk "
                f"grid"
            )
        return cls(path=path, manifest=manifest, done=done, mode=mode,
                   owns_ledger=ledger)

    def close(self) -> None:
        """Flush (when writable) and release the write handle."""
        self._mm_r = None
        if self._fh is not None:
            if self.mode == "r+":
                self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SurfaceStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- geometry ----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self.manifest["shape"][0]), int(self.manifest["shape"][1]))

    @property
    def chunk_shape(self) -> Tuple[int, int]:
        return (int(self.manifest["chunk"][0]), int(self.manifest["chunk"][1]))

    @property
    def origin(self) -> Tuple[int, int]:
        o = self.manifest.get("origin", [0, 0])
        return (int(o[0]), int(o[1]))

    @property
    def dtype(self) -> np.dtype:
        return _DTYPE

    @property
    def nbytes(self) -> int:
        nx, ny = self.shape
        return nx * ny * _DTYPE.itemsize

    @property
    def n_chunks(self) -> Tuple[int, int]:
        """Chunk counts per axis (row-major grid, edge chunks clipped)."""
        nx, ny = self.shape
        cnx, cny = self.chunk_shape
        return (-(-nx // cnx), -(-ny // cny))

    @property
    def chunks_total(self) -> int:
        cx, cy = self.n_chunks
        return cx * cy

    @property
    def fraction_done(self) -> float:
        total = self.chunks_total
        return float(self.done.sum()) / total if total else 0.0

    @property
    def heights_path(self) -> Path:
        return self.path / HEIGHTS_NAME

    def chunk_window(self, index: int) -> Tuple[int, int, int, int]:
        """The ``(x0, y0, nx, ny)`` sample window of chunk ``index``."""
        total = self.chunks_total
        if not 0 <= index < total:
            raise IndexError(f"chunk index {index} outside [0, {total})")
        nx, ny = self.shape
        cnx, cny = self.chunk_shape
        _cx, cy = self.n_chunks
        jx, jy = divmod(int(index), cy)
        x0 = jx * cnx
        y0 = jy * cny
        return (x0, y0, min(cnx, nx - x0), min(cny, ny - y0))

    def validate_plan(self, plan: Any) -> None:
        """Check that ``plan`` and this store share one chunk grid.

        Duck-typed on the :class:`~repro.parallel.tiles.TilePlan`
        attributes so the executor can hand a store over without either
        module importing the other.
        """
        if (plan.total_nx, plan.total_ny) != self.shape:
            raise ValueError(
                f"store shape {self.shape} does not match the plan's "
                f"({plan.total_nx}, {plan.total_ny})"
            )
        if (plan.tile_nx, plan.tile_ny) != self.chunk_shape:
            raise ValueError(
                f"store chunk shape {self.chunk_shape} does not match the "
                f"plan's tile shape ({plan.tile_nx}, {plan.tile_ny}); "
                f"tile and chunk grids must coincide so the bitmap can "
                f"index tiles"
            )

    # -- writing -----------------------------------------------------------
    def _write_handle(self):
        if self.mode != "r+":
            raise ValueError(f"store at {self.path} is opened read-only")
        if self._fh is None:
            # Unbuffered: rows go straight to the page cache via pwrite;
            # a buffered layer would copy and flush every 4 KiB row.
            self._fh = open(self.heights_path, "r+b", buffering=0)
            self._offset = _npy_header(self.heights_path)[0]
        return self._fh

    def write_window(self, x0: int, y0: int, values: np.ndarray,
                     *, mark: bool = True) -> int:
        """Write a rectangular window of heights at ``(x0, y0)``.

        Writes row-by-row through plain file ``write`` calls (one
        contiguous write for full-width windows) so the dirtied pages
        live in the kernel's page cache, not this process's RSS.
        Chunks *fully covered* by the window are marked done in memory
        (persist with :meth:`flush` or via :class:`StoreWriter`);
        partial coverage marks nothing, so a crash mid-window can never
        claim a chunk it did not finish.  Returns the bytes written.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"window must be 2D, got ndim={values.ndim}")
        nx, ny = values.shape
        NX, NY = self.shape
        if not (0 <= x0 and x0 + nx <= NX and 0 <= y0 and y0 + ny <= NY):
            raise ValueError(
                f"window [{x0}:{x0 + nx}, {y0}:{y0 + ny}] outside the "
                f"store shape {self.shape}"
            )
        itemsize = _DTYPE.itemsize
        with self._lock:
            fd = self._write_handle().fileno()
            if y0 == 0 and ny == NY:
                _pwrite_all(fd, memoryview(values).cast("B"),
                            self._offset + x0 * NY * itemsize)
            else:
                row_stride = NY * itemsize
                base = self._offset + y0 * itemsize
                data = memoryview(values).cast("B")
                row_bytes = ny * itemsize
                for i in range(nx):
                    _pwrite_all(fd,
                                data[i * row_bytes:(i + 1) * row_bytes],
                                base + (x0 + i) * row_stride)
            if mark:
                self._mark_covered(x0, y0, nx, ny)
        return nx * ny * itemsize

    def write_chunk(self, index: int, values: np.ndarray) -> int:
        """Write one whole chunk (marks exactly that chunk done)."""
        x0, y0, nx, ny = self.chunk_window(index)
        values = np.asarray(values)
        if values.shape != (nx, ny):
            raise ValueError(
                f"chunk {index} needs shape ({nx}, {ny}), "
                f"got {values.shape}"
            )
        return self.write_window(x0, y0, values)

    def _mark_covered(self, x0: int, y0: int, nx: int, ny: int) -> None:
        cnx, cny = self.chunk_shape
        NX, NY = self.shape
        _cx, cy = self.n_chunks
        for jx in range((x0 // cnx), ((x0 + nx - 1) // cnx) + 1):
            wx0 = jx * cnx
            wnx = min(cnx, NX - wx0)
            if wx0 < x0 or wx0 + wnx > x0 + nx:
                continue
            for jy in range((y0 // cny), ((y0 + ny - 1) // cny) + 1):
                wy0 = jy * cny
                wny = min(cny, NY - wy0)
                if wy0 < y0 or wy0 + wny > y0 + ny:
                    continue
                self.done[jx * cy + jy] = True

    def mark_done(self, index: int) -> None:
        """Mark one chunk complete in memory (see :meth:`flush`)."""
        self.done[int(index)] = True

    def done_indices(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(self.done)]

    def pending_indices(self) -> List[int]:
        """Chunk indices not yet marked done — the dist scheduler's
        initial work queue on start and on coordinator restart."""
        return [int(i) for i in np.flatnonzero(~self.done)]

    def refresh_done(self) -> None:
        """Re-read the persisted bitmap into the live ``done`` array.

        In place, so ledgers holding a reference to ``done`` observe the
        reload.  Because marks are persisted only after durable chunk
        writes, refreshing can only *add* recompute work relative to the
        true state, never claim an unwritten chunk — the safe direction
        for a restarted coordinator.
        """
        persisted = np.load(self.path / BITMAP_NAME)
        if persisted.shape != self.done.shape or persisted.dtype != np.bool_:
            raise StoreCorrupt(
                f"chunk bitmap at {self.path / BITMAP_NAME} changed shape "
                f"({persisted.shape}, {persisted.dtype}) under an open "
                f"store handle"
            )
        self.done[:] = persisted

    def persist_progress(self) -> None:
        """Atomically persist the bitmap, then the manifest's progress.

        Bitmap first: a crash between the two leaves a manifest that
        undercounts — never overcounts — completed chunks.
        """
        self.manifest["progress"]["chunks_done"] = int(self.done.sum())
        atomic_write_bytes(self.path / BITMAP_NAME, _npy_bytes(self.done))
        atomic_write_json(self.path / MANIFEST_NAME, self.manifest)

    def flush(self) -> None:
        """fsync the heights file and persist bitmap + manifest.

        Non-owner handles (``ledger=False``) fsync their height writes
        but leave the bitmap/manifest to the ledger owner.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        if self.owns_ledger:
            self.persist_progress()

    # -- reading -----------------------------------------------------------
    def heights(self, mode: str = "r") -> np.ndarray:
        """The full height field as a memmap (read-only by default).

        The read-only mapping is cached on the handle: it is a shared
        mapping of the same pages ``write_window`` pwrites through, so
        it stays coherent with concurrent writes, and repeated
        window reads (e.g. the streaming verifier's) skip the per-call
        header parse.
        """
        if mode == "r":
            if self._mm_r is None:
                self._mm_r = np.load(self.heights_path, mmap_mode="r")
            return self._mm_r
        return np.load(self.heights_path, mmap_mode=mode)

    def read_window(self, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
        """Copy one window into RAM (only those pages are touched)."""
        NX, NY = self.shape
        if not (0 <= x0 and x0 + nx <= NX and 0 <= y0 and y0 + ny <= NY):
            raise ValueError(
                f"window [{x0}:{x0 + nx}, {y0}:{y0 + ny}] outside the "
                f"store shape {self.shape}"
            )
        data = self.heights("r")
        return np.array(data[x0:x0 + nx, y0:y0 + ny], dtype=float)

    def surface(self, provenance: Optional[Dict[str, Any]] = None) -> Surface:
        """The store as a :class:`Surface` with memmap-backed heights.

        The heights stay on disk (``Surface`` skips its eager finite
        scan for memmaps); statistics accessors will page data in as
        touched.
        """
        from ..core.grid import Grid2D

        nx, ny = self.shape
        dx = float(self.manifest["dx"])
        dy = float(self.manifest["dy"])
        grid = Grid2D(nx=nx, ny=ny, lx=nx * dx, ly=ny * dy)
        ox, oy = self.origin
        prov = {"store": self.progress_summary()}
        if provenance:
            prov.update(provenance)
        return Surface(
            heights=self.heights("r"), grid=grid,
            origin=(ox * dx, oy * dy), provenance=prov,
        )

    # -- accounting --------------------------------------------------------
    def progress_summary(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "chunks_total": self.chunks_total,
            "chunks_done": int(self.done.sum()),
        }

    def summary(self) -> Dict[str, Any]:
        """The CLI/status view of this store."""
        nx, ny = self.shape
        return {
            "path": str(self.path),
            "format": self.manifest["format"],
            "shape": [nx, ny],
            "chunk": list(self.chunk_shape),
            "dtype": _DTYPE.str,
            "nbytes": self.nbytes,
            "chunks_total": self.chunks_total,
            "chunks_done": int(self.done.sum()),
            "fraction_done": self.fraction_done,
            "dx": self.manifest["dx"],
            "dy": self.manifest["dy"],
            "origin": list(self.origin),
        }

    # -- async writeback ---------------------------------------------------
    def writer(self, queue_depth: int = 2,
               persist_interval_s: float = 0.5) -> "StoreWriter":
        """A :class:`StoreWriter` draining into this store."""
        return StoreWriter(self, queue_depth=queue_depth,
                           persist_interval_s=persist_interval_s)


class StoreWriter:
    """Async double-buffered writeback into a :class:`SurfaceStore`.

    Producers :meth:`submit` finished windows; a background thread
    writes them and marks + persists chunk completion *after* each
    durable write, so the bitmap never claims data that is not on
    disk.  The queue is bounded (``queue_depth``, default 2 — classic
    double buffering): when the disk cannot keep up, :meth:`submit`
    blocks, applying backpressure to the compute side instead of
    buffering unbounded tiles in RAM.

    A write failure is remembered, subsequent submissions are drained
    without writing (so producers never deadlock on a full queue), and
    the error re-raises from the next :meth:`submit` or from
    :meth:`close`.

    Durability boundary: chunk data reaches the OS page cache as each
    write syscall returns, which makes it visible to any other process
    and safe against *process* crashes (the fault model of
    :mod:`repro.jobs`).  Progress (bitmap + manifest) is persisted at
    most every ``persist_interval_s`` seconds rather than per chunk —
    two fsynced atomic renames per chunk would dominate small-chunk
    runs — and once more on :meth:`close`.  A hard kill can therefore
    lose at most the last interval's *marks* (never data): the bitmap
    undercounts and resume recomputes a few chunks.  Power-failure
    durability of the heights themselves is the explicit
    :meth:`SurfaceStore.flush` / :meth:`SurfaceStore.close` fsync.

    Obs metrics: ``store.queue_depth`` (gauge), ``store.flush_seconds``
    and ``store.backpressure_seconds`` (histograms),
    ``store.bytes_written`` and ``store.chunks_written`` (counters).
    """

    def __init__(self, store: SurfaceStore, queue_depth: int = 2,
                 persist_interval_s: float = 0.5) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.store = store
        self._persist_interval = float(persist_interval_s)
        self._last_persist = time.monotonic()
        self._q: "queue.Queue[Optional[Tuple[Optional[int], int, int, np.ndarray]]]" = (
            queue.Queue(maxsize=queue_depth)
        )
        self._error: Optional[BaseException] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="store-writer", daemon=True
        )
        self._thread.start()

    # -- producer side -----------------------------------------------------
    def submit(self, index: Optional[int], x0: int, y0: int,
               values: np.ndarray) -> None:
        """Queue one window for writeback (blocks when the queue is full).

        ``index`` is the chunk to mark done after the write, or
        ``None`` to only write the window (chunks fully covered by it
        are still marked).  The caller must hand over ownership of
        ``values`` — do not mutate it afterwards.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        if self._error is not None:
            raise self._error
        if obs.enabled():
            t0 = time.perf_counter()
            self._q.put((index, x0, y0, values))
            obs.observe("store.backpressure_seconds",
                        time.perf_counter() - t0)
            obs.set_gauge("store.queue_depth", self._q.qsize())
        else:
            self._q.put((index, x0, y0, values))

    def close(self, raise_pending: bool = True) -> None:
        """Drain the queue, persist progress, and stop the thread.

        With ``raise_pending`` (the default) a deferred write error
        re-raises here; pass ``False`` on an unwinding error path so
        the original exception is not masked.
        """
        if not self._closed:
            self._closed = True
            self._q.put(None)
            self._thread.join()
            # Persist even after an error: marks only exist for chunks
            # whose write completed, so the bitmap is always truthful.
            self.store.persist_progress()
        if raise_pending and self._error is not None:
            raise self._error

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        self.close(raise_pending=exc_type is None)

    # -- consumer side -----------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                return
            if self._error is not None:
                continue  # drain without writing; producers must not block
            index, x0, y0, values = item
            try:
                t0 = time.perf_counter()
                nbytes = self.store.write_window(x0, y0, values)
                if index is not None:
                    self.store.mark_done(index)
                now = time.monotonic()
                if now - self._last_persist >= self._persist_interval:
                    self.store.persist_progress()
                    self._last_persist = now
                if obs.enabled():
                    obs.observe("store.flush_seconds",
                                time.perf_counter() - t0)
                    obs.add("store.bytes_written", nbytes)
                    obs.add("store.chunks_written")
                    obs.set_gauge("store.queue_depth", self._q.qsize())
            except BaseException as exc:  # remembered, re-raised at close
                self._error = exc

