"""Shared-spectrum request batching for the serve front door.

Concurrent small requests usually repeat themselves: many clients
asking for realisations of the *same* spectrum (different seeds are a
different group; same seed + same window means the same bytes, which
dedups to one compute).  The batched engine
(:func:`repro.core.convolution.apply_kernels_valid`) was built for
exactly this shape — one forward FFT per overlap-save block shared by
every kernel — so the batcher drains the queue, groups compatible
requests, and runs each group through **one** engine pass instead of
one pass per request.

Bit-identity contract
---------------------
A request only joins a group whose members share the noise plane
``(seed, block)``, the output window, the engine precision, and the
kernel *geometry* ``(shape, centre)``.  Equal shapes and centres make
the batch's :func:`~repro.core.engine.common_margins` equal every
member's own margins, so the noise window, block geometry and wrap-free
slices are exactly those of a solo
:meth:`~repro.core.convolution.ConvolutionGenerator.generate_window`
call — the batched heights are bit-identical to sequential direct
generation on both engines (see the ``apply_kernels_valid`` contract).
Kernels that are *value*-identical too (same ``plan_key`` and scale)
collapse to a single inverse transform whose output all their requests
share.

The kernel-plan cache is the process-global
:data:`repro.core.engine.plan_cache`, so plans warm up across requests
and across batch groups.

Noise ahead of the pass
-----------------------
A group's noise window is a pure function of ``(seed, block, window)``
(:class:`~repro.core.rng.BlockNoise`), so one helper thread
(``serve-noise``) draws it ahead of the group: the first group's while
the batcher lingers, each next group's while the previous group's
FFTs run.  At most two windows are in flight, the running group's and
the next.  A draw that fails is dropped and the group draws its window
itself; either way the values are the same.
"""

from __future__ import annotations

import concurrent.futures as cf
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.convolution import (
    apply_kernels_valid,
    noise_window_for,
    select_engine,
)
from ..core.rng import BlockNoise

__all__ = ["BatchItem", "Batcher", "group_key"]


@dataclass
class BatchItem:
    """One queued small request.

    ``on_done(heights, meta)`` / ``on_error(exc)`` fire on the batcher
    thread once the group executes; ``heights`` is a read-only array.
    """

    generator: Any              # ConvolutionGenerator
    seed: int
    noise_block: Optional[int]
    window: Tuple[int, int, int, int]          # (x0, y0, nx, ny)
    on_done: Callable[[np.ndarray, Dict[str, Any]], None]
    on_error: Callable[[BaseException], None]


def group_key(item: BatchItem) -> tuple:
    """Requests with equal keys are bit-safe to run as one engine pass."""
    kernel = item.generator.kernel
    engine = item.generator.engine
    if engine == "auto":
        # resolve the dispatch now so "auto" and an explicit equal
        # engine land in the same group (the choice is a pure function
        # of the kernel footprint)
        engine = select_engine(kernel.shape)
    return (
        item.seed,
        item.noise_block,
        item.window,
        kernel.shape,
        kernel.cx,
        kernel.cy,
        engine,
        np.dtype(item.generator.dtype).str,
    )


def _read_noise(item: BatchItem) -> np.ndarray:
    """The noise window ``item``'s group convolves.

    The read is planned, so the plane frees each block right after
    copying it and a one-shot read holds no more than one block.
    """
    plane = (BlockNoise(item.seed) if item.noise_block is None
             else BlockNoise(item.seed, item.noise_block))
    window = noise_window_for(item.generator.kernel, *item.window)
    with plane.plan_reads([window]):
        return plane.window(*window)


def _kernel_identity(kernel) -> tuple:
    """Requests with equal kernel identities share one output array."""
    return (kernel.plan_key, kernel.shape, kernel.cx, kernel.cy,
            kernel.plan_scale)


class Batcher:
    """Collect small requests for ``linger_s`` and run them grouped.

    One daemon thread owns the queue: it blocks for the first item,
    lingers briefly so concurrent submitters can pile on, then drains
    and executes group by group.  Lingering trades a bounded latency
    floor for batching opportunity; the default is a few milliseconds —
    well under one small engine pass — and tests/benches widen it to
    make batching deterministic.  A helper thread draws each group's
    noise one group ahead (see the module docstring); :meth:`stop`
    cancels its queued draws and joins it.
    """

    def __init__(self, *, linger_s: float = 0.005, max_batch: int = 64) -> None:
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.linger_s = float(linger_s)
        self.max_batch = int(max_batch)
        self._queue: "queue.Queue[Optional[BatchItem]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._noise: Optional[cf.ThreadPoolExecutor] = None
        self._closed = False

    def start(self) -> None:
        if self._thread is not None:
            return
        self._noise = cf.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-noise")
        self._thread = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._noise.shutdown(wait=True, cancel_futures=True)
        self._noise = None

    def submit(self, item: BatchItem) -> None:
        if self._closed:
            raise RuntimeError("batcher is stopped")
        self._queue.put(item)

    # -- batcher thread ------------------------------------------------

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is None:
                return
            batch = [first]
            # the first group's noise is drawn while the batcher lingers
            noise = self._ahead(first)
            deadline = time.monotonic() + self.linger_s
            with obs.trace("serve.linger"):
                while len(batch) < self.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 and self._queue.empty():
                        break
                    try:
                        item = self._queue.get(timeout=max(remaining, 0.0))
                    except queue.Empty:
                        break
                    if item is None:
                        self._drain_error(batch,
                                          RuntimeError("batcher stopped"))
                        return
                    batch.append(item)
            groups: Dict[tuple, List[BatchItem]] = {}
            for item in batch:
                groups.setdefault(group_key(item), []).append(item)
            # ``first`` heads the first group; each next group's noise
            # is drawn while the group before it runs
            ordered = list(groups.values())
            for i, members in enumerate(ordered):
                upcoming = (self._ahead(ordered[i + 1][0])
                            if i + 1 < len(ordered) else None)
                try:
                    self._execute(members, noise)
                except BaseException as exc:  # deliver, keep serving
                    self._drain_error(members, exc)
                noise = upcoming

    def _ahead(self, item: BatchItem) -> "cf.Future[np.ndarray]":
        """Queue the noise window of ``item``'s group on the helper."""
        return self._noise.submit(_read_noise, item)

    @staticmethod
    def _drain_error(items: List[BatchItem], exc: BaseException) -> None:
        for item in items:
            try:
                item.on_error(exc)
            except Exception:
                pass

    def _execute(self, members: List[BatchItem],
                 noise: "cf.Future[np.ndarray]") -> None:
        """One engine pass for one compatible group, over the noise
        window ``noise`` draws (or, if that draw failed, its own)."""
        rep = members[0]
        x0, y0, nx, ny = rep.window
        # distinct kernel values: value-equal kernels share one inverse
        kernels: List[Any] = []
        positions: List[int] = []          # member -> kernel index
        seen: Dict[tuple, int] = {}
        for item in members:
            kernel = item.generator.kernel
            identity = _kernel_identity(kernel)
            idx = seen.get(identity)
            if idx is None:
                idx = len(kernels)
                seen[identity] = idx
                kernels.append(kernel)
            positions.append(idx)
        engine = rep.generator.engine
        if engine == "auto":
            engine = select_engine(kernels[0].shape)
        try:
            window = noise.result()
        except Exception:
            window = _read_noise(rep)
        with obs.trace("serve.batch", {
            "requests": len(members), "kernels": len(kernels),
        } if obs.enabled() else None):
            outs = apply_kernels_valid(
                kernels, window, engine=engine,
                dtype=rep.generator.dtype,
            )
        obs.add("serve.batch.groups")
        obs.add("serve.batch.requests", len(members))
        obs.add("serve.batch.kernels", len(kernels))
        meta = {
            "batched_with": len(members),
            "distinct_kernels": len(kernels),
            "engine": engine,
            "window": [x0, y0, nx, ny],
        }
        for item, idx in zip(members, positions):
            heights = outs[idx]
            heights.flags.writeable = False  # shared across requests
            item.on_done(heights, dict(meta))
