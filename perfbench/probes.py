"""Outside-in probes: timers wrapped around public calls of the program.

Layers that already record a span (``executor.tile``,
``engine.fft.forward``/``inverse``, ``fields.weight_map``,
``jobs.checkpoint.write``, ``verify.run``, ``serve.batch``) are read
from the program's own recorder.  The layers below have no span, so the
benchmark wraps their public entry points and records a span of its own
into the same recorder, on the same clock:

=====================  ===================================================
span                   wrapped call
=====================  ===================================================
``rng.window``         ``BlockNoise.window`` (also feeds the block demand)
``engine.apply``       ``apply_kernel_valid`` / ``apply_kernels_valid``
``engine.plan.get``    ``KernelPlanCache.get_plan``
``blend``              ``blend_fields``
``store.submit``       ``StoreWriter.submit``
``store.close``        ``StoreWriter.close``
=====================  ===================================================

``Batcher.submit`` is wrapped too, to date when each serve request
entered the batch queue and when its heights were handed back.

Nothing under ``src/`` changes: the wrappers are installed by attribute
assignment and removed on exit, and they never touch the arrays.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, List, Tuple

from harness import BlockDemand


def _spanned(obs: Any, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.trace(name):
            return fn(*args, **kwargs)
    return wrapper


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class LayerProbes:
    """Span wrappers for the layers without a span of their own.

    Use as a context manager around traced runs only; ``demand``
    accumulates the noise blocks the ``BlockNoise.window`` calls imply
    and is reset by :meth:`reset`.
    """

    def __init__(self) -> None:
        self.demand = BlockDemand()
        #: (enqueued_ns, done_ns) of every request through the batcher
        self.batch_items: List[Tuple[int, int]] = []
        self._patches = _Patches()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.demand = BlockDemand()
            self.batch_items = []

    def __enter__(self) -> "LayerProbes":
        from repro import obs
        from repro.core import convolution, engine, inhomogeneous, rng
        from repro.fields import continuous
        from repro.io import store
        from repro.serve import batch

        window = rng.BlockNoise.window
        submit = batch.Batcher.submit
        probes = self

        @functools.wraps(submit)
        def timed_submit(batcher, item):
            enqueued = time.perf_counter_ns()
            done = item.on_done

            def on_done(heights, meta):
                with probes._lock:
                    probes.batch_items.append(
                        (enqueued, time.perf_counter_ns()))
                done(heights, meta)

            item.on_done = on_done
            return submit(batcher, item)

        @functools.wraps(window)
        def traced_window(noise, x0, y0, nx, ny):
            with probes._lock:
                probes.demand.add(noise.seed, noise.block, x0, y0, nx, ny)
            with obs.trace("rng.window"):
                return window(noise, x0, y0, nx, ny)

        p = self._patches
        p.set(rng.BlockNoise, "window", traced_window)
        p.set(batch.Batcher, "submit", timed_submit)
        p.set(convolution, "apply_kernel_valid", _spanned(
            obs, "engine.apply", convolution.apply_kernel_valid))
        batched = _spanned(obs, "engine.apply",
                           convolution.apply_kernels_valid)
        for module in (convolution, inhomogeneous, continuous, batch):
            p.set(module, "apply_kernels_valid", batched)
        p.set(engine.KernelPlanCache, "get_plan", _spanned(
            obs, "engine.plan.get", engine.KernelPlanCache.get_plan))
        p.set(inhomogeneous, "blend_fields", _spanned(
            obs, "blend", inhomogeneous.blend_fields))
        p.set(store.StoreWriter, "submit", _spanned(
            obs, "store.submit", store.StoreWriter.submit))
        p.set(store.StoreWriter, "close", _spanned(
            obs, "store.close", store.StoreWriter.close))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()


class TileTimer:
    """Wall time of every ``generate_window`` call on the generator
    classes, while armed: the latency of one tile, seen from the
    executor that asked for it.  Costs two clock reads per tile, so it
    stays on in untraced runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.armed = False
        self._patches = _Patches()

    def take(self) -> List[float]:
        out, self.samples = self.samples, []
        return out

    def __enter__(self) -> "TileTimer":
        from repro.core.convolution import ConvolutionGenerator
        from repro.core.inhomogeneous import InhomogeneousGenerator

        timer = self
        for cls in (ConvolutionGenerator, InhomogeneousGenerator):
            fn = cls.generate_window

            def timed(self, *args, _fn=fn, **kwargs):
                if not timer.armed:
                    return _fn(self, *args, **kwargs)
                t0 = time.perf_counter()
                out = _fn(self, *args, **kwargs)
                timer.samples.append(time.perf_counter() - t0)
                return out

            self._patches.set(cls, "generate_window",
                              functools.wraps(fn)(timed))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()
