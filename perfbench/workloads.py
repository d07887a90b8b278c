"""The three benchmark workloads and the loop that times them.

Each workload runs in its own process (``run.py``), so set-up time and
peak memory belong to it alone.  A run (``--trace 0``) alternates
nothing: every timed operation is untraced and feeds the end-to-end
metrics.  A traced run (``--trace 1``) alternates untraced and traced
operations; the traced ones are recorded through ``repro.obs`` plus the
benchmark's own probes and give the per-layer metrics, and the ratio of
the two medians is ``trace_overhead``.

See README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import hashlib
import http.client
import io
import json
import resource
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    attribute,
    error_rate,
    median,
    percentile,
    queue_delays,
    run_failures,
    span_totals,
    tail_percentile,
)
from probes import LayerProbes, TileTimer

TILE = 512
SETUP_REPS = 3
#: Tiles a generation run must time before its p90 has ten beyond it.
MIN_TILE_SAMPLES = 100

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("rng.window_s", "s"),
    ("rng.blocks_requested", "count"),
    ("rng.blocks_distinct", "count"),
    ("rng.block_reuse", "ratio"),
    ("engine.apply_s", "s"),
    ("engine.fft_forward_s", "s"),
    ("engine.fft_inverse_s", "s"),
    ("engine.forward_ffts", "count"),
    ("engine.inverse_ffts", "count"),
    ("engine.plan_hit_rate", "ratio"),
    ("engine.plan_build_s", "s"),
    ("fields.weight_map_s", "s"),
    ("fields.kernels_active", "count"),
    ("fields.kernels_skipped", "count"),
    ("blend_s", "s"),
    ("executor.tile_ms.p50", "ms"),
    ("executor.tile_ms.p90", "ms"),
    ("executor.busy_frac", "ratio"),
    ("jobs.checkpoint_s", "s"),
    ("jobs.checkpoint_writes", "count"),
    ("store.submit_wait_s", "s"),
    ("store.close_s", "s"),
    ("store.bytes_written", "bytes"),
    ("verify_s", "s"),
    ("verify.windows", "count"),
    ("serve.post_ms.p50", "ms"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.batch_s", "s"),
    ("serve.requests_per_batch", "count"),
    ("serve.polls_per_request", "count"),
    ("serve.result_ms.p50", "ms"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
    ("error_rate", "ratio"),
)


def derive_seed(seed: int, *index: int) -> int:
    """A noise seed of its own for every timed operation."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS, so a
    later peak reflects live memory, not what earlier threads' malloc
    arenas happened to keep."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


def build_plans(kernels: List[Any], tile: int) -> None:
    """Build every FFT plan a ``tile``-edge window of ``kernels`` needs,
    with the block geometry the engine itself chooses."""
    from repro.core.convolution import batched_noise_window_for, select_engine
    from repro.core.engine import choose_block_shape, common_margins, plan_cache

    margins = common_margins(kernels)
    footprint = (margins[0] + margins[1] + 1, margins[2] + margins[3] + 1)
    if select_engine(footprint) != "fft":
        return
    _, _, wnx, wny = batched_noise_window_for(kernels, 0, 0, tile, tile,
                                              margins=margins)
    block = choose_block_shape((wnx, wny), footprint)
    for kernel in kernels:
        plan_cache.get_plan(kernel, block)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class _Traced:
    """Collects one traced operation: recorder, probes, wall interval."""

    def __init__(self, probes: LayerProbes) -> None:
        from repro import obs

        self.probes = probes
        self.recording = obs.recording()
        self.rec = None
        self.t0 = self.t1 = 0

    def __enter__(self) -> "_Traced":
        self.probes.reset()
        self.probes.__enter__()
        self.rec = self.recording.__enter__()
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.t1 = time.perf_counter_ns()
        self.recording.__exit__(*exc)
        self.probes.__exit__(*exc)


def layer_row(traced: _Traced) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Additive per-layer values of one traced operation, and the wall
    seconds each span name accounts for (see ``harness.attribute``)."""
    rec = traced.rec
    spans = rec.spans()
    totals = span_totals(spans)
    m = rec.metrics

    def secs(name: str) -> float:
        return totals.get(name, 0.0)

    hits = m.counter("engine.plan_cache.hits")
    lookups = hits + m.counter("engine.plan_cache.misses")
    groups = m.counter("serve.batch.groups")
    capacity = sum(s[2] / 1e9 * int((s[5] or {}).get("workers", 1))
                   for s in spans if s[0] == "executor.run")
    demand = traced.probes.demand
    share, unattributed = attribute(spans, traced.t0, traced.t1)
    return {
        "rng.window_s": secs("rng.window"),
        "rng.blocks_requested": demand.requested,
        "rng.blocks_distinct": len(demand.distinct),
        "rng.block_reuse": demand.reuse,
        "engine.apply_s": secs("engine.apply"),
        "engine.fft_forward_s": secs("engine.fft.forward"),
        "engine.fft_inverse_s": secs("engine.fft.inverse"),
        "engine.forward_ffts": m.counter("engine.fft.forward_ffts"),
        "engine.inverse_ffts": m.counter("engine.fft.inverse_ffts"),
        "engine.plan_hit_rate": hits / lookups if lookups else 0.0,
        "engine.plan_build_s": secs("engine.plan.build"),
        "fields.weight_map_s": secs("fields.weight_map"),
        "fields.kernels_active": m.counter("batch.kernels_active"),
        "fields.kernels_skipped": m.counter("batch.kernels_skipped"),
        "blend_s": secs("blend"),
        "executor.busy_frac": (secs("executor.tile") / capacity
                               if capacity else 0.0),
        "jobs.checkpoint_s": secs("jobs.checkpoint.write"),
        "jobs.checkpoint_writes": m.counter("jobs.checkpoint_writes"),
        "store.submit_wait_s": secs("store.submit"),
        "store.close_s": secs("store.close"),
        "store.bytes_written": m.counter("store.bytes_written"),
        "verify_s": secs("verify.run"),
        "verify.windows": m.counter("verify.windows"),
        "serve.batch_s": secs("serve.batch"),
        "serve.requests_per_batch": (m.counter("serve.batch.requests")
                                     / groups if groups else 0.0),
        "unattributed_s": unattributed,
    }, share


class TraceLog:
    """Per-layer rows of the traced operations and the walls of both
    kinds, reduced to the per-layer metrics."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []
        self.shares: List[Dict[str, float]] = []
        self.pooled: Dict[str, List[float]] = {}
        self.walls = {True: [], False: []}

    def pool(self, name: str, values: List[float]) -> None:
        self.pooled.setdefault(name, []).extend(values)

    def add(self, traced: _Traced) -> None:
        row, share = layer_row(traced)
        self.rows.append(row)
        self.shares.append(share)
        self.pool("executor.tile_ms", [
            s[2] / 1e6 for s in traced.rec.spans() if s[0] == "executor.tile"
        ])

    def share_notes(self) -> List[str]:
        """Median wall share of every span name, largest first."""
        names = {n for share in self.shares for n in share}
        wall = median(self.walls[True])
        rows = sorted(((median([s.get(n, 0.0) for s in self.shares]), n)
                       for n in names), reverse=True)
        return [f"wall share {n:24s} {v:9.4f} s ({v / wall:6.1%})"
                for v, n in rows]

    def metrics(self, error: float) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, float] = {}
        for name, _unit in PER_LAYER:
            values = [row[name] for row in self.rows if name in row]
            if values:
                out[name] = median(values)
        for name, pooled_name, p in (
            ("executor.tile_ms.p50", "executor.tile_ms", 50.0),
            ("executor.tile_ms.p90", "executor.tile_ms", 90.0),
            ("serve.post_ms.p50", "serve.post_ms", 50.0),
            ("serve.queue_ms.p50", "serve.queue_ms", 50.0),
            ("serve.result_ms.p50", "serve.result_ms", 50.0),
            ("serve.polls_per_request", "serve.polls", 50.0),
        ):
            values = self.pooled.get(pooled_name)
            out[name] = percentile(values, p) if values else 0.0
        if self.walls[True] and self.walls[False]:
            out["trace_overhead"] = (median(self.walls[True])
                                     / median(self.walls[False]) - 1.0)
        else:
            out["trace_overhead"] = 0.0
        out["error_rate"] = error
        return {name: (float(out.get(name, 0.0)), unit)
                for name, unit in PER_LAYER}


# -- generation workloads ----------------------------------------------------

class _Generation:
    """Shared shape of the two generation workloads: one operation is a
    whole run, whose tiles are the unit ``ops_per_s`` and the latency
    percentiles count."""

    name = ""
    tiles = 0
    #: Sampled tiles per run compared with a one-shot window ...
    check_tiles = 2
    #: ... until this many have been compared in the invocation.
    check_budget = 16

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def spec(self, noise_seed: int):
        raise NotImplementedError

    def setup_once(self) -> None:
        raise NotImplementedError

    def warm(self, noise_seed: int) -> None:
        """Untimed warm-up: caches, FFT workspaces, the page cache."""
        self.prepare()
        self.execute(noise_seed)

    def execute(self, noise_seed: int) -> Tuple[Any, Optional[bool]]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Clear what the previous run left behind (untimed)."""

    def mismatches(self, surface: Any, noise_seed: int, index: int,
                   count: int) -> int:
        """Of ``count`` sampled tiles, those that differ from an
        independent one-shot ``generate_window`` of the same window."""
        from repro.core.api import split_result
        from repro.core.rng import BlockNoise

        plan = self.spec(noise_seed).tile_plan()
        rng = np.random.default_rng([self.seed, index])
        bad = 0
        for _ in range(count):
            x0 = TILE * int(rng.integers(plan.total_nx // TILE))
            y0 = TILE * int(rng.integers(plan.total_ny // TILE))
            ref, _prov = split_result(self.reference.generate_window(
                BlockNoise(noise_seed), x0, y0, TILE, TILE))
            got = np.array(surface.heights[x0:x0 + TILE, y0:y0 + TILE])
            bad += got.tobytes() != np.asarray(ref).tobytes()
        return bad


class HomogStore(_Generation):
    """4096^2 Gaussian spec -> verified store, serial backend."""

    name = "homog-store-4096"
    tiles = 64
    GENERATOR = {
        "kind": "convolution",
        "spectrum": {"kind": "gaussian", "h": 1.0, "clx": 24.0, "cly": 24.0},
        "grid": {"nx": 256, "ny": 256, "lx": 256.0, "ly": 256.0},
        "truncation": [64, 64],
    }

    def spec(self, noise_seed: int, store_path: Optional[str] = None):
        from repro.core.spec import GenerationSpec

        return GenerationSpec(
            generator=self.GENERATOR, seed=noise_seed,
            plan={"total_nx": 4096, "total_ny": 4096,
                  "tile_nx": TILE, "tile_ny": TILE},
            store_path=store_path,
        )

    def setup_once(self) -> None:
        from repro.core.engine import plan_cache

        plan_cache.clear()
        self.reference = self.spec(0).build_generator()
        build_plans([self.reference.kernel], TILE)

    def execute(self, noise_seed: int) -> Tuple[Any, Optional[bool]]:
        from repro.jobs import run_spec

        run_dir = self.work / "run"
        spec = self.spec(noise_seed, str(run_dir / "store"))
        surface = run_spec(spec, checkpoint=run_dir / "ckpt", verify=True)
        return surface, bool(surface.provenance["verify"]["passed"])

    def prepare(self) -> None:
        shutil.rmtree(self.work / "run", ignore_errors=True)


class PointsThread(_Generation):
    """fig4 point layout, 2048^2 in 512^2 tiles, two threads, in memory."""

    name = "points-thread-2048"
    tiles = 16
    # a one-shot reference tile costs up to ~1 s here
    check_tiles = 1
    check_budget = 3
    GENERATOR = {"kind": "figure", "name": "fig4", "n": 2048,
                 "domain": 1024.0, "truncation": 0.999}

    def spec(self, noise_seed: int):
        from repro.core.spec import GenerationSpec

        return GenerationSpec(generator=self.GENERATOR, seed=noise_seed,
                              plan={"total_nx": 2048, "total_ny": 2048,
                                    "tile_nx": TILE, "tile_ny": TILE})

    def setup_once(self) -> None:
        from repro.core.convolution import resolve_kernel
        from repro.core.engine import plan_cache

        plan_cache.clear()
        gen = self.spec(0).build_generator()
        wm = gen.layout.weight_map(gen.grid.with_shape(TILE, TILE),
                                   origin=(0.0, 0.0))
        build_plans([resolve_kernel(s, gen.grid, gen.truncation)
                     for s in wm.spectra], TILE)
        self.reference = gen

    def warm(self, noise_seed: int) -> None:
        # The timed generator is a second, independent build of the spec.
        # A whole warm-up run resolves its kernels and grows both worker
        # threads' heaps, which would otherwise slow the first timed run.
        self.generator = self.spec(0).build_generator()
        super().warm(noise_seed)

    def execute(self, noise_seed: int) -> Tuple[Any, Optional[bool]]:
        from repro.parallel import generate_tiled

        spec = self.spec(noise_seed)
        surface = generate_tiled(self.generator, spec.noise(),
                                 spec.tile_plan(), backend="thread",
                                 workers=2)
        return surface, None


def run_generation(wl: _Generation, seconds: float, trace: bool,
                   import_s: float) -> Outcome:
    out = Outcome()
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup_once()
        setups.append(time.perf_counter() - t)
    log = TraceLog()
    probes = LayerProbes()
    walls: List[float] = []
    tile_lat: List[float] = []
    elapsed = 0.0
    ok_tiles = 0
    checked = 0
    with TileTimer() as timer:
        wl.warm(derive_seed(wl.seed, 1))
        i = 0
        while elapsed < seconds or (not trace
                                    and len(tile_lat) < MIN_TILE_SAMPLES):
            noise_seed = derive_seed(wl.seed, 0, i)
            traced = trace and i % 2 == 1
            wl.prepare()
            release_memory()
            raised, passed, surface = False, None, None
            ctx = _Traced(probes) if traced else None
            timer.armed = not traced
            t = time.perf_counter()
            try:
                if ctx is not None:
                    with ctx:
                        surface, passed = wl.execute(noise_seed)
                else:
                    surface, passed = wl.execute(noise_seed)
            except Exception as exc:  # counted, reported, never fatal
                raised = True
                out.notes.append(f"run {i} raised {exc!r}")
            wall = time.perf_counter() - t
            timer.armed = False
            elapsed += wall
            lat = timer.take()
            count = 0 if raised else min(wl.check_tiles,
                                         wl.check_budget - checked)
            checked += count
            if count:
                release_memory()
            bad = wl.mismatches(surface, noise_seed, i, count) if count else 0
            failed = run_failures(wl.tiles, raised, passed, bad)
            out.attempted += wl.tiles
            out.failed += failed
            if failed:
                out.notes.append(f"run {i}: {failed} tile(s) failed "
                                 f"(verify passed={passed}, sampled "
                                 f"mismatches={bad})")
            log.walls[traced].append(wall)
            if traced:
                log.add(ctx)
            else:
                walls.append(wall)
                tile_lat.extend(lat)
                ok_tiles += wl.tiles - failed
            del surface
            i += 1
        rss = peak_rss_mb()
    wl.prepare()
    error = error_rate(out.failed, out.attempted)
    if trace:
        out.metrics = log.metrics(error)
        out.notes.extend(log.share_notes())
    else:
        ms = [x * 1e3 for x in tile_lat]
        out.metrics = {
            "setup_s": (import_s + median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "ops_per_s": (ok_tiles / sum(walls), "1/s"),
            "latency_p50_ms": (percentile(ms, 50.0), "ms"),
            "latency_p90_ms": (tail_percentile(ms, 90.0), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        out.notes.append(f"{len(walls)} runs, {len(ms)} tile latencies, "
                         f"{checked} tiles checked, error_rate={error:g}")
        out.notes.append("run walls s: "
                         + " ".join(f"{w:.3f}" for w in walls))
    return out


# -- serve workload ----------------------------------------------------------

H_VALUES = (0.5, 1.0, 1.5, 2.0)
SEEDS_PER_BURST = 2
#: Client wait between polls of one job document.
POLL_S = 0.002
#: The service keeps every finished result in RAM for its lifetime;
#: replacing it (untimed, then warmed by one untimed burst) every this
#: many bursts bounds the benchmark's memory at 72 retained 512^2 results.
RECYCLE_BURSTS = 8
#: How long the batcher lingers for company.  Long enough that all eight
#: POSTs of a burst (about 1 ms each) join one pass, so each seed's
#: noise is drawn once and a burst always runs as two groups.
BATCH_LINGER_S = 0.03


def serve_spec(h: float, seed: int) -> Dict[str, Any]:
    return {
        "generator": {
            "kind": "convolution",
            "spectrum": {"kind": "gaussian", "h": h, "clx": 24.0,
                         "cly": 24.0},
            "grid": {"nx": TILE, "ny": TILE, "lx": float(TILE),
                     "ly": float(TILE)},
            "truncation": [64, 64],
        },
        "seed": seed,
    }


@dataclass
class Reply:
    h: float
    seed: int
    latency_s: float = 0.0
    post_s: float = 0.0
    result_s: float = 0.0
    polls: int = 0
    digest: Optional[bytes] = None
    ok: bool = False


class ServeClient:
    """An in-process ``ServeServer`` + ``SurfaceService`` and one
    keep-alive client connection to it."""

    def __init__(self, data_dir: Path) -> None:
        from repro.serve import ServeConfig, ServeServer, SurfaceService

        self.service = SurfaceService(ServeConfig(
            data_dir=data_dir, batch_linger_s=BATCH_LINGER_S))
        self.server = ServeServer(self.service)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="bench-serve")
        self.thread.start()
        if not ready.wait(30.0):
            raise RuntimeError("serve front door did not start")
        self.conn = http.client.HTTPConnection(self.server.host,
                                               self.server.port, timeout=60)

    def close(self) -> None:
        self.conn.close()

        async def drain() -> None:
            await self.server.close()
            others = [t for t in asyncio.all_tasks()
                      if t is not asyncio.current_task()]
            if others:
                await asyncio.wait(others, timeout=10.0)
            await self.loop.shutdown_default_executor()

        asyncio.run_coroutine_threadsafe(drain(), self.loop).result(30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30.0)
        self.loop.close()
        self.service.close()

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def burst(self, seeds: Tuple[int, ...]) -> List[Reply]:
        """POST every (h, seed) spec, then poll and download each."""
        sent: List[Tuple[Reply, float, Optional[str]]] = []
        for seed in seeds:
            for h in H_VALUES:
                reply = Reply(h=h, seed=seed)
                body = json.dumps(serve_spec(h, seed)).encode()
                t = time.perf_counter()
                status, data = self.request("POST", "/v1/jobs", body)
                reply.post_s = time.perf_counter() - t
                job = json.loads(data)["id"] if status == 202 else None
                sent.append((reply, t, job))
        for reply, t_sent, job in sent:
            if job is None:
                continue
            deadline = time.monotonic() + 60.0
            state = ""
            while time.monotonic() < deadline:
                status, data = self.request("GET", f"/v1/jobs/{job}")
                reply.polls += 1
                state = json.loads(data).get("state", "") \
                    if status == 200 else "failed"
                if state in ("complete", "failed"):
                    break
                time.sleep(POLL_S)
            if state != "complete":
                continue
            t = time.perf_counter()
            status, data = self.request("GET", f"/v1/jobs/{job}/result")
            now = time.perf_counter()
            reply.result_s = now - t
            reply.latency_s = now - t_sent
            if status == 200:
                heights = np.load(io.BytesIO(data))
                if heights.shape == (TILE, TILE):
                    reply.digest = hashlib.sha1(heights.tobytes()).digest()
                    reply.ok = True
        return [r for r, _t, _j in sent]


def solo_mismatches(replies: List[Reply]) -> int:
    """Replies that failed or differ from a solo ``generate_window``."""
    from repro.core.rng import BlockNoise
    from repro.core.spec import GenerationSpec

    generators = {
        h: GenerationSpec.from_dict(serve_spec(h, 0)).build_generator()
        for h in H_VALUES
    }

    def matches(r: Reply) -> bool:
        if not r.ok:
            return False
        ref = np.asarray(generators[r.h].generate_window(
            BlockNoise(r.seed), 0, 0, TILE, TILE))
        return hashlib.sha1(ref.tobytes()).digest() == r.digest

    # off the clock, so two threads (the FFTs release the GIL) halve it
    with ThreadPoolExecutor(2) as pool:
        return sum(not ok for ok in pool.map(matches, replies))


def run_serve(seed: int, work: Path, seconds: float, trace: bool,
              import_s: float) -> Outcome:
    from repro.core.engine import plan_cache
    from repro.core.spec import GenerationSpec

    out = Outcome()
    data_dir = work / "serve"

    def fresh_client() -> ServeClient:
        shutil.rmtree(data_dir, ignore_errors=True)
        release_memory()
        return ServeClient(data_dir)

    def warm(client: ServeClient, b: int) -> None:
        # first-request costs (generator builds) stay off the clock
        client.burst(tuple(derive_seed(seed, 1, b, k)
                           for k in range(SEEDS_PER_BURST)))

    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        plan_cache.clear()
        client = fresh_client()
        kernel = GenerationSpec.from_dict(
            serve_spec(1.0, 0)).build_generator().kernel
        build_plans([kernel], TILE)
        setups.append(time.perf_counter() - t)
        client.close()

    client = fresh_client()
    log = TraceLog()
    probes = LayerProbes()
    replies: List[Reply] = []
    walls: List[float] = []
    latencies: List[float] = []
    ok_requests = 0
    elapsed = 0.0
    try:
        warm(client, 0)
        b = 0
        while elapsed < seconds:
            if b and b % RECYCLE_BURSTS == 0:
                client.close()
                client = None  # its retained results go before the next
                client = fresh_client()
                warm(client, b)
            seeds = tuple(derive_seed(seed, 0, b, k)
                          for k in range(SEEDS_PER_BURST))
            traced = trace and b % 2 == 1
            gc.collect()
            ctx = _Traced(probes) if traced else None
            t = time.perf_counter()
            if ctx is not None:
                with ctx:
                    got = client.burst(seeds)
            else:
                got = client.burst(seeds)
            wall = time.perf_counter() - t
            elapsed += wall
            replies.extend(got)
            log.walls[traced].append(wall)
            if traced:
                log.add(ctx)
                log.pool("serve.post_ms", [r.post_s * 1e3 for r in got])
                log.pool("serve.result_ms", [r.result_s * 1e3 for r in got
                                             if r.ok])
                log.pool("serve.polls", [float(r.polls) for r in got])
                log.pool("serve.queue_ms", [
                    x * 1e3 for x in queue_delays(probes.batch_items,
                                                  ctx.rec.spans())])
            else:
                walls.append(wall)
                latencies.extend(r.latency_s * 1e3 for r in got if r.ok)
                ok_requests += sum(r.ok for r in got)
            b += 1
        rss = peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    out.attempted = len(replies)
    out.failed = solo_mismatches(replies)
    error = error_rate(out.failed, out.attempted)
    if trace:
        out.metrics = log.metrics(error)
        out.notes.extend(log.share_notes())
    else:
        out.metrics = {
            "setup_s": (import_s + median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "ops_per_s": (ok_requests / sum(walls), "1/s"),
            "latency_p50_ms": (percentile(latencies, 50.0), "ms"),
            "latency_p90_ms": (tail_percentile(latencies, 90.0), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    out.notes.append(f"{len(walls)} untraced bursts, "
                     f"{len(replies)} requests, error_rate={error:g}")
    return out


GENERATION = {HomogStore.name: HomogStore, PointsThread.name: PointsThread}
SERVE = "serve-burst-512"


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        import_s: float) -> Outcome:
    if name == SERVE:
        return run_serve(seed, work, seconds, trace, import_s)
    return run_generation(GENERATION[name](seed, work), seconds, trace,
                          import_s)
