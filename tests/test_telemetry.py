"""Telemetry-plane tests: events, exposition, heartbeats, ``repro top``.

Layered like the subsystem: the JSONL event log alone (bounded queue,
levels, drop accounting), the Prometheus renderer as a pure function,
the :class:`RunTracker` state machine under a fake clock (no sockets,
no sleeps), heartbeat framing over socketpairs — then one live
2-worker coordinator run whose ``/metrics`` + ``/status`` + ``/health``
endpoints are scraped mid-flight, and the ``repro top`` renderer over
both a live endpoint and a bare store bitmap.

The obs contract is asserted throughout: telemetry on vs off never
changes the bytes, and a telemetry-off run needs none of this
machinery at all.

Set ``REPRO_EVENT_LOG_DIR`` to keep the live run's JSONL event log
(CI uploads it as an artifact on failure).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.rng import BlockNoise
from repro.core.spec import GenerationSpec
from repro.core.spectra import GaussianSpectrum
from repro.dist import Coordinator, generate_dist, protocol
from repro.dist.status import (
    EWMA_ALPHA,
    STALE_HEARTBEATS,
    STATUS_SCHEMA,
    RunTracker,
)
from repro.dist.worker import run_worker
from repro.io.store import SurfaceStore
from repro.jobs.faults import FaultSpec
from repro.obs.events import EventLog, new_run_id
from repro.obs.export import prometheus_name, prometheus_text
from repro.obs.httpd import HttpServer
from repro.parallel.executor import generate_tiled
from repro.parallel.tiles import TilePlan

pytestmark = pytest.mark.dist


def _get(url: str) -> tuple:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------
class TestEventLog:
    def test_jsonl_lines_carry_run_and_clocks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="r-test") as log:
            log.emit("dist.worker.join", worker="w0")
            log.emit("dist.tile.failed", level="error", tile=3)
        lines = [json.loads(l) for l in
                 path.read_text().strip().splitlines()]
        assert [l["event"] for l in lines] == [
            "dist.worker.join", "dist.tile.failed"]
        for l in lines:
            assert l["run"] == "r-test"
            assert isinstance(l["ts"], float)
            assert isinstance(l["mono_ns"], int)
        assert lines[0]["lvl"] == "info" and lines[0]["worker"] == "w0"
        assert lines[1]["lvl"] == "error" and lines[1]["tile"] == 3
        # monotonic ordering within a process
        assert lines[0]["mono_ns"] <= lines[1]["mono_ns"]

    def test_level_threshold_filters(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, level="warn") as log:
            log.emit("a", level="debug")
            log.emit("b", level="info")
            log.emit("c", level="warn")
            log.emit("d", level="error")
        events = [json.loads(l)["event"]
                  for l in path.read_text().strip().splitlines()]
        assert events == ["c", "d"]

    def test_bad_levels_raise(self, tmp_path):
        with pytest.raises(ValueError, match="level"):
            EventLog(tmp_path / "e.jsonl", level="loud")
        with EventLog(tmp_path / "e.jsonl") as log:
            with pytest.raises(ValueError, match="level"):
                log.emit("x", level="loud")

    def test_unserialisable_field_degrades_to_repr(self):
        buf = io.StringIO()
        log = EventLog(buf, run_id="r-x")
        log.emit("weird", payload=object())
        log.close()
        rec = json.loads(buf.getvalue())
        assert rec["event"] == "weird"
        assert "object" in rec["payload"]

    def test_full_queue_drops_and_counts(self):
        class _BlockingFile:
            def __init__(self):
                self.entered = threading.Event()
                self.release = threading.Event()
                self.lines = []

            def write(self, s):
                if not self.release.is_set():
                    self.entered.set()
                    self.release.wait(5.0)
                self.lines.append(s)

            def flush(self):
                pass

        f = _BlockingFile()
        log = EventLog(f, run_id="r-q", max_queue=1)
        log.emit("first")                   # writer dequeues, blocks in write
        assert f.entered.wait(5.0)
        log.emit("second")                  # fills the 1-slot queue
        log.emit("third")                   # queue full: dropped, counted
        log.emit("fourth")
        assert log.dropped == 2
        f.release.set()
        log.close()
        events = [json.loads(s)["event"] for s in f.lines]
        assert events == ["first", "second"]

    def test_switchboard_off_is_noop_and_context_restores(self, tmp_path):
        assert obs.get_event_log() is None
        obs.event("nobody.listening", x=1)  # must not raise
        path = tmp_path / "sw.jsonl"
        with obs.event_logging(path, run_id="r-sw") as log:
            assert obs.event_log_enabled()
            assert obs.get_event_log() is log
            obs.event("heard")
        assert obs.get_event_log() is None
        assert json.loads(path.read_text())["event"] == "heard"

    def test_run_ids_are_short_and_unique(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(i.startswith("r-") and len(i) == 10 for i in ids)


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheusExport:
    def test_name_mapping(self):
        assert prometheus_name("dist.tiles_completed") == \
            "repro_dist_tiles_completed"
        assert prometheus_name("a-b.c", prefix="") == "a_b_c"
        assert prometheus_name("9lives", prefix="") == "_9lives"

    def test_counters_and_gauges_render_sorted(self):
        text = prometheus_text({
            "counters": {"dist.tiles_completed": 7},
            "gauges": {"active.regions": 3.5},
        })
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_active_regions gauge" in lines
        assert "repro_active_regions 3.5" in lines
        assert "# TYPE repro_dist_tiles_completed counter" in lines
        assert "repro_dist_tiles_completed 7" in lines
        # sorted by metric name: gauge section precedes the counter's
        assert lines.index("repro_active_regions 3.5") < \
            lines.index("repro_dist_tiles_completed 7")

    def test_histogram_buckets_are_cumulative(self):
        m = obs.Metrics()
        for v in (0.5, 1.5, 99.0):
            m.observe("tile.seconds", v, bounds=(1.0, 2.0))
        text = prometheus_text(m.as_dict())
        assert 'repro_tile_seconds_bucket{le="1"} 1' in text
        assert 'repro_tile_seconds_bucket{le="2"} 2' in text
        assert 'repro_tile_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_tile_seconds_count 3" in text
        assert "repro_tile_seconds_sum 101" in text

    def test_extra_gauges_merge_in(self):
        text = prometheus_text(
            {"counters": {}, "gauges": {}},
            extra_gauges={"dist.status.progress": 0.25},
        )
        assert "repro_dist_status_progress 0.25" in text

    def test_empty_metrics_is_empty_text(self):
        assert prometheus_text({}) == ""


# ---------------------------------------------------------------------------
# run tracker (fake clock — no sleeps)
# ---------------------------------------------------------------------------
class TestRunTracker:
    def _tracker(self, heartbeat_s=1.0):
        clock = {"t": 0.0}
        tr = RunTracker(run_id="r-trk", heartbeat_s=heartbeat_s,
                        clock=lambda: clock["t"])
        return tr, clock

    def test_stale_after_missed_heartbeat_deadline(self):
        tr, clock = self._tracker(heartbeat_s=1.0)
        assert tr.stale_after_s == STALE_HEARTBEATS * 1.0
        tr.worker_connected("w0", 0.0)
        tr.heartbeat("w0", 0.0, tile=4, attempt=1)
        clock["t"] = 2.9                      # within 3 intervals: healthy
        assert tr.worker_rows()[0]["state"] == "busy"
        clock["t"] = 3.1                      # deadline missed
        assert tr.worker_rows()[0]["state"] == "stale"
        tr.heartbeat("w0", 3.2)               # next frame revives it
        clock["t"] = 3.3
        assert tr.worker_rows()[0]["state"] == "busy"

    def test_no_heartbeats_means_never_stale(self):
        tr, clock = self._tracker(heartbeat_s=None)
        assert tr.stale_after_s is None
        tr.worker_connected("w0", 0.0)
        clock["t"] = 1e6
        assert tr.worker_rows()[0]["state"] == "idle"
        tr.worker_gone("w0", clock["t"])
        assert tr.worker_rows()[0]["state"] == "gone"

    def test_ewma_throughput_and_eta(self):
        tr, clock = self._tracker()
        tr.worker_connected("w0", 0.0)
        for t in (1.0, 2.0, 3.0, 4.0):        # one completion per second
            tr.tile_completed("w0", t, seconds=0.5)
        assert tr.throughput() == pytest.approx(1.0)
        doc = tr.snapshot(tiles_total=10, tiles_done=4, leased=1,
                          lease_summary={}, now=4.0)
        assert doc["eta_s"] == pytest.approx(6.0)
        assert doc["throughput_tiles_per_s"] == pytest.approx(1.0)

    def test_duplicate_completions_do_not_inflate_rate(self):
        tr, _ = self._tracker()
        tr.tile_completed("w0", 1.0)
        tr.tile_completed("w1", 1.001, first=False)   # straggler duplicate
        assert tr.throughput() is None                # still only 1 real one
        tr.tile_completed("w0", 2.0)
        assert tr.throughput() == pytest.approx(1.0)

    def test_ewma_tracks_phase_change(self):
        tr, _ = self._tracker()
        tr.tile_completed("w0", 1.0)
        tr.tile_completed("w0", 2.0)          # 1 tile/s
        tr.tile_completed("w0", 2.5)          # burst: 2 tiles/s
        assert tr.throughput() == pytest.approx(
            EWMA_ALPHA * 2.0 + (1 - EWMA_ALPHA) * 1.0)

    def test_snapshot_schema_document(self):
        tr, clock = self._tracker(heartbeat_s=0.5)
        tr.worker_connected("w0", 0.0)
        tr.lease_granted("w0", 7, 1, 0.1)
        clock["t"] = 1.0
        doc = tr.snapshot(tiles_total=16, tiles_done=4, leased=1,
                          lease_summary={"granted": 5, "completed": 4})
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["run_id"] == "r-trk"
        assert doc["state"] == "running"
        assert doc["tiles"] == {"total": 16, "done": 4,
                                "pending": 12, "leased": 1}
        assert doc["progress"] == pytest.approx(0.25)
        assert doc["heartbeat_s"] == 0.5
        assert doc["lease"]["granted"] == 5
        (w,) = doc["workers"]
        assert w["name"] == "w0" and w["state"] == "busy"
        assert w["tile"] == 7 and w["attempt"] == 1

    def test_utilization_is_busy_fraction_capped(self):
        tr, clock = self._tracker()
        tr.worker_connected("w0", 0.0)
        tr.heartbeat("w0", 2.0, busy_s=1.0)
        clock["t"] = 4.0
        (w,) = tr.worker_rows()
        assert w["utilization"] == pytest.approx(0.25)
        tr.heartbeat("w0", 4.0, busy_s=1e9)   # claimed > alive: capped
        (w,) = tr.worker_rows()
        assert w["utilization"] == 1.0


# ---------------------------------------------------------------------------
# heartbeat framing
# ---------------------------------------------------------------------------
class TestHeartbeatFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_heartbeat_round_trip(self):
        a, b = self._pair()
        with a, b:
            msg = {"type": "heartbeat", "tile": 12, "attempt": 2,
                   "tiles_done": 5, "busy_s": 3.25, "obs": None}
            protocol.send_json(a, msg)
            assert protocol.recv_json(b) == msg
            protocol.send_json(b, {"type": "ack"})
            assert protocol.recv_json(a) == {"type": "ack"}

    def test_heartbeat_with_obs_payload_round_trips(self):
        rec = obs.Recorder()
        rec.add("engine.tiles", 3)
        a, b = self._pair()
        with a, b:
            protocol.send_json(a, {"type": "heartbeat", "tile": 0,
                                   "attempt": 1, "tiles_done": 0,
                                   "busy_s": 0.0, "obs": rec.drain()})
            got = protocol.recv_json(b)
        assert got["obs"]["metrics"]["counters"]["engine.tiles"] == 3
        assert got["obs"]["max_spans"] == rec.max_spans

    def test_oversized_heartbeat_frame_refused(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 128)
        a, b = self._pair()
        with a, b:
            with pytest.raises(protocol.ProtocolError, match="refusing"):
                protocol.send_json(a, {"type": "heartbeat",
                                       "padding": "x" * 256})


# ---------------------------------------------------------------------------
# status server over canned snapshots
# ---------------------------------------------------------------------------
class TestStatusServer:
    def _server(self, doc=None, metrics=None, **kw):
        return HttpServer(
            lambda: doc if doc is not None else {"state": "running"},
            lambda: metrics if metrics is not None else
            {"counters": {"dist.heartbeats": 4}},
            **kw,
        )

    def test_health_status_metrics_and_404(self):
        doc = {"schema": STATUS_SCHEMA, "state": "running",
               "tiles": {"total": 4, "done": 1}}
        server = self._server(doc=doc)
        host, port = server.start_thread()
        try:
            code, ctype, body = _get(f"http://{host}:{port}/health")
            assert code == 200 and json.loads(body) == {"ok": True}
            code, ctype, body = _get(f"http://{host}:{port}/status")
            assert code == 200 and ctype == "application/json"
            assert json.loads(body) == doc
            code, ctype, body = _get(f"http://{host}:{port}/metrics")
            assert code == 200 and "version=0.0.4" in ctype
            assert "repro_dist_heartbeats 4" in body.decode()
            with pytest.raises(urllib.request.HTTPError) as err:
                _get(f"http://{host}:{port}/nope")
            assert err.value.code == 404
            with err.value:
                assert json.loads(err.value.read())["status"] == 404
        finally:
            server.stop_thread()

    def test_extra_gauges_reach_metrics(self):
        server = self._server(
            metrics={"counters": {}},
            extra_gauges_fn=lambda: {"dist.status.progress": 0.5},
        )
        host, port = server.start_thread()
        try:
            _, _, body = _get(f"http://{host}:{port}/metrics")
            assert "repro_dist_status_progress 0.5" in body.decode()
        finally:
            server.stop_thread()

    def test_snapshot_exception_is_a_500_not_a_crash(self):
        def boom():
            raise RuntimeError("snapshot bug")

        server = HttpServer(boom, lambda: {})
        host, port = server.start_thread()
        try:
            with pytest.raises(urllib.request.HTTPError) as err:
                _get(f"http://{host}:{port}/status")
            err.value.close()
            assert err.value.code == 500
            # the serve loop survives: the next request still answers
            code, _, _ = _get(f"http://{host}:{port}/health")
            assert code == 200
        finally:
            server.stop_thread()


def test_import_repro_loads_no_http_module():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, repro; print(sorted(m for m in "
            "('http.server', 'asyncio', 'repro.obs.httpd') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def exposition_servers(tmp_path_factory):
    """A live coordinator's status port and a live ServeServer."""
    from repro.serve import ServeConfig

    from .test_serve import _Harness

    coord, store = _idle_coordinator(tmp_path_factory.mktemp("coord"))
    coord.start()
    host, port = coord.status_address
    serve = _Harness(ServeConfig(data_dir=tmp_path_factory.mktemp("serve")))
    try:
        yield [f"http://{host}:{port}", serve.url]
    finally:
        serve.close()
        _stop(coord, store)


@pytest.mark.parametrize("path", ["/health", "/status", "/status/",
                                  "/metrics"])
@pytest.mark.parametrize("method", ["GET", "HEAD"])
def test_both_servers_answer_exposition_paths_alike(exposition_servers,
                                                    method, path):
    replies = []
    for base in exposition_servers:
        req = urllib.request.Request(base + path, method=method)
        try:
            with urllib.request.urlopen(req, timeout=5.0) as resp:
                replies.append((resp.status,
                                resp.headers.get("Content-Type")))
        except urllib.request.HTTPError as exc:
            with exc:
                replies.append((exc.code, exc.headers.get("Content-Type")))
    assert replies[0] == replies[1]
    assert replies[0][0] == 200


# ---------------------------------------------------------------------------
# live coordinator run: endpoints + events + bit-identity
# ---------------------------------------------------------------------------
def _problem(n, tile, seed, cl=8.0):
    grid = Grid2D(nx=n, ny=n, lx=float(n), ly=float(n))
    spectrum = GaussianSpectrum(h=1.0, clx=cl, cly=cl)
    gen = ConvolutionGenerator(spectrum, grid, truncation=0.9999)
    recipe = {
        "kind": "convolution",
        "spectrum": spectrum.to_dict(),
        "grid": {"nx": n, "ny": n, "lx": float(n), "ly": float(n)},
        "truncation": 0.9999,
        "engine": "auto",
        "dtype": "float64",
    }
    plan = TilePlan(total_nx=n, total_ny=n, tile_nx=tile, tile_ny=tile)
    return gen, recipe, BlockNoise(seed=seed), plan, grid


def _spec(recipe, noise, plan, **fields):
    """The run spec ``generate_dist`` takes for ``_problem``'s pieces."""
    return GenerationSpec(
        generator=recipe, seed=noise.seed,
        plan={"total_nx": plan.total_nx, "total_ny": plan.total_ny,
              "tile_nx": plan.tile_nx, "tile_ny": plan.tile_ny},
        **fields,
    )


def _store_for(tmp_path, name, n, tile, grid):
    return SurfaceStore.create(
        tmp_path / name, shape=(n, n), chunk=(tile, tile),
        dx=grid.dx, dy=grid.dy, meta={},
    )


def _idle_coordinator(tmp_path, status_port=0):
    """A worker-less coordinator over a 2x2-tile store (not started)."""
    gen, recipe, noise, plan, grid = _problem(64, 32, seed=31)
    store = _store_for(tmp_path, "idle", 64, 32, grid)
    spec = _spec(recipe, noise, plan, store_path=str(store.path))
    return Coordinator(spec, plan, store, status_port=status_port), store


def _stop(coord, store):
    """End a worker-less run: abort it, and let ``serve`` shut it down."""
    coord.abort(RuntimeError("run stopped by the test"))
    try:
        with pytest.raises(RuntimeError, match="stopped by the test"):
            coord.serve(timeout=10.0)
    finally:
        store.close()


class TestCoordinatorStatusPort:
    """The coordinator runs the one HTTP server on a loop thread."""

    def test_stop_with_idle_keepalive_client_is_prompt(self, tmp_path):
        before = set(threading.enumerate())
        coord, store = _idle_coordinator(tmp_path)
        coord.start()
        conn = http.client.HTTPConnection(*coord.status_address,
                                          timeout=5.0)
        try:
            conn.request("GET", "/health")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read()) == {"ok": True}
            # the connection stays open and idle across the stop
            t0 = time.monotonic()
            _stop(coord, store)
            assert time.monotonic() - t0 <= 1.0
            assert set(threading.enumerate()) <= before
            assert coord.status_address is None
        finally:
            conn.close()

    def test_status_port_in_use_raises_and_leaves_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        with socket.create_server(("127.0.0.1", 0)) as busy:
            coord, store = _idle_coordinator(
                tmp_path, status_port=busy.getsockname()[1])
            try:
                with pytest.raises(OSError):
                    coord.start()
            finally:
                store.close()
        assert set(threading.enumerate()) <= before
        assert coord.status_address is None
        # the worker port bound before the status port is released too
        socket.create_server(coord.address).close()

    def test_malformed_request_is_400_and_server_lives(self, tmp_path):
        from .test_serve import _read_to_eof

        coord, store = _idle_coordinator(tmp_path)
        coord.start()
        host, port = coord.status_address
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b"NOT AN HTTP REQUEST\r\n\r\n")
                reply = _read_to_eof(sock)  # the server closes after it
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            code, _, body = _get(f"http://{host}:{port}/health")
            assert code == 200 and json.loads(body) == {"ok": True}
        finally:
            _stop(coord, store)


class TestLiveTelemetry:
    def test_two_worker_run_exposes_endpoints_and_events(self, tmp_path):
        """The PR-8 acceptance drill: a live 2-worker run serves
        ``/metrics`` + ``/status`` + ``/health`` while computing, emits
        structured events, and the final document accounts for every
        tile."""
        gen, recipe, noise, plan, grid = _problem(128, 32, seed=21)
        store = _store_for(tmp_path, "live", 128, 32, grid)
        # one delayed tile keeps the run in flight long enough that the
        # mid-run scrapes below observe real progress deterministically
        slow = FaultSpec(tile=15, attempt=1, kind="delay", delay_s=0.5)
        spec = GenerationSpec(generator=recipe, seed=21,
                              plan={"total_nx": 128, "total_ny": 128,
                                    "tile_nx": 32, "tile_ny": 32},
                              store_path=str(store.path), access="shared",
                              faults=[slow.to_dict()])
        events_dir = os.environ.get("REPRO_EVENT_LOG_DIR", str(tmp_path))
        events_path = os.path.join(events_dir, "telemetry_events.jsonl")
        coord = Coordinator(spec, plan, store, lease_timeout_s=60.0,
                            heartbeat_s=0.1, status_port=0)
        last_doc = None
        try:
            with obs.event_logging(events_path, run_id=coord.run_id,
                                   level="debug"):
                host, port = coord.start()
                shost, sport = coord.status_address
                base = f"http://{shost}:{sport}"

                # before any worker: endpoints live, nothing done
                code, _, body = _get(base + "/health")
                assert code == 200 and json.loads(body) == {"ok": True}
                doc = json.loads(_get(base + "/status")[2])
                assert doc["schema"] == STATUS_SCHEMA
                assert doc["run_id"] == coord.run_id
                assert doc["state"] == "running"
                assert doc["tiles"] == {"total": 16, "done": 0,
                                        "pending": 16, "leased": 0}
                assert doc["heartbeat_s"] == 0.1
                metrics = _get(base + "/metrics")[2].decode()
                assert "repro_dist_status_tiles_total 16" in metrics
                assert metrics.endswith("\n")

                served = {}

                def _serve():
                    served["summary"] = coord.serve(timeout=120.0)

                st = threading.Thread(target=_serve, daemon=True)
                st.start()
                threads = [
                    threading.Thread(target=run_worker, args=(host, port),
                                     daemon=True)
                    for _ in range(2)
                ]
                for t in threads:
                    t.start()

                # scrape while the run is in flight; the delayed tile
                # holds the run open so mid-run progress is observable
                midrun = None
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    try:
                        doc = json.loads(_get(base + "/status")[2])
                    except OSError:
                        break  # run finished, server stopped
                    last_doc = doc
                    if (midrun is None and doc["state"] == "running"
                            and 1 <= doc["tiles"]["done"] < 16):
                        midrun = doc
                    if doc["tiles"]["done"] >= 16:
                        break
                    time.sleep(0.05)
                st.join(timeout=120.0)
                for t in threads:
                    t.join(timeout=60.0)
                assert not st.is_alive()
        finally:
            store.close()

        assert served["summary"]["lease"]["completed"] == 16
        # a mid-flight scrape saw a live, partially-complete run ...
        assert midrun is not None
        assert midrun["tiles"]["pending"] >= 1
        assert len(midrun["workers"]) == 2
        assert all(w["state"] in ("busy", "idle", "stale")
                   for w in midrun["workers"])
        # ... and the final observed document accounts for the progress
        assert last_doc is not None
        assert last_doc["tiles"]["total"] == 16
        assert last_doc["tiles"]["done"] >= midrun["tiles"]["done"]

        # the event log tells the run's story in order
        events = [json.loads(l)
                  for l in open(events_path, encoding="utf-8")]
        names = [e["event"] for e in events]
        assert "dist.run.start" in names
        assert names.count("dist.worker.join") == 2
        assert names.count("dist.tile.complete") == 16
        assert "dist.run.finish" in names
        assert all(e["run"] == coord.run_id for e in events)
        assert names.index("dist.run.start") < \
            names.index("dist.run.finish")

    def test_heights_bit_identical_telemetry_on_vs_off(self, tmp_path):
        """The obs contract on the dist path: heartbeats + status
        server may cost milliseconds, never bits."""
        gen, recipe, noise, plan, grid = _problem(128, 32, seed=23)
        ref = generate_tiled(gen, noise, plan, backend="serial")

        store_off = _store_for(tmp_path, "off", 128, 32, grid)
        try:
            off = generate_dist(_spec(recipe, noise, plan), store_off,
                                workers=2)
            heights_off = np.array(off.heights)
        finally:
            store_off.close()

        store_on = _store_for(tmp_path, "on", 128, 32, grid)
        try:
            on = generate_dist(_spec(recipe, noise, plan), store_on,
                               workers=2, heartbeat_s=0.05, status_port=0,
                               run_id="r-gate")
            heights_on = np.array(on.heights)
            dist_prov = on.provenance["dist"]
            assert dist_prov["run_id"] == "r-gate"
            assert dist_prov["heartbeat_s"] == 0.05
        finally:
            store_on.close()

        assert np.array_equal(heights_off, ref.heights)
        assert np.array_equal(heights_on, heights_off)

    def test_heartbeat_obs_totals_are_deterministic(self, tmp_path):
        """Worker drains ride both heartbeat and complete frames; the
        partition must never double- or under-count: merged tile
        counters equal the plan size exactly, run after run."""
        gen, recipe, noise, plan, grid = _problem(96, 32, seed=25)
        totals = []
        for attempt in range(2):
            store = _store_for(tmp_path, f"det{attempt}", 96, 32, grid)
            try:
                with obs.recording() as rec:
                    generate_dist(_spec(recipe, noise, plan), store, workers=2,
                                  heartbeat_s=0.05)
                    counters = rec.metrics.counters()
            finally:
                store.close()
            assert counters["dist.tiles_completed"] == len(plan)
            # worker-side counters arrive via drains split across
            # heartbeat and complete frames; the merged dispatch total
            # must still be exactly one per tile
            dispatch = sum(v for k, v in counters.items()
                           if k.startswith("conv.dispatch."))
            totals.append((counters["dist.tiles_completed"], dispatch))
        assert totals[0] == totals[1]
        assert totals[0][1] == len(plan)


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------
class TestTopCommand:
    def test_top_once_against_live_endpoint(self, capsys):
        doc = {
            "schema": STATUS_SCHEMA, "run_id": "r-top", "state": "running",
            "elapsed_s": 12.5, "progress": 0.25,
            "tiles": {"total": 16, "done": 4, "pending": 12, "leased": 2},
            "throughput_tiles_per_s": 2.0, "eta_s": 6.0,
            "lease": {"granted": 6, "completed": 4, "duplicates": 0,
                      "expired": 0, "worker_releases": 0, "failures": 0},
            "heartbeat_s": 0.5,
            "workers": [
                {"name": "w0", "state": "busy", "tile": 7, "attempt": 1,
                 "tiles_done": 2, "busy_s": 5.0, "utilization": 0.4,
                 "last_seen_age_s": 0.1},
                {"name": "w1", "state": "idle", "tile": None,
                 "attempt": None, "tiles_done": 2, "busy_s": 4.0,
                 "utilization": 0.32, "last_seen_age_s": 0.2},
            ],
        }
        server = HttpServer(lambda: doc, lambda: {})
        host, port = server.start_thread()
        try:
            rc = cli_main(["top", "--connect", f"{host}:{port}", "--once"])
        finally:
            server.stop_thread()
        assert rc == 0
        out = capsys.readouterr().out
        assert "run r-top" in out
        assert "tiles 4/16 (25.0%)" in out
        assert "eta 6s" in out
        assert "WORKER" in out and "w0" in out and "w1" in out
        assert "busy" in out and "idle" in out

    def test_top_json_mode_emits_the_document(self, capsys):
        doc = {"schema": STATUS_SCHEMA, "state": "complete",
               "tiles": {"total": 2, "done": 2}}
        server = HttpServer(lambda: doc, lambda: {})
        host, port = server.start_thread()
        try:
            rc = cli_main(["top", "--connect", f"{host}:{port}",
                           "--once", "--json"])
        finally:
            server.stop_thread()
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == doc

    def test_top_store_fallback_reads_the_bitmap(self, tmp_path, capsys):
        gen, recipe, noise, plan, grid = _problem(64, 32, seed=27)
        store = _store_for(tmp_path, "topstore", 64, 32, grid)
        store.close()
        rc = cli_main(["top", "--store", str(tmp_path / "topstore"),
                       "--once", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["source"] == "store"
        assert doc["state"] == "running"
        assert doc["tiles"] == {"total": 4, "done": 0,
                                "pending": 4, "leased": None}

    def test_top_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            cli_main(["top", "--once"])
        with pytest.raises(SystemExit, match="exactly one"):
            cli_main(["top", "--connect", "h:1", "--store",
                      str(tmp_path), "--once"])

    def test_top_unreachable_endpoint_fails_loud(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            cli_main(["top", "--connect", "127.0.0.1:1", "--once"])
