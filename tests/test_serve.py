"""End-to-end and unit tests for the ``repro.serve`` front door.

Tier-1 (``serve`` marker): exercises the asyncio HTTP server over real
sockets — submit a spec, poll the job, range-read the result — plus the
HTTP-free :class:`~repro.serve.service.SurfaceService` core and the
shared-spectrum batcher.  All assertions are on determinism (served
bytes == direct generation bytes), never timing.
"""

import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.spec import GenerationSpec
from repro.dist.status import STATUS_SCHEMA
from repro.parallel.executor import generate_tiled
from repro.serve import (
    HttpError,
    ServeConfig,
    ServeServer,
    SurfaceService,
    TenantBusy,
    parse_range,
)

pytestmark = pytest.mark.serve

DEADLINE_S = 60.0


def spec_doc(h=1.0, seed=5, n=64, tile=None, **extra):
    doc = {
        "schema": "repro.spec/v1",
        "generator": {
            "kind": "convolution",
            "spectrum": {"kind": "gaussian", "h": h, "clx": 8.0, "cly": 8.0},
            "grid": {"nx": n, "ny": n, "lx": float(n), "ly": float(n)},
            "truncation": 0.9999,
            "engine": "auto",
            "dtype": "float64",
        },
        "seed": seed,
    }
    if tile is not None:
        doc["tile"] = tile
    doc.update(extra)
    return doc


def reference_window(doc):
    """Direct solo generation of the spec's (normalised) window."""
    spec = GenerationSpec.from_dict(doc)
    gen = spec.build_generator()
    nx, ny = spec.grid_shape
    return np.asarray(gen.generate_window(spec.noise(), 0, 0, nx, ny))


def wait_complete(get_doc, job_id):
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        doc = get_doc(job_id)
        if doc["state"] in ("complete", "failed"):
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish in {DEADLINE_S}s")


class TestParseRange:
    def test_no_header(self):
        assert parse_range(None, 100) is None

    @pytest.mark.parametrize("header, size, expect", [
        ("bytes=0-127", 1000, (0, 128)),
        ("bytes=500-", 1000, (500, 500)),
        ("bytes=-100", 1000, (900, 100)),
        ("bytes=-2000", 1000, (0, 1000)),     # suffix longer than entity
        ("bytes=0-99999", 100, (0, 100)),     # end clamped
        ("bytes=99-99", 100, (99, 1)),
    ])
    def test_satisfiable(self, header, size, expect):
        assert parse_range(header, size) == expect

    @pytest.mark.parametrize("header", [
        "items=0-1",            # unknown unit
        "bytes=0-1,5-6",        # multipart
        "bytes=5",              # no dash
        "bytes=abc-def",
        "bytes=100-",           # at/after end
        "bytes=9-5",            # inverted
        "bytes=-0",             # empty suffix
    ])
    def test_unsatisfiable_raises_416(self, header):
        with pytest.raises(HttpError) as exc:
            parse_range(header, 100)
        assert exc.value.status == 416


@pytest.fixture
def service(tmp_path):
    svc = SurfaceService(ServeConfig(data_dir=tmp_path / "serve"))
    yield svc
    svc.close()


class TestService:
    def test_small_job_bit_identical(self, service):
        doc = spec_doc(seed=11)
        job = service.submit(doc)
        assert job["state"] in ("queued", "running", "complete")
        done = wait_complete(service.job_doc, job["id"])
        assert done["state"] == "complete", done["error"]
        assert done["result"]["kind"] == "inline"
        body = service.result_npy(job["id"])
        served = np.load(io.BytesIO(body))
        assert served.tobytes() == reference_window(doc).tobytes()

    def test_invalid_spec_names_field(self, service):
        from repro.core.spec import SpecError

        doc = spec_doc()
        doc["generator"]["grid"]["nx"] = 0
        with pytest.raises(SpecError) as exc:
            service.submit(doc)
        assert exc.value.field == "generator.grid.nx"

    def test_faults_rejected(self, service):
        from repro.core.spec import SpecError

        with pytest.raises(SpecError, match="fault"):
            service.submit(spec_doc(faults=[{"kind": "crash"}]))

    def test_unknown_job_raises_keyerror(self, service):
        with pytest.raises(KeyError):
            service.job_doc("nope")

    def test_status_doc_schema(self, service):
        doc = service.status_doc()
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["source"] == "serve"
        assert set(doc["serve"]["jobs"]) == {"queued", "running",
                                             "complete", "failed"}


class TestTenantLimits:
    def test_zero_limit_rejects_with_retry_after(self, tmp_path):
        svc = SurfaceService(ServeConfig(
            data_dir=tmp_path / "serve",
            tenant_max_active=0, tenant_max_queued=0, retry_after_s=2.5,
        ))
        try:
            with pytest.raises(TenantBusy) as exc:
                svc.submit(spec_doc())
            assert exc.value.retry_after_s == 2.5
            assert exc.value.tenant == "public"
        finally:
            svc.close()

    def test_limits_are_per_tenant(self, tmp_path):
        # long linger keeps small jobs "running", pinning the inflight
        # count without any timing assumptions
        svc = SurfaceService(ServeConfig(
            data_dir=tmp_path / "serve", batch_linger_s=30.0,
            tenant_max_active=1, tenant_max_queued=0,
        ))
        try:
            svc.submit(spec_doc(seed=1), tenant="alice")
            with pytest.raises(TenantBusy):
                svc.submit(spec_doc(seed=2), tenant="alice")
            # a different tenant is admitted despite alice being full
            svc.submit(spec_doc(seed=3), tenant="bob")
            doc = svc.status_doc()
            assert doc["serve"]["tenants"]["alice"]["inflight"] == 1
            assert doc["serve"]["tenants"]["bob"]["inflight"] == 1
        finally:
            svc.close()


class TestBatching:
    def test_shared_spectrum_requests_batch_and_match_solo(self, tmp_path):
        """8 concurrent same-noise requests -> one engine pass, and every
        reply is bit-identical to solo windowed generation."""
        svc = SurfaceService(ServeConfig(
            data_dir=tmp_path / "serve", batch_linger_s=0.5,
            tenant_max_active=8, tenant_max_queued=8,
        ))
        try:
            h_values = [0.5, 1.0, 1.5, 2.0]
            docs = [spec_doc(h=h_values[i % 4], seed=7) for i in range(8)]
            ids = [svc.submit(doc)["id"] for doc in docs]
            done = [wait_complete(svc.job_doc, i) for i in ids]
            for doc in done:
                assert doc["state"] == "complete", doc["error"]
            # all 8 landed in one group (same seed/window/footprint),
            # and value-equal kernels collapsed to 4 distinct passes
            for doc in done:
                assert doc["result"]["batched_with"] == 8
                assert doc["result"]["distinct_kernels"] == 4
            for req, job_id in zip(docs, ids):
                served = np.load(io.BytesIO(svc.result_npy(job_id)))
                assert served.tobytes() == reference_window(req).tobytes()
        finally:
            svc.close()

    def test_different_seeds_do_not_share_bytes(self, tmp_path):
        svc = SurfaceService(ServeConfig(
            data_dir=tmp_path / "serve", batch_linger_s=0.2,
        ))
        try:
            a = svc.submit(spec_doc(seed=1))["id"]
            b = svc.submit(spec_doc(seed=2))["id"]
            wait_complete(svc.job_doc, a)
            wait_complete(svc.job_doc, b)
            assert (service_bytes(svc, a) != service_bytes(svc, b))
        finally:
            svc.close()


def service_bytes(svc, job_id):
    return np.load(io.BytesIO(svc.result_npy(job_id))).tobytes()


def _noise_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("serve-noise")]


#: Two requests per seed: one kernel, two scales of one kernel (one
#: group, two inverse FFTs), or two kernel shapes (two groups).
KERNELS = {
    "shared": [{"h": 1.0}, {"h": 1.0}],
    "scaled": [{"h": 0.5}, {"h": 2.0}],
    "shapes": [{"h": 1.0}, {"h": 1.0, "cl": 12.0}],
}


def _kernel_doc(seed, h=1.0, cl=8.0):
    doc = spec_doc(h=h, seed=seed)
    doc["generator"]["spectrum"].update(clx=cl, cly=cl)
    return doc


def _burst(svc, seeds, kernels):
    """Submit two requests per seed in one linger; the finished docs."""
    docs = [_kernel_doc(seed, **kw) for seed in seeds for kw in KERNELS[kernels]]
    ids = [svc.submit(doc)["id"] for doc in docs]
    done = [wait_complete(svc.job_doc, i) for i in ids]
    for doc in done:
        assert doc["state"] == "complete", doc["error"]
    return docs, ids, done


class TestNoiseAhead:
    """The batcher's helper thread draws each group's noise window
    during the linger and one group ahead; replies must not change."""

    @staticmethod
    def _service(tmp_path, linger_s=0.5):
        return SurfaceService(ServeConfig(
            data_dir=tmp_path / "serve", batch_linger_s=linger_s,
            tenant_max_active=16, tenant_max_queued=16,
        ))

    @pytest.mark.parametrize("kernels", sorted(KERNELS))
    @pytest.mark.parametrize("n_seeds", [1, 2, 5])
    def test_replies_match_solo_windows(self, tmp_path, n_seeds, kernels):
        svc = self._service(tmp_path)
        try:
            docs, ids, done = _burst(svc, range(3, 3 + n_seeds), kernels)
            per_group = 1 if kernels == "shapes" else 2
            for doc in done:
                assert doc["result"]["batched_with"] == per_group
            for req, job_id in zip(docs, ids):
                assert service_bytes(svc, job_id) == \
                    reference_window(req).tobytes()
        finally:
            svc.close()

    def test_a_failed_helper_draw_falls_back_to_the_group(
            self, tmp_path, monkeypatch):
        from repro.serve import batch

        read = batch._read_noise
        calls = []

        def fails_once_on_the_helper(item):
            name = threading.current_thread().name
            calls.append(name)
            if name.startswith("serve-noise") and len(calls) == 1:
                raise RuntimeError("helper draw fails")
            return read(item)

        monkeypatch.setattr(batch, "_read_noise", fails_once_on_the_helper)
        svc = self._service(tmp_path)
        try:
            docs, ids, _ = _burst(svc, [4], "scaled")
            for req, job_id in zip(docs, ids):
                assert service_bytes(svc, job_id) == \
                    reference_window(req).tobytes()
        finally:
            svc.close()
        assert calls[0].startswith("serve-noise")
        assert calls[1] == "serve-batcher"  # the group drew it itself

    def test_no_helper_thread_outlives_stop_or_close(self, tmp_path):
        from repro.serve.batch import Batcher

        others = set(_noise_threads())  # any that another test left running
        svc = self._service(tmp_path, linger_s=0.05)
        try:
            _burst(svc, [5], "shared")
            assert len(set(_noise_threads()) - others) == 1
        finally:
            svc.close()
        assert not set(_noise_threads()) - others
        batcher = Batcher(linger_s=0.0)
        batcher.start()
        batcher.stop()
        assert not set(_noise_threads()) - others

    def test_at_most_two_windows_in_flight(self, tmp_path, monkeypatch):
        """Five seeds in two shapes: ten groups.  Each group's window is
        queued before the group before it runs, and a window is in
        flight from its queueing to the end of its group's pass."""
        from repro.serve.batch import Batcher

        events = []
        ahead, execute = Batcher._ahead, Batcher._execute

        def logged_ahead(self, item):
            events.append("queue")
            return ahead(self, item)

        def logged_execute(self, members, noise):
            events.append("run")
            try:
                return execute(self, members, noise)
            finally:
                events.append("done")

        monkeypatch.setattr(Batcher, "_ahead", logged_ahead)
        monkeypatch.setattr(Batcher, "_execute", logged_execute)
        svc = self._service(tmp_path)
        try:
            _burst(svc, range(10, 15), "shapes")
        finally:
            svc.close()
        assert events.count("run") == events.count("queue") == 10
        in_flight = peak = 0
        for event in events:
            in_flight += {"queue": 1, "run": 0, "done": -1}[event]
            peak = max(peak, in_flight)
        assert peak == 2
        # the next group's window is queued just before each group runs
        assert events[:3] == ["queue", "queue", "run"]

    def test_a_traced_bench_burst_draws_each_block_once(self, tmp_path):
        """Eight 512^2 requests (two seeds, four h) of 129^2 kernels:
        two groups, each drawing its 640^2 window's 16 blocks of 256^2
        once, on the helper thread."""
        from repro import obs

        def bench_doc(h, seed):
            return {
                "generator": {
                    "kind": "convolution",
                    "spectrum": {"kind": "gaussian", "h": h, "clx": 24.0,
                                 "cly": 24.0},
                    "grid": {"nx": 512, "ny": 512, "lx": 512.0,
                             "ly": 512.0},
                    "truncation": [64, 64],
                },
                "seed": seed,
            }

        # long enough for the eight first-time generator builds
        svc = self._service(tmp_path, linger_s=1.0)
        try:
            docs = [bench_doc(h, seed) for seed in (1, 2)
                    for h in (0.5, 1.0, 1.5, 2.0)]
            with obs.recording() as rec:
                ids = [svc.submit(doc)["id"] for doc in docs]
                done = [wait_complete(svc.job_doc, i) for i in ids]
            assert [d["result"]["batched_with"] for d in done] == [4] * 8
            for req, job_id in zip(docs, ids):
                assert service_bytes(svc, job_id) == \
                    reference_window(req).tobytes()
        finally:
            svc.close()
        assert rec.metrics.counters("rng.")["rng.blocks_drawn"] == 32
        spans = rec.spans()
        batcher = {s[4] for s in spans if s[0] == "serve.batch"}
        noise = {s[4] for s in spans if s[0] == "rng.noise"}
        assert len(batcher) == len(noise) == 1
        assert noise != batcher
        assert any(s[0] == "serve.linger" and s[4] in batcher
                   for s in spans)


# -- HTTP end-to-end ----------------------------------------------------


def _read_to_eof(sock):
    chunks = []
    while True:
        piece = sock.recv(1 << 16)
        if not piece:
            return b"".join(chunks)
        chunks.append(piece)


class _Harness:
    """Run the front door on its own loop thread; client via urllib."""

    def __init__(self, config):
        self.service = SurfaceService(config)
        self.server = ServeServer(self.service)
        host, port = self.server.start_thread()
        self.url = f"http://{host}:{port}"

    def close(self):
        self.server.stop_thread()
        self.service.close()

    def raw(self, data):
        """Send ``data``, half-close, and return every byte replied."""
        with socket.create_connection(self.server.address,
                                      timeout=30) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            return _read_to_eof(sock)

    def request(self, path, method="GET", body=None, headers=None):
        req = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, dict(exc.headers), exc.read()

    def get_json(self, path):
        status, _, body = self.request(path)
        return status, json.loads(body)

    def submit(self, doc, tenant=None):
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Tenant"] = tenant
        return self.request("/v1/jobs", method="POST",
                            body=json.dumps(doc).encode(), headers=headers)

    def poll(self, job_id):
        def get_doc(i):
            status, doc = self.get_json(f"/v1/jobs/{i}")
            assert status == 200
            return doc
        return wait_complete(get_doc, job_id)


@pytest.fixture
def harness(tmp_path):
    h = _Harness(ServeConfig(data_dir=tmp_path / "serve",
                             store_threshold_elems=0))
    yield h
    h.close()


class TestHttp:
    def test_health(self, harness):
        status, doc = harness.get_json("/health")
        assert (status, doc) == (200, {"ok": True})

    def test_unknown_route_404(self, harness):
        status, _, _ = harness.request("/nope")
        assert status == 404
        status, _, _ = harness.request("/v1/jobs/zzz")
        assert status == 404

    def test_method_gate(self, harness):
        status, _, _ = harness.request("/health", method="PUT")
        assert status == 405
        status, _, _ = harness.request("/status", method="POST",
                                       body=b"{}")
        assert status == 405

    def test_submit_poll_result_roundtrip(self, harness):
        doc = spec_doc(seed=21)
        status, headers, body = harness.submit(doc)
        assert status == 202
        job = json.loads(body)
        final = harness.poll(job["id"])
        assert final["state"] == "complete", final["error"]
        status, _, npy = harness.request(f"/v1/jobs/{job['id']}/result")
        assert status == 200
        served = np.load(io.BytesIO(npy))
        assert served.tobytes() == reference_window(doc).tobytes()

    def test_submit_bad_spec_is_400_with_field(self, harness):
        doc = spec_doc()
        doc["generator"]["grid"]["nx"] = 0
        status, _, body = harness.submit(doc)
        assert status == 400
        err = json.loads(body)
        assert err["field"] == "generator.grid.nx"

    def test_submit_garbage_is_400(self, harness):
        status, _, _ = harness.request("/v1/jobs", method="POST",
                                       body=b"{nope")
        assert status == 400
        status, _, _ = harness.request("/v1/jobs", method="POST")
        assert status == 400

    def test_store_job_chunks_bit_identical(self, harness):
        """Multi-tile job streams through a store; the chunks reassemble
        to exactly the generate_tiled bytes."""
        doc = spec_doc(seed=33, tile=32)
        status, _, body = harness.submit(doc)
        assert status == 202
        job = json.loads(body)
        final = harness.poll(job["id"])
        assert final["state"] == "complete", final["error"]
        assert final["result"]["kind"] == "store"

        status, meta = harness.get_json(f"/v1/jobs/{job['id']}/chunks")
        assert status == 200
        assert meta["shape"] == [64, 64]
        assert meta["chunks_total"] == 4

        out = np.zeros((64, 64))
        for index in range(meta["chunks_total"]):
            status, headers, raw = harness.request(
                f"/v1/jobs/{job['id']}/chunks/{index}"
            )
            assert status == 200
            x0 = int(headers["X-Chunk-X0"])
            y0 = int(headers["X-Chunk-Y0"])
            nx = int(headers["X-Chunk-NX"])
            ny = int(headers["X-Chunk-NY"])
            chunk = np.frombuffer(raw, dtype="<f8").reshape(nx, ny)
            out[x0:x0 + nx, y0:y0 + ny] = chunk

        spec = GenerationSpec.from_dict(doc)
        ref = generate_tiled(spec.build_generator(), spec.noise(),
                             spec.tile_plan())
        assert out.tobytes() == np.asarray(ref.heights).tobytes()

        # /result refuses to materialise store-backed jobs
        status, _, body = harness.request(f"/v1/jobs/{job['id']}/result")
        assert status == 404
        assert "chunks" in json.loads(body)["error"]

    def test_heights_range_read(self, harness):
        doc = spec_doc(seed=34, tile=32)
        _, _, body = harness.submit(doc)
        job = json.loads(body)
        harness.poll(job["id"])

        status, headers, full = harness.request(
            f"/v1/jobs/{job['id']}/heights"
        )
        assert status == 200
        assert full.startswith(b"\x93NUMPY")  # raw heights.npy

        status, headers, part = harness.request(
            f"/v1/jobs/{job['id']}/heights",
            headers={"Range": "bytes=0-127"},
        )
        assert status == 206
        assert headers["Content-Range"] == f"bytes 0-127/{len(full)}"
        assert part == full[:128]

        status, headers, tail = harness.request(
            f"/v1/jobs/{job['id']}/heights",
            headers={"Range": "bytes=-64"},
        )
        assert status == 206
        assert tail == full[-64:]

        status, _, _ = harness.request(
            f"/v1/jobs/{job['id']}/heights",
            headers={"Range": f"bytes={len(full)}-"},
        )
        assert status == 416

    def test_chunk_of_incomplete_job_is_409(self, harness):
        # chunks endpoint on an inline (storeless) job 404s instead
        doc = spec_doc(seed=35)
        _, _, body = harness.submit(doc)
        job = json.loads(body)
        harness.poll(job["id"])
        status, _, _ = harness.request(f"/v1/jobs/{job['id']}/chunks")
        assert status == 404

    def test_tenant_flood_gets_429(self, tmp_path):
        h = _Harness(ServeConfig(
            data_dir=tmp_path / "serve",
            tenant_max_active=0, tenant_max_queued=0, retry_after_s=3.0,
        ))
        try:
            status, headers, body = h.submit(spec_doc(), tenant="flood")
            assert status == 429
            assert headers["Retry-After"] == "3"
            err = json.loads(body)
            assert err["tenant"] == "flood"
        finally:
            h.close()

    def test_transfer_encoding_is_501_and_closes(self, harness):
        reply = harness.raw(
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"Connection: close\r\n" in reply
        # one reply: the chunk stream was never read as a request
        assert reply.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize("lengths", [("0", "5"), ("+5",), ("5, 5",)])
    def test_unframeable_content_length_is_400_and_closes(self, harness,
                                                          lengths):
        head = "".join(f"Content-Length: {n}\r\n" for n in lengths)
        reply = harness.raw(b"GET /health HTTP/1.1\r\nHost: t\r\n"
                            + head.encode() + b"\r\nhello")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_head_error_reply_has_no_body(self, harness):
        reply = harness.raw(b"HEAD /nope HTTP/1.1\r\nHost: t\r\n\r\n"
                            b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found\r\n")
        # the next reply starts right after the 404's head
        assert rest.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_repeated_equal_content_length_is_one_body(self, harness):
        reply = harness.raw(b"GET /health HTTP/1.1\r\nHost: t\r\n"
                            b"Content-Length: 5\r\nContent-Length: 5\r\n"
                            b"\r\nhello")
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_each_request_is_spanned(self, harness):
        from repro import obs

        with obs.recording() as rec:
            status, _ = harness.get_json("/health")
            assert status == 200
            status, _ = harness.get_json("/v1/jobs/nope")
            assert status == 404
            # a span ends just after its reply is sent
            deadline = time.monotonic() + DEADLINE_S
            while (sum(s[0] == "serve.request" for s in rec.spans()) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        spans = [s for s in rec.spans() if s[0] == "serve.request"]
        assert [(s[5]["method"], s[5]["path"]) for s in spans] == [
            ("GET", "/health"), ("GET", "/v1/jobs/nope")]

    def test_status_metrics_and_list(self, harness):
        doc = spec_doc(seed=36)
        _, _, body = harness.submit(doc)
        job = json.loads(body)
        harness.poll(job["id"])

        status, sdoc = harness.get_json("/status")
        assert status == 200
        assert sdoc["schema"] == STATUS_SCHEMA
        assert sdoc["serve"]["jobs"]["complete"] >= 1

        status, jdoc = harness.get_json(f"/v1/jobs/{job['id']}/status")
        assert status == 200
        assert jdoc["schema"] == STATUS_SCHEMA
        assert jdoc["source"] == "serve"
        assert jdoc["state"] == "complete"

        status, listing = harness.get_json("/v1/jobs")
        assert status == 200
        assert any(j["id"] == job["id"] for j in listing["jobs"])

        status, _, text = harness.request("/metrics")
        assert status == 200
        assert b"repro_serve_jobs_complete" in text


class TestVerifyEndpoint:
    """``GET /v1/jobs/{id}/verify``: the serve front door returns the
    same ``repro.verify/v1`` report the offline verifier produces."""

    def _sa_doc(self, seed=37, n=128):
        doc = spec_doc(seed=seed, n=n)
        doc["generator"]["spectrum"] = {
            "kind": "self_affine", "sigma": 1.0, "hurst": 0.8, "qr": 0.4,
        }
        return doc

    def test_verify_doc_inline(self, service):
        from repro.verify import VERIFY_SCHEMA

        job = service.submit(self._sa_doc())
        wait_complete(service.job_doc, job["id"])
        doc = service.verify_doc(job["id"])
        assert doc["schema"] == VERIFY_SCHEMA
        assert doc["id"] == job["id"]
        assert doc["passed"] is True
        assert {m["name"] for m in doc["metrics"]} >= {
            "rms_height", "hurst_fit", "qr_plateau"}
        # second call returns the cached document, not a recomputation
        assert service.verify_doc(job["id"]) is doc

    def test_verify_doc_unknown_job(self, service):
        with pytest.raises(KeyError):
            service.verify_doc("nope")

    def test_http_verify_store_backed(self, harness):
        from repro.verify import REPORT_NAME, VERIFY_SCHEMA, load_report

        _, _, body = harness.submit(self._sa_doc(seed=38, n=640))
        job = json.loads(body)
        harness.poll(job["id"])

        status, doc = harness.get_json(f"/v1/jobs/{job['id']}/verify")
        assert status == 200
        assert doc["schema"] == VERIFY_SCHEMA
        assert doc["passed"] is True
        assert doc["surface"]["store"]  # verified out of core

        # the report is checkpointed next to the job manifest and equals
        # the served document (minus the job id the server stamps on)
        record = harness.service._jobs[job["id"]]
        persisted = load_report(record.checkpoint_dir / REPORT_NAME)
        served = dict(doc)
        served.pop("id")
        assert persisted.to_dict() == served

        # cached on repeat
        status2, doc2 = harness.get_json(f"/v1/jobs/{job['id']}/verify")
        assert (status2, doc2) == (200, doc)

    def test_http_verify_incomplete_is_409(self, harness):
        _, _, body = harness.submit(self._sa_doc(seed=39))
        job = json.loads(body)
        harness.poll(job["id"])
        record = harness.service._jobs[job["id"]]
        with harness.service._lock:
            record.state = "running"
        try:
            status, headers, _ = harness.request(
                f"/v1/jobs/{job['id']}/verify")
            assert status == 409
            assert "Retry-After" in headers
        finally:
            with harness.service._lock:
                record.state = "complete"
        status, doc = harness.get_json(f"/v1/jobs/{job['id']}/verify")
        assert (status, doc["passed"]) == (200, True)

    def test_http_verify_unknown_is_404(self, harness):
        status, _, _ = harness.request("/v1/jobs/nope/verify")
        assert status == 404
