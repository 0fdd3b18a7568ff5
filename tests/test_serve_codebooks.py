"""Serve-layer codebook registry: fast path, attribution, 400 contract.

Service-level (no HTTP): a ``codebook_id`` request resolves through the
process registry in ``batch_key``, coalesces on the content digest,
executes the single-stage encoder, stamps ``codebook_id`` /
``registry_hit`` on the request's flight record, and produces a
container byte-identical to the cold path's for the same book.

HTTP-level (alongside ``tests/test_serve_hardening.py``): hostile
``X-Repro-Codebook-Id`` traffic — an unknown id, a payload the
registered alphabet cannot cover — must answer **400**, never 500, and
must cost only the offending request (every shard stays alive).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import struct
import threading
import time

import numpy as np
import pytest

from repro.codebooks.registry import CodebookRegistry, set_process_registry
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import serialize_stream
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.http import run_server
from repro.serve.service import CompressionService, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_metrics():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


@pytest.fixture(autouse=True)
def _fresh_codebooks():
    prev = set_process_registry(CodebookRegistry())
    yield
    set_process_registry(prev)


def _registered(alphabet=1024, seed=3):
    """A smoothed nyx_quant-style book, registered process-wide."""
    rng = np.random.default_rng(seed)
    corpus = rng.geometric(0.3, 1 << 15).clip(0, alphabet - 1)
    hist = np.bincount(corpus.astype(np.int64), minlength=alphabet) + 1
    book = parallel_codebook(hist).codebook
    from repro.codebooks.registry import process_registry

    return process_registry().register(book, name="nyx"), rng


# --------------------------------------------------------------------------
# service level
# --------------------------------------------------------------------------
class TestServiceFastPath:
    def _cfg(self, **kw):
        kw.setdefault("n_shards", 2)
        kw.setdefault("flight_sample_every", 1)
        return ServiceConfig(**kw)

    def test_hot_container_bit_identical_to_cold_path(self):
        entry, rng = _registered()
        data = rng.geometric(0.3, 8192).clip(0, 1023).astype(np.uint16)
        with CompressionService(self._cfg()) as svc:
            blob, report = svc.compress(data, codebook_id=entry.codebook_id)
        enc = gpu_encode(data, entry.book)
        expect = (
            b"RPRS" + struct.pack("<BQ", data.dtype.itemsize, data.size)
            + serialize_stream(enc.stream, entry.book)
        )
        assert blob == expect

    def test_name_alias_resolves_to_same_container(self):
        entry, rng = _registered()
        data = rng.geometric(0.3, 4096).clip(0, 1023).astype(np.uint16)
        with CompressionService(self._cfg()) as svc:
            by_id, _ = svc.compress(data, codebook_id=entry.codebook_id)
            by_name, _ = svc.compress(data, codebook_id="nyx")
        assert by_id == by_name

    def test_hot_requests_coalesce_on_digest(self):
        entry, rng = _registered()
        payloads = [
            rng.geometric(0.3, 2048).clip(0, 1023).astype(np.uint16)
            for _ in range(12)
        ]
        with CompressionService(self._cfg(max_batch=16)) as svc:
            futures = [
                svc.submit_compress(p, codebook_id=entry.codebook_id)
                for p in payloads
            ]
            for f in futures:
                f.result(30.0)
            mean_batch = svc.batcher.mean_batch_size
        # distinct empirical histograms would have been 12 singleton
        # batches on the cold path; the digest key coalesces them
        assert mean_batch > 1.0

    def test_flight_record_attrs_and_single_stage_path(self):
        entry, rng = _registered()
        data = rng.geometric(0.3, 4096).clip(0, 1023).astype(np.uint16)
        with CompressionService(self._cfg()) as svc:
            blob, _ = svc.compress(data, codebook_id=entry.codebook_id)
            records = svc.flight.recent()
            stats = svc.stats()
        rec = [r for r in records if r.op == "compress"]
        assert rec, "compress request was not flight-recorded"
        attrs = rec[-1].attrs
        assert attrs.get("codebook_id") == entry.codebook_id
        assert attrs.get("registry_hit") is True
        assert rec[-1].paths.get("encode_impl") == "single_stage"
        assert stats["encode"]["single_stage_requests"] >= 1
        assert stats["codebooks"]["size"] == 1

    def test_decode_side_registry_hit(self):
        entry, rng = _registered()
        data = rng.geometric(0.3, 4096).clip(0, 1023).astype(np.uint16)
        with CompressionService(self._cfg()) as svc:
            blob, _ = svc.compress(data, codebook_id=entry.codebook_id)
            back = svc.decompress(blob)
            stats = svc.stats()
        assert np.array_equal(back, data)
        assert stats["decode"]["registry_requests"] >= 1

    def test_unknown_id_is_value_error_not_crash(self):
        _registered()
        data = np.arange(64, dtype=np.uint16)
        with CompressionService(self._cfg()) as svc:
            with pytest.raises(ValueError, match="unknown codebook_id"):
                svc.compress(data, codebook_id="no-such-book")
            # the shards never saw the poison request
            assert svc.pool.alive_count == svc.pool.size
            blob, _ = svc.compress(data)  # cold path still serves
            assert blob


# --------------------------------------------------------------------------
# HTTP level: the hostile-input 400 contract
# --------------------------------------------------------------------------
def _http_service(**kw):
    kw = dict(dict(n_shards=2, max_batch=8, max_delay_s=0.003,
                   queue_size=64, request_max_bytes=1 << 20), **kw)
    return CompressionService(ServiceConfig(**kw))


@contextlib.contextmanager
def _serving(svc):
    """Start ``svc`` behind an HTTP front on an ephemeral port."""
    svc.start()
    ready, stop, bound = threading.Event(), threading.Event(), []
    t = threading.Thread(
        target=run_server,
        kwargs=dict(service=svc, port=0, ready=ready, bound=bound,
                    stop=stop),
        daemon=True,
    )
    t.start()
    assert ready.wait(10.0), "server did not come up"
    try:
        yield bound[0]
    finally:
        stop.set()
        t.join(10.0)
        svc.close()
        assert not t.is_alive(), "server thread did not shut down cleanly"


@pytest.fixture()
def server():
    with _serving(_http_service()) as port:
        yield port


def _request(port, method, path, body=b"", headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _register_over_http(port, alphabet=256, seed=5):
    rng = np.random.default_rng(seed)
    corpus = rng.integers(0, alphabet, 1 << 14).astype(np.uint16)
    status, _, body = _request(
        port, "POST", "/codebooks", corpus.tobytes(),
        {"X-Repro-Dtype": "uint16",
         "X-Repro-Num-Symbols": str(alphabet)},
    )
    assert status == 200, body
    return json.loads(body)["codebook_id"], rng


class TestHttpHostileCodebookIds:
    def test_unknown_codebook_id_is_400_not_500(self, server):
        data = np.arange(32, dtype=np.uint16)
        status, _, body = _request(
            server, "POST", "/compress", data.tobytes(),
            {"X-Repro-Dtype": "uint16",
             "X-Repro-Codebook-Id": "deadbeef" * 4},
        )
        assert status == 400
        assert b"unknown codebook_id" in body

    def test_uncovered_symbols_are_400_not_500(self, server):
        cb_id, _ = _register_over_http(server, alphabet=256)
        hostile = np.array([5000] * 64, dtype=np.uint16)
        status, _, body = _request(
            server, "POST", "/compress", hostile.tobytes(),
            {"X-Repro-Dtype": "uint16", "X-Repro-Codebook-Id": cb_id},
        )
        assert status == 400
        assert b"alphabet" in body

    def test_hostile_ids_cost_only_themselves(self, server):
        # a burst of poison ids interleaved with good traffic: every
        # good request still answers 200 and all shards stay alive
        cb_id, rng = _register_over_http(server, alphabet=256)
        good = rng.integers(0, 256, 1024).astype(np.uint16)
        for i in range(4):
            status, _, _ = _request(
                server, "POST", "/compress", good.tobytes(),
                {"X-Repro-Dtype": "uint16",
                 "X-Repro-Codebook-Id": f"bogus-{i}"},
            )
            assert status == 400
            status, _, blob = _request(
                server, "POST", "/compress", good.tobytes(),
                {"X-Repro-Dtype": "uint16", "X-Repro-Codebook-Id": cb_id},
            )
            assert status == 200
            status, _, out = _request(server, "POST", "/decompress", blob)
            assert status == 200
            assert out == good.tobytes()
        status, _, body = _request(server, "GET", "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["shards_alive"] == 2

    def test_evicted_id_is_400(self, server):
        cb_id, rng = _register_over_http(server, alphabet=256)
        status, _, _ = _request(server, "DELETE", f"/codebooks/{cb_id}")
        assert status == 200
        data = rng.integers(0, 256, 512).astype(np.uint16)
        status, _, _ = _request(
            server, "POST", "/compress", data.tobytes(),
            {"X-Repro-Dtype": "uint16", "X-Repro-Codebook-Id": cb_id},
        )
        assert status == 400


class TestUncoveredRequestInABatch:
    def test_only_the_uncovered_request_fails(self):
        """An uncovered request keyed into the same batch as good ones
        fails on its shard alone: 400 naming the alphabet, one user
        error, an ``error`` flight record, and every shard alive."""
        # a long starvation bound: the held request's own wait must not
        # flush its key before its batchmates are keyed
        svc = _http_service(flight_sample_every=1, max_delay_s=30.0)
        n = 4
        held, batches = [], []
        real_key, real_sink = svc.batcher.key_fn, svc.batcher.sink

        def gated_key(req):
            # hold the first compress request until the others are
            # queued, so all of them coalesce into one batch
            if not held:
                held.append(req)
                deadline = time.monotonic() + 10.0
                while svc.queue.depth() < n - 1 \
                        and time.monotonic() < deadline:
                    time.sleep(0.001)
            return real_key(req)

        def recording_sink(batch):
            batches.append({r.request_id for r in batch.requests})
            real_sink(batch)

        svc.batcher.key_fn, svc.batcher.sink = gated_key, recording_sink
        with _serving(svc) as port:
            cb_id, rng = _register_over_http(port, alphabet=256)
            good = rng.integers(0, 256, 2048).astype(np.uint16)
            hostile = good.copy()
            hostile[100] = 5000
            bodies = {f"good-{i}": good for i in range(n - 1)}
            bodies["uncovered"] = hostile
            errors_before = svc.stats()["requests"]["user_errors"]
            answers = {}

            def post(rid, data):
                answers[rid] = _request(
                    port, "POST", "/compress", data.tobytes(),
                    {"X-Repro-Dtype": "uint16",
                     "X-Repro-Codebook-Id": cb_id,
                     "X-Repro-Request-Id": rid},
                )

            threads = [threading.Thread(target=post, args=item)
                       for item in bodies.items()]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert set(bodies) in batches
            status, _, body = answers.pop("uncovered")
            assert status == 400 and b"alphabet" in body
            for status, _, blob in answers.values():
                assert status == 200
                status, _, out = _request(port, "POST", "/decompress", blob)
                assert status == 200 and out == good.tobytes()
            assert svc.stats()["requests"]["user_errors"] == errors_before + 1
            record = next(r for r in svc.flight.recent()
                          if r.request_id == "uncovered")
            assert record.status == "error" and record.error == "ValueError"
            assert svc.pool.alive_count == svc.pool.size == 2
            status, _, body = _request(port, "GET", "/healthz")
            assert json.loads(body)["shards_alive"] == 2
