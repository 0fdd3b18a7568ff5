"""CompressionService acceptance: burst fidelity, shedding, shard failure.

These tests encode the PR-level acceptance scenario: a 200-request
mixed burst from 8 concurrent clients completes with zero payload
corruption and a mean batch size > 1, the queue sheds load instead of
deadlocking at its bound, and an injected worker-shard failure is
survived via retry / degraded serial fallback.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.app.compressor import compress_symbols
from repro.obs.metrics import MetricsRegistry, metrics, set_registry
from repro.serve.queue import Priority, QueueFullError
from repro.serve.service import CompressionService, ServiceConfig
from repro.serve.workers import ShardCrashed, default_shard_count


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def _distributions(n=3, size=3000, alphabet=64):
    out = []
    for s in range(n):
        rng = np.random.default_rng(7 + s)
        probs = rng.dirichlet(np.ones(alphabet) * (0.05 + 0.25 * s))
        out.append(rng.choice(alphabet, size=size, p=probs).astype(np.uint16))
    return out


DISTS = _distributions()
REFERENCE = [compress_symbols(d)[0] for d in DISTS]


class TestMixedBurst:
    def test_200_request_burst_from_8_clients_zero_corruption(self):
        """The acceptance bar: 8 clients x 25 mixed ops, bit-identical."""
        cfg = ServiceConfig(n_shards=3, max_batch=8, max_delay_s=0.004,
                            queue_size=256)
        failures: list[str] = []
        lock = threading.Lock()

        def client(cid: int):
            rng = np.random.default_rng(cid)
            for j in range(25):
                i = int(rng.integers(0, len(DISTS)))
                try:
                    if (cid + j) % 2 == 0:
                        blob, _ = svc.compress(DISTS[i])
                        ok = blob == REFERENCE[i]
                    else:
                        out = svc.decompress(REFERENCE[i])
                        ok = np.array_equal(out, DISTS[i])
                except Exception as exc:  # noqa: BLE001 - recorded below
                    ok = False
                    with lock:
                        failures.append(f"client {cid} req {j}: {exc!r}")
                    continue
                if not ok:
                    with lock:
                        failures.append(f"client {cid} req {j}: corrupt")

        with CompressionService(cfg) as svc:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            stats = svc.stats()

        assert not failures, failures[:5]
        assert stats["requests"]["served"] == 200
        assert stats["requests"]["user_errors"] == 0
        # real coalescing: 8 concurrent clients over 3 codebooks must
        # produce batches bigger than singletons on average
        assert stats["batches"]["mean_size"] > 1.0, stats["batches"]
        # the digest-keyed caches should be doing their job
        assert stats["caches"]["codebook"]["hits"] > 0

    def test_priorities_and_deadlines_accepted(self):
        cfg = ServiceConfig(n_shards=1, max_batch=4, max_delay_s=0.002)
        with CompressionService(cfg) as svc:
            f = svc.submit_compress(DISTS[0], priority=Priority.BULK,
                                    deadline_s=5.0)
            blob, report = f.result(30.0)
            assert blob == REFERENCE[0]
            assert report.ratio > 1.0


class TestShedding:
    def test_queue_bound_sheds_instead_of_deadlocking(self):
        """Saturate a tiny queue: submits either succeed or raise
        QueueFullError with a retry hint -- never block forever."""
        cfg = ServiceConfig(n_shards=1, queue_size=4, max_batch=2,
                            max_delay_s=0.05)
        accepted, shed = 0, 0
        with CompressionService(cfg) as svc:
            futs = []
            for _ in range(64):
                try:
                    futs.append(svc.submit_compress(DISTS[0]))
                    accepted += 1
                except QueueFullError as exc:
                    shed += 1
                    assert exc.retry_after_s > 0
            # everything accepted must still complete
            for f in futs:
                blob, _ = f.result(30.0)
                assert blob == REFERENCE[0]
        assert accepted + shed == 64
        assert accepted >= 4  # bound admits at least the queue depth


class TestShardFailure:
    def test_injected_crash_is_survived_by_retry(self):
        cfg = ServiceConfig(n_shards=2, max_batch=4, max_delay_s=0.002,
                            max_retries=3)
        with CompressionService(cfg) as svc:
            svc.pool.inject_failure(0)
            futs = [svc.submit_compress(DISTS[i % len(DISTS)])
                    for i in range(12)]
            for i, f in enumerate(futs):
                blob, _ = f.result(30.0)
                assert blob == REFERENCE[i % len(DISTS)]
            stats = svc.stats()
        assert stats["shards"]["alive"] == 1  # the crash really happened
        assert (stats["requests"]["retries"] > 0
                or stats["requests"]["degraded_batches"] > 0)

    def test_all_shards_dead_falls_back_to_degraded_serial(self):
        cfg = ServiceConfig(n_shards=1, max_batch=4, max_delay_s=0.002,
                            max_retries=1)
        with CompressionService(cfg) as svc:
            svc.pool.inject_failure(0)
            # first request takes the crash; retries/degraded path must
            # still complete every request correctly
            futs = [svc.submit_compress(DISTS[0]) for _ in range(6)]
            for f in futs:
                blob, _ = f.result(30.0)
                assert blob == REFERENCE[0]
            stats = svc.stats()
        assert stats["shards"]["alive"] == 0
        assert stats["requests"]["degraded_batches"] > 0

    def test_dispatch_with_no_live_shards_raises_for_pool(self):
        # unit-level: the pool itself refuses dispatch when empty
        from repro.serve.batcher import Batch
        from repro.serve.workers import ShardPool

        pool = ShardPool(n_shards=1, handler=lambda b: None)
        pool.inject_failure(0)
        pool.dispatch(Batch(key=("x",), requests=[]))  # takes the crash
        deadline = time.monotonic() + 5.0
        while pool.alive_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.alive_count == 0
        with pytest.raises(ShardCrashed):
            pool.dispatch(Batch(key=("x",), requests=[]))
        pool.shutdown(graceful=False)


class TestLifecycle:
    def test_graceful_close_completes_inflight(self):
        cfg = ServiceConfig(n_shards=2, max_batch=8, max_delay_s=0.01)
        svc = CompressionService(cfg)
        svc.start()
        futs = [svc.submit_compress(DISTS[i % len(DISTS)])
                for i in range(10)]
        svc.close()
        for i, f in enumerate(futs):
            blob, _ = f.result(5.0)
            assert blob == REFERENCE[i % len(DISTS)]

    def test_stats_shape(self):
        cfg = ServiceConfig(n_shards=1)
        with CompressionService(cfg) as svc:
            svc.compress(DISTS[0])
            s = svc.stats()
        for section in ("queue", "shards", "batches", "requests", "caches"):
            assert section in s
        assert "backends" not in s
        assert s["queue"]["maxsize"] == cfg.queue_size
        assert s["uptime_s"] >= 0


class TestLatencyFromAdmission:
    def test_request_behind_held_shard_reports_the_hold(self):
        """Latency starts at admission: a request that waits behind a
        held shard reports at least the hold, split into queue and
        batch wait on its ``serve.request`` span."""
        hold = 0.2
        cfg = ServiceConfig(n_shards=1, flight_sample_every=1)
        release = threading.Event()
        with CompressionService(cfg) as svc:
            do_compress = svc._do_compress

            def held(req):
                if req.meta.get("hold"):
                    release.wait(5.0)
                return do_compress(req)

            svc._do_compress = held
            first = svc.submit_compress(DISTS[0], hold=True,
                                        request_id="first")
            second = svc.submit_compress(DISTS[1], request_id="second")
            time.sleep(hold)
            release.set()
            first.result(30.0)
            assert second.result(30.0)[0] == REFERENCE[1]
            records = {r.request_id: r for r in svc.flight.recent()}
        behind = records["second"]
        assert behind.duration_ms >= hold * 1e3
        root = next(sp for sp in behind.spans
                    if sp["name"] == "serve.request")
        waited = root["attrs"]["queue_wait_ms"] + root["attrs"]["batch_wait_ms"]
        assert waited >= hold * 1e3 * 0.9
        assert waited <= behind.duration_ms
        hist = metrics().histogram(
            "repro_serve_request_latency_seconds", op="compress"
        )
        assert hist.count == 2
        assert hist.sum >= hold * 2  # both requests waited out the hold


class TestDecodeTelemetry:
    """``/stats`` names the gap path that actually runs on this host."""

    @staticmethod
    def _decode_stats():
        data = np.random.default_rng(3).integers(0, 64, 20_000)
        data = data.astype(np.uint16)
        blob, _ = compress_symbols(data)
        with CompressionService(ServiceConfig(n_shards=1)) as svc:
            np.testing.assert_array_equal(svc.decompress(blob), data)
            return svc.stats()["decode"]

    def test_kernel_off_reports_lanes_with_reason(self, monkeypatch):
        from repro import native

        monkeypatch.setattr(native, "kernel", lambda: None)
        dec = self._decode_stats()
        assert dec["gap_backend"] == "lanes"
        assert dec["gap_backend_reason"]
        assert "gap_chunk_fallbacks" not in dec

    def test_kernel_state_matches_host(self):
        from repro.native import native_available

        dec = self._decode_stats()
        if native_available():
            assert dec["gap_backend"] == "native"
            assert dec["gap_backend_reason"] is None
        else:
            assert dec["gap_backend"] == "lanes"
            assert dec["gap_backend_reason"]


def test_default_shard_count_is_bounded():
    n = default_shard_count()
    assert 1 <= n <= 8
