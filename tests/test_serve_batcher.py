"""Micro-batcher: keying, coalescing, round-trip fidelity, shedding.

The property test is the batching acceptance bar: *any* interleaving of
requests across ≥3 distinct codebook digests must round-trip
bit-identically to unbatched library calls, and deadline-expired
requests must be shed (future completed exceptionally), never silently
dropped.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.compressor import compress_symbols
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.batcher import BatchPolicy, MicroBatcher, batch_key
from repro.serve.queue import AdmissionQueue, DeadlineExceeded, ServeRequest
from repro.serve.service import CompressionService, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def _distributions(n=3, size=2000):
    """n clearly distinct symbol distributions (distinct codebooks)."""
    out = []
    for s in range(n):
        rng = np.random.default_rng(100 + s)
        probs = rng.dirichlet(np.ones(48) * (0.1 + 0.3 * s))
        out.append(rng.choice(48, size=size, p=probs).astype(np.uint16))
    return out


DISTS = _distributions()
#: unbatched references, computed once (compression is deterministic)
REFERENCE = [compress_symbols(d)[0] for d in DISTS]


class TestBatchKey:
    def test_same_distribution_same_key(self):
        a = ServeRequest(op="compress", payload=DISTS[0],
                         meta={"magnitude": 10})
        b = ServeRequest(op="compress", payload=DISTS[0].copy(),
                         meta={"magnitude": 10})
        assert batch_key(a) == batch_key(b)

    def test_distinct_distributions_distinct_keys(self):
        keys = {
            batch_key(ServeRequest(op="compress", payload=d,
                                   meta={"magnitude": 10}))
            for d in DISTS
        }
        assert len(keys) == len(DISTS)

    def test_decompress_key_peeks_codebook_digest(self):
        a = ServeRequest(op="decompress", payload=REFERENCE[0])
        b = ServeRequest(op="decompress", payload=REFERENCE[0])
        c = ServeRequest(op="decompress", payload=REFERENCE[1])
        assert batch_key(a) == batch_key(b)
        assert batch_key(a) != batch_key(c)

    def test_opaque_payload_gets_singleton_key(self):
        a = ServeRequest(op="decompress", payload=b"garbage")
        b = ServeRequest(op="decompress", payload=b"garbage")
        assert batch_key(a) != batch_key(b)

    def test_compress_key_stashes_histogram(self):
        req = ServeRequest(op="compress", payload=DISTS[0],
                           meta={"magnitude": 10})
        batch_key(req)
        assert "histogram" in req.meta
        np.testing.assert_array_equal(
            req.meta["histogram"], np.bincount(DISTS[0])
        )


class TestCoalescing:
    def test_same_key_requests_coalesce_into_one_batch(self):
        q = AdmissionQueue(maxsize=64)
        batches = []
        mb = MicroBatcher(q, batches.append,
                          BatchPolicy(max_batch=8, max_delay_s=0.05))
        for _ in range(6):
            q.submit(ServeRequest(op="decompress", payload=REFERENCE[0]))
        mb.start()
        assert mb.drain(5.0)
        mb.stop()
        assert sum(len(b) for b in batches) == 6
        assert max(len(b) for b in batches) > 1  # real coalescing happened

    def test_max_batch_flushes_early(self):
        q = AdmissionQueue(maxsize=64)
        batches = []
        mb = MicroBatcher(q, batches.append,
                          BatchPolicy(max_batch=4, max_delay_s=10.0))
        for _ in range(8):
            q.submit(ServeRequest(op="decompress", payload=REFERENCE[0]))
        mb.start()
        assert mb.drain(5.0)
        mb.stop()
        assert all(len(b) <= 4 for b in batches)
        assert sum(len(b) for b in batches) == 8

    def test_expired_request_shed_at_flush_never_dispatched(self):
        q = AdmissionQueue(maxsize=64)
        batches = []
        mb = MicroBatcher(q, batches.append,
                          BatchPolicy(max_batch=4, max_delay_s=0.01))
        dead = ServeRequest(op="decompress", payload=REFERENCE[0],
                            deadline_s=time.monotonic() + 0.002)
        q.submit(dead)
        time.sleep(0.05)  # expire while queued
        mb.start()
        time.sleep(0.1)
        mb.stop()
        dispatched = [r for b in batches for r in b.requests]
        assert dead not in dispatched
        assert dead.future.done()  # shed, not dropped
        with pytest.raises(DeadlineExceeded):
            dead.future.result(0)


class _CountingQueue(AdmissionQueue):
    """Counts ``get`` calls, so a test can tell which call a flush
    happened before."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.gets = 0

    def get(self, timeout=None):
        self.gets += 1
        return super().get(timeout)


class _BacklogQueue(AdmissionQueue):
    """Keeps at least one ``"busy"``-keyed request queued behind every
    ``get`` while ``streaming`` is set: a sustained backlog of another
    key, one request per millisecond."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.streaming = threading.Event()
        self.streaming.set()

    def get(self, timeout=None):
        if self.streaming.is_set():
            time.sleep(0.001)
            while self.depth() < 2:
                self.submit(ServeRequest(op="compress", payload=None,
                                         meta={"k": "busy"}))
        return super().get(timeout)


def _meta_key(req):
    return req.meta["k"]


class TestWorkConserving:
    def test_lone_request_flushes_before_next_get(self):
        """With nothing else queued the request is flushed at once, not
        after ``max_delay_s`` nor after a further wait on the queue."""
        q = _CountingQueue(maxsize=8)
        flushed = threading.Event()
        seen = []

        def sink(batch):
            seen.append((q.gets, len(batch)))
            flushed.set()

        mb = MicroBatcher(q, sink, BatchPolicy(max_batch=16,
                                               max_delay_s=10.0))
        mb.start()
        try:
            req = ServeRequest(op="decompress", payload=REFERENCE[0])
            q.submit(req)
            assert flushed.wait(2.0)
            assert seen == [(1, 1)]
            assert req.flushed_at is not None
            assert req.flushed_at >= req.enqueued_at
        finally:
            mb.stop()

    def test_key_behind_backlog_flushed_within_max_delay(self):
        q = _BacklogQueue(maxsize=64)
        max_delay = 0.05
        flushes = []
        mb = MicroBatcher(
            q, lambda b: flushes.append((b.key, time.monotonic())),
            BatchPolicy(max_batch=10_000, max_delay_s=max_delay),
            key_fn=_meta_key,
        )
        lone = ServeRequest(op="compress", payload=None, meta={"k": "lone"})
        q.submit(lone)
        mb.start()
        try:
            time.sleep(0.5)  # the backlog never lets the queue empty
            stream_end = time.monotonic()
            lone_at = [t for k, t in flushes if k == "lone"]
            assert lone_at, "starved key never flushed"
            assert lone_at[0] < stream_end
            # one get (≈1 ms) of slack past the deadline, plus jitter
            assert lone_at[0] - lone.enqueued_at <= max_delay + 0.05
            assert lone.flushed_at == pytest.approx(lone_at[0], abs=0.01)
        finally:
            q.streaming.clear()
            mb.stop()

    def test_stop_wakes_batcher_blocked_on_empty_open_queue(self):
        q = AdmissionQueue(maxsize=8)
        mb = MicroBatcher(q, lambda b: None, BatchPolicy())
        mb.start()
        time.sleep(0.05)  # let it block in get()
        t0 = time.monotonic()
        mb.stop()
        assert time.monotonic() - t0 < 1.0
        assert not mb._thread.is_alive()
        assert not q.closed

    def test_prequeued_backlog_coalesces_into_one_batch(self):
        q = AdmissionQueue(maxsize=64)
        batches = []
        mb = MicroBatcher(q, batches.append,
                          BatchPolicy(max_batch=16, max_delay_s=10.0))
        for _ in range(6):
            q.submit(ServeRequest(op="decompress", payload=REFERENCE[0]))
        mb.start()
        assert mb.drain(5.0)
        mb.stop()
        assert [len(b) for b in batches] == [6]

    def test_decompress_key_stashes_header_digest(self):
        req = ServeRequest(op="decompress", payload=REFERENCE[0])
        key = batch_key(req)
        assert key == ("d", req.meta["codebook_digest"])
        bad = ServeRequest(op="decompress", payload=b"garbage")
        batch_key(bad)
        assert bad.meta["codebook_digest"] is None


class TestRoundTripProperty:
    @given(
        interleaving=st.lists(
            st.integers(min_value=0, max_value=len(DISTS) - 1),
            min_size=4, max_size=12,
        )
    )
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_interleaving_matches_unbatched(self, interleaving):
        """Batched results are byte-identical to library calls."""
        cfg = ServiceConfig(n_shards=2, max_batch=6, max_delay_s=0.004,
                            queue_size=64)
        with CompressionService(cfg) as svc:
            futs = [
                svc.submit_compress(DISTS[i]) for i in interleaving
            ]
            blobs = [f.result(30.0) for f in futs]
        for i, (blob, _report) in zip(interleaving, blobs):
            assert blob == REFERENCE[i], (
                f"batched compress diverged from unbatched for dist {i}"
            )

    def test_decompress_interleaving_round_trips(self):
        cfg = ServiceConfig(n_shards=2, max_batch=8, max_delay_s=0.004,
                            queue_size=64)
        order = [0, 1, 2, 2, 0, 1, 0, 2, 1, 0]
        with CompressionService(cfg) as svc:
            futs = [svc.submit_decompress(REFERENCE[i]) for i in order]
            outs = [f.result(30.0) for f in futs]
        for i, out in zip(order, outs):
            np.testing.assert_array_equal(out, DISTS[i])
