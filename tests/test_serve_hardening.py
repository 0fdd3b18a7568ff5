"""Hardening regressions: poison requests, hostile payloads, dispatch races.

These tests pin the fixes for the serve-layer review findings:

1. a request whose ``batch_key`` raises must cost only itself (future
   completed with a user error), never the single batcher thread — the
   old behaviour was a one-request denial of service;
2. the alphabet implied by a compress payload is capped *before* the
   histogram is built, so one huge symbol value cannot demand a
   multi-gigabyte ``np.bincount`` allocation;
3. ``ShardPool.dispatch`` re-checks shard liveness after the
   ``inbox.put`` and reclaims/re-dispatches, so a batch can no longer be
   stranded forever in a shard that died between check and put;
4. ``BatchPolicy`` validation messages match what they enforce.
"""

from __future__ import annotations

import queue as _stdqueue
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.batcher import (
    MAX_ALPHABET,
    BatchPolicy,
    MicroBatcher,
    batch_key,
)
from repro.serve.queue import AdmissionQueue, ServeRequest
from repro.serve.service import CompressionService, ServiceConfig
from repro.serve.workers import ShardPool


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


# --------------------------------------------------------------------------
# 1+2: payload validation at keying time
# --------------------------------------------------------------------------
class TestCompressPayloadValidation:
    def _req(self, payload, **meta):
        return ServeRequest(op="compress", payload=payload, meta=meta)

    def test_uint64_near_2_63_raises_value_error(self):
        # used to raise OverflowError/MemoryError from int(max)+1/bincount
        hostile = np.array([2**63 + 7], dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_key(self._req(hostile))

    def test_huge_uint32_symbol_rejected_before_histogram(self):
        # one 4-byte symbol, but an implied 4-billion-entry alphabet:
        # must be a cheap ValueError, not a multi-GiB bincount
        hostile = np.array([4_000_000_000], dtype=np.uint32)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="alphabet"):
            batch_key(self._req(hostile))
        assert time.monotonic() - t0 < 1.0

    def test_negative_symbols_raise_value_error(self):
        with pytest.raises(ValueError, match="negative"):
            batch_key(self._req(np.array([3, -1, 2], dtype=np.int64)))

    def test_float_payload_raises_value_error(self):
        with pytest.raises(ValueError, match="integer"):
            batch_key(self._req(np.array([0.5, 1.5])))

    def test_declared_num_symbols_out_of_range_rejected(self):
        data = np.array([1, 2, 3], dtype=np.uint16)
        with pytest.raises(ValueError):
            batch_key(self._req(data, num_symbols=0))
        with pytest.raises(ValueError):
            batch_key(self._req(data, num_symbols=MAX_ALPHABET + 1))

    def test_data_exceeding_declared_num_symbols_rejected(self):
        data = np.array([0, 9], dtype=np.uint16)
        with pytest.raises(ValueError, match="exceeds"):
            batch_key(self._req(data, num_symbols=4))

    def test_valid_payload_still_keys_and_stashes_histogram(self):
        data = np.array([0, 1, 1, 2], dtype=np.uint16)
        req = self._req(data, magnitude=10)
        key = batch_key(req)
        assert key[0] == "c"
        assert req.meta["num_symbols"] == 3
        np.testing.assert_array_equal(req.meta["histogram"], [1, 2, 1])


# --------------------------------------------------------------------------
# 1: poison requests never kill the batcher thread
# --------------------------------------------------------------------------
class TestBatcherPoisonContainment:
    def test_poison_request_fails_alone_batcher_keeps_consuming(self):
        q = AdmissionQueue(maxsize=64)
        seen = []
        mb = MicroBatcher(q, seen.append,
                          BatchPolicy(max_batch=4, max_delay_s=0.002))
        poison = ServeRequest(
            op="compress", payload=np.array([2**63], dtype=np.uint64)
        )
        good = ServeRequest(
            op="compress", payload=np.array([0, 1, 1], dtype=np.uint16),
            meta={"magnitude": 10},
        )
        q.submit(poison)
        q.submit(good)
        mb.start()
        try:
            with pytest.raises(ValueError):
                poison.future.result(5.0)
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.005)
            assert seen, "batcher thread died: good request never flushed"
            assert seen[0].requests == [good]
            assert mb._thread.is_alive()
        finally:
            mb.stop()

    def test_arbitrary_key_fn_exception_becomes_user_error(self):
        q = AdmissionQueue(maxsize=8)

        def exploding_key(req):
            raise RuntimeError("kaboom")

        mb = MicroBatcher(q, lambda b: None,
                          BatchPolicy(max_batch=2, max_delay_s=0.002),
                          key_fn=exploding_key)
        req = ServeRequest(op="compress", payload=np.array([1]))
        q.submit(req)
        mb.start()
        try:
            with pytest.raises(ValueError, match="kaboom"):
                req.future.result(5.0)
            assert mb._thread.is_alive()
        finally:
            mb.stop()

    def test_service_survives_hostile_then_serves_good_request(self):
        cfg = ServiceConfig(n_shards=1, max_batch=4, max_delay_s=0.002,
                            queue_size=32)
        data = np.random.default_rng(3).integers(
            0, 40, size=1024
        ).astype(np.uint16)
        with CompressionService(cfg) as svc:
            bad = svc.submit_compress(np.array([2**63 + 1], dtype=np.uint64))
            with pytest.raises(ValueError):
                bad.result(10.0)
            blob, report = svc.compress(data)  # would hang before the fix
            assert report.ratio > 0
            np.testing.assert_array_equal(svc.decompress(blob), data)


# --------------------------------------------------------------------------
# 3: dispatch TOCTOU — batch must not strand in a dead shard's inbox
# --------------------------------------------------------------------------
class _VanishingShard:
    """Stub reproducing the race window: alive at the pre-put liveness
    check, dead by the post-put re-check (thread gone, inbox stranded)."""

    def __init__(self):
        self.shard_id = 99
        self.inbox = _stdqueue.Queue()
        self._alive_checks = 0

    @property
    def is_alive_shard(self):
        self._alive_checks += 1
        return self._alive_checks == 1

    @property
    def load(self):
        return -1  # always the least-loaded → always picked first


class TestDispatchToctou:
    def test_batch_reclaimed_from_dead_shard_and_redispatched(self):
        done = threading.Event()
        handled = []

        def handler(batch):
            handled.append(batch)
            done.set()

        pool = ShardPool(1, handler=handler)
        ghost = _VanishingShard()
        pool.shards.insert(0, ghost)
        try:
            from repro.serve.batcher import Batch

            req = ServeRequest(op="decompress", payload=b"x")
            batch = Batch(key=("d", "k"), requests=[req])
            pool.dispatch(batch)  # old code: strands batch in ghost.inbox
            assert done.wait(5.0), "batch stranded in dead shard's inbox"
            assert handled == [batch]
            assert ghost.inbox.empty()
        finally:
            pool.shards.remove(ghost)
            pool.shutdown(graceful=False, timeout=5.0)

    def test_reclaim_routes_other_batches_through_on_crash(self):
        crashes = []
        pool = ShardPool(1, handler=lambda b: None,
                         on_crash=crashes.append)
        try:
            from repro.serve.batcher import Batch

            dead = pool.shards[0]
            mine = Batch(key="mine", requests=[])
            other = Batch(key="other", requests=[])
            inbox = _stdqueue.Queue()
            inbox.put(other)
            inbox.put(mine)
            inbox.put(None)  # shutdown sentinel must survive the drain
            ghost = _VanishingShard()
            ghost.inbox = inbox
            assert pool._reclaim(ghost, mine) is True
            assert [c.batch for c in crashes] == [other]
            assert inbox.get_nowait() is None  # sentinel preserved
        finally:
            pool.shutdown(graceful=False, timeout=5.0)


# --------------------------------------------------------------------------
# 4: BatchPolicy validation
# --------------------------------------------------------------------------
class TestBatchPolicyValidation:
    def test_negative_max_delay_rejected_with_accurate_message(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            BatchPolicy(max_delay_s=-0.001)

    def test_zero_max_delay_allowed_as_explicit_no_coalescing(self):
        assert BatchPolicy(max_delay_s=0.0).max_delay_s == 0.0
