"""The facade's encode entry point and the serve path's encode under load.

``parallel_encode`` is ``gpu_encode`` called in-process: it must give
the same container bytes and modeled costs, and raise the same error
for a symbol outside the book.  The serve stress drives the scan-pack
encoder underneath the service's thread-pool concurrency.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.app.compressor import compress_symbols, decompress_symbols
from repro.core.chunk_parallel import parallel_encode
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import serialize_stream
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.service import CompressionService, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_registry():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def _payload(size=200_000, alphabet=300, seed=17):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(alphabet) * 0.15)
    data = rng.choice(alphabet, size=size, p=probs).astype(np.uint16)
    book = parallel_codebook(np.bincount(data, minlength=alphabet)).codebook
    return data, book


def _cost_tuples(res):
    return [(c.name, c.bytes_coalesced, c.bytes_random, c.launches,
             c.compute_cycles) for c in res.costs]


class TestInProcessEncode:
    def test_same_bytes_as_gpu_encode(self):
        for size in (0, 4000, 200_000):
            data, book = _payload(size=size)
            ref = gpu_encode(data, book, magnitude=10)
            par = parallel_encode(data, book, magnitude=10)
            assert serialize_stream(par.stream, book) == \
                serialize_stream(ref.stream, book), size
            assert _cost_tuples(par) == _cost_tuples(ref), size
            assert par.avg_bits == ref.avg_bits
            assert par.breaking_fraction == ref.breaking_fraction


class TestChaos:
    def test_user_errors_are_not_retried(self):
        """Out-of-range symbols are the caller's bug: they surface once,
        with gpu_encode's exact exception."""
        data, book = _payload(seed=29)
        bad = data.copy()
        bad[1234] = 301  # alphabet is 300
        with pytest.raises(IndexError) as par_exc:
            parallel_encode(bad, book, magnitude=10)
        with pytest.raises(IndexError) as ser_exc:
            gpu_encode(bad, book, magnitude=10)
        assert str(par_exc.value) == str(ser_exc.value)


class TestServeStress:
    def test_ten_thread_serve_stress_exercises_scan_pack(self):
        """10 client threads hammer the service: every blob must be
        bit-identical to the facade reference and decode losslessly —
        the MicroBatcher / ShardPool path now rides the scan-pack
        encoder underneath."""
        dists = []
        for s in range(4):
            rng = np.random.default_rng(101 + s)
            probs = rng.dirichlet(np.ones(48) * (0.08 + 0.2 * s))
            dists.append(
                rng.choice(48, size=2500, p=probs).astype(np.uint16)
            )
        reference = [compress_symbols(d)[0] for d in dists]

        cfg = ServiceConfig(n_shards=3, max_batch=8, max_delay_s=0.004,
                            queue_size=512)
        failures: list[str] = []
        lock = threading.Lock()

        def client(cid: int):
            rng = np.random.default_rng(cid)
            for j in range(12):
                i = int(rng.integers(0, len(dists)))
                try:
                    if (cid + j) % 2 == 0:
                        blob, _ = svc.compress(dists[i])
                        ok = blob == reference[i]
                    else:
                        out = svc.decompress(reference[i])
                        ok = np.array_equal(out, dists[i])
                except Exception as exc:  # noqa: BLE001 - recorded
                    ok = False
                    with lock:
                        failures.append(f"client {cid} req {j}: {exc!r}")
                    continue
                if not ok:
                    with lock:
                        failures.append(f"client {cid} req {j}: corrupt")

        with CompressionService(cfg) as svc:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            stats = svc.stats()

        assert not failures, failures[:5]
        assert stats["requests"]["served"] == 120
        assert stats["requests"]["user_errors"] == 0
        # and every reference blob round-trips through the facade
        for d, blob in zip(dists, reference):
            assert np.array_equal(decompress_symbols(blob), d)
