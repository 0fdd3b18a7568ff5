"""Tier-2 serve-burst decode stress: the gap path under thread pressure.

Ten concurrent clients hammer one in-process
:class:`~repro.serve.service.CompressionService` with decompress-heavy
bursts over several codebooks; every decode goes through the gap-array
decoder, which runs the compiled kernel when it loads.  The bar is absolute: every round trip bit-identical, zero
service errors, and — with the native kernel present — proof via the
metrics registry that the gap decoder actually carried the load.

Run with ``pytest -m tier2``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.app.compressor import compress_symbols
from repro.native import native_available
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.service import CompressionService, ServiceConfig

pytestmark = pytest.mark.tier2

N_CLIENTS = 10
REQUESTS_PER_CLIENT = 12
#: symbols per request: many chunks per container
PAYLOAD_SYMBOLS = 16_384


def _corpus():
    """Mixed codebooks: text-ish bytes, narrow quant codes, heavy skew."""
    out = []
    for s, (alphabet, conc) in enumerate(
        [(256, 0.15), (32, 1.0), (64, 0.05), (128, 0.4)]
    ):
        rng = np.random.default_rng(1000 + s)
        probs = rng.dirichlet(np.ones(alphabet) * conc)
        out.append(
            rng.choice(alphabet, size=PAYLOAD_SYMBOLS, p=probs)
            .astype(np.uint16)
        )
    return out


class TestServeBurstGapDecode:
    def test_ten_client_decode_burst_zero_corruption(self):
        prev = set_registry(reg := MetricsRegistry())
        try:
            dists = _corpus()
            blobs = [compress_symbols(d)[0] for d in dists]
            cfg = ServiceConfig(n_shards=3, max_batch=8,
                                max_delay_s=0.004, queue_size=512)
            failures: list[str] = []
            lock = threading.Lock()

            def client(cid: int):
                rng = np.random.default_rng(cid)
                for j in range(REQUESTS_PER_CLIENT):
                    i = int(rng.integers(0, len(dists)))
                    try:
                        # decode-heavy: 3 of 4 ops are decompresses
                        if (cid + j) % 4 == 0:
                            blob, _ = svc.compress(dists[i])
                            ok = blob == blobs[i]
                        else:
                            out = svc.decompress(blobs[i])
                            ok = np.array_equal(out, dists[i])
                    except Exception as exc:  # noqa: BLE001
                        with lock:
                            failures.append(f"c{cid} r{j}: {exc!r}")
                        continue
                    if not ok:
                        with lock:
                            failures.append(f"c{cid} r{j}: corrupt")

            with CompressionService(cfg) as svc:
                threads = [threading.Thread(target=client, args=(c,))
                           for c in range(N_CLIENTS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120.0)
                stats = svc.stats()

            assert not failures, failures[:5]
            assert stats["requests"]["served"] == (
                N_CLIENTS * REQUESTS_PER_CLIENT
            )
            assert stats["requests"]["user_errors"] == 0
            # the gap decoder must have carried the decode load, not
            # silently fallen back to the lane decoder for everything
            if native_available():
                assert reg.total("repro_decode_symbols_total",
                                 path="gap") >= PAYLOAD_SYMBOLS
                assert reg.total(
                    "repro_decode_gap_sync_points_total",
                    backend="native",
                ) > 0
        finally:
            set_registry(prev)
