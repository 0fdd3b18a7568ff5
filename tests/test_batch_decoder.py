"""The batch lane decoder must be bit-identical to the scalar reference.

Property tests pit :func:`decode_batch` / :func:`decode_lanes` /
:func:`decode_stream` against :func:`decode_canonical` and
``decode_stream_scalar`` on adversarial inputs: skewed alphabets whose
longest codewords exceed the table index (forcing subtable descent)
and containers with broken cells and tails.  Also covers the
digest-keyed caches: identity on hits, hit/miss counters, and
cross-object reuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitstream import decode_stream, decode_stream_scalar
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.core.tuning import EncoderTuning
from repro.huffman.cache import (
    DecodeTableCache,
    cached_decode_table,
    codebook_digest,
    decode_table_cache,
)
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import (
    build_decode_table,
    decode_batch,
    decode_canonical,
    decode_lanes,
)
from repro.huffman.serial import serial_encode
from tests.conftest import lanes_decode_dense, lanes_decode_stream

# every lane-decode assertion runs with and without the native gap kernel
pytestmark = pytest.mark.usefixtures("kernel_engine")

# ----------------------------------------------------------- strategies

# heavy-tailed histograms: a handful of huge counts and a long tail of
# tiny ones produce deep trees, i.e. codewords longer than small tables
skewed_hist = st.integers(2, 40).flatmap(
    lambda n: st.lists(
        st.integers(1, 1 << 16), min_size=n, max_size=n
    )
)


def _book_from(counts) -> CanonicalCodebook:
    return parallel_codebook(np.asarray(counts, dtype=np.int64)).codebook


def _symbols_from(counts, draw_n, seed) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return rng.choice(counts.size, size=draw_n, p=counts / counts.sum())


class TestBatchMatchesScalar:
    @given(skewed_hist, st.integers(1, 3000), st.integers(0, 2**32 - 1),
           st.integers(1, 4))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_decode_batch_vs_canonical(self, counts, n, seed, k):
        """Tiny k forces max_length > k: subtable descent must agree, in
        the gap kernel and in the lanes."""
        book = _book_from(counts)
        data = _symbols_from(counts, n, seed)
        buf, nbits = serial_encode(data, book)
        table = build_decode_table(book, k)
        ref = decode_canonical(buf, nbits, book, n, table)
        got = decode_batch(buf, nbits, book, n, table)
        assert np.array_equal(ref, got)
        assert np.array_equal(got, data)
        lanes = lanes_decode_dense(buf, nbits, book, n, table)
        assert np.array_equal(lanes, ref)

    @given(skewed_hist, st.integers(1, 5000), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_container_batch_vs_scalar(self, counts, n, seed):
        """Whole containers — chunks, broken cells, tails — match."""
        book = _book_from(counts)
        data = _symbols_from(counts, n, seed)
        # word_bits=8 provokes breaking cells; magnitude 8 keeps many
        # chunks; n not a multiple of the chunk size leaves a tail
        enc = gpu_encode(data, book, tuning=EncoderTuning(8, 2, 8))
        ref = decode_stream_scalar(enc.stream, book)
        got = decode_stream(enc.stream, book)
        assert np.array_equal(ref, got)
        assert np.array_equal(got, data)
        assert np.array_equal(lanes_decode_stream(enc.stream, book), ref)

    def test_corrupt_stream_raises(self, rng):
        data = rng.integers(0, 32, 4000)
        book = _book_from(np.bincount(data, minlength=32) + 1)
        buf, nbits = serial_encode(data, book)
        with pytest.raises(ValueError):
            decode_batch(buf, max(1, nbits - 40), book, data.size)

    def test_lane_bounds_validated(self, rng):
        data = rng.integers(0, 8, 100)
        book = _book_from(np.bincount(data, minlength=8) + 1)
        buf, nbits = serial_encode(data, book)
        one = lambda x: np.array([x], dtype=np.int64)  # noqa: E731
        with pytest.raises(ValueError):
            decode_lanes(buf, one(0), one(buf.size * 8 + 9), one(1), book)
        with pytest.raises(ValueError):
            decode_lanes(buf, one(-1), one(nbits), one(1), book)


class TestDecodeTableCache:
    def test_identity_and_counters(self, skewed_book):
        cache = DecodeTableCache(maxsize=4)
        t1 = cache.get(skewed_book)
        t2 = cache.get(skewed_book)
        assert t1 is t2
        info = cache.info()
        assert (info.hits, info.misses) == (1, 1)
        # different k is a different entry
        t3 = cache.get(skewed_book, k=4)
        assert t3 is not t1 and t3.k == 4
        assert cache.info().misses == 2

    def test_content_keyed_across_objects(self, skewed_data, skewed_book):
        """A deserialized codebook hits the same entry as the original."""
        enc = gpu_encode(skewed_data, skewed_book)
        blob = serialize_stream(enc.stream, skewed_book)
        _, book2 = deserialize_stream(blob)
        assert book2 is not skewed_book
        assert codebook_digest(book2) == codebook_digest(skewed_book)
        cache = DecodeTableCache()
        assert cache.get(skewed_book) is cache.get(book2)

    def test_process_cache_used_by_decode_stream(self, skewed_data,
                                                 skewed_book):
        cache = decode_table_cache()
        cache.clear()
        enc = gpu_encode(skewed_data, skewed_book)
        decode_stream(enc.stream, skewed_book)
        assert cache.info().misses == 1
        decode_stream(enc.stream, skewed_book)
        info = cache.info()
        assert info.misses == 1 and info.hits >= 1
        table = cached_decode_table(skewed_book)
        assert table is cached_decode_table(skewed_book)

    def test_lru_eviction(self):
        cache = DecodeTableCache(maxsize=2)
        # different alphabet sizes guarantee distinct digests (same-shape
        # histograms would canonicalize to the same codebook)
        books = [_book_from(np.arange(1, 5 + i)) for i in range(3)]
        for b in books:
            cache.get(b)
        assert cache.info().size == 2
        cache.get(books[0])  # evicted -> rebuilt
        assert cache.info().misses == 4
