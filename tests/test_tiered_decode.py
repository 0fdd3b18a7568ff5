"""Subtable decode tables: equality, memory, cache, and counter contracts.

The contract under test:

- a narrow (12-bit) root with subtables decodes **byte-identically** to
  a wide 2^16 root and to the scalar First/Entry reference, through the
  NumPy lanes and the gap path alike, on arbitrary books — including
  crafted chain+flat books with alphabets up to 2^17 and codewords far
  past the 16-bit host index;
- on corrupted streams (bit flips, truncation) every path either raises
  ``ValueError`` like the others or returns the same symbols —
  corruption never silently diverges the implementations, and deep
  books raise through the kernel exactly when the lanes do;
- table memory is O(alphabet + 2^k): at most 25 % of a flat 2^16
  table for every alphabet >= 2^12;
- the digest-keyed cache accounts bytes, evicts by the byte cap, and
  reports per-entry sizes;
- the observability plane sees whether a table has subtables
  (``repro_decode_table_tier_total``), the subtable gather volume, and
  — critically — **zero** ``repro_decode_lut_fallback_total`` on deep
  books.

The whole module runs with and without the native gap kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.corpora import deep_codebook, wbit_codebook
from repro.core.bitstream import stream_lanes
from repro.core.encoder import gpu_encode
from repro.huffman.cache import DecodeTableCache, cached_decode_table
from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.decoder import (
    build_decode_table,
    decode_batch,
    decode_canonical,
    decode_lanes,
)
from repro.huffman.serial import serial_encode
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.conftest import lanes_decode_dense, lanes_decode_stream

pytestmark = pytest.mark.usefixtures("kernel_engine")

#: a flat 2^16-entry table of two int32 planes: the memory yardstick
FLAT16_BYTES = (1 << 16) * 8


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _chain_flat_book(chain: int, flat: int):
    """Kraft-exact book: lengths ``[1..chain]`` plus ``2^flat`` codewords
    at ``chain + flat`` bits.  ``flat`` controls the alphabet size (up to
    2^17) and ``chain + flat`` the depth (well past the 2^16 host
    index)."""
    lens = list(range(1, chain + 1)) + [chain + flat] * (1 << flat)
    return canonical_from_lengths(np.array(lens, dtype=np.int32))


def _skewed_symbols(book, n: int, skew: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n_sym = book.n_symbols
    w = (np.arange(1, n_sym + 1, dtype=np.float64)) ** (-skew)
    return rng.choice(n_sym, size=n, p=w / w.sum()).astype(np.int64)


class TestEqualityChain:
    @settings(max_examples=25, deadline=None)
    @given(
        chain=st.integers(1, 22),
        flat=st.integers(0, 17),
        skew=st.floats(0.0, 1.5),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
    )
    def test_tiered_equals_flat_equals_scalar(
        self, chain, flat, skew, seed, n
    ):
        if chain + flat > 40:
            chain = 40 - flat
        book = _chain_flat_book(chain, flat)
        data = _skewed_symbols(book, n, skew, seed)
        buf, nbits = serial_encode(data, book)
        flat_t = build_decode_table(book, 16)
        tier_t = build_decode_table(book, 12)
        assert tier_t.complete
        want = decode_canonical(buf, nbits, book, n, tier_t)
        np.testing.assert_array_equal(want, data)
        for table in (flat_t, tier_t):
            for decode in (lanes_decode_dense, decode_batch):
                got = decode(buf, nbits, book, n, table)
                np.testing.assert_array_equal(got, want)
        # the default table (root-width rule) decodes the same
        got_auto = lanes_decode_dense(buf, nbits, book, n)
        np.testing.assert_array_equal(got_auto, want)

    @settings(max_examples=15, deadline=None)
    @given(
        chain=st.integers(2, 20),
        flat=st.integers(0, 12),
        seed=st.integers(0, 2**31 - 1),
        cut=st.floats(0.05, 0.95),
        flip=st.integers(0, 10**9),
    )
    def test_corruption_raise_parity(self, chain, flat, seed, cut, flip):
        """Bit-flipped and truncated streams: every decode path — the
        NumPy lanes and the gap path on a wide and a narrow root, and
        the scalar reference — raises ``ValueError`` or returns
        identical symbols."""
        book = _chain_flat_book(chain, flat)
        n = 200
        data = _skewed_symbols(book, n, 0.7, seed)
        buf, nbits = serial_encode(data, book)
        if buf.size == 0:
            return
        bad = buf.copy()
        bad[flip % bad.size] ^= 1 << (flip % 8)
        trunc = buf[: max(1, int(buf.size * cut))].copy()
        flat_t = build_decode_table(book, 16)
        tier_t = build_decode_table(book, 12)
        for cbuf, cbits in ((bad, nbits), (trunc, nbits)):
            outs = []
            for table in (flat_t, tier_t):
                for decode in (lanes_decode_dense, decode_batch):
                    try:
                        outs.append(decode(cbuf, cbits, book, n, table))
                    except ValueError:
                        outs.append(None)
            try:
                outs.append(decode_canonical(cbuf, cbits, book, n, tier_t))
            except ValueError:
                outs.append(None)
            kinds = {o is None for o in outs}
            assert len(kinds) == 1, (
                "one path raised while another returned symbols"
            )
            if outs[0] is not None:
                for other in outs[1:]:
                    np.testing.assert_array_equal(outs[0], other)


class TestDeepBookEndToEnd:
    def test_wbit32_container_roundtrip(self, registry):
        """The W=32 crafted book decodes through subtable descent with
        zero LUT fallbacks."""
        rng = np.random.default_rng(11)
        book = wbit_codebook(32)
        data = rng.integers(0, book.n_symbols, 2_000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        table = cached_decode_table(book)
        assert table.n_nodes > 0
        out = lanes_decode_stream(stream, book, table)
        np.testing.assert_array_equal(out, data)
        assert registry.total("repro_decode_lut_fallback_total") == 0
        assert registry.total(
            "repro_decode_table_tier_total", tier="tiered"
        ) >= 1
        assert registry.total("repro_decode_subtable_gather_total") > 0

    def test_deep_genomics_scale_book(self):
        """4103-symbol book with 4096 codewords at 19 bits: the 12-bit
        root and a 2^16 root agree over a chunked container."""
        rng = np.random.default_rng(12)
        book = deep_codebook()
        data = rng.integers(0, book.n_symbols, 3_000).astype(np.int64)
        stream = gpu_encode(data, book, magnitude=9).stream
        buffer, starts, ends, nsyms = stream_lanes(stream)
        table = build_decode_table(book)
        assert table.k == 12
        got = decode_lanes(buffer, starts, ends, nsyms, book, table)
        want = decode_lanes(buffer, starts, ends, nsyms, book,
                            build_decode_table(book, 16))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, data)

    def test_tier_counter_flat_books(self, registry):
        rng = np.random.default_rng(13)
        lens = np.array([1, 2, 3, 4, 5, 6, 7, 7], np.int32)
        book = canonical_from_lengths(lens)
        data = rng.integers(0, book.n_symbols, 500).astype(np.int64)
        buf, nbits = serial_encode(data, book)
        out = lanes_decode_dense(buf, nbits, book, data.size)
        np.testing.assert_array_equal(out, data)
        assert registry.total(
            "repro_decode_table_tier_total", tier="flat"
        ) >= 1
        assert registry.total(
            "repro_decode_table_tier_total", tier="tiered"
        ) == 0


class TestMemoryBound:
    @pytest.mark.parametrize("flat_bits", [12, 14])
    def test_quarter_of_flat_table(self, flat_bits):
        """Alphabets >= 2^12: a 12-bit root with subtables costs
        <= 25 % of a flat 2^16 table (the acceptance bound; typical
        books sit far below it)."""
        book = _chain_flat_book(4, flat_bits)
        assert book.n_symbols >= (1 << 12)
        tier_t = build_decode_table(book, 12)
        assert tier_t.complete
        assert tier_t.nbytes() <= FLAT16_BYTES // 4

    def test_genomics_deep_book_quarter_bound(self):
        book = deep_codebook()
        tier_t = build_decode_table(book)
        assert tier_t.complete
        assert tier_t.nbytes() <= FLAT16_BYTES // 4

    def test_huge_alphabet_stays_linear(self):
        """A 2^17-symbol book needs >= 2^17 leaf entries, so the 25 %
        bound cannot apply — but memory must stay O(alphabet + 2^k1),
        nowhere near the 2^max_length a flat full-depth table needs."""
        book = _chain_flat_book(4, 17)
        tier_t = build_decode_table(book)
        assert tier_t.complete
        assert tier_t.nbytes() <= 2 * 4 * book.n_symbols + (1 << 16)
        full_depth_flat = 8 * (1 << book.max_length)  # two int32 planes
        assert tier_t.nbytes() <= full_depth_flat // 16

    def test_wbit32_small_table(self):
        book = wbit_codebook(32)
        tier_t = build_decode_table(book)
        assert tier_t.complete
        # tiny alphabet: dominated by the 2^k root, still well under flat
        assert tier_t.nbytes() < FLAT16_BYTES // 4


class TestTableCacheBytes:
    def test_burst_of_large_books_respects_cap(self, registry):
        """A burst of distinct deep books cannot pin unbounded table
        memory: eviction runs by bytes, newest entries stay."""
        one = build_decode_table(deep_codebook()).nbytes()
        cache = DecodeTableCache(maxsize=64, max_bytes=3 * one + one // 2)
        books = [deep_codebook(19, 4096 - 8 * i) for i in range(8)]
        for book in books:
            t = cache.get(book)
            assert t.n_nodes > 0
        info = cache.info()
        assert info.bytes <= info.max_bytes
        assert info.size < len(books)
        assert len(info.entry_bytes) == info.size
        assert sum(info.entry_bytes) == info.bytes
        # the live byte total is exported as a gauge
        assert registry.total("repro_decode_table_bytes") == info.bytes
        # newest book is still resident
        cache.get(books[-1])
        assert cache.info().hits >= 1

    def test_single_oversized_entry_stays(self):
        cache = DecodeTableCache(maxsize=8, max_bytes=1)
        t = cache.get(deep_codebook())
        info = cache.info()
        assert info.size == 1
        assert info.bytes == t.nbytes() > info.max_bytes

    def test_explicit_small_k_gets_subtables(self, registry):
        """An explicit small ``k`` is a narrow root with subtables — its
        own cache entry next to the default one — and decodes with zero
        LUT fallbacks."""
        cache = DecodeTableCache(maxsize=8)
        book = wbit_codebook(32)
        t4 = cache.get(book, k=4)
        assert t4.k == 4 and t4.n_nodes > 0 and t4.complete
        tt = cache.get(book)
        assert tt.k == 12
        assert cache.info().size == 2
        rng = np.random.default_rng(14)
        data = rng.integers(0, book.n_symbols, 500).astype(np.int64)
        buf, nbits = serial_encode(data, book)
        out = lanes_decode_dense(buf, nbits, book, data.size, t4)
        np.testing.assert_array_equal(out, data)
        assert registry.total("repro_decode_lut_fallback_total") == 0
        assert registry.total("repro_decode_subtable_gather_total") > 0


class TestFlightPaths:
    def test_decode_stream_span_carries_tier(self):
        from repro.obs.flight import extract_paths

        spans = [{
            "name": "decode.stream",
            "attrs": {"strategy": "batch", "table_tier": "tiered"},
        }]
        paths = extract_paths(spans)
        assert paths["decode_strategy"] == "batch"
        assert paths["table_tier"] == "tiered"
