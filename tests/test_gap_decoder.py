"""Gap-array decoder: property tests pinning the kernel to the spec.

The contract under test, on arbitrary encoded containers (varying
magnitude, skew, reduction factor, and subchunk width):

- the native C kernel (when the toolchain compiled it) produces symbols
  bit-identical to ``decode_lanes`` and a gap array entry-for-entry
  equal to :func:`reference_gap_array`, the executable serial oracle;
- the oracle itself is exact, with and without subtables: decoding
  every subchunk from its recorded sync point reproduces
  ``decode_lanes``;
- on corrupted containers the gap path either raises the same
  ``ValueError`` as ``decode_lanes`` or returns bit-identical symbols —
  corruption must never silently change behavior between decoders;
- W=32 books run the kernel through subtable descent;
- without the kernel (no compiler, or ``REPRO_DISABLE_NATIVE``)
  every decode entry point goes through ``decode_lanes`` and counts
  the reason.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.conform.corpora import wbit_codebook
from repro.core.bitstream import (
    decode_stream,
    decode_stream_scalar,
    stream_lanes,
)
from repro.core.encoder import gpu_encode
from repro.decoder import gap_array
from repro.decoder.chunk_parallel import chunk_parallel_decode
from repro.decoder.gap_array import (
    gap_decode_lanes,
    gap_supported,
    reference_gap_array,
)
from repro.huffman.cache import cached_decode_table
from repro.huffman.decoder import decode_batch, decode_lanes
from repro.huffman.serial import serial_encode
from repro.native import native_available
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.conftest import lanes_decode_dense, lanes_decode_stream

# run the whole module with and without the native gap kernel
pytestmark = pytest.mark.usefixtures("kernel_engine")


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _make_stream(seed: int, n: int, alphabet: int, skew: float,
                 magnitude: int):
    """Deterministic encoded container with a data-derived codebook."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(alphabet) * skew)
    data = rng.choice(alphabet, size=n, p=probs).astype(np.uint16)
    freqs = np.bincount(data, minlength=alphabet).astype(np.int64)
    from repro.core.codebook_parallel import parallel_codebook

    book = parallel_codebook(freqs).codebook
    stream = gpu_encode(data, book, magnitude=magnitude).stream
    return data, book, stream


def _lane_slices(ref, starts, ends, nsyms):
    """Subchunk lanes ``(start, end, count)`` read off a gap array: each
    lane runs from its sync point to the next one in its chunk (or the
    chunk end) and owns the symbols between their counts."""
    offs, cnts = ref.bit_offsets, ref.symbol_counts
    lane_end = np.empty_like(offs)
    lane_end[:-1] = offs[1:]
    n_next = np.empty_like(cnts)
    n_next[:-1] = cnts[1:]
    last = ref.lane_base[1:] - 1
    lane_end[last] = ends
    n_next[last] = nsyms
    return offs, lane_end, n_next - cnts


def _assert_reference_exact(buffer, starts, ends, nsyms, book, table, ref,
                            want):
    """The oracle is exact: decoding every subchunk from its recorded
    sync point reproduces the serial lane decode symbol for symbol."""
    lo, hi, n = _lane_slices(ref, starts, ends, nsyms)
    got = decode_lanes(buffer, lo, np.maximum(hi, lo), n, book, table)
    np.testing.assert_array_equal(got, want)


def _assert_gap_matches_lanes(book, stream, subchunk_bits):
    """The full contract on one container: symbols + gap array + spec.

    Books outside gap range (e.g. a one-entry book's incomplete table)
    must take the documented ``decode_lanes`` fallback instead.
    """
    table = cached_decode_table(book)
    buffer, starts, ends, nsyms = stream_lanes(stream)
    want = decode_lanes(buffer, starts, ends, nsyms, book, table)
    res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                           subchunk_bits=subchunk_bits)
    np.testing.assert_array_equal(res.symbols, want)
    if not gap_supported(book, table)[0]:
        assert res.backend == "lanes" and res.gap is None
        return
    ref = reference_gap_array(buffer, starts, ends, book, subchunk_bits,
                              table)
    _assert_reference_exact(buffer, starts, ends, nsyms, book, table, ref,
                            want)
    # full-container cross-check: decode_stream end-to-end equals the
    # serial treeless decoder (decode_canonical chunk by chunk)
    np.testing.assert_array_equal(
        decode_stream(stream, book),
        decode_stream_scalar(stream, book),
    )
    if native_available():
        assert res.backend == "native"
        assert res.gap is not None and res.gap.equal(ref), (
            "native gap array diverges from the reference walk"
        )
    else:
        assert res.backend == "lanes" and res.gap is None


class TestGapEqualsLanes:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(64, 6000),
        alphabet=st.sampled_from([2, 3, 16, 64, 256]),
        skew=st.sampled_from([0.05, 0.3, 1.0, 8.0]),
        magnitude=st.sampled_from([6, 8, 10]),
        subchunk_bits=st.sampled_from([48, 96, 256, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_matches_lanes_and_reference(
        self, seed, n, alphabet, skew, magnitude, subchunk_bits
    ):
        _data, book, stream = _make_stream(seed, n, alphabet, skew,
                                           magnitude)
        _assert_gap_matches_lanes(book, stream, subchunk_bits)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_single_symbol_alphabet(self, seed):
        """Degenerate one-entry book: every chunk is a run of one code."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        data = np.zeros(n, dtype=np.uint16)
        from repro.core.codebook_parallel import parallel_codebook

        book = parallel_codebook(np.array([n], dtype=np.int64)).codebook
        stream = gpu_encode(data, book, magnitude=6).stream
        _assert_gap_matches_lanes(book, stream, 64)

    def test_breaking_heavy_stream(self):
        """Pinned r=2 under a wide-ish book: most cells break, so the
        lanes carry dense broken-cell traffic alongside chunk payloads."""
        rng = np.random.default_rng(7)
        book = wbit_codebook(14)
        data = rng.integers(0, book.n_symbols, 4000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        _assert_gap_matches_lanes(book, stream, 128)


def _flip(buffer, flip):
    out = buffer.copy()
    if out.size:
        out[flip % out.size] ^= 1 << (flip % 8)
    return out


def _outcome(fn):
    """``(symbols, None)`` or ``(None, "raised")`` — raise parity only
    compares whether a decoder raised, not its message."""
    try:
        return fn(), None
    except ValueError:
        return None, "raised"


def _assert_same_outcome(got, want, what):
    assert got[1] == want[1], f"{what}: raise parity broken"
    if want[1] is None:
        np.testing.assert_array_equal(got[0], want[0])


class TestCorruptStreams:
    @given(
        seed=st.integers(0, 2**32 - 1),
        flip=st.integers(0, 10**9),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_flip_raise_parity(self, seed, flip):
        """A flipped payload bit must not split decoder behavior: either
        every decoder raises ValueError or every decoder returns the
        same (wrong) symbols."""
        _data, book, stream = _make_stream(seed, 2500, 64, 0.3, 8)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        buffer = _flip(buffer, flip)
        want = _outcome(
            lambda: decode_lanes(buffer, starts, ends, nsyms, book, table)
        )
        got = _outcome(lambda: gap_decode_lanes(
            buffer, starts, ends, nsyms, book, table, subchunk_bits=96,
        ).symbols)
        _assert_same_outcome(got, want, "gap_decode_lanes")

    def test_truncated_tail_raises_everywhere(self):
        _data, book, stream = _make_stream(11, 3000, 64, 0.3, 8)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        cut = buffer[: max(1, buffer.size // 2)].copy()
        keep = ends <= cut.size * 8
        # keep one lane whose end bit now lies past the buffer
        starts2 = np.append(starts[keep], starts[~keep][:1])
        ends2 = np.append(ends[keep], np.int64(cut.size * 8 + 40))
        nsyms2 = np.append(nsyms[keep], nsyms[~keep][:1] + 10**6)
        with pytest.raises(ValueError):
            decode_lanes(cut, starts2, ends2, nsyms2, book, table)
        with pytest.raises(ValueError):
            gap_decode_lanes(cut, starts2, ends2, nsyms2, book, table,
                             subchunk_bits=96)


class TestDeepBooks:
    def _deep_stream(self, seed, n):
        rng = np.random.default_rng(seed)
        book = wbit_codebook(32)
        data = rng.integers(0, book.n_symbols, n).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        return book, stream

    def test_wide_book_tiered_reference_is_exact(self):
        """W=32 codewords exceed the 16-bit host index; the default
        table's subtables keep the book gap-supported, and the oracle's
        descending walk is exact on it."""
        book, stream = self._deep_stream(3, 800)
        table = cached_decode_table(book)
        assert table.n_nodes > 0
        assert gap_supported(book, table)[0] is True
        buffer, starts, ends, nsyms = stream_lanes(stream)
        want = decode_lanes(buffer, starts, ends, nsyms, book, table)
        ref = reference_gap_array(buffer, starts, ends, book, 256, table)
        assert ref.n_sync_points > 0
        _assert_reference_exact(buffer, starts, ends, nsyms, book, table,
                                ref, want)

    def test_wide_book_runs_gap_kernel(self, registry):
        """A W=32 book runs the C kernel, which descends the subtables:
        its symbols equal decode_lanes, its gap array equals the
        oracle's, and its descents are counted on the gap path.  (The
        no-kernel leg only checks the counted lanes fallback;
        TestNoNativeKernel covers that path in full.)"""
        book, stream = self._deep_stream(4, 500)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        want = decode_lanes(buffer, starts, ends, nsyms, book, table)
        res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                               subchunk_bits=256)
        np.testing.assert_array_equal(res.symbols, want)
        if not native_available():
            assert res.backend == "lanes"
            assert res.fallback == "no_native_kernel"
            return
        assert res.backend == "native" and res.fallback == ""
        ref = reference_gap_array(buffer, starts, ends, book, 256, table)
        assert res.gap is not None and res.gap.equal(ref)
        assert registry.total("repro_decode_gap_lut_fallback_total") == 0
        assert registry.total("repro_decode_subtable_gather_total",
                              path="gap") > 0
        assert registry.total("repro_decode_table_tier_total",
                              tier="tiered") >= 1


class TestNoNativeKernel:
    """Hosts without a C compiler: every decode entry point goes through
    ``decode_lanes``, reports ``backend="lanes"`` and counts why."""

    @pytest.fixture
    def no_kernel(self, monkeypatch, registry):
        monkeypatch.setattr(native, "kernel", lambda: None)
        results = []
        real = gap_array.gap_decode_lanes

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            results.append(res)
            return res

        # every entry point calls the decoder through the module
        monkeypatch.setattr(gap_array, "gap_decode_lanes", spy)
        return results

    @staticmethod
    def _dense(seed, n=6000):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 48, n)
        freqs = np.bincount(data, minlength=48) + 1
        from repro.core.codebook_parallel import parallel_codebook

        book = parallel_codebook(freqs).codebook
        buf, nbits = serial_encode(data, book)
        return data, book, buf, nbits


    def test_entry_points_match_lanes(self, no_kernel, registry):
        data, book, stream = _make_stream(31, 20_000, 64, 0.3, 8)
        assert not native_available()
        np.testing.assert_array_equal(
            decode_stream(stream, book), lanes_decode_stream(stream, book)
        )
        np.testing.assert_array_equal(
            chunk_parallel_decode(stream, book).symbols, data
        )
        dense, dbook, buf, nbits = self._dense(32)
        np.testing.assert_array_equal(
            decode_batch(buf, nbits, dbook, dense.size),
            lanes_decode_dense(buf, nbits, dbook, dense.size),
        )
        # decode_stream, chunk_parallel_decode and decode_batch
        assert len(no_kernel) == 3
        assert all(r.backend == "lanes" and r.gap is None
                   and r.fallback == "no_native_kernel" for r in no_kernel)
        assert registry.total("repro_decode_gap_lut_fallback_total",
                              reason="no_native_kernel") == len(no_kernel)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_bit_flip_raise_parity(self, no_kernel, seed):
        rng = np.random.default_rng(seed)
        _data, book, stream = _make_stream(40 + seed, 6000, 64, 0.3, 8)
        bad = replace(stream, payload=_flip(stream.payload,
                                            int(rng.integers(10**9))))
        _assert_same_outcome(
            _outcome(lambda: decode_stream(bad, book)),
            _outcome(lambda: lanes_decode_stream(bad, book)),
            "decode_stream",
        )
        _assert_same_outcome(
            _outcome(lambda: chunk_parallel_decode(bad, book).symbols),
            _outcome(lambda: lanes_decode_stream(bad, book)),
            "chunk_parallel_decode",
        )
        dense, dbook, buf, nbits = self._dense(50 + seed)
        buf = _flip(buf, int(rng.integers(10**9)))
        _assert_same_outcome(
            _outcome(lambda: decode_batch(buf, nbits, dbook, dense.size)),
            _outcome(lambda: lanes_decode_dense(buf, nbits, dbook,
                                                dense.size)),
            "decode_batch",
        )

    def test_truncation_raises_everywhere(self, no_kernel, registry):
        _data, book, stream = _make_stream(60, 6000, 64, 0.3, 8)
        bits = stream.chunk_bits.copy()
        bits[-1] -= 40
        cut = replace(stream, chunk_bits=bits)
        for fn in (
            lambda: lanes_decode_stream(cut, book),
            lambda: decode_stream(cut, book),
            lambda: chunk_parallel_decode(cut, book),
        ):
            with pytest.raises(ValueError):
                fn()
        dense, dbook, buf, nbits = self._dense(61)
        for fn in (lanes_decode_dense, decode_batch):
            with pytest.raises(ValueError):
                fn(buf, nbits - 40, dbook, dense.size)
        # every routed call raised from the lanes: decode_stream,
        # chunk_parallel_decode and decode_batch each counted the fallback
        assert registry.total("repro_decode_gap_lut_fallback_total",
                              reason="no_native_kernel") == 3

