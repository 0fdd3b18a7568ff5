"""Chunk-lane decoder: property tests pinning the native pass to its oracle.

The contract under test, on arbitrary encoded containers (random books,
chunk magnitude M in 8..14, narrow words so many cells break, odd
tails, every output dtype):

- ``decode_stream`` through the native ``chunk_decode`` pass (when the
  toolchain built it) stores every symbol at its stream position and
  equals the NumPy oracle ``decode_lanes`` → ``assemble_stream_symbols``
  → ``astype``, dtype and value;
- on corrupted containers the pass either raises the oracle's
  ``ValueError`` or returns its array — corruption must never silently
  change behavior between decoders;
- deep books (the W=32 crafted book, the 18-bit DNA 3-mer book) run the
  pass through subtable descent;
- one lane (``decode_batch``) decodes lane-major into int64;
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
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.datasets.genomics import (
    generate_dna,
    kmer_alphabet_size,
    kmer_symbolize,
)
from repro.decoder import gap_array
from repro.decoder.chunk_parallel import chunk_parallel_decode
from repro.decoder.gap_array import gap_decode_lanes, gap_supported
from repro.huffman.cache import cached_decode_table
from repro.huffman.decoder import decode_batch, decode_lanes
from repro.huffman.serial import serial_encode
from repro.native import native_available
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.conftest import lanes_decode_dense, lanes_decode_stream

# run the whole module with and without the native kernel
pytestmark = pytest.mark.usefixtures("kernel_engine")

#: every dtype decode_stream writes
OUT_DTYPES = ("int64", "uint64", "uint32", "uint16", "uint8")


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _make_stream(seed: int, n: int, alphabet: int, skew: float,
                 magnitude: int, reduction_factor: int | None = None,
                 word_bits: int = 32):
    """Deterministic encoded container with a data-derived codebook."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(alphabet) * skew)
    data = rng.choice(alphabet, size=n, p=probs).astype(np.uint16)
    freqs = np.bincount(data, minlength=alphabet).astype(np.int64)
    book = parallel_codebook(freqs).codebook
    stream = gpu_encode(data, book, magnitude=magnitude,
                        reduction_factor=reduction_factor,
                        word_bits=word_bits).stream
    return data, book, stream


def _oracle(stream, book, dtype):
    """The kernel's oracle: lanes, then assemble, then the dtype."""
    return lanes_decode_stream(stream, book).astype(dtype)


def _dtypes_for(book):
    """The output dtypes that hold every symbol of ``book``."""
    top = int(np.flatnonzero(book.lengths)[-1]) if book.n_used else 0
    return [d for d in OUT_DTYPES if top <= np.iinfo(d).max]


def _assert_decode_matches_oracle(book, stream, data=None, dtypes=None):
    """The full contract on one container, for ``dtypes`` (default:
    every output dtype that holds the book's symbols).

    Books outside the kernel's range (e.g. a one-entry book's
    incomplete table) must take the documented ``decode_lanes``
    fallback instead.
    """
    table = cached_decode_table(book)
    want64 = _oracle(stream, book, np.int64)
    if data is not None:
        np.testing.assert_array_equal(want64, data)
    for dtype in dtypes or _dtypes_for(book):
        got = decode_stream(stream, book, dtype=dtype)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want64.astype(dtype))
    np.testing.assert_array_equal(
        decode_stream(stream, book), decode_stream_scalar(stream, book)
    )
    buffer, starts, ends, nsyms = stream_lanes(stream)
    res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table)
    np.testing.assert_array_equal(
        res.symbols, decode_lanes(buffer, starts, ends, nsyms, book, table)
    )
    if not gap_supported(book, table)[0]:
        assert res.backend == "lanes"
    elif native_available():
        assert res.backend == "native" and res.symbols.dtype == np.int64
    else:
        assert res.backend == "lanes"


class TestGapEqualsLanes:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 6000),
        alphabet=st.sampled_from([2, 3, 16, 64, 256, 300]),
        skew=st.sampled_from([0.05, 0.3, 1.0, 8.0]),
        magnitude=st.integers(8, 14),
        word_bits=st.sampled_from([8, 16, 32]),
        reduction_factor=st.sampled_from([None, 1, 2, 3]),
        dtype=st.sampled_from(OUT_DTYPES),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_matches_lanes_and_reference(
        self, seed, n, alphabet, skew, magnitude, word_bits,
        reduction_factor, dtype,
    ):
        """Random books at every M in 8..14; narrow words and pinned
        reduction factors make many cells break, and ``n`` rarely fills
        whole chunks, so most containers carry an odd tail.  Each
        example decodes into int64 and one drawn dtype (int64 again when
        the drawn one cannot hold the alphabet)."""
        data, book, stream = _make_stream(
            seed, n, alphabet, skew, magnitude, reduction_factor, word_bits
        )
        if dtype not in _dtypes_for(book):
            dtype = "int64"
        _assert_decode_matches_oracle(book, stream, data,
                                      dtypes=["int64", dtype])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_single_symbol_alphabet(self, seed):
        """Degenerate one-entry book: every chunk is a run of one code."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        data = np.zeros(n, dtype=np.uint16)
        book = parallel_codebook(np.array([n], dtype=np.int64)).codebook
        stream = gpu_encode(data, book, magnitude=6).stream
        _assert_decode_matches_oracle(book, stream, data)

    def test_padded_lanes_are_the_one_payload_copy(self, kernel_engine,
                                                   monkeypatch):
        """``stream_lanes(stream, pad)`` lays the chunk, breaking and
        tail sections back to back and then ``pad`` zero bytes, and
        ``decode_stream`` hands that buffer to the pass in place."""
        rng = np.random.default_rng(3)
        book = wbit_codebook(14)
        data = rng.integers(0, book.n_symbols, 4000 + 77).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        assert stream.breaking.nnz and stream.tail_symbols
        pad = gap_array.lane_pad(book.max_length)
        buf, starts, ends, nsyms = stream_lanes(stream, pad)
        plain = stream_lanes(stream)
        assert np.array_equal(buf[:-pad], plain[0])
        assert not buf[-pad:].any()
        for a, b in zip((starts, ends, nsyms), plain[1:]):
            assert np.array_equal(a, b)

        def no_copy(*args):
            raise AssertionError("the padded lanes were copied again")

        monkeypatch.setattr(gap_array, "_pad_buffer", no_copy)
        assert np.array_equal(decode_stream(stream, book), data)

    def test_breaking_heavy_stream(self):
        """Pinned r=2 under a wide-ish book: most cells break, so the
        chunk lanes jump over dense runs of holes while the broken-cell
        lanes fill them."""
        rng = np.random.default_rng(7)
        book = wbit_codebook(14)
        data = rng.integers(0, book.n_symbols, 4000).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        assert stream.breaking.nnz > stream.n_chunks
        _assert_decode_matches_oracle(book, stream, data)


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
        assert got[0].dtype == want[0].dtype
        np.testing.assert_array_equal(got[0], want[0])


def _flipped_stream(stream, flip):
    """``stream`` with one bit flipped in a chunk, broken-cell or tail
    payload (``flip`` picks the section and the bit)."""
    sections = [("payload", stream.payload)]
    if stream.breaking.payload.size:
        sections.append(("breaking", stream.breaking.payload))
    if stream.tail_payload.size:
        sections.append(("tail", stream.tail_payload))
    name, buf = sections[flip % len(sections)]
    bad = _flip(buf, flip // len(sections))
    if name == "payload":
        return replace(stream, payload=bad)
    if name == "tail":
        return replace(stream, tail_payload=bad)
    return replace(stream, breaking=replace(stream.breaking, payload=bad))


class TestCorruptStreams:
    @given(
        seed=st.integers(0, 2**32 - 1),
        flip=st.integers(0, 10**9),
        dtype=st.sampled_from(["int64", "uint16", "uint8"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_flip_raise_parity(self, seed, flip, dtype):
        """A flipped payload bit must not split decoder behavior: either
        the pass and the oracle both raise ValueError or both return the
        same (wrong) symbols in the same dtype."""
        _data, book, stream = _make_stream(seed, 2500, 64, 0.3, 8,
                                           reduction_factor=3,
                                           word_bits=16)
        bad = _flipped_stream(stream, flip)
        _assert_same_outcome(
            _outcome(lambda: decode_stream(bad, book, dtype=dtype)),
            _outcome(lambda: _oracle(bad, book, dtype)),
            "decode_stream",
        )

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
            gap_decode_lanes(cut, starts2, ends2, nsyms2, book, table)

    @pytest.mark.parametrize("cut_bits", [1, 7, 40])
    def test_short_lane_raises_like_the_oracle(self, cut_bits):
        """A chunk, broken cell or tail whose bit length is cut short
        owes symbols past its end bit: the pass stops on it and raises
        the oracle's exhaustion error."""
        _data, book, stream = _make_stream(12, 3000, 64, 0.3, 8,
                                           reduction_factor=3,
                                           word_bits=16)
        assert stream.breaking.nnz and stream.tail_symbols
        bits = stream.chunk_bits.copy()
        bits[-1] -= cut_bits
        brk = stream.breaking.bit_lengths.astype(np.int64)
        brk[0] -= min(cut_bits, int(brk[0]))
        for bad in (
            replace(stream, chunk_bits=bits),
            replace(stream, breaking=replace(stream.breaking,
                                             bit_lengths=brk)),
            replace(stream, tail_bits=stream.tail_bits - cut_bits),
        ):
            _assert_same_outcome(
                _outcome(lambda: decode_stream(bad, book)),
                _outcome(lambda: _oracle(bad, book, np.int64)),
                "decode_stream",
            )


def _dna_book_and_stream(seed: int, n: int):
    """The 18-bit natural book of 2^18 DNA 3-mers with 2% ambiguity
    codes, and a container of the first ``n`` of them (M = 10)."""
    rng = np.random.default_rng(seed)
    seq = generate_dna(3 * (1 << 18), rng, ambiguity_rate=0.02)
    syms = kmer_symbolize(seq, 3)
    freqs = np.bincount(syms, minlength=kmer_alphabet_size(3))
    book = parallel_codebook(freqs.astype(np.int64)).codebook
    data = syms[:n].astype(np.uint16)
    return data, book, gpu_encode(data, book, magnitude=10).stream


class TestDeepBooks:
    def _deep_stream(self, seed, n):
        rng = np.random.default_rng(seed)
        book = wbit_codebook(32)
        data = rng.integers(0, book.n_symbols, n).astype(np.uint16)
        stream = gpu_encode(data, book, magnitude=8,
                            reduction_factor=2).stream
        return data, book, stream

    def test_wide_book_tiered_reference_is_exact(self):
        """W=32 codewords exceed the 16-bit host index; the default
        table's subtables keep the book in the kernel's range, and the
        oracle the kernel is pinned to (lanes → assemble) is exact on
        it: it equals the scalar reference and the input."""
        data, book, stream = self._deep_stream(3, 800)
        table = cached_decode_table(book)
        assert table.n_nodes > 0
        assert gap_supported(book, table)[0] is True
        want = _oracle(stream, book, np.int64)
        np.testing.assert_array_equal(want, data)
        np.testing.assert_array_equal(
            want, decode_stream_scalar(stream, book, table)
        )

    def test_wide_book_runs_gap_kernel(self, registry):
        """A W=32 book runs the C pass, which descends the subtables:
        its symbols equal the oracle's in every dtype, and its descents
        are counted on the gap path.  (The no-kernel leg only checks the
        counted lanes fallback; TestNoNativeKernel covers that path in
        full.)"""
        data, book, stream = self._deep_stream(4, 500)
        _assert_decode_matches_oracle(book, stream, data)
        table = cached_decode_table(book)
        buffer, starts, ends, nsyms = stream_lanes(stream)
        res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table)
        if not native_available():
            assert res.backend == "lanes"
            assert res.fallback == "no_native_kernel"
            return
        assert res.backend == "native" and res.fallback == ""
        assert registry.total("repro_decode_gap_lut_fallback_total") == 0
        assert registry.total("repro_decode_subtable_gather_total",
                              path="gap") > 0
        assert registry.total("repro_decode_table_tier_total",
                              tier="tiered") >= 1

    def test_dna_book_descends_subtables(self, registry):
        """The 18-bit DNA 3-mer book (the genomics-deep workload's
        regime): a 12-bit root plus subtables, decoded by the pass into
        uint16 and every other dtype that holds its 1331 symbols."""
        data, book, stream = _dna_book_and_stream(5, 30_000)
        assert book.max_length == 18
        assert cached_decode_table(book).n_nodes > 0
        _assert_decode_matches_oracle(book, stream, data)
        if native_available():
            assert registry.total("repro_decode_subtable_gather_total",
                                  path="gap") > 0


class TestSingleLane:
    def test_decode_batch_single_lane(self):
        """A dense stream is one lane: ``decode_batch`` returns the
        lane-major int64 symbols of ``decode_lanes``."""
        _data, book, stream = _make_stream(21, 5000, 64, 0.3, 8)
        data = _data.astype(np.int64)
        buf, nbits = serial_encode(data, book)
        got = decode_batch(buf, nbits, book, data.size)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, data)
        np.testing.assert_array_equal(
            got, lanes_decode_dense(buf, nbits, book, data.size)
        )
        # one bit short: exhausted, as in the oracle
        for fn in (lanes_decode_dense, decode_batch):
            with pytest.raises(ValueError):
                fn(buf, nbits - 1, book, data.size)


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
        assert all(r.backend == "lanes" and r.fallback == "no_native_kernel"
                   for r in no_kernel)
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
