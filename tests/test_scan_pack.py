"""Scan-pack fast encoder: equivalence with the iterative reference.

The load-bearing claim of the fast path is *bit-for-bit identity* with
the paper's iterative pair: ``gpu_encode(impl="scan")`` serializes to
the identical container bytes with identical modeled costs as
``impl="iterative"``.  The module runs once per ``kernel_engine`` leg;
on the ``numpy`` leg ``impl="scan"`` itself runs the iterative pair, and
on the ``native`` leg the compiled scan-pack, which writes the
coalesced payload itself, must equal
``shuffle_merge(zeroed(reduce_merge(...))).payload()`` byte for byte
and raise the pair's exact errors, and its breaking side channel must
equal the NumPy backtrace's.  Symbols in a dtype the pass has no
variant for are range-checked and narrowed onto it, with the same
errors.  A pinned tuning counts no histogram, so the packing passes
alone must raise the unpinned call's errors, and the ``avg_bits`` they
report from their bit totals must equal the histogram's total.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.app.compressor import compress_symbols
from repro.core.breaking import extract_breaking_symbols, save_breaking
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import ENCODE_IMPLS, gpu_encode
from repro.core.reduce_merge import reduce_merge
from repro.core.scan_pack import (
    analytic_moved_words,
    checked_lengths,
    packed_codeword_table,
    pass_symbols,
    scan_pack_symbols,
)
from repro.core.serialization import serialize_stream
from repro.core.shuffle_merge import shuffle_merge
from repro.core.tuning import EncoderTuning
from repro.histogram.gpu_histogram import host_histogram
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, tracing

pytestmark = pytest.mark.usefixtures("kernel_engine")


def book_for(data, n):
    return parallel_codebook(np.bincount(data, minlength=n)).codebook


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def raised(fn, *args, **kwargs):
    """``(type, message)`` of the exception ``fn`` raises."""
    with pytest.raises(Exception) as ei:
        fn(*args, **kwargs)
    return type(ei.value), str(ei.value)


def iterative_reference(syms, book, tuning):
    """``(payload, offsets, bits, broken, moved_words)`` of the paper's
    pair on whole chunks: the composition gpu_encode's iterative body
    runs."""
    lens = checked_lengths(syms, book).astype(np.int64)
    red = reduce_merge(book.codes[syms], lens, tuning.reduction_factor,
                       word_bits=tuning.word_bits)
    v = red.values.copy()
    l = red.lengths.copy()
    v[red.broken] = 0
    l[red.broken] = 0
    merged = shuffle_merge(v, l, tuning.cells_per_chunk,
                           word_bits=tuning.word_bits)
    payload, offsets = merged.payload()
    return payload, offsets, merged.bits, red.broken, merged.moved_words


def deep_book():
    """A 64-symbol book on Fibonacci counts: symbol ``i >= 1`` takes
    ``64 - i`` bits and symbol 0 takes 63, so its deepest codewords pass
    the packed table's 48 value bits."""
    fib = [1, 1]
    while len(fib) < 64:
        fib.append(fib[-1] + fib[-2])
    book = parallel_codebook(np.array(fib, np.int64)).codebook
    assert book.max_length == 63
    return book


def raw_scan_pack(kern, syms, book, G, cpc, W, out, n_out, offsets, bits,
                  broken, bidx=None, blen=None, n_bidx=None, bpay=None,
                  n_bpay=None, side=None):
    """One raw ``scan_pack_u8`` call over caller-owned arrays (the
    side-channel buffers default to ample ones), returning the pass's
    code."""
    n_cells = syms.size // G
    bidx = np.empty(n_cells, np.uint32) if bidx is None else bidx
    blen = np.empty(n_cells, np.uint16) if blen is None else blen
    bpay = np.empty(n_cells * G * 8, np.uint8) if bpay is None else bpay
    side = np.zeros(2, np.int64) if side is None else side
    table = packed_codeword_table(book)
    p = kern._p
    return kern._lib.scan_pack_u8(
        p("uint8_t *", syms), syms.size // (G * cpc), G, cpc, W,
        p("uint64_t *", table), p("uint64_t *", book.codes), table.size,
        p("uint8_t *", out), n_out, p("int64_t *", offsets),
        p("int64_t *", bits), p("uint8_t *", broken),
        p("uint32_t *", bidx), p("void *", blen), 0,
        bidx.size if n_bidx is None else n_bidx,
        p("uint8_t *", bpay), bpay.size if n_bpay is None else n_bpay,
        p("int64_t *", side),
    )


class TestScanPackProperty:
    @given(st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_symbol_encode_bytes_identical(self, data):
        """gpu_encode scan vs iterative: identical container bytes."""
        alphabet = data.draw(st.sampled_from([2, 7, 64, 300]))
        magnitude = data.draw(st.integers(3, 8))
        size = data.draw(st.integers(0, 3000))
        conc = data.draw(st.floats(0.05, 2.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.dirichlet(np.ones(alphabet) * conc)
        syms = rng.choice(alphabet, size=max(size, 1), p=probs)[:size]
        syms = syms.astype(np.uint16)
        if not syms.size:
            return
        book = book_for(syms, alphabet)
        it = gpu_encode(syms, book, magnitude=magnitude, impl="iterative")
        sc = gpu_encode(syms, book, magnitude=magnitude, impl="scan")
        assert serialize_stream(sc.stream, book) == \
            serialize_stream(it.stream, book)
        assert sc.avg_bits == it.avg_bits
        assert sc.breaking_fraction == it.breaking_fraction
        it_costs = [(c.name, c.bytes_coalesced, c.bytes_random,
                     c.launches, c.compute_cycles) for c in it.costs]
        sc_costs = [(c.name, c.bytes_coalesced, c.bytes_random,
                     c.launches, c.compute_cycles) for c in sc.costs]
        assert sc_costs == it_costs


class TestScanPackUnits:
    @pytest.mark.parametrize("W", [8, 16, 32])
    def test_word_widths_roundtrip_vs_iterative(self, W):
        rng = np.random.default_rng(5)
        syms = rng.choice(40, size=9000,
                          p=rng.dirichlet(np.ones(40) * 0.1))
        syms = syms.astype(np.uint16)
        book = book_for(syms, 40)
        it = gpu_encode(syms, book, magnitude=6, word_bits=W,
                        impl="iterative")
        sc = gpu_encode(syms, book, magnitude=6, word_bits=W, impl="scan")
        assert serialize_stream(sc.stream, book) == \
            serialize_stream(it.stream, book)

    def test_analytic_moved_words_matches_shuffle(self):
        for s in range(0, 9):
            for n_chunks in (0, 1, 3, 17):
                cpc = 1 << s
                vals = np.zeros(n_chunks * cpc, dtype=np.uint64)
                lens = np.ones(n_chunks * cpc, dtype=np.int64)
                sm = shuffle_merge(vals, lens, cpc)
                assert analytic_moved_words(n_chunks, s) == sm.moved_words

    def test_impl_validation(self):
        data = np.array([0, 1], dtype=np.uint8)
        book = book_for(data, 2)
        with pytest.raises(ValueError, match="impl must be one of"):
            gpu_encode(data, book, impl="warp")
        assert ENCODE_IMPLS == ("scan", "iterative")

    def test_error_parity_out_of_range_and_zero_freq(self):
        rng = np.random.default_rng(0)
        syms = rng.integers(0, 2, 4096).astype(np.uint16)
        book = book_for(syms, 3)  # symbol 2 never occurs -> no codeword
        bad_oob = syms.copy()
        bad_oob[7] = 9
        bad_zero = syms.copy()
        bad_zero[7] = 2
        cases = [(bad_oob, IndexError), (bad_zero, ValueError)]
        for dtype in (np.int16, np.int64):
            # NumPy indexing would wrap a negative symbol to K-1
            bad_neg = syms.astype(dtype)
            bad_neg[7] = -1
            cases.append((bad_neg, IndexError))
        for bad, exc in cases:
            msgs = []
            for impl in ("iterative", "scan"):
                with pytest.raises(exc) as ei:
                    gpu_encode(bad, book, impl=impl)
                msgs.append(str(ei.value))
            assert msgs[0] == msgs[1]
            if bad.dtype.kind == "i":
                assert msgs[0] == \
                    "index -1 is out of bounds for axis 0 with size 3"

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    @pytest.mark.parametrize("where", ["chunk", "tail"])
    def test_pinned_tuning_errors_match_unpinned(self, dtype, where):
        """Without a histogram the packing passes check every symbol
        and raise exactly the unpinned call's error."""
        rng = np.random.default_rng(4)
        tuning = EncoderTuning(6, 2, 32)
        syms = rng.integers(0, 2, 5 * 64 + 9).astype(dtype)
        book = book_for(syms, 3)  # symbol 2 never occurs -> no codeword
        pos = 100 if where == "chunk" else syms.size - 4
        for bad_value, exc in ((2, ValueError), (9, IndexError)):
            bad = syms.copy()
            bad[pos] = bad_value
            for impl in ENCODE_IMPLS:
                got = raised(gpu_encode, bad, book, tuning=tuning, impl=impl)
                assert got[0] is exc
                assert got == raised(gpu_encode, bad, book, impl=impl)
        # a codeword-less symbol in a chunk and an out-of-range one in
        # the tail: IndexError wins, as it does for the count
        bad = syms.copy()
        bad[10], bad[-2] = 2, 9
        got = raised(gpu_encode, bad, book, tuning=tuning)
        assert got[0] is IndexError
        assert got == raised(gpu_encode, bad, book)
        if bad.dtype.kind == "i":
            bad = syms.copy()
            bad[pos] = -1
            got = raised(gpu_encode, bad, book, tuning=tuning)
            assert got == (IndexError, "index -1 is out of bounds for "
                                       "axis 0 with size 3")
            assert got == raised(gpu_encode, bad, book)

    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_packed_bit_total_equals_stats_pass(self, data):
        """``avg_bits`` from the packed totals (chunk bits + broken-cell
        bits + tail bits) is the counted histogram's integer total."""
        W = data.draw(st.sampled_from([8, 16, 32]))
        M = data.draw(st.integers(3, 9))
        r = data.draw(st.integers(0, min(3, M - 1)))
        alphabet = data.draw(st.sampled_from([2, 5, 64, 300]))
        size = data.draw(st.integers(0, 4000))
        impl = data.draw(st.sampled_from(ENCODE_IMPLS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.dirichlet(np.ones(alphabet) * 0.2)
        syms = rng.choice(alphabet, size=size, p=probs).astype(np.uint16)
        book = book_for(syms, alphabet)
        res = gpu_encode(syms, book, tuning=EncoderTuning(M, r, W),
                         impl=impl)
        st_ = res.stream
        total = (int(st_.chunk_bits.sum())
                 + int(st_.breaking.bit_lengths.sum(dtype=np.int64))
                 + int(st_.tail_bits))
        assert total == int(checked_lengths(syms, book).sum(dtype=np.int64))
        hist, _, _ = host_histogram(syms, alphabet)
        assert int(hist @ book.lengths) == total
        assert res.avg_bits == (total / syms.size if syms.size else 0.0)

    def test_empty_and_tail_only_inputs(self):
        data = np.arange(2, dtype=np.uint8).repeat(40)
        book = book_for(data, 2)
        for syms in (data[:0], data[:3]):
            it = gpu_encode(syms, book, magnitude=6, impl="iterative")
            sc = gpu_encode(syms, book, magnitude=6, impl="scan")
            assert serialize_stream(sc.stream, book) == \
                serialize_stream(it.stream, book)


class TestScanPackRoute:
    """Which scan-pack ran, and why not the compiled one, is recorded."""

    @staticmethod
    def _spans(data, book, **kwargs):
        with tracing(Tracer("scan")) as tracer:
            gpu_encode(data, book, magnitude=6, **kwargs)
        return {sp.name: sp.to_dict()["attrs"] for sp in tracer.spans}

    def test_span_and_counter_name_the_route(self, kernel_engine, registry):
        data = np.random.default_rng(2).integers(0, 5, 512)
        book = book_for(data, 5)
        spans = self._spans(data.astype(np.uint16), book)
        attrs = spans["encode.scan_pack"]
        if kernel_engine == "native" and native.native_available():
            assert attrs["impl"] == "native"
            assert "fallback" not in attrs
            assert spans["encode.breaking"]["impl"] == "native"
            assert "encode.coalesce" not in spans
            assert "encode.reduce_merge" not in spans
            assert registry.total("repro_encode_native_fallback_total") == 0
        else:
            assert attrs["impl"] == "iterative"
            assert attrs["fallback"] == "no_native_kernel"
            assert spans["encode.breaking"]["impl"] == "numpy"
            assert {"encode.reduce_merge", "encode.shuffle_merge",
                    "encode.coalesce"} <= set(spans)
            assert registry.total("repro_encode_native_fallback_total",
                                  reason="no_native_kernel") == 1

    def test_stage_span_names_the_bit_total_source(self, kernel_engine):
        data = np.random.default_rng(2).integers(0, 5, 512).astype(np.uint8)
        book = book_for(data, 5)
        unpinned = self._spans(data, book)
        lookup = unpinned["encode.lookup"]
        if kernel_engine == "native" and native.native_available():
            assert lookup["backend"] == "native" and "fallback" not in lookup
        else:
            assert lookup["backend"] == "numpy"
            assert lookup["fallback"] == "no_native_kernel"
        pinned = self._spans(data, book, tuning=EncoderTuning(6, 2, 32))
        assert "encode.lookup" not in pinned

    def test_forced_iterative_takes_no_scan_span(self, registry):
        data = np.random.default_rng(2).integers(0, 5, 512).astype(np.uint8)
        spans = self._spans(data, book_for(data, 5), impl="iterative")
        assert "encode.scan_pack" not in spans
        assert "encode.reduce_merge" in spans
        assert registry.total("repro_encode_native_fallback_total") == 0

    @pytest.mark.parametrize("view_dtype", [np.uint16, np.uint32])
    def test_misaligned_views_encode_like_aligned_copies(self, view_dtype):
        """A symbol array at an odd byte offset into a buffer (as a view
        into a container is) gives the aligned copy's container."""
        rng = np.random.default_rng(8)
        syms = rng.integers(0, 300, 5 * 1024 + 7).astype(view_dtype)
        buf = bytearray(1 + syms.nbytes)
        buf[1:] = syms.tobytes()
        view = np.frombuffer(buf, view_dtype, offset=1)
        assert not view.flags.aligned
        assert compress_symbols(view, 300)[0] == \
            compress_symbols(view.copy(), 300)[0]


class TestNarrowedSymbols:
    """Signed and 64-bit symbols are range-checked, then narrowed onto
    a dtype the pass reads: same errors, same bytes, no fallback."""

    DTYPES = [np.int32, np.int64, np.uint64]

    @staticmethod
    def syms_and_book():
        rng = np.random.default_rng(11)
        syms = rng.integers(0, 2, 5 * 64 + 9)
        return syms, book_for(syms, 3)  # symbol 2 has no codeword

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("where", ["chunk", "tail"])
    def test_errors_match_the_checked_gather(self, dtype, where):
        syms, book = self.syms_and_book()
        tuning = EncoderTuning(6, 2, 32)
        pos = 100 if where == "chunk" else syms.size - 4
        big = (1 << 31) - 1 if dtype == np.int32 else (1 << 32) + 3
        cases = [(9, IndexError), (big, IndexError), (2, ValueError)]
        if np.dtype(dtype).kind == "i":
            cases.append((-1, IndexError))
        for value, exc in cases:
            bad = syms.astype(dtype)
            bad[pos] = value
            want = raised(checked_lengths, bad, book)
            assert want[0] is exc
            for impl in ENCODE_IMPLS:
                assert raised(gpu_encode, bad, book, impl=impl) == want
                assert raised(gpu_encode, bad, book, tuning=tuning,
                              impl=impl) == want
        if np.dtype(dtype).kind == "i":
            assert want[1] == \
                "index -1 is out of bounds for axis 0 with size 3"

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_values_that_would_wrap_raise(self, dtype):
        """Each value below casts to coded symbol 1 in the narrowed
        uint8, so only the check before the cast can catch it."""
        syms, book = self.syms_and_book()
        values = [(1 << 8) + 1, (1 << 16) + 1]
        if np.dtype(dtype).itemsize == 8:
            values.append((1 << 32) + 1)
        if np.dtype(dtype).kind == "i":
            values.append(-255)
        for value in values:
            bad = syms.astype(dtype)
            bad[5] = value
            with pytest.raises(IndexError, match="out of bounds"):
                pass_symbols(bad, book)
            assert raised(gpu_encode, bad, book, tuning=EncoderTuning(
                6, 2, 32)) == raised(checked_lengths, bad, book)

    @pytest.mark.parametrize("n_symbols,narrow", [
        (3, np.uint8), (256, np.uint8), (257, np.uint16),
        (65536, np.uint16), (65537, np.uint32),
    ])
    def test_narrowest_pass_dtype(self, n_symbols, narrow):
        hist = np.ones(n_symbols, np.int64)
        book = parallel_codebook(hist).codebook
        syms = np.array([0, n_symbols - 1], np.int64)
        got = pass_symbols(syms, book)
        assert got.dtype == narrow and got.tolist() == syms.tolist()
        u32 = syms.astype(np.uint32)
        assert pass_symbols(u32, book) is u32

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_in_range_bytes_equal_uint16(self, kernel_engine, registry,
                                         dtype):
        rng = np.random.default_rng(12)
        syms = rng.choice(300, 9 * 256 + 5,
                          p=rng.dirichlet(np.ones(300) * 0.3))
        book = book_for(syms, 300)
        want = serialize_stream(
            gpu_encode(syms.astype(np.uint16), book, magnitude=8).stream,
            book)
        with tracing(Tracer("narrow")) as tracer:
            got = gpu_encode(syms.astype(dtype), book, magnitude=8)
        assert serialize_stream(got.stream, book) == want
        attrs = next(sp.to_dict()["attrs"] for sp in tracer.spans
                     if sp.name == "encode.scan_pack")
        if kernel_engine == "native" and native.native_available():
            assert attrs["impl"] == "native" and "fallback" not in attrs
            assert registry.total("repro_encode_native_fallback_total") == 0
        else:
            assert attrs["fallback"] == "no_native_kernel"


class TestNarrowOnce:
    """An unpinned encode narrows other dtypes once, at entry, and hands
    the narrowed array to both the histogram and the scan-pack pass."""

    @pytest.mark.parametrize("entry", ["gpu_encode", "single_stage"])
    def test_one_narrowing_per_encode(self, kernel_engine, monkeypatch,
                                      entry):
        from repro.core import scan_pack
        from repro.core.single_stage import single_stage_encode

        narrowed = []
        real = scan_pack.pass_symbols

        def counting(data, book):
            if data.dtype not in native.SYMBOL_DTYPES:
                narrowed.append(data.dtype)
            return real(data, book)

        monkeypatch.setattr(scan_pack, "pass_symbols", counting)
        monkeypatch.setattr("repro.core.encoder.pass_symbols", counting)
        rng = np.random.default_rng(13)
        syms = rng.integers(0, 40, 7 * 256 + 9)
        book = book_for(syms, 40)
        encode = gpu_encode if entry == "gpu_encode" else single_stage_encode
        got = encode(syms.astype(np.int64), book, magnitude=8)
        want = encode(syms.astype(np.uint16), book, magnitude=8)
        assert serialize_stream(got.stream, book) == \
            serialize_stream(want.stream, book)
        on = kernel_engine == "native" and native.native_available()
        assert narrowed == ([np.dtype(np.int64)] if on else [])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_facade_narrows_once(self, kernel_engine, monkeypatch, dtype):
        """``compress_symbols`` narrows other dtypes once, before its
        histogram: both the histogram and the encode get the narrowed
        array, and the container is the uint16 one but for the itemsize
        byte of its header."""
        import importlib

        from repro.core import encoder

        hist_mod = importlib.import_module("repro.histogram.gpu_histogram")

        seen = []
        real_hist, real_pass = hist_mod.host_histogram, encoder.pass_symbols
        monkeypatch.setattr(hist_mod, "host_histogram", lambda d, n: (
            seen.append(("histogram", d.dtype)) or real_hist(d, n)))
        monkeypatch.setattr(encoder, "pass_symbols", lambda d, b: (
            seen.append(("encode", d.dtype)) or real_pass(d, b)))
        rng = np.random.default_rng(17)
        syms = rng.choice(300, 9 * 1024 + 5,
                          p=rng.dirichlet(np.ones(300) * 0.3))
        blob, report = compress_symbols(syms.astype(dtype), 300)
        want, _ = compress_symbols(syms.astype(np.uint16), 300)
        assert blob[13:] == want[13:]
        assert blob[4] == np.dtype(dtype).itemsize and want[4] == 2
        assert report.input_bytes == syms.size * np.dtype(dtype).itemsize
        narrowed = [(stage, dt) for stage, dt in seen
                    if dt not in native.SYMBOL_DTYPES]
        assert narrowed == []
        assert ("histogram", np.dtype(np.uint16)) in seen

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_facade_errors_unchanged(self, dtype):
        """A symbol outside ``[0, num_symbols)`` still raises the
        histogram's error, before anything is narrowed."""
        values = [300, (1 << 31) - 1]
        if np.dtype(dtype).itemsize == 8:
            values.append((1 << 32) + 3)
        if np.dtype(dtype).kind == "i":
            values.append(-1)
        for value in values:
            syms = np.arange(2000) % 300
            bad = syms.astype(dtype)
            bad[700] = value
            with pytest.raises(ValueError, match="out of histogram range"):
                compress_symbols(bad, 300)


class TestNativeScanPack:
    """The compiled scan-pack against the iterative pair (native leg)."""

    @pytest.fixture(autouse=True)
    def native_leg(self, kernel_engine):
        if kernel_engine != "native" or not native.native_available():
            pytest.skip("compiled module not in play on this leg")

    @staticmethod
    def assert_same_bytes(syms, book, tuning):
        """The compiled pass's payload equals the iterative pair's word
        grid after its coalescing copy, with equal offsets, bits, flags
        and SHUFFLE count; returns the pass's result."""
        got = scan_pack_symbols(syms, book, tuning)
        want = iterative_reference(syms, book, tuning)
        for a, b in zip((got.payload, got.offsets, got.chunk_bits,
                         got.broken), want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.moved_words == want[-1]
        assert got.breaking is None
        return got

    @given(st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_native_equals_numpy_scan_pack_symbols(self, data):
        W = data.draw(st.sampled_from([8, 16, 32]))
        M = data.draw(st.integers(4, 12))
        r = data.draw(st.integers(0, min(3, M - 1)))
        n_chunks = data.draw(st.integers(0, 8 if M <= 9 else 2))
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
        alphabet = data.draw(st.sampled_from(
            [2, 7, 64, 256] if dtype == np.uint8 else [2, 64, 300, 4096]
        ))
        conc = data.draw(st.sampled_from([0.02, 0.3, 2.0]))
        unused = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.dirichlet(np.ones(alphabet) * conc)
        if unused and alphabet > 2:
            # a book that codes only part of its alphabet
            probs[rng.random(alphabet) < 0.5] = 0.0
            probs[0] += 1e-3
            probs /= probs.sum()
        tuning = EncoderTuning(M, r, W)
        syms = rng.choice(alphabet, size=n_chunks << M, p=probs)
        syms = syms.astype(dtype)
        hist = np.bincount(syms, minlength=alphabet)
        hist[0] += 1  # every book codes at least one symbol
        book = parallel_codebook(hist).codebook
        self.assert_same_bytes(syms, book, tuning)

    @pytest.mark.parametrize("W", [8, 16, 32])
    @pytest.mark.parametrize("M", [4, 8, 10, 12])
    def test_native_equals_numpy_on_text_grid(self, text_like, M, W):
        """Every r at the paper's magnitudes, on enwik-like bytes."""
        book = book_for(text_like, 256)
        for r in range(4):
            tuning = EncoderTuning(M, r, W)
            syms = text_like[: text_like.size >> M << M]
            self.assert_same_bytes(syms, book, tuning)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    @pytest.mark.parametrize("W", [8, 16, 32])
    def test_all_broken_and_empty_inputs(self, dtype, W):
        """Chunks whose every cell breaks carry 0 dense bits and 0
        payload bytes; an input of no chunks gives one zero offset."""
        syms = np.arange(256, dtype=dtype).repeat(4)  # 8-bit codewords
        book = book_for(syms.astype(np.int64), 256)
        r = {8: 1, 16: 2, 32: 3}[W]  # cells of 2W bits: every one breaks
        tuning = EncoderTuning(6, r, W)
        got = self.assert_same_bytes(syms, book, tuning)
        assert got.broken.all() and not got.chunk_bits.any()
        assert got.payload.size == 0 and not got.offsets.any()
        empty = self.assert_same_bytes(syms[:0], book, tuning)
        assert empty.offsets.tolist() == [0] and empty.payload.size == 0
    def test_raw_pass_refuses_a_chunk_past_n_out(self):
        """A chunk whose worst case (cpc * W / 8 bytes plus the 4-byte
        trailing store) could pass ``n_out`` is refused before it
        writes: the pass returns -2 and nothing lands past ``n_out``."""
        kern = native.kernel()
        rng = np.random.default_rng(6)
        syms = rng.integers(0, 16, 4 << 6).astype(np.uint8)
        book = book_for(syms, 16)
        table = packed_codeword_table(book)
        G, cpc, W = 4, 16, 32  # M = 6, r = 2: four chunks
        worst = cpc * W // 8 + 4
        out = np.full(4 * worst, 0xA5, np.uint8)
        offsets = np.zeros(5, np.int64)
        bits = np.zeros(4, np.int64)
        broken = np.zeros(4 * cpc, np.bool_)
        for n_out, refused_at in ((worst - 1, 0), (worst, 1)):
            out[:] = 0xA5
            ret = raw_scan_pack(kern, syms, book, G, cpc, W, out, n_out,
                                offsets, bits, broken)
            assert ret == -2
            assert (out[n_out:] == 0xA5).all()
            assert offsets[refused_at] <= n_out
        # the wrapper's own capacity never refuses
        got = kern.scan_pack(syms, table, book.codes, G, cpc, W,
                             book.max_length)
        assert got[-1] == -1 and got[2].tolist()[-1] == got[1].size

    def test_wrapper_sizes_the_side_channel_from_the_bit_total(self):
        """Every cell breaks (8-bit codewords, cells of 32 bits past
        W = 16), so the side payload needs exactly 1024 bytes: a total
        whose bound holds them encodes, one whose bound is a byte short
        is refused by the pass before it overruns."""
        kern = native.kernel()
        syms = np.arange(256, dtype=np.uint8).repeat(4)
        book = book_for(syms, 256)
        table = packed_codeword_table(book)
        G, cpc, W = 4, 16, 16
        exact = int(checked_lengths(syms, book).sum())
        assert exact == 8192
        # capacity ceil(total / 8) + min(cells, total // (W + 1)): 256
        # index slots and 768 + 256 bytes, then 767 + 256
        for total in (exact, 6144):
            got = kern.scan_pack(syms, table, book.codes, G, cpc, W,
                                 book.max_length, total)
            assert got[-1] == -1 and got[4][0].size == 256
            assert got[4][2].size == 1024
        with pytest.raises(RuntimeError, match="overrun"):
            kern.scan_pack(syms, table, book.codes, G, cpc, W,
                           book.max_length, 6136)

    def test_callers_hand_down_their_bit_totals(self, monkeypatch):
        """The facade passes its histogram's total and the registered
        route its own count's total: the exact codeword bits."""
        from repro.core.single_stage import single_stage_encode

        seen = []
        real = native.NativeKernel.scan_pack

        def spy(self, data, *args):
            seen.append(args[-1])
            return real(self, data, *args)

        monkeypatch.setattr(native.NativeKernel, "scan_pack", spy)
        rng = np.random.default_rng(8)
        syms = rng.choice(64, 20_000, p=rng.dirichlet(np.ones(64) * 0.3))
        syms = syms.astype(np.uint16)
        book = book_for(syms, 64)
        exact = int(checked_lengths(syms, book).sum())
        blob, _ = compress_symbols(syms, 64)
        single_stage_encode(syms, book)
        assert seen == [exact, exact]

    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_side_channel_equals_backtrace(self, data):
        """The pass's side channel — cell indices, bit lengths, bits and
        (after the store's prefix sum) byte offsets — equals the NumPy
        backtrace's, for every symbol dtype, G and W, with no cell, some
        or every cell broken, and codewords up to 63 bits."""
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
        G = data.draw(st.sampled_from([1, 2, 4, 8]))
        W = data.draw(st.sampled_from([8, 16, 32]))
        r = G.bit_length() - 1
        M = data.draw(st.integers(max(r + 1, 3), 9))
        n_chunks = data.draw(st.integers(0, 6))
        kind = data.draw(st.sampled_from(["random", "none", "all", "deep"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = n_chunks << M
        if kind == "random":
            alphabet = data.draw(st.sampled_from([3, 64, 256]))
            syms = rng.choice(alphabet, n,
                              p=rng.dirichlet(np.ones(alphabet) * 0.3))
            hist = np.bincount(syms, minlength=alphabet)
            hist[0] += 1
            book = parallel_codebook(hist).codebook
        elif kind == "none":  # 1-bit codewords: no cell passes W
            syms = rng.integers(0, 2, n)
            book = parallel_codebook(np.ones(2, np.int64)).codebook
        else:
            book = deep_book()
            # symbols below 24 take 40+ bits: every cell breaks
            syms = rng.integers(0, 24 if kind == "all" else 64, n)
        syms = syms.astype(dtype)
        tuning = EncoderTuning(M, r, W)
        got = self.assert_same_bytes(syms, book, tuning)
        want = extract_breaking_symbols(syms, book, got.broken, G)
        store = save_breaking(got.broken.size, G, *got.side)
        for name in ("cell_indices", "bit_lengths", "payload",
                     "payload_offsets"):
            a, b = getattr(store, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        if kind == "none":
            assert store.nnz == 0
        if kind == "all":
            assert store.nnz == got.broken.size
            assert not got.chunk_bits.any()

    @pytest.mark.parametrize("short", ["payload", "indices"])
    def test_raw_pass_refuses_a_broken_cell_past_the_side_capacity(
            self, short):
        """A broken cell whose index slot or exact bytes would pass the
        side channel's capacity is refused: -2, and nothing lands past
        the capacity."""
        kern = native.kernel()
        syms = np.arange(256, dtype=np.uint8).repeat(4)
        book = book_for(syms, 256)  # 8-bit codewords: G=4 cells of 32 bits
        G, cpc, W = 4, 16, 16  # M = 6, r = 2: every cell breaks
        n_cells = syms.size // G
        out = np.empty(syms.size, np.uint8)
        offsets = np.empty(syms.size // 64 + 1, np.int64)
        bits = np.empty(syms.size // 64, np.int64)
        broken = np.empty(n_cells, np.bool_)

        def run(n_bidx, n_bpay):
            bidx = np.full(n_cells + 4, 0xA5A5A5A5, np.uint32)
            blen = np.zeros(n_cells + 4, np.uint16)
            bpay = np.full(n_cells * 4 + 16, 0xA5, np.uint8)
            side = np.zeros(2, np.int64)
            ret = raw_scan_pack(kern, syms, book, G, cpc, W, out, out.size,
                                offsets, bits, broken, bidx, blen, n_bidx,
                                bpay, n_bpay, side)
            return ret, bidx, bpay, side

        ret, bidx, bpay, side = run(n_cells, n_cells * 4)
        assert ret == -1 and side.tolist() == [n_cells, n_cells * 4]
        assert bidx[:n_cells].tolist() == list(range(n_cells))
        want = extract_breaking_symbols(syms, book, broken, G)
        assert np.array_equal(bpay[: n_cells * 4], want.payload)
        if short == "payload":
            got = run(n_cells, n_cells * 4 - 1)
            assert (got[2][n_cells * 4 - 1:] == 0xA5).all()
            # the cells that fit were written before the refusal
            assert np.array_equal(got[2][: n_cells * 4 - 4],
                                  want.payload[:-4])
        else:
            got = run(n_cells - 1, n_cells * 4)
            assert (got[1][n_cells - 1:] == 0xA5A5A5A5).all()
            assert (got[2][n_cells * 4 - 4:] == 0xA5).all()
        assert got[0] == -2

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    @pytest.mark.parametrize("size", [600, 5000])
    def test_encode_errors_match_numpy(self, dtype, size):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 2, size).astype(dtype)
        book = book_for(syms, 3)  # symbol 2 never occurs -> no codeword
        cases = [(9, IndexError), (2, ValueError)]
        for bad_value, exc in cases:
            bad = syms.copy()
            bad[size // 3] = bad_value
            got = raised(gpu_encode, bad, book)
            assert got[0] is exc
            assert got == raised(gpu_encode, bad, book, impl="iterative")

    def test_scan_pack_symbols_index_error_matches_numpy(self):
        syms = np.zeros(256, dtype=np.uint16)
        syms[100] = 9
        book = book_for(np.array([0, 1, 1], dtype=np.uint16), 3)
        tuning = EncoderTuning(6, 0, 32)  # r = 0: the pair's plain gather
        got = raised(scan_pack_symbols, syms, book, tuning)
        assert got[0] is IndexError
        assert got == raised(checked_lengths, syms, book)
