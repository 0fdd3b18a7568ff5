"""Single-stage static-codebook encoder: bit identity + coverage guard.

The fast path exists to *skip* the codebook stages, not to change a
single output bit: for any ``(data, book)`` the cold scan path accepts,
``single_stage_encode`` must serialize to the identical container bytes
(the conformance matrix enforces this across every decoder too; these
tests pin it directly, including the degenerate books the matrix
exercises), and every encode takes its bit total from a histogram.  Its
failure mode is equally pinned: uncovered symbols raise
:class:`ValueError` with the registered route's messages, never an
``IndexError`` from inside a table gather, and no encode output is
recorded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.compressor import compress_symbols_registered
from repro.conform.corpora import wbit_codebook
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.scan_pack import checked_lengths
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.core.single_stage import single_stage_encode
from repro.core.tuning import (
    EMPIRICAL_MAX_REDUCTION,
    EncoderTuning,
    choose_reduction_factor,
)
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def _book(hist):
    return parallel_codebook(np.asarray(hist, dtype=np.int64)).codebook


def _corpora():
    """Seeded corpora spanning the conformance families."""
    rng = np.random.default_rng(7)
    out = []
    # text-like bytes
    data = rng.integers(0, 256, 50_000).astype(np.uint8)
    out.append(("textlike", data, _book(np.bincount(data, minlength=256))))
    # nyx_quant-style skewed quantization codes, smoothed alphabet
    data = rng.geometric(0.3, 50_000).clip(0, 1023).astype(np.uint16)
    hist = np.bincount(data.astype(np.int64), minlength=1024) + 1
    out.append(("nyx_quant", data, _book(hist)))
    # degenerate: single-symbol stream
    data = np.zeros(4096, dtype=np.uint8)
    out.append(("single_symbol", data, _book([4096, 1])))
    # two-symbol coin flips
    data = (rng.random(8192) < 0.9).astype(np.uint8)
    out.append(("two_symbol", data, _book(np.bincount(data, minlength=2))))
    # word-width saturating book: every codeword exactly W=32 bits
    book = wbit_codebook(32)
    data = rng.integers(0, book.n_symbols, 2048).astype(np.uint16)
    out.append(("wbit32", data, book))
    return out


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name,data,book",
        [pytest.param(*c, id=c[0]) for c in _corpora()],
    )
    def test_container_bytes_identical_to_scan_path(self, name, data, book):
        fast = single_stage_encode(data, book)
        cold = gpu_encode(data, book, impl="scan")
        assert serialize_stream(fast.stream, book) == \
            serialize_stream(cold.stream, book)
        # and to the iterative modeled-kernel reference
        ref = gpu_encode(data, book, impl="iterative")
        assert serialize_stream(fast.stream, book) == \
            serialize_stream(ref.stream, book)
        # the container still round-trips
        stream, back_book = deserialize_stream(
            serialize_stream(fast.stream, book)
        )
        assert np.array_equal(back_book.lengths, book.lengths)

    def test_identical_under_explicit_tuning(self):
        rng = np.random.default_rng(11)
        data = rng.geometric(0.4, 20_000).clip(0, 255).astype(np.uint8)
        book = _book(np.bincount(data, minlength=256) + 1)
        tuning = EncoderTuning(magnitude=11, reduction_factor=2)
        fast = single_stage_encode(data, book, tuning=tuning)
        cold = gpu_encode(data, book, tuning=tuning, impl="scan")
        assert serialize_stream(fast.stream, book) == \
            serialize_stream(cold.stream, book)

    def test_modeled_costs_match_scan_path(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 64, 10_000).astype(np.uint8)
        book = _book(np.bincount(data, minlength=64) + 1)
        fast = single_stage_encode(data, book)
        cold = gpu_encode(data, book, impl="scan")
        assert fast.tuning == cold.tuning
        assert fast.breaking_fraction == cold.breaking_fraction


class TestHistogramBitTotal:
    """Every encode takes ``r`` from the codeword-bit total of a
    histogram, on both kernel engines: an unpinned ``gpu_encode`` and
    ``single_stage_encode`` count it themselves and match a pinned
    encode whose ``r`` comes from the NumPy length gather."""

    @pytest.mark.parametrize(
        "name,data,book",
        [pytest.param(*c, id=c[0]) for c in _corpora()],
    )
    def test_counted_total_matches_the_length_gather(
        self, kernel_engine, name, data, book
    ):
        total = int(checked_lengths(data, book).sum(dtype=np.int64))
        M = 10
        r = choose_reduction_factor(max(total / data.size, 1e-9), 32, M,
                                    EMPIRICAL_MAX_REDUCTION)
        want = gpu_encode(data, book, tuning=EncoderTuning(M, r, 32))
        assert want.avg_bits == total / data.size
        for got in (gpu_encode(data, book, magnitude=M),
                    single_stage_encode(data, book, magnitude=M)):
            assert got.tuning == want.tuning
            assert got.avg_bits == want.avg_bits
            assert serialize_stream(got.stream, book) == \
                serialize_stream(want.stream, book)

    def test_a_given_histogram_is_not_recounted(self, kernel_engine,
                                                monkeypatch):
        from repro.core import encoder

        data = np.arange(40, dtype=np.uint8) % 5
        book = _book(np.bincount(data, minlength=5))
        counted = []
        real = encoder.host_histogram
        monkeypatch.setattr(encoder, "host_histogram", lambda d, n: (
            counted.append(n) or real(d, n)))
        hist = np.bincount(data, minlength=5)
        a = gpu_encode(data, book, magnitude=6, histogram=hist)
        assert counted == []
        b = gpu_encode(data, book, magnitude=6)
        assert counted == [5]
        assert serialize_stream(a.stream, book) == \
            serialize_stream(b.stream, book)
        gpu_encode(data, book, tuning=EncoderTuning(6, 1, 32))
        assert counted == [5]  # a pinned call counts nothing


def _errors(data, book):
    """``(type, message)`` of the error each registered entry point
    raises for ``data``: ``single_stage_encode`` and
    ``compress_symbols_registered``."""
    out = []
    for fn in (single_stage_encode, compress_symbols_registered):
        with pytest.raises(Exception) as ei:
            fn(data, book)
        out.append((type(ei.value), str(ei.value)))
    return out


class TestValidateCoverage:
    """The registered route's errors, from the encode's own count: the
    types and messages of the coverage pre-check it replaces."""

    def test_empty_payload_passes(self):
        book = _book([1, 1])
        empty = np.array([], dtype=np.uint8)
        assert single_stage_encode(empty, book).stream.n_symbols == 0
        blob, _ = compress_symbols_registered(empty, book)
        assert blob

    def test_float_payload_value_error(self):
        with pytest.raises(ValueError, match="integer"):
            single_stage_encode(np.array([0.5]), _book([1, 1]))
        assert _errors(np.array([0.5]), _book([1, 1])) == [
            (ValueError,
             "compress payload must be an integer array, got float64"),
            (TypeError, "compress_symbols_registered expects integer data"),
        ]

    def test_negative_symbol_value_error(self):
        with pytest.raises(ValueError, match="negative"):
            single_stage_encode(np.array([-1], dtype=np.int32),
                                _book([1, 1]))

    def test_out_of_alphabet_value_error(self):
        book = _book([3, 2, 1])
        with pytest.raises(ValueError, match="outside the registered"):
            single_stage_encode(np.array([3], dtype=np.uint8), book)

    def test_zero_length_codeword_value_error(self):
        # symbol 2 is inside the alphabet but has no codeword
        book = _book([5, 3, 0, 1])
        assert book.lengths[2] == 0
        with pytest.raises(ValueError, match="no codeword"):
            single_stage_encode(np.array([0, 2], dtype=np.uint8), book)

    def test_single_stage_rejects_before_encoding(self, _fresh_metrics):
        book = _book([5, 3, 0, 1])
        with pytest.raises(ValueError):
            single_stage_encode(np.array([2], dtype=np.uint8), book)
        assert _fresh_metrics.total("repro_encode_symbols_total") == 0

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.int32, np.int64])
    @pytest.mark.parametrize("where", ["chunk", "tail"])
    def test_every_dtype_raises_the_route_messages(
        self, kernel_engine, dtype, where
    ):
        """Uncovered symbols anywhere in the payload: the lowest
        negative symbol, then the highest symbol outside the alphabet,
        then the first symbol without a codeword, in that order."""
        # symbols 1 and 3 have no codeword
        book = _book([50, 0, 30, 0, 10, 7])
        rng = np.random.default_rng(21)
        good = rng.choice([0, 2, 4, 5], 6 * 1024 + 9).astype(dtype)
        pos = 700 if where == "chunk" else good.size - 3
        # past the alphabet, values a narrowing cast would wrap onto a
        # covered symbol, and the dtype's largest value
        big = [6, np.iinfo(dtype).max]
        big += [v for v in (256 + 4, (1 << 16) + 4, (1 << 32) + 4)
                if v <= np.iinfo(dtype).max]
        cases = []
        for value in big:
            cases.append(({pos: value, pos + 1: 6},
                          f"symbol value {max(value, 6)} outside the "
                          "registered alphabet [0, 6)"))
        cases.append(({pos: 3, pos + 1: 1, 5: 6},
                      "symbol value 6 outside the registered alphabet "
                      "[0, 6)"))
        cases.append(({pos: 3, pos + 1: 1},
                      "symbol 3 has no codeword in the registered "
                      "codebook"))
        if np.dtype(dtype).kind == "i":
            cases.append(({pos: -2, pos + 1: -7, 5: 9},
                          "compress payload contains negative symbol -7"))
        for edits, message in cases:
            bad = good.copy()
            for i, value in edits.items():
                bad[i] = value
            assert _errors(bad, book) == [(ValueError, message)] * 2
        # and the good payload still encodes
        assert single_stage_encode(good, book).stream.n_symbols == good.size
