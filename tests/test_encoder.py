"""End-to-end tests of the reduce-shuffle-merge encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cusz_encoder import cusz_coarse_encode
from repro.baselines.prefix_sum_encoder import prefix_sum_encode
from repro.core.adaptive import adaptive_encode
from repro.core.bitstream import decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.tuning import EncoderTuning
from repro.cuda.device import RTX5000, V100
from repro.huffman.cpu_mp import cpu_mp_encode
from repro.huffman.cpu_mt import cpu_mt_encode
from repro.huffman.serial import serial_encode
from repro.utils.bits import unpack_to_bits


def book_for(data, n_symbols):
    freqs = np.bincount(data, minlength=n_symbols)
    return parallel_codebook(freqs).codebook


class TestRoundTrip:
    def test_basic(self, skewed_data, skewed_book):
        res = gpu_encode(skewed_data, skewed_book)
        assert np.array_equal(decode_stream(res.stream, skewed_book),
                              skewed_data)

    def test_with_tail(self, rng):
        data = rng.integers(0, 16, 1024 + 137).astype(np.uint8)
        book = book_for(data, 16)
        res = gpu_encode(data, book)
        assert res.stream.tail_symbols == 137
        assert np.array_equal(decode_stream(res.stream, book), data)

    def test_smaller_than_one_chunk(self, rng):
        data = rng.integers(0, 16, 100).astype(np.uint8)
        book = book_for(data, 16)
        res = gpu_encode(data, book)
        assert res.stream.n_chunks == 0
        assert np.array_equal(decode_stream(res.stream, book), data)

    def test_empty_input(self):
        book = book_for(np.array([0, 1], dtype=np.uint8), 2)
        res = gpu_encode(np.array([], dtype=np.uint8), book)
        assert decode_stream(res.stream, book).size == 0

    def test_exact_chunk_multiple(self, rng):
        data = rng.integers(0, 8, 4096).astype(np.uint8)
        book = book_for(data, 8)
        res = gpu_encode(data, book)
        assert res.stream.tail_symbols == 0
        assert np.array_equal(decode_stream(res.stream, book), data)

    @pytest.mark.parametrize("magnitude,r", [(10, 2), (10, 3), (11, 3),
                                             (12, 4), (8, 1), (6, 0)])
    def test_all_tunings(self, rng, magnitude, r):
        data = rng.integers(0, 64, 3 * (1 << magnitude) + 55).astype(np.uint16)
        book = book_for(data, 64)
        res = gpu_encode(data, book, magnitude=magnitude, reduction_factor=r)
        assert res.tuning.shuffle_factor == magnitude - r
        assert np.array_equal(decode_stream(res.stream, book), data)

    def test_heavy_breaking_roundtrip(self, rng):
        """A skewed alphabet with long codes forces many breaking cells."""
        probs = np.concatenate([[0.999], np.full(255, 0.001 / 255)])
        data = rng.choice(256, size=5000, p=probs).astype(np.uint8)
        book = book_for(data, 256)
        res = gpu_encode(data, book, reduction_factor=3)
        assert np.array_equal(decode_stream(res.stream, book), data)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 48))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, n_sym):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n_sym) * 0.2)
        size = int(rng.integers(0, 5000))
        data = rng.choice(n_sym, size=size, p=probs).astype(np.uint16)
        book = book_for(data, n_sym) if size else parallel_codebook(
            np.ones(n_sym, dtype=np.int64)
        ).codebook
        res = gpu_encode(data, book, magnitude=8)
        assert np.array_equal(decode_stream(res.stream, book), data)


class TestBitExactness:
    def test_chunk_bits_match_serial_when_unbroken(self, rng):
        data = rng.integers(0, 4, 2048).astype(np.uint8)
        book = book_for(data, 4)
        res = gpu_encode(data, book, reduction_factor=2)
        assert res.stream.breaking.nnz == 0
        ref_buf, ref_bits = serial_encode(data[:1024], book)
        buf, bits = res.stream.chunk_payload(0)
        assert bits == ref_bits
        assert np.array_equal(unpack_to_bits(buf, bits),
                              unpack_to_bits(ref_buf, ref_bits))

    def test_total_encoded_bits_invariant_across_tunings(self, rng):
        data = rng.integers(0, 32, 6000).astype(np.uint8)
        book = book_for(data, 32)
        sizes = set()
        for m, r in [(10, 2), (10, 3), (11, 2), (9, 1)]:
            res = gpu_encode(data, book, magnitude=m, reduction_factor=r)
            sizes.add(res.stream.encoded_bits)
        assert len(sizes) == 1  # code bits independent of chunking


class TestEncoderErrors:
    def test_uncovered_symbol(self, rng):
        book = parallel_codebook(np.array([1, 1, 0, 0])).codebook
        with pytest.raises(ValueError, match="no codeword"):
            gpu_encode(np.array([3]), book)

    @pytest.mark.parametrize("encode", [
        serial_encode,
        lambda d, b: cpu_mt_encode(d, b, threads=2),
        lambda d, b: cpu_mp_encode(d, b, workers=1),
        lambda d, b: cusz_coarse_encode(d, b, chunk_symbols=16),
        prefix_sum_encode,
        lambda d, b: adaptive_encode(d, b, magnitude=4),
    ], ids=["serial", "cpu_mt", "cpu_mp", "cusz_coarse", "prefix_sum",
            "adaptive"])
    def test_negative_symbol_raises(self, encode):
        """NumPy indexing would wrap -1 to the last symbol and encode it."""
        book = parallel_codebook(np.array([50, 30, 20, 10])).codebook
        data = np.arange(64, dtype=np.int64) % 4
        data[5] = -1
        with pytest.raises(IndexError, match=(
                "index -1 is out of bounds for axis 0 with size 4")):
            encode(data, book)

    def test_invalid_tuning(self):
        with pytest.raises(ValueError):
            EncoderTuning(magnitude=4, reduction_factor=4)
        with pytest.raises(ValueError):
            EncoderTuning(magnitude=4, reduction_factor=-1)
        with pytest.raises(ValueError):
            EncoderTuning(magnitude=4, reduction_factor=2, word_bits=24)


class TestEncoderCosts:
    def test_cost_names(self, skewed_data, skewed_book):
        res = gpu_encode(skewed_data, skewed_book)
        names = [c.name for c in res.costs]
        assert names[0] == "enc.reduce_shuffle_merge"
        assert "enc.breaking_backtrace" in names
        assert "enc.blockwise_len" in names
        assert "enc.coalesce_copy" in names

    def test_meta_records_tuning(self, skewed_data, skewed_book):
        res = gpu_encode(skewed_data, skewed_book, magnitude=11,
                         reduction_factor=2)
        meta = res.costs[0].meta
        assert meta["M"] == 11 and meta["r"] == 2 and meta["s"] == 9

    def test_modeled_gbps_v100_beats_rtx(self, skewed_data, skewed_book):
        res = gpu_encode(skewed_data, skewed_book)
        assert res.modeled_gbps(V100, scale=100) > res.modeled_gbps(
            RTX5000, scale=100
        )

    def test_deep_reduce_penalized(self, rng):
        """Table II: r = 4 loses to r = 3 at the same magnitude."""
        from repro.datasets.registry import get_dataset

        data, scale = get_dataset("nyx_quant").generate(2_000_000, rng)
        book = book_for(data, 1024)
        g3 = gpu_encode(data, book, magnitude=10,
                        reduction_factor=3).modeled_gbps(V100, scale)
        g4 = gpu_encode(data, book, magnitude=10,
                        reduction_factor=4).modeled_gbps(V100, scale)
        assert g3 > g4

    def test_magnitude_10_beats_12(self, rng):
        """Table II: M = 10 is the paper's sweet spot."""
        from repro.datasets.registry import get_dataset

        data, scale = get_dataset("nyx_quant").generate(2_000_000, rng)
        book = book_for(data, 1024)
        g10 = gpu_encode(data, book, magnitude=10,
                         reduction_factor=3).modeled_gbps(V100, scale)
        g12 = gpu_encode(data, book, magnitude=12,
                         reduction_factor=3).modeled_gbps(V100, scale)
        assert g10 > g12
