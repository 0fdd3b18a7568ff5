"""Tests for the per-chunk adaptive reduction factor extension."""

import numpy as np
import pytest

from repro.core.adaptive import adaptive_decode, adaptive_encode
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import serialize_stream
from repro.core.tuning import EncoderTuning
from repro.cuda.device import V100
from repro.datasets.synthetic import probs_for_avg_bits, sample_symbols


@pytest.fixture
def mixed_data(rng):
    """Heterogeneous stream: very compressible half + dense half."""
    n_half = 16 * 1024
    low = sample_symbols(probs_for_avg_bits(256, 1.2), n_half, rng,
                         dtype=np.uint16)
    high = sample_symbols(probs_for_avg_bits(256, 7.0), n_half, rng,
                          dtype=np.uint16)
    return np.concatenate([low, high])


@pytest.fixture
def mixed_book(mixed_data):
    freqs = np.bincount(mixed_data, minlength=256)
    return parallel_codebook(freqs).codebook


class TestAdaptiveRoundTrip:
    def test_roundtrip(self, mixed_data, mixed_book):
        res = adaptive_encode(mixed_data, mixed_book)
        out = adaptive_decode(res, mixed_book)
        assert np.array_equal(out, mixed_data)

    def test_roundtrip_with_tail(self, rng, mixed_book, mixed_data):
        data = mixed_data[: 3 * 1024 + 77]
        res = adaptive_encode(data, mixed_book)
        assert res.tail_symbols == 77
        assert np.array_equal(adaptive_decode(res, mixed_book), data)

    def test_empty(self, mixed_book):
        res = adaptive_encode(np.array([], dtype=np.uint16), mixed_book)
        assert adaptive_decode(res, mixed_book).size == 0

    def test_uniform_data_single_group(self, rng):
        data = sample_symbols(probs_for_avg_bits(64, 3.0), 8192, rng)
        book = parallel_codebook(np.bincount(data, minlength=64)).codebook
        res = adaptive_encode(data, book)
        assert len(res.group_streams) == 1
        assert np.array_equal(adaptive_decode(res, book), data)


class TestAdaptiveBehaviour:
    def test_chunks_choose_different_r(self, mixed_data, mixed_book):
        res = adaptive_encode(mixed_data, mixed_book)
        assert len(set(res.chunk_r.tolist())) >= 2
        # the compressible half picks a deeper r than the dense half
        n_chunks = res.n_chunks
        first_half = res.chunk_r[: n_chunks // 2]
        second_half = res.chunk_r[n_chunks // 2:]
        assert first_half.mean() > second_half.mean()

    def test_less_breaking_than_global_deep_r(self, mixed_data, mixed_book):
        """The point of the extension: a global r sized for the
        compressible region wrecks the dense region; adaptive does not."""
        adaptive = adaptive_encode(mixed_data, mixed_book)
        fixed = gpu_encode(mixed_data, mixed_book, reduction_factor=3)
        assert adaptive.breaking_fraction < fixed.breaking_fraction * 0.5

    def test_better_ratio_than_global_deep_r(self, mixed_data, mixed_book):
        adaptive = adaptive_encode(mixed_data, mixed_book)
        fixed = gpu_encode(mixed_data, mixed_book, reduction_factor=3)
        assert adaptive.compression_ratio(mixed_data.nbytes) > (
            fixed.stream.compression_ratio(mixed_data.nbytes)
        )

    def test_matches_fixed_when_homogeneous(self, rng):
        data = sample_symbols(probs_for_avg_bits(256, 5.2), 8192, rng)
        book = parallel_codebook(np.bincount(data, minlength=256)).codebook
        adaptive = adaptive_encode(data, book)
        fixed = gpu_encode(data, book).stream
        (r,) = set(adaptive.chunk_r.tolist())
        assert r == fixed.tuning.reduction_factor
        # one group holding every chunk: the fixed encode's chunks exactly
        group = adaptive.group_streams[r]
        assert np.array_equal(adaptive.group_chunks[r],
                              np.arange(fixed.n_chunks))
        assert np.array_equal(group.chunk_bits, fixed.chunk_bits)
        assert np.array_equal(group.payload, fixed.payload)
        for name in ("cell_indices", "bit_lengths", "payload"):
            assert np.array_equal(getattr(group.breaking, name),
                                  getattr(fixed.breaking, name))

    def test_groups_match_iterative_encode(self, mixed_data, mixed_book):
        """Each r's group is the paper-shaped iterative encode of exactly
        the chunks that chose it."""
        res = adaptive_encode(mixed_data, mixed_book)
        N = 1 << res.magnitude
        chunks = mixed_data[: res.n_chunks * N].reshape(res.n_chunks, N)
        assert len(res.group_streams) >= 2
        for r, stream in res.group_streams.items():
            ids = res.group_chunks[r]
            want = gpu_encode(
                chunks[ids].ravel(), mixed_book,
                tuning=EncoderTuning(res.magnitude, r, res.word_bits),
                impl="iterative",
            ).stream
            assert serialize_stream(stream, mixed_book) == \
                serialize_stream(want, mixed_book)

    def test_costs_and_model(self, mixed_data, mixed_book):
        res = adaptive_encode(mixed_data, mixed_book)
        assert res.costs[0].name == "enc.adaptive_classify"
        assert res.modeled_gbps(V100, mixed_data.nbytes, scale=100) > 0

    def test_avg_bits_reported(self, mixed_data, mixed_book):
        res = adaptive_encode(mixed_data, mixed_book)
        assert 2.0 < res.avg_bits < 7.0

    def test_rejects_uncovered_symbol(self, mixed_book):
        bad_book = parallel_codebook(np.array([1, 1, 0, 0])).codebook
        with pytest.raises(ValueError):
            adaptive_encode(np.array([3]), bad_book)
