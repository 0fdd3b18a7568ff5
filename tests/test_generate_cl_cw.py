"""Tests for the two-phase parallel codebook construction
(GenerateCL + GenerateCW) against the serial ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codebook_parallel import parallel_codebook
from repro.core.generate_cl import generate_cl
from repro.core.generate_cw import generate_cw
from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.tree import codeword_lengths_serial

positive_hist = st.lists(st.integers(1, 10**6), min_size=1, max_size=300)
any_hist = st.lists(st.integers(0, 10**6), min_size=1, max_size=300)

_FIB = [1, 1]
while len(_FIB) < 40:
    _FIB.append(_FIB[-1] + _FIB[-2])

#: histograms full of equal counts, where the tie rule decides the tree:
#: all-equal, powers of two, Fibonacci numbers and counts in 1..4 (with
#: and without unused symbols)
tie_heavy_hist = st.one_of(
    st.tuples(st.integers(1, 300), st.integers(1, 10**6)).map(
        lambda t: [t[1]] * t[0]),
    st.lists(st.integers(0, 30).map(lambda e: 2**e), min_size=1,
             max_size=300),
    st.lists(st.sampled_from(_FIB), min_size=1, max_size=300),
    st.lists(st.integers(1, 4), min_size=1, max_size=300),
    st.lists(st.integers(0, 4), min_size=1, max_size=300),
)


def two_phase_book(freqs):
    """The book GenerateCL → GenerateCW build from ``freqs``."""
    freqs = np.asarray(freqs, dtype=np.int64)
    used = np.flatnonzero(freqs > 0)
    order = used[np.argsort(freqs[used], kind="stable")]
    cl = generate_cl(freqs[order])
    return generate_cw(cl.lengths_sorted, order, freqs.size).codebook


class TestGenerateCL:
    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            generate_cl(np.array([5, 1]))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            generate_cl(np.array([0, 1]))

    def test_empty(self):
        res = generate_cl(np.array([], dtype=np.int64))
        assert res.lengths_sorted.size == 0
        assert res.rounds == 0

    def test_single_symbol(self):
        res = generate_cl(np.array([42]))
        assert res.lengths_sorted.tolist() == [1]

    def test_two_symbols(self):
        res = generate_cl(np.array([1, 9]))
        assert res.lengths_sorted.tolist() == [1, 1]

    def test_lengths_non_increasing(self, rng):
        f = np.sort(rng.integers(1, 10**6, 500))
        res = generate_cl(f)
        # sorted ascending by frequency => lengths non-increasing
        assert np.all(np.diff(res.lengths_sorted) <= 0)

    def test_rounds_track_height(self, rng):
        f = np.sort(rng.integers(1, 10**9, 4096))
        res = generate_cl(f)
        assert res.rounds == res.cost.meta["H"]

    def test_rounds_grow_logarithmically(self, rng):
        r_small = generate_cl(np.sort(rng.integers(1, 10**6, 256))).rounds
        r_large = generate_cl(np.sort(rng.integers(1, 10**6, 8192))).rounds
        # O(log n): 32x more symbols, far fewer than 32x more rounds
        assert r_large < r_small * 4

    @given(positive_hist)
    @settings(max_examples=150, deadline=None)
    def test_optimal_cost(self, freqs):
        f = np.sort(np.asarray(freqs, dtype=np.int64))
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))

    @given(positive_hist)
    @settings(max_examples=80, deadline=None)
    def test_kraft_equality(self, freqs):
        f = np.sort(np.asarray(freqs, dtype=np.int64))
        res = generate_cl(f)
        lens = res.lengths_sorted.astype(np.float64)
        if lens.size == 1:
            assert lens[0] == 1
        else:
            assert np.isclose(np.sum(2.0**-lens), 1.0)

    def test_pathological_exponential(self):
        """Fibonacci-like frequencies give maximal-depth trees."""
        f = np.sort(np.array([1, 1] + [2**k for k in range(1, 30)], dtype=np.int64))
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))
        assert res.lengths_sorted.max() >= 25

    def test_all_equal_frequencies(self):
        f = np.full(1000, 7, dtype=np.int64)
        res = generate_cl(f)
        opt = codeword_lengths_serial(f)
        assert int(np.sum(f * res.lengths_sorted)) == int(np.sum(f * opt))


class TestGenerateCW:
    def _run(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        used = np.flatnonzero(freqs > 0)
        order = used[np.argsort(freqs[used], kind="stable")]
        cl = generate_cl(freqs[order])
        return generate_cw(cl.lengths_sorted, order, freqs.size)

    def test_first_entry_match_reference(self, rng):
        freqs = rng.integers(1, 1000, 128)
        res = self._run(freqs)
        ref = canonical_from_lengths(res.codebook.lengths)
        assert np.array_equal(res.codebook.first, ref.first)
        assert np.array_equal(res.codebook.entry, ref.entry)

    def test_codes_canonical_per_class(self, rng):
        """GenerateCW ranks a class by symbol index, so every symbol gets
        exactly the reference canonical codeword."""
        freqs = rng.integers(1, 1000, 200)
        book = self._run(freqs).codebook
        ref = canonical_from_lengths(book.lengths)
        assert book.codes.dtype == ref.codes.dtype
        np.testing.assert_array_equal(book.codes, ref.codes)
        np.testing.assert_array_equal(book.symbols_by_code,
                                      ref.symbols_by_code)

    def test_prefix_free(self, rng):
        freqs = rng.integers(1, 50, 64)
        assert self._run(freqs).codebook.is_prefix_free()

    def test_levels_counted(self, rng):
        freqs = rng.integers(1, 1000, 128)
        res = self._run(freqs)
        distinct = np.unique(res.codebook.lengths[res.codebook.lengths > 0])
        assert res.levels == distinct.size

    def test_empty_alphabet(self):
        res = generate_cw(np.empty(0, dtype=np.int32),
                          np.empty(0, dtype=np.int64), 4)
        assert res.codebook.n_used == 0

    def test_symbols_by_code_is_decode_order(self, rng):
        """symbols_by_code must list symbols by (length, canonical rank)."""
        freqs = rng.integers(1, 1000, 64)
        book = self._run(freqs).codebook
        lens = book.lengths[book.symbols_by_code]
        assert np.all(np.diff(lens) >= 0)
        codes = book.codes[book.symbols_by_code].astype(np.int64)
        for l in np.unique(lens):
            cls = codes[lens == l]
            assert np.all(np.diff(cls) == 1)


class TestHostBuildTieRule:
    """``parallel_codebook`` builds its book on the host (two-queue
    lengths, then ``canonical_from_lengths``); it must be GenerateCL →
    GenerateCW's book field for field, ties included."""

    FIELDS = ("codes", "lengths", "first", "entry", "symbols_by_code")

    def assert_same_book(self, host, gpu):
        for name in self.FIELDS:
            a, b = getattr(host, name), getattr(gpu, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @given(st.one_of(tie_heavy_hist, any_hist))
    @settings(max_examples=300, deadline=None)
    def test_host_book_equals_two_phase(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        host = parallel_codebook(freqs).codebook
        self.assert_same_book(host, two_phase_book(freqs))
        # the heap-built serial tree breaks ties the same way
        np.testing.assert_array_equal(host.lengths,
                                      codeword_lengths_serial(freqs))

    @pytest.mark.parametrize("freqs", [
        [], [0, 0, 0], [5], [0, 3, 0], [1, 1], [7] * 1000, _FIB,
        [2**e for e in range(40)], [1, 2, 3, 4] * 64,
    ], ids=["empty", "unused", "one", "one_used", "two", "equal1000",
            "fib", "pow2", "1to4"])
    def test_edge_histograms(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        self.assert_same_book(parallel_codebook(freqs).codebook,
                              two_phase_book(freqs))

    def test_pricing_is_lazy_and_cross_checked(self, rng):
        from repro.obs.trace import tracing

        freqs = rng.integers(0, 50, 300)
        with tracing() as tracer:
            res = parallel_codebook(freqs)
        names = tracer.span_names()
        assert "encode.codebook" in names and "encode.canonize" in names
        assert "encode.codebook.generate_cl" not in names
        assert "_generated" not in vars(res)  # nothing priced yet
        with tracing() as tracer:
            rounds, levels = res.rounds, res.levels
            res.costs
        assert tracer.span_names().count("encode.codebook.generate_cl") == 1
        assert tracer.span_names().count("encode.codebook.generate_cw") == 1
        assert levels == np.unique(res.codebook.lengths[freqs > 0]).size
        assert rounds > 0

    def test_pricing_rejects_a_differing_book(self, rng):
        freqs = rng.integers(1, 50, 64)
        res = parallel_codebook(freqs)
        res.codebook.codes[0] ^= np.uint64(1)
        with pytest.raises(RuntimeError, match="differs from the host"):
            res.costs


class TestParallelCodebookEndToEnd:
    @given(any_hist)
    @settings(max_examples=100, deadline=None)
    def test_optimal_and_valid(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        if np.count_nonzero(freqs) == 0:
            return
        res = parallel_codebook(freqs)
        book = res.codebook
        opt = codeword_lengths_serial(freqs)
        assert int(np.sum(freqs * book.lengths)) == int(np.sum(freqs * opt))
        assert book.is_prefix_free()
        assert np.all(book.lengths[freqs == 0] == 0)

    def test_costs_present(self, rng):
        res = parallel_codebook(rng.integers(1, 100, 256))
        assert [c.name for c in res.costs] == [
            "codebook.sort_histogram", "codebook.generate_cl",
            "codebook.generate_cw",
        ]

    def test_modeled_ms_positive(self, rng):
        from repro.cuda.device import V100

        res = parallel_codebook(rng.integers(1, 100, 256))
        assert res.modeled_ms(V100) > 0

    def test_deterministic(self, rng):
        freqs = rng.integers(0, 100, 512)
        b1 = parallel_codebook(freqs).codebook
        b2 = parallel_codebook(freqs).codebook
        assert np.array_equal(b1.codes, b2.codes)

    def test_scaling_observation_table3(self, rng):
        """Parallel construction scales ~O(log n): going 1024 -> 8192
        symbols must grow modeled time far less than the serial baseline's
        O(n log n)."""
        from repro.baselines.serial_gpu_codebook import serial_gpu_codebook
        from repro.cuda.device import V100

        f1 = rng.integers(1, 10**6, 1024)
        f8 = rng.integers(1, 10**6, 8192)
        ours_ratio = (parallel_codebook(f8).modeled_ms(V100)
                      / parallel_codebook(f1).modeled_ms(V100))
        cusz_ratio = (serial_gpu_codebook(f8).modeled_ms(V100)
                      / serial_gpu_codebook(f1).modeled_ms(V100))
        assert ours_ratio < 3.0
        assert cusz_ratio > 8.0
