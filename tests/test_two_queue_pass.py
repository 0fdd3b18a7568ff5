"""The compiled two-queue codeword-length pass against its oracle.

``parallel_codebook`` takes its codeword lengths from the
``two_queue_lengths`` pass of :mod:`repro.native` when the module loads,
else from ``_two_queue_lengths``, the Python two-queue build that stays
the pass's oracle.  Both follow GenerateCL's tie rule (a leaf wins a tie
with an internal node), so they must agree entry for entry — on ties,
on one- and two-symbol alphabets and on counts near 2^40 — and the pass
must refuse short buffers before it writes.  The module runs once per
``kernel_engine`` leg: on the ``numpy`` leg only the route checks run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.codebook_parallel import _two_queue_lengths, parallel_codebook
from repro.core.generate_cl import generate_cl
from repro.huffman.codebook import canonical_from_lengths
from repro.obs.trace import Tracer, tracing

pytestmark = pytest.mark.usefixtures("kernel_engine")


@pytest.fixture
def kern(kernel_engine):
    if kernel_engine != "native" or native.kernel() is None:
        pytest.skip("compiled module not in play on this leg")
    return native.kernel()


def counts(rng, m, top, ties):
    """``m`` ascending int64 counts in ``[1, top]``; with ``ties`` drawn
    from a handful of values so most melds meet an equal weight."""
    if ties:
        f = rng.choice(rng.integers(1, top, 4, endpoint=True), m)
    else:
        f = rng.integers(1, top, m, endpoint=True)
    return np.sort(f).astype(np.int64)


class TestPassEqualsOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_lengths_equal_oracle(self, kern, data):
        m = data.draw(st.integers(0, 3000))
        top = data.draw(st.sampled_from([1, 2, 7, 1000, (1 << 40) + 5]))
        ties = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        f = counts(rng, m, top, ties)
        got = kern.two_queue_lengths(f)
        assert got.dtype == np.int32
        assert got.tolist() == _two_queue_lengths(f).tolist()

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_and_two_symbols(self, kern, m):
        for top in (1, 5, 1 << 40):
            f = np.full(m, top, np.int64)
            assert kern.two_queue_lengths(f).tolist() == [1] * m
            assert _two_queue_lengths(f).tolist() == [1] * m
        assert kern.two_queue_lengths(np.array([1, 1 << 40])).tolist() == \
            [1, 1]

    def test_empty(self, kern):
        assert kern.two_queue_lengths(np.empty(0, np.int64)).size == 0

    def test_ties_follow_generate_cl(self, kern):
        """All-equal and near-2^40 counts: the leaf-wins tie rule gives
        GenerateCL's lengths exactly."""
        for f in (np.full(1331, 9, np.int64),
                  np.full(1000, 1 << 40, np.int64) + np.arange(1000) // 7,
                  np.array([1, 1, 2, 2, 4, 4, 8, 8], np.int64)):
            want = generate_cl(f).lengths_sorted
            assert kern.two_queue_lengths(f).tolist() == \
                _two_queue_lengths(f).tolist() == list(want)

    def test_deepest_book(self, kern):
        """Fibonacci counts give the deepest tree: lengths 1 .. m - 1."""
        fib = [1, 1]
        while len(fib) < 63:
            fib.append(fib[-1] + fib[-2])
        f = np.array(fib, np.int64)
        got = kern.two_queue_lengths(f)
        assert got.tolist() == _two_queue_lengths(f).tolist()
        assert int(got.max()) == 62

    def test_unsorted_counts_stay_in_bounds(self, kern):
        """Counts out of order still meld by the same rule (the pass is
        memory safe whatever it is given, and matches the oracle)."""
        rng = np.random.default_rng(3)
        for m in (3, 50, 777):
            f = rng.integers(1, 1 << 20, m).astype(np.int64)
            assert kern.two_queue_lengths(f).tolist() == \
                _two_queue_lengths(f).tolist()


class TestRawRefusal:
    def _call(self, kern, f, scratch, n_scratch, out, n_len):
        p = kern._p
        return kern._lib.two_queue_lengths(
            p("int64_t *", f), f.size, p("uint64_t *", scratch), n_scratch,
            p("int32_t *", out), n_len,
        )

    @pytest.mark.parametrize("short", ["scratch", "len"])
    def test_short_buffer_refused_before_writing(self, kern, short):
        f = np.arange(1, 41, dtype=np.int64)
        m = f.size
        scratch = np.full(3 * m + 8, 0xA5A5, np.uint64)
        out = np.full(m + 8, -7, np.int32)
        n_scratch = 3 * m - (1 if short == "scratch" else 0)
        n_len = m - (1 if short == "len" else 0)
        assert self._call(kern, f, scratch, n_scratch, out, n_len) == -2
        assert (scratch == 0xA5A5).all() and (out == -7).all()
        assert self._call(kern, f, scratch, 3 * m, out, m) == -1
        assert out[:m].tolist() == _two_queue_lengths(f).tolist()
        assert (out[m:] == -7).all() and (scratch[3 * m:] == 0xA5A5).all()


class TestCodebookRoute:
    def test_book_and_span(self, kernel_engine):
        rng = np.random.default_rng(9)
        freqs = rng.integers(0, 50, 1331)
        freqs[::5] = 0
        with tracing(Tracer("cb")) as tracer:
            res = parallel_codebook(freqs)
        attrs = next(sp.to_dict()["attrs"] for sp in tracer.spans
                     if sp.name == "encode.codebook")
        on = kernel_engine == "native" and native.kernel() is not None
        assert attrs["lengths_impl"] == ("native" if on else "numpy")
        order = res._order
        lengths = np.zeros(freqs.size, np.int32)
        lengths[order] = _two_queue_lengths(freqs[order])
        want = canonical_from_lengths(lengths)
        assert np.array_equal(res.codebook.lengths, want.lengths)
        assert np.array_equal(res.codebook.codes, want.codes)
        res.costs  # GenerateCW's cross-check against the host book
