"""The compiled histogram pass against its NumPy oracle.

``NativeKernel.histogram`` must give :func:`fast_histogram`'s counts on
every symbol dtype it takes, and for an out-of-range symbol it must
report the same first index the oracle finds.  The edge cases are an
empty input, a one-bin alphabet, lengths that are not a multiple of
the pass's four-way unroll and a misaligned view.  Skipped where the
module cannot be built.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.histogram.gpu_histogram import fast_histogram, gpu_histogram

kern = native.kernel()
pytestmark = pytest.mark.skipif(
    kern is None, reason=f"native module unavailable: {native.native_error()}"
)

DTYPES = [d.name for d in native.SYMBOL_DTYPES]


def first_out_of_range(data: np.ndarray, n_bins: int) -> int:
    bad = np.flatnonzero(data >= n_bins)
    return int(bad[0]) if bad.size else -1


@given(
    dtype=st.sampled_from(DTYPES),
    n=st.integers(0, 4099),
    n_bins=st.integers(1, 3000),
    skew=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_counts_equal_oracle(dtype, n, n_bins, skew, seed):
    rng = np.random.default_rng(seed)
    hi = min(n_bins, np.iinfo(dtype).max + 1)
    # geometric-ish draws pile many equal symbols into neighbouring
    # slots, the case the four private copies exist for
    data = np.minimum(rng.exponential(1 + hi / (1 + skew * 8), n),
                      hi - 1).astype(dtype)
    hist, bad = kern.histogram(data, n_bins)
    assert bad == -1
    assert hist.dtype == np.int64 and hist.shape == (n_bins,)
    np.testing.assert_array_equal(hist, fast_histogram(data, n_bins))


@given(
    dtype=st.sampled_from(DTYPES),
    n=st.integers(1, 600),
    n_bins=st.integers(1, 255),
    n_bad=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_first_out_of_range_index(dtype, n, n_bins, n_bad, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, n_bins, n).astype(dtype)
    top = np.iinfo(dtype).max
    at = rng.integers(0, n, n_bad)
    data[at] = rng.integers(n_bins, top, n_bad, endpoint=True).astype(dtype)
    _hist, bad = kern.histogram(data, n_bins)
    assert bad == first_out_of_range(data, n_bins) == int(at.min())


@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_input(dtype):
    hist, bad = kern.histogram(np.empty(0, dtype=dtype), 7)
    assert bad == -1
    np.testing.assert_array_equal(hist, np.zeros(7, dtype=np.int64))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 1023])
def test_one_bin(dtype, n):
    hist, bad = kern.histogram(np.zeros(n, dtype=dtype), 1)
    assert bad == -1 and hist.tolist() == [n]
    data = np.zeros(n, dtype=dtype)
    data[-1] = 1
    _hist, bad = kern.histogram(data, 1)
    assert bad == n - 1


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [5, 6, 7, 13, 4097])
def test_tail_not_multiple_of_four(dtype, n):
    data = (np.arange(n) % 5).astype(dtype)
    hist, bad = kern.histogram(data, 5)
    assert bad == -1
    np.testing.assert_array_equal(hist, np.bincount(data, minlength=5))
    data[-1] = 9  # only the scalar tail sees it
    _hist, bad = kern.histogram(data, 5)
    assert bad == n - 1


def test_rejects_other_dtypes_and_layouts():
    with pytest.raises(ValueError):
        kern.histogram(np.zeros(4, dtype=np.int64), 4)
    with pytest.raises(ValueError):
        kern.histogram(np.zeros(8, dtype=np.uint16)[::2], 4)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
def test_misaligned_view_counts_like_aligned_copy(dtype):
    """A symbol array at an odd byte offset into a buffer reaches the
    pass aligned (a copy), so it counts as its aligned copy does."""
    data = (np.arange(4099) * 7 % 300).astype(dtype)
    buf = bytearray(1 + data.nbytes)
    buf[1:] = data.tobytes()
    view = np.frombuffer(buf, dtype, offset=1)
    assert not view.flags.aligned
    np.testing.assert_array_equal(gpu_histogram(view, 300).histogram,
                                  gpu_histogram(view.copy(), 300).histogram)
    hist, bad = kern.histogram(view, 300)
    assert bad == -1
    np.testing.assert_array_equal(hist, np.bincount(data, minlength=300))
