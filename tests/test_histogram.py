"""Tests for histogram kernels (GPU privatized + serial).

The module runs once per ``kernel_engine`` leg: the host counts come
from the compiled pass on ``native`` and from ``fast_histogram`` on
``numpy``; the modeled costs must not depend on which.
"""

import numpy as np
import pytest

from repro import native
from repro.app.compressor import compress_symbols, decompress_symbols
from repro.cuda.device import RTX5000, V100
from repro.histogram.gpu_histogram import (
    MAX_HISTOGRAM_BINS,
    gpu_histogram,
    replication_factor,
)
from repro.histogram.serial import serial_histogram
from repro.obs.trace import tracing

pytestmark = pytest.mark.usefixtures("kernel_engine")


class TestReplicationFactor:
    def test_small_alphabet_many_replicas(self):
        assert replication_factor(256, V100) == 32  # capped

    def test_1024_bins(self):
        assert replication_factor(1024, V100) == 12

    def test_8192_bins_single_copy(self):
        assert replication_factor(8192, V100) == 1

    def test_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            replication_factor(MAX_HISTOGRAM_BINS + 1, V100)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            replication_factor(0, V100)


class TestGpuHistogram:
    def test_matches_bincount(self, rng):
        data = rng.integers(0, 256, 10000).astype(np.uint8)
        res = gpu_histogram(data, 256)
        assert np.array_equal(res.histogram, np.bincount(data, minlength=256))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gpu_histogram(np.array([5]), 4)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64, np.int32):
            data = np.zeros(9, dtype=dtype)
            data[6] = 4
            with pytest.raises(ValueError, match="out of histogram range"):
                gpu_histogram(data, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="out of histogram range"):
            gpu_histogram(np.array([1, -1, 2], dtype=np.int16), 4)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.uint64, np.int64])
    def test_every_dtype_matches_bincount(self, rng, dtype):
        data = rng.integers(0, 200, 4099).astype(dtype)
        res = gpu_histogram(data, 200)
        assert res.histogram.dtype == np.int64
        assert np.array_equal(res.histogram,
                              np.bincount(data, minlength=200))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64,
                                       np.uint64])
    def test_values_that_would_wrap_raise(self, dtype):
        """Other dtypes are narrowed onto the pass only after the range
        check: each value below would cast to an in-range bin."""
        values = [(1 << 8) + 1]
        if np.dtype(dtype).itemsize >= 4:
            values.append((1 << 16) + 1)
        if np.dtype(dtype).itemsize == 8:
            values.append((1 << 32) + 1)
        if np.dtype(dtype).kind == "i":
            values.append(-255)
        for value in values:
            data = np.zeros(9, dtype=dtype)
            data[5] = value
            with pytest.raises(ValueError, match="out of histogram range"):
                gpu_histogram(data, 4)

    @pytest.mark.parametrize("n_bins", [3, 300, 70000])
    def test_narrowed_counts_match_bincount(self, rng, n_bins):
        data = rng.integers(0, n_bins, 5003)
        data[0] = n_bins - 1
        for dtype in (np.int32, np.int64, np.uint64):
            res = gpu_histogram(data.astype(dtype), n_bins)
            assert np.array_equal(res.histogram,
                                  np.bincount(data, minlength=n_bins))

    def test_span_records_backend(self, rng):
        with tracing() as tracer:
            gpu_histogram(rng.integers(0, 9, 100).astype(np.uint16), 9)
            gpu_histogram(rng.integers(0, 9, 100).astype(np.int64), 9)
        spans = [s for s in tracer.spans if s.name == "encode.histogram"]
        # int64 symbols are range-checked and narrowed onto the pass
        for attrs in (s.attrs for s in spans):
            if native.kernel() is not None:
                assert attrs["backend"] == "native"
                assert "fallback" not in attrs
            else:
                assert attrs["backend"] == "numpy"
                assert attrs["fallback"] == "no_native_kernel"

    def test_costs_priced_on_first_read(self, rng):
        data = rng.integers(0, 256, 5000).astype(np.uint8)
        res = gpu_histogram(data, 256)
        assert "costs" not in vars(res)
        costs = res.costs
        assert res.costs is costs  # priced once
        assert res.replication == 32

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            gpu_histogram(np.array([1.5]), 4)

    def test_costs_structure(self, rng):
        data = rng.integers(0, 256, 10000).astype(np.uint8)
        res = gpu_histogram(data, 256)
        names = [c.name for c in res.costs]
        assert names == ["hist.blockwise", "hist.gridwise_reduce"]
        block = res.costs[0]
        assert block.bytes_coalesced == data.nbytes
        assert block.shared_atomics == data.size

    def test_skew_raises_conflict_degree(self, rng):
        uniform = rng.integers(0, 1024, 20000).astype(np.uint16)
        skewed = np.full(20000, 7, dtype=np.uint16)
        c_u = gpu_histogram(uniform, 1024).conflict_degree
        c_s = gpu_histogram(skewed, 1024).conflict_degree
        assert c_s > c_u * 2

    def test_skewed_data_slower(self, rng):
        """Atomic contention must slow the modeled histogram (the paper's
        Nyx hist at 197 GB/s vs enwik at 276 GB/s on V100)."""
        from repro.cuda.costmodel import CostModel

        m = CostModel(V100)
        uniform = rng.integers(0, 1024, 50000).astype(np.uint16)
        skewed = np.clip(
            (rng.standard_normal(50000) * 2 + 512).astype(np.int64), 0, 1023
        ).astype(np.uint16)
        t_u = sum(m.time(c.scaled(1000)).seconds
                  for c in gpu_histogram(uniform, 1024).costs)
        t_s = sum(m.time(c.scaled(1000)).seconds
                  for c in gpu_histogram(skewed, 1024).costs)
        assert t_s > t_u

    def test_v100_faster_than_rtx(self, rng):
        from repro.cuda.costmodel import CostModel

        data = rng.integers(0, 256, 50000).astype(np.uint8)
        res = gpu_histogram(data, 256)
        t_v = sum(CostModel(V100).time(c.scaled(5000)).seconds for c in res.costs)
        res_tu = gpu_histogram(data, 256, device=RTX5000)
        t_tu = sum(CostModel(RTX5000).time(c.scaled(5000)).seconds
                   for c in res_tu.costs)
        assert t_v < t_tu

    def test_empty_input(self):
        res = gpu_histogram(np.array([], dtype=np.uint8), 256)
        assert res.histogram.sum() == 0

    def test_2d_input_flattened(self, rng):
        data = rng.integers(0, 16, (50, 40)).astype(np.uint8)
        res = gpu_histogram(data, 16)
        assert res.histogram.sum() == 2000


class TestLargeAlphabet:
    """Past the shared-memory limit the counts stay exact on the host;
    only pricing the modeled kernel raises."""

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_round_trip_70000_symbols(self, rng, dtype):
        data = rng.integers(0, 70000, 200_000).astype(dtype)
        blob, report = compress_symbols(data, num_symbols=70000)
        out = decompress_symbols(blob)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, data)
        assert report.ratio > 1.0

    def test_pricing_raises_shared_memory_limit(self, rng):
        data = rng.integers(0, 70000, 200_000).astype(np.uint32)
        res = gpu_histogram(data, 70000)
        assert int(res.histogram.sum()) == data.size
        with pytest.raises(ValueError, match="shared-memory histogram limit"):
            res.costs


class TestSerialHistogram:
    def test_matches_bincount(self, rng):
        data = rng.integers(0, 64, 1000)
        hist, cost = serial_histogram(data, 64)
        assert np.array_equal(hist, np.bincount(data, minlength=64))
        assert cost.serial_ops == 1000

    def test_range_check(self):
        with pytest.raises(ValueError):
            serial_histogram(np.array([-1]), 4)
