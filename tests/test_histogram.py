"""Tests for histogram kernels (GPU privatized + serial)."""

import numpy as np
import pytest

from repro.cuda.device import RTX5000, V100
from repro.histogram.gpu_histogram import (
    MAX_HISTOGRAM_BINS,
    gpu_histogram,
    replication_factor,
)
from repro.histogram.serial import serial_histogram

pytestmark = pytest.mark.usefixtures("kernel_engine")


@pytest.fixture(scope="module", params=["numpy"])
def kernel_engine(request):
    """The counting kernel is NumPy only: one leg, nothing to switch."""
    return request.param


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


class TestSerialHistogram:
    def test_matches_bincount(self, rng):
        data = rng.integers(0, 64, 1000)
        hist, cost = serial_histogram(data, 64)
        assert np.array_equal(hist, np.bincount(data, minlength=64))
        assert cost.serial_ops == 1000

    def test_range_check(self):
        with pytest.raises(ValueError):
            serial_histogram(np.array([-1]), 4)
