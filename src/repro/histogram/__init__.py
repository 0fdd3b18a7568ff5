"""Histogramming kernels (pipeline stage 1)."""

from repro.histogram.gpu_histogram import (
    MAX_HISTOGRAM_BINS,
    GpuHistogramResult,
    gpu_histogram,
    hist_simt_kernel,
    host_histogram,
    replication_factor,
)
from repro.histogram.serial import serial_histogram

__all__ = [
    "MAX_HISTOGRAM_BINS",
    "GpuHistogramResult",
    "gpu_histogram",
    "hist_simt_kernel",
    "host_histogram",
    "replication_factor",
    "serial_histogram",
]
