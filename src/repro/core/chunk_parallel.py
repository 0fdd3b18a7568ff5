"""The name the application facade encodes through: a stub.

:func:`parallel_encode` calls :func:`~repro.core.encoder.gpu_encode`
through this module's own ``gpu_encode`` name, because the benchmark's
ledger (``bench/ledger.py``) times the encode layer by wrapping both.
The stub goes when a benchmark change hooks ``gpu_encode`` itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import GpuEncodeResult, gpu_encode
from repro.huffman.codebook import CanonicalCodebook

__all__ = ["parallel_encode"]


def parallel_encode(
    data: np.ndarray, book: CanonicalCodebook, **kwargs
) -> GpuEncodeResult:
    """:func:`~repro.core.encoder.gpu_encode` with the same arguments."""
    return gpu_encode(data, book, **kwargs)
