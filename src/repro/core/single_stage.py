"""Single-stage encode for pre-registered (static) codebooks.

The paper's encode pipeline is histogram → two-phase codebook build →
canonize → reduce-shuffle-merge.  When the codebook is *known up
front* — registered in :mod:`repro.codebooks` and referenced by content
digest — the codebook stages vanish (cf. the single-stage encoder for
ML compression workloads in PAPERS.md).  The histogram stays: its
compiled pass is cheaper than any other way to get the encode's bit
total, and it checks the symbols on the way.  So the encode is the
count, ``r`` from ``hist @ book.lengths``, then the scan-pack.

Two properties are load-bearing:

- **Bit identity.**  ``single_stage_encode`` runs the same count and
  encode body as :func:`repro.core.encoder.gpu_encode`, so
  its container is byte-for-byte what the scan path produces for the
  same ``(data, book, tuning)`` — the conformance matrix pins this
  (``single_stage`` is enrolled as a canonical stream encoder).
- **ValueError-only failures.**  A registered alphabet that cannot
  cover the request's symbols raises :class:`ValueError`, never an
  ``IndexError`` from the middle of a table gather — the serve layer
  maps ValueError to a 400 on the request's own future instead of
  crashing a shard.  The count is the coverage check
  (``hist[book.lengths == 0]``, in O(K); under a pinned tuning, the
  packing passes, which stop at a bad symbol); the message naming the
  bad symbol is built only once the encode has failed.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import GpuEncodeResult, _encode_stage
from repro.core.tuning import DEFAULT_MAGNITUDE, EncoderTuning
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.codebook import CanonicalCodebook

__all__ = ["single_stage_encode"]


def _coverage_error(data: np.ndarray, book: CanonicalCodebook) -> None:
    """Raise the :class:`ValueError` naming why ``book`` does not cover
    ``data`` (a negative symbol, one outside the alphabet, or one
    without a codeword); return when it does."""
    if data.size == 0:
        return
    lo, hi = int(data.min()), int(data.max())
    if lo < 0:
        raise ValueError(f"compress payload contains negative symbol {lo}")
    if hi >= book.n_symbols:
        raise ValueError(
            f"symbol value {hi} outside the registered alphabet "
            f"[0, {book.n_symbols})"
        )
    zero = book.lengths[data] == 0
    if zero.any():
        bad = int(data[int(np.argmax(zero))])
        raise ValueError(
            f"symbol {bad} has no codeword in the registered codebook"
        )


def single_stage_encode(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None = None,
    magnitude: int = DEFAULT_MAGNITUDE,
    reduction_factor: int | None = None,
    word_bits: int = 32,
    device: DeviceSpec = V100,
) -> GpuEncodeResult:
    """Static-codebook encode: no codebook span; without a pinned
    ``tuning`` the histogram is counted inside ``encode.lookup``, as for
    an unpinned :func:`repro.core.encoder.gpu_encode`.

    Emits the same ``encode.reduce_shuffle_merge`` stage span as
    :func:`repro.core.encoder.gpu_encode` but with ``impl=
    "single_stage"`` — the flight recorder's path extraction then
    labels hot requests without any new plumbing.  The produced
    :class:`~repro.core.encoder.GpuEncodeResult` (stream, modeled
    costs, tuning) is identical to the scan path's for the same book.
    """
    data = np.asarray(data)
    if data.dtype.kind not in "iu":
        raise ValueError(
            f"compress payload must be an integer array, got {data.dtype}"
        )
    try:
        return _encode_stage(data, book, tuning, magnitude,
                             reduction_factor, word_bits, device,
                             impl="scan", input_bytes=None, histogram=None,
                             label="single_stage")
    except (IndexError, ValueError):
        _coverage_error(data, book)
        raise
