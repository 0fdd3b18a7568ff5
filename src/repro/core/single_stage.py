"""Single-stage encode for pre-registered (static) codebooks.

The paper's encode pipeline is histogram → two-phase codebook build →
canonize → reduce-shuffle-merge.  When the codebook is *known up
front* — registered in :mod:`repro.codebooks` and referenced by content
digest — the first three stages vanish and the whole encode collapses
to the one fused scan-pack stage (cf. the single-stage encoder for ML
compression workloads in PAPERS.md): a length-sum pass for the exact
average bitwidth, then the scan-pack itself.

Two properties are load-bearing:

- **Bit identity.**  ``single_stage_encode`` runs the same stats pass
  and encode body as the scan path (``_scan_symbol_stats`` then
  ``_encode_body``), so its container is byte-for-byte what
  :func:`repro.core.encoder.gpu_encode` produces for the same
  ``(data, book, tuning)`` — the conformance matrix pins this
  (``single_stage`` is enrolled as a canonical stream encoder).
- **ValueError-only failures.**  A registered alphabet that cannot
  cover the request's symbols raises :class:`ValueError` (via
  :func:`validate_coverage`), never an ``IndexError``/``KeyError`` from
  the middle of a table gather — the serve layer maps ValueError to a
  400 on the request's own future instead of crashing a shard.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import (
    GpuEncodeResult,
    _encode_body,
    _pass_input,
    _record_encode,
    _resolve_tuning,
    _scan_symbol_stats,
)
from repro.core.tuning import DEFAULT_MAGNITUDE, EncoderTuning
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import span as _span

__all__ = ["single_stage_encode", "validate_coverage"]


def validate_coverage(data: np.ndarray, book: CanonicalCodebook) -> None:
    """Raise :class:`ValueError` unless ``book`` covers every symbol.

    Cheap (one min/max pass; a length gather only when the book has
    unused symbols) and run *before* any encode work, so the serve
    batcher can reject a mismatched ``codebook_id`` request on its own
    future as a 400-class user error.
    """
    data = np.asarray(data)
    if data.size == 0:
        return
    if data.dtype.kind not in "iu":
        raise ValueError(
            f"compress payload must be an integer array, got {data.dtype}"
        )
    lo, hi = int(data.min()), int(data.max())
    if lo < 0:
        raise ValueError(f"compress payload contains negative symbol {lo}")
    if hi >= book.n_symbols:
        raise ValueError(
            f"symbol value {hi} outside the registered alphabet "
            f"[0, {book.n_symbols})"
        )
    if book.n_used != book.n_symbols:
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
    """Fused static-codebook encode: no histogram span, no codebook span.

    Emits the same ``encode.reduce_shuffle_merge`` stage span as
    :func:`repro.core.encoder.gpu_encode` but with ``impl=
    "single_stage"`` — the flight recorder's path extraction then
    labels hot requests without any new plumbing.  The produced
    :class:`~repro.core.encoder.GpuEncodeResult` (stream, modeled
    costs, tuning) is identical to the scan path's for the same book.
    """
    data = np.asarray(data)
    validate_coverage(data, book)
    enc_span = _span(
        "encode.reduce_shuffle_merge", bytes_in=int(data.nbytes),
        device=device.name, impl="single_stage",
        bits_from="stats_pass" if tuning is None else "histogram",
    )
    with enc_span:
        syms = _pass_input(data, book)
        if tuning is None:
            with _span("encode.lookup", n_symbols=int(data.size)):
                # the registered book's packed codeword table is already
                # warm in the scan-pack digest cache, so this pass is the
                # entire front half of the pipeline
                avg_bits = _scan_symbol_stats(syms, book)
            tuning = _resolve_tuning(
                magnitude, reduction_factor, word_bits, avg_bits
            )
        result = _encode_body(syms, book, tuning,
                              input_bytes=int(data.nbytes))
    _record_encode(enc_span, data, result)
    return result
