"""cuSZ-like application facade: error-bounded float compression.

The paper's encoder exists to serve error-bounded lossy compressors; this
module wires the full application path a downstream user wants:

    float field --Lorenzo/quantize--> codes --Huffman--> bytes
    bytes --Huffman decode--> codes --dequantize--> field (|err| <= eb)

plus a lossless path for integer symbol streams.  Both directions work on
plain ``bytes`` (self-describing containers built on
:mod:`repro.core.serialization`), and every compress call returns a
:class:`CompressionReport` with sizes, ratios, and the modeled encode
throughput on the chosen device.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.core.adaptive import adaptive_decode, adaptive_encode
from repro.core.bitstream import decode_stream, symbol_dtype
from repro.core.chunk_parallel import parallel_encode
from repro.core.codebook_parallel import parallel_codebook
from repro.core.serialization import (
    container_guard,
    deserialize_adaptive,
    deserialize_stream,
    serialize_adaptive,
    serialize_stream,
)
from repro.core.tuning import DEFAULT_MAGNITUDE
from repro.cuda.costmodel import CostModel
from repro.cuda.device import DeviceSpec, V100
from repro.datasets.quantization import (
    QuantizedField,
    check_outliers,
    code_dtype,
    dequantize,
    lorenzo_quantize,
)
from repro.histogram.gpu_histogram import (
    MAX_HISTOGRAM_BINS,
    GpuHistogramResult,
    gpu_histogram,
)
from repro.huffman.cache import cached_codebook
from repro.native import SYMBOL_DTYPES, narrow_symbols
from repro.obs import metrics as _metrics
from repro.obs import span as _span

__all__ = [
    "CompressionReport",
    "compress_symbols",
    "compress_symbols_registered",
    "decompress_symbols",
    "compress_field",
    "decompress_field",
]

_FIELD_MAGIC = b"RPRF"
_SYM_MAGIC = b"RPRS"


@dataclass(frozen=True)
class CompressionReport:
    """What happened during one compress call."""

    input_bytes: int
    compressed_bytes: int
    avg_bits: float
    breaking_fraction: float
    modeled_encode_gbps: float
    device: str
    outliers: int = 0

    @property
    def ratio(self) -> float:
        return self.input_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")


def _record_app_metrics(op: str, report: CompressionReport) -> None:
    """Bytes in/out and ratio of one facade call, labelled by operation."""
    reg = _metrics()
    reg.counter("repro_app_bytes_in_total", op=op).inc(report.input_bytes)
    reg.counter("repro_app_bytes_out_total", op=op).inc(
        report.compressed_bytes
    )
    if report.compressed_bytes:
        reg.gauge("repro_app_compression_ratio", op=op).set(report.ratio)


def _encode_to_bytes(
    data: np.ndarray, num_symbols: int, magnitude: int, device: DeviceSpec,
    hist: GpuHistogramResult | None = None,
) -> tuple[bytes, CompressionReport]:
    """Histogram (unless ``hist`` brings the counts of ``data``),
    codebook, encode and serialize ``data``."""
    # int32/int64/uint64 symbols are range-checked and narrowed once, for
    # both the histogram and the encode (the histogram's error if a
    # symbol is outside [0, num_symbols)); the costs keep the input size
    syms = data
    if data.dtype not in SYMBOL_DTYPES:
        syms = narrow_symbols(data, num_symbols)
        if syms is None:
            raise ValueError("symbol out of histogram range")
    if hist is None:
        hist = gpu_histogram(syms, num_symbols, device=device)
    # The codebook is a pure function of the histogram: repeated compress
    # calls over same-distribution data (timestep streams) skip the whole
    # two-phase construction via the digest-keyed cache.
    book = cached_codebook(
        hist.histogram,
        lambda: parallel_codebook(hist.histogram, device=device).codebook,
    )
    # the encode takes its bit total from these counts, in O(K) (§IV-C:
    # r from the average bitwidth)
    enc = parallel_encode(syms, book, histogram=hist.histogram,
                          magnitude=magnitude, device=device,
                          input_bytes=int(data.nbytes))
    payload = serialize_stream(enc.stream, book)
    report = CompressionReport(
        input_bytes=int(data.nbytes),
        compressed_bytes=len(payload),
        avg_bits=enc.avg_bits,
        breaking_fraction=enc.breaking_fraction,
        modeled_encode_gbps=enc.modeled_gbps(device),
        device=device.name,
    )
    return payload, report


def compress_symbols(
    data: np.ndarray,
    num_symbols: int | None = None,
    magnitude: int = DEFAULT_MAGNITUDE,
    device: DeviceSpec = V100,
    adaptive: bool = False,
) -> tuple[bytes, CompressionReport]:
    """Lossless Huffman compression of an integer symbol stream.

    ``adaptive=True`` selects the per-chunk reduction factor (better for
    heterogeneous data, see :mod:`repro.core.adaptive`).
    """
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.integer):
        raise TypeError("compress_symbols expects integer data")
    if num_symbols is None:
        num_symbols = int(data.max()) + 1 if data.size else 1
    itemsize = data.dtype.itemsize
    with _span("app.compress_symbols", bytes_in=int(data.nbytes),
               adaptive=adaptive):
        if adaptive:
            hist = gpu_histogram(data, num_symbols, device=device)
            book = cached_codebook(
                hist.histogram,
                lambda: parallel_codebook(hist.histogram, device=device).codebook,
            )
            enc = adaptive_encode(data, book, magnitude=magnitude,
                                  device=device)
            payload = serialize_adaptive(enc, book)
            report = CompressionReport(
                input_bytes=int(data.nbytes),
                compressed_bytes=len(payload),
                avg_bits=enc.avg_bits,
                breaking_fraction=enc.breaking_fraction,
                modeled_encode_gbps=enc.modeled_gbps(device, data.nbytes),
                device=device.name,
            )
        else:
            payload, report = _encode_to_bytes(data, num_symbols, magnitude,
                                               device)
        header = _SYM_MAGIC + struct.pack("<BQ", itemsize, data.size)
    _record_app_metrics("compress_symbols", report)
    return header + payload, report


def compress_symbols_registered(
    data: np.ndarray,
    book,
    codebook_id: str | None = None,
    magnitude: int = DEFAULT_MAGNITUDE,
    device: DeviceSpec = V100,
) -> tuple[bytes, CompressionReport]:
    """Registry-hit compression: single-stage encode with a static book.

    The codebook-construction stages are skipped entirely, and the
    histogram is the encode's own count
    (:mod:`repro.core.single_stage`); the container is byte-identical to
    :func:`compress_symbols` whenever the cold path would have built the
    same codebook.  ``book`` may be a :class:`~repro.huffman.codebook
    .CanonicalCodebook` or a :class:`repro.codebooks.registry
    .RegisteredCodebook` (whose warmed tables make the fast path fast).
    """
    from repro.core.single_stage import single_stage_encode

    if hasattr(book, "book"):  # RegisteredCodebook
        if codebook_id is None:
            codebook_id = book.codebook_id
        book = book.book
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.integer):
        raise TypeError("compress_symbols_registered expects integer data")
    itemsize = data.dtype.itemsize
    with _span("app.compress_symbols", bytes_in=int(data.nbytes),
               adaptive=False, registry_hit=True,
               codebook_id=codebook_id or ""):
        enc = single_stage_encode(data, book, magnitude=magnitude,
                                  device=device)
        payload = serialize_stream(enc.stream, book)
        report = CompressionReport(
            input_bytes=int(data.nbytes),
            compressed_bytes=len(payload),
            avg_bits=enc.avg_bits,
            breaking_fraction=enc.breaking_fraction,
            modeled_encode_gbps=enc.modeled_gbps(device),
            device=device.name,
        )
        header = _SYM_MAGIC + struct.pack("<BQ", itemsize, data.size)
    _record_app_metrics("compress_symbols", report)
    return header + payload, report


@container_guard
def decompress_symbols(buf: bytes, book=None) -> np.ndarray:
    """Inverse of :func:`compress_symbols`.

    ``book`` is the registry fast path (see
    :func:`repro.core.serialization.deserialize_stream`): a registered
    codebook resolved from the container's header peek skips the
    canonical rebuild and reuses the warmed k-bit LUT.  It accepts a
    :class:`~repro.huffman.codebook.CanonicalCodebook` or a
    ``RegisteredCodebook`` and never changes the decoded output — only
    how fast the tables come back.

    Adversarial robustness contract (relied on by :mod:`repro.serve`):
    any malformed, truncated, or bit-flipped input raises
    :class:`ValueError` — never ``struct.error``/``IndexError``/
    ``KeyError``/``OverflowError``.
    """
    if book is not None and hasattr(book, "book"):  # RegisteredCodebook
        book = book.book
    buf = bytes(buf)
    if buf[:4] != _SYM_MAGIC:
        raise ValueError("not a symbol container")
    if len(buf) < 13:
        raise ValueError("truncated symbol container header")
    with _span("app.decompress_symbols", bytes_in=len(buf),
               registry_hit=book is not None) as sp:
        itemsize, n = struct.unpack("<BQ", buf[4:13])
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32,
                 8: np.uint64}.get(itemsize)
        if dtype is None:
            raise ValueError(f"invalid itemsize {itemsize} in container")
        body = memoryview(buf)[13:]
        # both paths reject a book whose symbols the itemsize cannot
        # hold before decoding (a flipped itemsize byte)
        if body[:4] == b"RPRA":
            result, book = deserialize_adaptive(body)
            if result.n_symbols != n:
                raise ValueError("symbol count mismatch in container")
            dtype = symbol_dtype(book, dtype)
            out = adaptive_decode(result, book).astype(dtype)
        else:
            stream, book = deserialize_stream(body, book=book)
            if stream.n_symbols != n:
                raise ValueError("symbol count mismatch in container")
            out = decode_stream(stream, book, dtype=dtype)
        sp.set_attr(bytes_out=int(out.nbytes))
    _metrics().counter("repro_app_bytes_out_total",
                       op="decompress_symbols").inc(int(out.nbytes))
    return out


def compress_field(
    field: np.ndarray,
    error_bound: float,
    n_bins: int = 1024,
    magnitude: int = DEFAULT_MAGNITUDE,
    device: DeviceSpec = V100,
) -> tuple[bytes, CompressionReport]:
    """Error-bounded lossy compression of a floating-point array.

    The reconstruction returned by :func:`decompress_field` satisfies
    ``|recon - field| <= error_bound`` point-wise — the SZ contract.
    The Huffman stage takes the histogram the quantize pass counted as
    it wrote the codes, so no separate histogram pass reads them.
    """
    field = np.asarray(field, dtype=np.float64)
    if n_bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"n_bins must be <= {MAX_HISTOGRAM_BINS}")
    span_cm = _span("app.compress_field", bytes_in=int(field.nbytes),
                    error_bound=error_bound, n_bins=n_bins)
    with span_cm:
        with _span("app.quantize", bytes_in=int(field.nbytes)):
            qf = lorenzo_quantize(field, error_bound, n_bins)

        # the histogram stage's span stays, recording that the quantize
        # pass counted the codes (backend="quantize") rather than a pass
        with _span("encode.histogram", bytes_in=int(qf.codes.nbytes),
                   bins=n_bins, device=device.name, backend="quantize"):
            hist = GpuHistogramResult(qf.histogram, int(qf.codes.size),
                                      int(qf.codes.nbytes), device)
        payload, enc_report = _encode_to_bytes(qf.codes, n_bins, magnitude,
                                               device, hist)
        header = _FIELD_MAGIC + struct.pack(
            "<dIIQ", error_bound, n_bins, len(qf.shape), qf.outliers_idx.size
        )
        header += struct.pack(f"<{len(qf.shape)}Q", *qf.shape)
        header += struct.pack("<d", qf.first_value)
        header += qf.outliers_idx.tobytes()
        header += qf.outliers_val.tobytes()
        blob = header + payload
        report = CompressionReport(
            input_bytes=int(field.nbytes),
            compressed_bytes=len(blob),
            avg_bits=enc_report.avg_bits,
            breaking_fraction=enc_report.breaking_fraction,
            modeled_encode_gbps=enc_report.modeled_encode_gbps,
            device=enc_report.device,
            outliers=int(qf.outliers_idx.size),
        )
        span_cm.set_attr(bytes_out=len(blob),
                         ratio=round(report.ratio, 4),
                         outliers=report.outliers)
    _record_app_metrics("compress_field", report)
    return blob, report


@container_guard
def decompress_field(buf: bytes) -> np.ndarray:
    """Inverse of :func:`compress_field` (same :class:`ValueError`-only
    robustness contract as :func:`decompress_symbols`)."""
    buf = bytes(buf)
    if buf[:4] != _FIELD_MAGIC:
        raise ValueError("not a field container")
    with _span("app.decompress_field", bytes_in=len(buf)) as sp:
        out = _decompress_field_body(buf)
        sp.set_attr(bytes_out=int(out.nbytes))
    _metrics().counter("repro_app_bytes_out_total",
                       op="decompress_field").inc(int(out.nbytes))
    return out


def _decompress_field_body(buf: bytes) -> np.ndarray:
    pos = 4
    eb, n_bins, ndim, n_out = struct.unpack("<dIIQ", buf[pos: pos + 24])
    pos += 24
    shape = struct.unpack(f"<{ndim}Q", buf[pos: pos + 8 * ndim])
    pos += 8 * ndim
    (first_value,) = struct.unpack("<d", buf[pos: pos + 8])
    pos += 8
    view = memoryview(buf)
    out_idx = np.frombuffer(view[pos: pos + 8 * n_out], dtype=np.int64)
    pos += 8 * n_out
    out_val = np.frombuffer(view[pos: pos + 8 * n_out], dtype=np.float64)
    pos += 8 * n_out
    n = math.prod(shape)
    # hostile outlier positions would reconstruct silently out of bound
    check_outliers(out_idx, out_val.size, n)

    stream, book = deserialize_stream(view[pos:])
    if stream.n_symbols != n:
        raise ValueError("code count disagrees with the field shape")
    codes = decode_stream(stream, book, dtype=code_dtype(n_bins))
    qf = QuantizedField(
        codes=codes, first_value=first_value, error_bound=eb, n_bins=n_bins,
        shape=tuple(int(s) for s in shape),
        outliers_idx=out_idx, outliers_val=out_val,
    )
    with _span("app.dequantize", n_symbols=int(codes.size)):
        return dequantize(qf)
