"""Encoded-stream container and its chunked decoder.

The encoder's output container mirrors the paper's deployment inside
cuSZ: data is chunked (coarse grain, N = 2^M symbols per chunk) "not only
because it is easy to map chunks to thread blocks ... but also because it
will facilitate the reverse process, decoding".  Per chunk we store the
dense bit length; chunk payloads are byte-aligned; breaking cells live in
the :class:`~repro.core.breaking.BreakingStore` side channel addressed by
global cell index; trailing symbols that do not fill a chunk are encoded
with the reference packer into a tail section.

:func:`decode_stream` is the full inverse used by tests and examples.
Every chunk, every broken cell, and the tail become independent
*lanes* over one shared byte buffer (:func:`stream_lanes`), decoded by
:func:`repro.decoder.gap_array.gap_decode_lanes` — the one place that
picks a decoder.  The compiled pass stores each lane's symbols straight
at their stream positions (:func:`stream_placement`) in the caller's
dtype; the vectorized lane decoder
(:func:`repro.huffman.decoder.decode_lanes`), which runs when the pass
is missing or the table is outside its range, decodes lane-major and
is scattered back into stream order (:func:`assemble_stream_symbols`).
:func:`decode_stream_scalar` keeps the original per-chunk scalar
reference path, which both are cross-checked against bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.breaking import BreakingStore
from repro.core.tuning import EncoderTuning
from repro.huffman.cache import cached_decode_table
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import (
    DecodeTable,
    build_decode_table,
    decode_canonical,
    decode_lanes,
)
from repro.native import DECODE_DTYPES
from repro.obs import span as _span

__all__ = [
    "EncodedStream",
    "decode_stream",
    "decode_stream_scalar",
    "stream_lanes",
    "stream_placement",
    "decode_lanes",
    "assemble_stream_symbols",
    "symbol_dtype",
]

#: per-chunk metadata: dense bit length (uint32)
_CHUNK_META_BYTES = 4
#: fixed header: magnitude, r, word bits, symbol count, chunk count, ...
_HEADER_BYTES = 40


@dataclass
class EncodedStream:
    """Complete output of the reduce-shuffle-merge encoder."""

    tuning: EncoderTuning
    n_symbols: int
    chunk_bits: np.ndarray  # int64 per full chunk
    payload: np.ndarray  # uint8, byte-aligned chunk streams
    chunk_offsets: np.ndarray  # int64, len = n_chunks + 1
    breaking: BreakingStore
    tail_payload: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    tail_bits: int = 0
    tail_symbols: int = 0

    # ------------------------------------------------------------ sizes --
    @property
    def n_chunks(self) -> int:
        return int(self.chunk_bits.size)

    @property
    def payload_bytes(self) -> int:
        return int(self.payload.nbytes + self.tail_payload.nbytes)

    @property
    def metadata_bytes(self) -> int:
        return int(
            _HEADER_BYTES
            + self.n_chunks * _CHUNK_META_BYTES
            + self.breaking.nbytes()
        )

    @property
    def compressed_bytes(self) -> int:
        return self.payload_bytes + self.metadata_bytes

    def compression_ratio(self, input_bytes: int) -> float:
        return input_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    @property
    def encoded_bits(self) -> int:
        """Dense code bits (excluding container framing)."""
        side = int(self.breaking.bit_lengths.sum()) if self.breaking.nnz else 0
        return int(self.chunk_bits.sum()) + side + self.tail_bits

    def chunk_payload(self, chunk: int) -> tuple[np.ndarray, int]:
        lo = int(self.chunk_offsets[chunk])
        hi = int(self.chunk_offsets[chunk + 1])
        return self.payload[lo:hi], int(self.chunk_bits[chunk])


def stream_lanes(
    stream: EncodedStream,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a container into decode lanes over one shared buffer.

    Lane order: the ``n_chunks`` dense chunk streams, then the broken
    cells' side-channel streams, then the tail.  Every lane is
    byte-aligned in its section, so the shared buffer is just the
    concatenation of the three payload sections — a zero-copy view when
    only the chunk payload exists.

    Returns ``(buffer, start_bits, end_bits, n_symbols)``.
    """
    t = stream.tuning
    cpc = t.cells_per_chunk
    group = t.group_symbols
    n_chunks = stream.n_chunks
    brk = stream.breaking

    # Section-bound validation: every lane must stay inside its own
    # payload section.  Without this a truncated chunk payload would
    # shift the later sections left and lanes would silently read the
    # neighbouring section's bits.
    if n_chunks and int(stream.chunk_offsets[-1]) > stream.payload.nbytes:
        raise ValueError("chunk payload truncated")
    if brk.nnz and int(brk.payload_offsets[-1]) > brk.payload.nbytes:
        raise ValueError("breaking payload truncated")
    if stream.tail_bits > stream.tail_payload.nbytes * 8:
        raise ValueError("tail payload truncated")

    sections = [stream.payload]
    if brk.payload.size or stream.tail_payload.size:
        sections += [brk.payload, stream.tail_payload]
        buffer = np.concatenate(sections)
    else:
        buffer = stream.payload

    # dense chunk lanes: byte-aligned at chunk_offsets, per-chunk symbol
    # count shrinks by `group` for every broken cell in the chunk
    chunk_starts = stream.chunk_offsets[:-1].astype(np.int64) * 8
    chunk_ends = chunk_starts + stream.chunk_bits.astype(np.int64)
    chunk_syms = (cpc - np.diff(_first_broken(stream))) * group

    # broken-cell lanes: byte-aligned inside the breaking payload section
    brk_base = stream.payload.nbytes * 8
    brk_starts = brk_base + brk.payload_offsets[:-1].astype(np.int64) * 8
    brk_ends = brk_starts + brk.bit_lengths.astype(np.int64)
    brk_syms = np.full(brk.nnz, group, dtype=np.int64)

    starts = [chunk_starts, brk_starts]
    ends = [chunk_ends, brk_ends]
    nsyms = [chunk_syms.astype(np.int64), brk_syms]
    if stream.tail_symbols:
        tail_base = (stream.payload.nbytes + brk.payload.nbytes) * 8
        starts.append(np.array([tail_base], dtype=np.int64))
        ends.append(np.array([tail_base + stream.tail_bits], dtype=np.int64))
        nsyms.append(np.array([stream.tail_symbols], dtype=np.int64))

    return (
        buffer,
        np.concatenate(starts),
        np.concatenate(ends),
        np.concatenate(nsyms),
    )


def _first_broken(stream: EncodedStream) -> np.ndarray:
    """Per chunk (plus one end entry), the index of its first broken
    cell in ``breaking.cell_indices``."""
    cpc = stream.tuning.cells_per_chunk
    return np.searchsorted(
        stream.breaking.cell_indices.astype(np.int64),
        np.arange(stream.n_chunks + 1, dtype=np.int64) * cpc,
    )


def stream_placement(stream: EncodedStream):
    """Stream-order placement of the lanes of :func:`stream_lanes`.

    Chunk ``c`` stores from ``c * N`` on and jumps over its broken
    cells (holes at ``cell * G``); broken-cell lane ``j`` fills its own
    cell; the tail lands after the last full chunk.  Returns a
    :class:`repro.decoder.gap_array.LanePlacement`.
    """
    # local import: gap_array builds on the huffman decode machinery
    from repro.decoder.gap_array import LanePlacement

    t = stream.tuning
    N = t.chunk_symbols
    cells = stream.breaking.cell_indices.astype(np.int64) * t.group_symbols
    n_tail = 1 if stream.tail_symbols else 0
    out_off = np.concatenate([
        np.arange(stream.n_chunks, dtype=np.int64) * N,
        cells,
        np.full(n_tail, stream.n_chunks * N, dtype=np.int64),
    ])
    hole_base = np.concatenate([
        _first_broken(stream),
        np.full(cells.size + n_tail, cells.size, dtype=np.int64),
    ])
    return LanePlacement(out_off, hole_base, cells, t.group_symbols,
                         stream.n_symbols)


def symbol_dtype(book: CanonicalCodebook, dtype) -> np.dtype:
    """``dtype`` as a NumPy dtype, after checking that it is one the
    decoders write (int64, uint8/16/32/64) and holds the largest symbol
    ``book`` has a codeword for: a decode into it then never narrows a
    value."""
    dtype = np.dtype(dtype)
    if dtype not in DECODE_DTYPES:
        raise ValueError(f"cannot decode into {dtype}")
    coded = np.flatnonzero(book.lengths)
    if coded.size and int(coded[-1]) > np.iinfo(dtype).max:
        raise ValueError(
            f"symbol {int(coded[-1])} does not fit the output dtype {dtype}"
        )
    return dtype


def assemble_stream_symbols(
    stream: EncodedStream, decoded: np.ndarray
) -> np.ndarray:
    """Scatter lane-major decoded symbols back into stream order.

    ``decoded`` is the flat output of :func:`decode_lanes` over the lanes
    of :func:`stream_lanes`.  Dense chunk lanes fill the non-broken cell
    rows in global cell order; broken-cell lanes fill their own rows; the
    tail lands after the last full chunk.  Fully vectorized.
    """
    t = stream.tuning
    cpc = t.cells_per_chunk
    group = t.group_symbols
    n_chunks = stream.n_chunks
    nnz = stream.breaking.nnz
    total_cells = n_chunks * cpc
    if nnz == 0:
        # With no broken cells the lane order (chunks in order, then the
        # tail) *is* the stream order: the flat lane output is already
        # the answer — zero-copy instead of an 8n-byte round trip.
        return np.ascontiguousarray(decoded, dtype=np.int64)

    out = np.empty(stream.n_symbols, dtype=np.int64)
    main = out[: n_chunks * t.chunk_symbols].reshape(total_cells, group)
    dense_total = (total_cells - nnz) * group
    dense = decoded[:dense_total]
    bidx = stream.breaking.cell_indices.astype(np.int64)
    broken_syms = decoded[dense_total : dense_total + nnz * group]
    if nnz <= total_cells // 64:
        # sparse breaking (the common case): the broken cells split the
        # dense stream into nnz+1 contiguous runs — copy each with a
        # plain slice (memcpy) instead of an n-row boolean scatter
        dense_rows = dense.reshape(-1, group)
        run_lo = np.concatenate(([0], bidx + 1))
        run_hi = np.concatenate((bidx, [total_cells]))
        src = 0
        for lo, hi in zip(run_lo.tolist(), run_hi.tolist()):
            n_run = hi - lo
            if n_run > 0:
                main[lo:hi] = dense_rows[src : src + n_run]
                src += n_run
    else:
        keep = np.ones(total_cells, dtype=bool)
        keep[bidx] = False
        main[keep] = dense.reshape(-1, group)
    main[bidx] = broken_syms.reshape(-1, group)
    if stream.tail_symbols:
        out[n_chunks * t.chunk_symbols :] = decoded[dense_total + nnz * group :]
    return out


def decode_stream(
    stream: EncodedStream,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
    *,
    dtype=np.int64,
) -> np.ndarray:
    """Decode an :class:`EncodedStream` back to its symbol array.

    The lanes go through :func:`repro.decoder.gap_array.gap_decode_lanes`
    at every size: the one-pass C kernel, which writes every symbol at
    its stream position in ``dtype``, when it loads and the table is
    complete, else ``decode_lanes`` followed by
    :func:`assemble_stream_symbols`.  ``dtype`` (int64, or uint8/16/32/64)
    must hold every coded symbol of ``book`` (:func:`symbol_dtype`).  The
    ``decode.stream`` span records the choice as ``strategy`` (``"gap"``
    or ``"batch"``) and a fallback's reason as ``gap_fallback``.
    """
    # local import: gap_array builds on the huffman decode machinery
    from repro.decoder import gap_array

    dtype = symbol_dtype(book, dtype)
    with _span("decode.stream",
               bytes_in=int(stream.payload_bytes),
               n_symbols=int(stream.n_symbols),
               chunks=stream.n_chunks) as sp:
        if table is None:
            table = cached_decode_table(book)
        sp.set_attr(table_tier=table.tier)
        with _span("decode.lanes") as lanes_span:
            buffer, starts, ends, nsyms = stream_lanes(stream)
            lanes_span.set_attr(lanes=int(nsyms.size))
            res = gap_array.gap_decode_lanes(
                buffer, starts, ends, nsyms, book, table,
                placement=stream_placement(stream), dtype=dtype,
            )
        if res.backend == "native":
            sp.set_attr(strategy="gap")
            out = res.symbols
        else:
            sp.set_attr(strategy="batch", gap_fallback=res.fallback)
            with _span("decode.assemble", broken=stream.breaking.nnz):
                out = assemble_stream_symbols(stream, res.symbols).astype(
                    dtype, copy=False
                )
        sp.set_attr(bytes_out=int(out.nbytes))
    return out


def decode_stream_scalar(
    stream: EncodedStream,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """Scalar per-chunk reference decode (the original slow path)."""
    with _span("decode.stream", strategy="scalar",
               bytes_in=int(stream.payload_bytes),
               n_symbols=int(stream.n_symbols),
               chunks=stream.n_chunks):
        return _decode_stream_scalar_body(stream, book, table)


def _decode_stream_scalar_body(
    stream: EncodedStream,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
) -> np.ndarray:
    if table is None:
        table = build_decode_table(book)
    t = stream.tuning
    cpc = t.cells_per_chunk
    group = t.group_symbols
    out = np.empty(stream.n_symbols, dtype=np.int64)

    bidx = stream.breaking.cell_indices
    for chunk in range(stream.n_chunks):
        cell_lo = chunk * cpc
        cell_hi = cell_lo + cpc
        blo = int(np.searchsorted(bidx, cell_lo))
        bhi = int(np.searchsorted(bidx, cell_hi))
        broken_cells = bidx[blo:bhi] - cell_lo
        n_dense_syms = (cpc - (bhi - blo)) * group

        payload, bits = stream.chunk_payload(chunk)
        dense = (
            decode_canonical(payload, bits, book, n_dense_syms, table)
            if n_dense_syms
            else np.empty(0, dtype=np.int64)
        )

        base = chunk * t.chunk_symbols
        if bhi == blo:
            out[base: base + t.chunk_symbols] = dense
        else:
            broken_set = np.zeros(cpc, dtype=bool)
            broken_set[broken_cells] = True
            chunk_out = np.empty(cpc * group, dtype=np.int64)
            # scatter dense groups into the non-broken cell slots
            dense_cells = np.flatnonzero(~broken_set)
            chunk_view = chunk_out.reshape(cpc, group)
            if dense_cells.size:
                chunk_view[dense_cells] = dense.reshape(-1, group)
            for j, cell in enumerate(broken_cells, start=blo):
                pbuf, pbits = stream.breaking.cell_payload(j)
                chunk_view[cell] = decode_canonical(
                    pbuf, pbits, book, group, table
                )
            out[base: base + t.chunk_symbols] = chunk_out

    if stream.tail_symbols:
        tail = decode_canonical(
            stream.tail_payload, stream.tail_bits, book, stream.tail_symbols,
            table,
        )
        out[stream.n_chunks * t.chunk_symbols:] = tail
    return out
