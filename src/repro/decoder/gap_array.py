"""Chunk-lane decoder: one compiled pass over every lane of a container.

The paper chunks the encoder's output "not only because it is easy to
map chunks to thread blocks ... but also because it will facilitate the
reverse process, decoding" (§IV-C).  Every chunk, every broken cell and
the tail carries its own start bit and symbol count, so each is an
independent *lane*.  A 1 MiB text container already has over a thousand
of them, far more than the eight the native pass interleaves, so the
lanes need no further splitting: the gap array of Rivera et al.
("Optimizing Huffman Decoding for Error-Bounded Lossy Compression on
GPUs"), which lets a GPU run more lanes than there are chunks, would
only cost a second walk of every codeword here.

:func:`gap_decode_lanes` is the only place that picks a decoder:
``decode_stream``, ``decode_batch`` and everything above them call it
at every input size.  It runs the native ``chunk_decode`` pass of
:mod:`repro.native` when the module loads and the table is complete;
the pass walks every lane once, reading the
:class:`~repro.huffman.decoder.DecodeTable` root and descending its
subtables for long codewords.  Otherwise (no toolchain,
``REPRO_DISABLE_NATIVE=1``, or an incomplete table) the call decodes
through :func:`repro.huffman.decoder.decode_lanes` — the NumPy oracle
the pass is pinned to — and counts the reason in
``repro_decode_gap_lut_fallback_total{reason}``.

With a :class:`LanePlacement` the pass stores every symbol straight at
its stream index, in the caller's dtype (``decode_stream``); without
one the output is lane-major int64, like ``decode_lanes``.  Either way
the kernel's symbols equal the oracle's, and a corrupt stream raises
the oracle's ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import (
    MAX_TABLE_SYMBOL,
    DecodeTable,
    _check_lanes,
    build_decode_table,
    decode_lanes,
)
from repro.obs import metrics as _metrics

__all__ = [
    "GapDecodeResult",
    "LanePlacement",
    "gap_decode_lanes",
    "gap_supported",
]


@dataclass(frozen=True)
class LanePlacement:
    """Where each lane's symbols land in the stream-ordered output.

    Lane ``i`` stores from ``out_off[i]`` on, and its cursor jumps
    ``group`` slots at each of its sorted ``holes[hole_base[i] :
    hole_base[i + 1]]`` (the broken cells of a chunk, which their own
    lanes fill).  ``n_out`` is the output length.
    """

    out_off: np.ndarray
    hole_base: np.ndarray
    holes: np.ndarray
    group: int
    n_out: int


@dataclass(frozen=True)
class GapDecodeResult:
    """The decoded symbols and the decoder that produced them.

    ``backend`` is ``"native"`` (the C pass ran: the symbols follow the
    placement and dtype asked for) or ``"lanes"`` (the whole call
    decoded through ``decode_lanes``: lane-major int64 symbols, and
    ``fallback`` names the reason, the same label counted in
    ``repro_decode_gap_lut_fallback_total``).
    """

    symbols: np.ndarray
    backend: str
    fallback: str = ""


def gap_supported(
    book: CanonicalCodebook, table: DecodeTable
) -> tuple[bool, str]:
    """Whether the native pass can decode this book at all: the table
    is complete (every reachable index resolves to a real codeword, at
    the root or through subtables) and the alphabet fits a packed
    entry."""
    if not table.complete:
        return False, "incomplete_table"
    if int(book.n_symbols) - 1 > MAX_TABLE_SYMBOL:
        return False, "alphabet_too_large"
    return True, ""


def _pad_buffer(buffer: np.ndarray, max_length: int) -> np.ndarray:
    """Copy with spare zero bytes so no kernel load runs off the end:
    8 for the 64-bit root window at any bit before the lane end, plus
    ``ceil(max_length / 8)`` for the subtable loads of a codeword that
    starts there."""
    out = np.zeros(buffer.size + 8 + -(-int(max_length) // 8), np.uint8)
    out[: buffer.size] = buffer
    return out


def _lane_major(nsyms: np.ndarray) -> LanePlacement:
    """Lane ``i`` fills ``[sum(nsyms[:i]), sum(nsyms[:i + 1]))``."""
    out_off = np.zeros(nsyms.size, np.int64)
    np.cumsum(nsyms[:-1], out=out_off[1:])
    return LanePlacement(
        out_off, np.zeros(nsyms.size + 1, np.int64), np.empty(0, np.int64),
        1, int(nsyms.sum()),
    )


def gap_decode_lanes(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
    *,
    placement: LanePlacement | None = None,
    dtype=np.int64,
) -> GapDecodeResult:
    """Decode chunk lanes (drop-in for ``decode_lanes``).

    Runs the native pass when it is present and the table is complete,
    storing by ``placement`` (default: lane-major) in ``dtype``, which
    must hold every symbol of ``book``.  Otherwise the call decodes
    through ``decode_lanes``, reports ``backend="lanes"`` and counts the
    reason in ``repro_decode_gap_lut_fallback_total``: a
    :func:`gap_supported` reason or ``"no_native_kernel"``.
    """
    if table is None:
        table = build_decode_table(book)
    reg = _metrics()
    ok, reason = gap_supported(book, table)
    kern = native.kernel() if ok else None
    if ok and kern is None:
        reason = "no_native_kernel"
    if kern is None:
        reg.counter("repro_decode_gap_lut_fallback_total", reason=reason).inc()
        symbols = decode_lanes(buffer, starts, ends, nsyms, book, table)
        return GapDecodeResult(symbols, "lanes", reason)

    buffer, starts, ends, nsyms = _check_lanes(buffer, starts, ends, nsyms)
    if placement is None:
        placement = _lane_major(nsyms)
    out = np.empty(placement.n_out, dtype)
    bad, n_subgather = kern.chunk_decode(
        _pad_buffer(buffer, table.max_length), buffer.size * 8,
        starts, ends, nsyms, placement.out_off, placement.hole_base,
        placement.holes, placement.group, table, out,
    )
    if bad >= 0:
        # the pass checked the lane's placement before decoding it, and
        # its bits already passed _check_lanes: if the placement fits,
        # the lane ran out of bits
        if _lane_fits(placement, nsyms, bad):
            raise ValueError("bitstream exhausted before all symbols decoded")
        raise ValueError("lane placement outside the output")
    reg.counter("repro_decode_table_tier_total", tier=table.tier).inc()
    reg.counter("repro_decode_symbols_total", path="gap").inc(int(nsyms.sum()))
    reg.counter("repro_decode_lanes_total", path="gap").inc(int(nsyms.size))
    if n_subgather:
        reg.counter(
            "repro_decode_subtable_gather_total", path="gap"
        ).inc(n_subgather)
    return GapDecodeResult(out, "native")


def _lane_fits(placement: LanePlacement, nsyms: np.ndarray, lane: int) -> bool:
    """The pass's placement bound for one lane, in exact integers."""
    off = int(placement.out_off[lane])
    h0 = int(placement.hole_base[lane])
    h1 = int(placement.hole_base[lane + 1])
    return (
        off >= 0 and 0 <= h0 <= h1 <= placement.holes.size
        and placement.group >= 1
        and off + int(nsyms[lane]) + placement.group * (h1 - h0)
        <= placement.n_out
    )
