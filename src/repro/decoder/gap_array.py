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

The pass reads the table's multi-symbol plane, a whole run of
codewords per lookup, when :func:`plane_reason` finds no reason not to:
the table has one, the output is in its dtype, the stream is sparse
enough (under ``PLANE_BITS / PLANE_MIN_RUN`` bits per symbol) for runs
of two codewords or more, and few of its cells broke.  The result
records the choice.
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
    "PLANE_MAX_BROKEN",
    "PLANE_MIN_RUN",
    "gap_decode_lanes",
    "gap_supported",
    "lane_pad",
    "plane_reason",
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
    #: ``""`` when the pass read the table's multi-symbol plane, else
    #: why not (:func:`plane_reason`, or the fallback reason)
    plane_reason: str = ""
    #: the plane stores the pass made
    plane_steps: int = 0


#: A plane lookup spans ``plane_bits`` window bits, so a stream that
#: averages ``b`` bits per symbol resolves about ``plane_bits / b``
#: codewords per lookup.  Below this many the pass runs without the
#: plane: its wider store and second gather then cost more than the
#: lookups they save (see EXPERIMENTS.md, "Multi-symbol decode").
PLANE_MIN_RUN = 2.0
#: Nor does the plane pay when more than this share of the symbols sit
#: in broken cells: their lanes are one cell long, and the chunk lanes
#: meet a hole every few cells, where a run cannot be stored whole.
PLANE_MAX_BROKEN = 0.2


def plane_reason(
    table: DecodeTable, dtype, n_bits: int, n_symbols: int, n_broken: int
) -> str:
    """Why the pass decodes without the table's multi-symbol plane, or
    ``""`` when it reads it: the table has none (its ``plane_off``),
    the output is not in the plane's dtype (``"dtype"``), the stream is
    too dense for runs (``"short_runs"``: ``n_bits`` over ``n_symbols``
    above ``plane_bits / PLANE_MIN_RUN``), or more than
    ``PLANE_MAX_BROKEN`` of its symbols sit in broken cells
    (``"broken_cells"``: ``n_broken`` of them)."""
    if table.plane_off:
        return table.plane_off
    if table.plane_syms.dtype != np.dtype(dtype):
        return "dtype"
    if n_bits * PLANE_MIN_RUN > n_symbols * table.plane_bits:
        return "short_runs"
    if n_broken > PLANE_MAX_BROKEN * n_symbols:
        return "broken_cells"
    return ""


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


def lane_pad(max_length: int) -> int:
    """Spare zero bytes the compiled pass reads past a lane buffer's
    end: 8 for the 64-bit root window at any bit before the lane end,
    plus ``ceil(max_length / 8)`` for the subtable loads of a codeword
    that starts there."""
    return 8 + -(-int(max_length) // 8)


def _pad_buffer(buffer: np.ndarray, max_length: int) -> np.ndarray:
    """Copy with :func:`lane_pad` spare zero bytes, so no kernel load
    runs off the end."""
    out = np.zeros(buffer.size + lane_pad(max_length), np.uint8)
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
    pad: int = 0,
) -> GapDecodeResult:
    """Decode chunk lanes (drop-in for ``decode_lanes``).

    Runs the native pass when it is present and the table is complete,
    storing by ``placement`` (default: lane-major) in ``dtype``, which
    must hold every symbol of ``book``.  Otherwise the call decodes
    through ``decode_lanes``, reports ``backend="lanes"`` and counts the
    reason in ``repro_decode_gap_lut_fallback_total``: a
    :func:`gap_supported` reason or ``"no_native_kernel"``.

    ``buffer``'s last ``pad`` bytes are zeros past every lane
    (:func:`~repro.core.bitstream.stream_lanes` with a ``pad``); when
    they cover :func:`lane_pad`, the pass reads ``buffer`` in place,
    else it reads a padded copy.  The pass bounds-checks every lane
    before it decodes it, so the lane checks of ``decode_lanes``
    (``_check_lanes``) run only when it stops, and a lane outside the
    buffer raises the same error as there.
    """
    if table is None:
        table = build_decode_table(book)
    reg = _metrics()
    ok, reason = gap_supported(book, table)
    kern = native.kernel() if ok else None
    if ok and kern is None:
        reason = "no_native_kernel"
    padded = buffer
    buffer = buffer[: buffer.size - pad] if pad else buffer
    if kern is None:
        reg.counter("repro_decode_gap_lut_fallback_total", reason=reason).inc()
        symbols = decode_lanes(buffer, starts, ends, nsyms, book, table)
        return GapDecodeResult(symbols, "lanes", reason, plane_reason=reason)

    starts, ends, nsyms = (np.ascontiguousarray(a, np.int64)
                           for a in (starts, ends, nsyms))
    if not starts.shape == ends.shape == nsyms.shape or starts.ndim != 1:
        raise ValueError("lane arrays must be equal-shape 1-D")
    if pad < lane_pad(table.max_length) or not (
            padded.dtype == np.uint8 and padded.flags.c_contiguous):
        buffer = np.ascontiguousarray(buffer, np.uint8)
        padded = _pad_buffer(buffer, table.max_length)
    if placement is None:
        placement = _lane_major(nsyms)
    out = np.empty(placement.n_out, dtype)
    n_symbols = int(nsyms.sum())
    off = plane_reason(table, dtype, int((ends - starts).sum()), n_symbols,
                       placement.holes.size * placement.group)
    bad, n_subgather, n_plane = kern.chunk_decode(
        padded, buffer.size * 8,
        starts, ends, nsyms, placement.out_off, placement.hole_base,
        placement.holes, placement.group, table, out, plane=not off,
    )
    if bad >= 0:
        # the pass checks every lane's bits and placement before it
        # decodes it, so the lanes are validated only on this path: a
        # lane outside the buffer raises _check_lanes' error (as if it
        # had run first); else, if the placement fits, the lane ran out
        # of bits
        _check_lanes(buffer, starts, ends, nsyms)
        if _lane_fits(placement, nsyms, bad):
            raise ValueError("bitstream exhausted before all symbols decoded")
        raise ValueError("lane placement outside the output")
    reg.counter("repro_decode_table_tier_total", tier=table.tier).inc()
    reg.counter("repro_decode_symbols_total", path="gap").inc(n_symbols)
    reg.counter("repro_decode_lanes_total", path="gap").inc(int(nsyms.size))
    if n_subgather:
        reg.counter(
            "repro_decode_subtable_gather_total", path="gap"
        ).inc(n_subgather)
    return GapDecodeResult(out, "native", plane_reason=off,
                           plane_steps=n_plane)


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
