"""Gap-array fully-parallel decoder: two-pass sync-point discovery plus
lock-step subchunk decode (Rivera et al., "Optimizing Huffman Decoding
for Error-Bounded Lossy Compression on GPUs").

``decode_lanes`` walks every chunk serially: the number of sequential
steps is O(symbols per chunk).  The gap-array scheme splits each chunk's
bitstream into fixed-width *subchunks* of ``subchunk_bits`` bits and
decodes in two passes:

- **pass 1 — sync** (``decode.gap.sync``): discover, for every subchunk
  boundary, the first codeword-aligned bit offset at-or-after it and the
  number of symbols emitted before it.  The pair per boundary is the
  *gap array*: with it, every subchunk knows its entry state and its
  output range, so nothing downstream is sequential.
- **pass 2 — decode** (``decode.gap.decode``): decode all subchunks of
  all chunks lock-step with the table-driven window gather; sequential
  depth drops to O(symbols per subchunk) with thousands of concurrent
  lanes.

Both passes run in :mod:`repro.native`, the runtime-compiled C
module, with exact pass-1 discovery (an interleaved length walk) that
reads the :class:`~repro.huffman.decoder.DecodeTable` root and descends
its subtables for long codewords.  The scheme pays only when pass 2
runs as compiled parallel lanes, so there is no NumPy gap decoder: when
the kernel is missing (no toolchain, or ``REPRO_DISABLE_NATIVE=1``)
or the table is incomplete, :func:`gap_decode_lanes` decodes through
:func:`repro.huffman.decoder.decode_lanes` and counts the reason in
``repro_decode_gap_lut_fallback_total{reason}``.

:func:`gap_decode_lanes` is the only place that picks a decoder:
``decode_stream``, ``decode_batch`` and everything above them call it
at every input size — the kernel is faster than the lanes even on a
few hundred symbols, so there is no size rule.

:func:`reference_gap_array` is the exact serial oracle.  The kernel's
symbols are byte-identical to
``decode_lanes`` and its :class:`GapArray` equals the oracle's (pinned
by golden vectors and property tests).  The gap array follows the
*decode chain* semantics of the table: on a corrupt stream the recorded
offsets stay on the chain a serial table walk would follow, so gap
output equals lane output even there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
from repro.obs import span as _span

__all__ = [
    "GapArray",
    "GapDecodeResult",
    "gap_decode_lanes",
    "gap_supported",
    "reference_gap_array",
    "subchunk_lane_counts",
    "DEFAULT_SUBCHUNK_BITS",
]

#: subchunk width (bits) when the caller does not pin one
DEFAULT_SUBCHUNK_BITS = 1024


# --------------------------------------------------------------------- types


@dataclass(frozen=True, eq=False)
class GapArray:
    """Per-subchunk sync points: the side channel pass 2 decodes from.

    ``lane_base[c]`` is the first lane (subchunk) of chunk ``c``
    (``n_chunks + 1`` entries).  For lane ``i``, ``bit_offsets[i]`` is
    the first codeword-aligned absolute bit offset at-or-after the
    subchunk boundary and ``symbol_counts[i]`` the number of symbols the
    chunk emits before that offset.
    """

    subchunk_bits: int
    lane_base: np.ndarray
    bit_offsets: np.ndarray
    symbol_counts: np.ndarray

    @property
    def n_chunks(self) -> int:
        return self.lane_base.size - 1

    @property
    def n_subchunks(self) -> int:
        return self.bit_offsets.size

    @property
    def n_sync_points(self) -> int:
        """Boundaries that required discovery (non-trivial entries)."""
        return self.n_subchunks - self.n_chunks

    def equal(self, other: "GapArray") -> bool:
        return (
            self.subchunk_bits == other.subchunk_bits
            and np.array_equal(self.lane_base, other.lane_base)
            and np.array_equal(self.bit_offsets, other.bit_offsets)
            and np.array_equal(self.symbol_counts, other.symbol_counts)
        )

    def to_payload(self) -> dict:
        """JSON-able form (golden side-channel vectors)."""
        return {
            "subchunk_bits": int(self.subchunk_bits),
            "lane_base": [int(v) for v in self.lane_base],
            "bit_offsets": [int(v) for v in self.bit_offsets],
            "symbol_counts": [int(v) for v in self.symbol_counts],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GapArray":
        return cls(
            subchunk_bits=int(payload["subchunk_bits"]),
            lane_base=np.asarray(payload["lane_base"], dtype=np.int64),
            bit_offsets=np.asarray(payload["bit_offsets"], dtype=np.int64),
            symbol_counts=np.asarray(payload["symbol_counts"], dtype=np.int64),
        )


@dataclass(frozen=True)
class GapDecodeResult:
    """Symbols plus the gap array that produced them.

    ``backend`` is ``"native"`` (the C kernel ran) or ``"lanes"`` (the
    whole call decoded through ``decode_lanes``; ``gap`` is then
    ``None`` and ``fallback`` names the reason, the same label counted
    in ``repro_decode_gap_lut_fallback_total``).
    """

    symbols: np.ndarray
    gap: Optional[GapArray]
    backend: str
    fallback: str = ""


# ------------------------------------------------------------------- helpers


def subchunk_lane_counts(ch_bits: np.ndarray, subchunk_bits: int) -> np.ndarray:
    """Subchunks per chunk: ``max(ceil(bits / S), 1)`` (empty chunks
    still own one lane so the gap array addresses every chunk)."""
    S = int(subchunk_bits)
    if S < 16:
        raise ValueError("subchunk_bits must be >= 16")
    return np.maximum(-(-ch_bits.astype(np.int64) // S), 1)


def gap_supported(
    book: CanonicalCodebook, table: DecodeTable
) -> tuple[bool, str]:
    """Whether the gap machinery can decode this book at all: the table
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


def _lane_layout(
    starts: np.ndarray, ends: np.ndarray, S: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_sub per chunk, lane_base) for subchunk width ``S``."""
    n_sub = subchunk_lane_counts(ends - starts, S)
    lane_base = np.zeros(n_sub.size + 1, np.int64)
    np.cumsum(n_sub, out=lane_base[1:])
    return n_sub, lane_base


def _output_ranges(
    gap_cnt: np.ndarray,
    n_sub: np.ndarray,
    lane_base: np.ndarray,
    nsyms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane disjoint output ranges from the gap symbol counts.

    Counts are clamped to the chunk's symbol budget so a corrupt stream
    (walk count != container count) still partitions the output exactly
    the way ``decode_lanes`` fills it.
    """
    sym_base = np.zeros(nsyms.size + 1, np.int64)
    np.cumsum(nsyms, out=sym_base[1:])
    cnt = np.minimum(gap_cnt, np.repeat(nsyms, n_sub))
    out_off = np.repeat(sym_base[:-1], n_sub) + cnt
    out_end = np.empty_like(out_off)
    out_end[:-1] = out_off[1:]
    out_end[lane_base[1:] - 1] = sym_base[1:]
    return out_off, out_end, sym_base


# ------------------------------------------------------------ reference walk


def _window(pbuf: np.ndarray, bp: int, k: int) -> int:
    """The C kernel's ``load_be64(buf + (bp >> 3)) >> (64 - k - (bp & 7))``
    on the >= 8-byte-padded buffer, in exact Python integers."""
    byte = bp >> 3
    w = int.from_bytes(pbuf[byte:byte + 8].tobytes(), "big")
    return w >> (64 - k - (bp & 7))


def _resolve(pbuf, bp: int, table: DecodeTable) -> int:
    """One codeword resolve starting at bit ``bp``.

    Gathers the k-bit root window, then descends node pointers (length
    byte 0) through the flat subtable array until a packed
    ``(symbol << 8) | abs_length`` entry resolves.  The oracle only
    walks *complete* tables, so a pointer is always valid here.
    """
    k = table.k
    ent = int(table.root[_window(pbuf, bp, k) & ((1 << k) - 1)])
    q = bp + k
    while (ent & 0xFF) == 0:
        node = ent >> 8
        nb = int(table.node_bits[node])
        ent = int(table.sub[
            int(table.node_base[node]) + (_window(pbuf, q, nb) & ((1 << nb) - 1))
        ])
        q += nb
    return ent


def reference_gap_array(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    book: CanonicalCodebook,
    subchunk_bits: int,
    table: DecodeTable | None = None,
) -> GapArray:
    """Exact gap array by per-chunk serial walk.

    The executable definition the C kernel is pinned against (golden
    vectors, property tests).  Pure-Python per symbol — test-sized
    inputs only.
    """
    if table is None:
        table = build_decode_table(book)
    ok, why = gap_supported(book, table)
    if not ok:
        raise ValueError(f"gap decode unsupported for this book: {why}")
    S = int(subchunk_bits)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    n_sub, lane_base = _lane_layout(starts, ends, S)
    pbuf = _pad_buffer(np.asarray(buffer, dtype=np.uint8), table.max_length)
    offs = np.empty(int(lane_base[-1]), np.int64)
    cnts = np.empty(int(lane_base[-1]), np.int64)
    for c in range(starts.size):
        p = int(starts[c])
        end = int(ends[c])
        cur, last = int(lane_base[c]), int(lane_base[c + 1])
        nb = p + S
        n = 0
        offs[cur] = p
        cnts[cur] = 0
        cur += 1
        while p < end:
            while cur < last and p >= nb:
                offs[cur] = p
                cnts[cur] = n
                cur += 1
                nb += S
            p += _resolve(pbuf, p, table) & 0xFF
            n += 1
        while cur < last:  # boundaries at/past the chunk's last codeword
            offs[cur] = p
            cnts[cur] = n
            cur += 1
    return GapArray(S, lane_base, offs, cnts)


# ---------------------------------------------------------- native kernel


def _native_gap_decode(
    kernel: native.NativeKernel,
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    table: DecodeTable,
    S: int,
) -> tuple[GapDecodeResult, int]:
    """The two exact C kernel passes: sync, then lock-step decode.
    Returns the result and the subtable gathers the sync walk took."""
    n_sub, lane_base = _lane_layout(starts, ends, S)
    pbuf = _pad_buffer(buffer, table.max_length)
    with _span(
        "decode.gap.sync",
        subchunk_bits=S,
        lanes=int(lane_base[-1]),
        chunks=int(starts.size),
    ):
        gap_off, gap_cnt, ch_n, ch_endpos, ch_sub = kernel.sync_pass(
            pbuf, starts, ends, lane_base, S, table
        )
        # replicate decode_lanes' exhaustion semantics: a chunk whose
        # chain yields fewer codewords than the container claims, or
        # exactly as many but with the last one straddling the chunk
        # end, would leave a lane cursor past its end there
        exhausted = (ch_n < nsyms) | ((ch_n == nsyms) & (ch_endpos > ends))
        if bool(exhausted.any()):
            raise ValueError("bitstream exhausted before all symbols decoded")
    with _span("decode.gap.decode", lanes=int(lane_base[-1])):
        out_off, out_end, sym_base = _output_ranges(
            gap_cnt, n_sub, lane_base, nsyms
        )
        symbols = kernel.decode_pass(
            pbuf, gap_off, out_off, out_end, table, int(sym_base[-1])
        )
    gap = GapArray(S, lane_base, gap_off, gap_cnt)
    return GapDecodeResult(symbols, gap, "native"), int(ch_sub.sum())


# --------------------------------------------------------------- entry point


def gap_decode_lanes(
    buffer: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    nsyms: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
    *,
    subchunk_bits: int | None = None,
) -> GapDecodeResult:
    """Gap-array decode of chunk lanes (drop-in for ``decode_lanes``).

    Runs the native C kernel when it is present and the table is
    complete.  Otherwise the call decodes through ``decode_lanes``,
    reports ``backend="lanes"`` and counts the reason in
    ``repro_decode_gap_lut_fallback_total``: a :func:`gap_supported`
    reason or ``"no_native_kernel"``.
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
        return GapDecodeResult(symbols, None, "lanes", reason)

    buffer, starts, ends, nsyms = _check_lanes(buffer, starts, ends, nsyms)
    S = int(subchunk_bits) if subchunk_bits is not None \
        else DEFAULT_SUBCHUNK_BITS
    res, n_subgather = _native_gap_decode(
        kern, buffer, starts, ends, nsyms, table, S
    )
    gap = res.gap
    assert gap is not None
    reg.counter("repro_decode_table_tier_total", tier=table.tier).inc()
    reg.counter("repro_decode_symbols_total", path="gap").inc(
        int(res.symbols.size)
    )
    if n_subgather:
        reg.counter(
            "repro_decode_subtable_gather_total", path="gap"
        ).inc(n_subgather)
    reg.counter("repro_decode_gap_subchunks_total", backend="native").inc(
        gap.n_subchunks
    )
    reg.counter("repro_decode_gap_sync_points_total", backend="native").inc(
        gap.n_sync_points
    )
    return res
