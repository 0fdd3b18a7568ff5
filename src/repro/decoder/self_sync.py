"""Self-synchronizing parallel decoder (CUHD-style gap array).

The paper's related work (Weißenberger & Schmidt, ICPP'18) decodes a
*single dense* Huffman bitstream massively in parallel by exploiting the
self-synchronization property of prefix codes:

1. the stream is cut into fixed-size subsequences;
2. every subsequence is decoded speculatively from its own first bit;
3. a synchronization sweep propagates each subsequence's *exit state*
   (the bit offset at which decoding crosses into the next subsequence)
   and re-decodes subsequences whose entry state changed — prefix codes
   re-synchronize after a handful of codewords, so the sweep converges in
   very few rounds;
4. a prefix sum over per-subsequence symbol counts places every
   subsequence's output (the "gap array"), and a final pass writes it.

We implement the algorithm functionally with the structural counters the
cost model prices (rounds to convergence, re-decoded subsequences) — and
as a genuinely useful API: it decodes the container-less streams the
prefix-sum baseline emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cuda.costmodel import KernelCost
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import DecodeTable, build_decode_table
from repro.utils.bits import unpack_to_bits

__all__ = ["SelfSyncResult", "self_sync_decode"]


@dataclass
class SelfSyncResult:
    symbols: np.ndarray
    sync_rounds: int  # synchronization sweeps until fixpoint
    redecodes: int  # subsequences re-decoded beyond the first pass
    n_subsequences: int
    cost: KernelCost


def _decode_span(window_vals, bits, lut, book, start: int, limit: int,
                 total_bits: int, collect: list | None) -> int:
    """Decode codewords from ``start`` until crossing ``limit``.

    ``lut`` is ``(symbol, length, k)`` read off the table root; a zero
    length takes the First/Entry scan.  Returns the first bit position
    at or beyond ``limit`` where a new codeword begins.  ``collect``
    gathers symbols when not None.
    """
    tbl_sym, tbl_len, k = lut
    first, entry = book.first, book.entry
    maxlen = book.max_length
    symbols_by_code = book.symbols_by_code
    pos = start
    while pos < limit:
        if pos >= total_bits:
            return total_bits
        w = window_vals[pos]
        l = tbl_len[w]
        if l:
            if collect is not None:
                collect.append(tbl_sym[w])
            pos += l
            continue
        v = int(w)
        l = k
        while True:
            l += 1
            if l > maxlen or pos + l > total_bits:
                raise ValueError("corrupt bitstream during parallel decode")
            v = (v << 1) | int(bits[pos + l - 1])
            offset = v - int(first[l])
            count_l = (int(entry[l + 1] - entry[l]) if l + 1 < entry.size
                       else len(symbols_by_code) - int(entry[l]))
            if 0 <= offset < count_l:
                if collect is not None:
                    collect.append(int(symbols_by_code[int(entry[l]) + offset]))
                pos += l
                break
    return pos


def self_sync_decode(
    buffer: np.ndarray,
    total_bits: int,
    book: CanonicalCodebook,
    n_symbols: int,
    subsequence_bits: int = 256,
    table: DecodeTable | None = None,
    max_rounds: int | None = None,
) -> SelfSyncResult:
    """Decode a dense bitstream with the gap-array algorithm."""
    if subsequence_bits < 2 * max(book.max_length, 1):
        raise ValueError(
            "subsequences must be at least twice the longest codeword"
        )
    if table is None:
        table = build_decode_table(book)
    bits = unpack_to_bits(np.asarray(buffer, dtype=np.uint8), total_bits)
    k = table.k
    lut = (table.root >> 8, table.root & 0xFF, k)
    padded = np.concatenate([bits, np.zeros(k, dtype=np.uint8)]).astype(np.int64)
    weights = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)
    if total_bits > 0:
        windows = np.lib.stride_tricks.sliding_window_view(padded, k)[:total_bits]
        window_vals = windows @ weights
    else:
        window_vals = np.empty(0, dtype=np.int64)

    S = subsequence_bits
    n_sub = max((total_bits + S - 1) // S, 1)
    # entry[i]: the absolute bit position where subsequence i's decoding
    # starts (a codeword boundary).  Speculative initialization: every
    # subsequence assumes it starts exactly on its boundary.
    entry_pos = np.arange(n_sub, dtype=np.int64) * S
    exit_pos = np.full(n_sub, -1, dtype=np.int64)

    # -- synchronization sweeps -------------------------------------------
    rounds = 0
    redecodes = 0
    dirty = np.ones(n_sub, dtype=bool)
    limit_rounds = max_rounds if max_rounds is not None else n_sub + 2
    while dirty.any():
        rounds += 1
        if rounds > limit_rounds:
            raise ValueError("parallel decode failed to synchronize")
        next_dirty = np.zeros(n_sub, dtype=bool)
        for i in np.flatnonzero(dirty):
            if rounds > 1:
                redecodes += 1
            limit = min((i + 1) * S, total_bits)
            end = _decode_span(window_vals, bits, lut, book,
                               int(entry_pos[i]), limit, total_bits, None)
            exit_pos[i] = end
            if i + 1 < n_sub and entry_pos[i + 1] != end:
                entry_pos[i + 1] = end
                next_dirty[i + 1] = True
        dirty = next_dirty

    # -- counting + gap array (prefix sum) --------------------------------
    out_parts: list[list[int]] = []
    counts = np.zeros(n_sub, dtype=np.int64)
    for i in range(n_sub):
        collect: list[int] = []
        limit = min((i + 1) * S, total_bits)
        _decode_span(window_vals, bits, lut, book, int(entry_pos[i]),
                     limit, total_bits, collect)
        counts[i] = len(collect)
        out_parts.append(collect)
    total = int(counts.sum())
    if total < n_symbols:
        raise ValueError("bitstream exhausted before all symbols decoded")
    symbols = np.fromiter(
        (s for part in out_parts for s in part), dtype=np.int64, count=total
    )[:n_symbols]

    cost = KernelCost(
        name="dec.self_sync",
        bytes_coalesced=float((total_bits // 8) * (1 + rounds) + n_symbols * 2),
        launches=3,  # speculative pass, sync sweeps (fused), gather pass
        compute_cycles=float(n_symbols) * 24.0
        + float(redecodes) * S * 1.5,
        meta={"rounds": rounds, "redecodes": redecodes, "subseq": n_sub},
    )
    return SelfSyncResult(
        symbols=symbols,
        sync_rounds=rounds,
        redecodes=redecodes,
        n_subsequences=n_sub,
        cost=cost,
    )
