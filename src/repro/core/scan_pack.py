"""Scan-pack: the single-pass host encode.

The paper's reduce-shuffle-merge exists to fit SIMT shared memory: ``r``
REDUCE iterations compress codewords into W-bit cells, then ``s = M - r``
SHUFFLE iterations pairwise-merge cell groups until each chunk is one
dense bitstream.  On a *host*, the same dense chunk bitstream is
computable in one pass: an exclusive prefix sum of effective cell
lengths gives every cell its destination bit offset, and a scatter-OR
deposits each cell's bits into at most two W-bit words of the final
word grid (the prefix-sum offset encoders of Cloud et al. and the
Single-Stage Huffman Encoder of Agrawal et al. are the same idea).

Two entry points:

- :func:`scan_pack` — generic path over per-symbol ``(codes, lengths)``
  arrays.  The pairwise reduce mirrors
  :func:`repro.core.reduce_merge.reduce_merge` operation-for-operation
  (including its value-overflow zeroing), so the output is bit-for-bit
  identical to ``reduce_merge ∘ shuffle_merge`` for *any* input.
- :func:`scan_pack_symbols` — the path straight from symbols, ending
  in the coalesced payload.  It runs the compiled ``scan_pack`` pass of
  :mod:`repro.native` whenever that module loads and the symbols are
  ``uint8``/``uint16``/``uint32``: one loop per chunk gathers, merges
  and stores each cell's bits straight into the payload at the chunk's
  running byte offset (the prefix sum becomes a running bit
  accumulator, and the coalescing copy of Table I disappears, as in the
  prefix-sum encoders that write each chunk at its output offset).
  Otherwise it runs :func:`checked_lengths` and a code gather, then
  :func:`scan_pack` and the word grid's coalescing copy — the NumPy
  oracle the compiled pass is tested against and the path for hosts
  without a compiler — and records why (``ScanPackResult.fallback``,
  counted in ``repro_encode_native_fallback_total{reason}``).  Both
  refuse an out-of-range or codeword-less symbol with the same error.

The compiled pass gathers through :func:`packed_codeword_table`, one
uint64 per symbol holding the codeword value in bits ``16..63`` and its
bit length in bits ``0..15`` (digest-cached, so a registered codebook
builds it once).

The scatter is exact because, after left-aligning a cell inside its
own word (``(v << (W - len)) & mask`` — the identical masking
expression :func:`repro.core.shuffle_merge.shuffle_merge` uses, which
also strips any value bits above the cell length), each cell
contributes disjoint bits, so ``np.add.at`` on a uint64 grid is a
scatter-OR with no carries.

The module never touches the modeled-kernel cost path: the structural
counts the encoder charges (``moved_words``, ``breaking_fraction``) are
computed analytically here and proven equal to the iterative counters
(see :func:`analytic_moved_words` and tests/test_scan_pack.py), so
``impl="scan"`` and ``impl="iterative"`` price identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.core.shuffle_merge import ShuffleMergeResult
from repro.core.tuning import EncoderTuning
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import metrics as _metrics

__all__ = [
    "ScanPackResult",
    "scan_pack",
    "scan_pack_symbols",
    "analytic_moved_words",
    "checked_lengths",
    "packed_codeword_table",
    "native_symbol_bits",
]

#: bits of the packed-word length field
PACK_LEN_BITS = 16
_LEN_SHIFT = np.uint64(PACK_LEN_BITS)

#: digest-keyed packed-table cache entries kept
_TABLE_CACHE_SIZE = 16
_table_cache: OrderedDict = OrderedDict()
_table_lock = threading.Lock()


def _cached_table(key, build):
    """Tiny thread-safe LRU for packed lookup tables (keyed by codebook
    content digest, so deserialized codebooks share entries)."""
    with _table_lock:
        if key in _table_cache:
            _table_cache.move_to_end(key)
            return _table_cache[key]
    value = build()
    with _table_lock:
        _table_cache[key] = value
        _table_cache.move_to_end(key)
        while len(_table_cache) > _TABLE_CACHE_SIZE:
            _table_cache.popitem(last=False)
    return value


def _book_digest(book: CanonicalCodebook) -> str:
    from repro.huffman.cache import codebook_digest

    return codebook_digest(book)


@dataclass
class ScanPackResult:
    """Scan-pack output: the coalesced chunk payload plus the cell flags.

    ``bits``, ``payload`` and ``offsets`` equal the iterative pair's
    ``shuffle_merge(...).bits`` and ``.payload()``; ``moved_words`` is
    its analytic SHUFFLE count and ``broken`` matches
    :class:`~repro.core.reduce_merge.ReduceMergeResult`.  ``merged`` is
    the NumPy pass's word grid, shaped exactly like the iterative
    :func:`~repro.core.shuffle_merge.shuffle_merge` output; the compiled
    pass writes the payload directly and builds no grid (``None``).
    """

    bits: np.ndarray  # int64 dense bits per chunk
    payload: np.ndarray  # uint8 byte-aligned chunk streams, back to back
    offsets: np.ndarray  # int64 byte offset per chunk, len = chunks + 1
    broken: np.ndarray  # bool per cell
    moved_words: int  # SHUFFLE word moves (analytic)
    merged: ShuffleMergeResult | None = None  # NumPy pass's word grid
    impl: str = "numpy"  # "native" when the compiled pass ran
    fallback: str | None = None  # why the compiled pass did not run

    @property
    def n_cells(self) -> int:
        return int(self.broken.size)

    @property
    def breaking_fraction(self) -> float:
        return float(self.broken.mean()) if self.broken.size else 0.0


def analytic_moved_words(n_chunks: int, shuffle_factor: int) -> int:
    """Total SHUFFLE word moves, in closed form.

    Iteration ``i`` (0-based) of :func:`shuffle_merge` moves
    ``pairs * (C + 1)`` words per chunk with ``pairs = 2^(s-1-i)`` and
    ``C = 2^i``; summing the geometric series gives

        moved = n_chunks * (s * 2^s / 2 + 2^s - 1).

    The count is data-independent — it only depends on the launch
    geometry — which is why the scan path can charge the *identical*
    modeled cost without running the iterations.
    """
    if n_chunks <= 0:
        return 0
    cpc = 1 << shuffle_factor
    return n_chunks * (shuffle_factor * cpc // 2 + cpc - 1)


def packed_codeword_table(book: CanonicalCodebook) -> np.ndarray:
    """Per-symbol ``(code << 16) | length`` gather table (digest-cached).

    Symbols with codewords longer than 48 bits lose their top value bits
    here; any cell containing one is necessarily broken (length > 48 >
    W), so the garbage never reaches the dense stream.
    """
    def build():
        return (
            (book.codes.astype(np.uint64) << _LEN_SHIFT)
            | book.lengths.astype(np.uint64)
        )

    return _cached_table((_book_digest(book), "packed"), build)


def checked_lengths(
    data: np.ndarray,
    book: CanonicalCodebook,
) -> np.ndarray:
    """Per-symbol codeword lengths, or the error a bad symbol earns.

    The one NumPy symbol check every encode path shares: ``book.lookup``'s
    negative-symbol check and length gather (an out-of-range symbol
    raises NumPy's ``IndexError``), then ``ValueError`` for the first
    symbol without a codeword.  The compiled passes stop at such a
    symbol and their callers run this to raise its exact error.
    """
    book.reject_negative(data)
    lens = book.lengths[data]
    if data.size and int(lens.min()) == 0:
        bad = int(data[int(np.argmin(lens))])
        raise ValueError(f"symbol {bad} has no codeword (zero frequency)")
    return lens


def native_symbol_bits(
    data: np.ndarray, book: CanonicalCodebook
) -> int | None:
    """Total codeword bits of ``data`` from the compiled stats pass.

    ``None`` when the pass cannot run (see :func:`repro.native.route`)
    *or* when ``data`` holds an out-of-range or codeword-less symbol:
    the caller's NumPy stats then raise that symbol's exact error.
    """
    kern, _reason = native.route(data.dtype)
    if kern is None:
        return None
    total, bad = kern.symbol_bits(
        np.ascontiguousarray(data), packed_codeword_table(book)
    )
    return total if bad < 0 else None


def _scatter_narrow(
    cell_values: np.ndarray,
    eff_lengths: np.ndarray,
    n_chunks: int,
    cpc: int,
    W: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive-scan + two-word bit scatter into the final word grid.

    ``cell_values``/``eff_lengths`` are the *effective* cells (broken
    cells already zeroed, lengths in ``[0, W]``).  Returns ``(words,
    bits)`` with ``words`` uint32-shaped ``(n_chunks, cpc)`` and
    ``bits`` the dense bit count per chunk — exactly what ``s``
    iterations of :func:`shuffle_merge` produce.
    """
    bits = eff_lengths.reshape(n_chunks, cpc).sum(axis=1)
    wlog = W.bit_length() - 1
    mask = np.uint64((1 << W) - 1)
    wb = np.uint64(W)

    # per-chunk exclusive prefix sum of effective lengths (one global
    # cumsum, then subtract each chunk's base)
    flat = np.cumsum(eff_lengths)
    offs = flat - eff_lengths
    chunk_base = np.zeros(n_chunks, dtype=np.int64)
    np.cumsum(bits[:-1], out=chunk_base[1:])
    offs -= np.repeat(chunk_base, cpc)

    # left-align each cell in its own W-bit word — the identical masking
    # expression shuffle_merge applies before its first iteration
    le = eff_lengths.view(np.uint64) if eff_lengths.dtype == np.int64 \
        else eff_lengths.astype(np.uint64)
    v_left = (cell_values << (wb - le)) & mask

    shift = (offs & (W - 1)).view(np.uint64)
    word = offs >> wlog
    val1 = v_left >> shift
    val2 = (v_left << (wb - shift)) & mask

    # stride cpc+1 leaves a spill column so the last cell's second word
    # has a legal (all-zero) destination; disjoint bits make ADD == OR
    stride = cpc + 1
    grid = np.zeros(n_chunks * stride, dtype=np.uint64)
    idx = np.repeat(
        np.arange(n_chunks, dtype=np.int64) * stride, cpc
    )
    idx += word
    np.add.at(grid, idx, val1)
    idx += 1
    np.add.at(grid, idx, val2)
    grid = grid.reshape(n_chunks, stride)
    assert not grid[:, cpc].any(), "scan-pack spill beyond chunk capacity"
    return grid[:, :cpc].astype(np.uint32), bits


def _finish(
    values: np.ndarray,
    cell_lengths: np.ndarray,
    tuning: EncoderTuning,
) -> ScanPackResult:
    """Shared tail: broken detection, zeroing, scatter, then the word
    grid's coalescing copy."""
    W = tuning.word_bits
    cpc = tuning.cells_per_chunk
    n_chunks = cell_lengths.size // cpc
    broken = cell_lengths > W
    if broken.any():
        values = np.where(broken, np.uint64(0), values)
        eff = np.where(broken, 0, cell_lengths)
    else:
        eff = cell_lengths
    words, bits = _scatter_narrow(values, eff, n_chunks, cpc, W)
    return _result(words, bits, broken, tuning)


def _result(
    words: np.ndarray,
    bits: np.ndarray,
    broken: np.ndarray,
    tuning: EncoderTuning,
) -> ScanPackResult:
    """Shape the word grid like the iterative pair's output, with the
    analytic SHUFFLE counts, and coalesce it."""
    n_chunks = bits.size
    merged = ShuffleMergeResult(
        words=words,
        bits=bits,
        iterations=tuning.shuffle_factor if n_chunks else 0,
        moved_words=analytic_moved_words(n_chunks, tuning.shuffle_factor),
        word_bits=tuning.word_bits,
    )
    payload, offsets = merged.payload()
    return ScanPackResult(bits=bits, payload=payload, offsets=offsets,
                          broken=broken, moved_words=merged.moved_words,
                          merged=merged)


def scan_pack(
    codes: np.ndarray,
    lengths: np.ndarray,
    tuning: EncoderTuning,
) -> ScanPackResult:
    """Generic scan-pack over per-symbol codewords (whole chunks only).

    Bit-for-bit equal to ``shuffle_merge(zeroed(reduce_merge(codes,
    lengths, r, W)), 2^(M-r), W)`` for any input the iterative pair
    accepts — the reduce below reuses the reference's exact update rule,
    including its uint64-overflow zeroing.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lens = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lens.shape or codes.ndim != 1:
        raise ValueError("codes/lengths must be equal-shape 1-D arrays")
    if codes.size % tuning.chunk_symbols:
        raise ValueError("input must be whole chunks")
    if codes.size and int(lens.min()) < 0:
        raise ValueError("lengths must be non-negative")
    if codes.size == 0:
        return _result(
            np.zeros((0, tuning.cells_per_chunk), dtype=np.uint32),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), tuning,
        )

    v, l = codes, lens
    for _ in range(tuning.reduction_factor):
        v2 = v.reshape(-1, 2)
        l2 = l.reshape(-1, 2)
        new_len = l2[:, 0] + l2[:, 1]
        representable = new_len <= 63
        shift = np.where(representable, l2[:, 1], 0).astype(np.uint64)
        merged = (v2[:, 0] << shift) | v2[:, 1]
        merged[~representable] = 0
        v, l = merged, new_len
    if v is codes:  # r == 0: never hand the caller's buffer to _finish
        v = codes.copy()
        l = lens.copy()
    return _finish(v, l, tuning)


def scan_pack_symbols(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
) -> ScanPackResult:
    """Scan-pack straight from symbols to the coalesced payload.

    ``data.size`` must be a multiple of ``tuning.chunk_symbols`` (the
    encoder handles the tail separately).  Runs the compiled pass when
    :func:`repro.native.route` allows, else :func:`checked_lengths` and
    a code gather → :func:`scan_pack` with the reason counted in
    ``repro_encode_native_fallback_total`` and returned as
    ``fallback``; both produce identical ``bits``, ``payload``,
    ``offsets`` and ``broken``, and both raise :func:`checked_lengths`'
    error for a symbol that is out of range (``IndexError``) or has no
    codeword (``ValueError``).
    """
    data = np.asarray(data)
    if data.size % tuning.chunk_symbols:
        raise ValueError("input must be whole chunks")
    kern, reason = native.route(data.dtype)
    if kern is None:
        _metrics().counter(
            "repro_encode_native_fallback_total", reason=reason
        ).inc()
        lens = checked_lengths(data, book)
        res = scan_pack(book.codes[data], lens, tuning)
        res.fallback = reason
        return res
    table = packed_codeword_table(book)
    bits, payload, offsets, broken, bad = kern.scan_pack(
        np.ascontiguousarray(data), table, tuning.group_symbols,
        tuning.cells_per_chunk, tuning.word_bits,
    )
    if bad >= 0:
        checked_lengths(data, book)
        raise RuntimeError(f"scan_pack stopped at symbol {bad}, which "
                           "the NumPy check accepts")
    return ScanPackResult(
        bits=bits, payload=payload, offsets=offsets, broken=broken,
        moved_words=analytic_moved_words(bits.size, tuning.shuffle_factor),
        impl="native",
    )
