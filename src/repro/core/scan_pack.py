"""Scan-pack: the single-pass host encode fast path.

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
- :func:`scan_pack_symbols` — the fast path straight from symbols.  It
  runs the compiled ``scan_pack`` pass of :mod:`repro.native` whenever
  that module loads and the symbols are ``uint8``/``uint16``/``uint32``:
  one loop per chunk gathers, merges and flushes each cell straight
  into the word grid (the prefix sum becomes a running bit
  accumulator).  Otherwise it runs the NumPy path below, which is also
  the oracle the compiled pass is tested against, and records why
  (``ScanPackResult.fallback``, counted in
  ``repro_encode_native_fallback_total{reason}``).  The NumPy path
  gathers through a digest-cached packed ``(code << 16) | length``
  table — the same table the compiled pass reads — runs the reduce on
  packed words (6 ops per merge, no separate length array), and an
  optional pair table fuses the lookup with the first REDUCE iteration.

Bit-exactness of the packed representation
------------------------------------------

A packed word keeps the codeword value in bits ``16..63`` and its bit
length in bits ``0..15``.  One packed merge is::

    merge(a, b) = ((a >> 16) << min((b & 0xFFFF) + 16, 63)) + b + (a & 0xFFFF)

- *length field*: both value contributions have zero low-16 bits (the
  left operand is shifted by at least 16), so the low 16 bits hold
  ``len_a + len_b`` exactly as long as a cell's total length stays below
  2^16 — guaranteed by the ``group_symbols * max_length <= 0xFFFF`` gate
  (the generic path takes over beyond it).
- *value field*: for a cell that ends up non-broken, every intermediate
  length is <= W <= 32, so the left value (< 2^32) shifted by at most
  ``16 + 32`` bits stays inside the uint64 and the fields never overlap:
  ADD equals OR equals concatenation.  Broken cells may accumulate
  garbage value bits (the ``min(…, 63)`` clamp only protects the length
  field from numpy's mod-64 shift semantics) — exactly like the
  iterative reference, their value is discarded and the side channel
  carries the truth.

The scatter itself is exact for the same reason: after left-aligning a
cell inside its own word (``(v << (W - len)) & mask`` — the identical
masking expression :func:`repro.core.shuffle_merge.shuffle_merge` uses),
each cell contributes disjoint bits, so ``np.add.at`` on a uint64 grid
is a scatter-OR with no carries.

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
    "packed_codeword_table",
    "packed_pair_table",
    "packed_pair_stats",
    "packed_tables_supported",
    "native_route",
    "native_symbol_bits",
]

#: bits of the packed-word length field
PACK_LEN_BITS = 16
_LEN_SHIFT = np.uint64(PACK_LEN_BITS)
_LEN_MASK = np.uint64((1 << PACK_LEN_BITS) - 1)

#: pair tables above this entry count are not built (8 B/entry; 2^21
#: entries = 16 MiB — covers the paper's alphabets: 256^2 and 1024^2)
PAIR_TABLE_MAX_ENTRIES = 1 << 21

#: digest-keyed packed-table cache entries kept per kind
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
    """Scan-pack output: the dense word grid plus the cell side data.

    ``merged`` is shaped exactly like the iterative
    :func:`~repro.core.shuffle_merge.shuffle_merge` output (same words,
    bits, iteration count, and analytic ``moved_words``); ``broken`` and
    ``cell_lengths`` match :class:`~repro.core.reduce_merge.ReduceMergeResult`.
    """

    merged: ShuffleMergeResult
    broken: np.ndarray  # bool per cell
    cell_lengths: np.ndarray  # int64 true concatenated length per cell
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


def packed_tables_supported(
    book: CanonicalCodebook, tuning: EncoderTuning
) -> bool:
    """True when the 16-bit length field cannot overflow for this
    (codebook, tuning): a cell concatenates ``2^r`` codewords of at most
    ``max_length`` bits each."""
    return tuning.group_symbols * max(book.max_length, 1) <= int(_LEN_MASK)


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


def native_route(
    data: np.ndarray,
) -> tuple[native.NativeKernel | None, str | None]:
    """``(kernel, reason)``: the compiled module when it loads and takes
    ``data``'s symbol dtype, else ``None`` and why not
    (``"symbol_dtype"`` or ``"no_native_kernel"``)."""
    if data.dtype not in native.SYMBOL_DTYPES:
        return None, "symbol_dtype"
    kern = native.kernel()
    return kern, None if kern is not None else "no_native_kernel"


def native_symbol_bits(
    data: np.ndarray, book: CanonicalCodebook
) -> int | None:
    """Total codeword bits of ``data`` from the compiled stats pass.

    ``None`` when the pass cannot run (see :func:`native_route`) *or*
    when ``data`` holds an out-of-range or codeword-less symbol: the
    caller's NumPy stats then raise that symbol's exact error.
    """
    kern, _reason = native_route(data)
    if kern is None:
        return None
    total, bad = kern.symbol_bits(
        np.ascontiguousarray(data), packed_codeword_table(book)
    )
    return total if bad < 0 else None


def _packed_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate packed (value, length) words: left ``a``, right ``b``.

    The ``min(…, 63)`` clamp guards numpy's mod-64 uint64 shift: without
    it a broken cell's oversized shift would wrap around and corrupt the
    length field.  Clamped left-shifts only drop high (value) bits.
    """
    sh = np.minimum((b & _LEN_MASK) + _LEN_SHIFT, np.uint64(63))
    return ((a >> _LEN_SHIFT) << sh) + b + (a & _LEN_MASK)


def packed_pair_table(book: CanonicalCodebook) -> np.ndarray | None:
    """Fused lookup+first-REDUCE table: entry ``s1 * K + s2`` is the
    packed merge of symbols ``(s1, s2)``.  Returns ``None`` when the
    alphabet is too large for the entry cap."""
    K = book.n_symbols
    if K * K > PAIR_TABLE_MAX_ENTRIES:
        return None

    def build():
        pt = packed_codeword_table(book)
        return _packed_merge(pt[:, None], pt[None, :]).reshape(-1)

    return _cached_table((_book_digest(book), "pair"), build)


def _packed_pair_table_le(book: CanonicalCodebook) -> np.ndarray:
    """Pair table laid out for the little-endian uint16 view of a uint8
    symbol stream: index ``d0 | (d1 << 8)`` maps to merge(d0, d1)."""
    def build():
        pt = packed_codeword_table(book)
        full = np.zeros(256, dtype=np.uint64)
        full[: pt.size] = pt
        # T[d1 * 256 + d0] = merge(left=d0, right=d1)
        return _packed_merge(full[None, :], full[:, None]).reshape(-1)

    return _cached_table((_book_digest(book), "pair_le"), build)


def packed_pair_stats(
    data: np.ndarray, book: CanonicalCodebook
) -> tuple[float, np.ndarray] | None:
    """Fused symbol statistics + pair-table gather.

    One pass through the pair table yields both the exact average
    codeword bitwidth (the low 16 bits of a packed pair hold
    ``len_a + len_b`` exactly — both value contributions sit above bit
    16, and a pair's total length is at most ``2 * 63 < 2^16``) *and*
    the gathered packed pairs, which :func:`scan_pack_symbols` accepts
    via ``pair_packed`` so the encoder's stats pass and its first REDUCE
    iteration share a single gather.

    Returns ``None`` when the pair-table path does not apply: tiny or
    signed inputs, alphabet above the table cap, or — decisively — a
    codebook with zero-length (unused) symbols.  In that last case the
    no-codeword check requires a per-symbol gather that costs more than
    the whole histogram-based stats pass, so the caller's fallback is
    the faster route; with a *complete* codebook no per-symbol check
    exists at all and the fusion is pure profit.  Out-of-range symbols
    raise ``IndexError`` *before* the gather (a pair index built from
    an out-of-range symbol can silently alias a valid table slot — the
    range check is the aliasing guard), matching ``book.lookup``.
    """
    if data.size < 2 or data.dtype not in (np.uint8, np.uint16, np.uint32):
        return None
    if bool((book.lengths == 0).any()):
        return None
    K = book.n_symbols
    even = data[: data.size & ~1]
    if data.dtype == np.uint8 and K <= 256 \
            and np.little_endian and data.flags.c_contiguous:
        if K < 256:
            mx = int(data.max())
            if mx >= K:
                raise IndexError(
                    f"index {mx} is out of bounds for axis 0 with "
                    f"size {K}"
                )
        p = _packed_pair_table_le(book)[even.view(np.uint16)]
    else:
        pair = packed_pair_table(book)
        if pair is None:
            return None
        mx = int(data.max())
        if mx >= K:
            raise IndexError(
                f"index {mx} is out of bounds for axis 0 with size {K}"
            )
        if data.dtype == np.uint16 and np.little_endian \
                and data.flags.c_contiguous:
            u = even.view(np.uint32)
            idx = (u & np.uint32(0xFFFF)) * np.uint32(K) \
                + (u >> np.uint32(16))
        else:
            idx = even[0::2].astype(np.int64)
            idx *= K
            idx += even[1::2]
        p = pair[idx]
    total = int((p & _LEN_MASK).sum(dtype=np.uint64))
    if data.size & 1:
        total += int(book.lengths[int(data[-1])])
    return total / data.size, p


def _scatter_pack(
    cell_values: np.ndarray,
    eff_lengths: np.ndarray,
    n_chunks: int,
    cells_per_chunk: int,
    word_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive-scan + two-word bit scatter into the final word grid.

    ``cell_values``/``eff_lengths`` are the *effective* cells (broken
    cells already zeroed, values ``< 2^length``, lengths in ``[0, W]``).
    Returns ``(words, bits)`` with ``words`` uint32-shaped
    ``(n_chunks, cpc)`` and ``bits`` the dense bit count per chunk —
    exactly what ``s`` iterations of :func:`shuffle_merge` produce.

    When a chunk spans whole 64-bit units (``cpc * W % 64 == 0``) the
    supercell variant concatenates ``64/W`` adjacent cells first and
    scatters 64-bit units, cutting the scatter volume by that factor.
    """
    bits = eff_lengths.reshape(n_chunks, cells_per_chunk).sum(axis=1)
    group = 64 // word_bits
    if cells_per_chunk % group == 0:
        words = _scatter_wide(
            cell_values, eff_lengths, bits,
            n_chunks, cells_per_chunk, word_bits, group,
        )
    else:
        words = _scatter_narrow(
            cell_values, eff_lengths, bits,
            n_chunks, cells_per_chunk, word_bits,
        )
    return words, bits


def _scatter_narrow(
    cell_values: np.ndarray,
    eff_lengths: np.ndarray,
    bits: np.ndarray,
    n_chunks: int,
    cpc: int,
    W: int,
) -> np.ndarray:
    """One scatter element per cell, W-bit grid units (tiny chunks)."""
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
    return grid[:, :cpc].astype(np.uint32)


def _scatter_wide(
    cell_values: np.ndarray,
    eff_lengths: np.ndarray,
    bits: np.ndarray,
    n_chunks: int,
    cpc: int,
    W: int,
    group: int,
) -> np.ndarray:
    """Supercell scatter: ``group = 64/W`` adjacent cells concatenate
    into one <= 64-bit unit, so the prefix scan and the two-word scatter
    run on ``1/group`` of the cells.  Requires clean cells (value below
    ``2^length``) because the right-aligned concatenation has no masking
    step — :func:`_finish` guarantees this for both entry paths.
    """
    v = cell_values
    le = eff_lengths if eff_lengths.dtype == np.int64 \
        else eff_lengths.astype(np.int64)
    for _ in range(group.bit_length() - 1):
        v2 = v.reshape(-1, 2)
        l2 = le.reshape(-1, 2)
        # lengths stay <= 32 until the final round, so shifts never wrap
        v = (v2[:, 0] << l2[:, 1].view(np.uint64)) + v2[:, 1]
        le = l2[:, 0] + l2[:, 1]

    spc = cpc // group  # supercells == 64-bit units per chunk
    flat = np.cumsum(le)
    offs = flat - le
    chunk_base = np.zeros(n_chunks, dtype=np.int64)
    np.cumsum(bits[:-1], out=chunk_base[1:])
    offs -= np.repeat(chunk_base, spc)

    # left-align inside the 64-bit unit; (64 - 64) % 64 == 0 keeps a
    # full supercell in place, and an empty one is all-zero anyway
    lu = le.view(np.uint64)
    hleft = v << ((np.uint64(64) - lu) % np.uint64(64))

    shift = (offs & 63).view(np.uint64)
    word = offs >> 6
    val1 = hleft >> shift
    # double shift: a single << (64 - shift) would wrap to a no-op at
    # shift == 0 (numpy shifts are mod 64); this clears the word instead
    val2 = (hleft << (np.uint64(63) - shift)) << np.uint64(1)

    stride = spc + 1
    grid = np.zeros(n_chunks * stride, dtype=np.uint64)
    idx = np.repeat(np.arange(n_chunks, dtype=np.int64) * stride, spc)
    idx += word
    np.add.at(grid, idx, val1)
    idx += 1
    np.add.at(grid, idx, val2)
    grid = grid.reshape(n_chunks, stride)
    assert not grid[:, spc].any(), "scan-pack spill beyond chunk capacity"

    # split each big-endian 64-bit unit back into W-bit grid words
    g = grid[:, :spc]
    out = np.empty((n_chunks, cpc), dtype=np.uint32)
    wmask = np.uint64((1 << W) - 1)
    for j in range(group):
        out[:, j::group] = (
            (g >> np.uint64(64 - (j + 1) * W)) & wmask
        ).astype(np.uint32)
    return out


def _finish(
    packed_or_vals: np.ndarray,
    cell_lengths: np.ndarray,
    tuning: EncoderTuning,
    packed: bool,
) -> ScanPackResult:
    """Shared tail: broken detection, zeroing, scatter, result shaping."""
    W = tuning.word_bits
    cpc = tuning.cells_per_chunk
    n_chunks = cell_lengths.size // cpc
    broken = cell_lengths > W
    values = packed_or_vals >> _LEN_SHIFT if packed else packed_or_vals
    if broken.any():
        values = np.where(broken, np.uint64(0), values)
        eff = np.where(broken, 0, cell_lengths)
    else:
        eff = cell_lengths
    if not packed:
        # the generic path admits dirty inputs (value bits above the
        # cell length, exactly like reduce_merge); strip them here so
        # the mask-free supercell concatenation stays exact — this is
        # shuffle_merge's left-align mask, applied right-aligned
        le = eff.view(np.uint64) if eff.dtype == np.int64 \
            else eff.astype(np.uint64)
        values = values & ((np.uint64(1) << le) - np.uint64(1))
    words, bits = _scatter_pack(values, eff, n_chunks, cpc, W)
    return _result(words, bits, broken, cell_lengths, tuning)


def _result(
    words: np.ndarray,
    bits: np.ndarray,
    broken: np.ndarray,
    cell_lengths: np.ndarray,
    tuning: EncoderTuning,
    impl: str = "numpy",
) -> ScanPackResult:
    """Shape a pass's outputs like the iterative pair's, with the
    analytic SHUFFLE counts."""
    n_chunks = bits.size
    merged = ShuffleMergeResult(
        words=words,
        bits=bits,
        iterations=tuning.shuffle_factor if n_chunks else 0,
        moved_words=analytic_moved_words(n_chunks, tuning.shuffle_factor),
        word_bits=tuning.word_bits,
    )
    return ScanPackResult(merged=merged, broken=broken,
                          cell_lengths=cell_lengths, impl=impl)


def _empty_result(tuning: EncoderTuning) -> ScanPackResult:
    return ScanPackResult(
        merged=ShuffleMergeResult(
            words=np.zeros((0, tuning.cells_per_chunk), dtype=np.uint32),
            bits=np.zeros(0, dtype=np.int64),
            iterations=0,
            moved_words=0,
            word_bits=tuning.word_bits,
        ),
        broken=np.zeros(0, dtype=bool),
        cell_lengths=np.zeros(0, dtype=np.int64),
    )


def scan_pack(
    codes: np.ndarray,
    lengths: np.ndarray,
    tuning: EncoderTuning,
) -> ScanPackResult:
    """Generic scan-pack over per-symbol codewords (whole chunks only).

    Bit-for-bit equal to ``shuffle_merge(zeroed(reduce_merge(codes,
    lengths, r, W)), 2^(M-r), W)`` for any input the iterative pair
    accepts — the reduce below reuses the reference's exact update rule,
    including its uint64-overflow zeroing, rather than the packed-word
    trick (which assumes codebook-clean inputs).
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
        return _empty_result(tuning)

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
    return _finish(v, l, tuning, packed=False)


def scan_pack_symbols(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    pair_packed: np.ndarray | None = None,
) -> ScanPackResult:
    """Scan-pack straight from symbols.

    ``data.size`` must be a multiple of ``tuning.chunk_symbols`` (the
    encoder handles the tail separately).  Runs the compiled pass when
    :func:`native_route` allows, else the NumPy path with the reason
    counted in ``repro_encode_native_fallback_total`` and returned as
    ``fallback``; both produce identical ``words``, ``bits``,
    ``broken`` and ``cell_lengths``.  The compiled pass raises
    ``IndexError`` for an out-of-range symbol before gathering it.

    ``pair_packed`` (NumPy path only) optionally re-uses the packed
    pairs a prior :func:`packed_pair_stats` call already gathered for (a
    superset of) ``data`` — the first ``data.size // 2`` entries must be
    the packed merges of ``data``'s symbol pairs.  ``chunk_symbols`` is
    even, so a whole-chunk prefix never splits a pair.
    """
    data = np.asarray(data)
    if data.size % tuning.chunk_symbols:
        raise ValueError("input must be whole chunks")
    kern, reason = native_route(data)
    if kern is None:
        _metrics().counter(
            "repro_encode_native_fallback_total", reason=reason
        ).inc()
        res = _scan_pack_symbols_numpy(data, book, tuning, pair_packed)
        res.fallback = reason
        return res
    table = packed_codeword_table(book)
    words, bits, broken, cell_lengths, bad = kern.scan_pack(
        np.ascontiguousarray(data), table, tuning.group_symbols,
        tuning.cells_per_chunk, tuning.word_bits,
    )
    if bad >= 0:
        raise IndexError(
            f"index {int(data.max())} is out of bounds for axis 0 with "
            f"size {table.size}"
        )
    return _result(words, bits, broken, cell_lengths, tuning, "native")


def _scan_pack_symbols_numpy(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    pair_packed: np.ndarray | None,
) -> ScanPackResult:
    """The NumPy scan-pack: packed gather tables, packed reduce, then
    :func:`_finish`.  Falls back to the generic path when the 16-bit
    packed length field could overflow."""
    if data.size == 0:
        return _empty_result(tuning)
    if not packed_tables_supported(book, tuning):
        codes, lens = book.lookup(data)
        return scan_pack(codes, lens.astype(np.int64), tuning)

    r = tuning.reduction_factor
    p = None
    if r >= 1:
        # fuse lookup with the first REDUCE iteration through a pair table
        if pair_packed is not None:
            p = pair_packed[: data.size // 2]
        elif (
            data.dtype == np.uint8
            and book.n_symbols <= 256
            and np.little_endian
            and data.flags.c_contiguous
        ):
            p = _packed_pair_table_le(book)[data.view(np.uint16)]
        else:
            pair = packed_pair_table(book)
            if pair is not None:
                if (
                    data.dtype == np.uint16
                    and np.little_endian
                    and data.flags.c_contiguous
                ):
                    # contiguous uint32 view: both symbols of a pair in
                    # one load, index math in uint32 (fits: K^2 <= 2^21)
                    u = data.view(np.uint32)
                    idx = (u & np.uint32(0xFFFF)) \
                        * np.uint32(book.n_symbols) + (u >> np.uint32(16))
                else:
                    idx = data[0::2].astype(np.int64)
                    idx *= book.n_symbols
                    idx += data[1::2]
                p = pair[idx]
        if p is not None:
            r -= 1
    if p is None:
        p = packed_codeword_table(book)[data]

    # when every possible cell length fits the shift budget the clamp is
    # provably a no-op and each merge drops the np.minimum pass
    unclamped = (
        tuning.group_symbols * max(book.max_length, 1)
        + PACK_LEN_BITS <= 63
    )
    for _ in range(r):
        p2 = p.reshape(-1, 2)
        if unclamped:
            b = p2[:, 1]
            p = (
                (p2[:, 0] >> _LEN_SHIFT) << ((b & _LEN_MASK) + _LEN_SHIFT)
            ) + b + (p2[:, 0] & _LEN_MASK)
        else:
            p = _packed_merge(p2[:, 0], p2[:, 1])
    cell_lengths = (p & _LEN_MASK).astype(np.int64)
    return _finish(p, cell_lengths, tuning, packed=True)
