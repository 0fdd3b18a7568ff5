"""Scan-pack: the single-pass host encode.

The paper's reduce-shuffle-merge exists to fit SIMT shared memory: ``r``
REDUCE iterations compress codewords into W-bit cells, then ``s = M - r``
SHUFFLE iterations pairwise-merge cell groups until each chunk is one
dense bitstream.  On a *host*, the same dense chunk bitstream is
computable in one pass: an exclusive prefix sum of effective cell
lengths gives every cell its destination bit offset (the prefix-sum
offset encoders of Cloud et al. and the Single-Stage Huffman Encoder of
Agrawal et al. are the same idea).

:func:`scan_pack_symbols` runs that pass compiled, from symbols to the
coalesced payload: the ``scan_pack`` pass of :mod:`repro.native`
gathers, merges and stores each cell's bits straight into the payload
at the chunk's running byte offset (the prefix sum becomes a running
bit accumulator, and the coalescing copy of Table I disappears, as in
the prefix-sum encoders that write each chunk at its output offset).
The same pass writes the breaking side channel: each cell that passes
W bits goes, as the pass meets it, to the next slots of the cell-index
and bit-length arrays and, byte-aligned, to the side payload at its
running offset, so no backtrace re-gathers it afterwards (the NumPy
backtrace :func:`~repro.core.breaking.extract_breaking_symbols` is its
oracle).  It reads ``uint8``/``uint16``/``uint32`` symbols; any other
integer array is range-checked and narrowed first
(:func:`pass_symbols`).  Its
oracle, and the route on hosts without the module, is the paper's own
iterative pair ``shuffle_merge(zeroed(reduce_merge(...))).payload()``
(``repro.core.encoder._pack_chunks`` picks between them).  Both give a
:class:`PackedChunks` and refuse an out-of-range or codeword-less
symbol with :func:`checked_lengths`' error.

The compiled pass gathers through :func:`packed_codeword_table`, one
uint64 per symbol holding the codeword value in bits ``16..63`` and its
bit length in bits ``0..15`` (digest-cached, so a registered codebook
builds it once); a broken cell's bits come from ``book.codes`` itself,
which keeps every codeword exact up to ``MAX_CODE_BITS`` = 63.

The module never touches the modeled-kernel cost path: the SHUFFLE
word moves the encoder charges are computed analytically here and
proven equal to the iterative counters (see
:func:`analytic_moved_words` and tests/test_scan_pack.py), so
``impl="scan"`` and ``impl="iterative"`` price identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.core.breaking import BreakingStore
from repro.core.tuning import EncoderTuning
from repro.huffman.codebook import CanonicalCodebook

__all__ = [
    "PackedChunks",
    "scan_pack_symbols",
    "analytic_moved_words",
    "checked_lengths",
    "pass_symbols",
    "narrow_symbols",
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
class PackedChunks:
    """Whole chunks packed into the dense stream, before the tail.

    ``chunk_bits``, ``payload`` and ``offsets`` equal the iterative
    pair's ``shuffle_merge(...).bits`` and ``.payload()``; ``broken``
    flags each cell as :class:`~repro.core.reduce_merge.ReduceMergeResult`
    does, ``moved_words`` is the SHUFFLE count the fused kernel is
    charged, ``side`` is the compiled pass's side channel (``None`` from
    the iterative pair), and ``breaking`` is the broken cells'
    :class:`~repro.core.breaking.BreakingStore` once
    ``repro.core.encoder._pack_chunks`` has saved it.
    """

    chunk_bits: np.ndarray  # int64 dense bits per chunk
    payload: np.ndarray  # uint8 byte-aligned chunk streams, back to back
    offsets: np.ndarray  # int64 byte offset per chunk, len = chunks + 1
    broken: np.ndarray  # bool per cell
    moved_words: int  # SHUFFLE word moves
    side: tuple | None = None  # (cell_indices, bit_lengths, payload)
    breaking: BreakingStore | None = None


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


def narrow_symbols(data: np.ndarray, n_symbols: int) -> np.ndarray | None:
    """Integer ``data`` cast to the narrowest of the compiled passes'
    symbol dtypes that holds ``n_symbols - 1``, after one ``min``/``max``
    range check; ``None`` when a symbol lies outside ``[0, n_symbols)``
    (so ``2**32 + 3`` is refused rather than wrapped to symbol 3).  An
    alphabet past 2^32 symbols keeps ``data`` as it is."""
    if data.size and (int(data.min()) < 0 or int(data.max()) >= n_symbols):
        return None
    dtype = _narrowest(n_symbols)
    return data if dtype is None else data.astype(dtype)


def _narrowest(n_symbols: int) -> np.dtype | None:
    top = max(int(n_symbols) - 1, 0)
    return next((dt for dt in native.SYMBOL_DTYPES
                 if top <= np.iinfo(dt).max), None)


def pass_symbols(data: np.ndarray, book: CanonicalCodebook) -> np.ndarray:
    """``data`` as a contiguous array of a symbol dtype the compiled
    passes read.

    ``uint8``/``uint16``/``uint32`` arrays keep their dtype.  Any other
    array is narrowed by :func:`narrow_symbols` onto the dtype that
    holds ``book.n_symbols - 1``; a negative or out-of-range symbol
    raises :func:`checked_lengths`' ``IndexError`` instead.  A symbol
    without a codeword is left to the pass, which stops at it.
    """
    if data.dtype in native.SYMBOL_DTYPES:
        return np.ascontiguousarray(data)
    if data.dtype.kind in "iu":
        out = narrow_symbols(data, book.n_symbols)
        if out is not None:
            return out
    checked_lengths(data, book)  # raises an out-of-range symbol's error
    return data.astype(_narrowest(book.n_symbols))


def native_symbol_bits(
    data: np.ndarray, book: CanonicalCodebook
) -> int | None:
    """Total codeword bits of ``data`` from the compiled stats pass.

    ``None`` when :mod:`repro.native` does not load *or* when ``data``
    holds a codeword-less symbol: the caller's :func:`checked_lengths`
    then raises that symbol's exact error (an out-of-range one raises
    it here, from :func:`pass_symbols`).
    """
    kern = native.kernel()
    if kern is None:
        return None
    total, bad = kern.symbol_bits(pass_symbols(data, book),
                                  packed_codeword_table(book))
    return total if bad < 0 else None


def scan_pack_symbols(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    total_bits: int | None = None,
) -> PackedChunks:
    """Whole chunks of ``data`` to the coalesced payload and the broken
    cells' side channel (``side``: ascending uint32 cell indices, their
    bit lengths and byte-aligned bits, read from ``book.codes``) in one
    compiled pass; ``breaking`` is not yet filled.

    ``data.size`` must be a multiple of ``tuning.chunk_symbols`` (the
    encoder handles the tail separately) and :mod:`repro.native` must
    load; other symbol dtypes go through :func:`pass_symbols`.  A symbol
    that is out of range (``IndexError``) or has no codeword
    (``ValueError``) raises :func:`checked_lengths`' error.
    ``total_bits``, at least the codeword bits of ``data`` (the caller's
    histogram or stats-pass total), sizes the side channel; without it
    every symbol counts at ``book.max_length`` bits.
    """
    data = np.asarray(data)
    if data.size % tuning.chunk_symbols:
        raise ValueError("input must be whole chunks")
    kern = native.kernel()
    if kern is None:
        raise RuntimeError(f"repro.native is off: {native.native_error()}")
    bits, payload, offsets, broken, side, bad = kern.scan_pack(
        pass_symbols(data, book), packed_codeword_table(book), book.codes,
        tuning.group_symbols, tuning.cells_per_chunk, tuning.word_bits,
        book.max_length, total_bits,
    )
    if bad >= 0:
        checked_lengths(data, book)
        raise RuntimeError(f"scan_pack stopped at symbol {bad}, which "
                           "the NumPy check accepts")
    return PackedChunks(
        chunk_bits=bits, payload=payload, offsets=offsets, broken=broken,
        moved_words=analytic_moved_words(bits.size, tuning.shuffle_factor),
        side=side,
    )
