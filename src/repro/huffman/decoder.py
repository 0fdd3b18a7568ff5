"""Canonical treeless Huffman decoders.

The paper generates ``First``/``Entry`` metadata during ``GenerateCW``
precisely to enable treeless canonical decoding (§IV-B2).  We implement:

- :func:`decode_canonical` — table-accelerated *scalar* canonical decoder
  over a dense MSB-first bitstream.  This is the reference path: every
  faster decoder must match it bit for bit;
- :func:`decode_lanes` — the NumPy lane decoder: many independent
  bitstream *lanes* (chunks, breaking cells, the tail) decoded in
  lock-step with gather/shift arithmetic, one table lookup per (lane,
  symbol) instead of a Python loop per bit.  This is the host-side
  analogue of the paper's one-thread-per-chunk coarse decoder: the
  vectorization axis is the chunk lane;
- :func:`decode_batch` — one dense bitstream as a single lane of the
  chunk-lane decoder (:mod:`repro.decoder.gap_array`), which falls back
  to :func:`decode_lanes`;
- :func:`decode_with_tree` — independent slow decoder that walks the
  serial Huffman tree bit by bit, used to cross-check the canonical
  decoder itself.

The scalar decoders exist for validation; :func:`decode_lanes` exists to
make the container's "facilitates decoding" promise real on the host.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.tree import HuffmanTree
from repro.obs import metrics as _metrics
from repro.obs import span as _span
from repro.utils.bits import unpack_to_bits

__all__ = [
    "DecodeTable",
    "MAX_TABLE_SYMBOL",
    "build_decode_table",
    "decode_canonical",
    "plane_dtype",
    "plane_oracle",
    "table_oracle",
    "decode_lanes",
    "decode_batch",
    "decode_with_tree",
]

#: Root width for books deeper than the host index (see EXPERIMENTS.md,
#: "Wall-clock fast paths": 2^12 entries cover every codeword the paper's
#: datasets produce while the table stays ~16 KB — the same budget as the
#: shared-memory reverse codebook on the GPU).
_TABLE_BITS = 12

#: The batch decoder gathers a 32-bit big-endian window per lookup, so
#: the table index plus the 7-bit intra-byte offset must fit in 32 bits.
_MAX_BATCH_TABLE_BITS = 25

#: Widest root the default rule builds.  On the host the table is
#: ordinary heap memory, so a book whose longest codeword fits 16 bits
#: gets a root of exactly ``max_length`` bits and resolves every window
#: in one gather.  Deeper books get a ``_TABLE_BITS`` root plus
#: subtables instead: on the deep-book bench books a 2^16 root costs over
#: 100 ms of build and over half a flat 2^16 table's memory, to save
#: under 1 ms of decode.
_HOST_TABLE_BITS = 16

#: Subtable geometry: codewords longer than the root descend through
#: per-prefix subtables of at most 2^_NODE_BITS entries each, so a W=32
#: chain costs three extra gathers and total memory stays
#: O(alphabet + 2^k) instead of 2^max_length.
_NODE_BITS = 8

#: When the bits left below a node are only slightly past
#: ``_NODE_BITS``, one wider level (up to this many bits) is cheaper
#: than a narrow level whose children are thousands of near-empty
#: 1–3-bit tables, each paying node_base/node_bits overhead.  Capped so
#: the node index plus the 7-bit intra-byte offset still fits the 32-bit
#: gather window.
_NODE_SPILL = 12

#: Packed entry: ``(symbol_or_node << 8) | length`` in an int32.  A
#: nonzero low byte is a resolved symbol with its *absolute* codeword
#: length; a zero low byte with a non-negative high part points at a
#: subtable node; ``-256`` (node -1) marks an index no codeword reaches —
#: hitting one means the bitstream is corrupt.
_INVALID = -256

#: Largest symbol a packed entry holds (the high part of a non-negative
#: int32); the builder rejects larger alphabets.
MAX_TABLE_SYMBOL = (1 << 23) - 1


class DecodeTable:
    """Packed decode table: a 2^k root plus per-prefix subtables.

    ``root`` is indexed by the next ``k`` stream bits.  Codewords of at
    most ``k`` bits resolve there in one gather; longer ones point into
    ``sub``, one flat int32 array holding every subtable back to back.
    Node ``n`` occupies ``sub[node_base[n] : node_base[n] + 2**node_bits[n]]``
    and is indexed by the next ``node_bits[n]`` stream bits.  Resolved
    entries carry the absolute codeword length, so a cursor advances by
    ``entry & 0xFF`` whichever level resolved it.  A book that fits the
    root is the case with zero subtables.

    ``complete`` is True when every reachable index maps to a codeword
    (no ``-256`` entries) — the precondition for the native chunk-decode
    pass, whose only stream error is then running out of bits.

    A flat, complete table also carries a multi-symbol *plane* over its
    root when the compiled module loads: ``run`` (uint16, indexed by the
    top ``plane_bits = PLANE_BITS`` window bits, whatever ``k`` is)
    holds ``(count << 8) | bits`` of the whole codewords those bits
    hold, at most ``PLANE_CAP``, and ``plane_syms`` their symbols,
    ``PLANE_CAP`` per entry in :func:`plane_dtype`.  The chunk-decode
    pass then emits a run of symbols per lookup.  ``plane_off`` says
    why a table has none: ``"tiered"``, ``"incomplete_table"`` or
    ``"no_native_kernel"``.
    """

    def __init__(
        self,
        k: int,
        root: np.ndarray,
        sub: np.ndarray,
        node_base: np.ndarray,
        node_bits: np.ndarray,
        complete: bool,
        max_length: int,
    ):
        self.k = k
        self.root = root
        self.sub = sub
        self.node_base = node_base
        self.node_bits = node_bits
        self.complete = complete
        self.max_length = max_length
        self.plane_bits = 0
        self.run: np.ndarray | None = None
        self.plane_syms: np.ndarray | None = None
        self.plane_off = ""

    @property
    def n_nodes(self) -> int:
        return int(self.node_bits.size)

    @property
    def tier(self) -> str:
        """Telemetry label: ``"tiered"`` iff any codeword needs a subtable."""
        return "tiered" if self.n_nodes else "flat"

    def nbytes(self) -> int:
        plane = 0 if self.run is None else (
            self.run.nbytes + self.plane_syms.nbytes
        )
        return int(
            self.root.nbytes + self.sub.nbytes
            + self.node_base.nbytes + self.node_bits.nbytes + plane
        )


def _root_bits(book: CanonicalCodebook, k: int | None = None) -> int:
    """Root width: an explicit ``k`` clamped to the longest codeword, or
    the default rule — ``max_length`` up to 16 bits, else 12."""
    maxlen = max(int(book.max_length), 1)
    if k is not None:
        return min(int(k), maxlen)
    return maxlen if maxlen <= _HOST_TABLE_BITS else _TABLE_BITS


def _packed_span_fill(
    tbl: np.ndarray,
    base: np.ndarray | int,
    width: np.ndarray | int,
    tails: np.ndarray,
    rem: np.ndarray,
    syms: np.ndarray,
    lens: np.ndarray,
) -> None:
    """Scatter packed ``(sym << 8) | len`` entries over their spans.

    A codeword whose last ``rem`` bits (within its table) are ``tails``
    owns the ``2**(width - rem)`` consecutive indices starting at
    ``base + (tails << (width - rem))`` of ``tbl``, where its table
    starts at ``base`` and is indexed by ``width`` bits — shared by
    every subtable; ``base`` and ``width`` may be per codeword.
    """
    starts = base + (tails << (width - rem))
    spans = np.int64(1) << (width - rem)
    idx = np.repeat(starts, spans) + (
        np.arange(int(spans.sum())) - np.repeat(np.cumsum(spans) - spans, spans)
    )
    tbl[idx] = np.repeat((syms << 8) | lens, spans).astype(np.int32)


def _root_fill(
    k: int, codes: np.ndarray, lens: np.ndarray, syms: np.ndarray
) -> np.ndarray:
    """The root with the codewords of at most ``k`` bits span-filled and
    every other entry ``_INVALID``, in one ``np.repeat``: a codeword owns
    the ``2**(k - len)`` entries from ``code << (k - len)``, so in start
    order the spans of a prefix code and the gaps between them tile the
    root."""
    starts = codes << (k - lens)
    order = np.argsort(starts, kind="stable")
    starts, lens = starts[order], lens[order]
    ends = starts + (np.int64(1) << (k - lens))
    vals = np.full(2 * starts.size + 1, _INVALID, dtype=np.int32)
    vals[1::2] = (syms[order] << 8) | lens
    reps = np.empty(vals.size, dtype=np.int64)
    reps[0:-1:2] = starts - np.concatenate(([0], ends[:-1]))
    reps[1::2] = ends - starts
    reps[-1] = (1 << k) - (ends[-1] if ends.size else 0)
    return np.repeat(vals, reps)


def _groups(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, group)`` of runs of equal key tuples in sorted arrays:
    each run's first index and each element's run number."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _check_alphabet(book: CanonicalCodebook) -> None:
    if book.n_symbols - 1 > MAX_TABLE_SYMBOL:
        raise ValueError(
            f"alphabet too large for packed decode entries "
            f"(max symbol {MAX_TABLE_SYMBOL})"
        )


def build_decode_table(
    book: CanonicalCodebook, k: int | None = None
) -> DecodeTable:
    """Build the packed table: a 2^k root plus per-prefix subtables.

    ``k=None`` picks the root width by the default rule (see
    ``_HOST_TABLE_BITS``); an explicit ``k`` is clamped to the longest
    codeword.  Codewords of <= k bits span-fill the root; longer
    codewords are grouped by their first k bits, one subtable node per
    distinct prefix, and each node recursively covers the next
    ``_NODE_BITS`` bits — or every remaining bit at once when the
    remainder fits a single (slightly wider) level.  Every codeword,
    including W=32 chains and 2^16+-symbol books, resolves through
    gathers only.  Nodes are numbered breadth first, children in prefix
    order.

    The compiled ``decode_table`` passes of :mod:`repro.native` build it
    when the module loads: one sweep over ``book.symbols_by_code`` (a
    canonical book lists its codewords in ascending left-aligned order,
    so every node owns one run of them) plans the nodes, a second fills
    the tables.  :func:`table_oracle` builds it otherwise — no module,
    or a plan that refuses the book: its ``symbols_by_code`` is not that
    order of a prefix code (or the root is wider than 30 bits) — with
    the same arrays.  The ``decode.table`` span records ``impl``
    (``"native"`` or ``"numpy"``) and ``fallback``.  A flat, complete
    table then gets its multi-symbol plane.
    """
    _check_alphabet(book)
    k = _root_bits(book, k)
    maxlen = int(book.max_length)
    kern = native.kernel()
    with _span("decode.table", k=k) as sp:
        arrays = None
        if kern is None:
            reason = "no_native_kernel"
        else:
            arrays = kern.decode_table(
                book.lengths, book.codes, book.symbols_by_code, k, maxlen,
                _NODE_BITS, _NODE_SPILL,
            )
            reason = "book_order"
        if arrays is None:
            table = table_oracle(book, k)
            sp.set_attr(impl="numpy", fallback=reason)
        else:
            table = DecodeTable(k, *arrays, maxlen)
            sp.set_attr(impl="native")
        sp.set_attr(tier=table.tier)
        _attach_plane(table, book)
    return table


def table_oracle(
    book: CanonicalCodebook, k: int | None = None
) -> DecodeTable:
    """NumPy reference of the compiled table build (no plane attached).

    The build runs one depth at a time: the deep codewords are sorted by
    their left-aligned value once, so every node at every depth owns one
    contiguous run of them, and a depth's widths, bases, span fills and
    child pointers are each one vectorized pass over its runs.
    """
    _check_alphabet(book)
    maxlen = int(book.max_length)
    k = _root_bits(book, k)
    used = np.flatnonzero(book.lengths > 0)
    lens = book.lengths[used].astype(np.int64)
    codes = book.codes[used].astype(np.int64)
    syms = used.astype(np.int64)

    short = lens <= k
    root = _root_fill(k, codes[short], lens[short], syms[short])

    tables: list[np.ndarray] = []
    widths: list[np.ndarray] = []
    deep = ~short
    if deep.any():
        dl, dc, ds = lens[deep], codes[deep], syms[deep]
        order = np.argsort(dc << (maxlen - dl), kind="stable")
        dl, dc, ds = dl[order], dc[order], ds[order]
        cons = np.full(dl.size, k, dtype=np.int64)  # bits above the node
        first, node = _groups(dc >> (dl - k))
        root[dc[first] >> (dl[first] - k)] = (
            np.arange(first.size, dtype=np.int32) << 8
        )
        n_nodes = first.size  # nodes numbered so far
        while dl.size:
            # this depth's nodes: ids n_nodes - first.size .. n_nodes - 1
            rem_bits = np.maximum.reduceat(dl, first) - cons[first]
            e = np.where(rem_bits <= _NODE_SPILL, rem_bits, _NODE_BITS)
            span = np.int64(1) << e
            base = np.cumsum(span) - span  # within this depth's block
            tbl = np.full(int(span.sum()), _INVALID, dtype=np.int32)
            ce, cb = e[node], base[node]
            fit = dl <= cons + ce
            if fit.any():
                rem = dl[fit] - cons[fit]
                _packed_span_fill(
                    tbl, cb[fit], ce[fit],
                    dc[fit] & ((np.int64(1) << rem) - 1), rem,
                    ds[fit], dl[fit],
                )
            tables.append(tbl)
            widths.append(e)
            deeper = ~fit
            dl, dc, ds, node = dl[deeper], dc[deeper], ds[deeper], node[deeper]
            ce, cb = ce[deeper], cb[deeper]
            cons = cons[deeper] + ce
            sub_pref = (dc >> (dl - cons)) & ((np.int64(1) << ce) - 1)
            first, node = _groups(node, sub_pref)
            tbl[cb[first] + sub_pref[first]] = (
                (n_nodes + np.arange(first.size, dtype=np.int32)) << 8
            )
            n_nodes += first.size

    if tables:
        node_bits = np.concatenate(widths).astype(np.int32)
        sizes = np.int64(1) << node_bits.astype(np.int64)
        node_base = np.zeros(node_bits.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=node_base[1:])
        sub = np.concatenate(tables).astype(np.int32, copy=False)
    else:
        node_bits = np.empty(0, dtype=np.int32)
        node_base = np.empty(0, dtype=np.int64)
        sub = np.empty(0, dtype=np.int32)
    complete = bool(
        (root != _INVALID).all() and (sub != _INVALID).all()
    )
    return DecodeTable(k, root, sub, node_base, node_bits, complete, maxlen)


def plane_dtype(book: CanonicalCodebook) -> np.dtype:
    """The narrowest unsigned dtype that holds every coded symbol of
    ``book``: the dtype its decode table's plane stores symbols in."""
    coded = np.flatnonzero(book.lengths)
    top = int(coded[-1]) if coded.size else 0
    for dt in native.SYMBOL_DTYPES:
        if top <= np.iinfo(dt).max:
            return dt
    raise ValueError(f"symbol {top} exceeds every plane dtype")


def _attach_plane(table: DecodeTable, book: CanonicalCodebook) -> None:
    """Build ``table``'s multi-symbol plane with the compiled builder,
    or record in ``plane_off`` why it has none."""
    kern = native.kernel()
    if table.n_nodes:
        table.plane_off = "tiered"
    elif not table.complete:
        table.plane_off = "incomplete_table"
    elif kern is None:
        table.plane_off = "no_native_kernel"
    if table.plane_off:
        return
    table.run, table.plane_syms = kern.multi_plane(
        table.root, table.k, native.PLANE_BITS, plane_dtype(book)
    )
    table.plane_bits = native.PLANE_BITS


def plane_oracle(
    root: np.ndarray, k: int, p: int, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """NumPy reference of the compiled plane builder: ``(run, syms)`` of
    a ``k``-bit packed root over ``p``-bit windows (``p`` above, at or
    below ``k``).

    All ``2**p`` windows decode in lock-step, one root lookup per
    codeword with the bits after the window zero; a window stops at its
    first codeword that does not fit its remaining bits (or an entry
    with length byte 0) or after ``PLANE_CAP`` codewords.  A symbol
    ``dtype`` cannot hold raises ``ValueError``.
    """
    cap = native.PLANE_CAP
    w = np.arange(1 << p, dtype=np.int64)
    pm = (1 << p) - 1
    used = np.zeros(w.size, np.int64)
    count = np.zeros(w.size, np.int64)
    live = np.ones(w.size, bool)
    syms = np.zeros((w.size, cap), dtype)
    for c in range(cap):
        x = (w << used) & pm
        ent = root[x << max(k - p, 0) >> max(p - k, 0)].astype(np.int64)
        ln = ent & 0xFF
        live &= (ln > 0) & (used + ln <= p)
        if np.any(ent[live] >> 8 > np.iinfo(dtype).max):
            raise ValueError(f"a plane entry holds a symbol past {dtype}")
        syms[live, c] = ent[live] >> 8
        used += np.where(live, ln, 0)
        count += live
    run = ((count << 8) | used).astype(np.uint16)
    return run, syms.reshape(-1)


def decode_canonical(
    buffer: np.ndarray,
    total_bits: int,
    book: CanonicalCodebook,
    n_symbols: int,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """Decode ``n_symbols`` symbols from a dense MSB-first bitstream.

    Reads only the table's root; a codeword the root does not resolve
    (length byte 0: a subtable pointer or an unreachable index) takes
    the First/Entry scan, so the reference never walks the subtables
    the fast paths are checked through.
    """
    if table is None:
        table = build_decode_table(book)
    bits = unpack_to_bits(np.asarray(buffer, dtype=np.uint8), total_bits)
    k = table.k
    # Sliding K-bit window values at every bit offset, so the hot loop is a
    # single indexed lookup per symbol.
    padded = np.concatenate([bits, np.zeros(k, dtype=np.uint8)]).astype(np.int64)
    weights = (np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64))
    if total_bits > 0:
        windows = np.lib.stride_tricks.sliding_window_view(padded, k)[:total_bits]
        window_vals = windows @ weights
    else:
        window_vals = np.empty(0, dtype=np.int64)

    out = np.empty(n_symbols, dtype=np.int64)
    tbl_sym, tbl_len = table.root >> 8, table.root & 0xFF
    first, entry = book.first, book.entry
    maxlen = book.max_length
    symbols_by_code = book.symbols_by_code
    pos = 0
    n_fallback = 0
    for i in range(n_symbols):
        if pos >= total_bits:
            raise ValueError("bitstream exhausted before all symbols decoded")
        w = window_vals[pos]
        l = tbl_len[w]
        if l:
            out[i] = tbl_sym[w]
            pos += l
            continue
        # slow path: codeword longer than the table index
        n_fallback += 1
        v = int(w)  # top k bits already read
        l = k
        while True:
            l += 1
            if l > maxlen:
                raise ValueError("corrupt bitstream: no codeword matches")
            if pos + l > total_bits:
                raise ValueError("bitstream exhausted mid-codeword")
            v = (v << 1) | int(bits[pos + l - 1])
            if l < first.size:
                offset = v - int(first[l])
                count_l = int(entry[l + 1] - entry[l]) if l + 1 < entry.size else (
                    len(symbols_by_code) - int(entry[l])
                )
                if 0 <= offset < count_l:
                    out[i] = symbols_by_code[int(entry[l]) + offset]
                    pos += l
                    break
    reg = _metrics()
    reg.counter("repro_decode_symbols_total", path="scalar").inc(n_symbols)
    reg.counter("repro_decode_lut_fallback_total", path="scalar").inc(
        n_fallback
    )
    return out


def _window_words(buffer: np.ndarray, dtype=np.int64) -> np.ndarray:
    """32-bit big-endian sliding byte windows: ``W[i] = bytes[i:i+4]``.

    Padded with zero bytes so the last bit positions of the buffer are
    addressable.  ``dtype=np.int32`` halves the gather bandwidth; the
    sign bit may then be set (top byte >= 0x80), but every extraction
    masks the low ``k <= 25`` bits after a shift of at least ``32-k-7``,
    so the arithmetic-shift sign fill can never reach the masked bits.
    """
    pad = np.concatenate([buffer, np.zeros(8, dtype=np.uint8)])
    # stride-1 big-endian u32 view: every byte offset becomes one window
    # word with a single cast instead of four shift/or passes
    raw = np.ndarray((pad.size - 3,), dtype=">u4", buffer=pad.data, strides=(1,))
    if dtype == np.int32:
        return raw.astype(np.uint32).view(np.int32)
    return raw.astype(np.int64)


def _check_lanes(
    buffer: np.ndarray,
    start_bits: np.ndarray,
    end_bits: np.ndarray,
    n_symbols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous ``(buffer, starts, ends, nsyms)`` after the bound
    checks every lane decoder needs before it gathers: each lane must
    lie inside the shared buffer."""
    buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
    starts = np.ascontiguousarray(start_bits, dtype=np.int64)
    ends = np.ascontiguousarray(end_bits, dtype=np.int64)
    nsyms = np.ascontiguousarray(n_symbols, dtype=np.int64)
    if not (starts.shape == ends.shape == nsyms.shape) or starts.ndim != 1:
        raise ValueError("lane arrays must be equal-shape 1-D")
    if np.any(nsyms < 0) or np.any(starts < 0) or np.any(ends < starts):
        raise ValueError("invalid lane bounds")
    if ends.size and int(ends.max()) > buffer.size * 8:
        raise ValueError("lane extends past the shared buffer")
    return buffer, starts, ends, nsyms


def decode_lanes(
    buffer: np.ndarray,
    start_bits: np.ndarray,
    end_bits: np.ndarray,
    n_symbols: np.ndarray,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """Decode many independent bitstream lanes in vectorized lock-step.

    ``buffer`` is one shared MSB-first byte buffer; lane ``i`` occupies
    bit positions ``[start_bits[i], end_bits[i])`` and holds exactly
    ``n_symbols[i]`` symbols.  Every iteration of the (short) Python loop
    decodes **one symbol from every still-active lane** with pure NumPy
    gathers: a 32-bit window fetch, a shift, and one packed root lookup.  The
    loop therefore runs ``max(n_symbols)`` times instead of
    ``sum(n_symbols)`` — on a chunked container that is a factor of
    ``n_chunks`` fewer Python-level iterations than the scalar decoder.

    Codewords longer than ``table.k`` bits descend through the table's
    subtables, one more gather per level for the lanes that need it.

    Returns the decoded symbols as one flat ``int64`` array, lane-major
    (lane 0's symbols, then lane 1's, ...).  Bit-identical to running
    :func:`decode_canonical` on each lane separately.
    """
    if table is None:
        table = build_decode_table(book)
    k = table.k
    if k > _MAX_BATCH_TABLE_BITS:
        raise ValueError(f"table index must be <= {_MAX_BATCH_TABLE_BITS} bits")
    buffer, starts, ends, nsyms = _check_lanes(
        buffer, start_bits, end_bits, n_symbols
    )

    total_out = int(nsyms.sum())
    if total_out == 0:
        return np.empty(0, dtype=np.int64)

    _metrics().counter("repro_decode_table_tier_total", tier=table.tier).inc()

    # int32 staging: the hot-loop scatter then casts nothing, and one
    # bulk astype at the end restores the external int64 contract
    out = np.empty(total_out, dtype=np.int32)
    out_offsets = np.zeros(nsyms.size, dtype=np.int64)
    np.cumsum(nsyms[:-1], out=out_offsets[1:])

    max_syms = int(nsyms.max())
    n_lanes = nsyms.size

    # 32-bit positions/windows halve the gather bandwidth whenever every
    # bit position (including a bounded overrun on corrupt input, which
    # the clipped gather tolerates until the final check) fits in int32.
    small = buffer.size * 8 + max_syms * 64 < (1 << 31)
    dt = np.int32 if small else np.int64
    W = _window_words(buffer, dt)
    kmask = dt((1 << k) - 1)
    shift_base = dt(32 - k)
    root_t, sub_t = table.root, table.sub
    nb_t, nbase_t = table.node_bits, table.node_base
    # a root gather may return a node pointer or an unreachable index
    # (length byte 0), so the resolve loop runs only when the table has
    # subtables or unreachable indices
    check = table.n_nodes > 0 or not table.complete

    # Lanes sorted by symbol count (descending): the active set is always
    # a prefix, so no per-iteration masking is needed — the prefix just
    # shrinks at precomputed thresholds.
    order = np.argsort(-nsyms, kind="stable")
    pos = starts[order].astype(dt)
    lane_end = ends[order]
    asc = np.sort(nsyms)
    active = (
        n_lanes - np.searchsorted(asc, np.arange(max_syms), side="right")
    ).tolist()

    # per-lane output cursor, advanced by one every decoded symbol
    dst = out_offsets[order].copy()

    # preallocated scratch (views of the first m entries are used)
    idx = np.empty(n_lanes, dtype=dt)
    win = np.empty(n_lanes, dtype=dt)
    ent = np.empty(n_lanes, dtype=np.int32)
    lng = np.empty(n_lanes, dtype=np.int32)

    cur_m = -1
    n_subgather = 0
    for t in range(max_syms):
        m = active[t]
        if m != cur_m:
            p, i, v = pos[:m], idx[:m], win[:m]
            e, l, d = ent[:m], lng[:m], dst[:m]
            cur_m = m
        np.right_shift(p, 3, out=i)
        W.take(i, mode="clip", out=v)
        np.bitwise_and(p, 7, out=i)
        np.subtract(shift_base, i, out=i)
        np.right_shift(v, i, out=v)
        np.bitwise_and(v, kmask, out=v)
        root_t.take(v, out=e)
        np.bitwise_and(e, 255, out=l)
        np.right_shift(e, 8, out=e)
        if check and not l.all():
            # resolve the long-code lanes: gather the next node_bits
            # stream bits per lane and descend until every packed entry
            # carries a nonzero (absolute) length
            un = np.flatnonzero(l == 0)
            q = p[un].astype(np.int64) + k
            while un.size:
                nodes = e[un].astype(np.int64)
                if np.any(nodes < 0):
                    raise ValueError("corrupt bitstream: no codeword matches")
                nb = nb_t.take(nodes).astype(np.int64)
                w = W.take(q >> 3, mode="clip").astype(np.int64)
                sh = 32 - nb - (q & 7)
                sent = sub_t.take(
                    nbase_t.take(nodes)
                    + ((w >> sh) & ((np.int64(1) << nb) - 1))
                )
                e[un] = sent >> 8
                l[un] = sent & 255
                n_subgather += int(un.size)
                q += nb
                still = (sent & 255) == 0
                un = un[still]
                q = q[still]
        out[d] = e
        d += 1
        p += l

    if np.any(pos > lane_end):
        raise ValueError("bitstream exhausted before all symbols decoded")
    reg = _metrics()
    reg.counter("repro_decode_symbols_total", path="batch").inc(total_out)
    reg.counter("repro_decode_lanes_total", path="batch").inc(n_lanes)
    if n_subgather:
        reg.counter(
            "repro_decode_subtable_gather_total", path="batch"
        ).inc(int(n_subgather))
    return out.astype(np.int64)


def decode_batch(
    buffer: np.ndarray,
    total_bits: int,
    book: CanonicalCodebook,
    n_symbols: int,
    table: DecodeTable | None = None,
) -> np.ndarray:
    """Table-driven batch decode of a single dense bitstream.

    Drop-in counterpart of :func:`decode_canonical`: the stream is one
    lane through :func:`repro.decoder.gap_array.gap_decode_lanes`, which
    decodes it in the compiled pass, or through :func:`decode_lanes`
    where the pass cannot run.  Returns int64 symbols.
    """
    # local import: gap_array builds on this module
    from repro.decoder import gap_array

    return gap_array.gap_decode_lanes(
        np.asarray(buffer, dtype=np.uint8),
        np.array([0], dtype=np.int64),
        np.array([total_bits], dtype=np.int64),
        np.array([n_symbols], dtype=np.int64),
        book, table,
    ).symbols


def decode_with_tree(
    buffer: np.ndarray, total_bits: int, tree: HuffmanTree,
    book: CanonicalCodebook, n_symbols: int,
) -> np.ndarray:
    """Bit-by-bit decode using an explicit binary code tree.

    Independent of the canonical First/Entry machinery: rebuilds a trie
    from the codebook's (code, length) pairs and walks it.  Quadratic
    caution: for validation on small inputs only.
    """
    # Build a trie as dict-of-dicts keyed by bit.
    root: dict = {}
    for s in range(book.n_symbols):
        l = int(book.lengths[s])
        if l == 0:
            continue
        node = root
        code = int(book.codes[s])
        for b in range(l - 1, -1, -1):
            bit = (code >> b) & 1
            if b == 0:
                if bit in node:
                    raise ValueError("codebook is not prefix-free")
                node[bit] = ("leaf", s)
            else:
                nxt = node.setdefault(bit, ("node", {}))
                if nxt[0] == "leaf":
                    raise ValueError("codebook is not prefix-free")
                node = nxt[1]
    bits = unpack_to_bits(np.asarray(buffer, dtype=np.uint8), total_bits)
    out = np.empty(n_symbols, dtype=np.int64)
    node = root
    j = 0
    for b in bits:
        kind_payload = node.get(int(b))
        if kind_payload is None:
            raise ValueError("corrupt bitstream (dead trie branch)")
        kind, payload = kind_payload
        if kind == "leaf":
            out[j] = payload
            j += 1
            node = root
            if j == n_symbols:
                break
        else:
            node = payload
    if j != n_symbols:
        raise ValueError("bitstream exhausted before all symbols decoded")
    return out
