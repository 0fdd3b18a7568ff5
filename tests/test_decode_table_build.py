"""The level-order decode-table builder against the per-node loop.

``loop_build`` below is the builder the level-order one replaced: a
breadth-first worklist that fills one subtable node per Python
iteration.  It stays here as the oracle.  ``build_decode_table`` must
give the same ``k``, ``root``, ``sub``, ``node_base`` and ``node_bits``
(dtypes included) and the same ``complete`` flag on every book: random
Huffman books, W=32 chains, ``deep_codebook()`` and explicit roots of
4, 8 and 12 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.corpora import deep_codebook, wbit_codebook
from repro.core.codebook_parallel import parallel_codebook
from repro.huffman.codebook import CanonicalCodebook, canonical_from_lengths
from repro.huffman.decoder import (
    _INVALID,
    _NODE_BITS,
    _NODE_SPILL,
    _packed_span_fill,
    _root_bits,
    build_decode_table,
)

ROOTS = (None, 4, 8, 12)


def loop_build(book: CanonicalCodebook, k: int | None = None) -> dict:
    """One subtable node per loop iteration, children appended to a
    breadth-first worklist as they are found."""
    k = _root_bits(book, k)
    root = np.full(1 << k, _INVALID, dtype=np.int32)
    used = np.flatnonzero(book.lengths > 0)
    lens = book.lengths[used].astype(np.int64)
    codes = book.codes[used].astype(np.int64)
    syms = used.astype(np.int64)
    short = lens <= k
    if short.any():
        _packed_span_fill(root, 0, k, codes[short], lens[short],
                          syms[short], lens[short])
    specs = []
    deep = ~short
    if deep.any():
        dl, dc, ds = lens[deep], codes[deep], syms[deep]
        uniq, inv = np.unique(dc >> (dl - k), return_inverse=True)
        for gi, pref in enumerate(uniq.tolist()):
            sel = inv == gi
            root[pref] = np.int32(len(specs) << 8)
            specs.append((k, dc[sel], dl[sel], ds[sel]))
    tables, widths = [], []
    qi = 0
    while qi < len(specs):
        c, gc, gl, gs = specs[qi]
        qi += 1
        rem_bits = int(gl.max()) - c
        e = rem_bits if rem_bits <= _NODE_SPILL else _NODE_BITS
        tbl = np.full(1 << e, _INVALID, dtype=np.int32)
        fit = gl <= c + e
        if fit.any():
            rem = gl[fit] - c
            _packed_span_fill(tbl, 0, e, gc[fit] & ((np.int64(1) << rem) - 1),
                              rem, gs[fit], gl[fit])
        deeper = ~fit
        if deeper.any():
            dl, dc, ds = gl[deeper], gc[deeper], gs[deeper]
            sub_pref = (dc >> (dl - (c + e))) & ((np.int64(1) << e) - 1)
            uniq, inv = np.unique(sub_pref, return_inverse=True)
            for gi, pref in enumerate(uniq.tolist()):
                sel = inv == gi
                tbl[pref] = np.int32(len(specs) << 8)
                specs.append((c + e, dc[sel], dl[sel], ds[sel]))
        tables.append(tbl)
        widths.append(e)
    node_bits = np.asarray(widths, dtype=np.int32)
    sizes = np.int64(1) << node_bits.astype(np.int64)
    node_base = np.zeros(node_bits.size, dtype=np.int64)
    if tables:
        np.cumsum(sizes[:-1], out=node_base[1:])
    sub = (np.concatenate(tables).astype(np.int32) if tables
           else np.empty(0, dtype=np.int32))
    return {"k": k, "root": root, "sub": sub, "node_base": node_base,
            "node_bits": node_bits,
            "complete": bool((root != _INVALID).all()
                             and (sub != _INVALID).all())}


def assert_same_table(book: CanonicalCodebook, k: int | None) -> None:
    got = build_decode_table(book, k)
    want = loop_build(book, k)
    assert got.k == want["k"]
    assert got.complete == want["complete"]
    for name in ("root", "sub", "node_base", "node_bits"):
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def chain_book(depth: int) -> CanonicalCodebook:
    """Lengths 1, 2, ..., depth - 1, depth, depth: one codeword per
    level, the deepest chain a prefix code of that depth has."""
    return canonical_from_lengths(
        np.array(list(range(1, depth)) + [depth, depth], dtype=np.int32)
    )


@pytest.mark.parametrize("k", ROOTS)
@pytest.mark.parametrize("book", [
    wbit_codebook(32), wbit_codebook(16), chain_book(38), deep_codebook(),
    deep_codebook(depth=25, n_deep=1 << 18),
], ids=["w32", "w16", "chain38", "deep19", "deep25"])
def test_crafted_books(book, k):
    assert_same_table(book, k)


@given(
    freqs=st.lists(st.integers(0, 10**6), min_size=1, max_size=600),
    k=st.sampled_from(ROOTS),
)
@settings(max_examples=150, deadline=None)
def test_random_huffman_books(freqs, k):
    book = parallel_codebook(np.asarray(freqs, dtype=np.int64)).codebook
    assert_same_table(book, k)


@given(
    counts=st.lists(st.integers(1, 2**20), min_size=2, max_size=40),
    k=st.sampled_from(ROOTS),
)
@settings(max_examples=100, deadline=None)
def test_geometric_books(counts, k):
    """Exponentially skewed counts grow books 20-40 bits deep."""
    f = np.cumsum(np.asarray(counts, dtype=np.int64)) ** 2
    f = np.concatenate([f, np.cumprod(np.full(25, 2, dtype=np.int64))])
    assert_same_table(parallel_codebook(f).codebook, k)


def test_empty_book():
    book = canonical_from_lengths(np.zeros(5, dtype=np.int32))
    for k in ROOTS:
        assert_same_table(book, k)
