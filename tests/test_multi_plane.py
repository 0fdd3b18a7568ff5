"""The multi-symbol decode plane: its builder, and the pass that reads it.

- **Oracle.** :func:`repro.huffman.decoder.plane_oracle` against a walk
  of each window codeword by codeword through the book's own
  ``(code, length)`` pairs.  Runs without :mod:`repro.native` too
  (``make test-no-native``).
- **Builder parity.** ``multi_plane_*`` equals the oracle on random and
  skewed books of 2 to 4096 symbols, in every plane dtype that holds the
  book, for window widths below, at and above the root's.  A dtype too
  narrow for the book, or capacities below the plane's size, are refused.
- **Pass parity.** Decoding through the plane equals ``decode_lanes``:
  over chunk magnitudes, word widths 8/16/32, tails, broken cells (holes
  within ``PLANE_CAP`` slots of a cursor), lanes shorter than
  ``PLANE_CAP``, and an end bit that cuts a run (the same
  ``ValueError``).  Hostile placements leave the bytes past the output
  untouched, with and without the plane.
- **The choice.** ``plane_reason`` and the ``decode.stream`` span say
  why a decode runs without the plane; the byte-capped table cache
  counts the plane.

``make native-asan`` runs this module under AddressSanitizer and UBSan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.core.bitstream import (
    assemble_stream_symbols,
    decode_stream,
    stream_lanes,
    stream_placement,
)
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.datasets.synthetic import probs_for_avg_bits, sample_symbols
from repro.decoder.gap_array import (
    _pad_buffer,
    gap_decode_lanes,
    plane_reason,
)
from repro.huffman.cache import DecodeTableCache
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import (
    build_decode_table,
    decode_lanes,
    plane_dtype,
    plane_oracle,
)
from repro.huffman.serial import serial_encode
from repro.obs.trace import tracing

CAP = native.PLANE_CAP
P = native.PLANE_BITS

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="native module not built here"
)


def _book(n_symbols: int, seed: int, skew: float) -> CanonicalCodebook:
    """A Huffman book over ``n_symbols``: uniform-ish frequencies at
    ``skew=0``, geometric decay (long codewords in the tail) above."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(50, 1000, n_symbols).astype(np.float64)
    freqs *= np.exp(-skew * np.arange(n_symbols))
    return parallel_codebook(np.maximum(freqs, 1).astype(np.int64)).codebook


def _walk_window(by_code: dict, w: int, p: int):
    """Whole codewords of the ``p``-bit window ``w``, matched one after
    another against ``by_code`` (``(code, length) -> symbol``), at most
    ``CAP`` of them."""
    syms, used = [], 0
    while len(syms) < CAP:
        for ln in range(1, p - used + 1):
            code = (w >> (p - used - ln)) & ((1 << ln) - 1)
            if (code, ln) in by_code:
                syms.append(by_code[(code, ln)])
                used += ln
                break
        else:
            break
    return syms, used


BOOKS = [(2, 0.0), (3, 0.0), (40, 0.0), (40, 0.3), (256, 0.0), (256, 0.05),
         (1000, 0.01), (4096, 0.0), (4096, 0.004)]


@pytest.mark.parametrize("n_symbols,skew", BOOKS)
def test_oracle_matches_window_walk(n_symbols, skew):
    book = _book(n_symbols, seed=n_symbols, skew=skew)
    table = build_decode_table(book)
    if table.n_nodes:  # a window walk below a subtable is not the root's
        table = build_decode_table(book, 16)
        if table.n_nodes:
            pytest.skip("book deeper than a flat root")
    by_code = {
        (int(book.codes[s]), int(book.lengths[s])): int(s)
        for s in np.flatnonzero(book.lengths)
    }
    rng = np.random.default_rng(5)
    for p in sorted({1, 5, table.k, P}):
        run, syms = plane_oracle(table.root, table.k, p, np.uint32)
        windows = rng.integers(0, 1 << p, 64) if p > 6 else range(1 << p)
        for w in map(int, windows):
            want, used = _walk_window(by_code, w, p)
            got = syms[w * CAP: w * CAP + (int(run[w]) >> 8)].tolist()
            assert got == want, (p, w)
            assert int(run[w]) == (len(want) << 8) | used
            assert not syms[w * CAP + len(want): (w + 1) * CAP].any()


def test_oracle_refuses_a_narrow_dtype():
    table = build_decode_table(_book(300, seed=1, skew=0.0))
    with pytest.raises(ValueError, match="past"):
        plane_oracle(table.root, table.k, 8, np.uint8)


@needs_native
@pytest.mark.parametrize("n_symbols,skew", BOOKS)
def test_builder_matches_oracle(n_symbols, skew):
    book = _book(n_symbols, seed=n_symbols + 7, skew=skew)
    kern = native.kernel()
    for k in (None, 4, 9):
        table = build_decode_table(book, k)
        for p in sorted({1, 3, table.k, min(table.k + 2, 16), P}):
            for dt in native.SYMBOL_DTYPES:
                try:
                    want_run, want_syms = plane_oracle(
                        table.root, table.k, p, dt
                    )
                except ValueError:  # a root symbol past dt: both refuse
                    with pytest.raises(ValueError, match="past"):
                        kern.multi_plane(table.root, table.k, p, dt)
                    continue
                run, syms = kern.multi_plane(table.root, table.k, p, dt)
                np.testing.assert_array_equal(run, want_run)
                np.testing.assert_array_equal(syms, want_syms)
                assert syms.dtype == dt


@needs_native
def test_table_carries_the_plane_in_its_dtype():
    for n_symbols, dt in ((200, np.uint8), (1000, np.uint16)):
        book = _book(n_symbols, seed=3, skew=0.0)
        table = build_decode_table(book)
        assert table.plane_off == ""
        assert table.plane_bits == P
        assert table.plane_syms.dtype == plane_dtype(book) == dt
        run, syms = plane_oracle(table.root, table.k, P, dt)
        np.testing.assert_array_equal(table.run, run)
        np.testing.assert_array_equal(table.plane_syms, syms)


@needs_native
def test_builder_refuses_small_capacities():
    """Every capacity below the plane's size, and every window width
    outside [1, 16], returns -2 before a byte is written."""
    table = build_decode_table(_book(64, seed=2, skew=0.0))
    kern = native.kernel()
    lib, ptr = kern._lib, kern._p
    p = 10
    size = 1 << p
    for n_run, n_syms, n_ends, width in (
        (size - 1, size * CAP, size, p),
        (size, size * CAP - 1, size, p),
        (size, size * CAP, size - 1, p),
        (size, size * CAP, size, 0),
        (size, size * CAP, size, 17),
    ):
        run = np.full(size + 8, 0xABCD, np.uint16)
        syms = np.full(size * CAP + 8, 0xAB, np.uint8)
        ends = np.full(size + 8, 7, np.uint64)
        bad = lib.multi_plane_u8(
            ptr("int32_t *", table.root), table.k, width,
            ptr("uint16_t *", run), n_run, ptr("uint8_t *", syms), n_syms,
            ptr("uint64_t *", ends), n_ends,
        )
        assert bad == -2
        assert (run == 0xABCD).all() and (syms == 0xAB).all()
        assert (ends == 7).all()
    with pytest.raises(ValueError):
        kern.multi_plane(table.root, table.k, 0, np.uint8)
    with pytest.raises(ValueError):
        kern.multi_plane(table.root[:-1], table.k, p, np.uint8)


def _skewed(n: int, avg_bits: float, n_symbols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = sample_symbols(probs_for_avg_bits(n_symbols, avg_bits), n, rng)
    return data.astype(np.uint8 if n_symbols <= 256 else np.uint16)


def _oracle_stream(stream, book) -> np.ndarray:
    buffer, starts, ends, nsyms = stream_lanes(stream)
    return assemble_stream_symbols(
        stream, decode_lanes(buffer, starts, ends, nsyms, book)
    )


@needs_native
@pytest.mark.parametrize("magnitude", [6, 8, 10])
@pytest.mark.parametrize("word_bits", [8, 16, 32])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pass_with_plane_matches_lanes(magnitude, word_bits, r):
    """Containers with tails and broken cells, the plane forced on: the
    chunk lanes jump holes within ``CAP`` slots of their cursors, and
    broken-cell lanes hold ``G = 2**r`` symbols (fewer than ``CAP`` for
    r < 3).  Word width 8 breaks most cells at r = 3."""
    n = (20 << magnitude) + 37
    data = _skewed(n, 1.6, 300, seed=magnitude * 100 + word_bits + r)
    book = parallel_codebook(np.bincount(data, minlength=300)).codebook
    stream = gpu_encode(data, book, magnitude=magnitude, word_bits=word_bits,
                        reduction_factor=r).stream
    buffer, starts, ends, nsyms = stream_lanes(stream)
    place = stream_placement(stream)
    table = build_decode_table(book)
    out = np.empty(place.n_out, plane_dtype(book))
    bad, _, steps = native.kernel().chunk_decode(
        _pad_buffer(buffer, table.max_length), buffer.size * 8, starts,
        ends, nsyms, place.out_off, place.hole_base, place.holes,
        place.group, table, out, plane=True,
    )
    assert bad == -1 and steps > 0
    np.testing.assert_array_equal(out, _oracle_stream(stream, book))
    np.testing.assert_array_equal(out, data)
    if word_bits == 8 and r == 3:
        assert stream.breaking.nnz > stream.breaking.n_cells // 2


@needs_native
@pytest.mark.parametrize("seed", range(4))
def test_short_and_random_lanes(seed):
    """Lane-major decode of random lanes over one dense stream: symbol
    counts from 0 to 3 * CAP, so many lanes end inside their first run,
    and a block with one of them takes no plane step."""
    rng = np.random.default_rng(seed)
    data = _skewed(4000, 1.3, 50, seed=seed)
    book = parallel_codebook(np.bincount(data, minlength=50)).codebook
    buf, _nbits = serial_encode(data, book)
    bounds = np.concatenate(
        ([0], np.cumsum(book.lengths[data].astype(np.int64)))
    )
    # whole blocks of eight long lanes, then blocks with short ones
    sizes = np.concatenate([rng.integers(CAP, 3 * CAP, 96),
                            rng.integers(0, 3 * CAP, 200)])
    cuts = np.cumsum(sizes)
    cuts = cuts[cuts <= data.size]
    lo = np.concatenate(([0], cuts[:-1]))
    starts, ends, nsyms = bounds[lo], bounds[cuts], cuts - lo
    assert (nsyms < CAP).any() and (nsyms == 0).any()
    table = build_decode_table(book)
    res = gap_decode_lanes(buf, starts, ends, nsyms, book, table,
                           dtype=np.uint8)
    assert res.plane_reason == "" and res.plane_steps > 0
    want = decode_lanes(buf, starts, ends, nsyms, book, table)
    np.testing.assert_array_equal(res.symbols, want)


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


@needs_native
def test_end_bit_inside_a_run_raises_like_lanes():
    """One dense lane whose end bit moves across its last bits: every
    cut that leaves a codeword (and so a run) past the end raises the
    lanes decoder's ValueError, and every other cut decodes the same."""
    data = _skewed(3 * CAP + 5, 1.2, 20, seed=9)
    book = parallel_codebook(np.bincount(data, minlength=20)).codebook
    buf, nbits = serial_encode(data, book)
    table = build_decode_table(book)
    one = lambda v: np.array([v], np.int64)  # noqa: E731
    seen = set()
    for end in range(max(nbits - 30, 0), nbits + 1):
        got = _outcome(lambda: gap_decode_lanes(
            buf, one(0), one(end), one(data.size), book, table,
            dtype=np.uint8,
        ))
        want = _outcome(lambda: decode_lanes(
            buf, one(0), one(end), one(data.size), book, table,
        ))
        assert got[1] == want[1], end
        if want[1] is None:
            assert got[0].plane_reason == ""
            np.testing.assert_array_equal(got[0].symbols, want[0])
        seen.add(want[1])
    assert seen == {None, "bitstream exhausted before all symbols decoded"}


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_stores_stay_inside_output_with_plane(seed):
    """Random holes (unsorted, repeated, negative, huge) and placements,
    lanes overlapping each other: with or without the plane the pass
    names the first lane that does not fit and writes nothing past the
    output."""
    data = _skewed(3000, 1.4, 40, seed=seed)
    book = parallel_codebook(np.bincount(data, minlength=40)).codebook
    stream = gpu_encode(data, book, magnitude=8).stream
    buffer, starts, ends, nsyms = stream_lanes(stream)
    table = build_decode_table(book)
    kern = native.kernel()
    rng = np.random.default_rng(seed)
    holes = rng.integers(-5, 5000, 40)
    base = np.sort(rng.integers(0, holes.size + 1, nsyms.size + 1))
    group = int(rng.integers(1, 9))
    off = rng.integers(0, 200, nsyms.size)
    n_out = int(nsyms.sum()) + group * holes.size + 200
    fits = off + nsyms + group * np.diff(base) <= n_out
    for plane in (False, True):
        guard = np.full(n_out + 64, 0xAB, np.uint8)
        bad, _, _ = kern.chunk_decode(
            _pad_buffer(buffer, table.max_length), buffer.size * 8,
            starts, ends, nsyms, off, base, holes, group, table,
            guard[:n_out], plane=plane,
        )
        assert (guard[n_out:] == 0xAB).all()
        # the lanes' bits are intact, so only a placement stops the pass
        assert bad == (-1 if fits.all() else int(np.flatnonzero(~fits)[0]))


@needs_native
def test_plane_reasons():
    text = build_decode_table(_book(256, seed=4, skew=0.0))
    assert plane_reason(text, np.uint8, 100 * P // 2, 100, 0) == ""
    assert plane_reason(text, np.uint8, 100 * P // 2 + 1, 100, 0) == \
        "short_runs"
    assert plane_reason(text, np.int64, 10, 100, 0) == "dtype"
    assert plane_reason(text, np.uint8, 10, 100, 20) == ""
    assert plane_reason(text, np.uint8, 10, 100, 21) == "broken_cells"
    deep = build_decode_table(_book(256, seed=4, skew=0.05), k=4)
    assert deep.n_nodes and plane_reason(deep, np.uint8, 1, 1, 0) == "tiered"


def test_plane_reason_without_the_module(monkeypatch):
    monkeypatch.setattr(native, "kernel", lambda: None)
    table = build_decode_table(_book(50, seed=6, skew=0.0))
    assert table.run is None and table.plane_off == "no_native_kernel"
    assert table.nbytes() == (table.root.nbytes + table.sub.nbytes
                              + table.node_base.nbytes
                              + table.node_bits.nbytes)


@needs_native
def test_decode_stream_span_records_the_plane():
    data = _skewed(1 << 12, 1.5, 300, seed=11)
    book = parallel_codebook(np.bincount(data, minlength=300)).codebook
    stream = gpu_encode(data, book, magnitude=8).stream
    with tracing() as tracer:
        narrow = decode_stream(stream, book, dtype=plane_dtype(book))
        wide = decode_stream(stream, book)
    np.testing.assert_array_equal(narrow, data)
    np.testing.assert_array_equal(wide, data)
    dec = [s.to_dict()["attrs"] for s in tracer.spans
           if s.name == "decode.stream"]
    lanes = [s.to_dict()["attrs"] for s in tracer.spans
             if s.name == "decode.lanes"]
    assert [(a["plane"], a["plane_reason"]) for a in dec] == [
        ("multi", ""), ("off", "dtype")]
    assert lanes[0]["plane_steps"] > 0 and lanes[1]["plane_steps"] == 0


@needs_native
def test_table_cache_evicts_by_the_size_with_the_plane():
    """A cap that two root-only tables fit but two planed tables do
    not: the cache keeps one, and its byte total counts the plane."""
    books = [_book(1000, seed=s, skew=0.0) for s in (20, 21)]
    tables = [build_decode_table(b) for b in books]
    plain = [t.root.nbytes for t in tables]
    full = [t.nbytes() for t in tables]
    assert all(f >= r + t.run.nbytes + t.plane_syms.nbytes
               for f, r, t in zip(full, plain, tables))
    cache = DecodeTableCache(maxsize=8, max_bytes=sum(plain) + 64)
    assert sum(full) > cache.max_bytes
    for b in books:
        cache.get(b)
    info = cache.info()
    assert info.size == 1
    assert info.entry_bytes == (full[1],)
    assert info.bytes == full[1]
