"""The compiled decode-setup passes against their NumPy oracles.

Decode setup is three builds before the chunk-decode pass runs, each a
:mod:`repro.native` pass with its NumPy body kept as the oracle and as
the route without a compiler:

- ``canonical_codes``: codes, ``first``, ``entry`` and
  ``symbols_by_code`` from a length vector (oracle
  ``canonical_from_lengths``), with the oracle's exact ``ValueError``
  for a length past 63 bits or a Kraft violation;
- ``decode_table_plan`` + ``decode_table_fill``: the packed decode
  table (oracle ``table_oracle``) array for array, flat and tiered;
- ``lane_layout``: every lane's start, end, symbol count, output offset
  and holes (oracle ``layout_oracle``), with the oracle's section and
  ordering errors.

Each raw pass must also refuse too-small buffers before it writes.  The
module runs once per ``kernel_engine`` leg; on the ``numpy`` leg only
the route checks run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.conform.corpora import deep_codebook, wbit_codebook
from repro.core.bitstream import EncodedStream, lane_layout, layout_oracle
from repro.core.breaking import BreakingStore
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.core.tuning import EncoderTuning
from repro.huffman.codebook import (
    CanonicalCodebook,
    canonical_codes,
    canonical_from_lengths,
)
from repro.huffman.decoder import (
    _NODE_BITS,
    _NODE_SPILL,
    build_decode_table,
    table_oracle,
)
from repro.obs.trace import Tracer, tracing

pytestmark = pytest.mark.usefixtures("kernel_engine")

_SETTINGS = settings(max_examples=120, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])


@pytest.fixture
def kern(kernel_engine):
    if kernel_engine != "native" or native.kernel() is None:
        pytest.skip("compiled module not in play on this leg")
    return native.kernel()


def raised(fn, *args):
    """``(type, message)`` of the exception ``fn`` raises."""
    with pytest.raises(Exception) as ei:
        fn(*args)
    return type(ei.value), str(ei.value)


def span_attrs(name, fn, *args):
    with tracing(Tracer("setup")) as tracer:
        fn(*args)
    return next(s.attrs for s in tracer.spans if s.name == name)


# ----------------------------------------------------------- canonical --
def assert_same_book(got: CanonicalCodebook, want: CanonicalCodebook):
    for name in ("codes", "lengths", "first", "entry", "symbols_by_code"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def chain(depth: int) -> list[int]:
    """Lengths 1, 2, ..., depth - 1, depth, depth: the deepest prefix
    code of that depth."""
    return list(range(1, depth)) + [depth, depth]


def huffman_lengths(rng, n: int) -> np.ndarray:
    f = rng.integers(0, 1000, n)
    f[rng.integers(0, n)] += 1
    return parallel_codebook(f).codebook.lengths


class TestCanonicalCodes:
    @pytest.mark.parametrize("lengths", [
        [], [0, 0, 0, 0, 0], [0, 1, 0], [1, 1], [1], [2, 1, 3, 3],
        [1, 2], [3, 3, 3], chain(63), chain(40)[::-1], [0, -2, 1, 1],
    ], ids=["empty", "none-used", "one-used", "two-used", "single",
            "classic", "incomplete", "sparse", "depth63", "reversed",
            "negative"])
    def test_books_equal_oracle(self, kern, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        assert_same_book(canonical_codes(lengths),
                         canonical_from_lengths(lengths))

    def test_large_alphabet(self, kern):
        lengths = huffman_lengths(np.random.default_rng(1), 70000)
        assert lengths.size == 70000 and lengths.max() > 16
        assert_same_book(canonical_codes(lengths),
                         canonical_from_lengths(lengths))

    @pytest.mark.parametrize("lengths", [
        [1, 1, 1], [1, 1, 63], [1, 1, 1, 63], [2] * 5, [64, 1], [300],
        [0, 70], list(range(1, 64)) + [63, 63],
    ])
    def test_errors_equal_oracle(self, kern, lengths):
        lengths = np.array(lengths)
        want = raised(canonical_from_lengths, lengths)
        assert want[0] is ValueError
        assert raised(canonical_codes, lengths) == want

    @given(st.data())
    @_SETTINGS
    def test_random_vectors(self, kern, data):
        n = data.draw(st.integers(0, 400))
        top = data.draw(st.sampled_from([1, 4, 12, 30, 63, 64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            lengths = rng.integers(0, top + 1, n)
        else:
            lengths = huffman_lengths(rng, max(n, 1))
        try:
            want = canonical_from_lengths(lengths)
        except ValueError as exc:
            assert raised(canonical_codes, lengths) == (ValueError, str(exc))
            return
        assert_same_book(canonical_codes(lengths), want)

    def test_book_owns_its_lengths(self, kern):
        lengths = np.array([1, 2, 2], np.int32)
        book = canonical_codes(lengths)
        lengths[0] = 9
        assert book.lengths.tolist() == [1, 2, 2]

    def test_route_on_span(self, kernel_engine):
        attrs = span_attrs("codebook.canonical", canonical_codes,
                           np.array([1, 2, 2]))
        if kernel_engine == "native" and native.kernel() is not None:
            assert attrs["impl"] == "native" and "fallback" not in attrs
        else:
            assert attrs == {"impl": "numpy", "fallback": "no_native_kernel"}

    def test_raw_pass_refuses_small_buffers(self, kern):
        """Each capacity below what the book needs returns -2 before a
        single entry is written."""
        lengths = np.array([2, 1, 3, 3, 0], np.int32)
        p = kern._p
        for n_codes, n_first, n_sbc in ((4, 64, 5), (5, 3, 5), (5, 64, 3)):
            codes = np.full(5, 7, np.uint64)
            first = np.full(128, -7, np.int64)
            sbc = np.full(5, -7, np.int64)
            info = np.zeros(2, np.int64)
            fp = p("int64_t *", first)
            assert kern._lib.canonical_codes(
                p("int32_t *", lengths), 5, p("uint64_t *", codes), n_codes,
                fp, fp + 64, n_first, p("int64_t *", sbc), n_sbc,
                p("int64_t *", info),
            ) == -2
            assert (codes == 7).all() and (first == -7).all()
            assert (sbc == -7).all()


# -------------------------------------------------------------- tables --
def assert_same_table(book: CanonicalCodebook, k):
    got, want = build_decode_table(book, k), table_oracle(book, k)
    assert got.k == want.k and got.max_length == want.max_length
    assert got.complete == want.complete
    for name in ("root", "sub", "node_base", "node_bits"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    return got


def lengths_book(lengths) -> CanonicalCodebook:
    return canonical_from_lengths(np.array(lengths, dtype=np.int32))


class TestDecodeTable:
    @pytest.mark.parametrize("k", [None] + list(range(1, 17)))
    @pytest.mark.parametrize("book", [
        wbit_codebook(32), wbit_codebook(16), lengths_book(chain(38)),
        deep_codebook(), lengths_book([2, 1, 3, 3]),
    ], ids=["w32", "w16", "chain38", "deep19", "classic"])
    def test_explicit_roots(self, kern, book, k):
        table = assert_same_table(book, k)
        if k is not None and k < book.max_length:
            assert table.tier == "tiered"

    @pytest.mark.parametrize("depth,width", [
        (12 + _NODE_SPILL, _NODE_SPILL),
        (13 + _NODE_SPILL, _NODE_BITS),
    ])
    def test_spill_boundary(self, kern, depth, width):
        """A node with ``_NODE_SPILL`` bits left takes them in one level;
        one more bit and it takes ``_NODE_BITS`` and a child."""
        table = assert_same_table(lengths_book(chain(depth)), 12)
        assert table.node_bits[0] == width
        assert table.n_nodes == (1 if width == _NODE_SPILL else 2)

    @pytest.mark.parametrize("lengths", [
        [1], [1, 2], [3, 3, 3], list(range(1, 21)), [0, 0],
        [2, 2, 3] + [18] * 5, [1] + [20] * 7,
    ], ids=["single", "one-short", "sparse", "deep-chain", "empty",
            "deep-sparse", "deep-node"])
    @pytest.mark.parametrize("k", [None, 1, 4, 12])
    def test_incomplete_books(self, kern, lengths, k):
        book = lengths_book(lengths)
        assert book.kraft_sum() < 1.0 or book.n_used <= 1
        assert not assert_same_table(book, k).complete

    def test_large_alphabet(self, kern):
        book = canonical_from_lengths(
            huffman_lengths(np.random.default_rng(2), 70000))
        for k in (None, 8, 16):
            assert_same_table(book, k)

    @given(st.data())
    @_SETTINGS
    def test_random_books(self, kern, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            f = rng.integers(0, 10**6, data.draw(st.integers(1, 600)))
        else:  # exponentially skewed counts: books 20-40 bits deep
            f = np.cumsum(rng.integers(1, 2**20, data.draw(
                st.integers(2, 40)))) ** 2
            f = np.concatenate([f, np.cumprod(np.full(25, 2))])
        book = parallel_codebook(f).codebook
        if data.draw(st.booleans()):  # drop codewords: an incomplete book
            lengths = book.lengths.copy()
            lengths[rng.random(lengths.size) < 0.3] = 0
            book = canonical_from_lengths(lengths)
        assert_same_table(book, data.draw(st.sampled_from(
            [None, 1, 3, 8, 12, 16])))

    def test_foreign_order_takes_the_oracle(self, kernel_engine):
        """A book whose ``symbols_by_code`` is not its codewords in
        ascending order builds through NumPy, with the same arrays."""
        good = lengths_book([2, 1, 3, 3])
        book = CanonicalCodebook(
            codes=good.codes, lengths=good.lengths, first=good.first,
            entry=good.entry, symbols_by_code=good.symbols_by_code[::-1].copy(),
        )
        attrs = span_attrs("decode.table", build_decode_table, book)
        assert attrs["impl"] == "numpy"
        on = kernel_engine == "native" and native.kernel() is not None
        assert attrs["fallback"] == ("book_order" if on
                                     else "no_native_kernel")
        assert_same_table(book, None)

    def test_route_on_span(self, kernel_engine):
        attrs = span_attrs("decode.table", build_decode_table,
                           deep_codebook())
        assert attrs["tier"] == "tiered"
        if kernel_engine == "native" and native.kernel() is not None:
            assert attrs["impl"] == "native" and "fallback" not in attrs
        else:
            assert attrs["fallback"] == "no_native_kernel"

    @staticmethod
    def plan(kern, book, k, cap):
        p = kern._p
        run = np.full(2 * max(cap, 1), -7, np.int64)
        cons = np.full(max(cap, 1), -7, np.int32)
        bits = np.full(max(cap, 1), -7, np.int32)
        info = np.zeros(2, np.int64)
        status = kern._lib.decode_table_plan(
            p("int32_t *", book.lengths), p("uint64_t *", book.codes),
            book.n_symbols, p("int64_t *", book.symbols_by_code),
            book.n_used, k, book.max_length, _NODE_BITS, _NODE_SPILL,
            p("int64_t *", run), p("int32_t *", cons), p("int32_t *", bits),
            cap, p("int64_t *", info),
        )
        return status, run, cons, bits, info

    def test_raw_plan_refuses_small_capacity(self, kern):
        book = lengths_book(chain(30))
        status, run, cons, bits, info = self.plan(kern, book, 12, 1)
        assert status == -2
        status, *_ = self.plan(kern, book, 12, 0)
        assert status == -2
        status, run, cons, bits, info = self.plan(kern, book, 12, 64)
        assert status == -1 and info[0] == 2  # 12 + 8 bits, then 10

    def test_raw_fill_refuses_small_tables(self, kern):
        book = lengths_book(chain(30))
        status, run, cons, bits, info = self.plan(kern, book, 12, 64)
        n_nodes, n_sub = int(info[0]), int(info[1])
        p = kern._p

        def fill(n_root, n_sub_cap, nodes=n_nodes, runs=run):
            root = np.full(1 << 12, -7, np.int32)
            sub = np.full(n_sub, -7, np.int32)
            base = np.full(max(n_nodes, 1), -7, np.int64)
            got = kern._lib.decode_table_fill(
                p("int32_t *", book.lengths), p("uint64_t *", book.codes),
                book.n_symbols, p("int64_t *", book.symbols_by_code),
                book.n_used, 12, p("int64_t *", runs), p("int32_t *", cons),
                p("int32_t *", bits), nodes, p("int32_t *", root), n_root,
                p("int32_t *", sub), n_sub_cap, p("int64_t *", base),
            )
            return got, root, sub, base

        for n_root, n_sub_cap in (((1 << 12) - 1, n_sub), (1 << 12,
                                                          n_sub - 1)):
            got, root, sub, base = fill(n_root, n_sub_cap)
            assert got == -2
            assert (root == -7).all() and (sub == -7).all()
            assert (base == -7).all()
        # a plan whose run passes the order is refused, not followed
        bad = run.copy()
        bad[1] = book.n_used + 5
        assert fill(1 << 12, n_sub, runs=bad)[0] == -3
        # a root pointer past the plan's nodes is refused
        assert fill(1 << 12, n_sub, nodes=0)[0] == -3
        got, root, sub, base = fill(1 << 12, n_sub)
        assert got == 0  # complete
        want = table_oracle(book, 12)
        np.testing.assert_array_equal(root, want.root)
        np.testing.assert_array_equal(sub, want.sub)


# ------------------------------------------------------------- layouts --
def synth_stream(rng, n_chunks, magnitude, r, n_broken, tail_symbols,
                 wide_lengths=False) -> EncodedStream:
    """A container's geometry with zeroed payloads: ``n_broken`` broken
    cells (``-1``: every cell) and a tail of ``tail_symbols``."""
    tuning = EncoderTuning(magnitude, r, 32)
    cpc, group = tuning.cells_per_chunk, tuning.group_symbols
    n_cells = n_chunks * cpc
    chunk_bits = rng.integers(0, cpc * 32 + 1, n_chunks).astype(np.int64)
    offsets = np.zeros(n_chunks + 1, np.int64)
    np.cumsum((chunk_bits + 7) // 8, out=offsets[1:])
    nnz = n_cells if n_broken < 0 else min(n_broken, n_cells)
    cells = np.sort(rng.choice(n_cells, nnz, replace=False)).astype(np.uint32)
    blen = rng.integers(33, group * 40, nnz).astype(
        np.int64 if wide_lengths else np.uint16)
    boffsets = np.zeros(nnz + 1, np.int64)
    np.cumsum((blen.astype(np.int64) + 7) // 8, out=boffsets[1:])
    tail_bits = (int(rng.integers(tail_symbols, 20 * tail_symbols + 1))
                 if tail_symbols else 0)
    return EncodedStream(
        tuning=tuning,
        n_symbols=n_chunks * tuning.chunk_symbols + tail_symbols,
        chunk_bits=chunk_bits,
        payload=np.zeros(int(offsets[-1]), np.uint8),
        chunk_offsets=offsets,
        breaking=BreakingStore(
            n_cells=n_cells, group_symbols=group, cell_indices=cells,
            bit_lengths=blen, payload=np.zeros(int(boffsets[-1]), np.uint8),
            payload_offsets=boffsets,
        ),
        tail_payload=np.zeros((tail_bits + 7) // 8, np.uint8),
        tail_bits=tail_bits,
        tail_symbols=tail_symbols,
    )


def assert_same_layout(stream: EncodedStream):
    want = raised_or(layout_oracle, stream)
    got = raised_or(lane_layout, stream)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    *lanes, place = got
    *want_lanes, want_place = want
    for a, b in zip(lanes + [place.out_off, place.hole_base, place.holes],
                    want_lanes + [want_place.out_off, want_place.hole_base,
                                  want_place.holes]):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    assert (place.group, place.n_out) == (want_place.group, want_place.n_out)


def raised_or(fn, stream):
    try:
        return fn(stream)
    except ValueError as exc:
        return ValueError, str(exc)


def with_breaking(stream: EncodedStream, **fields) -> EncodedStream:
    brk = stream.breaking
    kw = dict(n_cells=brk.n_cells, group_symbols=brk.group_symbols,
              cell_indices=brk.cell_indices, bit_lengths=brk.bit_lengths,
              payload=brk.payload, payload_offsets=brk.payload_offsets)
    kw.update(fields)
    return with_fields(stream, breaking=BreakingStore(**kw))


def with_fields(stream: EncodedStream, **fields) -> EncodedStream:
    kw = {name: getattr(stream, name) for name in (
        "tuning", "n_symbols", "chunk_bits", "payload", "chunk_offsets",
        "breaking", "tail_payload", "tail_bits", "tail_symbols")}
    kw.update(fields)
    return EncodedStream(**kw)


class TestLaneLayout:
    @pytest.mark.parametrize("n_broken", [0, 5, -1],
                             ids=["none", "some", "all"])
    @pytest.mark.parametrize("tail", [0, 37])
    @pytest.mark.parametrize("n_chunks", [0, 1, 9])
    def test_geometries(self, kern, n_chunks, n_broken, tail):
        stream = synth_stream(np.random.default_rng(n_chunks + tail), n_chunks,
                              6, 2, n_broken, tail)
        assert_same_layout(stream)

    @given(st.data())
    @_SETTINGS
    def test_random_geometries(self, kern, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        magnitude = data.draw(st.integers(1, 10))
        r = data.draw(st.integers(0, magnitude - 1))
        stream = synth_stream(
            rng, data.draw(st.integers(0, 40)), magnitude, r,
            data.draw(st.sampled_from([0, 1, 3, 50, -1])),
            data.draw(st.integers(0, (1 << magnitude) - 1)),
            wide_lengths=data.draw(st.booleans()),
        )
        assert_same_layout(stream)

    def test_truncated_sections(self, kern):
        stream = synth_stream(np.random.default_rng(3), 6, 6, 2, 4, 21)
        brk = stream.breaking
        cases = {
            "chunk payload truncated": with_fields(
                stream, payload=stream.payload[:-1]),
            "breaking payload truncated": with_breaking(
                stream, payload=brk.payload[:-1]),
            "tail payload truncated": with_fields(
                stream, tail_payload=stream.tail_payload[:-1]),
        }
        for message, bad in cases.items():
            assert raised_or(layout_oracle, bad) == (ValueError, message)
            assert_same_layout(bad)

    def test_disordered_cells(self, kern):
        stream = synth_stream(np.random.default_rng(4), 4, 6, 2, 6, 0)
        cells = stream.breaking.cell_indices
        n_cells = stream.breaking.n_cells
        for bad_cells in (cells[::-1].copy(),
                          np.concatenate([cells[:1], cells[:-1]]),
                          np.append(cells[:-1], np.uint32(n_cells)),
                          cells.astype(np.int64) - cells[0] - 1):
            bad = with_breaking(stream, cell_indices=bad_cells)
            assert raised_or(layout_oracle, bad) == (
                ValueError, "breaking cell indices unsorted or out of range")
            assert_same_layout(bad)

    def test_deserialized_views(self, kern):
        """From a container the cell indices and bit lengths are
        read-only views at any byte offset, so the pass aligns them."""
        rng = np.random.default_rng(5)
        syms = rng.choice(40, 20000, p=rng.dirichlet(np.ones(40) * 0.1))
        book = parallel_codebook(np.bincount(syms, minlength=40)).codebook
        enc = gpu_encode(syms.astype(np.uint8), book,
                         tuning=EncoderTuning(8, 3, 16))
        assert enc.stream.breaking.nnz and enc.stream.tail_symbols
        blob = serialize_stream(enc.stream, book)
        for shift in range(4):
            buf = memoryview(bytes(shift) + blob)[shift:]
            stream, _ = deserialize_stream(buf)
            assert not stream.breaking.cell_indices.flags.writeable
            assert_same_layout(stream)

    def test_huge_chunks_take_the_oracle(self, kernel_engine):
        """A container may declare 2^62-symbol chunks and hold only a
        tail; past the pass's int64 geometry the layout is the
        oracle's."""
        stream = synth_stream(np.random.default_rng(8), 0, 62, 3, 0, 37)
        attrs = span_attrs("decode.layout", lane_layout, stream)
        on = kernel_engine == "native" and native.kernel() is not None
        assert attrs == {"chunks": 0, "broken": 0, "impl": "numpy",
                         "fallback": "geometry" if on
                         else "no_native_kernel"}
        assert_same_layout(stream)

    def test_route_on_span(self, kernel_engine):
        stream = synth_stream(np.random.default_rng(6), 3, 6, 2, 2, 5)
        attrs = span_attrs("decode.layout", lane_layout, stream)
        if kernel_engine == "native" and native.kernel() is not None:
            assert attrs["impl"] == "native" and "fallback" not in attrs
        else:
            assert attrs["fallback"] == "no_native_kernel"

    def test_raw_pass_refuses_small_output(self, kern):
        stream = synth_stream(np.random.default_rng(7), 5, 6, 2, 3, 9)
        brk = stream.breaking
        n_lanes = 5 + 3 + 1
        need = 5 * n_lanes + 1 + 3
        p = kern._p
        for n_out in (need - 1, 0):
            out = np.full(need, -7, np.int64)
            assert kern._lib.lane_layout(
                5, stream.tuning.cells_per_chunk, stream.tuning.group_symbols,
                p("int64_t *", stream.chunk_offsets),
                p("int64_t *", stream.chunk_bits), stream.payload.nbytes,
                p("uint32_t *", brk.cell_indices), 0,
                p("uint16_t *", brk.bit_lengths), 0,
                p("int64_t *", brk.payload_offsets), 3, brk.payload.nbytes,
                stream.tail_symbols, stream.tail_bits,
                stream.tail_payload.nbytes, p("int64_t *", out), n_out,
            ) == -2
            assert (out == -7).all()
