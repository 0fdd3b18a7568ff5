"""Tests for the serial encoder and both decoders (canonical + trie)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.decoder import (
    build_decode_table,
    decode_canonical,
    decode_with_tree,
)
from repro.huffman.serial import serial_codebook, serial_encode
from repro.huffman.tree import build_tree


class TestSerialCodebook:
    def test_produces_canonical(self):
        res = serial_codebook(np.array([5, 1, 1, 2]))
        assert res.codebook.is_prefix_free()
        assert res.codebook.kraft_sum() == pytest.approx(1.0)

    def test_cost_is_serial(self):
        res = serial_codebook(np.arange(1, 100))
        assert res.cost.serial_ops > 0
        assert res.cost.name == "codebook.serial"


class TestSerialEncode:
    def test_known_bits(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        # codes: 0 -> '0', 1 -> '10', 2 -> '11'
        buf, nbits = serial_encode(np.array([0, 1, 2]), book)
        assert nbits == 5
        assert buf.tolist() == [0b01011000]

    def test_empty_input(self):
        book = canonical_from_lengths(np.array([1, 1]))
        buf, nbits = serial_encode(np.array([], dtype=np.int64), book)
        assert nbits == 0

    def test_rejects_uncovered_symbol(self):
        book = canonical_from_lengths(np.array([1, 1, 0]))
        with pytest.raises(ValueError, match="no codeword"):
            serial_encode(np.array([0, 2]), book)


class TestDecodeTable:
    def test_table_covers_short_codes(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        table = build_decode_table(book, k=4)
        assert table.k == 2  # capped at the max codeword length
        # index 0b00, 0b01 -> symbol 0 (code '0'); 0b10 -> 1; 0b11 -> 2;
        # packed root entries are (symbol << 8) | length
        assert (table.root & 0xFF).tolist() == [1, 1, 2, 2]
        assert (table.root >> 8).tolist() == [0, 0, 1, 2]
        assert table.n_nodes == 0

    def test_long_codes_marked_fallback(self, rng):
        freqs = 2 ** np.arange(20)  # very skewed: lengths up to 19
        from repro.huffman.tree import codeword_lengths_serial

        book = canonical_from_lengths(codeword_lengths_serial(freqs))
        table = build_decode_table(book, k=4)
        # longer codes leave a zero length byte at the root: a subtable
        # pointer for the table walk, the First/Entry scan for decode_canonical
        assert np.any((table.root & 0xFF) == 0)


class TestDecoders:
    def test_roundtrip_small(self):
        book = canonical_from_lengths(np.array([1, 2, 2]))
        data = np.array([0, 1, 2, 2, 0, 1])
        buf, nbits = serial_encode(data, book)
        assert decode_canonical(buf, nbits, book, data.size).tolist() == data.tolist()

    def test_roundtrip_with_long_codes(self, rng):
        from repro.huffman.tree import codeword_lengths_serial

        freqs = (2 ** np.arange(24)).astype(np.int64)
        book = canonical_from_lengths(codeword_lengths_serial(freqs))
        p = freqs / freqs.sum()
        data = rng.choice(24, size=3000, p=p)
        buf, nbits = serial_encode(data, book)
        out = decode_canonical(buf, nbits, book, data.size)
        assert np.array_equal(out, data)

    def test_trie_decoder_agrees(self, rng, skewed_data, skewed_book):
        data = skewed_data[:4000]
        buf, nbits = serial_encode(data, skewed_book)
        tree = build_tree(np.bincount(skewed_data, minlength=64))
        a = decode_canonical(buf, nbits, skewed_book, data.size)
        b = decode_with_tree(buf, nbits, tree, skewed_book, data.size)
        assert np.array_equal(a, b)
        assert np.array_equal(a, data)

    def test_decode_too_many_symbols_raises(self):
        book = canonical_from_lengths(np.array([1, 1]))
        buf, nbits = serial_encode(np.array([0, 1]), book)
        with pytest.raises(ValueError):
            decode_canonical(buf, nbits, book, 99)

    def test_trie_decode_exhaustion_raises(self):
        book = canonical_from_lengths(np.array([1, 1]))
        tree = build_tree(np.array([1, 1]))
        buf, nbits = serial_encode(np.array([0, 1]), book)
        with pytest.raises(ValueError):
            decode_with_tree(buf, nbits, tree, book, 5)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        n_sym = data.draw(st.integers(2, 40))
        freqs = np.asarray(
            data.draw(st.lists(st.integers(1, 1000), min_size=n_sym,
                               max_size=n_sym))
        )
        from repro.huffman.tree import codeword_lengths_serial

        book = canonical_from_lengths(codeword_lengths_serial(freqs))
        syms = data.draw(
            st.lists(st.integers(0, n_sym - 1), min_size=0, max_size=300)
        )
        arr = np.asarray(syms, dtype=np.int64)
        buf, nbits = serial_encode(arr, book)
        out = decode_canonical(buf, nbits, book, arr.size)
        assert np.array_equal(out, arr)
