"""Tests for the binary container format, the application facade, and the
command-line interface."""

import numpy as np
import pytest

from repro.app.cli import main as cli_main
from repro.app.compressor import (
    compress_field,
    compress_symbols,
    decompress_field,
    decompress_symbols,
)
from repro.core.bitstream import decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    MAGIC,
    deserialize_codebook,
    deserialize_stream,
    serialize_codebook,
    serialize_stream,
)
from repro.datasets.quantization import synthetic_field


class TestCodebookSerialization:
    def test_roundtrip(self, skewed_book):
        buf = serialize_codebook(skewed_book)
        back = deserialize_codebook(buf)
        assert np.array_equal(back.codes, skewed_book.codes)
        assert np.array_equal(back.lengths, skewed_book.lengths)
        assert np.array_equal(back.first, skewed_book.first)
        assert np.array_equal(back.symbols_by_code,
                              skewed_book.symbols_by_code)

    def test_size_is_minimal(self, skewed_book):
        # 4-byte header + one byte per symbol
        assert len(serialize_codebook(skewed_book)) == 4 + skewed_book.n_symbols

    def test_truncated_rejected(self, skewed_book):
        buf = serialize_codebook(skewed_book)
        with pytest.raises(ValueError):
            deserialize_codebook(buf[:10])


class TestStreamSerialization:
    def test_roundtrip_decodes(self, skewed_data, skewed_book):
        enc = gpu_encode(skewed_data, skewed_book)
        blob = serialize_stream(enc.stream, skewed_book)
        stream, book = deserialize_stream(blob)
        out = decode_stream(stream, book)
        assert np.array_equal(out, skewed_data)

    def test_roundtrip_preserves_structure(self, skewed_data, skewed_book):
        enc = gpu_encode(skewed_data, skewed_book, magnitude=9,
                         reduction_factor=2)
        blob = serialize_stream(enc.stream, skewed_book)
        stream, _ = deserialize_stream(blob)
        s0 = enc.stream
        assert stream.tuning == s0.tuning
        assert stream.n_symbols == s0.n_symbols
        assert np.array_equal(stream.chunk_bits, s0.chunk_bits)
        assert np.array_equal(stream.payload, s0.payload)
        assert stream.breaking.nnz == s0.breaking.nnz
        assert stream.tail_bits == s0.tail_bits

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_stream(b"XXXX" + b"\0" * 64)

    def test_truncation_detected(self, skewed_data, skewed_book):
        enc = gpu_encode(skewed_data, skewed_book)
        blob = serialize_stream(enc.stream, skewed_book)
        with pytest.raises(ValueError):
            deserialize_stream(blob[: len(blob) // 2])

    def test_corrupt_chunk_bits_detected(self, skewed_data, skewed_book):
        enc = gpu_encode(skewed_data, skewed_book)
        blob = bytearray(serialize_stream(enc.stream, skewed_book))
        # flip a chunk-bits entry (right after magic+hdr+counts+codebook)
        off = 4 + 4 + 32 + 4 + skewed_book.n_symbols
        blob[off] ^= 0xFF
        with pytest.raises(ValueError):
            deserialize_stream(bytes(blob))


class TestCompressorFacade:
    def test_symbols_roundtrip(self, skewed_data):
        blob, report = compress_symbols(skewed_data)
        assert report.ratio > 1
        assert blob[:4] == b"RPRS"
        assert np.array_equal(decompress_symbols(blob), skewed_data)

    def test_symbols_dtype_preserved(self, rng):
        data = rng.integers(0, 200, 5000).astype(np.uint8)
        blob, _ = compress_symbols(data)
        out = decompress_symbols(blob)
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_flipped_itemsize_rejected(self, rng, adaptive):
        """A uint16 container whose symbols reach 299, with its itemsize
        byte flipped from 2 to 1, is rejected before decoding instead of
        decoding to the values mod 256."""
        data = rng.integers(0, 300, 5000).astype(np.uint16)
        data[0] = 299
        blob, _ = compress_symbols(data, adaptive=adaptive)
        assert blob[4] == 2
        with pytest.raises(ValueError, match="does not fit"):
            decompress_symbols(blob[:4] + bytes([1]) + blob[5:])
        np.testing.assert_array_equal(decompress_symbols(blob), data)

    def test_unused_wide_alphabet_still_decodes(self, rng):
        """Only symbols that have a codeword must fit the itemsize: a
        300-symbol alphabet over uint8 data still decodes."""
        data = rng.integers(0, 200, 5000).astype(np.uint8)
        blob, _ = compress_symbols(data, num_symbols=300)
        out = decompress_symbols(blob)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, data)

    def test_field_codes_decode_in_encoded_dtype(self, rng, monkeypatch):
        """decompress_field decodes the codes straight into the uint16
        that compress_field encoded them in, and reconstructs within the
        bound."""
        from repro.app import compressor

        seen = []
        real = compressor.dequantize

        def spy(qf):
            seen.append(qf.codes.dtype)
            return real(qf)

        field = synthetic_field((16, 16, 16), rng, roughness=0.02)
        blob, _ = compress_field(field, 1e-3)
        monkeypatch.setattr(compressor, "dequantize", spy)
        rec = decompress_field(blob)
        assert seen == [np.dtype(np.uint16)]
        assert float(np.abs(rec - field).max()) <= 1e-3 * (1 + 1e-9)

    def test_rejects_float_symbols(self):
        with pytest.raises(TypeError):
            compress_symbols(np.array([1.5]))

    def test_field_roundtrip_error_bound(self, rng):
        field = synthetic_field((24, 24, 24), rng, roughness=0.02)
        for eb in (1e-2, 1e-4):
            blob, report = compress_field(field, eb)
            rec = decompress_field(blob)
            assert rec.shape == field.shape
            assert float(np.abs(rec - field).max()) <= eb * (1 + 1e-9)
            assert report.input_bytes == field.nbytes

    def test_field_with_outliers(self, rng):
        field = synthetic_field((16, 16, 16), rng, roughness=0.3)
        blob, report = compress_field(field, 1e-5, n_bins=64)
        assert report.outliers > 0
        rec = decompress_field(blob)
        assert float(np.abs(rec - field).max()) <= 1e-5 * (1 + 1e-9)

    def test_wrong_container_kind(self, skewed_data):
        blob, _ = compress_symbols(skewed_data)
        with pytest.raises(ValueError):
            decompress_field(blob)

    def test_field_ratio_improves_with_looser_bound(self, rng):
        field = synthetic_field((24, 24, 24), rng)
        _, tight = compress_field(field, 1e-5)
        _, loose = compress_field(field, 1e-2)
        assert loose.ratio > tight.ratio


class TestCli:
    def test_lossless_cycle(self, tmp_path, rng):
        src = tmp_path / "in.npy"
        comp = tmp_path / "out.rph"
        back = tmp_path / "back.npy"
        data = rng.integers(0, 32, 20000).astype(np.uint16)
        np.save(src, data)
        assert cli_main(["compress", str(src), str(comp)]) == 0
        assert cli_main(["info", str(comp)]) == 0
        assert cli_main(["decompress", str(comp), str(back)]) == 0
        assert np.array_equal(np.load(back), data)

    def test_lossy_cycle(self, tmp_path, rng):
        src = tmp_path / "f.npy"
        comp = tmp_path / "f.rph"
        back = tmp_path / "f_back.npy"
        field = synthetic_field((16, 16, 16), rng)
        np.save(src, field)
        assert cli_main(["compress", str(src), str(comp),
                         "--error-bound", "1e-3"]) == 0
        assert cli_main(["info", str(comp)]) == 0
        assert cli_main(["decompress", str(comp), str(back)]) == 0
        assert float(np.abs(np.load(back) - field).max()) <= 1e-3 * (1 + 1e-9)

    def test_float_without_bound_fails(self, tmp_path, rng):
        src = tmp_path / "f.npy"
        np.save(src, rng.random(100))
        rc = cli_main(["compress", str(src), str(tmp_path / "x.rph")])
        assert rc == 2

    def test_int_with_bound_fails(self, tmp_path, rng):
        src = tmp_path / "i.npy"
        np.save(src, rng.integers(0, 4, 100))
        rc = cli_main(["compress", str(src), str(tmp_path / "x.rph"),
                       "--error-bound", "1e-3"])
        assert rc == 2

    def test_bad_container(self, tmp_path):
        bad = tmp_path / "bad.rph"
        bad.write_bytes(b"JUNKJUNK")
        assert cli_main(["decompress", str(bad), str(tmp_path / "o.npy")]) == 2
        assert cli_main(["info", str(bad)]) == 2
