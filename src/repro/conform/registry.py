"""Implementation registry: every encoder/decoder variant behind one API.

The repo has grown ~8 encoder and ~10 decoder variants whose mutual
agreement was only spot-checked.  This module registers each of them as
an :class:`EncoderImpl` / :class:`DecoderImpl` over a small artifact
model, so the conformance matrix can enumerate every compatible
encoder×decoder pair mechanically — and so the *next* implementation is
one ``register()`` call away from being covered.

Artifact kinds
--------------

``stream``
    :class:`~repro.core.bitstream.EncodedStream` — the paper's chunked
    container (reduce-shuffle-merge output).
``dense``
    ``(buffer, total_bits)`` — one dense MSB-first bitstream, exactly
    the serial reference concatenation.
``chunks``
    ``(buffers, chunk_bits, chunk_symbols)`` — byte-aligned per-chunk
    buffers plus a length table (cuSZ coarse / CPU-MT / CPU-MP
    container).
``segments``
    ``list[bytes]`` — serialized segment containers from the streaming
    encoder.
``adaptive``
    :class:`~repro.core.adaptive.AdaptiveEncodeResult` — per-chunk
    reduction-factor container.

A decoder declares which kinds it accepts; the matrix pairs it with all
encoders of those kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.adaptive import adaptive_decode, adaptive_encode
from repro.core.bitstream import (
    assemble_stream_symbols,
    decode_stream,
    decode_stream_scalar,
    stream_lanes,
)
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    deserialize_adaptive,
    deserialize_stream,
    serialize_adaptive,
    serialize_stream,
)
from repro.baselines.cusz_encoder import cusz_coarse_encode
from repro.baselines.prefix_sum_encoder import prefix_sum_encode
from repro.decoder.chunk_parallel import chunk_parallel_decode
from repro.decoder.self_sync import self_sync_decode
from repro.decoder.simt_decoder import decode_stream_simt
from repro.huffman.cache import cached_decode_table
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.cpu_mp import cpu_mp_encode
from repro.huffman.cpu_mt import cpu_mt_encode
from repro.huffman.decoder import (
    build_decode_table,
    decode_batch,
    decode_canonical,
    decode_lanes,
    decode_with_tree,
    plane_dtype,
)
from repro.huffman.serial import serial_encode

__all__ = [
    "EncodeArtifact",
    "EncoderImpl",
    "DecoderImpl",
    "ConformRegistry",
    "default_registry",
    "ARTIFACT_KINDS",
]

ARTIFACT_KINDS = ("stream", "dense", "chunks", "segments", "adaptive")

#: cap above which cpu_mp would spawn a real process pool; conformance
#: corpora stay below it so the matrix is deterministic and fast
_MP_INPROCESS_LIMIT = 4096

#: root width of the ``*.tiered`` decoder columns: narrow enough that
#: most corpora's longer codewords descend through subtables
_TIERED_ROOT_BITS = 12


@dataclass
class EncodeArtifact:
    """One encoder's output plus everything needed to decode it."""

    kind: str
    payload: object
    book: CanonicalCodebook
    n_symbols: int

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {self.kind!r}")


@dataclass(frozen=True)
class EncoderImpl:
    """A registered encoder variant."""

    name: str
    kind: str
    encode: Callable[[np.ndarray, CanonicalCodebook, int], EncodeArtifact]
    #: emits the reference dense code bits (cross-implementation
    #: bitstream equality applies)
    canonical: bool = True
    #: inputs smaller than this are skipped (e.g. streaming needs data)
    min_symbols: int = 0
    #: inputs larger than this are skipped (slow functional paths)
    max_symbols: int | None = None
    #: included in the smoke matrix (full matrix runs everything)
    smoke: bool = True


@dataclass(frozen=True)
class DecoderImpl:
    """A registered decoder variant."""

    name: str
    kinds: tuple[str, ...]
    decode: Callable[[EncodeArtifact], np.ndarray]
    max_symbols: int | None = None
    smoke: bool = True


# ---------------------------------------------------------------------------
# encoder adapters
# ---------------------------------------------------------------------------

def _enc_serial(data, book, magnitude):
    buf, nbits = serial_encode(data, book)
    return EncodeArtifact("dense", (buf, nbits), book, int(data.size))


def _enc_prefix_sum(data, book, magnitude):
    res = prefix_sum_encode(data, book)
    return EncodeArtifact(
        "dense", (res.buffer, res.total_bits), book, int(data.size)
    )


def _enc_reduce_shuffle(data, book, magnitude):
    # pinned to the iterative reference path: the matrix must keep
    # covering it even though gpu_encode's default is now scan-pack
    enc = gpu_encode(data, book, magnitude=magnitude, impl="iterative")
    return EncodeArtifact("stream", enc.stream, book, int(data.size))


def _enc_scan_pack(data, book, magnitude):
    enc = gpu_encode(data, book, magnitude=magnitude, impl="scan")
    return EncodeArtifact("stream", enc.stream, book, int(data.size))


def _enc_single_stage(data, book, magnitude):
    # the codebook-registry fast path: static pre-registered book, no
    # histogram/codebook stages; must stay byte-identical to scan_pack
    # for the same book (the registry serves containers the cold path
    # must be able to reproduce bit-for-bit)
    from repro.core.single_stage import single_stage_encode

    enc = single_stage_encode(data, book, magnitude=magnitude)
    return EncodeArtifact("stream", enc.stream, book, int(data.size))


def _enc_adaptive(data, book, magnitude):
    res = adaptive_encode(data, book, magnitude=magnitude)
    return EncodeArtifact("adaptive", res, book, int(data.size))


def _enc_streaming(data, book, magnitude):
    # Two-pass block encoder over 3 blocks; the shared codebook is built
    # from the data's own histogram, mirroring the encoder's pass 1.
    from repro.core.streaming import StreamingEncoder

    n_symbols = book.n_symbols
    enc = StreamingEncoder(num_symbols=n_symbols, magnitude=magnitude)
    bounds = np.linspace(0, data.size, 4).astype(np.int64)
    blocks = [data[bounds[i]: bounds[i + 1]] for i in range(3)]
    blocks = [b for b in blocks if b.size]
    for b in blocks:
        enc.observe(b)
    enc.finalize()
    segments = [enc.encode_block(b) for b in blocks]
    return EncodeArtifact("segments", segments, enc.codebook, int(data.size))


def _enc_cusz(data, book, magnitude):
    res = cusz_coarse_encode(data, book, chunk_symbols=1 << magnitude)
    syms = np.full(res.chunk_bits.size, res.chunk_symbols, dtype=np.int64)
    if res.chunk_bits.size:
        syms[-1] = data.size - res.chunk_symbols * (res.chunk_bits.size - 1)
    return EncodeArtifact(
        "chunks", (res.chunk_buffers, res.chunk_bits, syms), book,
        int(data.size),
    )


def _enc_cpu_mt(data, book, magnitude):
    res = cpu_mt_encode(data, book, threads=3)
    return EncodeArtifact(
        "chunks", (res.chunk_buffers, res.chunk_bits, res.chunk_symbols),
        book, int(data.size),
    )


def _enc_cpu_mp(data, book, magnitude):
    res = cpu_mp_encode(data, book, workers=2)
    return EncodeArtifact(
        "chunks", (res.chunk_buffers, res.chunk_bits, res.chunk_symbols),
        book, int(data.size),
    )


# ---------------------------------------------------------------------------
# decoder adapters
# ---------------------------------------------------------------------------

def _dec_stream_batch(art):
    # pins the NumPy lanes: decode_stream would run the gap kernel
    stream = art.payload
    buffer, starts, ends, nsyms = stream_lanes(stream)
    table = cached_decode_table(art.book)
    return assemble_stream_symbols(
        stream, decode_lanes(buffer, starts, ends, nsyms, art.book, table)
    )


def _dec_stream_scalar(art):
    return decode_stream_scalar(art.payload, art.book)


def _dec_stream_pool(art):
    return chunk_parallel_decode(art.payload, art.book).symbols


def _dec_stream_simt(art):
    out, _stats = decode_stream_simt(art.payload, art.book)
    return out


def _dec_stream_container(art):
    """Serialize → deserialize → decode: the on-disk path."""
    blob = serialize_stream(art.payload, art.book)
    stream, book = deserialize_stream(blob)
    return decode_stream(stream, book)


def _dec_stream_gap(art):
    return decode_stream(art.payload, art.book)


def _dec_stream_narrow(art):
    """The on-disk path decoded in the narrowest dtype that holds the
    book, as ``decompress_symbols`` decodes uint8/uint16 data: the one
    cell whose decode reads the table's multi-symbol plane (the int64
    cells never do)."""
    blob = serialize_stream(art.payload, art.book)
    stream, book = deserialize_stream(blob)
    return decode_stream(stream, book, dtype=plane_dtype(book))


def _dec_dense_scalar(art):
    buf, nbits = art.payload
    return decode_canonical(buf, nbits, art.book, art.n_symbols)


def _dense_one_lane(art, table=None):
    """The dense stream as a single ``decode_lanes`` lane."""
    buf, nbits = art.payload
    one = lambda v: np.array([v], dtype=np.int64)  # noqa: E731
    return decode_lanes(
        buf, one(0), one(nbits), one(art.n_symbols), art.book, table
    )


def _dec_dense_lanes(art):
    return _dense_one_lane(art)


def _dec_dense_gap(art):
    buf, nbits = art.payload
    return decode_batch(buf, nbits, art.book, art.n_symbols)


def _dec_dense_tiered(art):
    # force a 12-bit root even for shallow books — pins the subtable
    # descent byte-identical to the one-gather root everywhere, not
    # just in the deep-book regime that requires it
    return _dense_one_lane(
        art, build_decode_table(art.book, _TIERED_ROOT_BITS)
    )


def _dec_chunks_tiered(art):
    buffer, starts, ends, syms = _chunks_lanes_layout(art)
    table = build_decode_table(art.book, _TIERED_ROOT_BITS)
    return decode_lanes(buffer, starts, ends, syms, art.book, table)


def _dec_dense_selfsync(art):
    buf, nbits = art.payload
    sub = max(256, 2 * max(art.book.max_length, 1))
    return self_sync_decode(
        buf, nbits, art.book, art.n_symbols, subsequence_bits=sub
    ).symbols


def _dec_dense_tree(art):
    buf, nbits = art.payload
    return decode_with_tree(buf, nbits, None, art.book, art.n_symbols)


def _chunks_lanes_layout(art):
    buffers, bits, syms = art.payload
    buffer = (
        np.concatenate(buffers) if buffers else np.empty(0, dtype=np.uint8)
    )
    sizes = np.array([b.size for b in buffers], dtype=np.int64)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    starts *= 8
    ends = starts + np.asarray(bits, dtype=np.int64)
    return buffer, starts, ends, np.asarray(syms, dtype=np.int64)


def _dec_chunks_lanes(art):
    buffer, starts, ends, syms = _chunks_lanes_layout(art)
    return decode_lanes(buffer, starts, ends, syms, art.book)


def _dec_chunks_gap(art):
    from repro.decoder.gap_array import gap_decode_lanes

    buffer, starts, ends, syms = _chunks_lanes_layout(art)
    return gap_decode_lanes(buffer, starts, ends, syms, art.book).symbols


def _dec_chunks_scalar(art):
    buffers, bits, syms = art.payload
    parts = [
        decode_canonical(b, int(nb), art.book, int(ns))
        for b, nb, ns in zip(buffers, np.asarray(bits), np.asarray(syms))
    ]
    return (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )


def _dec_segments_streaming(art):
    from repro.core.streaming import StreamingDecoder

    return StreamingDecoder().decode_all(art.payload)


def _dec_adaptive_direct(art):
    return adaptive_decode(art.payload, art.book)


def _dec_adaptive_container(art):
    blob = serialize_adaptive(art.payload, art.book)
    res, book = deserialize_adaptive(blob)
    return adaptive_decode(res, book)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class ConformRegistry:
    """Mutable collection of implementations the matrix enumerates."""

    encoders: list[EncoderImpl] = field(default_factory=list)
    decoders: list[DecoderImpl] = field(default_factory=list)

    def register_encoder(self, impl: EncoderImpl) -> None:
        if any(e.name == impl.name for e in self.encoders):
            raise ValueError(f"duplicate encoder {impl.name!r}")
        self.encoders.append(impl)

    def register_decoder(self, impl: DecoderImpl) -> None:
        if any(d.name == impl.name for d in self.decoders):
            raise ValueError(f"duplicate decoder {impl.name!r}")
        self.decoders.append(impl)

    def pairs(self, smoke: bool = False) -> list[tuple[EncoderImpl, DecoderImpl]]:
        """Every compatible (encoder, decoder) pair."""
        out = []
        for e in self.encoders:
            if smoke and not e.smoke:
                continue
            for d in self.decoders:
                if smoke and not d.smoke:
                    continue
                if e.kind in d.kinds:
                    out.append((e, d))
        return out

    def with_seeded_divergence(
        self, decoder_name: str = "stream.batch"
    ) -> "ConformRegistry":
        """Copy of the registry with one decoder deliberately broken.

        The negative test for the harness itself: the returned registry's
        ``decoder_name`` flips the last decoded symbol, so a matrix run
        over it MUST report failures and exit non-zero.  If it does not,
        the harness is blind.
        """
        found = False
        decoders = []
        for d in self.decoders:
            if d.name == decoder_name:
                found = True
                inner = d.decode

                def broken(art, _inner=inner):
                    out = np.array(_inner(art), dtype=np.int64, copy=True)
                    if out.size:
                        out[-1] = (out[-1] + 1) % max(art.book.n_symbols, 2)
                    return out

                decoders.append(replace(d, decode=broken))
            else:
                decoders.append(d)
        if not found:
            raise ValueError(f"unknown decoder {decoder_name!r}")
        return ConformRegistry(list(self.encoders), decoders)


def default_registry() -> ConformRegistry:
    """Registry of every implementation shipped in the repo."""
    reg = ConformRegistry()
    for enc in [
        EncoderImpl("serial", "dense", _enc_serial),
        EncoderImpl("prefix_sum", "dense", _enc_prefix_sum),
        EncoderImpl("reduce_shuffle", "stream", _enc_reduce_shuffle),
        EncoderImpl("scan_pack", "stream", _enc_scan_pack),
        EncoderImpl("single_stage", "stream", _enc_single_stage),
        EncoderImpl("adaptive", "adaptive", _enc_adaptive, canonical=False),
        EncoderImpl(
            "streaming", "segments", _enc_streaming, canonical=False,
            min_symbols=1,
        ),
        EncoderImpl("cusz_coarse", "chunks", _enc_cusz),
        EncoderImpl("cpu_mt", "chunks", _enc_cpu_mt),
        EncoderImpl(
            "cpu_mp", "chunks", _enc_cpu_mp,
            max_symbols=_MP_INPROCESS_LIMIT - 1, smoke=False,
        ),
    ]:
        reg.register_encoder(enc)
    for dec in [
        DecoderImpl("stream.batch", ("stream",), _dec_stream_batch),
        DecoderImpl(
            "stream.scalar", ("stream",), _dec_stream_scalar,
            max_symbols=20_000,
        ),
        DecoderImpl("stream.chunk_parallel", ("stream",), _dec_stream_pool),
        DecoderImpl(
            "stream.simt", ("stream",), _dec_stream_simt,
            max_symbols=3_000, smoke=False,
        ),
        DecoderImpl("stream.container", ("stream",), _dec_stream_container),
        DecoderImpl("stream.gap", ("stream",), _dec_stream_gap),
        DecoderImpl("stream.narrow", ("stream",), _dec_stream_narrow),
        DecoderImpl(
            "dense.scalar", ("dense",), _dec_dense_scalar,
            max_symbols=20_000,
        ),
        DecoderImpl("dense.lanes", ("dense",), _dec_dense_lanes),
        DecoderImpl("dense.gap", ("dense",), _dec_dense_gap),
        DecoderImpl("dense.tiered", ("dense",), _dec_dense_tiered),
        DecoderImpl("chunks.tiered", ("chunks",), _dec_chunks_tiered),
        DecoderImpl(
            "dense.self_sync", ("dense",), _dec_dense_selfsync,
            max_symbols=20_000,
        ),
        DecoderImpl(
            "dense.tree", ("dense",), _dec_dense_tree,
            max_symbols=1_500, smoke=False,
        ),
        DecoderImpl(
            "chunks.scalar", ("chunks",), _dec_chunks_scalar,
            max_symbols=20_000,
        ),
        DecoderImpl("chunks.lanes", ("chunks",), _dec_chunks_lanes),
        DecoderImpl("chunks.gap", ("chunks",), _dec_chunks_gap),
        DecoderImpl(
            "segments.streaming", ("segments",), _dec_segments_streaming
        ),
        DecoderImpl("adaptive.direct", ("adaptive",), _dec_adaptive_direct),
        DecoderImpl(
            "adaptive.container", ("adaptive",), _dec_adaptive_container
        ),
    ]:
        reg.register_decoder(dec)
    return reg
