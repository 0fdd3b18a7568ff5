"""Binary container format for encoded streams and codebooks.

A downstream user needs to *store* what the encoder produces.  The format
here keeps the paper's philosophy: canonical codebooks serialize as just
the per-symbol bit lengths (the code values are reconstructible — that is
the point of canonical codes), chunks stay independently addressable, and
the breaking side channel rides along in its sparse form.

Layout (little-endian):

    magic 'RPRH' | version u8 | M u8 | r u8 | word_bits u8
    n_symbols u64 | n_chunks u64 | tail_symbols u64 | tail_bits u64
    alphabet u32 | lengths u8[alphabet]
    chunk_bits u32[n_chunks]
    payload u64-length-prefixed bytes
    breaking: n_cells u64 | group u32 | nnz u32
              indices u32[nnz] | bit_lengths u16[nnz]
              payload u64-length-prefixed bytes
    tail payload u64-length-prefixed bytes
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from repro.core.bitstream import EncodedStream
from repro.core.breaking import BreakingStore
from repro.core.tuning import EncoderTuning
from repro.huffman.codebook import CanonicalCodebook, canonical_codes

__all__ = [
    "MAGIC",
    "ADAPTIVE_MAGIC",
    "FORMAT_VERSION",
    "container_guard",
    "serialize_codebook",
    "deserialize_codebook",
    "serialize_stream",
    "deserialize_stream",
    "serialize_adaptive",
    "deserialize_adaptive",
]

MAGIC = b"RPRH"
ADAPTIVE_MAGIC = b"RPRA"
FORMAT_VERSION = 1

#: low-level exceptions a malformed container can provoke inside numpy /
#: struct / dict plumbing.  A deserializer must never let these escape: a
#: server loop treats ``ValueError`` as "bad request" and anything else
#: as an internal fault, so an adversarial byte string raising
#: ``struct.error`` would be misclassified (and could kill a worker).
_GUARDED_ERRORS = (struct.error, IndexError, KeyError, OverflowError,
                   TypeError)


def container_guard(fn):
    """Decorator: any parsing mishap surfaces as :class:`ValueError`.

    Deliberate ``ValueError``s (bad magic, size disagreements, Kraft
    violations) pass through untouched; incidental low-level errors from
    truncated or bit-flipped input are converted with the original
    exception chained for debugging.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError:
            raise
        except _GUARDED_ERRORS as exc:
            raise ValueError(
                f"corrupt container ({type(exc).__name__}: {exc})"
            ) from exc

    return wrapper


def _blob(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


class _Reader:
    """Sequential reads through a ``memoryview`` of the container: every
    field is a view, so a payload blob reaches the decoder uncopied."""

    def __init__(self, buf):
        self.buf = memoryview(buf).cast("B")
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.buf):
            raise ValueError("truncated container")
        out = self.buf[self.pos: self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))

    def blob(self) -> memoryview:
        (n,) = self.unpack("<Q")
        return self.take(n)

    def array(self, dtype, count: int) -> np.ndarray:
        """A read-only view of the next ``count`` items, at whatever
        alignment the container gives them (the compiled passes copy
        such a view, or read it unaligned)."""
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * itemsize), dtype=dtype)


def serialize_codebook(book: CanonicalCodebook) -> bytes:
    """Codebook → bytes: alphabet size + per-symbol code lengths.

    Canonical codes are fully determined by their lengths, so this is the
    minimal (and the paper's) representation; codeword values, First/Entry
    metadata, and the reverse codebook are rebuilt on load.
    """
    lengths = book.lengths.astype(np.int64)
    if lengths.size and int(lengths.max()) > 255:
        raise ValueError("codeword lengths exceed the u8 container field")
    return struct.pack("<I", book.n_symbols) + lengths.astype(np.uint8).tobytes()


@container_guard
def deserialize_codebook(buf: bytes) -> CanonicalCodebook:
    r = _Reader(buf)
    (n,) = r.unpack("<I")
    return canonical_codes(r.array(np.uint8, n))


def serialize_stream(stream: EncodedStream, book: CanonicalCodebook) -> bytes:
    """Full self-describing container: header, codebook, chunks, breaking,
    tail."""
    t = stream.tuning
    parts = [
        MAGIC,
        struct.pack(
            "<BBBB", FORMAT_VERSION, t.magnitude, t.reduction_factor,
            t.word_bits,
        ),
        struct.pack(
            "<QQQQ", stream.n_symbols, stream.n_chunks,
            stream.tail_symbols, stream.tail_bits,
        ),
        serialize_codebook(book),
        stream.chunk_bits.astype(np.uint32).tobytes(),
        _blob(stream.payload.tobytes()),
        struct.pack(
            "<QII", stream.breaking.n_cells, stream.breaking.group_symbols,
            stream.breaking.nnz,
        ),
        stream.breaking.cell_indices.astype(np.uint32).tobytes(),
        stream.breaking.bit_lengths.astype(np.uint16).tobytes(),
        _blob(stream.breaking.payload.tobytes()),
        _blob(stream.tail_payload.tobytes()),
    ]
    return b"".join(parts)


@container_guard
def deserialize_stream(
    buf: bytes, book: CanonicalCodebook | None = None
) -> tuple[EncodedStream, CanonicalCodebook]:
    """Parse a ``RPRH`` container back into (stream, codebook).

    ``book`` is the registry fast path: when the caller already holds
    the canonical codebook (resolved by the serve layer's header peek
    against :mod:`repro.codebooks`), the container's length vector is
    *verified* against it byte-for-byte and the provided book — whose
    First/Entry arrays and cached k-bit LUT are already built — is
    reused instead of building the canonical book again
    (:func:`~repro.huffman.codebook.canonical_codes`).  A mismatch
    falls back to the cold rebuild rather than erroring: the container
    stays self-describing either way.

    The three payload sections, the broken cells' indices and their bit
    lengths come back as read-only views of ``buf`` (which they keep
    alive); ``chunk_bits`` is the one copy of the metadata (widened to
    int64), and the book's lengths are copied once, into the book.  The
    decoder's padded buffer is the only copy of the payload on the
    decode path.
    """
    r = _Reader(buf)
    if r.take(4) != MAGIC:
        raise ValueError("not a repro Huffman container (bad magic)")
    version, magnitude, red, word_bits = r.unpack("<BBBB")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    n_symbols, n_chunks, tail_symbols, tail_bits = r.unpack("<QQQQ")

    (alphabet,) = r.unpack("<I")
    lengths = r.array(np.uint8, alphabet)
    if (
        book is not None
        and book.n_symbols == int(alphabet)
        and np.array_equal(book.lengths, lengths)
    ):
        pass  # registry hit: skip the canonical rebuild
    else:
        book = canonical_codes(lengths)

    chunk_bits = r.array(np.uint32, n_chunks).astype(np.int64)
    payload = np.frombuffer(r.blob(), dtype=np.uint8)
    offsets = np.zeros(n_chunks + 1, dtype=np.int64)
    np.cumsum((chunk_bits + 7) // 8, out=offsets[1:])
    if int(offsets[-1]) != payload.size:
        raise ValueError("payload size disagrees with chunk bit lengths")

    n_cells, group, nnz = r.unpack("<QII")
    indices = r.array(np.uint32, nnz)
    bit_lengths = r.array(np.uint16, nnz)
    bpayload = np.frombuffer(r.blob(), dtype=np.uint8)
    bits64 = bit_lengths.astype(np.int64)
    boffsets = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum((bits64 + 7) // 8, out=boffsets[1:])
    if int(boffsets[-1]) != bpayload.size:
        raise ValueError("breaking payload size disagrees with bit lengths")
    breaking = BreakingStore(
        n_cells=int(n_cells), group_symbols=int(group),
        cell_indices=indices, bit_lengths=bit_lengths,
        payload=bpayload, payload_offsets=boffsets,
    )

    tail_payload = np.frombuffer(r.blob(), dtype=np.uint8)
    tuning = EncoderTuning(magnitude, red, word_bits)

    # -- structural invariants (adversarial-input hardening) -------------
    # A flipped size field must be rejected *before* the decoder sizes
    # its output from it: every declared symbol costs at least one code
    # bit, chunks are exactly 2^M symbols, and the breaking side channel
    # must agree with the chunk geometry.
    if int(n_symbols) != int(n_chunks) * tuning.chunk_symbols + int(
        tail_symbols
    ):
        raise ValueError("n_symbols disagrees with chunk geometry")
    if int(tail_symbols) >= tuning.chunk_symbols:
        raise ValueError("tail as large as a chunk")
    if int(tail_symbols) > int(tail_bits):
        raise ValueError("tail symbols exceed tail bits")
    if (int(tail_bits) + 7) // 8 != tail_payload.size:
        raise ValueError("tail payload size disagrees with tail bits")
    total_bits = int(chunk_bits.sum()) + int(bits64.sum()) + int(tail_bits)
    if int(n_symbols) > total_bits:
        raise ValueError("declared symbols exceed encoded bits")
    if int(n_cells) != int(n_chunks) * tuning.cells_per_chunk:
        raise ValueError("breaking cell count disagrees with chunks")
    if int(group) != tuning.group_symbols:
        raise ValueError("breaking group size disagrees with tuning")
    if int(nnz) > int(n_cells):
        raise ValueError("more broken cells than cells")
    idx64 = indices.astype(np.int64)
    if idx64.size and (
        int(idx64[-1]) >= int(n_cells) or np.any(np.diff(idx64) <= 0)
    ):
        raise ValueError("breaking cell indices unsorted or out of range")

    stream = EncodedStream(
        tuning=tuning,
        n_symbols=int(n_symbols),
        chunk_bits=chunk_bits,
        payload=payload,
        chunk_offsets=offsets,
        breaking=breaking,
        tail_payload=tail_payload,
        tail_bits=int(tail_bits),
        tail_symbols=int(tail_symbols),
    )
    return stream, book


def serialize_adaptive(result, book: CanonicalCodebook) -> bytes:
    """Container for the per-chunk-adaptive encoder's output.

    Layout: adaptive magic | version | M | word_bits | n_symbols |
    n_chunks | tail meta | codebook | chunk_r bytes | one
    length-prefixed :func:`serialize_stream` blob per distinct r
    (ascending), each over that r's chunks.
    """
    from repro.core.adaptive import AdaptiveEncodeResult

    if not isinstance(result, AdaptiveEncodeResult):
        raise TypeError("serialize_adaptive expects an AdaptiveEncodeResult")
    parts = [
        ADAPTIVE_MAGIC,
        struct.pack("<BBB", FORMAT_VERSION, result.magnitude,
                    result.word_bits),
        struct.pack("<QQQQ", result.n_symbols, result.n_chunks,
                    result.tail_symbols, result.tail_bits),
        serialize_codebook(book),
        result.chunk_r.astype(np.uint8).tobytes(),
        struct.pack("<I", len(result.group_streams)),
    ]
    for r in sorted(result.group_streams):
        parts.append(struct.pack("<B", r))
        parts.append(_blob(serialize_stream(result.group_streams[r], book)))
    parts.append(_blob(result.tail_payload.tobytes()))
    return b"".join(parts)


@container_guard
def deserialize_adaptive(buf: bytes):
    """Inverse of :func:`serialize_adaptive`.

    Returns ``(AdaptiveEncodeResult, CanonicalCodebook)``; group chunk
    ids are reconstructed from the per-chunk r table.
    """
    from repro.core.adaptive import AdaptiveEncodeResult

    r = _Reader(buf)
    if r.take(4) != ADAPTIVE_MAGIC:
        raise ValueError("not an adaptive container (bad magic)")
    version, magnitude, word_bits = r.unpack("<BBB")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    n_symbols, n_chunks, tail_symbols, tail_bits = r.unpack("<QQQQ")
    (alphabet,) = r.unpack("<I")
    book = canonical_codes(r.array(np.uint8, alphabet))
    chunk_r = r.array(np.uint8, n_chunks)
    (n_groups,) = r.unpack("<I")
    group_streams = {}
    group_chunks = {}
    for _ in range(n_groups):
        (rv,) = r.unpack("<B")
        stream, _book2 = deserialize_stream(r.blob())
        group_streams[int(rv)] = stream
        group_chunks[int(rv)] = np.flatnonzero(chunk_r == rv)
    tail_payload = np.frombuffer(r.blob(), dtype=np.uint8).copy()
    # sanity: every chunk's r has a stream and counts line up
    for rv, ids in group_chunks.items():
        if rv not in group_streams:
            raise ValueError("chunk_r references a missing group stream")
        expect = ids.size * (1 << magnitude)
        if group_streams[rv].n_symbols != expect:
            raise ValueError("group stream size disagrees with chunk table")
    # structural invariants mirroring deserialize_stream's hardening
    if int(n_symbols) != int(n_chunks) * (1 << int(magnitude)) + int(
        tail_symbols
    ):
        raise ValueError("n_symbols disagrees with chunk geometry")
    if int(tail_symbols) >= (1 << int(magnitude)):
        raise ValueError("tail as large as a chunk")
    if int(tail_symbols) > int(tail_bits):
        raise ValueError("tail symbols exceed tail bits")
    if (int(tail_bits) + 7) // 8 != tail_payload.size:
        raise ValueError("tail payload size disagrees with tail bits")
    result = AdaptiveEncodeResult(
        magnitude=int(magnitude),
        word_bits=int(word_bits),
        n_symbols=int(n_symbols),
        chunk_r=chunk_r,
        group_streams=group_streams,
        group_chunks=group_chunks,
        tail_payload=tail_payload,
        tail_bits=int(tail_bits),
        tail_symbols=int(tail_symbols),
        costs=[],
        avg_bits=0.0,
    )
    return result, book
