"""Bounded-memory streaming encoder (two-pass, block-oriented).

HPC producers emit data in timestep-sized blocks that can dwarf device
memory; the paper's pipeline handles this naturally because every stage
is chunk-local.  This module packages that property as a two-phase
streaming API:

- **pass 1**: feed blocks; a running histogram accumulates (the
  privatized kernel per block + one running reduction);
- ``finalize()``: build the canonical codebook once (two-phase parallel
  construction);
- **pass 2**: feed the same blocks again; each becomes an independently
  decodable segment (its own chunked container), so peak memory is one
  block plus the codebook.

``StreamingDecoder`` walks the segments back.  Segment independence also
gives free parallelism across files/timesteps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.bitstream import EncodedStream, decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    deserialize_stream,
    serialize_stream,
)
from repro.core.tuning import DEFAULT_MAGNITUDE
from repro.cuda.device import DeviceSpec, V100
from repro.histogram.large_alphabet import histogram_any
from repro.huffman.cache import cached_decode_table
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import span as _span

__all__ = ["StreamingEncoder", "StreamingDecoder", "SegmentInfo"]


@dataclass(frozen=True)
class SegmentInfo:
    n_symbols: int
    compressed_bytes: int
    breaking_fraction: float


class StreamingEncoder:
    """Two-pass block encoder with a shared codebook.

    Usage::

        enc = StreamingEncoder(num_symbols=1024)
        for block in blocks:          # pass 1
            enc.observe(block)
        enc.finalize()
        segments = [enc.encode_block(b) for b in blocks]   # pass 2
    """

    def __init__(
        self,
        num_symbols: int,
        magnitude: int = DEFAULT_MAGNITUDE,
        device: DeviceSpec = V100,
    ):
        self.num_symbols = int(num_symbols)
        self.magnitude = magnitude
        self.device = device
        self._hist = np.zeros(self.num_symbols, dtype=np.int64)
        self._book: CanonicalCodebook | None = None
        self._observed = 0
        self.segments: list[SegmentInfo] = []

    # ------------------------------------------------------------ pass 1
    def observe(self, block: np.ndarray) -> None:
        """Accumulate a block's histogram (pass 1)."""
        if self._book is not None:
            raise RuntimeError("codebook already finalized")
        block = np.asarray(block)
        with _span("streaming.observe", bytes_in=int(block.nbytes)):
            res = histogram_any(block, self.num_symbols, self.device)
            self._hist += res.histogram
            self._observed += block.size

    def finalize(self) -> CanonicalCodebook:
        """Build the shared canonical codebook from the running histogram."""
        if self._book is not None:
            return self._book
        if self._observed == 0:
            raise RuntimeError("no data observed before finalize()")
        with _span("streaming.finalize", observed=self._observed):
            self._book = parallel_codebook(
                self._hist, device=self.device
            ).codebook
        return self._book

    # ------------------------------------------------------------ pass 2
    @property
    def codebook(self) -> CanonicalCodebook:
        if self._book is None:
            raise RuntimeError("finalize() the encoder first")
        return self._book

    def encode_block(self, block: np.ndarray) -> bytes:
        """Encode one block into a self-contained segment (pass 2)."""
        block = np.asarray(block)
        with _span("streaming.encode_block", bytes_in=int(block.nbytes)) as sp:
            enc = gpu_encode(
                block, self.codebook, magnitude=self.magnitude,
                device=self.device,
            )
            seg = serialize_stream(enc.stream, self.codebook)
            sp.set_attr(bytes_out=len(seg))
        self.segments.append(SegmentInfo(
            n_symbols=int(block.size),
            compressed_bytes=len(seg),
            breaking_fraction=enc.breaking_fraction,
        ))
        return seg

    # ------------------------------------------------------------- stats
    @property
    def total_compressed_bytes(self) -> int:
        return sum(s.compressed_bytes for s in self.segments)

    def compression_ratio(self, input_bytes: int) -> float:
        out = self.total_compressed_bytes
        return input_bytes / out if out else float("inf")


class StreamingDecoder:
    """Decode the segments a :class:`StreamingEncoder` produced.

    Every segment carries the same shared codebook; the decode-table
    cache (:mod:`repro.huffman.cache`) is keyed by the codebook's
    *content* digest, so the k-bit LUT is built once for the first
    segment and every later segment — and every later timestep with the
    same distribution — reuses it, even though ``deserialize_stream``
    returns a fresh codebook object each time.
    """

    def __init__(self) -> None:
        self.symbols_decoded = 0
        # decode_segment is called concurrently by the serve layer's
        # worker shards; the counter update must not race
        self._count_lock = threading.Lock()

    def decode_segment(self, segment: bytes, book=None) -> np.ndarray:
        """Decode one segment.

        ``book`` is the codebook-registry fast path: when the serve
        layer resolves the segment's header peek against a registered
        book (:mod:`repro.codebooks`), the codebook section is verified
        instead of rebuilt and the registered book's already-cached
        k-bit LUT is fed straight to the decoder.
        """
        if book is not None and hasattr(book, "book"):  # RegisteredCodebook
            book = book.book
        with _span("streaming.decode_segment", bytes_in=len(segment),
                   registry_hit=book is not None) as sp:
            stream, book = deserialize_stream(segment, book=book)
            out = decode_stream(stream, book,
                                table=cached_decode_table(book))
            sp.set_attr(bytes_out=int(out.nbytes))
        with self._count_lock:
            self.symbols_decoded += out.size
        return out

    def decode_all(self, segments: list[bytes]) -> np.ndarray:
        if not segments:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.decode_segment(s) for s in segments])
