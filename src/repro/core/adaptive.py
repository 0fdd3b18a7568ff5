"""Per-chunk adaptive reduction factor (the paper's stated future work).

§VII: "We plan to further optimize the performance for low-compression-
ratio data to handle the breaking points."  A global reduction factor is
chosen from the *global* average bitwidth, but real data is
heterogeneous: a file can interleave highly-compressible regions (where a
deep ``r`` is free) with dense regions (where the same ``r`` makes most
merge cells overflow the 32-bit word and spill to the side channel).

This extension decides ``r`` *per chunk* from the chunk's own average
codeword bitwidth — a cheap classification pass over the per-chunk code
lengths (one segmented reduction) — and then packs the chunks that
chose each distinct ``r`` in one pass of the encoder's shared chunk
packer (the compiled scan-pack when it loads).  Chunks keep their
identity, so decoding remains chunk-parallel; the container stores one
extra byte per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.breaking import breaking_costs
from repro.core.bitstream import EncodedStream, decode_stream
from repro.core.encoder import _pack_chunks
from repro.core.scan_pack import checked_lengths
from repro.core.tuning import (
    DEFAULT_MAGNITUDE,
    EMPIRICAL_MAX_REDUCTION,
    EncoderTuning,
    choose_reduction_factor,
)
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import decode_batch
from repro.utils.bits import pack_codewords

__all__ = ["AdaptiveEncodeResult", "adaptive_encode", "adaptive_decode"]


@dataclass
class AdaptiveEncodeResult:
    """Encoded output with one reduction factor per chunk."""

    magnitude: int
    word_bits: int
    n_symbols: int
    chunk_r: np.ndarray  # uint8 per full chunk
    #: one EncodedStream per distinct r, over that r's chunks only
    group_streams: dict[int, EncodedStream]
    #: chunk ids (in original order) belonging to each r
    group_chunks: dict[int, np.ndarray]
    tail_payload: np.ndarray
    tail_bits: int
    tail_symbols: int
    costs: list[KernelCost]
    avg_bits: float

    @property
    def n_chunks(self) -> int:
        return int(self.chunk_r.size)

    @property
    def breaking_fraction(self) -> float:
        cells = sum(s.breaking.n_cells for s in self.group_streams.values())
        nnz = sum(s.breaking.nnz for s in self.group_streams.values())
        return nnz / cells if cells else 0.0

    @property
    def payload_bytes(self) -> int:
        return int(
            sum(s.payload_bytes for s in self.group_streams.values())
            + self.tail_payload.nbytes
        )

    @property
    def compressed_bytes(self) -> int:
        meta = self.n_chunks  # one r byte per chunk
        return (
            self.payload_bytes + meta
            + sum(s.metadata_bytes for s in self.group_streams.values())
        )

    def compression_ratio(self, input_bytes: int) -> float:
        return input_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    def modeled_seconds(self, device: DeviceSpec, scale: float = 1.0) -> float:
        from repro.cuda.costmodel import CostModel

        model = CostModel(device)
        return sum(model.time(c.scaled(scale)).seconds for c in self.costs)

    def modeled_gbps(self, device: DeviceSpec, input_bytes: float,
                     scale: float = 1.0) -> float:
        secs = self.modeled_seconds(device, scale)
        return input_bytes * scale / secs / 1e9 if secs else float("inf")


def adaptive_encode(
    data: np.ndarray,
    book: CanonicalCodebook,
    magnitude: int = DEFAULT_MAGNITUDE,
    word_bits: int = 32,
    max_r: int = EMPIRICAL_MAX_REDUCTION,
    device: DeviceSpec = V100,
) -> AdaptiveEncodeResult:
    """Encode with a per-chunk reduction factor.

    Each full chunk's ``r`` comes from its own average codeword bitwidth
    via the paper's rule (with the empirical cap); each group of chunks
    sharing an ``r`` is then packed in one pass of the encoder's shared
    chunk packer.
    """
    data = np.asarray(data)
    lens = checked_lengths(data, book).astype(np.int64)
    N = 1 << magnitude
    n_full = data.size // N
    n_main = n_full * N
    avg_bits = float(lens.sum() / data.size) if data.size else 0.0

    # -- per-chunk classification (one segmented reduction) ---------------
    chunk_beta = lens[:n_main].reshape(n_full, N).sum(axis=1) / N
    chunk_r = np.array(
        [choose_reduction_factor(max(float(b), 1e-9), word_bits,
                                 magnitude, max_r)
         for b in chunk_beta],
        dtype=np.uint8,
    )
    classify_cost = KernelCost(
        name="enc.adaptive_classify",
        bytes_coalesced=float(lens[:n_main].nbytes + n_full * 16),
        launches=1,
        compute_cycles=float(n_main) * 1.0,
        meta={"chunks": n_full},
    )

    # -- one chunk pack per distinct r -------------------------------------
    group_streams: dict[int, EncodedStream] = {}
    group_chunks: dict[int, np.ndarray] = {}
    costs: list[KernelCost] = [classify_cost]
    chunks = data[:n_main].reshape(n_full, N)
    for r in sorted(set(chunk_r.tolist())):
        ids = np.flatnonzero(chunk_r == r)
        tuning = EncoderTuning(magnitude, r, word_bits)
        n_group = ids.size * N
        packed = _pack_chunks(chunks[ids].ravel(), book, tuning)
        group_streams[r] = EncodedStream(
            tuning=tuning,
            n_symbols=n_group,
            chunk_bits=packed.chunk_bits,
            payload=packed.payload,
            chunk_offsets=packed.offsets,
            breaking=packed.breaking,
        )
        group_chunks[r] = ids
        costs.append(KernelCost(
            name=f"enc.reduce_shuffle_merge[r={r}]",
            bytes_coalesced=float(n_group * data.dtype.itemsize
                                  + packed.payload.nbytes),
            launches=1,
            compute_cycles=(
                6.0 * n_group
                + 12.0 * n_group * (1.0 - 0.5 ** r)
                + 40.0 * packed.moved_words
            ),
            meta={"r": r, "chunks": int(ids.size),
                  "breaking_fraction": packed.breaking.breaking_fraction},
        ))
        costs.extend(breaking_costs(packed.breaking))

    tail_buf, tail_bits = pack_codewords(
        book.codes[data[n_main:]], lens[n_main:]
    )
    return AdaptiveEncodeResult(
        magnitude=magnitude,
        word_bits=word_bits,
        n_symbols=int(data.size),
        chunk_r=chunk_r,
        group_streams=group_streams,
        group_chunks=group_chunks,
        tail_payload=tail_buf,
        tail_bits=tail_bits,
        tail_symbols=int(data.size - n_main),
        costs=costs,
        avg_bits=avg_bits,
    )


def adaptive_decode(
    result: AdaptiveEncodeResult, book: CanonicalCodebook
) -> np.ndarray:
    """Inverse of :func:`adaptive_encode`."""
    N = 1 << result.magnitude
    out = np.empty(result.n_symbols, dtype=np.int64)
    chunks = out[: result.n_chunks * N].reshape(result.n_chunks, N)
    for r, stream in result.group_streams.items():
        chunks[result.group_chunks[r]] = decode_stream(
            stream, book
        ).reshape(-1, N)
    if result.tail_symbols:
        out[result.n_chunks * N:] = decode_batch(
            result.tail_payload, result.tail_bits, book,
            result.tail_symbols,
        )
    return out
