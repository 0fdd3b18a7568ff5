"""Coarse-grained chunk-parallel decoder (the cuSZ deployment path).

The paper chunks data during encoding explicitly "because it will
facilitate the reverse process, decoding": every chunk's dense bitstream
is independently decodable, so decoding parallelizes trivially at chunk
granularity (one thread/block per chunk), with the treeless canonical
First/Entry scheme inside each chunk.

On the host the symbols come from
:func:`repro.core.bitstream.decode_stream`, whose lanes (chunks, broken
cells, tail) run through the gap-array decoder.  The structural cost
record — per-chunk serial decode work, reverse-codebook caching in
shared memory — models the GPU-side throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitstream import EncodedStream, decode_stream
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import DecodeTable

__all__ = ["ChunkDecodeResult", "chunk_parallel_decode"]

#: per-symbol cycles of the treeless canonical decode loop on one thread
_DECODE_CYCLES = 30.0


@dataclass
class ChunkDecodeResult:
    symbols: np.ndarray
    cost: KernelCost

    def modeled_gbps(self, device: DeviceSpec, output_bytes: float,
                     scale: float = 1.0) -> float:
        from repro.cuda.costmodel import CostModel

        secs = CostModel(device).time(self.cost.scaled(scale)).seconds
        return output_bytes * scale / secs / 1e9 if secs else float("inf")


def chunk_parallel_decode(
    stream: EncodedStream,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
    device: DeviceSpec = V100,
) -> ChunkDecodeResult:
    """Decode an encoded stream chunk-parallel, with cost accounting."""
    symbols = decode_stream(stream, book, table)

    # structural cost: coalesced read of the payload + reverse codebook,
    # then per-chunk serial symbol emission (coarse: whole warps idle
    # behind each thread's data-dependent loop -> divergence-like factor
    # folded into the cycle charge)
    n = symbols.size
    cost = KernelCost(
        name="dec.chunk_parallel",
        bytes_coalesced=float(stream.payload_bytes + book.nbytes()),
        bytes_random=float(n * symbols.dtype.itemsize),
        launches=1,
        compute_cycles=float(n) * _DECODE_CYCLES,
        mem_compute_overlap=False,  # the decode loop chains on its loads
        meta={"chunks": stream.n_chunks,
              "breaking": stream.breaking.nnz},
    )
    return ChunkDecodeResult(symbols=symbols, cost=cost)
