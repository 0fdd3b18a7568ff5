"""Coarse-grained chunk-parallel decoder (the cuSZ deployment path).

The paper chunks data during encoding explicitly "because it will
facilitate the reverse process, decoding": every chunk's dense bitstream
is independently decodable, so decoding parallelizes trivially at chunk
granularity (one thread/block per chunk), with the treeless canonical
First/Entry scheme inside each chunk.

On the host this is now real, not just modeled: the lanes of the
container (chunks, broken cells, tail) are decoded by the vectorized
batch decoder (:func:`repro.huffman.decoder.decode_lanes`), optionally
sharded across a ``concurrent.futures`` thread pool so large containers
decode chunk-parallel on the CPU as well.  The structural cost record —
per-chunk serial decode work, reverse-codebook caching in shared memory
— still models the GPU-side throughput.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.bitstream import (
    EncodedStream,
    assemble_stream_symbols,
    stream_lanes,
)
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.cache import cached_decode_table
from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import DecodeTable, decode_lanes
from repro.obs import metrics as _metrics
from repro.obs import span as _span

__all__ = ["ChunkDecodeResult", "chunk_parallel_decode", "parallel_decode_stream"]

#: per-symbol cycles of the treeless canonical decode loop on one thread
_DECODE_CYCLES = 30.0

#: below this many symbols the pool overhead dominates; stay single-shot
_MIN_SYMBOLS_PER_WORKER = 1 << 18


def _auto_workers(total_symbols: int, n_lanes: int) -> int:
    cpus = os.cpu_count() or 1
    by_volume = int(total_symbols // _MIN_SYMBOLS_PER_WORKER)
    return max(1, min(4, cpus, by_volume, n_lanes))


def _shard_bounds(weights: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Split lanes into contiguous shards with balanced weight volume.

    ``weights`` is per-lane decode work: symbol counts for the lane
    decoder, subchunk counts for the gap decoder (its two passes scale
    with subchunks, and a symbol-balanced split would starve shards of
    lanes whose chunks compress densely).  Shards cover whole lanes, so
    the concatenated output is identical for every worker count.
    """
    cum = np.cumsum(weights)
    total = int(cum[-1]) if cum.size else 0
    bounds, lo = [], 0
    for w in range(1, workers + 1):
        hi = int(np.searchsorted(cum, total * w // workers, side="left")) + 1
        hi = min(max(hi, lo), weights.size)
        if w == workers:
            hi = weights.size
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


#: test hook: shard indices forced to fail inside the pool, exercising
#: the serial-fallback path without real crashes
_fail_shards: set = set()


def parallel_decode_stream(
    stream: EncodedStream,
    book: CanonicalCodebook,
    table: DecodeTable | None = None,
    workers: int | None = None,
    impl: str = "auto",
) -> np.ndarray:
    """Decode a container with lane shards batched across a thread pool.

    ``workers=None`` sizes the pool automatically (1 for small inputs —
    the single-shot vectorized call already saturates one core).
    ``impl`` picks the per-shard machinery: ``"lanes"`` (the lock-step
    batch decoder), ``"gap"`` (the two-pass gap-array decoder), or
    ``"auto"`` (gap when the native kernel is available and the
    container is large enough).  Shards are contiguous
    lane ranges balanced by decode work at the active impl's
    granularity; every shard reads the shared read-only buffer and
    decodes whole lanes, so results are bit-identical regardless of
    ``workers`` and ``impl``.
    A shard crash falls back to one serial decode of the full container.
    """
    if table is None:
        table = cached_decode_table(book)
    if impl not in ("auto", "gap", "lanes"):
        raise ValueError(f"unknown decode impl: {impl!r}")
    from repro.decoder import gap_array, gap_native

    with _span("decode.chunk_parallel",
               bytes_in=int(stream.payload_bytes),
               n_symbols=int(stream.n_symbols),
               chunks=stream.n_chunks) as sp:
        buffer, starts, ends, nsyms = stream_lanes(stream)
        total_syms = int(nsyms.sum())
        use_gap = impl == "gap" or (
            impl == "auto"
            and gap_native.native_available()
            and total_syms >= gap_array.AUTO_MIN_SYMBOLS
        )
        if use_gap:
            # one subchunk width for every shard: shard outputs (and the
            # gap side channel) don't depend on how lanes were sharded
            S = gap_array.DEFAULT_SUBCHUNK_BITS
            weights = gap_array.subchunk_lane_counts(ends - starts, S)

            def _decode(s, e, ns):
                return gap_array.gap_decode_lanes(
                    buffer, s, e, ns, book, table, subchunk_bits=S
                ).symbols

        else:
            weights = nsyms

            def _decode(s, e, ns):
                return decode_lanes(buffer, s, e, ns, book, table)

        w = workers if workers is not None else _auto_workers(
            total_syms, nsyms.size
        )
        reg = _metrics()
        reg.gauge("repro_decode_pool_workers").set(w)
        sp.set_attr(impl="gap" if use_gap else "lanes")
        if w <= 1 or nsyms.size < 2:
            sp.set_attr(workers=1, shards=1, lanes=int(nsyms.size))
            reg.counter("repro_decode_shards_total").inc()
            decoded = _decode(starts, ends, nsyms)
        else:
            bounds = _shard_bounds(weights, w)
            sp.set_attr(workers=w, shards=len(bounds), lanes=int(nsyms.size))
            reg.counter("repro_decode_shards_total").inc(len(bounds))

            def _shard(ibe):
                i, (lo, hi) = ibe
                with _span("decode.shard", lanes=hi - lo):
                    if i in _fail_shards:
                        raise RuntimeError(f"injected shard failure {i}")
                    return _decode(
                        starts[lo:hi], ends[lo:hi], nsyms[lo:hi]
                    )

            try:
                with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
                    parts = list(pool.map(_shard, enumerate(bounds)))
                decoded = (np.concatenate(parts) if parts
                           else np.empty(0, np.int64))
            except ValueError:
                raise  # corrupt container: surface, don't re-decode
            except Exception:
                # a crashed shard must not kill the decode: run the
                # serial reference once over the whole container
                reg.counter("repro_decode_parallel_fallback_total").inc()
                with _span("decode.serial_fallback", lanes=int(nsyms.size)):
                    decoded = decode_lanes(
                        buffer, starts, ends, nsyms, book, table
                    )
        with _span("decode.assemble", broken=stream.breaking.nnz):
            out = assemble_stream_symbols(stream, decoded)
        sp.set_attr(bytes_out=int(out.nbytes))
    return out


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
    workers: int | None = None,
    impl: str = "auto",
) -> ChunkDecodeResult:
    """Decode an encoded stream chunk-parallel, with cost accounting."""
    if table is None:
        table = cached_decode_table(book)
    symbols = parallel_decode_stream(
        stream, book, table, workers=workers, impl=impl
    )

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
