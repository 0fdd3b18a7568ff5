"""Multiprocess chunk-sharded encoding over shared memory.

Chunks are independent by construction (every encoder stage is
chunk-local — the property the paper exploits for SIMT parallelism), so
the host encode shards perfectly across *processes*: each worker packs
a contiguous run of whole chunks through the serial encoder's own
``_pack_chunks``, and the parent concatenates the runs (byte-aligned
chunk payloads, rebased breaking side channels) and finishes through
its ``_finish_encode`` (tail, stream, modeled costs, counters).  The
pool itself is only fork and merge.  Because the shard boundary always
falls on a chunk boundary, the assembled
:class:`~repro.core.bitstream.EncodedStream` is **bit-for-bit identical
to the serial encode for any worker count** — the invariant the
conformance matrix and tests/test_chunk_parallel_encode.py pin down.

Input travels through :mod:`multiprocessing.shared_memory`: the parent
copies the symbol block into one shared segment (a single memcpy) and
every worker maps it read-only at zero additional cost — nothing is
pickled per shard except the tiny (codebook, tuning, bounds) tuple.
Shard outputs (dense payload slabs, chunk bit counts, breaking side
channels) return through the regular result pipe; they are compressed,
so the transfer is a fraction of the input.

Failure containment mirrors the serve layer's shard pool: *any* worker
failure — a crashed process, a poisoned fork, an injected fault — makes
:func:`parallel_encode` fall back to the serial in-process encoder,
which either produces the identical stream or raises the identical
user-facing error.  The fallback is counted
(``repro_encode_parallel_fallback_total``) so operators can see a pool
that is silently degrading to serial.

Engagement rule: the process pool only pays off when the input dwarfs
the fork+pickle overhead, so inputs below ``PARALLEL_THRESHOLD_BYTES``
(or ``workers <= 1``, or fewer chunks than workers) short-circuit to
:func:`~repro.core.encoder.gpu_encode` untouched.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.breaking import merge_breaking_stores
from repro.core.encoder import (
    GpuEncodeResult,
    PackedChunks,
    _finish_encode,
    _pack_chunks,
    _record_encode,
    _resolve_tuning,
    _scan_symbol_stats,
    gpu_encode,
)
from repro.core.scan_pack import analytic_moved_words
from repro.core.tuning import DEFAULT_MAGNITUDE, EncoderTuning
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import metrics as _metrics
from repro.obs import span as _span

__all__ = [
    "PARALLEL_THRESHOLD_BYTES",
    "default_workers",
    "parallel_encode",
]

#: inputs below this size never engage the process pool (fork + result
#: pickling costs ~ms; a 4 MiB block encodes in ~tens of ms serially)
PARALLEL_THRESHOLD_BYTES = 4 << 20


def default_workers() -> int:
    """Worker processes: one per core, capped — sharding past a few
    workers only adds result-assembly overhead on host-sized blocks."""
    return max(1, min(4, os.cpu_count() or 1))


def _encode_shard(task) -> PackedChunks:
    """Worker body: map the shared block, pack one chunk range.

    Runs in a forked process; tracer spans and metric counters emitted
    here land in the worker's private registries and are intentionally
    discarded — the parent counts the merged totals so the serial and
    parallel paths report identical metrics.
    """
    from multiprocessing import shared_memory

    (shm_name, dtype_str, total, start, stop, book, tuning, inject) = task
    if inject:
        raise RuntimeError("injected shard failure (test hook)")
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        block = np.ndarray((total,), dtype=np.dtype(dtype_str),
                           buffer=shm.buf)
        return _pack_chunks(block[start:stop], book, tuning)
    finally:
        shm.close()


def _merge_shards(
    parts: list[PackedChunks], tuning: EncoderTuning
) -> PackedChunks:
    """The shards' chunk runs, concatenated in order into one run."""
    chunk_bits = np.concatenate([p.chunk_bits for p in parts])
    offsets = np.zeros(chunk_bits.size + 1, dtype=np.int64)
    np.cumsum((chunk_bits + 7) // 8, out=offsets[1:])
    return PackedChunks(
        chunk_bits=chunk_bits,
        payload=np.concatenate([p.payload for p in parts]),
        offsets=offsets,
        breaking=merge_breaking_stores(
            [p.breaking for p in parts],
            [p.breaking.n_cells for p in parts],
            tuning.group_symbols,
        ),
        moved_words=analytic_moved_words(
            chunk_bits.size, tuning.shuffle_factor
        ),
    )


def _shard_bounds(n_full: int, workers: int) -> list[tuple[int, int]]:
    """Split ``n_full`` chunks into ``<= workers`` contiguous runs."""
    per = -(-n_full // workers)  # ceil
    return [
        (lo, min(lo + per, n_full)) for lo in range(0, n_full, per)
    ]


def parallel_encode(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None = None,
    magnitude: int = DEFAULT_MAGNITUDE,
    reduction_factor: int | None = None,
    word_bits: int = 32,
    device: DeviceSpec = V100,
    workers: int | None = None,
    threshold_bytes: int = PARALLEL_THRESHOLD_BYTES,
    _inject_failure: int | None = None,
) -> GpuEncodeResult:
    """Encode ``data``, sharding whole chunks across worker processes.

    Drop-in compatible with :func:`~repro.core.encoder.gpu_encode` and
    guaranteed to return a bit-identical stream with identical modeled
    costs for every ``workers`` value (including the serial fallback).
    ``_inject_failure`` makes the given shard index raise inside its
    worker — the chaos hook tests use to prove the serial fallback.
    """
    data = np.asarray(data)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or data.nbytes < threshold_bytes:
        return gpu_encode(
            data, book, tuning=tuning, magnitude=magnitude,
            reduction_factor=reduction_factor, word_bits=word_bits,
            device=device,
        )
    try:
        return _parallel_encode_body(
            data, book, tuning, magnitude, reduction_factor, word_bits,
            device, workers, _inject_failure,
        )
    except (ValueError, TypeError, IndexError):
        raise  # user errors (bad symbols, bad shapes): not a pool fault
    except Exception:
        _metrics().counter("repro_encode_parallel_fallback_total").inc()
        return gpu_encode(
            data, book, tuning=tuning, magnitude=magnitude,
            reduction_factor=reduction_factor, word_bits=word_bits,
            device=device,
        )


def _parallel_encode_body(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None,
    magnitude: int,
    reduction_factor: int | None,
    word_bits: int,
    device: DeviceSpec,
    workers: int,
    inject: int | None,
) -> GpuEncodeResult:
    import multiprocessing
    from multiprocessing import shared_memory

    # global stats drive the (M, r) choice exactly like the serial path:
    # a per-shard average would pick shard-dependent tunings and break
    # worker-count independence of the bitstream
    avg_bits = _scan_symbol_stats(data, book)
    tuning = _resolve_tuning(
        tuning, magnitude, reduction_factor, word_bits, avg_bits
    )
    N = tuning.chunk_symbols
    n_full = data.size // N
    if n_full < workers:
        return gpu_encode(data, book, tuning=tuning, device=device)
    n_main = n_full * N
    main = np.ascontiguousarray(data[:n_main])

    bounds = _shard_bounds(n_full, workers)
    ctx = multiprocessing.get_context("fork")  # raises on exotic hosts
    with _span("encode.parallel", shards=len(bounds), chunks=n_full,
               bytes_in=int(data.nbytes)) as par_span:
        shm = shared_memory.SharedMemory(create=True, size=main.nbytes)
        try:
            buf = np.ndarray(main.shape, dtype=main.dtype, buffer=shm.buf)
            buf[:] = main  # the single copy-in; workers map, not copy
            tasks = [
                (shm.name, main.dtype.str, main.size, lo * N, hi * N,
                 book, tuning, inject == k)
                for k, (lo, hi) in enumerate(bounds)
            ]
            with ctx.Pool(processes=len(bounds)) as pool:
                parts = pool.map(_encode_shard, tasks)
        finally:
            shm.close()
            shm.unlink()

        result = _finish_encode(
            data, book, tuning, _merge_shards(parts, tuning), avg_bits
        )
    _record_encode(par_span, data, result)
    return result
