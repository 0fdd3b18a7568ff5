"""The reduce-shuffle-merge GPU encoder (paper §IV-C).

Public entry point :func:`gpu_encode`, realizing the paper's kernel
interface ``ReduceShuffleMerge<M, r>(in, out, metadata)``:

1. codebook lookup fused with the first merge;
2. ``r`` REDUCE-merge iterations (:mod:`repro.core.reduce_merge`);
3. breaking-point backtrace + dense-to-sparse save
   (:mod:`repro.core.breaking`);
4. ``s = M - r`` SHUFFLE-merge iterations building each chunk's dense
   bitstream (:mod:`repro.core.shuffle_merge`);
5. a per-chunk code-length prefix sum and the final coalescing copy that
   packs chunk streams contiguously (the last two kernels of Table I).

Every host encoder packs its whole chunks through :func:`_pack_chunks`
(steps 1-4 plus the coalescing copy, as one scan-pack pass or as the
iterative kernels), and all but the adaptive one finish through
:func:`_encode_body` (tail, stream, costs).

The returned :class:`GpuEncodeResult` carries the decodable
:class:`~repro.core.bitstream.EncodedStream` plus the structural kernel
costs.  Cost constants below are the calibrated per-operation cycle
charges documented in EXPERIMENTS.md; all *counts* (symbols, merges,
moved words, breaking cells) come from the functional execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitstream import EncodedStream
from repro.core.breaking import (
    BreakingStore,
    breaking_costs,
    extract_breaking_symbols,
)
from repro.core.reduce_merge import reduce_merge
from repro.core.scan_pack import native_symbol_bits, scan_pack_symbols
from repro.core.shuffle_merge import shuffle_merge
from repro.core.tuning import (
    DEFAULT_MAGNITUDE,
    EMPIRICAL_MAX_REDUCTION,
    EncoderTuning,
    average_bitwidth,
)
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.cuda.launch import KernelInfo, register_kernel
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import metrics as _metrics
from repro.obs import span as _span
from repro.utils.bits import pack_codewords

__all__ = ["GpuEncodeResult", "gpu_encode", "ENCODE_IMPLS"]

register_kernel(KernelInfo(
    name="enc.blockwise_len",
    stage="Huffman enc.",
    granularity="coarse+fine",
    mapping="one-to-one",
    primitives=("prefix sum",),
    boundary="sync grid",
))
register_kernel(KernelInfo(
    name="enc.coalesce_copy",
    stage="Huffman enc.",
    granularity="coarse+fine",
    mapping="one-to-one",
    primitives=(),
    boundary="sync device",
))

# ---------------------------------------------------------------------------
# calibrated cost constants (see EXPERIMENTS.md, "Encoder cost constants")
# ---------------------------------------------------------------------------
#: shared-memory codebook lookup, cycles per symbol
_LOOKUP_CYCLES = 6.0
#: one pairwise REDUCE merge (shift+or+length add in shared/registers)
_MERGE_CYCLES = 12.0
#: one SHUFFLE word move: two-step deposit, bank conflicts, and the
#: factor-2 warp divergence of straddling group boundaries
_MOVE_CYCLES = 40.0
#: write-amplification of the dense output (shared-to-global staging plus
#: the read+write of the coalescing copy)
_OUTPUT_TRAFFIC_FACTOR = 3.0


def _occupancy_penalty(shuffle_factor: int) -> float:
    """Barrier-stall penalty of 2^s-thread blocks (Table II's collapse at
    magnitude 12 with small r), from the occupancy calculator: few
    resident blocks per SM leave nothing to schedule across the
    per-iteration block barriers."""
    from repro.cuda.occupancy import block_scheduling_penalty

    block = 1 << min(shuffle_factor, 10)
    extra = 0.25 * max(shuffle_factor - 10, 0)  # multi-block chunks
    return block_scheduling_penalty(block) + extra


def _deep_reduce_penalty(r: int) -> float:
    """r >= 4 serializes 16+ dependent merges per thread and spills
    registers; Table II shows r = 4 losing to r = 3 at every magnitude."""
    return 1.7 if r >= 4 else 1.0


@dataclass
class GpuEncodeResult:
    stream: EncodedStream
    costs: list[KernelCost]
    tuning: EncoderTuning
    avg_bits: float
    breaking_fraction: float
    input_bytes: int

    @property
    def total_cost(self) -> KernelCost:
        from repro.cuda.costmodel import combine_costs

        return combine_costs(self.costs, name="enc")

    def modeled_seconds(self, device: DeviceSpec, scale: float = 1.0) -> float:
        from repro.cuda.costmodel import CostModel

        model = CostModel(device)
        return sum(model.time(c.scaled(scale)).seconds for c in self.costs)

    def modeled_gbps(self, device: DeviceSpec, scale: float = 1.0) -> float:
        secs = self.modeled_seconds(device, scale)
        return self.input_bytes * scale / secs / 1e9 if secs else float("inf")


#: encoder implementations selectable via ``gpu_encode(..., impl=...)``
ENCODE_IMPLS = ("scan", "iterative")


def _symbol_lengths(
    data: np.ndarray,
    book: CanonicalCodebook,
) -> np.ndarray:
    """Per-symbol codeword lengths, or the error a bad symbol earns.

    The one NumPy symbol check the encode paths share.  It is
    ``book.lookup``'s length gather with lookup's own negative-symbol
    check, so an out-of-range symbol raises the same ``IndexError``
    either way.  A symbol without a codeword raises ``ValueError``.
    """
    book.reject_negative(data)
    lens = book.lengths[data]
    if data.size and int(lens.min()) == 0:
        bad = int(data[int(np.argmin(lens))])
        raise ValueError(f"symbol {bad} has no codeword (zero frequency)")
    return lens


def _scan_symbol_stats(
    data: np.ndarray,
    book: CanonicalCodebook,
) -> float:
    """Average codeword bitwidth, checking every symbol.

    The compiled length-sum pass when it runs (:func:`native_symbol_bits`);
    otherwise, and to raise a bad symbol's error, the length gather of
    :func:`_symbol_lengths`.  The same ``avg_bits`` (an integer total
    over an integer count) comes out either way.
    """
    if data.size == 0:
        return 0.0
    total = native_symbol_bits(data, book)
    if total is None:
        total = int(_symbol_lengths(data, book).sum(dtype=np.int64))
    return total / data.size


def _record_encode(
    enc_span, data: np.ndarray, result: "GpuEncodeResult"
) -> None:
    """The stage span's closing attributes and the encode counters,
    shared by every encode entry point."""
    enc_span.set_attr(
        bytes_out=int(result.stream.payload_bytes),
        avg_bits=round(result.avg_bits, 4),
        breaking_fraction=result.breaking_fraction,
        chunks=result.stream.n_chunks,
    )
    reg = _metrics()
    reg.counter("repro_encode_symbols_total").inc(int(data.size))
    reg.counter("repro_encode_bytes_in_total").inc(int(data.nbytes))
    reg.counter("repro_encode_bytes_out_total").inc(
        int(result.stream.payload_bytes)
    )
    if data.size:
        reg.histogram(
            "repro_encode_avg_bits",
            buckets=(2, 4, 6, 8, 12, 16, 24, 32),
        ).observe(result.avg_bits)


def gpu_encode(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None = None,
    magnitude: int = DEFAULT_MAGNITUDE,
    reduction_factor: int | None = None,
    word_bits: int = 32,
    device: DeviceSpec = V100,
    impl: str = "scan",
) -> GpuEncodeResult:
    """Encode ``data`` with the reduce-shuffle-merge scheme.

    ``tuning`` pins (M, r) explicitly; otherwise ``magnitude`` is used and
    ``r`` comes from the average-bitwidth rule (or ``reduction_factor``
    when given).  Every symbol must have a codeword in ``book``.

    ``impl`` selects the host execution strategy — the produced
    :class:`~repro.core.bitstream.EncodedStream` and the modeled kernel
    costs are bit-for-bit identical either way (enforced by the
    conformance matrix):

    - ``"iterative"`` — the paper-shaped r-reduce + s-shuffle pipeline;
    - ``"scan"`` (default) — the single-pass scan-pack
      (:mod:`repro.core.scan_pack`): the compiled stats and scan-pack
      passes of :mod:`repro.native` when that module loads, else their
      NumPy oracle, with the reason on the ``encode.scan_pack`` span.

    Both run the same stats pass, so a bad symbol raises the same error
    whichever runs.
    """
    if impl not in ENCODE_IMPLS:
        raise ValueError(f"impl must be one of {ENCODE_IMPLS}, got {impl!r}")
    data = np.asarray(data)
    enc_span = _span("encode.reduce_shuffle_merge",
                     bytes_in=int(data.nbytes), device=device.name,
                     impl=impl)
    with enc_span:
        with _span("encode.lookup", n_symbols=int(data.size)):
            avg_bits = _scan_symbol_stats(data, book)
        result = _encode_body(
            data, book, tuning, magnitude, reduction_factor, word_bits,
            avg_bits, impl,
        )
    _record_encode(enc_span, data, result)
    return result


def _resolve_tuning(
    tuning: EncoderTuning | None,
    magnitude: int,
    reduction_factor: int | None,
    word_bits: int,
    avg_bits: float,
) -> EncoderTuning:
    if tuning is not None:
        return tuning
    if reduction_factor is None:
        from repro.core.tuning import choose_reduction_factor

        reduction_factor = choose_reduction_factor(
            max(avg_bits, 1e-9), word_bits, magnitude,
            EMPIRICAL_MAX_REDUCTION,
        )
    return EncoderTuning(magnitude, reduction_factor, word_bits)


def _structural_costs(
    data: np.ndarray,
    stream: EncodedStream,
    tuning: EncoderTuning,
    n_full: int,
    moved_words: int,
    breaking_fraction: float,
    breaking: BreakingStore,
) -> list[KernelCost]:
    """Modeled kernel costs from structural counts only.

    Every input here (sizes, launch geometry, moved words, breaking
    fraction) is provably equal between the scan and iterative packs,
    so the modeled Table II/V numbers cannot drift with the host
    execution strategy.
    """
    r = tuning.reduction_factor
    s = tuning.shuffle_factor
    n_main = n_full * tuning.chunk_symbols
    in_bytes = float(data.nbytes)
    out_bytes = float(stream.payload_bytes)
    merges = float(n_main) * (1.0 - 0.5**r) if r else 0.0
    penalty = _occupancy_penalty(s) * _deep_reduce_penalty(r)
    fused = KernelCost(
        name="enc.reduce_shuffle_merge",
        bytes_coalesced=in_bytes + out_bytes,
        launches=1,
        compute_cycles=(
            _LOOKUP_CYCLES * data.size
            + _MERGE_CYCLES * merges
            + _MOVE_CYCLES * moved_words
        ) * penalty,
        divergence_factor=1.0,  # divergence folded into _MOVE_CYCLES
        meta={
            "M": tuning.magnitude,
            "r": r,
            "s": s,
            "chunks": n_full,
            "moved_words": moved_words,
            "breaking_fraction": breaking_fraction,
            "occupancy_penalty": _occupancy_penalty(s),
            "deep_reduce_penalty": _deep_reduce_penalty(r),
        },
    )
    blockwise = KernelCost(
        name="enc.blockwise_len",
        bytes_coalesced=float(n_full * 16),
        launches=1,
        compute_cycles=float(n_full) * 4.0,
        meta={"chunks": n_full},
    )
    coalesce = KernelCost(
        name="enc.coalesce_copy",
        bytes_coalesced=(_OUTPUT_TRAFFIC_FACTOR - 1.0) * out_bytes,
        launches=1,
        compute_cycles=out_bytes / 4.0,
        meta={},
    )
    return [fused, *breaking_costs(breaking), blockwise, coalesce]


@dataclass
class PackedChunks:
    """Whole chunks packed into the dense stream, before the tail."""

    chunk_bits: np.ndarray  # int64 dense bits per chunk
    payload: np.ndarray  # uint8, byte-aligned chunk slabs
    offsets: np.ndarray  # int64 byte offset per chunk, len = chunks + 1
    breaking: BreakingStore  # the broken cells' side channel
    moved_words: int  # SHUFFLE word moves the fused kernel is charged


def _pack_chunks(
    main: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    impl: str = "scan",
) -> PackedChunks:
    """Pack whole chunks (``main.size`` a multiple of the chunk size).

    The merge runs as one :func:`scan_pack_symbols` pass (``"scan"``) or
    as the paper's ``r`` REDUCE then ``s`` SHUFFLE iterations
    (``"iterative"``); both give the same words and bits.  Then the
    broken cells are backtraced into the side channel and the chunk
    slabs coalesced.  Every host encoder packs through here.
    """
    n_chunks = main.size // tuning.chunk_symbols
    if impl == "scan":
        with _span("encode.scan_pack", r=tuning.reduction_factor,
                   s=tuning.shuffle_factor, chunks=n_chunks) as scan_span:
            res = scan_pack_symbols(main, book, tuning)
        scan_span.set_attr(moved_words=res.merged.moved_words,
                           cells=res.n_cells, impl=res.impl)
        if res.fallback is not None:
            scan_span.set_attr(fallback=res.fallback)
        merged, broken = res.merged, res.broken
    else:
        with _span("encode.reduce_merge", r=tuning.reduction_factor,
                   chunks=n_chunks):
            codes, lens = book.lookup(main)
            red = reduce_merge(codes, lens.astype(np.int64),
                               tuning.reduction_factor, tuning.word_bits)
        with _span("encode.shuffle_merge", s=tuning.shuffle_factor,
                   chunks=n_chunks) as shuf_span:
            if red.broken.any():
                # zero broken cells *in place*: reduce_merge owns its
                # output buffers, and the side channel below re-gathers
                # the true bits from the symbols
                red.values[red.broken] = 0
                red.lengths[red.broken] = 0
            merged = shuffle_merge(red.values, red.lengths,
                                   tuning.cells_per_chunk, tuning.word_bits)
        shuf_span.set_attr(moved_words=merged.moved_words)
        broken = red.broken

    # -- breaking backtrace + sparse save ----------------------------------
    with _span("encode.breaking") as brk_span:
        breaking = extract_breaking_symbols(
            main, book, broken, tuning.group_symbols
        )
    brk_span.set_attr(nnz=breaking.nnz, fraction=breaking.breaking_fraction)

    # -- coalescing copy -----------------------------------------------------
    with _span("encode.coalesce") as co_span:
        payload, offsets = merged.payload()
    co_span.set_attr(bytes_out=int(payload.nbytes))
    return PackedChunks(
        chunk_bits=merged.bits,
        payload=payload,
        offsets=offsets,
        breaking=breaking,
        moved_words=merged.moved_words,
    )


def _encode_body(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None,
    magnitude: int,
    reduction_factor: int | None,
    word_bits: int,
    avg_bits: float,
    impl: str = "scan",
) -> GpuEncodeResult:
    """Resolve the tuning, pack the whole chunks, then pack the tail and
    build the stream, its structural costs and the result."""
    tuning = _resolve_tuning(
        tuning, magnitude, reduction_factor, word_bits, avg_bits
    )
    n_main = data.size // tuning.chunk_symbols * tuning.chunk_symbols
    packed = _pack_chunks(data[:n_main], book, tuning, impl)
    with _span("encode.pack_tail", n_symbols=int(data.size - n_main)):
        tail_codes, tail_lens = book.lookup(data[n_main:])
        tail_buf, tail_bits = pack_codewords(
            tail_codes, tail_lens.astype(np.int64)
        )
    stream = EncodedStream(
        tuning=tuning,
        n_symbols=int(data.size),
        chunk_bits=packed.chunk_bits,
        payload=packed.payload,
        chunk_offsets=packed.offsets,
        breaking=packed.breaking,
        tail_payload=tail_buf,
        tail_bits=tail_bits,
        tail_symbols=int(data.size - n_main),
    )
    frac = packed.breaking.breaking_fraction
    costs = _structural_costs(
        data, stream, tuning, stream.n_chunks, packed.moved_words,
        frac, packed.breaking,
    )
    return GpuEncodeResult(
        stream=stream,
        costs=costs,
        tuning=tuning,
        avg_bits=avg_bits,
        breaking_fraction=frac,
        input_bytes=int(data.nbytes),
    )
