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
(steps 1-5: one compiled scan-pack pass that writes the coalesced
payload and the breaking side channel, or the iterative kernels followed
by the coalescing copy and the NumPy backtrace), and
all but the adaptive one finish through :func:`_encode_body` (tail,
stream, costs, and ``avg_bits`` from the packed bit totals).

The returned :class:`GpuEncodeResult` carries the decodable
:class:`~repro.core.bitstream.EncodedStream` plus the structural kernel
costs.  Cost constants below are the calibrated per-operation cycle
charges documented in EXPERIMENTS.md; all *counts* (symbols, merges,
moved words, breaking cells) come from the functional execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.core.bitstream import EncodedStream
from repro.core.breaking import (
    BreakingStore,
    breaking_costs,
    extract_breaking_symbols,
    save_breaking,
)
from repro.core.reduce_merge import reduce_merge
from repro.core.scan_pack import (
    PackedChunks,
    checked_lengths,
    pass_symbols,
    scan_pack_symbols,
)
from repro.core.shuffle_merge import shuffle_merge
from repro.core.tuning import (
    DEFAULT_MAGNITUDE,
    EMPIRICAL_MAX_REDUCTION,
    EncoderTuning,
)
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.cuda.launch import KernelInfo, register_kernel
from repro.histogram.gpu_histogram import host_histogram
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


def _avg_bits(total_bits: int, n_symbols: int) -> float:
    """Average codeword bitwidth: an integer bit total over the symbol
    count, so every source of the same total gives the same float."""
    return total_bits / n_symbols if n_symbols else 0.0


def _bit_total(
    syms: np.ndarray,
    data: np.ndarray,
    book: CanonicalCodebook,
    histogram: np.ndarray | None,
) -> int:
    """Total codeword bits of ``data``, ``histogram @ book.lengths`` in
    O(K); ``histogram`` holds its counts over the book's alphabet, or,
    when ``None``, is counted from the pass symbols ``syms``
    (:func:`~repro.histogram.gpu_histogram.host_histogram`, whose route
    the ``encode.lookup`` span records).  A symbol the count refuses
    (out of range, or not an integer) or a counted symbol without a
    codeword raises :func:`~repro.core.scan_pack.checked_lengths`'
    error over ``data``."""
    if histogram is None:
        with _span("encode.lookup", n_symbols=int(data.size)) as lookup:
            if syms.dtype.kind in "iu":
                try:
                    histogram, backend, fallback = host_histogram(
                        syms.reshape(-1), book.n_symbols)
                except ValueError:
                    pass
                else:
                    lookup.set_attr(backend=backend)
                    if fallback is not None:
                        lookup.set_attr(fallback=fallback)
    if histogram is None or histogram[book.lengths == 0].any():
        checked_lengths(data, book)
        raise RuntimeError("the histogram disagrees with the NumPy "
                           "symbol check")
    return int(histogram @ book.lengths)


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
    reg.counter("repro_encode_bytes_in_total").inc(int(result.input_bytes))
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
    input_bytes: int | None = None,
    histogram: np.ndarray | None = None,
) -> GpuEncodeResult:
    """Encode ``data`` with the reduce-shuffle-merge scheme.

    ``tuning`` pins (M, r) explicitly; otherwise ``magnitude`` is used and
    ``r`` comes from the average-bitwidth rule (or ``reduction_factor``
    when given) over the codeword-bit total ``histogram @ book.lengths``
    (§IV-C).  ``histogram`` holds the counts of ``data`` over the book's
    alphabet when the caller has them (the app facade's stage 1); an
    unpinned call without it counts them itself
    (:func:`~repro.histogram.gpu_histogram.host_histogram`, inside the
    ``encode.lookup`` span), and a pinned call without it counts
    nothing.  Every symbol must have a codeword in ``book``: a count
    that refuses a symbol, a counted symbol without a codeword, and the
    packing passes, which check every symbol, all raise
    :func:`~repro.core.scan_pack.checked_lengths`' error.  ``avg_bits``
    always comes from the packed bit totals, the same integer total.

    ``impl`` selects the host execution strategy — the produced
    :class:`~repro.core.bitstream.EncodedStream` and the modeled kernel
    costs are bit-for-bit identical either way (enforced by the
    conformance matrix):

    - ``"iterative"`` — the paper-shaped r-reduce + s-shuffle pipeline;
    - ``"scan"`` (default) — the single-pass scan-pack
      (:mod:`repro.core.scan_pack`): the compiled scan-pack pass of
      :mod:`repro.native` when that module loads, else the iterative
      pipeline, with the reason on the ``encode.scan_pack`` span.

    ``input_bytes`` is the caller's input size when ``data`` is its
    narrowed copy (the app facade narrows int32/int64/uint64 symbols
    once for its histogram and this encode); the modeled costs and the
    byte counters read it.  The bit total also sizes the compiled
    scan-pack pass's breaking side channel.
    """
    if impl not in ENCODE_IMPLS:
        raise ValueError(f"impl must be one of {ENCODE_IMPLS}, got {impl!r}")
    return _encode_stage(data, book, tuning, magnitude, reduction_factor,
                         word_bits, device, impl, input_bytes, histogram)


def _encode_stage(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning | None,
    magnitude: int,
    reduction_factor: int | None,
    word_bits: int,
    device: DeviceSpec,
    impl: str,
    input_bytes: int | None,
    histogram: np.ndarray | None,
    label: str | None = None,
) -> GpuEncodeResult:
    """One encode under its ``encode.reduce_shuffle_merge`` stage span
    (``impl=label``, default ``impl``): the histogram (counted when
    neither it nor ``tuning`` is given), then the tuning and the encode
    body."""
    data = np.asarray(data)
    if input_bytes is None:
        input_bytes = int(data.nbytes)
    enc_span = _span("encode.reduce_shuffle_merge",
                     bytes_in=input_bytes, device=device.name,
                     impl=label or impl)
    with enc_span:
        syms = _pass_input(data, book, impl)
        total_bits = None
        if histogram is not None or tuning is None:
            total_bits = _bit_total(syms, data, book, histogram)
        if tuning is None:
            tuning = _resolve_tuning(
                magnitude, reduction_factor, word_bits,
                _avg_bits(total_bits, data.size),
            )
        result = _encode_body(syms, book, tuning, impl, input_bytes,
                              total_bits)
    _record_encode(enc_span, data, result)
    return result


def _pass_input(
    data: np.ndarray, book: CanonicalCodebook, impl: str = "scan"
) -> np.ndarray:
    """The symbols every pass of an encode reads: narrowed once
    (:func:`~repro.core.scan_pack.pass_symbols`, which raises an
    out-of-range symbol's error) when the compiled passes run them, so
    the histogram and the scan-pack pass share one array; else
    ``data``."""
    if impl == "scan" and native.native_available():
        return pass_symbols(data, book)
    return data


def _resolve_tuning(
    magnitude: int,
    reduction_factor: int | None,
    word_bits: int,
    avg_bits: float,
) -> EncoderTuning:
    """(M, r, W) for an encode: ``r`` from the paper's average-bitwidth
    rule with the empirical cap, unless ``reduction_factor`` pins it."""
    if reduction_factor is None:
        from repro.core.tuning import choose_reduction_factor

        reduction_factor = choose_reduction_factor(
            max(avg_bits, 1e-9), word_bits, magnitude,
            EMPIRICAL_MAX_REDUCTION,
        )
    return EncoderTuning(magnitude, reduction_factor, word_bits)


def _structural_costs(
    input_bytes: int,
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
    in_bytes = float(input_bytes)
    out_bytes = float(stream.payload_bytes)
    merges = float(n_main) * (1.0 - 0.5**r) if r else 0.0
    penalty = _occupancy_penalty(s) * _deep_reduce_penalty(r)
    fused = KernelCost(
        name="enc.reduce_shuffle_merge",
        bytes_coalesced=in_bytes + out_bytes,
        launches=1,
        compute_cycles=(
            _LOOKUP_CYCLES * stream.n_symbols
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


def _iterative_pack(
    main: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
) -> PackedChunks:
    """The paper's pair on whole chunks: ``r`` REDUCE then ``s`` SHUFFLE
    iterations, then the word grid's coalescing copy."""
    n_chunks = main.size // tuning.chunk_symbols
    with _span("encode.reduce_merge", r=tuning.reduction_factor,
               chunks=n_chunks):
        lens = checked_lengths(main, book).astype(np.int64)
        red = reduce_merge(book.codes[main], lens,
                           tuning.reduction_factor, tuning.word_bits)
    with _span("encode.shuffle_merge", s=tuning.shuffle_factor,
               chunks=n_chunks) as shuf_span:
        if red.broken.any():
            # zero broken cells *in place*: reduce_merge owns its output
            # buffers, and the side channel re-gathers the true bits
            # from the symbols
            red.values[red.broken] = 0
            red.lengths[red.broken] = 0
        merged = shuffle_merge(red.values, red.lengths,
                               tuning.cells_per_chunk, tuning.word_bits)
    shuf_span.set_attr(moved_words=merged.moved_words)
    with _span("encode.coalesce") as co_span:
        payload, offsets = merged.payload()
    co_span.set_attr(bytes_out=int(payload.nbytes))
    return PackedChunks(chunk_bits=merged.bits, payload=payload,
                        offsets=offsets, broken=red.broken,
                        moved_words=merged.moved_words)


def _pack_chunks(
    main: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    impl: str = "scan",
    total_bits: int | None = None,
) -> PackedChunks:
    """Pack whole chunks (``main.size`` a multiple of the chunk size).

    ``"scan"`` runs the compiled :func:`scan_pack_symbols` pass, which
    ends in the coalesced payload, whenever :mod:`repro.native` loads,
    and otherwise the paper's iterative pair; the ``encode.scan_pack``
    span records which (``impl``) and why (``fallback``, counted in
    ``repro_encode_native_fallback_total``).  ``"iterative"`` always
    runs the pair.  Both give the same bits and bytes and check every
    symbol.  Then the broken cells are saved as the side channel: the
    compiled pass has written it (``impl="native"`` on the
    ``encode.breaking`` span), the pair's are backtraced from the
    symbols (``impl="numpy"``).  Every host encoder packs through here.
    ``total_bits`` bounds the codeword bits of ``main`` when the caller
    has it (:func:`scan_pack_symbols` sizes the side channel from it).
    """
    if impl == "scan":
        with _span("encode.scan_pack", r=tuning.reduction_factor,
                   s=tuning.shuffle_factor,
                   chunks=main.size // tuning.chunk_symbols) as scan_span:
            if native.native_available():
                scan_span.set_attr(impl="native")
                packed = scan_pack_symbols(main, book, tuning, total_bits)
            else:
                _metrics().counter("repro_encode_native_fallback_total",
                                   reason="no_native_kernel").inc()
                scan_span.set_attr(impl="iterative",
                                   fallback="no_native_kernel")
                packed = _iterative_pack(main, book, tuning)
        scan_span.set_attr(moved_words=packed.moved_words,
                           cells=int(packed.broken.size))
    else:
        packed = _iterative_pack(main, book, tuning)

    # -- breaking backtrace + sparse save ----------------------------------
    with _span("encode.breaking") as brk_span:
        if packed.side is not None:
            brk_span.set_attr(impl="native")
            packed.breaking = save_breaking(
                packed.broken.size, tuning.group_symbols, *packed.side
            )
        else:
            brk_span.set_attr(impl="numpy")
            packed.breaking = extract_breaking_symbols(
                main, book, packed.broken, tuning.group_symbols
            )
    brk_span.set_attr(nnz=packed.breaking.nnz,
                      fraction=packed.breaking.breaking_fraction)
    return packed


def _encode_body(
    data: np.ndarray,
    book: CanonicalCodebook,
    tuning: EncoderTuning,
    impl: str = "scan",
    input_bytes: int | None = None,
    total_bits: int | None = None,
) -> GpuEncodeResult:
    """Pack the whole chunks, then the tail, and build the stream, its
    structural costs and the result; ``avg_bits`` comes from the packed
    bit totals (dense chunk bits + broken-cell bits + tail bits).
    ``input_bytes`` is the caller's input size when ``data`` is its
    narrowed copy (:func:`_pass_input`); ``total_bits``, when known, is
    the codeword-bit total of ``data`` (it bounds the whole chunks')."""
    if input_bytes is None:
        input_bytes = int(data.nbytes)
    n_main = data.size // tuning.chunk_symbols * tuning.chunk_symbols
    try:
        packed = _pack_chunks(data[:n_main], book, tuning, impl, total_bits)
        with _span("encode.pack_tail", n_symbols=int(data.size - n_main)):
            tail = data[n_main:]
            tail_lens = checked_lengths(tail, book).astype(np.int64)
            tail_buf, tail_bits = pack_codewords(book.codes[tail], tail_lens)
    except (IndexError, ValueError):
        # the passes stop at the first bad symbol of their own part; the
        # error is the one the NumPy check raises over the whole input
        checked_lengths(data, book)
        raise
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
        input_bytes, stream, tuning, stream.n_chunks, packed.moved_words,
        frac, packed.breaking,
    )
    total_bits = (
        int(packed.chunk_bits.sum())
        + int(packed.breaking.bit_lengths.sum(dtype=np.int64))
        + int(tail_bits)
    )
    return GpuEncodeResult(
        stream=stream,
        costs=costs,
        tuning=tuning,
        avg_bits=_avg_bits(total_bits, data.size),
        breaking_fraction=frac,
        input_bytes=input_bytes,
    )
