"""GPU histogramming (stage 1): privatized replicated shared-memory bins.

Implements the algorithm of Gómez-Luna et al. that the paper adopts
(§IV-A): every thread block keeps ``R`` private copies of the histogram in
shared memory, threads stride through a coalesced partition of the input
updating one copy with shared-memory atomics (lane id selects the copy, so
warp-wide bursts spread across replicas), and a second, grid-wise
reduction folds the ``blocks x R`` copies into the single global histogram
used for codebook construction.

Three artifacts per run:

- the functional histogram, counted on the host by
  :func:`host_histogram` (the compiled pass of :mod:`repro.native`, or
  the NumPy oracle :func:`fast_histogram`);
- on first read of the result's ``costs``, a
  :class:`~repro.cuda.costmodel.KernelCost` pair with the structural
  counts — input traffic, one shared atomic per symbol with the conflict
  degree implied by the symbol distribution and replication factor, and
  the reduction traffic;
- (for tests) a thread-faithful SIMT kernel, :func:`hist_simt_kernel`,
  executed at small scale to validate the block-level semantics.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro import native
from repro.cuda.atomics import expected_conflict_degree
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.cuda.launch import KernelInfo, LaunchConfig, register_kernel
from repro.obs import span as _span

__all__ = [
    "GpuHistogramResult",
    "replication_factor",
    "gpu_histogram",
    "fast_histogram",
    "host_histogram",
    "hist_simt_kernel",
    "MAX_HISTOGRAM_BINS",
]

#: The paper (Table IV footnote) notes 8192 symbols as the limit of the
#: current optimal GPU histogramming: beyond that even a single private
#: copy no longer fits in shared memory.
MAX_HISTOGRAM_BINS = 8192

#: usable shared memory per block (CUDA default carve-out)
_USABLE_SHARED_BYTES = 48 * 1024

register_kernel(KernelInfo(
    name="hist.blockwise",
    stage="histogram",
    granularity="fine",
    mapping="many-to-one",
    primitives=("atomic write", "reduction"),
    boundary="sync block",
))
register_kernel(KernelInfo(
    name="hist.gridwise_reduce",
    stage="histogram",
    granularity="fine",
    mapping="many-to-one",
    primitives=("atomic write", "reduction"),
    boundary="sync device",
))


def replication_factor(num_bins: int, device: DeviceSpec = V100) -> int:
    """Private histogram copies per block that fit in shared memory."""
    if num_bins < 1:
        raise ValueError("num_bins must be positive")
    if num_bins > MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"{num_bins} bins exceed the shared-memory histogram limit "
            f"({MAX_HISTOGRAM_BINS}); split the alphabet or use global atomics"
        )
    usable = min(_USABLE_SHARED_BYTES, device.shared_mem_per_sm_kb * 1024)
    r = usable // (num_bins * 4)
    return int(np.clip(r, 1, 32))


class GpuHistogramResult:
    """One histogram and, on first read, its price on the modeled GPU.

    ``histogram`` is the host pass's exact result (or counts taken by
    another pass over the same symbols: ``compress_field`` hands in the
    ones its quantize pass counted).  ``blocks`` defaults to two per SM
    of ``device``, as in :func:`gpu_histogram`.  ``replication``,
    ``conflict_degree`` and ``costs`` are derived from it the first time
    one of them is read, so a caller that only needs the counts (the
    compress facade) never prices the kernel.  Pricing applies the
    shared-memory limit: it raises ``ValueError`` past
    :data:`MAX_HISTOGRAM_BINS` bins, where the counts themselves are
    still exact.
    """

    def __init__(self, histogram: np.ndarray, n_input: int, nbytes: int,
                 device: DeviceSpec = V100,
                 blocks: int | None = None) -> None:
        self.histogram = histogram  # int64 bins
        self._n_input = n_input  # symbols counted
        self._nbytes = nbytes
        self._device = device
        self._blocks = blocks if blocks is not None else device.sm_count * 2

    @cached_property
    def replication(self) -> int:
        return replication_factor(self.histogram.size, self._device)

    @cached_property
    def conflict_degree(self) -> float:
        return expected_conflict_degree(
            self.histogram, self._device.warp_size, self.replication
        )

    @cached_property
    def costs(self) -> list[KernelCost]:
        num_bins, repl = int(self.histogram.size), self.replication
        blocks = self._blocks
        block_cost = KernelCost(
            name="hist.blockwise",
            bytes_coalesced=float(self._nbytes),
            shared_atomics=float(self._n_input),
            atomic_conflict_degree=self.conflict_degree,
            launches=1,
            compute_cycles=float(self._n_input) * 4.0,
            meta={
                "bins": num_bins,
                "replication": repl,
                "blocks": blocks,
                "launch": LaunchConfig(blocks, 256),
            },
        )
        # grid-wise tree reduction of blocks*R private copies into one
        # global histogram: reads every private copy once, writes the
        # result
        reduce_cost = KernelCost(
            name="hist.gridwise_reduce",
            bytes_coalesced=float(blocks * repl * num_bins * 4
                                  + num_bins * 4),
            launches=1,
            compute_cycles=float(blocks * repl * num_bins),
            volume_scales=False,  # folds a fixed blocks x R x bins grid
            meta={"blocks": blocks, "replication": repl},
        )
        return [block_cost, reduce_cost]

    @property
    def total_cost(self) -> KernelCost:
        from repro.cuda.costmodel import combine_costs

        return combine_costs(self.costs, name="hist")


def fast_histogram(data: np.ndarray, n_symbols: int) -> np.ndarray:
    """``np.bincount`` with a halved input for byte alphabets.

    ``bincount`` casts its input to int64 before counting; viewing a
    contiguous uint8 stream as uint16 *pairs* halves both the cast and
    the count loop, and the 64 Ki pair counts fold back to exact
    per-symbol counts (low-byte sums + high-byte sums — endian-agnostic
    because the fold is symmetric).
    """
    if data.dtype == np.uint8 and data.flags.c_contiguous \
            and data.size >= (1 << 16):
        even = data[: data.size & ~1]
        ph = np.bincount(even.view(np.uint16), minlength=1 << 16)
        ph = ph.reshape(256, 256)
        hist = ph.sum(axis=0) + ph.sum(axis=1)
        if data.size & 1:
            hist[int(data[-1])] += 1
        if hist.size > n_symbols and not hist[n_symbols:].any():
            hist = hist[:n_symbols]  # match bincount's minlength shape
        elif hist.size < n_symbols:
            hist = np.concatenate(
                [hist, np.zeros(n_symbols - hist.size, dtype=hist.dtype)]
            )
        return hist
    return np.bincount(data, minlength=n_symbols)


def host_histogram(
    flat: np.ndarray, num_bins: int
) -> tuple[np.ndarray, str, str | None]:
    """``(hist, backend, fallback)``: the exact int64 counts of the 1-D
    integer array ``flat`` over ``num_bins`` bins.

    The compiled pass of :mod:`repro.native` counts unsigned 8/16/32-bit
    symbols and checks every one against ``num_bins`` as it counts; any
    other integer dtype is range-checked first (``min``/``max``) and
    narrowed onto the smallest of those that holds its largest symbol.
    Hosts without the module run the oracle: the same range check, then
    :func:`fast_histogram` (``fallback="no_native_kernel"``).  Both
    raise ``ValueError`` for a symbol outside ``[0, num_bins)``.
    """
    kern = native.kernel()
    if kern is None or flat.dtype not in native.SYMBOL_DTYPES:
        hi = int(flat.max()) if flat.size else 0
        if hi >= num_bins or (flat.size and int(flat.min()) < 0):
            raise ValueError("symbol out of histogram range")
        if kern is None:
            hist = fast_histogram(flat, num_bins).astype(np.int64,
                                                         copy=False)
            return hist, "numpy", "no_native_kernel"
        flat = flat.astype(next(dt for dt in native.SYMBOL_DTYPES
                                if hi <= np.iinfo(dt).max))
    hist, bad = kern.histogram(np.ascontiguousarray(flat), num_bins)
    if bad >= 0:
        raise ValueError("symbol out of histogram range")
    return hist, "native", None


def gpu_histogram(
    data: np.ndarray,
    num_bins: int,
    device: DeviceSpec = V100,
    blocks: int | None = None,
) -> GpuHistogramResult:
    """Histogram ``data`` (integer symbols < num_bins) on the host; the
    result prices the modeled GPU kernel when its costs are read."""
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.integer):
        raise TypeError("histogram input must be integer symbols")
    flat = data.reshape(-1)
    with _span("encode.histogram", bytes_in=int(flat.nbytes),
               bins=int(num_bins), device=device.name) as sp:
        hist, backend, fallback = host_histogram(flat, num_bins)
        sp.set_attr(backend=backend)
        if fallback is not None:
            sp.set_attr(fallback=fallback)
    return GpuHistogramResult(hist, int(flat.size), int(flat.nbytes),
                              device, blocks)


def hist_simt_kernel(ctx, data: np.ndarray, num_bins: int, repl: int,
                     out: np.ndarray):
    """Thread-faithful block histogram for the micro SIMT executor.

    Each block builds ``repl`` private shared-memory copies; lane id picks
    the copy; after the block barrier the copies are folded and added to
    the global histogram with global atomics.
    """
    priv = ctx.shared_array("priv", (repl, num_bins), np.int64)
    # grid-stride loop over the input with block-contiguous partitions
    per_block = (len(data) + ctx.config.grid_dim - 1) // ctx.config.grid_dim
    lo = ctx.block_idx * per_block
    hi = min(lo + per_block, len(data))
    copy = ctx.lane_id % repl
    for i in range(lo + ctx.thread_rank, hi, ctx.num_threads_block):
        ctx.atomic_add(priv, (copy, int(data[i])), 1)
    yield ctx.sync_block
    for b in range(ctx.thread_rank, num_bins, ctx.num_threads_block):
        total = 0
        for r in range(repl):
            total += int(priv[r, b])
        if total:
            ctx.atomic_add(out, b, total)
