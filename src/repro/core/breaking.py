"""Breaking-point handling (§V-B2): backtrace + dense-to-sparse save.

The rigid fixed-size representing word makes a small fraction of merged
cells overflow ``W`` bits ("breaking", Table II/V: 1e-6 … 1e-3 of the
data).  The paper backtraces the breaking points with one extra reduction
pass (~300 µs at scale, no bit operations) and saves them through a
cuSPARSE dense-to-sparse conversion so the dense bitstream stays uniform;
the compression-ratio impact is negligible.

:class:`BreakingStore` is that side channel: per broken cell, the exact
concatenated bits of its ``2^r`` source codewords, addressed by global
cell index.  The dense stream records broken cells as zero-length, and
the decoder re-inserts the side-channel bits by cell position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cuda.costmodel import KernelCost
from repro.obs import metrics as _metrics
from repro.utils.bits import pack_codeword_groups
from repro.utils.sparse import SparseVector, dense_to_sparse

__all__ = [
    "BreakingStore",
    "extract_breaking",
    "extract_breaking_cells",
    "extract_breaking_symbols",
    "breaking_costs",
]


@dataclass
class BreakingStore:
    """Sparse side channel of overflowing merge cells."""

    n_cells: int  # logical dense length (total cells in the stream)
    group_symbols: int  # symbols per cell (2^r)
    cell_indices: np.ndarray  # uint32, ascending (cells < 2^32 at 1 GB+)
    bit_lengths: np.ndarray  # uint16 per broken cell (<= 2^r * 32 bits)
    payload: np.ndarray  # uint8: per-cell byte-aligned bit payloads
    payload_offsets: np.ndarray  # int64 byte offsets, len = nnz + 1
    # payload_offsets are reconstructible from bit_lengths and are not
    # counted toward the stored metadata size

    @property
    def nnz(self) -> int:
        return int(self.cell_indices.size)

    @property
    def breaking_fraction(self) -> float:
        return self.nnz / self.n_cells if self.n_cells else 0.0

    def nbytes(self) -> int:
        return int(
            self.cell_indices.nbytes + self.bit_lengths.nbytes
            + self.payload.nbytes
        )

    def cell_payload(self, k: int) -> tuple[np.ndarray, int]:
        """Bytes and bit length of the k-th stored cell."""
        lo, hi = int(self.payload_offsets[k]), int(self.payload_offsets[k + 1])
        return self.payload[lo:hi], int(self.bit_lengths[k])

    def to_sparse_vector(self) -> SparseVector:
        """COO view (indices, bit lengths) — the cuSPARSE analogue."""
        return SparseVector(
            length=self.n_cells,
            indices=self.cell_indices,
            values=self.bit_lengths,
        )

    @classmethod
    def empty(cls, n_cells: int, group_symbols: int) -> "BreakingStore":
        return cls(
            n_cells=n_cells,
            group_symbols=group_symbols,
            cell_indices=np.empty(0, dtype=np.uint32),
            bit_lengths=np.empty(0, dtype=np.uint16),
            payload=np.empty(0, dtype=np.uint8),
            payload_offsets=np.zeros(1, dtype=np.int64),
        )


def extract_breaking(
    codes: np.ndarray,
    lengths: np.ndarray,
    broken: np.ndarray,
    group_symbols: int,
) -> BreakingStore:
    """Backtrace broken cells to their source codewords and pack them.

    ``codes``/``lengths`` are the original per-symbol codewords (whole
    chunks, so ``size == n_cells * group_symbols``); ``broken`` flags
    cells.  Only the flagged fraction is touched bit-wise, matching the
    paper's "simple reduction without bit operations" backtrace followed
    by a sparse save.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    broken = np.asarray(broken, dtype=bool)
    n_cells = broken.size
    if codes.size != n_cells * group_symbols:
        raise ValueError("codes size does not match cells * group size")
    idx = dense_to_sparse(
        np.ones(n_cells, dtype=np.uint8), mask=broken
    ).indices
    grouped_codes = codes.reshape(n_cells, group_symbols)
    grouped_lens = lengths.reshape(n_cells, group_symbols)
    return extract_breaking_cells(
        grouped_codes[idx], grouped_lens[idx], idx, n_cells, group_symbols
    )


def _count_breaking(n_cells: int, nnz: int) -> None:
    reg = _metrics()
    reg.counter("repro_encode_cells_total").inc(n_cells)
    reg.counter("repro_encode_broken_cells_total").inc(nnz)
    if n_cells:
        reg.gauge("repro_encode_breaking_fraction").set(nnz / n_cells)


def _len_dtype(group_symbols: int):
    # a cell's bit length is bounded by group_symbols * MAX_CODE_BITS;
    # uint16 covers every practical (M, r), with a guard for exotic ones
    return np.uint16 if group_symbols * 64 <= 0xFFFF else np.int64


def extract_breaking_cells(
    gathered_codes: np.ndarray,
    gathered_lens: np.ndarray,
    cell_indices: np.ndarray,
    n_cells: int,
    group_symbols: int,
) -> BreakingStore:
    """Pack *pre-gathered* broken cells into the side channel.

    ``gathered_codes``/``gathered_lens`` are ``(nnz, group_symbols)``
    rows — only the broken cells, in ascending ``cell_indices`` order.
    This is the entry point the scan-pack encoder uses: it never
    materializes the full per-symbol code/length arrays, only the broken
    fraction (1e-6 … 1e-3 of the data).  Byte-identical to
    :func:`extract_breaking` over the same cells.
    """
    _count_breaking(n_cells, int(cell_indices.size))
    if cell_indices.size == 0:
        return BreakingStore.empty(n_cells, group_symbols)
    # pack all broken cells at once: one grouped_arange scatter into a
    # byte-aligned flat bit array (bit-identical to per-cell packing)
    payload, bit_lengths, offsets = pack_codeword_groups(
        np.asarray(gathered_codes, dtype=np.uint64),
        np.asarray(gathered_lens, dtype=np.int64),
    )
    return BreakingStore(
        n_cells=n_cells,
        group_symbols=group_symbols,
        cell_indices=np.asarray(cell_indices).astype(np.uint32),
        bit_lengths=bit_lengths.astype(_len_dtype(group_symbols)),
        payload=payload,
        payload_offsets=offsets,
    )


def extract_breaking_symbols(
    data: np.ndarray,
    book,
    broken: np.ndarray,
    group_symbols: int,
) -> BreakingStore:
    """Backtrace broken cells straight from the *symbol* stream.

    The scan-pack path has no per-symbol code/length arrays to hand —
    only the packed reduce output — so the backtrace re-gathers the
    codewords of just the broken cells from the codebook (the paper's
    "simple reduction without bit operations" reads the input the same
    way).  Byte-identical to :func:`extract_breaking` over the full
    lookup arrays.
    """
    broken = np.asarray(broken, dtype=bool)
    n_cells = broken.size
    data = np.asarray(data)
    if data.size != n_cells * group_symbols:
        raise ValueError("data size does not match cells * group size")
    idx = dense_to_sparse(
        np.ones(n_cells, dtype=np.uint8), mask=broken
    ).indices
    if idx.size == 0:
        _count_breaking(n_cells, 0)
        return BreakingStore.empty(n_cells, group_symbols)
    syms = data.reshape(n_cells, group_symbols)[idx]
    return extract_breaking_cells(
        book.codes[syms].astype(np.uint64),
        book.lengths[syms].astype(np.int64),
        idx, n_cells, group_symbols,
    )


def breaking_costs(store: BreakingStore) -> list[KernelCost]:
    """Cost of the backtrace reduction + the dense-to-sparse conversion."""
    backtrace = KernelCost(
        name="enc.breaking_backtrace",
        # one-time coalesced read of every cell's length/flag, plus a
        # scattered re-read of the source codewords of the broken cells
        bytes_coalesced=float(store.n_cells * 5),
        bytes_random=float(store.nnz * store.group_symbols * 6),
        launches=1,
        compute_cycles=float(store.n_cells) * 2.0,
        meta={"nnz": store.nnz, "fraction": store.breaking_fraction},
    )
    dense2sparse = KernelCost(
        name="enc.dense2sparse",
        # mask scan is streaming; the per-cell index/length/payload writes
        # land scattered (cuSPARSE-style compaction)
        bytes_coalesced=float(store.n_cells),
        bytes_random=float(store.nbytes()),
        launches=1,
        compute_cycles=float(store.n_cells),
        meta={"nnz": store.nnz},
    )
    return [backtrace, dense2sparse]
