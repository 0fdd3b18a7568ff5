"""Two-phase parallel canonical codebook construction (paper §IV-B).

The paper's stages 2-3 on the modeled GPU:

1. sort the histogram ascending (Thrust on the GPU; "low-cost, as n is
   relatively small compared to the input data size");
2. GenerateCL — codeword lengths (:mod:`repro.core.generate_cl`);
3. GenerateCW — canonical codewords + First/Entry decoding metadata
   (:mod:`repro.core.generate_cw`).

Because GenerateCW's output is already canonical, the separate canonize
kernel of the baseline (see :mod:`repro.core.canonical`) is unnecessary —
this is the paper's key structural improvement over cuSZ's stage 3.

:func:`parallel_codebook` builds the same book on the host in O(K): the
same stable sort, two-queue lengths with GenerateCL's tie rule (the
compiled ``two_queue_lengths`` pass of :mod:`repro.native` when it
loads, else :func:`_two_queue_lengths`, its oracle; the
``encode.codebook`` span's ``lengths_impl`` says which), then
:func:`~repro.huffman.codebook.canonical_codes` (the compiled
``canonical_codes`` pass, or ``canonical_from_lengths``, its oracle;
the ``codebook.canonical`` span's ``impl`` says which).  Steps 2-3 run
only when the result's modeled costs are first read, and that run
checks GenerateCW's book against the host book field for field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro import native
from repro.core.generate_cl import generate_cl
from repro.core.generate_cw import generate_cw
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import DeviceSpec, V100
from repro.cuda.launch import KernelInfo, register_kernel
from repro.huffman.codebook import CanonicalCodebook, canonical_codes
from repro.obs import add_attrs as _add_attrs
from repro.obs import span as _span

__all__ = ["ParallelCodebookResult", "parallel_codebook"]

register_kernel(KernelInfo(
    name="codebook.sort_histogram",
    stage="build codebook",
    granularity="fine",
    mapping="many-to-one",
    primitives=("reduction",),
    boundary="sync device",
))
register_kernel(KernelInfo(
    name="codebook.generate_cl",
    stage="build codebook",
    granularity="coarse+fine",
    mapping="one-to-one",
    primitives=("atomic write",),
    boundary="sync grid",
))
register_kernel(KernelInfo(
    name="codebook.generate_cw",
    stage="build codebook",
    granularity="fine",
    mapping="one-to-one",
    primitives=("atomic write",),
    boundary="sync grid",
))


def _two_queue_lengths(f_sorted: np.ndarray) -> np.ndarray:
    """Huffman codeword lengths of ascending counts in O(m).

    The classic two-queue build: leaves wait in ``f_sorted`` order and
    internal nodes in creation order (their weights never decrease), and
    each meld takes the two smallest fronts.  A leaf wins a tie with an
    internal node.  That is GenerateCL's tie rule, so the lengths equal
    GenerateCL's entry for entry.  Each leaf's length is one more than
    its parent's depth.  Parents are created after their children, so
    one reverse sweep over the internal nodes yields every depth.
    """
    m = int(f_sorted.size)
    if m <= 1:
        return np.ones(m, dtype=np.int32)
    f = f_sorted.tolist()
    w: list[int] = []  # internal node weights, creation order
    par = [0] * (m - 1)  # parent of each internal node
    leaf_par = [0] * m
    li = ii = 0
    for node in range(m - 1):
        # ii == node: every internal node made so far is melded already
        if li < m and (ii == node or f[li] <= w[ii]):
            a = f[li]
            leaf_par[li] = node
            li += 1
        else:
            a = w[ii]
            par[ii] = node
            ii += 1
        if li < m and (ii == node or f[li] <= w[ii]):
            b = f[li]
            leaf_par[li] = node
            li += 1
        else:
            b = w[ii]
            par[ii] = node
            ii += 1
        w.append(a + b)
    depth = [0] * (m - 1)  # the last node is the root
    for j in range(m - 3, -1, -1):
        depth[j] = depth[par[j]] + 1
    return np.asarray(depth, dtype=np.int32)[leaf_par] + 1


class ParallelCodebookResult:
    """A canonical codebook and, on first read, its modeled GPU price.

    ``codebook`` is the host build.  Reading ``costs``, ``rounds`` or
    ``levels`` runs GenerateCL and GenerateCW once, on the same sorted
    histogram, and raises ``RuntimeError`` if GenerateCW's book differs
    from the host book in any field.
    """

    def __init__(self, codebook: CanonicalCodebook, order: np.ndarray,
                 f_sorted: np.ndarray, device: DeviceSpec) -> None:
        self.codebook = codebook
        self._order = order  # used symbols by ascending count (stable)
        self._f_sorted = f_sorted
        self._device = device

    @cached_property
    def _generated(self) -> tuple:
        n = self.codebook.n_symbols
        with _span("encode.codebook.generate_cl"):
            cl = generate_cl(self._f_sorted, device=self._device)
        with _span("encode.codebook.generate_cw"):
            cw = generate_cw(cl.lengths_sorted, self._order, n,
                             device=self._device)
        host, gpu = self.codebook, cw.codebook
        for name in ("codes", "lengths", "first", "entry",
                     "symbols_by_code"):
            if not np.array_equal(getattr(host, name), getattr(gpu, name)):
                raise RuntimeError(
                    f"GenerateCW's codebook differs from the host build "
                    f"in {name!r}"
                )
        return cl, cw

    @cached_property
    def costs(self) -> list[KernelCost]:  # sort, generate_cl, generate_cw
        cl, cw = self._generated
        used = int(self._order.size)
        sort_cost = KernelCost(
            name="codebook.sort_histogram",
            bytes_coalesced=float(self._f_sorted.nbytes * 8),  # radix
            launches=1,
            compute_cycles=float(max(used, 1)) * 8.0,
            meta={"n": self.codebook.n_symbols, "n_used": used},
        )
        return [sort_cost, cl.cost, cw.cost]

    @property
    def rounds(self) -> int:  # GenerateCL melding rounds
        return self._generated[0].rounds

    @property
    def levels(self) -> int:  # GenerateCW length classes
        return self._generated[1].levels

    @property
    def total_cost(self) -> KernelCost:
        from repro.cuda.costmodel import combine_costs

        return combine_costs(self.costs, name="codebook.parallel")

    def modeled_ms(self, device: DeviceSpec) -> float:
        from repro.cuda.costmodel import CostModel

        model = CostModel(device)
        return sum(model.time(c).milliseconds for c in self.costs)


def parallel_codebook(
    freqs: np.ndarray, device: DeviceSpec = V100
) -> ParallelCodebookResult:
    """Build a canonical codebook on the host; the result prices the GPU
    two-phase algorithm when its costs are read."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be one-dimensional")
    n = int(freqs.size)
    with _span("encode.codebook", n_symbols=n, device=device.name):
        used = np.flatnonzero(freqs > 0)
        # Thrust-style ascending sort; stable so frequency ties break by
        # symbol id, keeping the construction deterministic.
        with _span("encode.codebook.sort", n_used=int(used.size)):
            order = used[np.argsort(freqs[used], kind="stable")]
            f_sorted = freqs[order]
        kern = native.kernel()
        lengths = np.zeros(n, dtype=np.int32)
        lengths[order] = (_two_queue_lengths(f_sorted) if kern is None
                          else kern.two_queue_lengths(f_sorted))
        with _span("encode.canonize"):
            book = canonical_codes(lengths)
        _add_attrs(max_length=int(book.max_length),
                   lengths_impl="numpy" if kern is None else "native")
    return ParallelCodebookResult(book, order, f_sorted, device)
