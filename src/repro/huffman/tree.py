"""Serial Huffman tree construction (the SZ / cuSZ baseline algorithm).

This is the classic O(n log n) heap-based construction the paper uses as
its serial reference (Table III "SERIAL" column, and the algorithm cuSZ
runs *on a single GPU thread*).  The tree is stored in structure-of-arrays
form — frequency, left child, right child, parent — because (a) that is
what the GPU-side serial implementation uses and (b) it makes depth
extraction vectorizable.

Zero-frequency symbols take no part in the tree and receive code length 0
(no codeword).  A degenerate alphabet with a single used symbol gets code
length 1, matching every practical Huffman implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanTree", "build_tree", "codeword_lengths_serial"]


@dataclass
class HuffmanTree:
    """Structure-of-arrays Huffman tree.

    Nodes ``0..n_symbols-1`` are the leaves (one per input symbol, whether
    used or not); internal nodes follow.  ``parent[i] == -1`` marks the
    root and also unused (zero-frequency) leaves.
    """

    n_symbols: int
    freq: np.ndarray  # int64, per node
    left: np.ndarray  # int32, -1 for leaves
    right: np.ndarray  # int32
    parent: np.ndarray  # int32, -1 for root / unused leaves
    root: int
    #: number of heap pop/push operations performed (serial work measure)
    serial_ops: int = 0

    @property
    def n_nodes(self) -> int:
        return int(self.freq.size)

    def leaf_depths(self) -> np.ndarray:
        """Depth of every leaf (= codeword length); 0 for unused symbols."""
        n = self.n_symbols
        depths = np.zeros(n, dtype=np.int32)
        if self.root < 0:
            return depths
        # Vectorized pointer-chasing: repeatedly follow parent pointers for
        # all leaves simultaneously until all reach the root.
        if self.root < n:  # root is a leaf: single-used-symbol alphabet
            depths[self.root] = 1
            return depths
        current = np.arange(n, dtype=np.int64)
        used = self.parent[:n] >= 0
        active = used.copy()
        while np.any(active):
            nxt = self.parent[current[active]]
            depths[active] += 1
            current[active] = nxt
            active[active] = nxt != self.root
        return depths


def build_tree(freqs: np.ndarray) -> HuffmanTree:
    """Build a Huffman tree with a binary heap (serial reference).

    ``freqs`` is the symbol histogram; its length is the alphabet size.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be one-dimensional")
    if np.any(freqs < 0):
        raise ValueError("frequencies must be non-negative")
    n = int(freqs.size)
    used = np.flatnonzero(freqs > 0)
    n_used = int(used.size)

    if n_used == 0:
        return HuffmanTree(
            n_symbols=n,
            freq=freqs.copy(),
            left=np.full(n, -1, dtype=np.int32),
            right=np.full(n, -1, dtype=np.int32),
            parent=np.full(n, -1, dtype=np.int32),
            root=-1,
        )

    n_nodes = n + max(n_used - 1, 0)
    freq = np.zeros(n_nodes, dtype=np.int64)
    freq[:n] = freqs
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    parent = np.full(n_nodes, -1, dtype=np.int32)

    # (freq, tie-break, node). The tie-break keeps heap behaviour
    # deterministic and matches the "earliest node first" convention of the
    # serial SZ implementation.
    heap = [(int(freqs[i]), int(i), int(i)) for i in used]
    heapq.heapify(heap)
    ops = len(heap)

    if n_used == 1:
        # Degenerate tree: the single used leaf is its own root; callers
        # assign it a 1-bit codeword via leaf_depths().
        return HuffmanTree(
            n_symbols=n, freq=freq[:n], left=left[:n], right=right[:n],
            parent=parent[:n], root=int(used[0]), serial_ops=ops,
        )

    next_id = n
    tie = n
    while len(heap) > 1:
        f1, _, a = heapq.heappop(heap)
        f2, _, b = heapq.heappop(heap)
        freq[next_id] = f1 + f2
        left[next_id] = a
        right[next_id] = b
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (f1 + f2, tie, next_id))
        tie += 1
        next_id += 1
        ops += 3
    root = heap[0][2]
    return HuffmanTree(
        n_symbols=n, freq=freq, left=left, right=right, parent=parent,
        root=root, serial_ops=ops,
    )


def codeword_lengths_serial(freqs: np.ndarray) -> np.ndarray:
    """Optimal codeword length per symbol via the serial tree (int32).

    This is the ground truth against which the parallel two-phase
    construction (GenerateCL) is validated.  The heap breaks frequency
    ties the way GenerateCL and the host build in
    :mod:`repro.core.codebook_parallel` do: a leaf before an internal
    node, leaves by symbol index, internal nodes in creation order.  So
    the lengths are equal symbol for symbol, not only in total weighted
    length; ``tests/test_generate_cl_cw.py`` checks both on tie-heavy
    histograms.
    """
    tree = build_tree(freqs)
    return tree.leaf_depths()
