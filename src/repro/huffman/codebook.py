"""Canonical Huffman codebooks and their decoding metadata.

A *canonical* Huffman code (Schwartz & Kallick, 1964) is fully determined
by the multiset of codeword lengths: codewords of the same length are
consecutive integers, and the first codeword of each length follows from
the previous length class.  The paper leans on this heavily — §IV-B2 —
because a canonical codebook allows treeless decoding with just two
H-element arrays:

- ``first[l]``: the numeric value of the first (smallest) codeword of
  length ``l``;
- ``entry[l]``: how many codewords are shorter than ``l`` (a prefix sum of
  the per-length counts), which indexes into the symbols sorted by
  (length, symbol).

This module holds the :class:`CanonicalCodebook` container plus the
*reference* construction from a length vector.  The GPU-parallel
construction in :mod:`repro.core` must produce codebooks equal to these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.obs.trace import span as _span

__all__ = [
    "CanonicalCodebook",
    "canonical_codes",
    "canonical_from_lengths",
    "MAX_CODE_BITS",
]

#: Codewords are held in 64-bit words; practical HPC datasets in the paper
#: stay well under 32 bits.
MAX_CODE_BITS = 63


@dataclass
class CanonicalCodebook:
    """Forward + reverse canonical codebook.

    ``codes[s]`` / ``lengths[s]`` give symbol ``s``'s right-aligned
    codeword and its bit length (0 when the symbol is unused).
    ``first``/``entry`` (length ``max_length + 1``, index = code length)
    and ``symbols_by_code`` (symbols sorted by (length, symbol)) form the
    reverse codebook for treeless decoding.
    """

    codes: np.ndarray  # uint64 per symbol
    lengths: np.ndarray  # int32 per symbol
    first: np.ndarray  # int64, index by length
    entry: np.ndarray  # int64, index by length
    symbols_by_code: np.ndarray  # int64, used symbols in canonical order

    def __post_init__(self) -> None:
        if self.codes.shape != self.lengths.shape:
            raise ValueError("codes/lengths shape mismatch")

    # ------------------------------------------------------ properties --
    @property
    def n_symbols(self) -> int:
        return int(self.codes.size)

    @property
    def n_used(self) -> int:
        return int(np.count_nonzero(self.lengths))

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def kraft_sum(self) -> float:
        """Kraft–McMillan sum; exactly 1.0 for a complete prefix code."""
        lens = self.lengths[self.lengths > 0].astype(np.float64)
        if lens.size == 0:
            return 0.0
        if lens.size == 1:
            return 0.5  # single 1-bit code: deliberately incomplete
        return float(np.sum(2.0 ** (-lens)))

    def average_bitwidth(self, freqs: np.ndarray) -> float:
        """Frequency-weighted mean codeword length (the paper's AVG. BITS)."""
        freqs = np.asarray(freqs, dtype=np.float64)
        total = freqs.sum()
        if total == 0:
            return 0.0
        return float(np.sum(freqs * self.lengths) / total)

    def encoded_bits(self, freqs: np.ndarray) -> int:
        """Exact size in bits of encoding data with this histogram."""
        return int(np.sum(np.asarray(freqs, dtype=np.int64) * self.lengths))

    def nbytes(self) -> int:
        return int(
            self.codes.nbytes + self.lengths.nbytes + self.first.nbytes
            + self.entry.nbytes + self.symbols_by_code.nbytes
        )

    # ------------------------------------------------------- validation --
    def is_prefix_free(self) -> bool:
        """Check the prefix-free property by direct comparison.

        For every pair of used codewords with lengths l1 <= l2, the top l1
        bits of the longer must differ from the shorter.  Canonical codes
        make this checkable in O(n log n) via sorting.
        """
        used = self.lengths > 0
        codes = self.codes[used].astype(np.uint64)
        lens = self.lengths[used].astype(np.int64)
        if codes.size <= 1:
            return True
        order = np.lexsort((codes, lens))
        codes, lens = codes[order], lens[order]
        # Compare each codeword against all shorter ones via its prefixes:
        # build the set of all codewords, then for each codeword check that
        # no proper prefix of it is itself a codeword.
        codeset = {(int(l), int(c)) for c, l in zip(codes, lens)}
        if len(codeset) != codes.size:
            return False  # duplicate codeword
        for c, l in zip(codes, lens):
            c = int(c)
            for cut in range(1, int(l)):
                if (cut, c >> (l - cut)) in codeset:
                    return False
        return True

    def reject_negative(self, symbols: np.ndarray) -> None:
        """Raise ``IndexError`` if a signed ``symbols`` array holds a
        negative symbol.

        NumPy indexing would silently wrap it to the end of the
        alphabet, so every forward lookup runs this first.  The message
        is NumPy's own out-of-bounds one; unsigned arrays skip the
        ``min()`` pass.
        """
        if symbols.size and symbols.dtype.kind == "i":
            lo = int(symbols.min())
            if lo < 0:
                raise IndexError(
                    f"index {lo} is out of bounds for axis 0 with size "
                    f"{self.n_symbols}"
                )

    def lookup(self, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized forward lookup: symbols → (codes, lengths).

        An out-of-range symbol, negative ones included, raises
        ``IndexError``.
        """
        symbols = np.asarray(symbols)
        self.reject_negative(symbols)
        return self.codes[symbols], self.lengths[symbols]


def canonical_from_lengths(lengths: np.ndarray) -> CanonicalCodebook:
    """Reference canonical code assignment from a length vector.

    Symbols are ranked by (length, symbol index); within each length class
    codewords are consecutive integers; the first codeword of length l is
    ``(first[l-1] + count[l-1]) << (l - (l-1))`` per the standard canonical
    recurrence.  Raises ``ValueError`` if a length passes
    ``MAX_CODE_BITS`` or the lengths violate the Kraft inequality.

    This is the oracle of the compiled ``canonical_codes`` pass, which
    :func:`canonical_codes` runs when :mod:`repro.native` loads.
    """
    lengths = np.asarray(lengths, dtype=np.int32)
    n = lengths.size
    used = np.flatnonzero(lengths > 0)
    codes = np.zeros(n, dtype=np.uint64)
    if used.size == 0:
        return CanonicalCodebook(
            codes=codes, lengths=lengths.copy(),
            first=np.zeros(1, dtype=np.int64), entry=np.zeros(1, dtype=np.int64),
            symbols_by_code=np.empty(0, dtype=np.int64),
        )
    maxlen = int(lengths.max())
    if maxlen > MAX_CODE_BITS:
        raise ValueError(f"codeword length {maxlen} exceeds {MAX_CODE_BITS}")
    counts = np.bincount(lengths[used], minlength=maxlen + 1).astype(np.int64)
    counts[0] = 0

    first = np.zeros(maxlen + 1, dtype=np.int64)
    entry = np.zeros(maxlen + 1, dtype=np.int64)
    code = 0
    for l in range(1, maxlen + 1):
        code = (code + int(counts[l - 1])) << 1
        # codes of length l occupy [first[l], first[l] + counts[l]); in
        # exact integers that fits 2^l iff the Kraft sum up to l is <= 1
        if code + int(counts[l]) > 1 << l:
            raise ValueError("length vector violates the Kraft inequality")
        first[l] = code
        entry[l] = entry[l - 1] + counts[l - 1]
    # assign codes: used symbols sorted by (length, symbol); class l
    # starts at position entry[l], so a symbol's rank within its class
    # is its position minus that
    order = used[np.lexsort((used, lengths[used]))]
    lens_sorted = lengths[order].astype(np.int64)
    within = np.arange(order.size, dtype=np.int64) - entry[lens_sorted]
    codes[order] = (first[lens_sorted] + within).astype(np.uint64)
    return CanonicalCodebook(
        codes=codes,
        lengths=lengths.copy(),
        first=first,
        entry=entry,
        symbols_by_code=order.astype(np.int64),
    )


def canonical_codes(lengths: np.ndarray) -> CanonicalCodebook:
    """The canonical codebook of a length vector, built by the compiled
    ``canonical_codes`` pass of :mod:`repro.native` when it loads, else
    by :func:`canonical_from_lengths`, its oracle: the same arrays and
    the same ``ValueError`` either way.

    The ``codebook.canonical`` span records the route as ``impl``
    (``"native"`` or ``"numpy"``) and why NumPy ran as ``fallback``.
    """
    kern = native.kernel()
    with _span("codebook.canonical") as sp:
        if kern is None:
            sp.set_attr(impl="numpy", fallback="no_native_kernel")
            return canonical_from_lengths(lengths)
        sp.set_attr(impl="native")
        status, maxlen, arrays = kern.canonical_codes(lengths)
    if status == 1:
        raise ValueError(f"codeword length {maxlen} exceeds {MAX_CODE_BITS}")
    if status == 2:
        raise ValueError("length vector violates the Kraft inequality")
    if arrays is None:
        raise RuntimeError(f"canonical_codes refused its buffers ({status})")
    lengths, codes, first, entry, order = arrays
    return CanonicalCodebook(codes=codes, lengths=lengths, first=first,
                             entry=entry, symbols_by_code=order)
