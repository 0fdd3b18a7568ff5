"""Cross-implementation bitstream equality and metamorphic invariants.

Round-trip identity (the matrix) only proves each pair is *internally*
consistent.  These checks tie the implementations to each other and to
the paper's canonical-bit-exactness claim:

- **bitstream equality** — every canonical encoder emits the reference
  dense code bits: dense encoders byte-for-byte, chunked encoders
  per-chunk against the serial packing of the same slice, the
  reduce-shuffle container bit-count-exact always and chunk-payload
  exact wherever the chunk has no broken cells;
- **concatenation** — the code stream of ``a ++ b`` is the bit-level
  concatenation of the streams of ``a`` and ``b`` (prefix codes are
  stateless), and the chunked round trip of the concatenation decodes
  to the concatenation;
- **chunk-magnitude independence** — decoded output is invariant under
  the container's chunk magnitude;
- **codebook-digest stability** — codebook construction is a pure
  function of the histogram: independent builds digest identically, the
  serialize/deserialize round trip preserves the digest, canonical
  reassignment from the length vector reproduces the codes, and every
  optimal constructor (two-phase parallel, heap tree, two-queue) agrees
  on the weighted code length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.conform.corpora import Corpus, Sample
from repro.core.bitstream import decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    deserialize_codebook,
    serialize_codebook,
    serialize_stream,
)
from repro.huffman.cache import codebook_digest
from repro.huffman.codebook import canonical_from_lengths
from repro.huffman.cpu_mt import two_queue_lengths
from repro.huffman.serial import serial_encode
from repro.huffman.tree import codeword_lengths_serial

__all__ = ["InvariantResult", "run_invariants", "INVARIANT_NAMES"]

INVARIANT_NAMES = (
    "bitstream_equality",
    "concatenation",
    "magnitude_independence",
    "codebook_digest_stability",
)


@dataclass
class InvariantResult:
    name: str
    corpus: str
    passed: int = 0
    failed: int = 0
    details: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, sample: str, what: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            self.details.append({"sample": sample, "what": what})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "corpus": self.corpus,
            "passed": self.passed,
            "failed": self.failed,
            "status": "pass" if self.ok else "FAIL",
            "details": self.details[:10],
        }


def _bit_concat(a_buf, a_bits, b_buf, b_bits) -> tuple[np.ndarray, int]:
    """Concatenate two MSB-first bit buffers at the bit level."""
    from repro.utils.bits import unpack_to_bits

    bits = np.concatenate([
        unpack_to_bits(a_buf, a_bits), unpack_to_bits(b_buf, b_bits)
    ])
    total = a_bits + b_bits
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    if total:
        pad = np.zeros((-total) % 8, dtype=np.uint8)
        out[:] = np.packbits(np.concatenate([bits, pad]))
    return out, total


def _inv_bitstream_equality(corpus: Corpus, magnitude: int) -> InvariantResult:
    res = InvariantResult("bitstream_equality", corpus.name)
    from repro.baselines.cusz_encoder import cusz_coarse_encode
    from repro.baselines.prefix_sum_encoder import prefix_sum_encode
    from repro.huffman.cpu_mt import cpu_mt_encode

    for s in corpus.samples:
        book = s.resolve_book()
        ref_buf, ref_bits = serial_encode(s.data, book)

        # prefix-sum emits the identical dense stream
        ps = prefix_sum_encode(s.data, book)
        res.check(
            ps.total_bits == ref_bits and np.array_equal(ps.buffer, ref_buf),
            s.name, "prefix_sum dense stream != serial reference",
        )

        # chunked encoders: each chunk equals the serial packing of its
        # own slice (byte-aligned, so byte equality holds per chunk)
        mt = cpu_mt_encode(s.data, book, threads=3)
        lo = 0
        mt_ok = True
        for buf, nb, ns in zip(mt.chunk_buffers, mt.chunk_bits,
                               mt.chunk_symbols):
            sb, sbits = serial_encode(s.data[lo: lo + int(ns)], book)
            mt_ok &= int(nb) == sbits and np.array_equal(buf, sb)
            lo += int(ns)
        res.check(mt_ok, s.name, "cpu_mt chunk bits != serial slice bits")

        cz = cusz_coarse_encode(s.data, book, chunk_symbols=1 << magnitude)
        lo = 0
        cz_ok = True
        for c, buf in enumerate(cz.chunk_buffers):
            hi = min(lo + cz.chunk_symbols, s.data.size)
            sb, sbits = serial_encode(s.data[lo:hi], book)
            cz_ok &= int(cz.chunk_bits[c]) == sbits and np.array_equal(buf, sb)
            lo = hi
        res.check(cz_ok, s.name, "cusz chunk bits != serial slice bits")

        # reduce-shuffle container: total code bits always equal the
        # reference; chunks without broken cells are payload-exact
        enc = gpu_encode(s.data, book, magnitude=magnitude,
                         impl="iterative")
        st = enc.stream

        # the scan-pack fast path serializes to the *identical bytes*
        # as the iterative reference (payload, offsets, breaking side
        # channel, tail — everything)
        scan = gpu_encode(s.data, book, magnitude=magnitude, impl="scan")
        res.check(
            serialize_stream(scan.stream, book)
            == serialize_stream(enc.stream, book),
            s.name, "scan-pack container bytes != iterative container",
        )
        res.check(
            st.encoded_bits == ref_bits, s.name,
            "reduce_shuffle encoded_bits != serial total bits",
        )
        cpc = st.tuning.cells_per_chunk
        bidx = st.breaking.cell_indices.astype(np.int64)
        N = st.tuning.chunk_symbols
        ch_ok = True
        for c in range(st.n_chunks):
            n_broken = int(np.searchsorted(bidx, (c + 1) * cpc)
                           - np.searchsorted(bidx, c * cpc))
            if n_broken:
                continue  # broken cells are carried by the side channel
            p, bits = st.chunk_payload(c)
            sb, sbits = serial_encode(s.data[c * N: (c + 1) * N], book)
            ch_ok &= bits == sbits and np.array_equal(p, sb)
        res.check(
            ch_ok, s.name,
            "reduce_shuffle unbroken chunk payload != serial slice",
        )
    return res


def _inv_concatenation(corpus: Corpus, magnitude: int) -> InvariantResult:
    res = InvariantResult("concatenation", corpus.name)
    for s in corpus.samples:
        if s.data.size < 2:
            continue
        book = s.resolve_book()
        cut = s.data.size // 2
        a, b = s.data[:cut], s.data[cut:]
        ab = np.concatenate([a, b])

        buf_a, bits_a = serial_encode(a, book)
        buf_b, bits_b = serial_encode(b, book)
        buf_ab, bits_ab = serial_encode(ab, book)
        cat_buf, cat_bits = _bit_concat(buf_a, bits_a, buf_b, bits_b)
        res.check(
            bits_ab == cat_bits and np.array_equal(buf_ab, cat_buf),
            s.name, "serial(a++b) != bitconcat(serial(a), serial(b))",
        )

        enc = gpu_encode(ab, book, magnitude=magnitude)
        back = decode_stream(enc.stream, book)
        res.check(
            np.array_equal(back, ab.astype(np.int64)),
            s.name, "chunked round trip of concatenation diverges",
        )
    return res


def _inv_magnitude_independence(
    corpus: Corpus, magnitude: int
) -> InvariantResult:
    res = InvariantResult("magnitude_independence", corpus.name)
    alt = 8 if magnitude != 8 else 9
    for s in corpus.samples:
        book = s.resolve_book()
        expected = s.data.astype(np.int64)
        outs = {}
        for m in (magnitude, alt):
            st = gpu_encode(s.data, book, magnitude=m).stream
            outs[m] = decode_stream(st, book)
        res.check(
            np.array_equal(outs[magnitude], expected)
            and np.array_equal(outs[alt], expected),
            s.name, f"decode differs between M={magnitude} and M={alt}",
        )
    return res


def _inv_codebook_digest(corpus: Corpus, magnitude: int) -> InvariantResult:
    res = InvariantResult("codebook_digest_stability", corpus.name)
    for s in corpus.samples:
        freqs = np.bincount(
            s.data.reshape(-1).astype(np.int64),
            minlength=max(s.n_alphabet, 1),
        )[: max(s.n_alphabet, 1)].astype(np.int64)
        if not np.any(freqs > 0):
            continue
        b1 = parallel_codebook(freqs).codebook
        b2 = parallel_codebook(freqs.copy()).codebook
        d1, d2 = codebook_digest(b1), codebook_digest(b2)
        res.check(d1 == d2, s.name, "independent builds digest differently")

        rt = deserialize_codebook(serialize_codebook(b1))
        res.check(
            codebook_digest(rt) == d1, s.name,
            "codebook serialize/deserialize changes the digest",
        )

        ref = canonical_from_lengths(b1.lengths)
        res.check(
            np.array_equal(ref.codes, b1.codes), s.name,
            "codes are not the canonical assignment of their lengths",
        )

        # every optimal constructor agrees on the weighted code length
        cost_par = int(np.sum(freqs * b1.lengths))
        cost_tree = int(np.sum(freqs * codeword_lengths_serial(freqs)))
        cost_2q = int(np.sum(freqs * two_queue_lengths(freqs)))
        res.check(
            cost_par == cost_tree == cost_2q, s.name,
            "optimal constructors disagree on total code bits",
        )
    return res


_INVARIANT_FNS = {
    "bitstream_equality": _inv_bitstream_equality,
    "concatenation": _inv_concatenation,
    "magnitude_independence": _inv_magnitude_independence,
    "codebook_digest_stability": _inv_codebook_digest,
}


def run_invariants(
    corpora: list[Corpus],
    magnitude: int = 10,
    names: tuple[str, ...] = INVARIANT_NAMES,
) -> list[InvariantResult]:
    """Run the named invariant suites over every corpus."""
    out = []
    for corpus in corpora:
        for name in names:
            out.append(_INVARIANT_FNS[name](corpus, magnitude))
    return out
