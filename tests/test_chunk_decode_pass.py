"""The native chunk-decode pass on hostile input.

Two guarantees, on hosts where :mod:`repro.native` builds:

- **Oracle parity on mutated containers.** Seeded bit flips, byte
  stomps and truncations of real ``compress_symbols`` containers (text
  bytes, and DNA 3-mers under their 18-bit book) give the same outcome
  through the pass as through the NumPy oracle (the same calls with the
  module switched off: ``decode_lanes`` → ``assemble_stream_symbols`` →
  ``astype``): the same ``ValueError`` message, or an equal array of
  the same dtype.
- **Bounded stores.** Whatever the placement asks for, the pass stores
  only inside its output: a placement that does not fit is rejected
  before its lane decodes, and the bytes past the output stay
  untouched.

``make native-asan`` runs this module under AddressSanitizer and UBSan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.app.compressor import (
    compress_symbols,
    compress_symbols_registered,
    decompress_symbols,
)
from repro.core.bitstream import stream_lanes
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.datasets.genomics import (
    generate_dna,
    kmer_alphabet_size,
    kmer_symbolize,
)
from repro.datasets.synthetic import probs_for_avg_bits, sample_symbols
from repro.decoder.gap_array import (
    LanePlacement,
    _pad_buffer,
    gap_decode_lanes,
)
from repro.huffman.cache import cached_decode_table

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason="native module not built here"
)

#: mutants per corpus in the tier-1 run (``make native-asan`` adds the
#: conformance fuzz, over 1000 per corpus)
MUTANTS = 150


def _text_blob() -> bytes:
    """6000 enwik-like bytes (avg ~5.2 bits), M = 8: 23 chunks plus a
    tail, with broken cells."""
    rng = np.random.default_rng(101)
    data = sample_symbols(probs_for_avg_bits(256, 5.16), 6000, rng)
    return compress_symbols(data.astype(np.uint8), magnitude=8)[0]


def _dna_blob() -> bytes:
    """4000 DNA 3-mers (uint16) under the 18-bit book of 2^18 of them,
    M = 8: the pass descends subtables on the rare ambiguity codes."""
    rng = np.random.default_rng(102)
    seq = generate_dna(3 * (1 << 18), rng, ambiguity_rate=0.02)
    syms = kmer_symbolize(seq, 3)
    freqs = np.bincount(syms, minlength=kmer_alphabet_size(3))
    book = parallel_codebook(freqs.astype(np.int64)).codebook
    assert book.max_length == 18
    data = syms[:4000].astype(np.uint16)
    return compress_symbols_registered(data, book, magnitude=8)[0]


def _mutants(blob: bytes, seed: int, n: int):
    """Seeded bit flips (1-3 bits), byte stomps and truncations."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        buf = bytearray(blob)
        op = i % 4
        if op < 2:
            for at in rng.integers(0, len(buf) * 8, 1 + op * 2):
                buf[at >> 3] ^= 1 << (at & 7)
        elif op == 2:
            buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        else:
            buf = buf[: int(rng.integers(0, len(buf)))]
        yield bytes(buf)


def _outcome(blob: bytes):
    try:
        return decompress_symbols(blob), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("corpus", ["text", "dna"])
def test_mutated_containers_match_oracle(corpus):
    blob = _text_blob() if corpus == "text" else _dna_blob()
    decoded = 0
    for i, mutant in enumerate(_mutants(blob, seed=len(corpus), n=MUTANTS)):
        got = _outcome(mutant)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "kernel", lambda: None)
            want = _outcome(mutant)
        assert got[1] == want[1], f"mutant {i}: {got[1]!r} != {want[1]!r}"
        if want[1] is None:
            assert got[0].dtype == want[0].dtype
            np.testing.assert_array_equal(got[0], want[0])
        decoded += want[1] is None or "exhausted" in want[1]
    # most flips land in payload bits, so most mutants reach the decoder
    assert decoded >= MUTANTS // 3


def _lanes():
    """A small container's lanes, its padded buffer and table."""
    rng = np.random.default_rng(103)
    data = rng.integers(0, 40, 3000).astype(np.uint16)
    book = parallel_codebook(np.bincount(data, minlength=40)).codebook
    stream = gpu_encode(data, book, magnitude=8).stream
    buffer, starts, ends, nsyms = stream_lanes(stream)
    table = cached_decode_table(book)
    return data, book, table, buffer, starts, ends, nsyms


def test_placement_outside_output_is_rejected():
    data, book, table, buffer, starts, ends, nsyms = _lanes()
    off = np.zeros(nsyms.size, np.int64)
    np.cumsum(nsyms[:-1], out=off[1:])
    base = np.zeros(nsyms.size + 1, np.int64)
    holes = np.empty(0, np.int64)
    ok = LanePlacement(off, base, holes, 1, data.size)
    res = gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                           placement=ok, dtype=np.uint16)
    np.testing.assert_array_equal(res.symbols, data)
    bad_base = base.copy()
    bad_base[-1] = 1  # the last lane claims a hole past holes[]
    for bad in (
        LanePlacement(off, base, holes, 1, data.size - 1),
        LanePlacement(off + 1, base, holes, 1, data.size),
        LanePlacement(off, bad_base, holes, 1, data.size + 1),
        LanePlacement(off, base, holes, 0, data.size),
    ):
        with pytest.raises(ValueError, match="placement outside"):
            gap_decode_lanes(buffer, starts, ends, nsyms, book, table,
                             placement=bad)


@pytest.mark.parametrize("seed", range(6))
def test_stores_stay_inside_output(seed):
    """Random holes (unsorted, repeated, negative, huge) and a group
    that packs them tight: every lane that fits its bound decodes, no
    byte past the output changes, and the pass names a lane that does
    not fit instead of decoding it."""
    _data, _book, table, buffer, starts, ends, nsyms = _lanes()
    kern = native.kernel()
    rng = np.random.default_rng(seed)
    holes = rng.integers(-5, 5000, 40)
    base = np.sort(rng.integers(0, holes.size + 1, nsyms.size + 1))
    group = int(rng.integers(1, 9))
    off = rng.integers(0, 200, nsyms.size)
    n_out = int(nsyms.sum()) + group * holes.size + 200
    guard = np.full(n_out + 64, 0xAB, np.uint8)
    out = guard[:n_out]
    bad, _ = kern.chunk_decode(
        _pad_buffer(buffer, table.max_length), buffer.size * 8,
        starts, ends, nsyms, off, base, holes, group, table, out,
    )
    assert (guard[n_out:] == 0xAB).all()
    # the lanes' bits are intact, so only a placement can stop the pass
    fits = off + nsyms + group * np.diff(base) <= n_out
    assert bad == (-1 if fits.all() else int(np.flatnonzero(~fits)[0]))


def test_exhausted_lane_is_returned():
    """The raw pass returns the first lane that runs out of bits."""
    data, _book, table, buffer, starts, ends, nsyms = _lanes()
    kern = native.kernel()
    owed = nsyms.copy()
    owed[2] += 10**6
    off = np.zeros(nsyms.size, np.int64)
    np.cumsum(owed[:-1], out=off[1:])
    out = np.empty(int(owed.sum()), np.int64)
    bad, _ = kern.chunk_decode(
        _pad_buffer(buffer, table.max_length), buffer.size * 8,
        starts, ends, owed, off, np.zeros(nsyms.size + 1, np.int64),
        np.empty(0, np.int64), 1, table, out,
    )
    assert bad == 2
