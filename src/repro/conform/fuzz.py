"""Byte-level mutation fuzzing of serialized containers.

The serving layer feeds untrusted bytes straight into the
``deserialize_*`` functions, whose contract (enforced by
``container_guard``) is: *corrupt input raises* ``ValueError`` *and
nothing else*.  ``struct.error``, ``IndexError``, ``OverflowError``,
``MemoryError`` escaping a deserializer is a bug, as is a runaway
allocation obeying a corrupted size field.

This module builds well-formed containers from conformance corpus
samples and applies seeded byte-level mutations — truncation, bit
flips, byte stomps, zeroed ranges, spliced (duplicated) ranges, junk
prefixes — then checks the contract on every mutant.  Successful
deserialization of a corrupted-but-still-valid buffer is *fine*: the
contract is about exception type, not detection power.  The
``symbols`` target runs ``decompress_symbols`` in full, so every mutant
that still parses reaches the decoder (the native chunk-decode pass
where it loads, through the table's multi-symbol plane where the stream
is sparse enough) with hostile payload bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.app.compressor import (
    compress_symbols_registered,
    decompress_symbols,
)
from repro.conform.corpora import Corpus
from repro.core.adaptive import adaptive_encode
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    deserialize_adaptive,
    deserialize_codebook,
    deserialize_stream,
    serialize_adaptive,
    serialize_codebook,
    serialize_stream,
)
from repro.huffman.decoder import plane_dtype

__all__ = ["FuzzResult", "run_fuzz", "MUTATION_OPS"]

MUTATION_OPS = (
    "truncate", "bit_flip", "byte_stomp", "zero_range", "splice",
    "junk_prefix",
)

#: only this exception type may escape a deserializer
_ALLOWED = ValueError


@dataclass
class FuzzResult:
    """Contract outcome for one (container, corpus) fuzz target."""

    target: str
    corpus: str
    sample: str
    mutants: int = 0
    rejected: int = 0   # ValueError, per the contract
    accepted: int = 0   # still parsed: corruption landed in dead bits
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "corpus": self.corpus,
            "sample": self.sample,
            "mutants": self.mutants,
            "rejected": self.rejected,
            "accepted": self.accepted,
            "status": "pass" if self.ok else "FAIL",
            "violations": self.violations[:10],
        }


def _mutate(blob: bytes, op: str, rng: np.random.Generator) -> bytes:
    buf = bytearray(blob)
    n = len(buf)
    if op == "truncate":
        return bytes(buf[: int(rng.integers(0, n + 1))])
    if op == "junk_prefix":
        junk = bytes(rng.integers(0, 256, int(rng.integers(1, 48)),
                                  dtype=np.uint8))
        return junk + bytes(buf[len(junk):])
    if n == 0:
        return bytes(buf)
    if op == "bit_flip":
        for _ in range(int(rng.integers(1, 9))):
            buf[int(rng.integers(0, n))] ^= 1 << int(rng.integers(0, 8))
    elif op == "byte_stomp":
        pos = int(rng.integers(0, n))
        buf[pos] = int(rng.integers(0, 256))
    elif op == "zero_range":
        lo = int(rng.integers(0, n))
        hi = min(n, lo + int(rng.integers(1, 64)))
        buf[lo:hi] = bytes(hi - lo)
    elif op == "splice":
        lo = int(rng.integers(0, n))
        hi = min(n, lo + int(rng.integers(1, 32)))
        at = int(rng.integers(0, n))
        buf[at:at] = buf[lo:hi]
    else:  # pragma: no cover - guarded by MUTATION_OPS
        raise ValueError(f"unknown mutation op {op!r}")
    return bytes(buf)


def _attempt(result: FuzzResult, deserialize, mutant: bytes, op: str) -> None:
    result.mutants += 1
    try:
        deserialize(mutant)
    except _ALLOWED:
        result.rejected += 1
    except Exception as exc:  # noqa: BLE001 - the contract violation
        result.violations.append({
            "op": op,
            "error": f"{type(exc).__name__}: {exc}",
            "mutant_bytes": len(mutant),
        })
    else:
        result.accepted += 1


def _targets(sample, magnitude: int):
    """Build (name, blob, deserializer) triples from one sample."""
    book = sample.resolve_book()
    stream = gpu_encode(sample.data, book, magnitude=magnitude).stream
    out = [
        ("stream", serialize_stream(stream, book), deserialize_stream),
        ("codebook", serialize_codebook(book), deserialize_codebook),
    ]
    ada = adaptive_encode(sample.data, book, magnitude=magnitude)
    out.append(
        ("adaptive", serialize_adaptive(ada, book), deserialize_adaptive)
    )
    # symbols in the book's narrowest dtype, so a decode that accepts a
    # mutant can read the table's multi-symbol plane
    blob, _report = compress_symbols_registered(
        sample.data.astype(plane_dtype(book)), book, magnitude=magnitude
    )
    out.append(("symbols", blob, decompress_symbols))
    return out


def run_fuzz(
    corpora: list[Corpus],
    rounds: int = 24,
    seed: int = 0xC0DEC,
    magnitude: int = 10,
    max_sample_symbols: int = 4_096,
) -> list[FuzzResult]:
    """Fuzz every container format against one sample per corpus.

    ``rounds`` mutants are generated *per mutation op* per target, so
    one target sees ``rounds * len(MUTATION_OPS)`` mutants.  The run is
    fully determined by ``seed``.
    """
    rng = np.random.default_rng(seed)
    out: list[FuzzResult] = []
    for corpus in corpora:
        # pick the largest sample under the cap: most container surface;
        # a corpus of larger samples only (the dataset surrogates) gives
        # the first cap symbols of its smallest
        if not corpus.samples:
            continue
        candidates = [
            s for s in corpus.samples if s.data.size <= max_sample_symbols
        ]
        if candidates:
            sample = max(candidates, key=lambda s: s.data.size)
        else:
            small = min(corpus.samples, key=lambda s: s.data.size)
            sample = replace(small, data=small.data[:max_sample_symbols])
        for name, blob, deserialize in _targets(sample, magnitude):
            res = FuzzResult(name, corpus.name, sample.name)
            for op in MUTATION_OPS:
                for _ in range(rounds):
                    _attempt(res, deserialize, _mutate(blob, op, rng), op)
            out.append(res)
    return out
