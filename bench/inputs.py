"""Seeded input generators, owned by the benchmark.

Every workload's inputs come from here and from ``--seed`` alone, so a
change to the program (including :mod:`repro.datasets`) cannot change
what the benchmark feeds it.  Call ``i`` of a workload draws from its own
stream ``default_rng([seed, workload, i])``: the same seed gives the same
sequence of inputs however many calls a run manages to make.
"""

from __future__ import annotations

import hashlib
import json
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

#: enwik8-fitted 256-symbol distribution (~5.2 bits/symbol), frozen so
#: the workload cannot drift and the fit does not run per benchmark
ENWIK8_PROBS = Path(__file__).with_name("data") / "enwik8_probs.json"

TEXT_BYTES = 1 << 20
DNA_SYMBOLS = 1 << 18
DNA_ALPHABET = 11  # ACGT + 7 IUPAC ambiguity codes
KMER = 3
FIELD_SHAPE = (16, 128, 1024)
FIELD_ROUGHNESS = 1e-3
SERVE_ALPHABET = 1024
SERVE_SYMBOLS = 8192  # 16 KiB of uint16 per request
SERVE_POOL = 256

_STREAMS = {"text-1m": 1, "genomics-deep": 2, "field-16m": 3,
            "serve-registered": 4}


def call_rng(workload: str, seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload], i])


class CdfSampler:
    """Exact inverse-CDF sampling, ~3x faster than a plain searchsorted.

    A 2^16-bucket table resolves every uniform draw whose bucket holds
    a single symbol; the few draws in buckets a CDF step crosses fall
    back to the binary search, so the output equals
    ``searchsorted(cdf, u, side="right")`` draw for draw.
    """

    BUCKETS = 1 << 16

    def __init__(self, probs: np.ndarray) -> None:
        cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        self.cdf = cdf / cdf[-1]
        edges = np.arange(self.BUCKETS + 1) / self.BUCKETS
        lo = np.searchsorted(self.cdf, edges[:-1], side="right")
        hi = np.searchsorted(self.cdf, np.nextafter(edges[1:], 0), side="right")
        self.lo = lo
        self.mixed = lo != hi

    def sample(self, rng: np.random.Generator, n: int, dtype) -> np.ndarray:
        u = rng.random(n)
        bucket = (u * self.BUCKETS).astype(np.intp)
        out = self.lo[bucket]
        mixed = np.flatnonzero(self.mixed[bucket])
        out[mixed] = np.searchsorted(self.cdf, u[mixed], side="right")
        return out.astype(dtype)


def enwik8_probs() -> np.ndarray:
    with open(ENWIK8_PROBS) as f:
        return np.array(json.load(f)["probabilities"], dtype=np.float64)


def text_inputs(seed: int) -> Iterator[np.ndarray]:
    sampler = CdfSampler(enwik8_probs())
    for i in count():
        yield sampler.sample(call_rng("text-1m", seed, i), TEXT_BYTES, np.uint8)


def dna_kmers(rng: np.random.Generator, n_symbols: int) -> np.ndarray:
    """``n_symbols`` non-overlapping DNA 3-mers over the 11-letter alphabet.

    Base composition drifts in 4096-base blocks (isochores) and 2% of
    positions carry an ambiguity code, so the rare ambiguity-bearing
    3-mers give a natural codebook deeper than 16 bits.
    """
    size = n_symbols * KMER
    n_blocks = -(-size // 4096)
    gc = np.repeat(np.clip(0.51 + 0.08 * rng.standard_normal(n_blocks),
                           0.2, 0.8), 4096)[:size]
    u = rng.random(size)
    v = rng.random(size) < 0.5
    seq = np.where(u < gc, np.where(v, 1, 2), np.where(v, 0, 3))
    amb = np.flatnonzero(rng.random(size) < 0.02)
    seq[amb] = rng.integers(4, DNA_ALPHABET, amb.size)
    weights = DNA_ALPHABET ** np.arange(KMER - 1, -1, -1)
    return (seq.reshape(-1, KMER) @ weights).astype(np.uint16)


def dna_inputs(seed: int) -> Iterator[np.ndarray]:
    for i in count():
        yield dna_kmers(call_rng("genomics-deep", seed, i), DNA_SYMBOLS)


def smooth_field(rng: np.random.Generator, shape=FIELD_SHAPE,
                 roughness: float = FIELD_ROUGHNESS) -> np.ndarray:
    """Four octaves of cosine plane waves plus mild noise (float64)."""
    axes = [np.linspace(0.0, 1.0, s) for s in shape]
    coord = (axes[0][:, None, None] + axes[1][None, :, None]
             + axes[2][None, None, :])
    field = np.zeros(shape)
    for octave in range(1, 5):
        freq = 2.0 ** octave
        field += np.cos(2 * np.pi * freq * coord
                        + rng.uniform(0, 2 * np.pi)) / freq
    field += roughness * rng.standard_normal(shape)
    return field


def field_inputs(seed: int) -> Iterator[np.ndarray]:
    """One fixed smooth field; call ``i`` rescales it by its own seeded
    factor in [0.99, 1.01], which changes the quantization-code histogram
    (so the codebook cache misses) but not the field's character.  A
    base drawn per seed would move the ratio by ~1% from seed to seed."""
    base = smooth_field(np.random.default_rng(0))
    for i in count():
        yield base * call_rng("field-16m", seed, i).uniform(0.99, 1.01)


def serve_probs() -> np.ndarray:
    """Two-sided geometric quantization codes centred in 1024 bins."""
    k = np.arange(SERVE_ALPHABET) - SERVE_ALPHABET // 2
    p = 0.3 ** np.abs(k)
    return p / p.sum()


def serve_payloads(seed: int) -> list[np.ndarray]:
    sampler = CdfSampler(serve_probs())
    return [
        sampler.sample(call_rng("serve-registered", seed, i), SERVE_SYMBOLS,
                       np.uint16)
        for i in range(SERVE_POOL)
    ]


def serve_histogram() -> np.ndarray:
    """Registration histogram: the expected counts of 2^20 symbols,
    floored at 32 so every code is covered and none is deeper than the
    flat decode table."""
    return np.maximum(np.round(serve_probs() * (1 << 20)), 32).astype(np.int64)


def digest(arrays: Iterable[np.ndarray]) -> str:
    """sha256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()

