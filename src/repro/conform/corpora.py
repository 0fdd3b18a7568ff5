"""Shared conformance corpora.

Every corpus is a named, seeded list of :class:`Sample` inputs; the same
seed always reproduces the same bytes, so a failing (corpus, sample)
coordinate in ``CONFORMANCE.json`` is reproducible anywhere.

Corpus families:

``degenerate``
    The inputs that historically break Huffman implementations: the
    empty stream, a single-symbol alphabet, one repeated symbol out of a
    larger alphabet, and sizes exactly at / adjacent to the chunk
    boundary ``N = 2^M``.
``maxlen_w``
    A crafted codebook whose longest codewords are exactly ``W = 32``
    bits (the representing-word width), so reduce-merge cells overflow
    pervasively — the breaking side channel becomes the *common* path
    instead of the rare one, and decode tables must fall back to the
    First/Entry scan.
``skewed`` / ``uniform``
    Dirichlet-skewed and uniform draws: the compression-ratio extremes.
``large_alphabet``
    A crafted deep codebook (``max_length = 19 > 16``, 4103 symbols):
    the regime where no 2^16 root expresses every codeword and decoders
    must descend the decode table's subtables.
``genomics``
    DNA k-mer symbol streams (k = 3 and k = 4, alphabets 11^3 = 1331
    and 11^4 = 14641) — the paper's gbbct1.seq use case, with the
    codebook built from each sample's own histogram.
``enwik8`` / ``nyx_quant`` / …
    Paper-dataset surrogates from :mod:`repro.datasets.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.codebook_parallel import parallel_codebook
from repro.datasets.registry import PAPER_DATASETS, get_dataset
from repro.huffman.codebook import CanonicalCodebook, canonical_from_lengths

__all__ = ["Sample", "Corpus", "build_corpora", "corpus_names",
           "SMOKE_CORPORA", "FULL_CORPORA", "wbit_codebook",
           "deep_codebook"]

#: conformance corpora run by the smoke matrix (>= 4 per the contract)
SMOKE_CORPORA = ("degenerate", "maxlen_w", "skewed", "enwik8",
                 "large_alphabet")
#: additional corpora the full matrix adds
FULL_CORPORA = SMOKE_CORPORA + ("uniform", "nyx_quant", "boundary",
                                "genomics")

_DEFAULT_SEED = 20210521  # the paper's IPDPS date


@dataclass
class Sample:
    """One conformance input: data plus the codebook to encode it with.

    ``book=None`` means "build the codebook from the sample's own
    histogram with the parallel two-phase construction" (the common
    case); an explicit book exercises crafted length distributions the
    histogram path would never produce.
    """

    name: str
    data: np.ndarray
    n_alphabet: int
    book: CanonicalCodebook | None = None

    def resolve_book(self) -> CanonicalCodebook:
        if self.book is not None:
            return self.book
        freqs = np.bincount(
            self.data.reshape(-1).astype(np.int64), minlength=self.n_alphabet
        )[: self.n_alphabet]
        if not np.any(freqs > 0):
            # empty input: any non-trivial codebook will do; use a flat
            # two-symbol book so every decoder has valid metadata
            freqs = np.zeros(max(self.n_alphabet, 2), dtype=np.int64)
            freqs[:2] = 1
        return parallel_codebook(freqs.astype(np.int64)).codebook


@dataclass
class Corpus:
    name: str
    samples: list[Sample] = field(default_factory=list)
    description: str = ""

    @property
    def total_symbols(self) -> int:
        return int(sum(s.data.size for s in self.samples))


def wbit_codebook(word_bits: int = 32) -> CanonicalCodebook:
    """Codebook whose longest codewords are exactly ``word_bits`` long.

    Length vector ``[1, 2, …, W-1, W, W]`` saturates the Kraft sum and
    puts two codewords at the representing-word width — one merged cell
    of 2^r of these is guaranteed to overflow, forcing the breaking
    backtrace and the sparse side channel on nearly every cell.
    """
    lens = np.array(
        list(range(1, word_bits)) + [word_bits, word_bits], dtype=np.int32
    )
    return canonical_from_lengths(lens)


def _degenerate(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed)
    N = 1 << magnitude
    samples = [
        Sample("empty", np.empty(0, dtype=np.uint8), 4),
        Sample(
            "single_symbol_alphabet",
            np.zeros(2 * N + 17, dtype=np.uint8), 1,
        ),
        Sample(
            "one_repeated_of_many",
            np.full(N + 3, 5, dtype=np.uint8), 16,
        ),
        Sample(
            "two_alternating",
            (np.arange(N, dtype=np.int64) % 2).astype(np.uint8), 2,
        ),
        Sample(
            "chunk_exact",
            rng.integers(0, 8, N).astype(np.uint8), 8,
        ),
        Sample(
            "chunk_minus_one",
            rng.integers(0, 8, N - 1).astype(np.uint8), 8,
        ),
        Sample(
            "chunk_plus_one",
            rng.integers(0, 8, N + 1).astype(np.uint8), 8,
        ),
    ]
    return Corpus(
        "degenerate", samples,
        "empty / single-symbol / repeated-symbol / exact chunk boundaries",
    )


def _maxlen_w(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed + 1)
    book = wbit_codebook(32)
    n_sym = book.n_symbols
    # uniform over the alphabet hits the 32-bit codewords constantly
    data = rng.integers(0, n_sym, 2_500).astype(np.uint8)
    # skew toward the long tail: the worst case for merge overflow
    tail_heavy = rng.choice(
        n_sym, size=1_500,
        p=np.arange(1, n_sym + 1) / np.arange(1, n_sym + 1).sum(),
    ).astype(np.uint8)
    return Corpus(
        "maxlen_w",
        [
            Sample("uniform_wbit", data, n_sym, book=book),
            Sample("tail_heavy_wbit", tail_heavy, n_sym, book=book),
        ],
        "codewords up to exactly W=32 bits: breaking-dominated streams",
    )


def deep_codebook(depth: int = 19, n_deep: int = 4096) -> CanonicalCodebook:
    """Codebook with ``n_deep`` codewords of length ``depth`` (> 16).

    Lengths ``[1..7]`` plus 4096 codewords at 19 bits keep the Kraft sum
    exactly 1 while putting the bulk of the alphabet past a 2^16 root —
    every table-driven decode of this book descends subtables.
    """
    lens = np.array(
        list(range(1, 8)) + [depth] * n_deep, dtype=np.int32
    )
    return canonical_from_lengths(lens)


def _large_alphabet(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed + 6)
    book = deep_codebook()
    n_sym = book.n_symbols
    uniform = rng.integers(0, n_sym, 2_000).astype(np.uint16)
    # skew toward the short codewords with a heavy deep tail: mixes
    # root-resolved and subtable-resolved symbols within every window
    probs = np.concatenate([
        np.full(7, 0.5 / 7), np.full(n_sym - 7, 0.5 / (n_sym - 7))
    ])
    mixed = rng.choice(n_sym, size=3_000, p=probs).astype(np.uint16)
    return Corpus(
        "large_alphabet",
        [
            Sample("uniform_deep", uniform, n_sym, book=book),
            Sample("short_heavy_deep", mixed, n_sym, book=book),
        ],
        "crafted max_length=19 book: subtable-descent regime",
    )


def _genomics(seed: int, magnitude: int) -> Corpus:
    from repro.datasets.genomics import (
        generate_dna,
        kmer_alphabet_size,
        kmer_symbolize,
    )

    rng = np.random.default_rng(seed + 7)
    samples = []
    for k, n_chars in ((3, 9_000), (4, 12_000)):
        seq = generate_dna(n_chars, rng, ambiguity_rate=0.01)
        syms = kmer_symbolize(seq, k)
        samples.append(Sample(
            f"kmer{k}", syms, kmer_alphabet_size(k)
        ))
    return Corpus(
        "genomics", samples,
        "DNA k-mer streams (k=3,4): large sparse alphabets",
    )


def _skewed(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed + 2)
    samples = []
    for i, (alpha, n_sym, size) in enumerate(
        [(0.05, 64, 3_000), (0.3, 256, 1 << magnitude), (1.0, 32, 2_500)]
    ):
        probs = rng.dirichlet(np.ones(n_sym) * alpha)
        data = rng.choice(n_sym, size=size, p=probs).astype(np.uint16)
        samples.append(Sample(f"dirichlet_a{alpha}", data, n_sym))
    return Corpus("skewed", samples, "Dirichlet-skewed draws, three alphas")


def _uniform(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed + 3)
    return Corpus(
        "uniform",
        [
            Sample(
                "uniform256",
                rng.integers(0, 256, 2_048).astype(np.uint8), 256,
            ),
            Sample(
                "uniform7",
                rng.integers(0, 7, 3_100).astype(np.uint8), 7,
            ),
        ],
        "incompressible / non-power-of-two alphabets",
    )


def _boundary(seed: int, magnitude: int) -> Corpus:
    rng = np.random.default_rng(seed + 4)
    N = 1 << magnitude
    samples = []
    for size in (2 * N, 2 * N - 1, 2 * N + 1, 3 * N + N // 2):
        samples.append(Sample(
            f"size_{size}",
            rng.integers(0, 16, size).astype(np.uint8), 16,
        ))
    return Corpus("boundary", samples, "sizes straddling chunk multiples")


def _dataset(name: str, seed: int, size_bytes: int) -> Corpus:
    ds = get_dataset(name)
    rng = np.random.default_rng(seed + 5)
    data, _scale = ds.generate(size_bytes, rng)
    return Corpus(
        name,
        [Sample(f"{name}_surrogate", np.asarray(data), ds.n_symbols)],
        ds.description,
    )


def corpus_names(full: bool = False) -> tuple[str, ...]:
    return FULL_CORPORA if full else SMOKE_CORPORA


def build_corpora(
    names: tuple[str, ...] | list[str] | None = None,
    seed: int = _DEFAULT_SEED,
    magnitude: int = 10,
    dataset_bytes: int = 8_192,
) -> list[Corpus]:
    """Materialize the named corpora (default: the smoke set)."""
    names = tuple(names) if names is not None else SMOKE_CORPORA
    out = []
    for name in names:
        if name == "degenerate":
            out.append(_degenerate(seed, magnitude))
        elif name == "maxlen_w":
            out.append(_maxlen_w(seed, magnitude))
        elif name == "large_alphabet":
            out.append(_large_alphabet(seed, magnitude))
        elif name == "genomics":
            out.append(_genomics(seed, magnitude))
        elif name == "skewed":
            out.append(_skewed(seed, magnitude))
        elif name == "uniform":
            out.append(_uniform(seed, magnitude))
        elif name == "boundary":
            out.append(_boundary(seed, magnitude))
        elif name in PAPER_DATASETS:
            out.append(_dataset(name, seed, dataset_bytes))
        else:
            raise ValueError(
                f"unknown corpus {name!r}; known: "
                f"{sorted(set(FULL_CORPORA) | set(PAPER_DATASETS))}"
            )
    return out
