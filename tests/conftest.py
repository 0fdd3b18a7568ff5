"""Shared fixtures, hypothesis profiles, and tier markers.

Hypothesis profiles
-------------------

``ci`` (the default)
    Deterministic: ``derandomize=True`` pins every example sequence so a
    failure reproduces byte-for-byte on any machine, and ``deadline=None``
    keeps slow-but-honest paths (the SIMT interpreter, process pools)
    from flaking on loaded runners.
``dev``
    Exploratory: random seeds, more examples, still no deadline.

Select with ``HYPOTHESIS_PROFILE=dev pytest ...``; CI never sets the
variable and therefore always runs the pinned profile.

Tier markers
------------

Every collected test gets ``tier1`` unless it already carries ``tier2``;
conformance-harness tests additionally carry ``conform`` (applied by
filename).  ``make test`` runs tier1 + the conform smoke matrix;
``pytest -m tier2`` opts into the slow exhaustive suites.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.codebook_parallel import parallel_codebook
from repro.huffman.codebook import CanonicalCodebook

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        deadline=None,
        derandomize=True,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "dev",
        deadline=None,
        max_examples=200,
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "conform" in item.nodeid.rsplit("/", 1)[-1]:
            item.add_marker(pytest.mark.conform)
        if item.get_closest_marker("tier2") is None:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(scope="module", params=["numpy", "native"])
def kernel_engine(request):
    """Run the requesting module once per kernel engine.

    ``numpy`` switches the compiled module (:mod:`repro.native`) off
    for the module, so every gap request takes the counted
    ``decode_lanes`` fallback and every scan-pack encode runs the
    paper's iterative pair — the paths a host without a C compiler
    runs.  ``native`` leaves the module to load as usual (it still
    falls back where the host cannot build it or the table is
    incomplete).  Modules whose kernels are NumPy only override it
    with a single ``numpy`` leg.
    """
    from repro import native

    with pytest.MonkeyPatch.context() as mp:
        if request.param == "numpy":
            mp.setattr(native, "kernel", lambda: None)
        yield request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def skewed_data(rng) -> np.ndarray:
    """Symbols over a 64-letter alphabet with a heavy-tailed distribution."""
    probs = rng.dirichlet(np.ones(64) * 0.1)
    return rng.choice(64, size=20_000, p=probs).astype(np.uint16)


@pytest.fixture
def skewed_book(skewed_data) -> CanonicalCodebook:
    freqs = np.bincount(skewed_data, minlength=64)
    return parallel_codebook(freqs).codebook


@pytest.fixture
def text_like(rng) -> np.ndarray:
    """Byte data with enwik-like entropy (avg codeword ~5 bits)."""
    from repro.datasets.synthetic import probs_for_avg_bits, sample_symbols

    probs = probs_for_avg_bits(256, 5.16)
    return sample_symbols(probs, 30_000, rng)


def make_book(freqs: np.ndarray) -> CanonicalCodebook:
    return parallel_codebook(np.asarray(freqs, dtype=np.int64)).codebook


def lanes_decode_stream(stream, book, table=None) -> np.ndarray:
    """A container through the NumPy lane decoder alone — the path
    ``decode_stream`` takes when the gap kernel cannot run — composed
    from the public ``stream_lanes`` / ``decode_lanes`` /
    ``assemble_stream_symbols``."""
    from repro.core.bitstream import (
        assemble_stream_symbols,
        decode_lanes,
        stream_lanes,
    )

    buffer, starts, ends, nsyms = stream_lanes(stream)
    return assemble_stream_symbols(
        stream, decode_lanes(buffer, starts, ends, nsyms, book, table)
    )


def lanes_decode_dense(buf, nbits, book, n, table=None) -> np.ndarray:
    """A dense bitstream as one ``decode_lanes`` lane: the lane-decoder
    counterpart of ``decode_batch``."""
    from repro.huffman.decoder import decode_lanes

    one = lambda v: np.array([v], dtype=np.int64)  # noqa: E731
    return decode_lanes(buf, one(0), one(nbits), one(n), book, table)
