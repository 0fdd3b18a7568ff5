"""Inputs are a function of the seed alone."""

import itertools

import numpy as np
import pytest

from bench import inputs

GENERATORS = {
    "text-1m": inputs.text_inputs,
    "genomics-deep": inputs.dna_inputs,
    "field-16m": inputs.field_inputs,
}


def _digest(workload: str, seed: int) -> str:
    if workload == "serve-registered":
        return inputs.digest(inputs.serve_payloads(seed)[:4])
    return inputs.digest(itertools.islice(GENERATORS[workload](seed), 2))


@pytest.mark.parametrize("workload", [*GENERATORS, "serve-registered"])
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first = _digest(workload, 2021)
    assert _digest(workload, 2021) == first
    assert _digest(workload, 2022) != first


def test_calls_within_a_run_differ():
    a, b = itertools.islice(inputs.text_inputs(7), 2)
    assert not np.array_equal(a, b)


def test_cdf_sampler_matches_searchsorted():
    probs = inputs.enwik8_probs()
    sampler = inputs.CdfSampler(probs)
    got = sampler.sample(np.random.default_rng(3), 1 << 16, np.int64)
    u = np.random.default_rng(3).random(1 << 16)
    assert np.array_equal(got, np.searchsorted(sampler.cdf, u, side="right"))


def test_frozen_distribution():
    probs = inputs.enwik8_probs()
    assert probs.shape == (256,)
    assert probs.min() > 0
    assert probs.sum() == pytest.approx(1.0)


def test_dna_book_is_deeper_than_the_flat_table():
    from repro.app.compressor import compress_symbols
    from repro.core.serialization import deserialize_stream

    x = inputs.dna_kmers(np.random.default_rng(0), inputs.DNA_SYMBOLS)
    blob, _ = compress_symbols(x, num_symbols=inputs.DNA_ALPHABET ** inputs.KMER)
    _, book = deserialize_stream(blob[13:])
    assert book.max_length > 16
