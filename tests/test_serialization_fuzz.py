"""Adversarial container fuzz: only ValueError may escape deserializers.

Satellite acceptance bar for the serving PR: a network-facing service
feeds untrusted bytes straight into ``deserialize_*`` /
``decompress_*``.  Hypothesis truncates and bit-flips well-formed
containers; any escape of ``struct.error`` / ``IndexError`` /
``OverflowError`` / ``KeyError`` / ``TypeError`` (or a runaway
allocation) is a bug.  Successful decodes of corrupted-but-still-valid
buffers are fine -- the contract is about *exception type*, not
detection power.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.compressor import (
    compress_field,
    compress_symbols,
    decompress_field,
    decompress_symbols,
)
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import (
    deserialize_adaptive,
    deserialize_codebook,
    deserialize_stream,
    serialize_codebook,
    serialize_stream,
)

#: the only exception type allowed to escape a deserializer
ALLOWED = ValueError


def _symbols(seed=3, n=1500, alphabet=40):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(alphabet) * 0.2)
    return rng.choice(alphabet, size=n, p=probs).astype(np.uint16)


SYMS = _symbols()
BLOB_SYM = compress_symbols(SYMS)[0]
BLOB_FIELD = compress_field(
    np.random.default_rng(5).normal(size=2048).astype(np.float32),
    error_bound=1e-2,
)[0]
_BOOK = parallel_codebook(np.bincount(SYMS, minlength=40)).codebook
BLOB_STREAM = serialize_stream(gpu_encode(SYMS, _BOOK).stream, _BOOK)
BLOB_BOOK = serialize_codebook(_BOOK)

TARGETS = [
    ("symbols", BLOB_SYM, decompress_symbols),
    ("field", BLOB_FIELD, decompress_field),
    ("stream", BLOB_STREAM, deserialize_stream),
    ("codebook", BLOB_BOOK, deserialize_codebook),
    ("adaptive", BLOB_SYM, None),  # filled below
]


def _decode_adaptive(buf: bytes):
    # the app container wraps an RPRH/RPRA payload after a 13-byte header
    return deserialize_adaptive(buf)


TARGETS[4] = ("adaptive", BLOB_SYM[13:], _decode_adaptive)


def _attempt(decode, buf: bytes) -> None:
    try:
        decode(bytes(buf))
    except ALLOWED:
        pass  # the contract: corrupt input → ValueError, nothing else


@pytest.mark.parametrize("name,blob,decode",
                         TARGETS, ids=[t[0] for t in TARGETS])
class TestFuzz:
    @given(cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_only_raises_valueerror(self, name, blob, decode,
                                               cut):
        n = len(blob)
        _attempt(decode, blob[: max(0, n - cut)])
        _attempt(decode, blob[: cut % max(n, 1)])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bit_flips_only_raise_valueerror(self, name, blob, decode,
                                             data):
        buf = bytearray(blob)
        n_flips = data.draw(st.integers(min_value=1, max_value=8))
        for _ in range(n_flips):
            pos = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
            bit = data.draw(st.integers(min_value=0, max_value=7))
            buf[pos] ^= 1 << bit
        _attempt(decode, buf)

    @given(junk=st.binary(min_size=0, max_size=64))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_junk_only_raises_valueerror(self, name, blob,
                                                   decode, junk):
        _attempt(decode, junk)
        _attempt(decode, junk + blob[len(junk):])


def test_size_field_corruption_does_not_allocate_unbounded():
    """Flipping high bits of u64 size fields must be *rejected*, not
    obeyed: declared symbol counts beyond the encoded bit budget raise."""
    buf = bytearray(BLOB_SYM)
    # n_symbols is the u64 at bytes 5:13 of the RPRS header ("<BQ"
    # after the 4-byte magic); poking any high byte declares a count in
    # the millions-to-quintillions range
    for byte in range(7, 13):
        poked = bytearray(buf)
        assert poked[byte] & 0x80 == 0
        poked[byte] |= 0x80
        with pytest.raises(ValueError):
            decompress_symbols(bytes(poked))


def test_clean_blobs_still_round_trip():
    """The hardening must not reject valid containers."""
    np.testing.assert_array_equal(decompress_symbols(BLOB_SYM), SYMS)
    stream, book = deserialize_stream(BLOB_STREAM)
    assert stream.n_symbols == SYMS.size
    assert book.lengths.size == _BOOK.lengths.size


def _outlier_blob() -> tuple[bytes, int, int]:
    """A field container with three outliers, the byte offset of its
    outlier-index table and the outlier count."""
    field = np.cumsum(np.random.default_rng(9).normal(size=4096)) * 1e-3
    field[[700, 1900, 3100]] += 5.0
    blob, report = compress_field(field, error_bound=1e-3)
    ndim = 1
    return blob, 4 + 24 + 8 * ndim + 8, report.outliers


@pytest.mark.parametrize("mutate", [
    lambda idx: idx[::-1],                   # swapped
    lambda idx: np.repeat(idx[:1], idx.size),  # duplicate
    lambda idx: -idx,                        # negative
    lambda idx: np.zeros_like(idx),          # zero
], ids=["swapped", "duplicate", "negative", "zero"])
def test_hostile_outlier_positions_are_refused(mutate):
    """Outlier indices must strictly increase within [1, n): a container
    that breaks that must not reconstruct a field off its error bound."""
    blob, at, n_out = _outlier_blob()
    assert blob[:4] == b"RPRF" and n_out >= 3
    idx = np.frombuffer(blob, np.int64, n_out, at)
    bad = mutate(idx.copy())
    assert not np.array_equal(bad, idx)
    poked = blob[:at] + bad.astype(np.int64).tobytes() + blob[at + 8 * n_out:]
    with pytest.raises(ValueError, match="outlier"):
        decompress_field(poked)
    decompress_field(blob)  # the unmutated container still decodes

