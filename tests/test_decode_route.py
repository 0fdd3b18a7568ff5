"""One decode route: every decode, at every size, goes through
:func:`repro.decoder.gap_array.gap_decode_lanes`.

There is no size rule: containers of 0, 1, 63 and 4095 symbols and a
4095-symbol dense ``decode_batch`` stream run the compiled gap kernel
(``backend="native"``) whenever it loads, and the ``decode.stream`` span
reports ``strategy="gap"``.  With the kernel off, the same calls decode
through the lanes and the span names why (``gap_fallback``); a
one-codeword book's incomplete table is named the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.core.bitstream import decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.decoder import gap_array
from repro.huffman.decoder import decode_batch
from repro.huffman.serial import serial_encode
from repro.native import native_available
from repro.obs.flight import extract_paths
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, tracing

SIZES = (0, 1, 63, 4095)

#: a complete 40-symbol book, independent of the (tiny) inputs
BOOK = parallel_codebook(np.arange(1, 41, dtype=np.int64)).codebook


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


@pytest.fixture
def routed(monkeypatch):
    """Every ``gap_decode_lanes`` result, in call order (callers look
    the function up through its module, so the spy sees them all)."""
    results = []
    real = gap_array.gap_decode_lanes

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(gap_array, "gap_decode_lanes", spy)
    return results


@pytest.fixture
def no_kernel(monkeypatch):
    monkeypatch.setattr(native, "kernel", lambda: None)


needs_kernel = pytest.mark.skipif(
    not native_available(), reason="native gap kernel not built here"
)


def _data(n: int) -> np.ndarray:
    return np.random.default_rng(n).integers(0, BOOK.n_symbols, n).astype(
        np.uint16
    )


def _traced_decode(stream, book):
    """``decode_stream`` under a private tracer: (symbols, span attrs)."""
    with tracing(Tracer("route")) as tracer:
        out = decode_stream(stream, book)
    spans = [sp for sp in tracer.spans if sp.name == "decode.stream"]
    assert len(spans) == 1
    return out, spans[0].to_dict()


@needs_kernel
@pytest.mark.parametrize("n", SIZES)
def test_small_container_runs_kernel(n, routed):
    data = _data(n)
    stream = gpu_encode(data, BOOK).stream
    out, span = _traced_decode(stream, BOOK)
    np.testing.assert_array_equal(out, data)
    assert [r.backend for r in routed] == ["native"]
    assert span["attrs"]["strategy"] == "gap"
    assert "gap_fallback" not in span["attrs"]
    assert extract_paths([span])["decode_strategy"] == "gap"


@needs_kernel
def test_small_dense_stream_runs_kernel(routed):
    data = _data(4095)
    buf, nbits = serial_encode(data, BOOK)
    out = decode_batch(buf, nbits, BOOK, data.size)
    np.testing.assert_array_equal(out, data)
    assert [r.backend for r in routed] == ["native"]


@pytest.mark.parametrize("n", SIZES)
def test_kernel_off_names_the_fallback(n, no_kernel, routed, registry):
    data = _data(n)
    stream = gpu_encode(data, BOOK).stream
    out, span = _traced_decode(stream, BOOK)
    np.testing.assert_array_equal(out, data)
    assert [r.backend for r in routed] == ["lanes"]
    assert span["attrs"]["strategy"] == "batch"
    assert span["attrs"]["gap_fallback"] == "no_native_kernel"
    assert registry.total("repro_decode_gap_lut_fallback_total",
                          reason="no_native_kernel") == 1


def test_kernel_off_dense_stream(no_kernel, routed):
    data = _data(4095)
    buf, nbits = serial_encode(data, BOOK)
    np.testing.assert_array_equal(
        decode_batch(buf, nbits, BOOK, data.size), data
    )
    assert [(r.backend, r.fallback) for r in routed] == [
        ("lanes", "no_native_kernel")
    ]


def test_one_codeword_book_records_incomplete_table(routed, registry):
    data = np.zeros(63, dtype=np.uint16)
    book = parallel_codebook(np.array([data.size], np.int64)).codebook
    stream = gpu_encode(data, book).stream
    out, span = _traced_decode(stream, book)
    np.testing.assert_array_equal(out, data)
    assert [r.backend for r in routed] == ["lanes"]
    assert span["attrs"]["strategy"] == "batch"
    assert span["attrs"]["gap_fallback"] == "incomplete_table"
    assert registry.total("repro_decode_gap_lut_fallback_total",
                          reason="incomplete_table") == 1
