"""End-to-end observability: one traced round trip tells the whole story."""

from __future__ import annotations

import numpy as np
import pytest

from repro.app.compressor import (
    compress_field,
    compress_symbols,
    decompress_field,
    decompress_symbols,
)
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import V100
from repro.cuda.profiler import Profiler
from repro.obs.export import (
    stage_summary,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import PIPELINE_STAGES, Tracer, tracing


@pytest.fixture
def registry():
    """Fresh global metrics registry for the duration of one test."""
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


@pytest.fixture
def field(rng) -> np.ndarray:
    x = np.linspace(0, 6.0, 4096)
    return (np.sin(x) * 10 + rng.normal(0, 0.05, x.size)).reshape(64, 64)


class TestTracedRoundTrip:
    def test_field_round_trip_emits_pipeline_stages(self, field, registry):
        with tracing() as tracer:
            blob, report = compress_field(field, error_bound=1e-2)
            recon = decompress_field(blob)
        assert np.all(np.abs(recon - field) <= 1e-2)

        names = set(tracer.span_names())
        # one span per paper stage: histogram, codebook, canonize,
        # reduce-shuffle-merge, decode (the acceptance criterion)
        for stage in PIPELINE_STAGES:
            assert stage in names, f"missing pipeline stage span {stage}"
        # plus the app envelopes and codebook sub-phases
        for extra in ("app.compress_field", "app.quantize",
                      "app.decompress_field", "app.dequantize",
                      "encode.codebook.generate_cl",
                      "encode.codebook.generate_cw"):
            assert extra in names, f"missing span {extra}"

    def test_span_nesting_matches_call_structure(self, field, registry):
        with tracing() as tracer:
            compress_field(field, error_bound=1e-2)
        by_name = {s.name: s for s in tracer.spans}
        app = by_name["app.compress_field"]
        assert app.parent_id == 0
        assert by_name["app.quantize"].parent_id == app.span_id
        enc = by_name["encode.reduce_shuffle_merge"]
        # the encode stage runs inside the compress_field envelope
        parents = {s.span_id: s for s in tracer.spans}
        cur, seen = enc, set()
        while cur.parent_id and cur.parent_id not in seen:
            seen.add(cur.parent_id)
            cur = parents[cur.parent_id]
        assert app.span_id in seen | {enc.parent_id}

    def test_metrics_dump_has_cache_and_fallback_counters(
        self, field, registry
    ):
        with tracing():
            blob, _ = compress_field(field, error_bound=1e-2)
            decompress_field(blob)
        snap = registry.snapshot()
        assert "repro_cache_hits_total" in snap or \
            "repro_cache_misses_total" in snap
        # the decode path reports its machinery: both the lane decoder
        # and the native pass count the lanes they decoded
        assert "repro_decode_lanes_total" in snap
        assert "repro_app_bytes_in_total" in snap
        assert registry.total("repro_encode_symbols_total") == field.size
        assert registry.total("repro_decode_symbols_total") >= field.size

    def test_exports_validate_and_embed_metrics(
        self, field, registry, tmp_path
    ):
        with tracing() as tracer:
            blob, _ = compress_field(field, error_bound=1e-2)
            decompress_field(blob)
        cj, jl = tmp_path / "t.json", tmp_path / "t.jsonl"
        doc = write_chrome_trace(cj, tracer, registry=registry)
        write_jsonl(jl, tracer, registry=registry)
        assert validate_chrome_trace(cj) == []
        assert validate_jsonl(jl) == []
        metrics = doc["otherData"]["metrics"]
        assert "repro_decode_lanes_total" in metrics
        summary = stage_summary(tracer)
        assert "encode.reduce_shuffle_merge" in summary
        assert "decode.stream" in summary

    def test_untraced_path_still_works_and_counts(self, registry):
        """No tracer installed: pipeline runs, metrics still accumulate."""
        data = np.arange(512, dtype=np.uint16) % 32
        blob, report = compress_symbols(data)
        out = decompress_symbols(blob)
        np.testing.assert_array_equal(out, data)
        assert registry.total("repro_app_bytes_in_total",
                              op="compress_symbols") == data.nbytes


class TestProfilerBridge:
    def _profiler(self) -> Profiler:
        prof = Profiler(V100)
        prof.record(
            KernelCost(name="hist.privatized", bytes_coalesced=1e6,
                       launches=1, compute_cycles=1e5),
            payload_bytes=1e6,
        )
        prof.record(
            KernelCost(name="enc.shuffle_merge", bytes_coalesced=2e6,
                       launches=1, compute_cycles=2e5),
            payload_bytes=2e6,
        )
        return prof

    def test_to_spans_lays_kernels_end_to_end(self):
        prof = self._profiler()
        spans = prof.to_spans()
        assert [s.name for s in spans] == [
            "modeled.hist.privatized", "modeled.enc.shuffle_merge",
        ]
        assert all(s.track == f"modeled:{V100.name}" for s in spans)
        a, b = spans
        assert b.start_us == pytest.approx(a.start_us + a.dur_us)
        assert a.attrs["modeled"] is True
        assert a.attrs["gbps"] > 0

    def test_merge_into_tracer_shares_one_export(self, tmp_path):
        prof = self._profiler()
        tracer = Tracer("mixed")
        with tracer.span("measured.work"):
            pass
        n = prof.merge_into(tracer)
        assert n == 2
        names = tracer.span_names()
        assert "measured.work" in names
        assert "modeled.hist.privatized" in names
        path = tmp_path / "mixed.json"
        prof_doc = write_chrome_trace(path, tracer)
        assert validate_chrome_trace(prof_doc) == []

    def test_export_chrome_direct(self, tmp_path):
        prof = self._profiler()
        path = tmp_path / "prof.json"
        prof.export_chrome(path)
        assert validate_chrome_trace(path) == []

