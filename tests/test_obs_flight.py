"""Flight-recorder retention semantics, bounds, and thread safety."""

from __future__ import annotations

import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import (
    FlightRecorder,
    NullFlightRecorder,
    RequestRecord,
    extract_paths,
    flight_recorder,
    set_flight_recorder,
)
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture
def reg():
    mine = MetricsRegistry()
    prev = set_registry(mine)
    yield mine
    set_registry(prev)


def rec(
    request_id: str = "r1",
    status: str = "ok",
    duration_ms: float = 1.0,
    ts: float = 100.0,
    **kw,
) -> RequestRecord:
    return RequestRecord(
        request_id=request_id, op="compress", status=status,
        duration_ms=duration_ms, ts=ts, **kw,
    )


# ------------------------------------------------------------ retention --
def test_errors_always_kept(reg):
    fr = FlightRecorder(capacity=8, sample_every=1000)
    assert fr.record(rec("e1", status="error")) == "error"
    assert fr.record(rec("s1", status="shed")) == "error"
    assert [r.request_id for r in fr.recent(status="error")] == ["e1"]
    assert [r.request_id for r in fr.recent(status="shed")] == ["s1"]


def test_ambient_sampling_one_in_n(reg):
    fr = FlightRecorder(capacity=64, sample_every=4, min_outlier_window=999)
    for i in range(16):
        fr.record(rec(f"r{i}", ts=float(i)))
    kept = fr.recent()
    assert len(kept) == 4  # 16 / sample_every
    assert all(r.retained == "sample" for r in kept)
    assert fr.seen == 16 and fr.kept == 4


def test_outlier_kept_after_window_fills(reg):
    fr = FlightRecorder(
        capacity=64, sample_every=1000, min_outlier_window=8,
    )
    for i in range(8):
        fr.record(rec(f"fast{i}", duration_ms=1.0, ts=float(i)))
    # now the rolling window is warm; a 100x duration is >= its p99
    reason = fr.record(rec("slow", duration_ms=100.0, ts=99.0))
    assert reason == "outlier"
    ids = [r.request_id for r in fr.recent()]
    assert "slow" in ids


def test_cold_first_request_sets_no_outlier_bar(reg):
    """The first completion is the cold start (4-6 ms against 0.5-0.9 ms
    warm for a small compress).  Below 100 samples the nearest-rank p99
    is the window's maximum, so if the cold request counted, a warm
    request 6x slower than the others would still fall under it."""
    fr = FlightRecorder(capacity=64, sample_every=1000)
    assert fr.record(rec("cold", duration_ms=6.0, ts=0.0)) == ""
    for i in range(40):
        fr.record(rec(f"warm{i}", duration_ms=0.5 + 0.01 * (i % 10),
                      ts=1.0 + i))
    assert fr.stats()["p99_ms_estimate"] == pytest.approx(0.59)
    reason = fr.record(rec("slow", duration_ms=3.5, ts=99.0))
    assert reason == "outlier"
    assert "slow" in [r.request_id for r in fr.recent()]


def test_healthy_flood_cannot_evict_errors(reg):
    fr = FlightRecorder(capacity=8, sample_every=1, min_outlier_window=999)
    fr.record(rec("the-error", status="error", ts=0.0))
    for i in range(100):  # flood of retained healthy samples
        fr.record(rec(f"ok{i}", ts=float(i + 1)))
    ids = [r.request_id for r in fr.recent()]
    assert "the-error" in ids  # separate ring: never evicted by "ok"s
    # both rings stay bounded by their halves of the capacity
    assert len(fr.recent()) <= fr.capacity


def test_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=1)
    with pytest.raises(ValueError):
        FlightRecorder(sample_every=0)
    with pytest.raises(ValueError):
        FlightRecorder(p99_window=0)


def _sorted_rule_reasons(offers, window, min_window, sample_every):
    """The retention rule as a sort of the whole window per record:
    the reference the recorder's incrementally ordered window must
    match, cold-start exclusion included."""
    durations: deque = deque(maxlen=window)
    appended = seen = 0
    reasons, p99s = [], []
    for duration, status in offers:
        seen += 1
        n = len(durations)
        p99 = None
        if n >= min_window:
            ordered = sorted(durations)
            if appended == n:
                ordered.remove(durations[0])
                n -= 1
            if n:
                p99 = ordered[min(n - 1, int(0.99 * n))]
        p99s.append(p99)
        durations.append(duration)
        appended += 1
        if status != "ok":
            reasons.append("error")
        elif p99 is not None and duration >= p99:
            reasons.append("outlier")
        elif seen % sample_every == 0:
            reasons.append("sample")
        else:
            reasons.append("")
    return reasons, p99s


@settings(max_examples=150, deadline=None)
@given(
    offers=st.lists(
        st.tuples(
            # few distinct values force ties; wide ones force reordering
            st.one_of(
                st.sampled_from([0.5, 1.0, 1.0, 2.0, 6.0]),
                st.floats(0.0, 1e4, allow_nan=False),
            ),
            st.sampled_from(["ok"] * 6 + ["error", "shed"]),
        ),
        max_size=80,
    ),
    window=st.integers(1, 24),
    min_window=st.integers(1, 30),
    sample_every=st.integers(1, 5),
)
def test_retention_matches_sorted_rule(offers, window, min_window,
                                       sample_every):
    prev = set_registry(MetricsRegistry())
    try:
        fr = FlightRecorder(capacity=8, sample_every=sample_every,
                            p99_window=window, min_outlier_window=min_window)
        got = []
        p99s = []
        for i, (duration, status) in enumerate(offers):
            p99s.append(fr.stats()["p99_ms_estimate"])
            got.append(fr.record(rec(f"r{i}", status=status,
                                     duration_ms=duration, ts=float(i))))
    finally:
        set_registry(prev)
    want, want_p99s = _sorted_rule_reasons(offers, window, min_window,
                                           sample_every)
    assert got == want
    assert p99s == want_p99s


# ---------------------------------------------------------- concurrency --
def test_ten_thread_concurrency_exact_accounting(reg):
    """10 writer threads; bounds hold and the metrics agree exactly."""
    fr = FlightRecorder(capacity=32, sample_every=4, min_outlier_window=999)
    per_thread = 200
    n_threads = 10
    errors_per_thread = 10

    def writer(tid: int) -> None:
        for i in range(per_thread):
            status = "error" if i < errors_per_thread else "ok"
            fr.record(rec(f"t{tid}-{i}", status=status,
                          ts=float(tid * per_thread + i)))

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    total = per_thread * n_threads
    assert fr.seen == total
    # rings bounded regardless of pressure
    kept = fr.recent()
    assert len(kept) <= fr.capacity
    assert len([r for r in kept if r.retained in ("error", "outlier")]) <= 16
    # the retention counter accounts for every single offer, exactly
    counted = sum(
        int(s["value"])
        for s in reg.snapshot()["repro_obs_flight_records_total"]["series"]
    )
    assert counted == total
    dropped = reg.total("repro_obs_flight_records_total", retained="dropped")
    assert int(dropped) == total - fr.kept


# ---------------------------------------------------------- path summary --
def test_extract_paths():
    spans = (
        {"name": "serve.request", "attrs": {"op": "compress"}},
        {"name": "encode.reduce_shuffle_merge", "attrs": {"impl": "scan"}},
        {"name": "encode.codebook", "attrs": {"codebook_cache": "hit"}},
        {"name": "decode.stream", "attrs": {"strategy": "gap"}},
    )
    assert extract_paths(spans) == {
        "encode_impl": "scan",
        "codebook_cache": "hit",
        "decode_strategy": "gap",
    }
    assert extract_paths(()) == {}


# -------------------------------------------------------------- export --
def test_chrome_trace_shape(reg):
    fr = FlightRecorder(capacity=8, sample_every=1, min_outlier_window=999)
    spans = (
        {"name": "serve.request", "span_id": 1, "parent_id": 0, "tid": 7,
         "ts_us": 10.0, "dur_us": 50.0, "attrs": {"op": "compress"}},
        {"name": "encode.lookup", "span_id": 2, "parent_id": 1, "tid": 7,
         "ts_us": 12.0, "dur_us": 20.0, "attrs": {}},
    )
    fr.record(rec("traced", duration_ms=0.05, ts=fr._epoch_wall + 1.0,
                  spans=spans))
    doc = fr.to_chrome_trace()
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert len(events) == 2
    for e in events:
        assert e["args"]["request_id"] == "traced"
        assert e["ts"] >= 0.0
    # the child keeps its relative placement inside the request
    by_name = {e["name"]: e for e in events}
    assert by_name["encode.lookup"]["ts"] > by_name["serve.request"]["ts"]
    assert doc["otherData"]["records"][0]["request_id"] == "traced"
    assert "spans" not in doc["otherData"]["records"][0]


def test_chrome_trace_tree_ends_at_completion(reg):
    """``duration_ms`` runs from admission, so it is longer than the span
    tree; the tree is drawn where it ran, ending at completion."""
    fr = FlightRecorder(capacity=8, sample_every=1, min_outlier_window=999)
    spans = (
        {"name": "serve.request", "span_id": 1, "parent_id": 0, "tid": 7,
         "ts_us": 10.0, "dur_us": 50.0, "attrs": {}},
    )
    fr.record(rec("queued", duration_ms=40.0, ts=fr._epoch_wall + 1.0,
                  spans=spans))
    (event,) = [e for e in fr.to_chrome_trace()["traceEvents"]
                if e.get("ph") == "X"]
    assert event["ts"] + event["dur"] == pytest.approx(1e6)


# ------------------------------------------------------------- globals --
def test_global_recorder_swap(reg):
    assert isinstance(flight_recorder(), NullFlightRecorder)
    mine = FlightRecorder(capacity=4)
    prev = set_flight_recorder(mine)
    try:
        assert flight_recorder() is mine
    finally:
        set_flight_recorder(prev)
    assert isinstance(flight_recorder(), NullFlightRecorder)


def test_null_recorder_is_inert():
    nr = NullFlightRecorder()
    assert nr.record(rec()) == ""
    assert nr.recent() == []
    assert nr.stats()["enabled"] is False
    assert nr.to_chrome_trace()["traceEvents"] == []
