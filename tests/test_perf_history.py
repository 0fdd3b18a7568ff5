"""Perf-history log + regression sentinel (repro.perf.history)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.history import (
    DEFAULT_HISTORY,
    THROUGHPUT_METRICS,
    SentinelVerdict,
    append_entry,
    check_regression,
    history_entry,
    load_history,
    main,
)


def result(dataset: str, scale: float = 1.0) -> dict:
    """One dataset's row as the wall-clock bench hands it over."""
    return {
        "dataset": dataset,
        "gap_backend": "native",
        "encode_mb_s": 20.0 * scale,
        "encode_scan_mb_s": 60.0 * scale,
        "encode_speedup": 3.0,
        "decode_scalar_mb_s": 1.0 * scale,
        "decode_batch_mb_s": 40.0 * scale,
        "decode_speedup": 40.0,
        "decode_gap_mb_s": 160.0 * scale,
        "decode_speedup_gap": 4.0,
        "compressed_bytes": 1234,
        "cache_hits": 5,
        "cache_misses": 2,
    }


def entry(scale: float = 1.0) -> dict:
    return history_entry(
        [result("enwik8", scale), result("nyx_quant", scale)],
        rev="abc1234", ts="2026-08-08T00:00:00Z",
    )


# ---------------------------------------------------------------- entry --
def test_history_entry_shape():
    e = entry()
    assert e["git_rev"] == "abc1234"
    assert e["gap_backend"] == "native"
    assert "backend" not in e
    assert set(e["datasets"]) == {"enwik8", "nyx_quant"}
    ds = e["datasets"]["enwik8"]
    for m in THROUGHPUT_METRICS:
        assert m in ds
    assert ds["cache_hits"] == 5
    assert "counters" in e  # decode fallback totals ride along
    assert set(e["counters"]) == {"gap_lut_fallbacks", "lut_fallbacks"}


def test_append_and_load_roundtrip(tmp_path):
    path = tmp_path / "hist" / "BENCH_history.jsonl"
    append_entry(path, entry())  # parent dir is created on demand
    append_entry(path, entry(1.1))
    loaded = load_history(path)
    assert len(loaded) == 2
    assert loaded[0]["git_rev"] == "abc1234"


def test_load_skips_malformed_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps(entry()) + "\n")
        f.write("{not json\n")
        f.write("[1,2,3]\n")          # json, wrong shape
        f.write("\n")
        f.write(json.dumps(entry(1.2)) + "\n")
    assert len(load_history(path)) == 2
    assert load_history(tmp_path / "missing.jsonl") == []


# ------------------------------------------------------------- sentinel --
def test_insufficient_history_passes():
    verdict = check_regression([entry(), entry()], entry(0.5), min_runs=3)
    assert verdict.ok
    assert verdict.checked == 0
    assert verdict.skipped  # reported, not silently dropped


def test_stable_rerun_passes():
    history = [entry() for _ in range(5)]
    verdict = check_regression(history, entry())
    assert verdict.ok and not verdict.regressions
    assert verdict.checked == 2 * len(THROUGHPUT_METRICS)


def test_thirty_percent_slowdown_fails():
    history = [entry() for _ in range(5)]
    verdict = check_regression(history, entry(0.7))
    assert not verdict.ok
    regressed = {(r["dataset"], r["metric"]) for r in verdict.regressions}
    assert ("enwik8", "decode_gap_mb_s") in regressed
    # the rendered verdict names the numbers a human needs
    text = verdict.render()
    assert "FAIL" in text and "decode_gap_mb_s" in text


def test_small_wobble_within_tolerance_passes():
    history = [entry() for _ in range(5)]
    verdict = check_regression(history, entry(0.9))  # -10% < 15% rel_tol
    assert verdict.ok


def test_mad_floor_absorbs_noisy_history():
    """A scattered baseline widens the floor beyond rel_tol."""
    history = [entry(s) for s in (1.0, 1.1, 1.2, 1.3, 1.4)]
    # median scale 1.2; the window's own scatter makes 3*1.4826*MAD the
    # operative floor, so a drop that rel_tol alone would flag passes
    noisy_ok = check_regression(history, entry(0.95), rel_tol=0.05)
    assert noisy_ok.ok
    # but a collapse below even the widened floor still fails
    assert not check_regression(history, entry(0.4), rel_tol=0.05).ok


def test_zero_valued_paths_are_never_judged():
    """A host that skips the gap path (0.0) neither gates nor baselines."""
    history = [entry() for _ in range(5)]
    cand = entry()
    cand["datasets"]["enwik8"]["decode_gap_mb_s"] = 0.0
    verdict = check_regression(history, cand)
    assert verdict.ok  # 0.0 is "not exercised", not "infinitely slow"


def test_window_uses_only_recent_runs():
    """Ancient fast runs outside the window cannot fail today's run."""
    ancient = [entry(2.0) for _ in range(10)]   # a golden age
    recent = [entry(1.0) for _ in range(8)]     # the new normal
    verdict = check_regression(ancient + recent, entry(0.95), window=8)
    assert verdict.ok


# ------------------------------------------------------------------ CLI --
def test_cli_self_test_detects(tmp_path):
    missing = tmp_path / "none.jsonl"
    # detection exits 1 (CI inverts with `!`)
    assert main(["--history", str(missing), "--self-test", "0.3"]) == 1
    # a slowdown inside the noise floor is (correctly) not detected
    assert main(["--history", str(missing), "--self-test", "0.01"]) == 0


COMMITTED_HISTORY = Path(__file__).resolve().parents[1] / DEFAULT_HISTORY


def _committed_history() -> list[dict]:
    return load_history(COMMITTED_HISTORY)


def test_check_passes_across_kernel_column_removal():
    """The committed history's older lines carry per-kernel-backend
    columns and counters that new lines no longer write; both kinds in
    one history gate without complaint."""
    old = [e for e in _committed_history() if "backend" in e]
    assert len(old) >= 3
    latest = old[-1]["datasets"]
    new = history_entry(
        [dict(m, dataset=ds, gap_backend="native")
         for ds, m in latest.items()],
        rev="new", ts="t",
    )
    # new lines drop the retired keys the old lines still carry
    assert "backend" not in new
    assert set(new["counters"]) < set(old[-1]["counters"])
    for ds, m in new["datasets"].items():
        assert set(m) < set(latest[ds])
    verdict = check_regression(old + [new] * 3, new)
    assert verdict.ok and verdict.checked, verdict.render()


def test_committed_history_parses_and_self_test_detects():
    assert _committed_history()
    assert main(["--history", str(COMMITTED_HISTORY), "--self-test",
                 "0.3"]) == 1


def test_verdict_render_pass():
    v = SentinelVerdict(ok=True, checked=4, window_runs=5)
    assert "PASS" in v.render()
