"""Perf-history sentinel: append-only bench log + regression gate.

Every wall-clock smoke run (``benchmarks/test_wallclock.py``, the
``bench-smoke`` make target) appends one JSON line to
``benchmarks/results/BENCH_history.jsonl``: git rev, timestamp,
per-dataset throughput (MB/s for every encoder/decoder path), the
PR-level speedup ratios, and the cache/fallback counters the run
accumulated.  The file is the repo's longitudinal memory;
``python -m repro.perf.history`` prints its last ten runs.

The sentinel (:func:`check_regression`) compares a candidate run
against a **rolling baseline**: the median of the last ``window`` runs,
per dataset and per throughput metric.  A metric regresses when it
falls below the baseline by more than a robust noise floor — the larger
of ``rel_tol`` (fractional, default 15%) and 3 scaled MADs of the
baseline window — so one noisy historical run cannot move the gate,
and a genuinely slower build cannot hide inside it.  With fewer than
``min_runs`` prior runs the metric is *skipped* (reported, not failed):
a fresh clone must be able to establish history before being judged by
it.

``python -m repro.perf.history --self-test F`` is the sentinel's own
negative control: it fabricates a stable synthetic history, degrades a
copy of the last entry by fraction ``F``, and runs the gate — exiting
non-zero exactly as a real regression would.  CI runs it under ``!``
(inverted expectation): a sentinel that stops failing the degraded run
fails the build.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "DEFAULT_HISTORY",
    "THROUGHPUT_METRICS",
    "SentinelVerdict",
    "history_entry",
    "append_entry",
    "load_history",
    "check_regression",
    "main",
]

DEFAULT_HISTORY = pathlib.Path("benchmarks/results/BENCH_history.jsonl")

#: per-dataset metrics the sentinel gates on — all throughputs, all
#: higher-is-better.  Ratios (speedups) are recorded in the entry for
#: trend reading but not gated: a speedup can legitimately fall when
#: the *baseline* implementation gets faster.
THROUGHPUT_METRICS = (
    "encode_mb_s",
    "encode_scan_mb_s",
    "decode_scalar_mb_s",
    "decode_batch_mb_s",
    "decode_gap_mb_s",
)

_ENTRY_METRICS = THROUGHPUT_METRICS + (
    "encode_speedup",
    "decode_speedup",
    "decode_speedup_gap",
    "compressed_bytes",
    "cache_hits",
    "cache_misses",
)


def git_rev(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, cwd=cwd,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _fallback_counters() -> dict:
    """Decode fallback totals from the process metrics registry."""
    from repro.obs.metrics import metrics as _metrics

    reg = _metrics()
    return {
        "gap_lut_fallbacks": int(
            reg.total("repro_decode_gap_lut_fallback_total")
        ),
        "lut_fallbacks": int(reg.total("repro_decode_lut_fallback_total")),
    }


def history_entry(
    results: Sequence,
    rev: Optional[str] = None,
    ts: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """One history line from a run's per-dataset result dicts."""
    datasets = {}
    backend = ""
    for d in results:
        datasets[d["dataset"]] = {
            k: d[k] for k in _ENTRY_METRICS if k in d
        }
        backend = d.get("gap_backend", backend) or backend
    entry = {
        "ts": ts if ts is not None else time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "git_rev": rev if rev is not None else git_rev(),
        "gap_backend": backend,
        "datasets": datasets,
        "counters": _fallback_counters(),
    }
    if extra:
        entry.update(extra)
    return entry


def append_entry(path, entry: dict) -> None:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(path) -> list[dict]:
    """Parse the JSONL history; malformed lines are skipped, not fatal."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "datasets" in rec:
                out.append(rec)
    return out


def _median(xs: Sequence[float]) -> float:
    xs = sorted(xs)
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


@dataclass
class SentinelVerdict:
    """Outcome of one rolling-baseline comparison."""

    ok: bool = True
    #: {dataset, metric, baseline, candidate, drop_pct, floor}
    regressions: list = field(default_factory=list)
    checked: int = 0
    skipped: list = field(default_factory=list)
    window_runs: int = 0

    def render(self) -> str:
        lines = [
            f"sentinel: {self.checked} metrics checked against "
            f"{self.window_runs} prior runs"
            + (f", {len(self.skipped)} skipped (insufficient history)"
               if self.skipped else "")
        ]
        for r in self.regressions:
            lines.append(
                f"  REGRESSION {r['dataset']}.{r['metric']}: "
                f"{r['candidate']:.2f} vs baseline {r['baseline']:.2f} "
                f"MB/s (-{r['drop_pct']:.1f}%, floor "
                f"{r['floor']:.2f})"
            )
        if self.ok:
            lines.append("  verdict: PASS (no meaningful regression)")
        else:
            lines.append(
                f"  verdict: FAIL ({len(self.regressions)} regression"
                f"{'s' if len(self.regressions) != 1 else ''})"
            )
        return "\n".join(lines)


def check_regression(
    history: Sequence[dict],
    candidate: dict,
    window: int = 8,
    rel_tol: float = 0.15,
    min_runs: int = 3,
    metrics: Sequence[str] = THROUGHPUT_METRICS,
) -> SentinelVerdict:
    """Gate ``candidate`` against the rolling baseline of ``history``.

    Baseline per (dataset, metric): median of the last ``window`` prior
    runs.  Noise floor: ``max(rel_tol * baseline, 3 * 1.4826 * MAD)`` —
    a run only fails when it is below ``baseline - floor``, i.e. the
    drop is both relatively large *and* outside the window's own
    scatter.  Zero-valued samples (path skipped on that host) are
    excluded from baselines and never judged.
    """
    recent = list(history)[-int(window):]
    verdict = SentinelVerdict(window_runs=len(recent))
    for ds, cand_metrics in sorted(candidate.get("datasets", {}).items()):
        for metric in metrics:
            cand = cand_metrics.get(metric)
            if not cand:  # path not exercised in this run
                continue
            prior = [
                e["datasets"][ds][metric]
                for e in recent
                if e.get("datasets", {}).get(ds, {}).get(metric)
            ]
            if len(prior) < min_runs:
                verdict.skipped.append(f"{ds}.{metric}")
                continue
            baseline = _median(prior)
            mad = _median([abs(x - baseline) for x in prior])
            floor = max(rel_tol * baseline, 3.0 * 1.4826 * mad)
            verdict.checked += 1
            if float(cand) < baseline - floor:
                verdict.ok = False
                verdict.regressions.append({
                    "dataset": ds,
                    "metric": metric,
                    "baseline": round(baseline, 3),
                    "candidate": round(float(cand), 3),
                    "drop_pct": round(100.0 * (1 - cand / baseline), 1),
                    "floor": round(floor, 3),
                })
    return verdict


# ----------------------------------------------------------------- CLI --
_SELF_TEST_BASE = {
    "enwik8": {
        "encode_mb_s": 20.0, "encode_scan_mb_s": 60.0,
        "decode_scalar_mb_s": 1.0, "decode_batch_mb_s": 40.0,
        "decode_gap_mb_s": 160.0,
    },
    "nyx_quant": {
        "encode_mb_s": 25.0, "encode_scan_mb_s": 75.0,
        "decode_scalar_mb_s": 1.2, "decode_batch_mb_s": 55.0,
        "decode_gap_mb_s": 200.0,
    },
}


def _self_test(fraction: float, history: list[dict]) -> int:
    """Degrade a copy of the newest run by ``fraction`` and gate it.

    Exits like a real regression check would: 1 when the sentinel
    catches the slowdown (the *expected* outcome — CI inverts it), 0
    when it does not.
    """
    if history:
        base = history[-1]["datasets"]
    else:
        base = _SELF_TEST_BASE
    # a perfectly stable synthetic history: any detection is then
    # attributable to the injected slowdown alone
    synth = [
        {"ts": f"synthetic-{i}", "git_rev": "selftest", "datasets": base}
        for i in range(5)
    ]
    degraded = {
        "datasets": {
            ds: {m: v * (1.0 - fraction) for m, v in met.items()}
            for ds, met in base.items()
        }
    }
    verdict = check_regression(synth, degraded)
    print(f"sentinel self-test: {fraction:.0%} synthetic slowdown over "
          f"{len(synth)} stable runs")
    print(verdict.render())
    if verdict.ok:
        print("sentinel self-test: MISSED the injected regression",
              file=sys.stderr)
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-perf-history",
        description="bench history log + throughput-regression sentinel",
    )
    p.add_argument("--history", type=pathlib.Path, default=DEFAULT_HISTORY,
                   help=f"JSONL history file (default {DEFAULT_HISTORY})")
    p.add_argument("--self-test", type=float, metavar="FRACTION",
                   help="negative control: inject a synthetic slowdown of "
                        "FRACTION and exit 1 iff the sentinel catches it")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    history = load_history(args.history)
    if args.self_test is not None:
        return _self_test(args.self_test, history)
    # no mode flag: summarize the history
    print(f"{args.history}: {len(history)} runs")
    for e in history[-10:]:
        parts = []
        for ds, met in sorted(e.get("datasets", {}).items()):
            gap = met.get("decode_gap_mb_s")
            scan = met.get("encode_scan_mb_s")
            parts.append(f"{ds}: enc {scan or '-'} / dec {gap or '-'} MB/s")
        print(f"  {e.get('ts', '?')}  {e.get('git_rev', '?'):>8}  "
              + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
