"""Wall-clock acceptance benchmark: batch decoder vs scalar reference.

Unlike the other benches (which price *modeled* GPU kernels), this one
times the code that really runs and records the before/after numbers in
``benchmarks/results/BENCH_wallclock.json``: the scalar treeless decoder
("before") against the table-driven batch lane decoder ("after") on
1 MiB surrogates of an enwik-like byte stream and a Nyx-like
quantization-code stream.

The PR-level bars: a >=20x decode speedup on the enwik-like surrogate,
the scan-pack encode fast path no slower than the iterative
reduce-shuffle reference on both surrogates (``run_wallclock`` already
aborts if the scan container is not byte-identical, so a passing run
certifies round-trip + bytes + throughput together), and — when the
compiled gap kernel is available — the gap-array decoder >=3x over the
lane decoder on both surrogates (``run_wallclock`` aborts unless the
gap output is bit-identical to the lane decoder's first), and the
codebook-registry fast path >=2x amortized over the cold per-request
codebook-build path at hot mean batch sizes >=8, and — with the
compiled kernel — the gap kernel >=2x over the NumPy lane decoder on
the same subtable-descent table on the crafted large-alphabet scenario,
whose table must stay <=25% of a flat 2^16 table's memory (with zero
table fallbacks on both deep-book scenarios).  The
assertions keep a margin for machine noise; the checked-in JSON carries
the actual measured ratios, including the per-stage encode breakdown.
"""

import numpy as np
from conftest import emit

from repro.perf.history import (
    THROUGHPUT_METRICS,
    append_entry,
    check_regression,
    history_entry,
    load_history,
)
from repro.perf.report import write_wallclock_json
from repro.perf.wallclock import (
    FLAT16_TABLE_BYTES,
    TABLE_BENCH_SCENARIOS,
    run_codebooks_bench,
    run_serve_bench,
    run_table_bench,
    run_wallclock,
    table_history,
    wallclock_table,
)

BENCH_SIZE = 1 << 20  # the acceptance surrogate size: 1 MiB
BENCH_JSON = "BENCH_wallclock.json"
BENCH_HISTORY = "BENCH_history.jsonl"


def test_wallclock(results_dir, bench_rng):
    results = [
        run_wallclock("enwik8", BENCH_SIZE, repeats=10),
        run_wallclock("nyx_quant", BENCH_SIZE, repeats=10),
    ]
    # serving layer: 8 concurrent clients through queue → batcher → shards;
    # p50/p99 latency + shed rate become part of the acceptance artifact
    serve = run_serve_bench(
        n_clients=8, requests_per_client=10, size_symbols=4096
    )
    # codebook-registry fast path: the same nyx_quant-style payloads,
    # cold (per-request codebook build) then hot (pre-registered
    # codebook_id, single-stage encode); the amortized ratio is the
    # PR-level acceptance bar
    codebooks = run_codebooks_bench(n_requests=64)
    # deep-book decode tables: NumPy lanes vs the gap kernel on one
    # subtable-descent table, genomics and crafted large-alphabet books
    tables = {s: run_table_bench(s) for s in TABLE_BENCH_SCENARIOS}
    doc = write_wallclock_json(
        results_dir / BENCH_JSON, results,
        extra={
            "surrogate_bytes": BENCH_SIZE, "serve": serve,
            "codebooks": codebooks, "tables": tables,
        },
    )
    emit(results_dir, "wallclock", wallclock_table(results))

    by_name = {r.dataset: r for r in results}
    enwik = by_name["enwik8"]
    # round-trip correctness is asserted inside run_wallclock; here we
    # hold the wall-clock bar (with margin for a noisy host)
    assert enwik.decode_speedup >= 20.0, (
        f"batch decoder only {enwik.decode_speedup:.1f}x vs scalar "
        f"(needs >= 20x on the enwik-like surrogate)"
    )
    assert doc["datasets"]["enwik8"]["decode_speedup"] >= 20.0
    for r in results:
        assert r.decode_batch_s < r.decode_scalar_s
        assert np.isfinite(r.encode_mb_s)
        # the scan-pack gate: the fast path must not regress below the
        # iterative reference it replaced (it measures ~3x faster; any
        # run where it is *slower* is a real regression, not noise)
        assert r.encode_scan_s <= r.encode_s, (
            f"scan-pack slower than iterative on {r.dataset}: "
            f"{r.encode_scan_s:.4f}s vs {r.encode_s:.4f}s"
        )
        assert r.encode_stages["scan"] and r.encode_stages["iterative"]
        # the gap-array gate: bit-identity is certified inside
        # run_wallclock; the throughput bar applies only with the
        # compiled kernel (without it a gap request decodes through the
        # lane decoder, so no-toolchain hosts skip the ratio)
        assert r.decode_gap_s > 0
        if r.gap_backend == "native":
            assert r.decode_speedup_gap >= 3.0, (
                f"gap decoder only {r.decode_speedup_gap:.2f}x vs lanes "
                f"on {r.dataset} (native backend needs >= 3x)"
            )
            assert r.decode_gap_s < r.decode_batch_s

    # serving-layer invariants: no corruption, no unexplained failures,
    # and the artifact carries the latency/shed record
    assert doc["serve"]["corrupt_roundtrips"] == 0
    assert doc["serve"]["errors"] == 0
    assert doc["serve"]["completed"] + doc["serve"]["shed"] == (
        doc["serve"]["requests"]
    )
    assert doc["serve"]["latency_p99_ms"] >= doc["serve"]["latency_p50_ms"]

    # codebook-registry fast path invariants: hot containers still
    # round-trip, hot batches really coalesce (>= 8 mean size at
    # max_batch 16), every hot request hit the registry, and the
    # amortized throughput clears the >= 2x acceptance bar (it measures
    # ~10x on this host; 2x keeps margin for machine noise)
    cb = doc["codebooks"]
    assert cb["corrupt_roundtrips"] == 0
    assert cb["registry_hits"] >= cb["requests"]
    assert cb["registry_misses"] == 0
    assert cb["hot"]["mean_batch_size"] >= 8.0, (
        f"hot codebook_id requests did not coalesce: mean batch "
        f"{cb['hot']['mean_batch_size']} (needs >= 8)"
    )
    assert cb["amortized_speedup"] >= 2.0, (
        f"registry fast path only {cb['amortized_speedup']}x over the "
        f"cold per-request codebook path (needs >= 2x)"
    )

    # deep-book decode-table gates: both scenarios decode
    # byte-identically (run_table_bench aborts otherwise) with zero
    # table fallbacks and real subtable descents; on the crafted
    # large-alphabet scenario — where nearly every window descends — the
    # gap kernel must clear the >= 2x bar over the NumPy lanes on the
    # same table (it measures ~35x here), and the table must cost
    # <= 25% of a flat 2^16 table
    for s, row in tables.items():
        assert row["max_length"] > 16, (
            f"{s} bench book no longer exercises subtable descent "
            f"(max_length {row['max_length']})"
        )
        assert row["lut_fallbacks"] == 0, (
            f"deep-book decode took {row['lut_fallbacks']} table "
            f"fallbacks on {s}"
        )
        assert row["subtable_gathers"] > 0
    big = tables["large_alphabet"]
    if big["gap_backend"] == "native":
        assert big["gap_speedup"] >= 2.0, (
            f"gap kernel only {big['gap_speedup']}x over the NumPy "
            f"lanes on large_alphabet (needs >= 2x)"
        )
    assert big["table_bytes"]["table"] <= FLAT16_TABLE_BYTES // 4, (
        f"decode table {big['table_bytes']['table']} B exceeds 25% of "
        f"a flat 2^16 table ({FLAT16_TABLE_BYTES} B)"
    )

    # ---- perf-history sentinel: this run vs the rolling baseline -------
    history_path = results_dir / BENCH_HISTORY
    prior = load_history(history_path)
    entry = history_entry(
        results,
        extra={
            "tables": table_history(tables),
            "codebooks": {
                "cold_mb_s": cb["cold"]["mb_s"],
                "hot_mb_s": cb["hot"]["mb_s"],
                "amortized_speedup": cb["amortized_speedup"],
                "hot_mean_batch_size": cb["hot"]["mean_batch_size"],
                "registry_hits": cb["registry_hits"],
                "registry_misses": cb["registry_misses"],
            }
        },
    )
    verdict = check_regression(prior, entry)
    # gate first, then append: a regressing run still leaves its trace
    # in the log (the human investigating wants to see it), but the
    # failing assert keeps CI red
    append_entry(history_path, entry)
    assert len(load_history(history_path)) == len(prior) + 1
    assert verdict.ok, "\n" + verdict.render()

    # an identical re-run of the same numbers must always pass the gate
    again = check_regression(load_history(history_path), entry)
    assert again.ok, "\n" + again.render()

    # negative control (the bench-smoke `!` run exercises the CLI path;
    # this one pins the library behavior): a ~30% across-the-board
    # slowdown over a perfectly stable baseline MUST be caught
    stable = [entry] * 5
    degraded = {
        "datasets": {
            ds: {
                m: (v * 0.7 if m in THROUGHPUT_METRICS else v)
                for m, v in met.items()
            }
            for ds, met in entry["datasets"].items()
        }
    }
    caught = check_regression(stable, degraded)
    assert not caught.ok, "sentinel missed a 30% synthetic slowdown"
    assert caught.regressions, caught.render()
