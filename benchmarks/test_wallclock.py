"""Wall-clock smoke gates: the host fast paths, timed for real.

The other benches here price *modeled* GPU kernels; this one times the
code that runs, best-of-N with ``time.perf_counter`` over the public
calls, and holds the bars ``make bench-smoke`` enforces:

- decode: the NumPy lane decoder (``stream_lanes`` -> ``decode_lanes``
  -> ``assemble_stream_symbols``) >= 20x the scalar reference on the
  enwik-like surrogate and faster on both; ``decode_stream`` (the
  gap-array kernel) bit-identical to the lanes and, when the compiled
  kernel loads, >= 3x them;
- encode: the scan-pack encoder serializes to the iterative
  reference's container byte for byte, is no slower, and both emit
  ``encode.*`` stage spans;
- serve: concurrent round trips through ``CompressionService`` with no
  corruption, no errors and every request completed or shed;
- codebooks: pre-registered ``codebook_id`` requests coalesce (mean
  batch >= 8) and clear >= 2x amortized over cold per-request books;
- deep-book tables: books past the 16-bit host index decode
  byte-identically through subtables with zero table fallbacks, in a
  table <= 25% of a flat 2^16 one, and the kernel >= 2x the lanes on
  the crafted large alphabet;
- multi-symbol decode: on the SZ-code surrogate (nyx_quant) the
  chunk-decode pass reading the table's multi-symbol plane is >= 2x
  the same pass without it, with the same output (when the compiled
  kernel loads);
- the perf-history sentinel: the run appends one line to
  ``results/BENCH_history.jsonl`` and must not regress against the
  rolling baseline of earlier lines.

The thresholds keep a margin for machine noise.  End-to-end numbers
through the whole compress/decompress pipeline come from
``python3 -m bench``.
"""

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import native
from repro.codebooks.registry import CodebookRegistry, set_process_registry
from repro.conform.corpora import deep_codebook
from repro.core.bitstream import (
    assemble_stream_symbols,
    decode_lanes,
    decode_stream,
    decode_stream_scalar,
    stream_lanes,
    stream_placement,
)
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import serialize_stream
from repro.datasets.genomics import (
    generate_dna,
    kmer_alphabet_size,
    kmer_symbolize,
)
from repro.datasets.registry import get_dataset
from repro.decoder.gap_array import _pad_buffer
from repro.histogram.gpu_histogram import gpu_histogram
from repro.huffman.cache import (
    cached_decode_table,
    codebook_cache,
    decode_table_cache,
)
from repro.huffman.decoder import build_decode_table, plane_dtype
from repro.native import native_available
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, tracing
from repro.perf.history import (
    THROUGHPUT_METRICS,
    append_entry,
    check_regression,
    history_entry,
    load_history,
)
from repro.serve.queue import DeadlineExceeded, QueueFullError
from repro.serve.service import CompressionService, ServiceConfig

SEED = 2021
#: the paper's two workload families: a text-like byte alphabet and a
#: quantization-code alphabet, 1 MiB surrogates of each
DATASETS = ("enwik8", "nyx_quant")
SIZE = 1 << 20
REPEATS = 10
#: the scalar reference is ~25x slower than the lanes
SCALAR_REPEATS = 5
#: serve load: clients x round trips each over three distributions
SERVE_CLIENTS = 8
SERVE_REQUESTS = 10
SERVE_SYMBOLS = 4096
#: codebook registry: the same payloads cold, then hot
CODEBOOK_REQUESTS = 64
CODEBOOK_SYMBOLS = 8192
CODEBOOK_ALPHABET = 1024
#: deep-book scenarios, where codewords exceed the 16-bit host index
TABLE_SCENARIOS = ("genomics", "large_alphabet")
TABLE_SYMBOLS = 1 << 16
TABLE_REPEATS = 3
#: memory yardstick of the deep-book gate: a 2^16-entry table of two
#: int32 planes (symbol, length), what these books would cost without
#: subtables
FLAT16_TABLE_BYTES = (1 << 16) * 8
HISTORY = "BENCH_history.jsonl"
#: multi-symbol decode: the plane pass over the plain pass on nyx_quant
#: (it measures ~3-5x; 2x keeps margin for machine noise)
PLANE_SPEEDUP = 2.0


def _best(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _lanes(stream, book) -> np.ndarray:
    """The container's lanes through the NumPy lane decoder, pinned so
    the column never silently becomes a gap-kernel measurement."""
    buffer, starts, ends, nsyms = stream_lanes(stream)
    decoded = decode_lanes(
        buffer, starts, ends, nsyms, book, cached_decode_table(book)
    )
    return assemble_stream_symbols(stream, decoded)


def _cache_counts() -> tuple[int, int]:
    a, b = decode_table_cache().info(), codebook_cache().info()
    return a.hits + b.hits, a.misses + b.misses


def _encode_stage_spans(data, book, impl: str) -> list[str]:
    with tracing(Tracer("bench-stages")) as tracer:
        gpu_encode(data, book, impl=impl)
    return [s.name for s in tracer.spans if s.name.startswith("encode.")]


def _measure_dataset(name: str) -> dict:
    """Both encoders and the three decoders on one surrogate."""
    ds = get_dataset(name)
    data = np.asarray(ds.generate(SIZE, np.random.default_rng(SEED))[0])
    hist = gpu_histogram(data, ds.n_symbols).histogram
    book = parallel_codebook(hist).codebook
    cached_decode_table(book)  # warm, as in any steady-state use
    hits0, misses0 = _cache_counts()

    # a throughput only counts for output identical to the reference's.
    # The encodings and decoded outputs stay referenced through the timed
    # blocks: freeing them first leaves the allocator in a state that
    # reads the scan encoder ~30% slower than the history's baseline
    enc = gpu_encode(data, book, impl="iterative")
    stream = enc.stream
    ref = decode_stream_scalar(stream, book)
    lanes = _lanes(stream, book)
    assert np.array_equal(ref, lanes) and np.array_equal(lanes, data), (
        f"decoder mismatch on {name}"
    )
    gap = decode_stream(stream, book)
    assert np.array_equal(gap, lanes), f"gap decoder mismatch on {name}"
    enc_scan = gpu_encode(data, book, impl="scan")
    assert serialize_stream(enc_scan.stream, book) == serialize_stream(
        stream, book
    ), f"scan-pack container divergence on {name}"

    # sequential best-of-N blocks, iterative encoder first, so the two
    # encoders see the same cache/page state and their ratio is fair
    seconds = {
        "encode": _best(lambda: gpu_encode(data, book, impl="iterative")),
        "encode_scan": _best(lambda: gpu_encode(data, book, impl="scan")),
        "decode_batch": _best(lambda: _lanes(stream, book)),
        "decode_gap": _best(lambda: decode_stream(stream, book)),
        "decode_scalar": _best(
            lambda: decode_stream_scalar(stream, book), SCALAR_REPEATS
        ),
    }
    hits1, misses1 = _cache_counts()
    row = {
        f"{k}_mb_s": round(data.nbytes / s / 1e6, 3)
        for k, s in seconds.items()
    }
    row.update(
        dataset=name,
        seconds=seconds,
        gap_backend="native" if native_available() else "lanes",
        encode_speedup=round(seconds["encode"] / seconds["encode_scan"], 2),
        decode_speedup=round(
            seconds["decode_scalar"] / seconds["decode_batch"], 1
        ),
        decode_speedup_gap=round(
            seconds["decode_batch"] / seconds["decode_gap"], 2
        ),
        compressed_bytes=int(stream.payload_bytes + stream.metadata_bytes),
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        stages={
            impl: _encode_stage_spans(data, book, impl)
            for impl in ("iterative", "scan")
        },
    )
    return row


def _measure_serve() -> dict:
    """Concurrent compress -> decompress round trips through one
    in-process service, over three distributions so the micro-batcher
    has real coalescing opportunities."""
    rng = np.random.default_rng(SEED)
    payloads = [
        rng.choice(
            256, size=SERVE_SYMBOLS, p=rng.dirichlet(np.ones(256) * 0.15)
        ).astype(np.uint16)
        for _ in range(3)
    ]

    def client(svc: CompressionService, cid: int):
        latencies, counts = [], Counter()
        for i in range(SERVE_REQUESTS):
            arr = payloads[(cid + i) % len(payloads)]
            t0 = time.perf_counter()
            try:
                back = svc.decompress(svc.compress(arr)[0])
            except (QueueFullError, DeadlineExceeded):
                counts["shed"] += 1
                continue
            except Exception:  # noqa: BLE001 - counted; the gate wants 0
                counts["errors"] += 1
                continue
            latencies.append(time.perf_counter() - t0)
            counts["corrupt"] += int(not np.array_equal(back, arr))
        return latencies, counts

    cfg = ServiceConfig(queue_size=128, max_batch=16, max_delay_s=0.004)
    with CompressionService(cfg) as svc, \
            ThreadPoolExecutor(SERVE_CLIENTS) as pool:
        runs = list(pool.map(lambda c: client(svc, c), range(SERVE_CLIENTS)))
    latencies = [t for lat, _ in runs for t in lat]
    p50, p99 = np.percentile(latencies or [0.0], [50, 99]) * 1e3
    counts = sum((c for _, c in runs), Counter())
    return {
        "requests": SERVE_CLIENTS * SERVE_REQUESTS,
        "completed": len(latencies),
        "shed": counts["shed"],
        "errors": counts["errors"],
        "corrupt": counts["corrupt"],
        "p50_ms": float(p50),
        "p99_ms": float(p99),
    }


def _measure_codebooks() -> dict:
    """The same nyx_quant-style payloads cold (each request builds its
    own book) and hot (one pre-registered ``codebook_id``)."""
    rng = np.random.default_rng(SEED)

    def draw(n: int) -> np.ndarray:
        return (
            rng.geometric(0.3, n)
            .clip(0, CODEBOOK_ALPHABET - 1)
            .astype(np.uint16)
        )

    # add-one smoothing: the registered book must cover the full declared
    # alphabet, exactly as POST /codebooks builds it
    hist = np.bincount(
        draw(1 << 16).astype(np.int64), minlength=CODEBOOK_ALPHABET
    ) + 1
    book = parallel_codebook(hist).codebook
    payloads = [draw(CODEBOOK_SYMBOLS) for _ in range(CODEBOOK_REQUESTS)]
    mb = sum(p.nbytes for p in payloads) / 1e6
    cfg = ServiceConfig(
        queue_size=256, max_batch=16, max_delay_s=0.004, n_shards=2
    )

    def phase(**submit_kw):
        # submit every request before awaiting any, so the batcher sees
        # a real backlog; each phase gets its own service (and batch mean)
        with CompressionService(cfg) as svc:
            t0 = time.perf_counter()
            futures = [svc.submit_compress(p, **submit_kw) for p in payloads]
            blobs = [f.result(120.0)[0] for f in futures]
            return time.perf_counter() - t0, svc.batcher.mean_batch_size, blobs

    reg = obs_metrics()
    hits, misses = (
        "repro_codebook_registry_hits_total",
        "repro_codebook_registry_misses_total",
    )
    registry = CodebookRegistry()
    prev = set_process_registry(registry)
    try:
        codebook_id = registry.register(
            book, name="bench", source="bench"
        ).codebook_id
        hits0, misses0 = reg.total(hits), reg.total(misses)
        cold_s, _, _ = phase(num_symbols=CODEBOOK_ALPHABET)
        hot_s, hot_batch, hot_blobs = phase(codebook_id=codebook_id)
        hits1, misses1 = reg.total(hits), reg.total(misses)
        with CompressionService(cfg) as svc:
            back = svc.decompress(hot_blobs[-1])
    finally:
        set_process_registry(prev)
    return {
        "cold_mb_s": round(mb / cold_s, 2),
        "hot_mb_s": round(mb / hot_s, 2),
        "amortized_speedup": round(cold_s / hot_s, 2),
        "hot_mean_batch_size": round(hot_batch, 3),
        "registry_hits": int(hits1 - hits0),
        "registry_misses": int(misses1 - misses0),
        "corrupt_roundtrips": int(not np.array_equal(back, payloads[-1])),
    }


def _table_fallbacks(reg) -> int:
    # table fallbacks only: a gap request on a host without the kernel
    # counts as no_native_kernel, which is not the table's doing
    return int(
        reg.total("repro_decode_lut_fallback_total")
        + reg.total("repro_decode_gap_lut_fallback_total")
        - reg.total("repro_decode_gap_lut_fallback_total",
                    reason="no_native_kernel")
    )


def _measure_table(scenario: str) -> dict:
    """Lanes vs the gap kernel on one subtable-descent decode table."""
    rng = np.random.default_rng(SEED)
    if scenario == "genomics":
        # the paper's gbbct1.seq use case: k=4 DNA k-mers (alphabet
        # 11^4), whose smoothed book puts the rare ambiguity-bearing
        # k-mers past 16 bits naturally
        syms = kmer_symbolize(
            generate_dna(4 << 18, rng, ambiguity_rate=0.02), 4
        )
        hist = np.bincount(
            syms.astype(np.int64), minlength=kmer_alphabet_size(4)
        ) + 1
        book = parallel_codebook(hist).codebook
        data = syms[:TABLE_SYMBOLS].astype(np.uint16)
    else:
        # the crafted worst case: 4096 codewords at 19 bits drawn
        # uniformly, so nearly every window descends
        book = deep_codebook()
        data = rng.integers(0, book.n_symbols, TABLE_SYMBOLS).astype(
            np.uint16
        )
    table = cached_decode_table(book)
    stream = gpu_encode(data, book, magnitude=10).stream

    reg = obs_metrics()
    gathers = "repro_decode_subtable_gather_total"
    fb0, sub0 = _table_fallbacks(reg), reg.total(gathers)
    lanes = _lanes(stream, book)
    subtable_gathers = int(reg.total(gathers) - sub0)
    gap = decode_stream(stream, book)
    lut_fallbacks = _table_fallbacks(reg) - fb0
    assert np.array_equal(lanes, data) and np.array_equal(gap, lanes), (
        f"lanes/gap decode mismatch on {scenario}"
    )

    lanes_s = _best(lambda: _lanes(stream, book), TABLE_REPEATS)
    gap_s = _best(lambda: decode_stream(stream, book), TABLE_REPEATS)
    return {
        "max_length": int(book.max_length),
        "table_bytes": int(table.nbytes()),
        "gap_backend": "native" if native_available() else "lanes",
        "decode_batch_mb_s": round(data.nbytes / lanes_s / 1e6, 2),
        "decode_gap_mb_s": round(data.nbytes / gap_s / 1e6, 2),
        "gap_speedup": round(lanes_s / gap_s, 2),
        "lut_fallbacks": lut_fallbacks,
        "subtable_gathers": subtable_gathers,
    }


def test_wallclock(results_dir):
    rows = [_measure_dataset(name) for name in DATASETS]
    serve = _measure_serve()
    cb = _measure_codebooks()
    tables = {s: _measure_table(s) for s in TABLE_SCENARIOS}
    for r in rows:
        print(f"{r['dataset']}: {r['decode_speedup']}x lanes/scalar, "
              f"{r['decode_speedup_gap']}x gap/lanes [{r['gap_backend']}], "
              f"{r['encode_speedup']}x scan/iterative")

    # ---- decode and encode ----------------------------------------------
    enwik = rows[DATASETS.index("enwik8")]["seconds"]
    speedup = enwik["decode_scalar"] / enwik["decode_batch"]
    assert speedup >= 20.0, (
        f"batch decoder only {speedup:.1f}x vs scalar "
        f"(needs >= 20x on the enwik-like surrogate)"
    )
    for r in rows:
        t = r["seconds"]
        assert t["decode_batch"] < t["decode_scalar"]
        assert np.isfinite(r["encode_mb_s"])
        # the scan-pack encoder measures ~3-5x the iterative reference
        # it replaced; any run where it is *slower* is a real regression
        assert t["encode_scan"] <= t["encode"], (
            f"scan-pack slower than iterative on {r['dataset']}: "
            f"{t['encode_scan']:.4f}s vs {t['encode']:.4f}s"
        )
        assert r["stages"]["scan"] and r["stages"]["iterative"]
        assert t["decode_gap"] > 0
        # without the compiled kernel decode_stream runs the lanes, so
        # no-toolchain hosts skip the ratio
        if r["gap_backend"] == "native":
            gap_x = t["decode_batch"] / t["decode_gap"]
            assert gap_x >= 3.0, (
                f"gap decoder only {gap_x:.2f}x vs lanes "
                f"on {r['dataset']} (native backend needs >= 3x)"
            )
            assert t["decode_gap"] < t["decode_batch"]

    # ---- serving layer --------------------------------------------------
    assert serve["corrupt"] == 0
    assert serve["errors"] == 0
    assert serve["completed"] + serve["shed"] == serve["requests"]
    assert serve["p99_ms"] >= serve["p50_ms"]

    # ---- codebook-registry fast path ------------------------------------
    # hot batches coalesce (>= 8 mean at max_batch 16), every hot request
    # hits the registry, and the amortized ratio clears 2x (it measures
    # ~10x; 2x keeps margin for machine noise)
    assert cb["corrupt_roundtrips"] == 0
    assert cb["registry_hits"] >= CODEBOOK_REQUESTS
    assert cb["registry_misses"] == 0
    assert cb["hot_mean_batch_size"] >= 8.0, (
        f"hot codebook_id requests did not coalesce: mean batch "
        f"{cb['hot_mean_batch_size']} (needs >= 8)"
    )
    assert cb["amortized_speedup"] >= 2.0, (
        f"registry fast path only {cb['amortized_speedup']}x over the "
        f"cold per-request codebook path (needs >= 2x)"
    )

    # ---- deep-book decode tables ----------------------------------------
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
    # nearly every large_alphabet window descends; the kernel measures
    # ~35x the lanes there
    if big["gap_backend"] == "native":
        assert big["gap_speedup"] >= 2.0, (
            f"gap kernel only {big['gap_speedup']}x over the NumPy "
            f"lanes on large_alphabet (needs >= 2x)"
        )
    assert big["table_bytes"] <= FLAT16_TABLE_BYTES // 4, (
        f"decode table {big['table_bytes']} B exceeds 25% of "
        f"a flat 2^16 table ({FLAT16_TABLE_BYTES} B)"
    )

    # ---- perf-history sentinel: this run vs the rolling baseline --------
    history_path = results_dir / HISTORY
    prior = load_history(history_path)
    entry = history_entry(rows, extra={"tables": tables, "codebooks": cb})
    # a renamed metric would make check_regression silently skip it
    for ds, met in entry["datasets"].items():
        missing = set(THROUGHPUT_METRICS) - set(met)
        assert not missing, f"{ds} history entry lacks {sorted(missing)}"
    verdict = check_regression(prior, entry)
    # gate first, then append: a regressing run still leaves its trace
    # in the log, and the failing assert keeps CI red
    append_entry(history_path, entry)
    assert len(load_history(history_path)) == len(prior) + 1
    assert verdict.ok, "\n" + verdict.render()

    # an identical re-run of the same numbers must always pass the gate
    again = check_regression(load_history(history_path), entry)
    assert again.ok, "\n" + again.render()

    # negative control (bench-smoke's `!` run exercises the CLI path;
    # this one pins the library): a ~30% across-the-board slowdown over
    # a perfectly stable baseline MUST be caught
    degraded = {
        "datasets": {
            ds: {
                m: (v * 0.7 if m in THROUGHPUT_METRICS else v)
                for m, v in met.items()
            }
            for ds, met in entry["datasets"].items()
        }
    }
    caught = check_regression([entry] * 5, degraded)
    assert not caught.ok, "sentinel missed a 30% synthetic slowdown"
    assert caught.regressions, caught.render()


@pytest.mark.skipif(not native.native_available(),
                    reason="the plane is read by the compiled pass only")
def test_multi_symbol_plane():
    """The chunk-decode pass with and without the table's multi-symbol
    plane, on the same nyx_quant container, output and table."""
    ds = get_dataset("nyx_quant")
    data = np.asarray(ds.generate(SIZE, np.random.default_rng(SEED))[0])
    book = parallel_codebook(gpu_histogram(data, ds.n_symbols).histogram
                             ).codebook
    stream = gpu_encode(data, book).stream
    table = build_decode_table(book)
    buffer, starts, ends, nsyms = stream_lanes(stream)
    place = stream_placement(stream)
    padded = _pad_buffer(buffer, table.max_length)
    out = np.empty(place.n_out, plane_dtype(book))
    kern = native.kernel()

    def decode(plane: bool) -> None:
        kern.chunk_decode(
            padded, buffer.size * 8, starts, ends, nsyms, place.out_off,
            place.hole_base, place.holes, place.group, table, out,
            plane=plane,
        )

    for plane in (False, True):
        out[:] = 0
        decode(plane)
        np.testing.assert_array_equal(out, data)
    plain = _best(lambda: decode(False))
    multi = _best(lambda: decode(True))
    print(f"nyx_quant chunk_decode: {plain * 1e3:.3f} ms plain, "
          f"{multi * 1e3:.3f} ms through the plane")
    assert plain >= PLANE_SPEEDUP * multi, (
        f"plane pass only {plain / multi:.2f}x the plain pass on "
        f"nyx_quant (needs >= {PLANE_SPEEDUP}x)"
    )
