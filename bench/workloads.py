"""The four workloads, driven through the program's public entry points.

Each runner makes its inputs from the seed, measures for the requested
time, checks every output, and returns a :class:`Run` whose metrics are
computed by :func:`end_to_end` (untraced run) or :func:`per_layer`
(traced run).  Entry points are looked up as module attributes at call
time, so the untraced run depends on nothing below them.

A shared host (a VM whose caches and memory bandwidth other tenants
use) changes speed by 10-15% over tens of seconds.  Untraced runs
therefore time a fixed NumPy :class:`Reference` kernel between measured
calls, with the program idle, and scale the CPU-bound metrics to the
kernel's nominal time: a drift that slows the kernel and the program
alike cancels, a change that slows only the program does not.  Raw
values are reported next to them.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator, Optional

import numpy as np

from bench import inputs
from bench.ledger import OTHER, HOOKS, Ledger, install, wrapper_cost_s
from repro.app import compressor
from repro.codebooks import registry
from repro.core import codebook_parallel
from repro.obs import metrics as program_metrics
from repro.serve import service

WARMUP_CALLS = 2
#: p90 is the highest percentile with >= 10 samples beyond it at n=100
MIN_ROUND_TRIPS = 100
#: compress ratio is taken over a fixed prefix of calls, so it is a
#: deterministic function of the seed
RATIO_CALLS = 30
#: inputs hashed into the run's digest (the first calls, warm-ups included)
DIGEST_CALLS = 4
FIELD_ERROR_BOUND = 1e-2
SERVE_RATE = 100.0
SERVE_IN_FLIGHT = 8
SERVE_INSTANCES = 3
#: serve capacity is the median completion rate over bins this long, so
#: a contention burst shorter than half the closed loop does not move it
SERVE_BIN_S = 0.25
#: measurement stops here even if MIN_ROUND_TRIPS is not reached, so a
#: pathologically slow change still ends in bounded time
MAX_MEASURE_S = 120.0
#: median time of one Reference.run() on the host the baselines in
#: bench/README.md were taken on; scaled metrics read as if every run
#: had that host speed
REF_NOMINAL_S = 0.0170
#: reference calls around each serve closed-loop instance
SERVE_REF_CALLS = 8

#: program counters whose deltas the traced run reports
_COUNTERS = {
    "pool_fallbacks": ("repro_encode_parallel_fallback_total", {}),
    "lut_fallbacks": ("repro_decode_lut_fallback_total", {}),
    "gap_lut_fallbacks": ("repro_decode_gap_lut_fallback_total", {}),
    "codebook_hits": ("repro_cache_hits_total", {"cache": "codebook"}),
    "codebook_misses": ("repro_cache_misses_total", {"cache": "codebook"}),
    "table_hits": ("repro_cache_hits_total", {"cache": "decode_table"}),
    "table_misses": ("repro_cache_misses_total", {"cache": "decode_table"}),
    "shed": ("repro_serve_shed_total", {}),
    "retries": ("repro_serve_retries_total", {}),
    "errors": ("repro_serve_errors_total", {}),
}


def _counters() -> dict[str, float]:
    reg = program_metrics()
    return {k: reg.total(name, **labels)
            for k, (name, labels) in _COUNTERS.items()}


class Reference:
    """A fixed NumPy kernel whose time tracks the host's current speed.

    Sort, gather, histogram and prefix sum over ~13 MiB of fixed data:
    the same mix of compute and memory traffic as the codec, so the
    contention that slows one slows the other.  Its data does not
    depend on ``--seed``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 19)
        self.index = rng.integers(0, 1 << 19, 1 << 20)
        self.symbols = rng.integers(0, 256, 1 << 20, dtype=np.uint8)
        self.seconds: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        np.sort(self.values)
        self.values[self.index].sum()
        np.bincount(self.symbols, minlength=256)
        np.cumsum(self.index)
        self.seconds.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Median kernel time over its nominal time (> 1: a slow host)."""
        if not self.seconds:
            return 1.0
        return statistics.median(self.seconds) / REF_NOMINAL_S


@dataclass
class Run:
    """What one measured run observed."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: per-op latencies in seconds and the uncompressed bytes per op
    seconds: dict = field(default_factory=lambda: {"compress": [],
                                                   "decompress": []})
    op_bytes: int = 0
    ratio: float = 0.0
    capacity_ops_s: float = 0.0
    inputs_sha256: str = ""
    #: host slowdown measured by the Reference kernel (untraced runs)
    slowdown: float = 1.0
    #: serve-only observations
    batch_size: float = 0.0
    queue_depth_max: int = 0
    generator_late_frac: float = 0.0
    #: traced run: the ledger, counter deltas and wrapper bookkeeping
    ledger: Optional[Ledger] = None
    counters: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    wrapper_cost_s: float = 0.0


# --------------------------------------------------------------- app runs


@dataclass(frozen=True)
class AppWorkload:
    name: str
    inputs: Callable[[int], Iterator[np.ndarray]]
    compress: Callable[[np.ndarray], tuple]
    decompress: Callable[[bytes], np.ndarray]
    check: Callable[[np.ndarray, np.ndarray], bool]


def _lossless(x: np.ndarray, y: np.ndarray) -> bool:
    return y.dtype == x.dtype and np.array_equal(x, y)


def _within_bound(x: np.ndarray, y: np.ndarray) -> bool:
    return y.shape == x.shape and float(np.max(np.abs(y - x))) <= FIELD_ERROR_BOUND


APP_WORKLOADS = {
    w.name: w
    for w in (
        AppWorkload(
            "text-1m", inputs.text_inputs,
            lambda x: compressor.compress_symbols(x, num_symbols=256),
            lambda b: compressor.decompress_symbols(b), _lossless,
        ),
        AppWorkload(
            "genomics-deep", inputs.dna_inputs,
            lambda x: compressor.compress_symbols(
                x, num_symbols=inputs.DNA_ALPHABET ** inputs.KMER),
            lambda b: compressor.decompress_symbols(b), _lossless,
        ),
        AppWorkload(
            "field-16m", inputs.field_inputs,
            lambda x: compressor.compress_field(x, FIELD_ERROR_BOUND),
            lambda b: compressor.decompress_field(b), _within_bound,
        ),
    )
}

WORKLOADS = (*APP_WORKLOADS, "serve-registered")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run_app(w: AppWorkload, seed: int, seconds: float, ledger: Optional[Ledger],
            reference: Optional[Reference],
            min_round_trips: int = MIN_ROUND_TRIPS) -> Run:
    """Closed loop, one caller: compress then decompress a fresh input,
    until ``seconds`` have passed and ``min_round_trips`` are done.
    ``reference`` runs once after every round trip."""
    run = Run(w.name)
    source = w.inputs(seed)
    hashed: list[np.ndarray] = []
    bytes_in = bytes_out = 0

    def next_input() -> np.ndarray:
        x = next(source)
        if len(hashed) < DIGEST_CALLS:
            hashed.append(x)
        return x

    def failed() -> None:
        if not run.failed:
            traceback.print_exc(file=sys.stderr)
        run.failed += 1

    for _ in range(WARMUP_CALLS):
        x = next_input()
        with suppress(Exception):  # the measured calls count any failure
            w.decompress(w.compress(x)[0])
    if ledger is not None:
        ledger.reset()
    before = _counters()
    start = time.perf_counter()
    for n in count():
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and n >= min_round_trips) or elapsed >= MAX_MEASURE_S:
            break
        x = next_input()
        run.attempted += 1
        try:
            with _root(ledger, "compress"):
                (blob, _report), dt = _timed(w.compress, x)
        except Exception:  # noqa: BLE001 - a failed op is counted, not raised
            failed()
            continue
        run.seconds["compress"].append(dt)
        if n < RATIO_CALLS:
            bytes_in += x.nbytes
            bytes_out += len(blob)
        run.attempted += 1
        try:
            with _root(ledger, "decompress"):
                y, dt = _timed(w.decompress, blob)
        except Exception:  # noqa: BLE001
            failed()
            continue
        run.seconds["decompress"].append(dt)
        if not w.check(x, y):
            run.failed += 1
        if reference is not None:
            reference.run()
    run.counters = _delta(before, _counters())
    run.op_bytes = int(x.nbytes)
    run.ratio = bytes_in / bytes_out if bytes_out else 0.0
    busy = sum(run.seconds["compress"]) + sum(run.seconds["decompress"])
    ops = len(run.seconds["compress"]) + len(run.seconds["decompress"])
    run.capacity_ops_s = ops / busy if busy else 0.0
    run.inputs_sha256 = inputs.digest(hashed)
    if reference is not None:
        run.slowdown = reference.slowdown()
    return run


def _root(ledger: Optional[Ledger], op: str):
    return ledger.op(op) if ledger is not None else nullcontext()


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in before}


# -------------------------------------------------------------- serve run


class _Requests:
    """Issues alternating compress/decompress requests against one
    service and records each one's latency from its due time."""

    def __init__(self, svc, run: Run, payloads, containers, codebook_id):
        self.svc = svc
        self.run = run
        self.payloads = payloads
        self.containers = containers
        self.codebook_id = codebook_id
        self.latency: dict[str, list[float]] = {"compress": [], "decompress": []}
        #: completion time of each successful request
        self.done_at: list[float] = []
        self._outstanding = 0
        self._cond = threading.Condition()

    def submit(self, k: int, due: float, on_done=None) -> None:
        op = "compress" if k % 2 == 0 else "decompress"
        idx = (k // 2) % len(self.payloads)
        self.run.attempted += 1
        try:
            if op == "compress":
                fut = self.svc.submit("compress", self.payloads[idx],
                                      codebook_id=self.codebook_id)
            else:
                fut = self.svc.submit("decompress", self.containers[idx])
        except Exception:  # noqa: BLE001 - a shed request is a failure
            with self._cond:
                self.run.failed += 1
            if on_done is not None:
                on_done()
            return

        def done(f) -> None:
            t = time.perf_counter()
            try:
                out = f.result()
                ok = (out[0] == self.containers[idx] if op == "compress"
                      else _lossless(self.payloads[idx], out))
            except Exception:  # noqa: BLE001 - an error or bad output fails
                ok = False
            with self._cond:
                if ok:
                    self.latency[op].append(t - due)
                    self.done_at.append(t)
                else:
                    self.run.failed += 1
                self._outstanding -= 1
                self._cond.notify_all()
            if on_done is not None:
                on_done()

        with self._cond:
            self._outstanding += 1
        fut.add_done_callback(done)

    def wait(self, timeout: float = 60.0) -> None:
        """Block until every submitted request's callback has run."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._outstanding == 0, timeout):
                raise TimeoutError("serve requests did not complete")


def run_serve(seed: int, seconds: float, ledger: Optional[Ledger],
              reference: Optional[Reference]) -> Run:
    """Open loop at ``SERVE_RATE`` for half the time, then a closed loop
    with ``SERVE_IN_FLIGHT`` requests over ``SERVE_INSTANCES`` fresh
    services for the other half.  ``reference`` runs between the
    closed-loop instances, while no request is in flight."""
    run = Run("serve-registered")
    payloads = inputs.serve_payloads(seed)
    book = codebook_parallel.parallel_codebook(inputs.serve_histogram()).codebook
    entry = registry.process_registry().register(book, name="bench-serve",
                                                 persist=False)
    containers = [compressor.compress_symbols_registered(p, entry)[0]
                  for p in payloads]
    run.inputs_sha256 = inputs.digest(payloads)
    run.op_bytes = int(payloads[0].nbytes)
    run.ratio = (sum(p.nbytes for p in payloads)
                 / sum(len(c) for c in containers))
    config = service.ServiceConfig(n_shards=2)

    def requests(svc) -> _Requests:
        """A recorder for ``svc``, after warm-up requests nobody counts."""
        scratch = _Requests(svc, Run(run.workload), payloads, containers,
                            entry.codebook_id)
        for k in range(WARMUP_CALLS):
            scratch.submit(k, time.perf_counter())
            scratch.wait()
        return _Requests(svc, run, payloads, containers, entry.codebook_id)

    # open loop: latency at a fixed offered rate
    with service.CompressionService(config) as svc:
        reqs = requests(svc)
        if ledger is not None:
            ledger.reset()
        before = _counters()
        n = max(2, int(SERVE_RATE * seconds / 2))
        t0 = time.perf_counter() + 0.005
        late = 0.0
        for k in range(n):
            due = t0 + k / SERVE_RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late += time.perf_counter() - due
            reqs.submit(k, due)
        reqs.wait()
        run.seconds = reqs.latency
        run.generator_late_frac = late / n * SERVE_RATE
        run.counters = _delta(before, _counters())
        if ledger is not None:
            run.ledger = ledger.snapshot()

    # closed loop: capacity, median rate over the bins of fresh instances
    rates, batched, flushed = [], 0, 0
    window = seconds / 2 / SERVE_INSTANCES
    bin_s = min(SERVE_BIN_S, window)
    n_bins = int(window / bin_s)
    for _ in range(SERVE_INSTANCES):
        for _ in range(SERVE_REF_CALLS if reference is not None else 0):
            reference.run()
        with service.CompressionService(config) as svc:
            reqs = requests(svc)
            batched -= svc.batcher.requests_batched
            flushed -= svc.batcher.batches_flushed
            slots = threading.Semaphore(SERVE_IN_FLIGHT)
            start = time.perf_counter()
            k = 0
            while time.perf_counter() - start < window:
                slots.acquire()
                reqs.submit(k, time.perf_counter(), on_done=slots.release)
                run.queue_depth_max = max(run.queue_depth_max, svc.queue.depth())
                k += 1
            reqs.wait()
            done, _ = np.histogram(reqs.done_at, bins=n_bins,
                                   range=(start, start + n_bins * bin_s))
            rates.extend(done / bin_s)
            batched += svc.batcher.requests_batched
            flushed += svc.batcher.batches_flushed
    run.capacity_ops_s = float(np.median(rates))
    run.batch_size = batched / flushed if flushed else 0.0
    if reference is not None:
        for _ in range(SERVE_REF_CALLS):
            reference.run()
        run.slowdown = reference.slowdown()
    return run


# ---------------------------------------------------------------- metrics


def p90(xs: list[float]) -> float:
    """Nearest-rank 90th percentile (10 samples beyond it at n=100)."""
    return float(np.percentile(xs, 90, method="inverted_cdf")) if xs else 0.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def raw_metrics(run: Run, setup_s: float) -> dict[str, float]:
    """End-to-end values as measured, tail latencies included."""
    c, d = run.seconds["compress"], run.seconds["decompress"]
    return {
        "setup_s": setup_s,
        "compress_mb_s": _div(run.op_bytes / 1e6, statistics.median(c) if c else 0),
        "decompress_mb_s": _div(run.op_bytes / 1e6, statistics.median(d) if d else 0),
        "compress_ms_p90": p90(c) * 1e3,
        "decompress_ms_p90": p90(d) * 1e3,
        "ratio": run.ratio,
        "capacity_ops_s": run.capacity_ops_s,
    }


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    """The gated metrics, CPU-bound ones scaled by the host slowdown.

    Scaled: set-up time, and every closed-loop metric (all of the app
    workloads', serve's capacity).  Serve latency comes from an open
    loop where timer waits are a large part of it, so it stays raw.
    Tail latencies repeat only within 15-30% from run to run here, so
    they are reported raw and not gated.
    """
    raw = raw_metrics(run, setup_s)
    k = run.slowdown
    scaled = ["capacity_ops_s"]
    if run.workload != "serve-registered":
        scaled += ["compress_mb_s", "decompress_mb_s"]
    out = {name: raw[name] for name in ("compress_mb_s", "decompress_mb_s",
                                        "ratio", "capacity_ops_s")}
    for name in scaled:
        out[name] = raw[name] * k
    out["setup_s"] = raw["setup_s"] / k
    return out


_COMPRESS_LAYERS = ("histogram", "codebook", "quantize", "encode", "serialize")
_DECOMPRESS_LAYERS = ("deserialize", "decode_table", "lanes", "decode_kernel",
                      "assemble", "dequantize")


def per_layer(run: Run) -> dict[str, float]:
    """Shares of each op's wall time by layer, plus layer counters.

    For app workloads an op's wall time is the benchmark's root around
    the entry-point call.  For serve it is the request latency measured
    by the client; the part outside the app facade is serve overhead.
    """
    led = run.ledger
    assert led is not None
    serve = run.workload == "serve-registered"
    out: dict[str, float] = {}
    wall = {}
    for op, layers in (("compress", _COMPRESS_LAYERS),
                       ("decompress", _DECOMPRESS_LAYERS)):
        if serve:
            wall[op] = sum(run.seconds[op])
            n = len(run.seconds[op])
        else:
            wall[op] = led.root_s[op]
            n = led.roots[op]
        out[f"{op}.traced_ms"] = _div(wall[op], n) * 1e3
        for layer in layers:
            out[f"{layer}.share"] = _div(led.self_s[(op, layer)], wall[op])
        out[f"app.{op}_other_share"] = _div(led.self_s[(op, OTHER)], wall[op])
        out[f"serve.{op}_overhead_share"] = (
            _div(wall[op] - led.root_s[op], wall[op]) if serve else 0.0
        )
    k = run.counters
    name = {h.attr: h.name for h in HOOKS}
    encode_s = led.name_s[name["parallel_encode"]] + led.name_s[name["single_stage_encode"]]
    serial_s = led.name_s[name["gpu_encode"]] + led.name_s[name["single_stage_encode"]]
    encode_self = led.self_s[("compress", "encode")]
    kernel_self = led.self_s[("decompress", "decode_kernel")]
    kernel_calls = led.calls[name["gap_decode_lanes"]] + led.calls[name["decode_lanes"]]
    wrapped_calls = sum(led.calls.values())
    out.update({
        "codebook.build_frac": _div(k["codebook_misses"],
                                    k["codebook_hits"] + k["codebook_misses"]),
        "encode.mb_s": _div(led.counts["encode.bytes"] / 1e6, encode_self),
        "encode.serial_frac": _div(serial_s, encode_s),
        "encode.pool_fallbacks": k["pool_fallbacks"],
        "decode_table.build_frac": _div(k["table_misses"],
                                        k["table_hits"] + k["table_misses"]),
        "decode_table.tiered_frac": _div(led.counts["decode_table.tiered"],
                                         led.calls[name["cached_decode_table"]]),
        "decode_kernel.msym_s": _div(led.counts["decode.symbols"] / 1e6, kernel_self),
        "decode_kernel.gap_frac": _div(led.counts["decode.gap_calls"], kernel_calls),
        "decode_kernel.lut_fallbacks": k["lut_fallbacks"] + k["gap_lut_fallbacks"],
        "serve.batch_size": run.batch_size,
        "serve.queue_depth_max": run.queue_depth_max,
        "serve.generator_late_frac": run.generator_late_frac,
        "serve.shed": k["shed"],
        "serve.retries": k["retries"],
        "serve.errors": k["errors"],
        "trace.overhead_pct": 100 * _div(run.wrapper_cost_s * wrapped_calls,
                                         wall["compress"] + wall["decompress"]),
        "ledger.missing": len(run.missing),
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_round_trips: int = MIN_ROUND_TRIPS) -> Run:
    """One run of ``workload``.  With ``trace`` the layer wrappers are
    installed for its duration and removed afterwards; without it the
    reference kernel measures the host's speed."""
    ledger = Ledger() if trace else None
    reference = None if trace else Reference()
    installed = install(ledger) if ledger is not None else None
    try:
        if workload == "serve-registered":
            run = run_serve(seed, seconds, ledger, reference)
        else:
            run = run_app(APP_WORKLOADS[workload], seed, seconds, ledger,
                          reference, min_round_trips)
    finally:
        if installed is not None:
            installed.restore()
    if ledger is not None:
        if run.ledger is None:
            run.ledger = ledger.snapshot()
        run.missing = installed.missing
        run.wrapper_cost_s = wrapper_cost_s()
    return run
