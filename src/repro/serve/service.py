"""The serving façade: admission queue → micro-batcher → shard pool.

:class:`CompressionService` wires the pieces around the existing library
paths — :func:`repro.app.compressor.compress_symbols` /
:func:`~repro.app.compressor.decompress_symbols` for app containers and
:class:`repro.core.streaming.StreamingDecoder` for raw ``RPRH``
segments — and adds the serving concerns none of them have:

- **timeouts**: every request can carry a deadline; blocking helpers
  bound their wait with ``config.default_timeout_s``;
- **bounded retries with jittered backoff**: a request whose shard
  crashed mid-batch is re-admitted up to ``max_retries`` times, with
  a small randomized sleep so a thundering herd of retries cannot
  re-synchronize;
- **degraded mode**: when no shard is alive (or re-admission is
  impossible), the batch executes serially on the calling thread —
  slower, but the service keeps answering;
- **explicit backpressure**: admission beyond the queue bound raises
  :class:`~repro.serve.queue.QueueFullError` instead of queuing
  unboundedly.

The batcher key guarantees batchmates share a codebook digest, so the
per-batch execution loop naturally feeds the digest-keyed caches in
:mod:`repro.huffman.cache`: one miss per batch, hits for the rest.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.app.compressor import (
    CompressionReport,
    compress_symbols,
    compress_symbols_registered,
    decompress_symbols,
)
from repro.codebooks.registry import process_registry
from repro.core.streaming import StreamingDecoder
from repro.core.tuning import DEFAULT_MAGNITUDE
from repro.cuda.device import DeviceSpec, V100
from repro.huffman.cache import cache_infos
from repro.obs import metrics as _metrics
from repro.obs import span as _span
from repro.obs.flight import (
    FlightRecorder,
    NullFlightRecorder,
    RequestRecord,
    extract_paths,
    set_flight_recorder,
)
from repro.obs.slo import SLOTracker, default_serve_slos
from repro.obs.trace import (
    Tracer,
    add_attrs as _add_span_attrs,
    get_global_tracer,
    thread_tracing,
)
from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher
from repro.serve.queue import (
    AdmissionQueue,
    Priority,
    QueueClosed,
    QueueFullError,
    ServeRequest,
)
from repro.serve.workers import ShardCrashed, ShardPool, default_shard_count

__all__ = ["ServiceConfig", "CompressionService"]

#: request-latency histogram bounds (seconds).  0.1 is deliberately a
#: bound: the default latency SLO thresholds there, and a threshold that
#: is a bucket bound makes the SLO's bad-event count exact rather than
#: interpolated.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance (see ARCHITECTURE.md)."""

    queue_size: int = 256
    max_batch: int = 16
    max_delay_s: float = 0.005
    n_shards: Optional[int] = None  # None → sized from `device`
    max_retries: int = 2
    retry_backoff_s: float = 0.005
    default_timeout_s: float = 30.0
    request_max_bytes: int = 8 << 20
    device: DeviceSpec = V100
    magnitude: int = DEFAULT_MAGNITUDE
    #: flight-recorder sizing (0 capacity disables request recording)
    flight_capacity: int = 256
    flight_sample_every: int = 8
    #: latency SLO threshold: 99% of requests must finish under this
    slo_latency_threshold_s: float = 0.1


class CompressionService:
    """In-process compression service; the HTTP front wraps this."""

    def __init__(self, config: ServiceConfig = ServiceConfig()):
        self.config = config
        self.queue = AdmissionQueue(maxsize=config.queue_size)
        self.batcher = MicroBatcher(
            self.queue,
            sink=self._dispatch,
            policy=BatchPolicy(
                max_batch=config.max_batch, max_delay_s=config.max_delay_s
            ),
        )
        n = (
            config.n_shards
            if config.n_shards is not None
            else default_shard_count(config.device)
        )
        self.pool = ShardPool(
            n, handler=self._handle_batch, on_crash=self._on_crash,
            device=config.device,
        )
        self._segment_decoder = StreamingDecoder()
        self._rng = random.Random(0x52505253)
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        self.requests_served = 0
        self.started_at = time.time()
        #: request-scoped telemetry: every executed request is traced
        #: into its own span tree and offered to the flight recorder
        #: (tail-retained: errors + p99 outliers + a sampled baseline)
        self.flight = (
            FlightRecorder(
                capacity=config.flight_capacity,
                sample_every=config.flight_sample_every,
            )
            if config.flight_capacity
            else NullFlightRecorder()
        )
        self._prev_flight = None
        #: declarative objectives over the serve histograms/counters;
        #: evaluated on every /slo scrape and stats() call
        self.slo = SLOTracker(
            default_serve_slos(config.slo_latency_threshold_s)
        )

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "CompressionService":
        with self._lock:
            if self._started:
                return self
            self._started = True
        # make this service's recorder the process recorder so sheds on
        # queue/batcher threads land in the same ring as executed requests
        if self.flight.enabled:
            self._prev_flight = set_flight_recorder(self.flight)
        self.batcher.start()
        return self

    def close(self, graceful: bool = True, timeout: float = 10.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # stop admissions but keep queued work drainable
        self.queue.close(shed_pending=not graceful)
        if graceful and self._started:
            self.batcher.drain(timeout)
            self.pool.drain(timeout)
        self.batcher.stop()
        self.pool.shutdown(graceful=graceful, timeout=timeout)
        if self._prev_flight is not None:
            set_flight_recorder(self._prev_flight)
            self._prev_flight = None

    def __enter__(self) -> "CompressionService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- submit
    def submit(
        self,
        op: str,
        payload: Any,
        priority: Priority = Priority.INTERACTIVE,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
        **meta: Any,
    ) -> Future:
        """Admit one request; returns its future (raises on shed).

        ``deadline_s`` is a *relative* budget in seconds; it becomes an
        absolute monotonic deadline at admission time.  ``request_id``
        honors a caller-supplied id (the HTTP front forwards
        ``X-Repro-Request-Id``); one is minted otherwise.
        """
        if not self._started:
            raise RuntimeError("service not started (use `with service:`)")
        if op not in ("compress", "decompress"):
            raise ValueError(f"unknown op {op!r}")
        req = ServeRequest(
            op=op,
            payload=payload,
            priority=priority,
            deadline_s=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
            meta=dict(meta),
        )
        if request_id:
            req.request_id = str(request_id)
        if op == "compress":
            req.meta.setdefault("magnitude", self.config.magnitude)
        self.queue.submit(req)
        _metrics().counter("repro_serve_requests_total", op=op).inc()
        return req.future

    def submit_compress(self, data: np.ndarray, **kw) -> Future:
        return self.submit("compress", data, **kw)

    def submit_decompress(self, buf: bytes, **kw) -> Future:
        return self.submit("decompress", buf, **kw)

    # blocking conveniences ------------------------------------------------
    def compress(
        self, data: np.ndarray, timeout: Optional[float] = None, **kw
    ) -> tuple[bytes, CompressionReport]:
        return self.submit_compress(data, **kw).result(
            timeout if timeout is not None else self.config.default_timeout_s
        )

    def decompress(
        self, buf: bytes, timeout: Optional[float] = None, **kw
    ) -> np.ndarray:
        return self.submit_decompress(buf, **kw).result(
            timeout if timeout is not None else self.config.default_timeout_s
        )

    # ---------------------------------------------------------- execution
    def _dispatch(self, batch: Batch) -> None:
        """Batcher sink: route to a shard, degrade serially if none live."""
        try:
            self.pool.dispatch(batch)
        except ShardCrashed:
            self._execute_degraded(batch)

    def _handle_batch(self, batch: Batch) -> None:
        """Runs on a shard thread; per-request errors never kill a shard."""
        t0 = time.monotonic()
        for req in batch.requests:
            self._execute_request(req)
        elapsed = time.monotonic() - t0
        if batch.requests:
            self.queue.note_service_time(elapsed / len(batch.requests))

    def _execute_degraded(self, batch: Batch) -> None:
        _metrics().counter("repro_serve_degraded_total").inc()
        with _span("serve.degraded", batch_size=len(batch)):
            self._handle_batch(batch)

    def _execute_request(self, req: ServeRequest) -> None:
        if req.future.done():
            return
        if req.expired():
            req.shed("deadline")
            return
        # every request runs under its own tracer so concurrent shard
        # threads collect disjoint span trees; pinning the epoch to an
        # enabled global tracer keeps the trees adoptable into it
        g = get_global_tracer()
        rt = Tracer(
            f"req-{req.request_id}",
            epoch_ns=g._epoch_ns if g.enabled else None,
        )
        t0 = time.monotonic()
        error: Optional[Exception] = None
        # where the request waited before this shard picked it up: in
        # the admission queue until its batch flushed, then behind its
        # batchmates and the shard's inbox
        flushed_at = req.flushed_at if req.flushed_at is not None else t0
        span_kw: dict = {
            "queue_wait_ms": round((flushed_at - req.enqueued_at) * 1e3, 3),
            "batch_wait_ms": round((t0 - flushed_at) * 1e3, 3),
        }
        # registry attribution (satellite of the codebooks subsystem):
        # the batcher stamped these into meta when a codebook_id request
        # resolved; decode-side hits are stamped by _do_decompress
        if "codebook_id" in req.meta:
            span_kw["codebook_id"] = req.meta["codebook_id"]
        if "registry_hit" in req.meta:
            span_kw["registry_hit"] = bool(req.meta["registry_hit"])
        with thread_tracing(rt):
            try:
                with rt.span(
                    "serve.request",
                    request_id=req.request_id,
                    op=req.op,
                    priority=req.priority.name,
                    attempts=req.attempts,
                    **span_kw,
                ):
                    if req.op == "compress":
                        result = self._do_compress(req)
                    else:
                        result = self._do_decompress(req)
            except (ValueError, TypeError, KeyError,
                    NotImplementedError) as exc:
                # user error: belongs to this request, not to the shard
                error = exc
        # latency as the client sees it: from admission, not pickup
        elapsed = time.monotonic() - req.enqueued_at
        _metrics().histogram(
            "repro_serve_request_latency_seconds",
            buckets=_LATENCY_BUCKETS,
            op=req.op,
        ).observe(elapsed)
        spans = tuple(sp.to_dict() for sp in rt.spans)
        self.flight.record(RequestRecord(
            request_id=req.request_id,
            op=req.op,
            status="error" if error is not None else "ok",
            duration_ms=elapsed * 1e3,
            ts=time.time(),
            error=type(error).__name__ if error is not None else None,
            paths=extract_paths(spans),
            attrs={
                "priority": req.priority.name,
                "attempts": req.attempts,
                # re-read meta: the decode side resolves its registry
                # hit during execution, after span_kw was computed
                **(
                    {"codebook_id": req.meta["codebook_id"]}
                    if "codebook_id" in req.meta else {}
                ),
                **(
                    {"registry_hit": bool(req.meta["registry_hit"])}
                    if "registry_hit" in req.meta else {}
                ),
            },
            spans=spans,
        ))
        if g.enabled:
            g.adopt_spans(rt.spans)
        if error is not None:
            _metrics().counter(
                "repro_serve_errors_total", op=req.op
            ).inc()
            req.future.set_exception(error)
            return
        req.future.set_result(result)
        with self._lock:
            self.requests_served += 1

    def _do_compress(self, req: ServeRequest):
        data = np.asarray(req.payload)
        if data.nbytes > self.config.request_max_bytes:
            raise ValueError(
                f"payload {data.nbytes} B exceeds request_max_bytes"
            )
        entry = req.meta.get("registry_entry")
        if entry is not None:
            # registry hit (resolved by batch_key): single-stage
            # encode, no codebook stages; its count checks coverage
            _metrics().counter(
                "repro_serve_encode_path_total", path="single_stage"
            ).inc()
            return compress_symbols_registered(
                data,
                entry,
                magnitude=req.meta.get("magnitude", self.config.magnitude),
                device=self.config.device,
            )
        _metrics().counter(
            "repro_serve_encode_path_total", path="cold"
        ).inc()
        return compress_symbols(
            data,
            num_symbols=req.meta.get("num_symbols"),
            magnitude=req.meta.get("magnitude", self.config.magnitude),
            device=self.config.device,
            adaptive=bool(req.meta.get("adaptive", False)),
        )

    def _resolve_decode_entry(self, req: ServeRequest):
        """Match a container header against the codebook registry.

        Returns a ``RegisteredCodebook`` or ``None``.  The lookup key is
        the length-vector digest ``batch_key`` peeked from the header
        (``req.meta["codebook_digest"]``), so the container is not
        parsed again.  Skipped when the registry is empty so
        unregistered deployments never pollute the miss counters.
        """
        registry = process_registry()
        if not registry.entries():
            return None
        peek = req.meta.get("codebook_digest")
        if peek is None:
            return None
        return registry.resolve_lengths_digest(peek.split(":")[0])

    def _do_decompress(self, req: ServeRequest) -> np.ndarray:
        buf = bytes(req.payload)
        if len(buf) > self.config.request_max_bytes:
            raise ValueError(f"payload {len(buf)} B exceeds request_max_bytes")
        entry = self._resolve_decode_entry(req)
        if entry is not None:
            # stamp the enclosing serve.request span (open right now on
            # this thread's tracer) + the flight record via meta
            req.meta["codebook_id"] = entry.codebook_id
            req.meta["registry_hit"] = True
            _add_span_attrs(
                codebook_id=entry.codebook_id, registry_hit=True
            )
            _metrics().counter(
                "repro_serve_decode_path_total", path="registry"
            ).inc()
        else:
            _metrics().counter(
                "repro_serve_decode_path_total", path="cold"
            ).inc()
        if buf[:4] == b"RPRS":
            return decompress_symbols(buf, book=entry)
        if buf[:4] == b"RPRH":
            # a raw streaming segment (repro.core.streaming)
            return self._segment_decoder.decode_segment(buf, book=entry)
        raise ValueError("unrecognized container magic")

    # ------------------------------------------------------------- crash
    def _on_crash(self, crash: ShardCrashed) -> None:
        """Retry a crashed batch's unfinished requests, bounded + jittered."""
        if crash.batch is None:
            return
        for req in crash.batch.requests:
            if req.future.done():
                continue
            req.attempts += 1
            if req.attempts > self.config.max_retries:
                req.future.set_exception(
                    RuntimeError(
                        f"request {req.req_id} failed after "
                        f"{req.attempts} attempts"
                    )
                )
                continue
            _metrics().counter("repro_serve_retries_total").inc()
            # jittered backoff: decorrelate the retry herd
            time.sleep(
                self._rng.uniform(0.0, self.config.retry_backoff_s)
                * (2 ** (req.attempts - 1))
            )
            try:
                self.queue.submit(req)
            except (QueueFullError, QueueClosed):
                # cannot re-admit: serve it here rather than lose it
                self._execute_degraded(
                    Batch(key=("retry", req.req_id), requests=[req])
                )

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Operational snapshot surfaced by ``GET /stats``."""
        reg = _metrics()
        caches = {
            name: {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "maxsize": info.maxsize,
                "bytes": info.bytes,
                "max_bytes": info.max_bytes,
                "hit_rate": (
                    round(info.hits / (info.hits + info.misses), 4)
                    if (info.hits + info.misses)
                    else None
                ),
            }
            for name, info in cache_infos().items()
        }
        hist = reg.histogram("repro_serve_batch_size")
        # decode-path health: which strategy served how many symbols,
        # whether the native gap kernel is in play, and every fallback
        from repro.native import native_available, native_error

        native_on = native_available()
        per_path: dict[str, int] = {}
        snap = reg.snapshot().get("repro_decode_symbols_total")
        if snap is not None:
            for series in snap["series"]:
                path = series["labels"].get("path", "unknown")
                per_path[path] = per_path.get(path, 0) \
                    + int(series["value"])
        # decodes on a root-only table ("flat") vs one with subtables
        # ("tiered", deep books; see huffman/decoder.py)
        table_tiers: dict[str, int] = {}
        tsnap = reg.snapshot().get("repro_decode_table_tier_total")
        if tsnap is not None:
            for series in tsnap["series"]:
                tier = series["labels"].get("tier", "unknown")
                table_tiers[tier] = table_tiers.get(tier, 0) \
                    + int(series["value"])
        decode = {
            # the path a gap request takes on this host, and why the
            # native kernel is off when it is (None while it works)
            "gap_backend": "native" if native_on else "lanes",
            "gap_backend_reason": None if native_on
            else native_error() or "no_native_kernel",
            "symbols_by_path": per_path,
            "table_tiers": table_tiers,
            "subtable_gathers": int(
                reg.total("repro_decode_subtable_gather_total")
            ),
            # lanes (chunks, broken cells, tails) the native pass decoded
            "gap_lanes": int(
                reg.total("repro_decode_lanes_total", path="gap")
            ),
            "gap_lut_fallbacks": int(
                reg.total("repro_decode_gap_lut_fallback_total")
            ),
            "lut_fallbacks": int(
                reg.total("repro_decode_lut_fallback_total")
            ),
            "registry_requests": int(
                reg.total("repro_serve_decode_path_total", path="registry")
            ),
            "cold_requests": int(
                reg.total("repro_serve_decode_path_total", path="cold")
            ),
        }
        encode = {
            "single_stage_requests": int(
                reg.total(
                    "repro_serve_encode_path_total", path="single_stage"
                )
            ),
            "cold_requests": int(
                reg.total("repro_serve_encode_path_total", path="cold")
            ),
        }
        slo_doc = self.slo.evaluate()
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue": {
                "depth": self.queue.depth(),
                "maxsize": self.queue.maxsize,
                "closed": self.queue.closed,
            },
            "shards": {
                "alive": self.pool.alive_count,
                "total": self.pool.size,
                "degraded": self.pool.alive_count < self.pool.size,
            },
            "batches": {
                "flushed": self.batcher.batches_flushed,
                "requests": self.batcher.requests_batched,
                "mean_size": round(self.batcher.mean_batch_size, 3),
                "size_histogram": hist._sample()["buckets"],
            },
            "requests": {
                "served": self.requests_served,
                "submitted": int(reg.total("repro_serve_requests_total")),
                "shed": int(reg.total("repro_serve_shed_total")),
                "retries": int(reg.total("repro_serve_retries_total")),
                "degraded_batches": int(
                    reg.total("repro_serve_degraded_total")
                ),
                "user_errors": int(reg.total("repro_serve_errors_total")),
            },
            "caches": caches,
            "decode": decode,
            "encode": encode,
            "codebooks": process_registry().info(),
            "flight": self.flight.stats(),
            "slo": {
                "healthy": slo_doc["healthy"],
                "alerts": slo_doc["alerts"],
                "bad_fractions": {
                    name: entry["bad_fraction"]
                    for name, entry in slo_doc["slos"].items()
                },
            },
        }

    def slo_report(self) -> dict:
        """Full multi-window burn-rate evaluation (``GET /slo``)."""
        return self.slo.evaluate()
