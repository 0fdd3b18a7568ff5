"""Flight recorder: a bounded ring of completed request span trees.

The serve layer executes every request under its own request-scoped
:class:`~repro.obs.trace.Tracer` (see ``repro.serve.service``); when the
request completes, its finished span tree plus outcome metadata becomes
one :class:`RequestRecord` offered to the process's
:class:`FlightRecorder`.  The recorder answers the on-call question the
metrics histograms cannot: *which request* was slow, which path did it
take (scan vs iterative encode, gap vs lanes decode, cache hit vs
miss), and what did its timeline look like.

Retention is **tail-based**: the decision to keep a request is made
after it finishes, when its fate is known.

- every request that *failed* (user error, shed) is kept;
- every request whose latency reaches the rolling p99 of recent
  completions is kept (the outliers are exactly the ones worth
  debugging).  The recorder's first completion (a service's cold
  start: imports, compiled-module load, empty caches) sets no bar:
  below 100 samples the nearest-rank p99 is the window's maximum, so
  it would otherwise hide every warm outlier until it leaves the
  window;
- of the boring majority, one in ``sample_every`` is kept as ambient
  baseline.

Interesting and boring records live in two separate rings so a flood of
healthy traffic can never evict the error you are hunting.  Both rings
are bounded, every mutation is under one lock, and the disabled path
(:class:`NullFlightRecorder`, the default) is a single no-op call per
request — the recorder can stay wired into the hot path unconditionally.

``FlightRecorder.to_chrome_trace()`` lays the retained span trees on a
shared wall-clock axis, one Perfetto track per request status, which is
what ``GET /trace/recent`` and ``repro-trace --flight`` serve.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.metrics import metrics as _metrics

__all__ = [
    "RequestRecord",
    "FlightRecorder",
    "NullFlightRecorder",
    "extract_paths",
    "flight_recorder",
    "set_flight_recorder",
]

#: span attributes that identify a chosen execution path; surfaced as
#: ``RequestRecord.paths`` so path health is greppable without walking
#: the span tree
_PATH_ATTRS = {
    "encode.reduce_shuffle_merge": (("impl", "encode_impl"),),
    "decode.stream": (
        ("strategy", "decode_strategy"),
        ("table_tier", "table_tier"),
        ("gap_fallback", "gap_fallback"),
    ),
}
_CACHE_ATTRS = ("codebook_cache", "decode_table_cache", "codebook_registry")


def extract_paths(spans: Iterable[dict]) -> dict:
    """Chosen-path summary of one request's span dicts.

    Returns e.g. ``{"encode_impl": "scan", "decode_strategy": "gap",
    "codebook_cache": "hit"}`` — whatever the instrumented pipeline
    recorded on its stage spans.
    """
    paths: dict[str, str] = {}
    for sp in spans:
        attrs = sp.get("attrs") or {}
        rule = _PATH_ATTRS.get(sp.get("name", ""))
        if rule is not None:
            for src, dst in rule:
                if src in attrs and dst not in paths:
                    paths[dst] = str(attrs[src])
        for key in _CACHE_ATTRS:
            if key in attrs and key not in paths:
                paths[key] = str(attrs[key])
    return paths


@dataclass(frozen=True)
class RequestRecord:
    """One completed request: outcome + its full span tree."""

    request_id: str
    op: str
    status: str            # "ok" | "error" | "shed"
    duration_ms: float
    ts: float              # wall-clock completion time (time.time())
    error: Optional[str] = None
    paths: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)
    spans: tuple = ()      # span dicts (Span.to_dict()), request-relative
    retained: str = ""     # set by the recorder: error|outlier|sample

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "op": self.op,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 3),
            "ts": self.ts,
            "error": self.error,
            "paths": dict(self.paths),
            "attrs": dict(self.attrs),
            "retained": self.retained,
            "spans": list(self.spans),
        }


def _with_reason(rec: RequestRecord, reason: str) -> RequestRecord:
    return RequestRecord(
        request_id=rec.request_id, op=rec.op, status=rec.status,
        duration_ms=rec.duration_ms, ts=rec.ts, error=rec.error,
        paths=rec.paths, attrs=rec.attrs, spans=rec.spans,
        retained=reason,
    )


class FlightRecorder:
    """Thread-safe tail-sampling ring buffer of request records."""

    enabled = True

    def __init__(
        self,
        capacity: int = 256,
        sample_every: int = 8,
        p99_window: int = 512,
        min_outlier_window: int = 32,
    ):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if p99_window < 1:
            raise ValueError("p99_window must be >= 1")
        # errors/outliers get half the capacity, ambient samples the rest
        self._important: deque[RequestRecord] = deque(maxlen=capacity // 2)
        self._sampled: deque[RequestRecord] = deque(
            maxlen=capacity - capacity // 2
        )
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self.min_outlier_window = int(min_outlier_window)
        self._durations: deque[float] = deque(maxlen=int(p99_window))
        #: the same window kept sorted, so the p99 is one index, not a sort
        self._ordered: list[float] = []
        self._appended = 0  # durations ever added to the window
        self._lock = threading.Lock()
        self._epoch_wall = time.time()
        self.seen = 0
        self.kept = 0

    # -------------------------------------------------------- retention --
    def _p99_locked(self) -> Optional[float]:
        ordered = self._ordered
        n = len(ordered)
        if not n or n < self.min_outlier_window:
            return None
        if self._appended != n:
            return ordered[min(n - 1, int(0.99 * n))]
        # the first completion counts toward filling the window but,
        # while it is in it, sets no bar: it is the cold start.  Rank
        # among the others by stepping over one copy of its value.
        skip = bisect_left(ordered, self._durations[0])
        n -= 1
        if not n:
            return None
        k = min(n - 1, int(0.99 * n))
        return ordered[k + 1 if k >= skip else k]

    def _push_locked(self, duration_ms: float) -> None:
        window = self._durations
        if len(window) == window.maxlen:
            del self._ordered[bisect_left(self._ordered, window[0])]
        window.append(duration_ms)
        insort(self._ordered, duration_ms)
        self._appended += 1

    def record(self, rec: RequestRecord) -> str:
        """Offer one completed request; returns the retention reason.

        ``"error"`` / ``"outlier"`` / ``"sample"`` when kept, ``""``
        when the record was let go (still counted in ``seen``).
        """
        with self._lock:
            self.seen += 1
            p99 = self._p99_locked()
            self._push_locked(rec.duration_ms)
            if rec.status != "ok":
                reason = "error"
            elif p99 is not None and rec.duration_ms >= p99:
                reason = "outlier"
            elif self.seen % self.sample_every == 0:
                reason = "sample"
            else:
                reason = ""
            if reason:
                kept = _with_reason(rec, reason)
                (self._important if reason in ("error", "outlier")
                 else self._sampled).append(kept)
                self.kept += 1
        _metrics().counter(
            "repro_obs_flight_records_total",
            retained=reason or "dropped",
        ).inc()
        return reason

    # ---------------------------------------------------------- reading --
    def recent(
        self, n: Optional[int] = None, status: Optional[str] = None,
    ) -> list[RequestRecord]:
        """Retained records, newest last; optionally filtered by status."""
        with self._lock:
            out = list(self._important) + list(self._sampled)
        out.sort(key=lambda r: r.ts)
        if status is not None:
            out = [r for r in out if r.status == status]
        if n is not None:
            out = out[-int(n):]
        return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": True,
                "seen": self.seen,
                "kept": self.kept,
                "capacity": self.capacity,
                "retained_important": len(self._important),
                "retained_sampled": len(self._sampled),
                "sample_every": self.sample_every,
                "p99_ms_estimate": self._p99_locked(),
            }

    def clear(self) -> None:
        with self._lock:
            self._important.clear()
            self._sampled.clear()
            self._durations.clear()
            self._ordered.clear()
            self._appended = 0
            self.seen = 0
            self.kept = 0

    # ---------------------------------------------------------- export --
    def to_chrome_trace(self, n: Optional[int] = None) -> dict:
        """Retained records as one Chrome trace-event document.

        Each record's spans keep their internal layout (they are
        request-tracer-relative) and the whole tree is placed on the
        wall-clock axis so that it ends at the request's completion
        (``duration_ms`` also covers the wait before a shard picked the
        request up, when no span ran), so concurrent requests interleave
        the way they really did.  Tracks: one tid per originating
        thread, prefixed by metadata naming the request ids it carries.
        """
        records = self.recent(n)
        events: list[dict] = [{
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "repro flight recorder"},
        }]
        for rec in records:
            if not rec.spans:
                continue
            root_ts = min(float(s.get("ts_us", 0.0)) for s in rec.spans)
            end_ts = max(float(s.get("ts_us", 0.0))
                         + float(s.get("dur_us", 0.0)) for s in rec.spans)
            base_us = (rec.ts - self._epoch_wall) * 1e6 - (end_ts - root_ts)
            for sp in rec.spans:
                events.append({
                    "name": sp.get("name", "?"),
                    "ph": "X",
                    "ts": round(
                        max(0.0, base_us)
                        + float(sp.get("ts_us", 0.0)) - root_ts, 3,
                    ),
                    "dur": round(float(sp.get("dur_us", 0.0)), 3),
                    "pid": 1,
                    "tid": sp.get("tid", 0),
                    "args": {
                        **(sp.get("attrs") or {}),
                        "request_id": rec.request_id,
                        "status": rec.status,
                        "retained": rec.retained,
                        "span_id": sp.get("span_id", 0),
                        "parent_id": sp.get("parent_id", 0),
                    },
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.flight",
                "records": [
                    {k: v for k, v in r.to_dict().items() if k != "spans"}
                    for r in records
                ],
                "stats": self.stats(),
            },
        }


class NullFlightRecorder:
    """Disabled recorder: the whole hot-path cost is one method call."""

    enabled = False
    seen = 0
    kept = 0

    def record(self, rec: RequestRecord) -> str:
        return ""

    def recent(self, n=None, status=None) -> list:
        return []

    def stats(self) -> dict:
        return {"enabled": False, "seen": 0, "kept": 0}

    def clear(self) -> None:
        pass

    def to_chrome_trace(self, n=None) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": {"generator": "repro.obs.flight",
                              "records": [], "stats": self.stats()}}


_RECORDER: FlightRecorder | NullFlightRecorder = NullFlightRecorder()


def flight_recorder() -> FlightRecorder | NullFlightRecorder:
    """The process-global flight recorder (disabled by default)."""
    return _RECORDER


def set_flight_recorder(
    recorder: FlightRecorder | NullFlightRecorder,
) -> FlightRecorder | NullFlightRecorder:
    """Install ``recorder`` globally; returns the previous one."""
    global _RECORDER
    prev = _RECORDER
    _RECORDER = recorder
    return prev
