"""Bounded admission queue with priorities, deadlines, and load shedding.

The queue is the service's *only* buffer, and it is explicitly bounded:
when it is full, :meth:`AdmissionQueue.submit` raises
:class:`QueueFullError` carrying a ``retry_after_s`` hint instead of
growing without bound — under overload the server degrades to fast
rejections, never to unbounded memory or deadlock.

Requests carry a priority class (:class:`Priority`) and an absolute
deadline on the monotonic clock.  Expired requests are **shed, never
silently dropped**: their future is completed with
:class:`DeadlineExceeded` and the shed is counted in the
``repro_serve_shed_total`` metric, so a client always learns the fate of
its request.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Optional

from repro.obs import metrics as _metrics
from repro.obs.flight import RequestRecord, flight_recorder

__all__ = [
    "Priority",
    "ServeRequest",
    "new_request_id",
    "QueueFullError",
    "QueueClosed",
    "DeadlineExceeded",
    "AdmissionQueue",
]

_REQ_IDS = itertools.count(1)


def new_request_id() -> str:
    """Mint a request id: short, unique, log-greppable.

    ``<pid-hex>-<8 random hex>`` — unique across the worker processes a
    scale-out deployment runs, cheap enough to mint per request.
    """
    return f"{os.getpid():x}-{os.urandom(4).hex()}"


class Priority(IntEnum):
    """Admission classes; lower value = served first."""

    INTERACTIVE = 0
    BULK = 1


class QueueFullError(RuntimeError):
    """Admission rejected: the queue is at capacity (load shed).

    ``retry_after_s`` is a backoff hint derived from the batcher's drain
    rate; the HTTP front maps it onto a ``Retry-After`` header.
    """

    def __init__(self, depth: int, retry_after_s: float = 0.05):
        super().__init__(
            f"admission queue full ({depth} queued); retry in "
            f"{retry_after_s * 1e3:.0f} ms"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class QueueClosed(RuntimeError):
    """The queue is shut down and no longer admits requests."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before a worker could serve it."""


@dataclass
class ServeRequest:
    """One queued unit of work.

    ``op`` is ``"compress"`` or ``"decompress"``; ``payload`` is the op's
    input (a symbol array or a serialized container).  The result is
    delivered through ``future`` — completing it (with a value or an
    exception) is the *only* way a request leaves the system, which is
    what makes "shed, never dropped" checkable.

    ``meta`` carries per-request options end to end.  Service-level
    keys: ``num_symbols``, ``magnitude``, ``adaptive``, and
    ``codebook_id`` — a :mod:`repro.codebooks` registry reference
    (content digest or name alias) selecting the single-stage static
    -codebook encode path.  The batcher resolves it once in
    ``batch_key`` and stamps ``registry_entry`` / ``registry_hit``
    back into ``meta`` for the shard and the flight recorder.
    """

    op: str
    payload: Any
    priority: Priority = Priority.INTERACTIVE
    deadline_s: Optional[float] = None  # absolute, time.monotonic()
    meta: dict = field(default_factory=dict)
    req_id: int = field(default_factory=lambda: next(_REQ_IDS))
    #: the externally-visible request id: assigned at admission (or
    #: honored from the client's ``X-Repro-Request-Id``), propagated
    #: through batcher and shards, stamped on every span of the
    #: request's trace tree, and keyed in the flight recorder
    request_id: str = field(default_factory=new_request_id)
    attempts: int = 0
    future: Future = field(default_factory=Future)
    #: admission time (monotonic); request latency is measured from here
    enqueued_at: float = field(default_factory=time.monotonic)
    #: when the batcher last flushed this request's batch to a shard
    flushed_at: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_s is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline_s

    def shed(self, reason: str) -> None:
        """Complete the future exceptionally and count the shed."""
        _metrics().counter("repro_serve_shed_total", reason=reason).inc()
        if self.future.done():
            return
        msg = f"request {self.req_id} ({self.op}) shed: {reason}"
        exc: Exception
        if reason == "deadline":
            exc = DeadlineExceeded(msg)
        elif reason == "shutdown":
            exc = QueueClosed(msg)
        else:
            exc = QueueFullError(0)
        self.future.set_exception(exc)
        # sheds happen on the batcher/queue threads, where no service
        # context exists — report to the process flight recorder so a
        # shed request is as attributable as an executed one
        flight_recorder().record(RequestRecord(
            request_id=self.request_id,
            op=self.op,
            status="shed",
            duration_ms=(time.monotonic() - self.enqueued_at) * 1e3,
            ts=time.time(),
            error=type(exc).__name__,
            attrs={"reason": reason, "priority": self.priority.name,
                   "attempts": self.attempts},
        ))


class AdmissionQueue:
    """Bounded, priority-classed FIFO with deadline shedding.

    One deque per :class:`Priority`; :meth:`get` serves the lowest
    priority value first and FIFO within a class.  All mutation happens
    under one lock + condition, so producers (the HTTP front, in-process
    callers) and the single batcher consumer can share it freely.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._queues: dict[Priority, deque[ServeRequest]] = {
            p: deque() for p in sorted(Priority)
        }
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: set by :meth:`wake`, consumed by the next :meth:`get`
        self._woken = False
        #: recent service-rate estimate used for the retry-after hint
        self._drain_hint_s = 0.05

    # ------------------------------------------------------------ admit --
    def submit(self, request: ServeRequest) -> ServeRequest:
        """Admit a request or raise :class:`QueueFullError` immediately.

        Never blocks: backpressure is explicit, the caller (or its HTTP
        client) decides whether to retry after ``retry_after_s``.
        """
        with self._not_empty:
            if self._closed:
                raise QueueClosed("service is shutting down")
            depth = self._depth_locked()
            if depth >= self.maxsize:
                _metrics().counter(
                    "repro_serve_shed_total", reason="queue_full"
                ).inc()
                raise QueueFullError(depth, self._retry_after_locked(depth))
            self._queues[Priority(request.priority)].append(request)
            _metrics().gauge("repro_serve_queue_depth").set(depth + 1)
            self._not_empty.notify()
        return request

    # ------------------------------------------------------------- drain --
    def get(self, timeout: Optional[float] = None) -> Optional[ServeRequest]:
        """Pop the next live request, shedding expired ones on the way.

        Returns ``None`` on timeout, after a :meth:`wake`, or when the
        queue is closed and empty.  Every expired request popped here
        has its future completed with :class:`DeadlineExceeded` — shed,
        not dropped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                req = self._pop_live_locked()
                if req is not None:
                    _metrics().gauge("repro_serve_queue_depth").set(
                        self._depth_locked()
                    )
                    return req
                if self._closed or self._woken:
                    self._woken = False
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)

    def _pop_live_locked(self) -> Optional[ServeRequest]:
        now = time.monotonic()
        for prio in sorted(self._queues):
            q = self._queues[prio]
            while q:
                req = q.popleft()
                if req.expired(now):
                    req.shed("deadline")
                    continue
                return req
        return None

    def wake(self) -> None:
        """Make the consumer's current or next empty :meth:`get` return
        ``None`` at once, so it can notice a stop request."""
        with self._not_empty:
            self._woken = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------- state --
    def _depth_locked(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depth(self) -> int:
        with self._lock:
            return self._depth_locked()

    def _retry_after_locked(self, depth: int) -> float:
        # full queue drains in ~depth * per-request service time
        return max(0.01, min(2.0, depth * self._drain_hint_s / 10.0))

    def note_service_time(self, seconds: float) -> None:
        """EWMA of observed per-request service time (retry-after hint)."""
        with self._lock:
            self._drain_hint_s = 0.8 * self._drain_hint_s + 0.2 * max(
                1e-4, seconds
            )

    # ------------------------------------------------------------- close --
    def close(self, shed_pending: bool = True) -> int:
        """Stop admitting; optionally shed everything still queued.

        Returns the number of requests shed.  With
        ``shed_pending=False`` the consumer may keep draining what is
        already queued (graceful drain).
        """
        shed = 0
        with self._not_empty:
            self._closed = True
            if shed_pending:
                for q in self._queues.values():
                    while q:
                        q.popleft().shed("shutdown")
                        shed += 1
            _metrics().gauge("repro_serve_queue_depth").set(
                self._depth_locked()
            )
            self._not_empty.notify_all()
        return shed

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
