"""Adaptive micro-batcher: coalesce same-codebook requests into batches.

The paper's throughput comes from launching one wide kernel over many
independent chunks; the serving-side analogue is gathering many
independent requests before doing work (Rivera et al. make the same
point for decode).  The profit center here is the digest-keyed caches in
:mod:`repro.huffman.cache`: requests that share a codebook digest are
grouped into one :class:`Batch` and dispatched to one shard *in
sequence*, so the first batchmate's codebook/decode-table build is a
cache miss and every other batchmate is a hit — one build amortized over
the whole batch, exactly the cuSZ timestep pattern.

Batches are keyed by :func:`batch_key`:

- compress: ``("c", histogram digest, magnitude)`` — the histogram is
  computed once at batching time and stashed in ``req.meta`` so the
  worker never recomputes it;
- decompress: ``("d", codebook digest, magnitude)`` peeked from the
  container header without a full deserialize.

Flushing is work-conserving: the batcher gathers only work that is
already waiting.  After each request is popped and keyed:

1. a key's batch that reaches ``max_batch`` flushes (size flush);
2. if the admission queue is now empty, every pending key flushes at
   once (empty-queue flush) — a lone request goes straight to a shard,
   and coalescing happens only over a real backlog;
3. a key whose oldest request has waited ``max_delay_s`` flushes even
   while a backlog of other keys keeps the queue busy (starvation
   bound).

Between requests the batcher blocks in :meth:`AdmissionQueue.get`: with
nothing pending until a request arrives (or :meth:`MicroBatcher.stop`
wakes it), with keys pending until the oldest key's ``max_delay_s``
deadline.  There is no polling interval.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

import numpy as np

from repro.huffman.cache import histogram_digest
from repro.obs import metrics as _metrics
from repro.serve.queue import AdmissionQueue, ServeRequest

__all__ = [
    "BatchPolicy",
    "Batch",
    "MicroBatcher",
    "batch_key",
    "MAX_ALPHABET",
]

#: batch-size histogram buckets (1..max sensible micro-batch)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: hard ceiling on the alphabet implied by a compress payload.  The
#: paper's quantization codes top out at 2**16 bins; 2**20 leaves
#: generous headroom while keeping the worst-case histogram allocation
#: at 8 MiB (int64) — a single hostile symbol value can no longer force
#: a multi-gigabyte ``np.bincount`` on the batcher thread.
MAX_ALPHABET = 1 << 20


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the micro-batcher (see docs/ARCHITECTURE.md, Serving)."""

    max_batch: int = 16
    #: starvation bound: the longest a key's oldest request may wait
    #: while a backlog of other keys keeps the queue from emptying.
    #: ``0`` is allowed but intentional-use-only: it flushes after every
    #: request, i.e. it disables coalescing entirely.
    max_delay_s: float = 0.005

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError(
                "max_delay_s must be >= 0 (0 flushes after every "
                "request, disabling coalescing)"
            )


@dataclass
class Batch:
    """A flushed group of same-key requests, ready for one shard."""

    key: Hashable
    requests: list[ServeRequest]
    created_at: float = field(default_factory=time.monotonic)

    def __len__(self) -> int:
        return len(self.requests)


def _byte_view(payload) -> memoryview:
    """A flat byte view of ``payload``; copies (as ``bytes(payload)``)
    only when it has no C-contiguous buffer."""
    try:
        view = memoryview(payload)
        if view.c_contiguous:
            return view if view.format == "B" and view.ndim == 1 \
                else view.cast("B")
    except (TypeError, ValueError):
        pass
    return memoryview(bytes(payload))


def _peek_codebook_digest(buf) -> Optional[str]:
    """Codebook digest + magnitude of a serialized container, or ``None``.

    Reads just enough of the header(s) to hash the canonical length
    vector — the same bytes :func:`repro.huffman.cache.codebook_digest`
    ultimately keys on (canonical codes are a pure function of their
    lengths).  ``buf`` is any bytes-like object; slicing a
    ``memoryview`` keeps the peek copy-free.  Returns ``None`` on
    anything unparseable; the request then forms its own singleton
    batch and the real error surfaces in the worker with a proper
    exception.
    """
    try:
        if buf[:4] == b"RPRS":  # app symbol container: skip its header
            buf = buf[13:]
        if buf[:4] == b"RPRH":
            magnitude = buf[5]
            (alphabet,) = struct.unpack("<I", buf[40:44])
            lengths = buf[44: 44 + alphabet]
        elif buf[:4] == b"RPRA":
            magnitude = buf[5]
            (alphabet,) = struct.unpack("<I", buf[39:43])
            lengths = buf[43: 43 + alphabet]
        else:
            return None
        if len(lengths) != alphabet:
            return None
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<I", alphabet))
        h.update(lengths)
        return f"{h.hexdigest()}:{magnitude}"
    except (IndexError, struct.error, ValueError):
        return None


def _checked_num_symbols(
    data: np.ndarray, declared: Optional[int], max_alphabet: int
) -> int:
    """Validate a compress payload and return its alphabet size.

    Runs *before* any histogramming, on every request, so adversarial
    payloads are rejected with :class:`ValueError` (a per-request user
    error) instead of raising arbitrary exceptions — or forcing
    arbitrarily large allocations — on the single batcher thread:

    - dtype must be integer (``np.bincount`` raises on floats);
    - symbols must be non-negative (``bincount`` raises on negatives);
    - the implied alphabet (``max+1``, or the declared ``num_symbols``)
      is capped at ``max_alphabet`` so one huge symbol value (e.g. a
      single ``uint64`` near 2**64, well under any byte-size limit)
      cannot demand a multi-gigabyte histogram or overflow ``int64``.
    """
    if declared is not None:
        declared = int(declared)
        if not 1 <= declared <= max_alphabet:
            raise ValueError(
                f"num_symbols {declared} outside [1, {max_alphabet}]"
            )
    if data.dtype.kind not in "iu":
        raise ValueError(
            f"compress payload must be an integer array, got {data.dtype}"
        )
    if data.size == 0:
        return declared if declared is not None else 1
    lo, hi = int(data.min()), int(data.max())
    if lo < 0:
        raise ValueError(
            f"compress payload contains negative symbol {lo}"
        )
    bound = declared if declared is not None else max_alphabet
    if hi >= bound:
        raise ValueError(
            f"symbol value {hi} exceeds alphabet bound {bound}"
        )
    return declared if declared is not None else hi + 1


def batch_key(req: ServeRequest) -> Hashable:
    """The coalescing key: same key ⇒ same codebook ⇒ shared build.

    Side effect for compress requests: the payload is validated and the
    histogram is computed here (once), stored in ``req.meta`` for the
    worker.  Decompress requests get the peeked header digest (or
    ``None``) as ``req.meta["codebook_digest"]``.  Invalid payloads
    raise :class:`ValueError`; the batcher maps that onto the request's
    future (never onto its own thread).
    """
    if req.op == "compress":
        data = np.asarray(req.payload)
        codebook_id = req.meta.get("codebook_id")
        if codebook_id is not None:
            # registry fast path: no histogram, no header peek — the
            # key is the registered content digest itself, so every
            # request referencing the same book coalesces regardless of
            # its empirical symbol distribution.  An unknown id or a
            # non-integer payload raises ValueError *here*, landing on
            # this request's own future as a 400-class user error; the
            # symbols are checked on the shard, by the encode's own
            # count, whose ValueError is that request's alone too.
            from repro.codebooks.registry import process_registry

            entry = process_registry().get(str(codebook_id))
            if entry is None:
                raise ValueError(
                    f"unknown codebook_id {str(codebook_id)!r}"
                )
            if data.size and data.dtype.kind not in "iu":
                raise ValueError(
                    "compress payload must be an integer array, "
                    f"got {data.dtype}"
                )
            req.meta["codebook_id"] = entry.codebook_id
            req.meta["registry_entry"] = entry
            req.meta["registry_hit"] = True
            return ("c", "cb", entry.codebook_id, req.meta.get("magnitude"))
        num_symbols = _checked_num_symbols(
            data, req.meta.get("num_symbols"), MAX_ALPHABET
        )
        req.meta["num_symbols"] = num_symbols
        if "histogram" not in req.meta:
            req.meta["histogram"] = np.bincount(
                data.reshape(-1).astype(np.int64), minlength=num_symbols
            )
        digest = histogram_digest(req.meta["histogram"])
        return ("c", digest, req.meta.get("magnitude"))
    if req.op == "decompress":
        # the worker's registry lookup reuses this peek (``meta``)
        digest = _peek_codebook_digest(_byte_view(req.payload))
        req.meta["codebook_digest"] = digest
        if digest is None:
            return ("d", "opaque", req.req_id)  # singleton batch
        return ("d", digest)
    return (req.op, req.req_id)


class MicroBatcher:
    """Single consumer thread: admission queue → keyed batches → sink.

    The sink is typically :meth:`repro.serve.workers.ShardPool.dispatch`.
    ``drain()`` waits until both the queue and the pending buckets are
    empty — used by graceful shutdown so no admitted request is lost.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        sink: Callable[[Batch], None],
        policy: BatchPolicy = BatchPolicy(),
        key_fn: Callable[[ServeRequest], Hashable] = batch_key,
    ):
        self.queue = queue
        self.sink = sink
        self.policy = policy
        self.key_fn = key_fn
        self._pending: dict[Hashable, list[ServeRequest]] = {}
        self._oldest: dict[Hashable, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread: Optional[threading.Thread] = None
        self.batches_flushed = 0
        self.requests_batched = 0

    # ---------------------------------------------------------- lifecycle --
    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self.queue.wake()  # the loop may be blocked on an empty queue
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until queue + pending buckets are empty (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.queue.depth() == 0 and self._idle.wait(0.01):
                with self._lock:
                    if not self._pending and self.queue.depth() == 0:
                        return True
            time.sleep(0.002)
        return False

    # --------------------------------------------------------------- loop --
    def _run(self) -> None:
        while not self._stop.is_set():
            req = self.queue.get(timeout=self._wait_s())
            if req is not None:
                self._idle.clear()
                self._add(req, time.monotonic())
            self._flush_due(time.monotonic(), drain=self.queue.depth() == 0)
            with self._lock:
                if not self._pending:
                    self._idle.set()
            if req is None and self.queue.closed:
                break  # closed and drained: nothing more can arrive
        # shutdown: flush whatever is left so nothing is dropped
        self._flush_due(time.monotonic(), drain=True)
        with self._lock:
            if not self._pending:
                self._idle.set()

    def _wait_s(self) -> Optional[float]:
        """How long ``get`` may block: until the oldest pending key's
        starvation deadline, or indefinitely when nothing is pending."""
        with self._lock:
            if not self._oldest:
                return None
            oldest = min(self._oldest.values())
        return max(0.0, oldest + self.policy.max_delay_s - time.monotonic())

    def _add(self, req: ServeRequest, now: float) -> None:
        try:
            key = self.key_fn(req)
        except Exception as exc:  # noqa: BLE001 - batcher-thread containment
            # A poison request must cost only itself: complete its future
            # exceptionally (as a user error, so the HTTP front answers
            # 400, not 500) and keep consuming the queue.  An exception
            # escaping here would kill the single batcher thread and hang
            # every subsequent request — a one-request denial of service.
            _metrics().counter(
                "repro_serve_errors_total", op=req.op
            ).inc()
            if not req.future.done():
                if isinstance(exc, (ValueError, TypeError, KeyError)):
                    req.future.set_exception(exc)
                else:
                    wrapped = ValueError(f"invalid {req.op} request: {exc}")
                    wrapped.__cause__ = exc
                    req.future.set_exception(wrapped)
            return
        with self._lock:
            bucket = self._pending.setdefault(key, [])
            if not bucket:
                self._oldest[key] = now
            bucket.append(req)
            full = len(bucket) >= self.policy.max_batch
        if full:
            self._flush_key(key)

    def _flush_due(self, now: float, drain: bool) -> None:
        with self._lock:
            due = [
                k
                for k, t0 in self._oldest.items()
                if drain
                or now - t0 >= self.policy.max_delay_s
                or len(self._pending[k]) >= self.policy.max_batch
            ]
        for key in due:
            self._flush_key(key)

    def _flush_key(self, key: Hashable) -> None:
        with self._lock:
            reqs = self._pending.pop(key, None)
            self._oldest.pop(key, None)
        if not reqs:
            return
        live = []
        now = time.monotonic()
        for r in reqs:
            if r.expired(now):
                r.shed("deadline")
            else:
                r.flushed_at = now
                live.append(r)
        if not live:
            return
        self.batches_flushed += 1
        self.requests_batched += len(live)
        _metrics().histogram(
            "repro_serve_batch_size", buckets=_BATCH_BUCKETS
        ).observe(len(live))
        self.sink(Batch(key=key, requests=live))

    # -------------------------------------------------------------- stats --
    @property
    def mean_batch_size(self) -> float:
        if not self.batches_flushed:
            return 0.0
        return self.requests_batched / self.batches_flushed
