"""Digest-keyed caches for codebooks and decode tables.

Repeated compress/decompress calls over same-distribution data — the
cuSZ timestep use case served by :mod:`repro.core.streaming` — rebuild
two artifacts that are pure functions of their inputs:

- the canonical codebook (a function of the histogram), and
- the decoder's k-bit acceleration table (a function of the codebook).

Both are memoized here behind content digests (BLAKE2b over the defining
arrays), so a cache hit is independent of object identity: a codebook
deserialized from a segment container hits the same table entry as the
one the encoder built.  Caches are LRU-bounded, thread-safe, and expose
hit/miss counters so tests can assert that the cache actually works.

The decode-table cache additionally accounts **bytes**: every cached
table reports its real footprint (O(alphabet + 2^k) for a 2^k root,
plus its multi-symbol plane: 72 KiB for a uint16 book), the total is
capped per process
(``REPRO_TABLE_CACHE_BYTES``, default 64 MiB), eviction runs by bytes
as well as entry count, and the live total is exported as the
``repro_decode_table_bytes`` gauge.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.huffman.codebook import CanonicalCodebook
from repro.huffman.decoder import DecodeTable, _root_bits, build_decode_table
from repro.obs import metrics as _metrics
from repro.obs.trace import add_attrs as _add_attrs

__all__ = [
    "CacheInfo",
    "codebook_digest",
    "histogram_digest",
    "DecodeTableCache",
    "cached_decode_table",
    "decode_table_cache",
    "CodebookCache",
    "cached_codebook",
    "codebook_cache",
    "cache_infos",
]

#: per-process decode-table memory cap (bytes); override with the
#: REPRO_TABLE_CACHE_BYTES environment variable
_DEFAULT_TABLE_CACHE_BYTES = 64 << 20


def _table_cache_bytes() -> int:
    raw = os.environ.get("REPRO_TABLE_CACHE_BYTES", "")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    return v if v > 0 else _DEFAULT_TABLE_CACHE_BYTES


@dataclass(frozen=True)
class CacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int
    #: total bytes of cached values (0 for caches that don't track size)
    bytes: int = 0
    #: byte cap (0 = unbounded)
    max_bytes: int = 0
    #: per-entry byte sizes, newest last (empty when untracked)
    entry_bytes: tuple = ()


def codebook_digest(book: CanonicalCodebook) -> str:
    """Content digest of a codebook's defining arrays.

    A canonical code is fully determined by its length vector, but the
    codes are hashed too so that a (buggy or foreign) non-canonical
    assignment can never alias a canonical one.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(book.n_symbols).tobytes())
    h.update(np.ascontiguousarray(book.lengths, dtype=np.int32).tobytes())
    h.update(np.ascontiguousarray(book.codes, dtype=np.uint64).tobytes())
    return h.hexdigest()


def histogram_digest(hist: np.ndarray) -> str:
    """Content digest of a symbol histogram."""
    hist = np.ascontiguousarray(hist, dtype=np.int64)
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(hist.size).tobytes())
    h.update(hist.tobytes())
    return h.hexdigest()


class _LruCache:
    """Minimal thread-safe LRU with hit/miss counters.

    Every hit/miss is mirrored into the process-global metrics registry
    (``repro_cache_hits_total`` / ``repro_cache_misses_total``, labelled
    by cache ``name``), so a traced run's metrics dump shows the cache
    effectiveness next to the stage spans.

    With ``sizeof`` set the cache also tracks value bytes and evicts
    down to ``max_bytes`` (a soft cap: a single entry larger than the
    whole budget stays resident, since evicting it would just force a
    rebuild on the very next call).  ``bytes_gauge`` names a metrics
    gauge kept equal to the live byte total.
    """

    def __init__(
        self,
        maxsize: int,
        name: str = "lru",
        max_bytes: int = 0,
        sizeof: Callable | None = None,
        bytes_gauge: str | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.name = name
        self.max_bytes = int(max_bytes)
        self._sizeof = sizeof
        self._bytes_gauge = bytes_gauge
        self._data: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self.bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _count(self, hit: bool) -> None:
        kind = "repro_cache_hits_total" if hit else "repro_cache_misses_total"
        _metrics().counter(kind, cache=self.name).inc()
        # stamp the enclosing stage span so a request's trace shows which
        # caches it hit (surfaced as RequestRecord.paths in the flight
        # recorder); a no-op when tracing is off
        _add_attrs(**{f"{self.name}_cache": "hit" if hit else "miss"})

    def _set_gauge(self) -> None:
        if self._bytes_gauge is not None:
            _metrics().gauge(self._bytes_gauge).set(self.bytes)

    def _insert_locked(self, key, value) -> None:
        self._data[key] = value
        if self._sizeof is not None:
            size = int(self._sizeof(value))
            self._sizes[key] = size
            self.bytes += size
        while len(self._data) > self.maxsize or (
            self.max_bytes
            and self.bytes > self.max_bytes
            and len(self._data) > 1
        ):
            old_key, _old = self._data.popitem(last=False)
            self.bytes -= self._sizes.pop(old_key, 0)
        self._set_gauge()

    def get_or_build(self, key, build: Callable):
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                value = self._data[key]
                hit = True
            else:
                hit = False
        if hit:
            self._count(True)
            return value
        value = build()  # build outside the lock: may be expensive
        with self._lock:
            if key not in self._data:
                self.misses += 1
                hit = False
                self._insert_locked(key, value)
            else:
                # another thread raced us; keep the cached instance
                self.hits += 1
                hit = True
            self._data.move_to_end(key)
            value = self._data[key]
        self._count(hit)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.bytes = 0
            self.hits = 0
            self.misses = 0
            self._set_gauge()

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self.hits, self.misses, len(self._data), self.maxsize,
                bytes=self.bytes, max_bytes=self.max_bytes,
                entry_bytes=tuple(
                    self._sizes[k] for k in self._data if k in self._sizes
                ),
            )


class DecodeTableCache(_LruCache):
    """Byte-capped LRU of decode tables keyed by ``(digest, root bits)``.

    ``k=None`` takes the builder's root-width rule, so every
    ``cached_decode_table`` caller (decode_stream, the chunk pool,
    streaming, the serve shards) shares one table per book.
    """

    def __init__(self, maxsize: int = 64, max_bytes: int | None = None) -> None:
        super().__init__(
            maxsize,
            name="decode_table",
            max_bytes=_table_cache_bytes() if max_bytes is None else max_bytes,
            sizeof=lambda t: t.nbytes(),
            bytes_gauge="repro_decode_table_bytes",
        )

    def get(
        self, book: CanonicalCodebook, k: int | None = None
    ) -> DecodeTable:
        k = _root_bits(book, k)
        return self.get_or_build(
            (codebook_digest(book), k), lambda: build_decode_table(book, k)
        )


class CodebookCache(_LruCache):
    """LRU of :class:`CanonicalCodebook` keyed by the histogram digest.

    The builder is injected by the caller (the parallel construction
    lives above this layer), so this module stays at the bottom of the
    import DAG.  The codebook is a deterministic function of the
    histogram alone, which is exactly what the digest captures.
    """

    def __init__(self, maxsize: int = 16) -> None:
        super().__init__(maxsize, name="codebook")

    def get(
        self, hist: np.ndarray, build: Callable[[], CanonicalCodebook]
    ) -> CanonicalCodebook:
        return self.get_or_build(histogram_digest(hist), build)


#: process-wide default caches
_TABLE_CACHE = DecodeTableCache()
_CODEBOOK_CACHE = CodebookCache()


def decode_table_cache() -> DecodeTableCache:
    """The process-wide decode-table cache (for introspection/clearing)."""
    return _TABLE_CACHE


def codebook_cache() -> CodebookCache:
    """The process-wide codebook cache (for introspection/clearing)."""
    return _CODEBOOK_CACHE


def cached_decode_table(
    book: CanonicalCodebook, k: int | None = None
) -> DecodeTable:
    """Memoized :func:`~repro.huffman.decoder.build_decode_table`."""
    return _TABLE_CACHE.get(book, k)


def cached_codebook(
    hist: np.ndarray, build: Callable[[], CanonicalCodebook]
) -> CanonicalCodebook:
    """Memoized codebook construction keyed by the histogram digest."""
    return _CODEBOOK_CACHE.get(hist, build)


def cache_infos() -> dict[str, CacheInfo]:
    """Hit/miss snapshot of both process-wide caches (``/stats`` feed)."""
    return {
        "codebook": _CODEBOOK_CACHE.info(),
        "decode_table": _TABLE_CACHE.info(),
    }
