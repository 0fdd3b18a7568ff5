"""In-process codebook registry: content-digest keyed, LRU, persistent.

The registry is the serve layer's source of truth for pre-registered
canonical codebooks.  Each entry is keyed by
:func:`repro.huffman.cache.codebook_digest` (the ``codebook_id`` a
client references), carries an optional human-readable name alias, and
is *warmed* at registration time: the scan-pack packed codeword/pair
tables and the decoder's k-bit LUT are built once so the first hot
request pays nothing but the fused encode stage.

A second index keys entries by the digest of their **serialized length
vector** — exactly the bytes :func:`repro.serve.batcher
._peek_codebook_digest` hashes out of a container header — so the
decode side can resolve an incoming container to a registered book
without parsing (or rebuilding) its codebook section.

Layering: the registry holds :class:`RegisteredCodebook` entries in its
own LRU (evictions keep the on-disk copy; an evicted id transparently
reloads from the store on the next ``get``), while the per-book decode
tables stay in the process-wide digest caches of
:mod:`repro.huffman.cache` — the registry warms those caches, it does
not duplicate them.

Metrics: ``repro_codebook_registry_hits_total`` /
``..._misses_total`` (labelled ``op="get"`` for id lookups and
``op="peek"`` for decode-side header resolution) and
``repro_codebook_registry_evictions_total``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.codebooks.store import CodebookStore
from repro.core.scan_pack import packed_codeword_table
from repro.core.serialization import serialize_codebook
from repro.huffman.cache import cached_decode_table, codebook_digest
from repro.huffman.codebook import CanonicalCodebook
from repro.obs import metrics as _metrics
from repro.obs.trace import add_attrs as _add_attrs

__all__ = [
    "RegisteredCodebook",
    "CodebookRegistry",
    "lengths_digest",
    "process_registry",
    "set_process_registry",
]

#: env var naming a store directory for the process-wide registry
ENV_STORE_DIR = "REPRO_CODEBOOK_DIR"


def lengths_digest(book: CanonicalCodebook) -> str:
    """Digest of the serialized length vector (container-header bytes).

    This is the hex half of the key :func:`repro.serve.batcher
    ._peek_codebook_digest` computes from a container header, so a
    registered book can be matched against incoming containers with a
    header peek only.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(serialize_codebook(book))
    return h.hexdigest()


@dataclass
class RegisteredCodebook:
    """One registry entry: the book plus its warmed derived tables."""

    codebook_id: str
    book: CanonicalCodebook
    lengths_digest: str
    name: Optional[str] = None
    source: str = "corpus"
    created: float = field(default_factory=time.time)

    @property
    def n_symbols(self) -> int:
        return self.book.n_symbols

    @property
    def n_used(self) -> int:
        return self.book.n_used

    @property
    def max_length(self) -> int:
        return self.book.max_length

    def decode_table(self):
        """The k-bit LUT (process decode-table cache; warmed)."""
        return cached_decode_table(self.book)

    def warm(self) -> None:
        """Pre-build every derived table a hot request would touch.

        Encode side: the packed codeword table the compiled scan-pack
        and length-sum passes gather through.  Decode side: the k-bit
        LUT.  Both land in their digest caches, so warming is idempotent
        and survives registry handoff.
        """
        packed_codeword_table(self.book)
        cached_decode_table(self.book)

    def describe(self) -> dict:
        """JSON-safe summary for ``/codebooks`` and the CLI."""
        lens = self.book.lengths[self.book.lengths > 0]
        return {
            "codebook_id": self.codebook_id,
            "name": self.name,
            "n_symbols": self.n_symbols,
            "n_used": self.n_used,
            "max_length": self.max_length,
            "min_length": int(lens.min()) if lens.size else 0,
            "first": [int(x) for x in self.book.first],
            "entry": [int(x) for x in self.book.entry],
            "lengths_digest": self.lengths_digest,
            "source": self.source,
            "created": self.created,
        }


class CodebookRegistry:
    """Thread-safe LRU of :class:`RegisteredCodebook`, optionally persistent.

    ``root`` names a :class:`repro.codebooks.store.CodebookStore`
    directory; when given, registrations persist and LRU-evicted ids
    reload transparently on the next lookup.  Explicit :meth:`evict`
    removes the on-disk copy too.
    """

    def __init__(self, maxsize: int = 64, root: str | Path | None = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._lock = threading.RLock()
        from collections import OrderedDict

        self._entries: "OrderedDict[str, RegisteredCodebook]" = OrderedDict()
        self._by_name: dict[str, str] = {}
        self._by_lengths: dict[str, str] = {}
        self.evictions = 0
        self.store = CodebookStore(root) if root is not None else None
        if self.store is not None:
            self._adopt_store()

    # ----------------------------------------------------------- metrics
    def _count(self, hit: bool, op: str) -> None:
        kind = ("repro_codebook_registry_hits_total" if hit
                else "repro_codebook_registry_misses_total")
        _metrics().counter(kind, op=op).inc()
        # stamp the enclosing span (flight-recorder path extraction)
        _add_attrs(codebook_registry="hit" if hit else "miss")

    # ------------------------------------------------------------- store
    def _adopt_store(self) -> None:
        """Index persisted books (lazily loaded) at startup."""
        for cb_id, meta in self.store.manifest()["books"].items():
            name = meta.get("name")
            if isinstance(name, str) and name:
                self._by_name.setdefault(name, cb_id)
            # lengths digest is recomputed on first load; until then the
            # id itself is resolvable and decode peeks simply miss

    def _insert(self, entry: RegisteredCodebook) -> None:
        self._entries[entry.codebook_id] = entry
        self._entries.move_to_end(entry.codebook_id)
        if entry.name:
            self._by_name[entry.name] = entry.codebook_id
        self._by_lengths[entry.lengths_digest] = entry.codebook_id
        while len(self._entries) > self.maxsize:
            old_id, old = self._entries.popitem(last=False)
            # keep name/lengths indexes: a persisted book reloads on the
            # next get(); a memory-only book is gone, so unindex it
            if self.store is None or old_id not in self.store:
                self._by_lengths.pop(old.lengths_digest, None)
                if old.name:
                    self._by_name.pop(old.name, None)
            self.evictions += 1
            _metrics().counter(
                "repro_codebook_registry_evictions_total"
            ).inc()

    # -------------------------------------------------------------- CRUD
    def register(
        self,
        book: CanonicalCodebook,
        name: Optional[str] = None,
        source: str = "corpus",
        persist: bool = True,
    ) -> RegisteredCodebook:
        """Register a canonical codebook; idempotent on content digest."""
        cb_id = codebook_digest(book)
        with self._lock:
            entry = self._entries.get(cb_id)
            if entry is not None:
                if name and not entry.name:
                    entry.name = name
                    self._by_name[name] = cb_id
                self._entries.move_to_end(cb_id)
                return entry
            entry = RegisteredCodebook(
                codebook_id=cb_id,
                book=book,
                lengths_digest=lengths_digest(book),
                name=name,
                source=source,
            )
            entry.warm()
            self._insert(entry)
            if persist and self.store is not None:
                self.store.save(book, cb_id, name=name, created=entry.created)
        return entry

    def get(self, ref: str) -> Optional[RegisteredCodebook]:
        """Resolve a ``codebook_id`` (or name alias) to an entry.

        Counts a registry hit/miss (``op="get"``).  An id that was
        LRU-evicted from memory but persists in the store reloads
        transparently and still counts as a hit.
        """
        with self._lock:
            cb_id = self._by_name.get(ref, ref)
            entry = self._entries.get(cb_id)
            if entry is not None:
                self._entries.move_to_end(cb_id)
                self._count(True, "get")
                return entry
            if self.store is not None and cb_id in self.store:
                try:
                    book, meta = self.store.load(cb_id)
                except ValueError:
                    self._count(False, "get")
                    return None
                entry = RegisteredCodebook(
                    codebook_id=cb_id,
                    book=book,
                    lengths_digest=lengths_digest(book),
                    name=meta.get("name"),
                    source="store",
                    created=float(meta.get("created", 0.0)),
                )
                entry.warm()
                self._insert(entry)
                self._count(True, "get")
                return entry
        self._count(False, "get")
        return None

    def resolve_lengths_digest(
        self, digest_hex: str
    ) -> Optional[RegisteredCodebook]:
        """Decode-side lookup by container-header lengths digest.

        Counts ``op="peek"`` hits/misses; a miss is normal for
        unregistered traffic (the cold decode path handles it).
        """
        with self._lock:
            cb_id = self._by_lengths.get(digest_hex)
        if cb_id is None:
            self._count(False, "peek")
            return None
        entry = self.get(cb_id)  # counts op="get" for the inner resolve
        self._count(entry is not None, "peek")
        return entry

    def evict(self, ref: str) -> bool:
        """Explicitly drop an entry (memory **and** store)."""
        with self._lock:
            cb_id = self._by_name.get(ref, ref)
            entry = self._entries.pop(cb_id, None)
            removed = entry is not None
            if entry is not None:
                self._by_lengths.pop(entry.lengths_digest, None)
                if entry.name:
                    self._by_name.pop(entry.name, None)
            else:
                # evicting a persisted-but-not-loaded id still works
                self._by_name.pop(ref, None)
            if self.store is not None:
                removed = self.store.remove(cb_id) or removed
        return removed

    def entries(self) -> list[RegisteredCodebook]:
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_name.clear()
            self._by_lengths.clear()

    def info(self) -> dict:
        """``/stats`` feed: occupancy + counter snapshot."""
        reg = _metrics()
        with self._lock:
            size = len(self._entries)
            persisted = len(self.store) if self.store is not None else 0
        return {
            "size": size,
            "maxsize": self.maxsize,
            "persisted": persisted,
            "evictions": self.evictions,
            "hits": int(reg.total("repro_codebook_registry_hits_total")),
            "misses": int(reg.total("repro_codebook_registry_misses_total")),
        }


# ------------------------------------------------------------- process-wide
_PROCESS: Optional[CodebookRegistry] = None
_PROCESS_LOCK = threading.Lock()


def process_registry() -> CodebookRegistry:
    """The process-wide registry the serve layer consults.

    Memory-only by default; set ``REPRO_CODEBOOK_DIR`` to back it with
    an on-disk store.
    """
    global _PROCESS
    with _PROCESS_LOCK:
        if _PROCESS is None:
            root = os.environ.get(ENV_STORE_DIR) or None
            _PROCESS = CodebookRegistry(root=root)
        return _PROCESS


def set_process_registry(
    registry: Optional[CodebookRegistry],
) -> Optional[CodebookRegistry]:
    """Swap the process-wide registry (tests/smoke); returns the old one."""
    global _PROCESS
    with _PROCESS_LOCK:
        old, _PROCESS = _PROCESS, registry
        return old
