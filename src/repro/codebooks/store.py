"""On-disk codebook store: versioned JSON manifest + binary book files.

The store is a directory::

    <root>/manifest.json          {"version": 1, "books": {id: {...}}}
    <root>/<codebook_id>.rcb      RPCB | version | <I alphabet> | lengths u8

A canonical codebook is fully determined by its length vector, so the
book file persists exactly the bytes of
:func:`repro.core.serialization.serialize_codebook` behind a small
magic/version header; loading rebuilds the code assignment with
:func:`repro.huffman.codebook.canonical_codes` and then verifies
that the rebuilt book's content digest matches the id it was filed
under — a flipped length byte cannot silently alias another book.

Error contract: every load path raises **only** ``ValueError`` on
corrupt, truncated, or mistyped input, matching the
:func:`repro.core.serialization.container_guard` contract for network
containers (the tests in ``tests/test_codebooks_registry.py`` fuzz
this).
"""

from __future__ import annotations

import json
import os
import struct
import time
from pathlib import Path

from repro.core.serialization import container_guard, serialize_codebook
from repro.huffman.cache import codebook_digest
from repro.huffman.codebook import CanonicalCodebook, canonical_codes

__all__ = ["CodebookStore", "BOOK_MAGIC", "STORE_VERSION", "MANIFEST_NAME"]

BOOK_MAGIC = b"RPCB"
STORE_VERSION = 1
MANIFEST_NAME = "manifest.json"


def _book_bytes(book: CanonicalCodebook) -> bytes:
    return BOOK_MAGIC + struct.pack("<B", STORE_VERSION) + serialize_codebook(book)


@container_guard
def _parse_book(buf: bytes, expect_id: str) -> CanonicalCodebook:
    """Parse one ``.rcb`` blob; raises only ValueError (guarded)."""
    if len(buf) < 10:
        raise ValueError("truncated codebook file")
    if buf[:4] != BOOK_MAGIC:
        raise ValueError(f"bad codebook magic {buf[:4]!r}")
    (version,) = struct.unpack_from("<B", buf, 4)
    if version != STORE_VERSION:
        raise ValueError(f"unsupported codebook store version {version}")
    (alphabet,) = struct.unpack_from("<I", buf, 5)
    lengths = buf[9:9 + alphabet]
    if len(lengths) != alphabet or len(buf) != 9 + alphabet:
        raise ValueError("truncated codebook file")
    import numpy as np

    book = canonical_codes(np.frombuffer(lengths, dtype=np.uint8))
    got = codebook_digest(book)
    if got != expect_id:
        raise ValueError(
            f"codebook digest mismatch: file {expect_id} holds {got}"
        )
    return book


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class CodebookStore:
    """Directory-backed persistence for registered codebooks.

    Not thread-safe on its own; :class:`repro.codebooks.registry
    .CodebookRegistry` serializes access under its lock.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / MANIFEST_NAME

    # ----------------------------------------------------------- manifest
    @container_guard
    def manifest(self) -> dict:
        """Load and validate the manifest; ``{}``-shaped when absent.

        Raises only ValueError on corruption (``json.JSONDecodeError``
        is a ValueError; structural surprises are converted by the
        guard).
        """
        if not self._manifest_path.exists():
            return {"version": STORE_VERSION, "books": {}}
        doc = json.loads(self._manifest_path.read_text())
        if not isinstance(doc, dict):
            raise ValueError("manifest is not a JSON object")
        if doc.get("version") != STORE_VERSION:
            raise ValueError(
                f"unsupported manifest version {doc.get('version')!r}"
            )
        books = doc.get("books")
        if not isinstance(books, dict):
            raise ValueError("manifest has no 'books' object")
        for cb_id, meta in books.items():
            if not isinstance(meta, dict):
                raise ValueError(f"manifest entry {cb_id!r} is not an object")
        return doc

    def _write_manifest(self, doc: dict) -> None:
        doc = {"version": STORE_VERSION, "updated": time.time(),
               "books": doc.get("books", {})}
        _atomic_write(
            self._manifest_path, json.dumps(doc, indent=1).encode()
        )

    # -------------------------------------------------------------- CRUD
    def ids(self) -> list[str]:
        return sorted(self.manifest()["books"])

    def __contains__(self, codebook_id: str) -> bool:
        return codebook_id in self.manifest()["books"]

    def __len__(self) -> int:
        return len(self.manifest()["books"])

    def save(
        self,
        book: CanonicalCodebook,
        codebook_id: str,
        name: str | None = None,
        created: float | None = None,
    ) -> None:
        """Persist one book and record it in the manifest (atomic)."""
        _atomic_write(self.root / f"{codebook_id}.rcb", _book_bytes(book))
        doc = self.manifest()
        doc["books"][codebook_id] = {
            "name": name,
            "file": f"{codebook_id}.rcb",
            "n_symbols": book.n_symbols,
            "n_used": book.n_used,
            "max_length": book.max_length,
            "created": created if created is not None else time.time(),
        }
        self._write_manifest(doc)

    def load(self, codebook_id: str) -> tuple[CanonicalCodebook, dict]:
        """Load one book; raises ValueError when unknown or corrupt."""
        doc = self.manifest()
        meta = doc["books"].get(codebook_id)
        if meta is None:
            raise ValueError(f"unknown codebook {codebook_id!r}")
        path = self.root / str(meta.get("file", f"{codebook_id}.rcb"))
        if not path.exists():
            raise ValueError(f"codebook file missing for {codebook_id!r}")
        book = _parse_book(path.read_bytes(), codebook_id)
        return book, dict(meta)

    def remove(self, codebook_id: str) -> bool:
        """Drop a book from manifest + disk; True when it existed."""
        doc = self.manifest()
        meta = doc["books"].pop(codebook_id, None)
        if meta is None:
            return False
        self._write_manifest(doc)
        path = self.root / str(meta.get("file", f"{codebook_id}.rcb"))
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        return True
