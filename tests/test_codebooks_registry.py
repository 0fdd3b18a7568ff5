"""Codebook registry + store: persistence round trips and corruption.

Pins the two contracts of :mod:`repro.codebooks`:

1. **Persistence is lossless** (hypothesis property): for any histogram,
   register → new registry over the same directory → ``get(id)`` yields
   a book whose content digest, First/Entry arrays, code assignment and
   freshly built k-bit LUT are identical to the original's.
2. **Corruption is a ValueError, only ever a ValueError**: a chopped or
   bit-flipped ``.rcb`` file, a digest mismatch, a mangled manifest
   (invalid JSON, wrong version, wrong shapes) must all surface as
   ``ValueError`` from the load paths — matching the
   ``container_guard`` contract — and never as struct/KeyError/etc.
   escaping into the serve layer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codebooks.registry import CodebookRegistry, lengths_digest
from repro.codebooks.store import (
    BOOK_MAGIC,
    MANIFEST_NAME,
    STORE_VERSION,
    CodebookStore,
)
from repro.core.codebook_parallel import parallel_codebook
from repro.huffman.cache import codebook_digest
from repro.huffman.decoder import build_decode_table
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _fresh_metrics():
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def _book(hist):
    return parallel_codebook(np.asarray(hist, dtype=np.int64)).codebook


# --------------------------------------------------------------------------
# 1: the persistence property
# --------------------------------------------------------------------------
registry_hist = st.one_of(
    st.lists(st.integers(0, 10**9), min_size=1, max_size=200),
    st.lists(st.sampled_from([0, 1, 1, 2, 3, 5, 8, 10**6]),
             min_size=1, max_size=200),
    st.integers(1, 128).map(lambda n: [1] * n),
    st.integers(2, 40).map(lambda k: [2**i for i in range(k)]),
)


class TestPersistenceProperty:
    @given(registry_hist)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_register_persist_reload_identical(self, tmp_path_factory, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        if not np.any(freqs > 0):
            return
        root = tmp_path_factory.mktemp("cbstore")
        book = _book(freqs)
        reg1 = CodebookRegistry(root=root)
        entry = reg1.register(book, name="prop")
        cb_id = entry.codebook_id

        # a brand-new registry over the same directory (fresh process)
        reg2 = CodebookRegistry(root=root)
        got = reg2.get(cb_id)
        assert got is not None
        # content digest: the id itself round-trips
        assert codebook_digest(got.book) == cb_id
        assert got.lengths_digest == lengths_digest(book)
        # First/Entry (the canonical decode scan tables)
        np.testing.assert_array_equal(got.book.first, book.first)
        np.testing.assert_array_equal(got.book.entry, book.entry)
        # full code assignment
        np.testing.assert_array_equal(got.book.lengths, book.lengths)
        np.testing.assert_array_equal(got.book.codes, book.codes)
        # the k-bit LUT, rebuilt from scratch on each side (bypassing the
        # digest cache so the comparison is real, not aliased)
        t0 = build_decode_table(book)
        t1 = build_decode_table(got.book)
        assert t0.k == t1.k
        np.testing.assert_array_equal(t0.root, t1.root)
        np.testing.assert_array_equal(t0.sub, t1.sub)
        # the name alias persisted through the manifest too
        assert reg2.get("prop") is not None

    def test_lru_eviction_reloads_from_store(self, tmp_path):
        reg = CodebookRegistry(maxsize=2, root=tmp_path)
        books = [_book([1] * n) for n in (3, 5, 9)]
        ids = [reg.register(b).codebook_id for b in books]
        assert reg.evictions == 1  # first book LRU-evicted from memory
        # ...but not from disk: it reloads transparently
        back = reg.get(ids[0])
        assert back is not None
        np.testing.assert_array_equal(back.book.lengths, books[0].lengths)

    def test_explicit_evict_removes_store_copy(self, tmp_path):
        reg = CodebookRegistry(root=tmp_path)
        cb_id = reg.register(_book([4, 3, 2, 1])).codebook_id
        assert reg.evict(cb_id)
        assert reg.get(cb_id) is None
        assert not (tmp_path / f"{cb_id}.rcb").exists()
        assert cb_id not in CodebookStore(tmp_path)


# --------------------------------------------------------------------------
# 2: corruption surfaces as ValueError, never anything else
# --------------------------------------------------------------------------
class TestCorruption:
    def _saved(self, tmp_path):
        store = CodebookStore(tmp_path)
        book = _book([10, 6, 3, 2, 1, 1])
        cb_id = codebook_digest(book)
        store.save(book, cb_id)
        return store, book, cb_id

    def test_unknown_id_value_error(self, tmp_path):
        store, _, _ = self._saved(tmp_path)
        with pytest.raises(ValueError, match="unknown"):
            store.load("0" * 32)

    def test_missing_file_value_error(self, tmp_path):
        store, _, cb_id = self._saved(tmp_path)
        (tmp_path / f"{cb_id}.rcb").unlink()
        with pytest.raises(ValueError, match="missing"):
            store.load(cb_id)

    @pytest.mark.parametrize("cut", [0, 3, 4, 5, 8])
    def test_truncated_book_value_error(self, tmp_path, cut):
        store, _, cb_id = self._saved(tmp_path)
        path = tmp_path / f"{cb_id}.rcb"
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError):
            store.load(cb_id)

    def test_every_single_byte_truncation_value_error(self, tmp_path):
        store, _, cb_id = self._saved(tmp_path)
        path = tmp_path / f"{cb_id}.rcb"
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                store.load(cb_id)

    def test_flipped_length_byte_value_error(self, tmp_path):
        # a flipped length byte breaks the Kraft equality of a complete
        # canonical code — rebuilding catches it as a ValueError
        store, _, cb_id = self._saved(tmp_path)
        path = tmp_path / f"{cb_id}.rcb"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # last length byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            store.load(cb_id)

    def test_swapped_book_is_digest_mismatch(self, tmp_path):
        # a *structurally valid* book filed under another book's id must
        # not silently alias it: the rebuilt digest is re-verified
        from repro.codebooks.store import _book_bytes

        store, _, cb_id = self._saved(tmp_path)
        other = _book([1, 1])
        (tmp_path / f"{cb_id}.rcb").write_bytes(_book_bytes(other))
        with pytest.raises(ValueError, match="digest mismatch"):
            store.load(cb_id)

    def test_bad_magic_and_version_value_error(self, tmp_path):
        store, _, cb_id = self._saved(tmp_path)
        path = tmp_path / f"{cb_id}.rcb"
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            store.load(cb_id)
        path.write_bytes(BOOK_MAGIC + bytes([STORE_VERSION + 1]) + blob[5:])
        with pytest.raises(ValueError, match="version"):
            store.load(cb_id)

    @pytest.mark.parametrize("text", [
        "{not json",                       # invalid JSON
        "[1, 2, 3]",                       # not an object
        '{"version": 99, "books": {}}',    # wrong version
        '{"version": 1}',                  # no books object
        '{"version": 1, "books": []}',     # books not a dict
        '{"version": 1, "books": {"x": 3}}',  # entry not an object
    ])
    def test_mangled_manifest_value_error(self, tmp_path, text):
        store, _, _ = self._saved(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text(text)
        with pytest.raises(ValueError):
            store.manifest()

    def test_registry_get_survives_corrupt_store(self, tmp_path):
        # the registry maps a corrupt on-disk book onto a miss (None),
        # never onto an exception reaching the batcher thread
        reg = CodebookRegistry(root=tmp_path)
        cb_id = reg.register(_book([8, 4, 2, 1])).codebook_id
        (tmp_path / f"{cb_id}.rcb").write_bytes(b"RPCB\x01garbage")
        fresh = CodebookRegistry(root=tmp_path)
        assert fresh.get(cb_id) is None


# --------------------------------------------------------------------------
# registry bookkeeping
# --------------------------------------------------------------------------
class TestRegistryIndexes:
    def test_register_is_idempotent_on_digest(self):
        reg = CodebookRegistry()
        book = _book([5, 3, 1])
        a = reg.register(book)
        b = reg.register(book, name="late-alias")
        assert a is b
        assert reg.get("late-alias") is a

    def test_resolve_lengths_digest_roundtrip(self):
        reg = CodebookRegistry()
        book = _book([7, 5, 3, 1, 1])
        entry = reg.register(book)
        assert reg.resolve_lengths_digest(entry.lengths_digest) is entry
        assert reg.resolve_lengths_digest("ff" * 16) is None

    def test_info_counts_hits_and_misses(self):
        reg = CodebookRegistry()
        entry = reg.register(_book([2, 1]))
        reg.get(entry.codebook_id)
        reg.get("nope")
        info = reg.info()
        assert info["size"] == 1
        assert info["hits"] >= 1
        assert info["misses"] >= 1
