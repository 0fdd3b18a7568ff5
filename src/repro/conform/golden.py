"""Golden bitstream + First/Entry vectors under ``tests/golden/``.

The conformance matrix proves the implementations agree with *each
other*; golden vectors prove they agree with *yesterday*.  Each vector
is a fully deterministic (seed-pinned) input whose artifacts are checked
into the repo:

- ``<name>.rprh`` — the serialized reduce-shuffle container, compared
  byte-for-byte on every check;
- ``<name>.gap.json`` — the gap-array side channel (per-subchunk sync
  points at a pinned subchunk width) computed by the exact reference
  walk over the container's lanes; the native gap kernel, where it
  runs, must reproduce it entry-for-entry (absent for books outside gap
  range);
- ``manifest.json`` — per vector: SHA-256 of the container, of the dense
  serial bitstream, and of the decoded symbols; the codebook digest; and
  the full First/Entry/symbols-by-code reverse-codebook tables.

A check failure means an intentional format change (regenerate with
``repro-conform --write-golden`` and review the diff) or a silent
regression (fix the code).  The manifest stores the reverse codebook
*explicitly* so a canonical-assignment bug shows up as a readable table
diff, not just a hash mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.conform.corpora import wbit_codebook
from repro.core.bitstream import decode_stream, stream_lanes
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.decoder.gap_array import (
    GapArray,
    gap_decode_lanes,
    gap_supported,
    reference_gap_array,
)
from repro.huffman.cache import cached_decode_table, codebook_digest
from repro.huffman.serial import serial_encode

__all__ = [
    "GOLDEN_VECTORS",
    "default_golden_dir",
    "write_golden",
    "check_golden",
]

MANIFEST_NAME = "manifest.json"
_GOLDEN_SEED = 0x6F1D  # never change: golden inputs are pinned forever

#: pinned subchunk width of the golden gap-array side channel — small
#: enough that every vector has real interior sync points
GAP_SUBCHUNK_BITS = 256


def default_golden_dir() -> Path:
    """``tests/golden/`` relative to the repo root (src/ layout aware)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _sha(buf) -> str:
    return hashlib.sha256(np.ascontiguousarray(buf).tobytes()
                          if isinstance(buf, np.ndarray)
                          else bytes(buf)).hexdigest()


def _vec_text_m10():
    """Zipf-ish text surrogate, 64-symbol alphabet, default chunking."""
    rng = np.random.default_rng(_GOLDEN_SEED)
    ranks = np.arange(1, 65, dtype=np.float64)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    data = rng.choice(64, size=3_000, p=probs).astype(np.uint8)
    return data, None, 10, None


def _vec_skew_m8():
    """Heavily skewed draw, small chunks (M=8): many chunks + tail."""
    rng = np.random.default_rng(_GOLDEN_SEED + 1)
    probs = rng.dirichlet(np.ones(32) * 0.08)
    data = rng.choice(32, size=1_337, p=probs).astype(np.uint8)
    return data, None, 8, None


def _vec_breaking_w32():
    """Uniform draw under the W=32 crafted book with ``r`` pinned to 2.

    The average-bitwidth rule would pick r=0 (no merging) for ~31-bit
    codewords, which never overflows; pinning r=2 makes ~95% of cells
    break, so this vector freezes the sparse side channel's layout.
    """
    rng = np.random.default_rng(_GOLDEN_SEED + 2)
    book = wbit_codebook(32)
    data = rng.integers(0, book.n_symbols, 1_200).astype(np.uint8)
    return data, book, 10, 2


def _vec_tail_odd():
    """Size straddling a chunk boundary (2N + 7): tail-path coverage."""
    rng = np.random.default_rng(_GOLDEN_SEED + 3)
    data = rng.integers(0, 16, (1 << 10) * 2 + 7).astype(np.uint8)
    return data, None, 10, None


GOLDEN_VECTORS = {
    "text_m10": _vec_text_m10,
    "skew_m8": _vec_skew_m8,
    "breaking_w32": _vec_breaking_w32,
    "tail_odd": _vec_tail_odd,
}


def _materialize(name: str):
    data, book, magnitude, r = GOLDEN_VECTORS[name]()
    if book is None:
        freqs = np.bincount(data.astype(np.int64),
                            minlength=int(data.max()) + 1)
        book = parallel_codebook(freqs.astype(np.int64)).codebook
    stream = gpu_encode(
        data, book, magnitude=magnitude, reduction_factor=r
    ).stream
    blob = serialize_stream(stream, book)
    dense_buf, dense_bits = serial_encode(data, book)
    decoded = decode_stream(stream, book)
    # gap-array side channel: the reference walk's sync points at the
    # pinned width (None only for books the gap machinery cannot decode
    # at all — deep books qualify through subtable descent, so the
    # crafted W=32 vector carries a gap artifact too)
    table = cached_decode_table(book)
    gap_payload = None
    if gap_supported(book, table)[0]:
        buffer, starts, ends, _nsyms = stream_lanes(stream)
        gap_payload = reference_gap_array(
            buffer, starts, ends, book, GAP_SUBCHUNK_BITS, table
        ).to_payload()
    entry = {
        "magnitude": magnitude,
        "reduction_factor": int(stream.tuning.reduction_factor),
        "breaking_cells": int(stream.breaking.nnz),
        "n_symbols": int(data.size),
        "n_alphabet": int(book.n_symbols),
        "container_bytes": len(blob),
        "container_sha256": _sha(blob),
        "dense_bits": int(dense_bits),
        "dense_sha256": _sha(dense_buf),
        "decoded_sha256": _sha(decoded.astype(np.int64)),
        "codebook_digest": codebook_digest(book),
        "gap_subchunk_bits": (GAP_SUBCHUNK_BITS if gap_payload is not None
                              else None),
        "gap_sha256": (_sha(_gap_bytes(gap_payload))
                       if gap_payload is not None else None),
        "first": [int(x) for x in book.first],
        "entry": [int(x) for x in book.entry],
        "symbols_by_code": [int(x) for x in book.symbols_by_code],
    }
    return blob, entry, gap_payload


def _gap_bytes(payload: dict) -> bytes:
    """Canonical byte form of a gap payload (hashing + on-disk file)."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def write_golden(golden_dir: Path | str | None = None) -> Path:
    """(Re)generate every golden artifact.  Returns the directory."""
    golden_dir = Path(golden_dir) if golden_dir else default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name in sorted(GOLDEN_VECTORS):
        blob, entry, gap_payload = _materialize(name)
        (golden_dir / f"{name}.rprh").write_bytes(blob)
        gap_path = golden_dir / f"{name}.gap.json"
        if gap_payload is not None:
            gap_path.write_bytes(_gap_bytes(gap_payload))
        elif gap_path.exists():
            gap_path.unlink()
        manifest[name] = entry
    with open(golden_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return golden_dir


def _check_gap(name, golden_dir, gap_payload, stream, book) -> list[str]:
    """Golden gap side channel: stored file vs reference and kernel.

    The ``.gap.json`` file must match the fresh reference walk
    byte-for-byte, and the native gap kernel — when it runs on this host
    and table — over the *stored* container's lanes must reproduce the
    stored array entry-for-entry.  Books outside gap range must have no
    gap artifact at all.
    """
    gap_path = golden_dir / f"{name}.gap.json"
    if gap_payload is None:
        if gap_path.exists():
            return [f"{name}: {gap_path.name} present but book is "
                    "outside gap-decoder range"]
        return []
    if not gap_path.exists():
        return [f"{name}: missing {gap_path.name}"]
    problems: list[str] = []
    stored_bytes = gap_path.read_bytes()
    if stored_bytes != _gap_bytes(gap_payload):
        problems.append(
            f"{name}: {gap_path.name} differs from the reference walk"
        )
    try:
        stored = GapArray.from_payload(json.loads(stored_bytes))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"{name}: {gap_path.name} unreadable: {exc}"]
    buffer, starts, ends, nsyms = stream_lanes(stream)
    res = gap_decode_lanes(
        buffer, starts, ends, nsyms, book, cached_decode_table(book),
        subchunk_bits=GAP_SUBCHUNK_BITS,
    )
    # without the kernel the call decodes through decode_lanes and
    # there is no kernel gap array to compare
    if res.gap is not None and not res.gap.equal(stored):
        problems.append(
            f"{name}: native gap kernel does not reproduce {gap_path.name}"
        )
    return problems


def check_golden(golden_dir: Path | str | None = None) -> list[str]:
    """Compare the checked-in artifacts to freshly generated ones.

    Returns a list of human-readable mismatch strings (empty = pass).
    The stored ``.rprh`` container is additionally *decoded* and checked
    against the manifest's decoded hash, so the check exercises the real
    deserialize→decode path on bytes from a previous build.
    """
    golden_dir = Path(golden_dir) if golden_dir else default_golden_dir()
    manifest_path = golden_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return [f"missing golden manifest {manifest_path}"]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems: list[str] = []
    for name in sorted(GOLDEN_VECTORS):
        if name not in manifest:
            problems.append(f"{name}: missing from manifest")
            continue
        want = manifest[name]
        blob, got, gap_payload = _materialize(name)
        for key in got:
            if got[key] != want.get(key):
                problems.append(
                    f"{name}: {key} changed "
                    f"(manifest {want.get(key)!r} != current {got[key]!r})"
                )
        stored = golden_dir / f"{name}.rprh"
        if not stored.exists():
            problems.append(f"{name}: missing {stored.name}")
            continue
        old = stored.read_bytes()
        if old != blob:
            problems.append(
                f"{name}: {stored.name} differs byte-for-byte "
                f"({len(old)} vs {len(blob)} bytes)"
            )
        # decode the *stored* bytes: yesterday's container must still
        # deserialize and decode to the manifest's symbols today
        try:
            stream, book = deserialize_stream(old)
            dec = decode_stream(stream, book)
            if _sha(dec.astype(np.int64)) != want["decoded_sha256"]:
                problems.append(
                    f"{name}: stored container decodes to different symbols"
                )
            problems.extend(_check_gap(name, golden_dir, gap_payload,
                                       stream, book))
        except ValueError as exc:
            problems.append(f"{name}: stored container rejected: {exc}")
    extra = {
        k for k in manifest if k not in GOLDEN_VECTORS
    }
    for k in sorted(extra):
        problems.append(f"{k}: in manifest but not a known vector")
    return problems
