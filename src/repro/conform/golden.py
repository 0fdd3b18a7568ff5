"""Golden bitstream + First/Entry vectors under ``tests/golden/``.

The conformance matrix proves the implementations agree with *each
other*; golden vectors prove they agree with *yesterday*.  Each vector
is a fully deterministic (seed-pinned) input whose artifacts are checked
into the repo:

- ``<name>.rprh`` — the serialized reduce-shuffle container, compared
  byte-for-byte on every check;
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
from repro.core.bitstream import decode_stream
from repro.core.codebook_parallel import parallel_codebook
from repro.core.encoder import gpu_encode
from repro.core.serialization import deserialize_stream, serialize_stream
from repro.huffman.cache import codebook_digest
from repro.huffman.serial import serial_encode

__all__ = [
    "GOLDEN_VECTORS",
    "default_golden_dir",
    "write_golden",
    "check_golden",
]

MANIFEST_NAME = "manifest.json"
_GOLDEN_SEED = 0x6F1D  # never change: golden inputs are pinned forever


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
        "first": [int(x) for x in book.first],
        "entry": [int(x) for x in book.entry],
        "symbols_by_code": [int(x) for x in book.symbols_by_code],
    }
    return blob, entry


def write_golden(golden_dir: Path | str | None = None) -> Path:
    """(Re)generate every golden artifact.  Returns the directory."""
    golden_dir = Path(golden_dir) if golden_dir else default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name in sorted(GOLDEN_VECTORS):
        blob, entry = _materialize(name)
        (golden_dir / f"{name}.rprh").write_bytes(blob)
        manifest[name] = entry
    with open(golden_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return golden_dir


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
        blob, got = _materialize(name)
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
        except ValueError as exc:
            problems.append(f"{name}: stored container rejected: {exc}")
    extra = {
        k for k in manifest if k not in GOLDEN_VECTORS
    }
    for k in sorted(extra):
        problems.append(f"{k}: in manifest but not a known vector")
    return problems
