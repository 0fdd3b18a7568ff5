"""Parallel decoders: chunk-parallel (cuSZ path) and self-synchronizing
gap-array (CUHD-style) — the reverse process the encoder's chunked
container was designed to facilitate."""

from repro.decoder.chunk_parallel import (
    ChunkDecodeResult,
    chunk_parallel_decode,
)
from repro.decoder.gap_array import (
    GapArray,
    GapDecodeResult,
    gap_decode_lanes,
    gap_supported,
    reference_gap_array,
)
from repro.decoder.self_sync import SelfSyncResult, self_sync_decode
from repro.native import native_available

__all__ = [
    "ChunkDecodeResult",
    "chunk_parallel_decode",
    "GapArray",
    "GapDecodeResult",
    "gap_decode_lanes",
    "gap_supported",
    "reference_gap_array",
    "native_available",
    "SelfSyncResult",
    "self_sync_decode",
]
