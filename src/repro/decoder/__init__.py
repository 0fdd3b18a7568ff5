"""Parallel decoders: chunk-parallel (cuSZ path), the one-pass chunk-lane
decoder and self-synchronizing (CUHD-style) — the reverse process the
encoder's chunked container was designed to facilitate."""

from repro.decoder.chunk_parallel import (
    ChunkDecodeResult,
    chunk_parallel_decode,
)
from repro.decoder.gap_array import (
    GapDecodeResult,
    LanePlacement,
    gap_decode_lanes,
    gap_supported,
)
from repro.decoder.self_sync import SelfSyncResult, self_sync_decode
from repro.native import native_available

__all__ = [
    "ChunkDecodeResult",
    "chunk_parallel_decode",
    "GapDecodeResult",
    "LanePlacement",
    "gap_decode_lanes",
    "gap_supported",
    "native_available",
    "SelfSyncResult",
    "self_sync_decode",
]
