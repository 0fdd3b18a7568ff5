"""The paper's primary contribution: parallel codebook construction and
the reduce-shuffle-merge GPU encoder."""

from repro.core.adaptive import (
    AdaptiveEncodeResult,
    adaptive_decode,
    adaptive_encode,
)
from repro.core.bitstream import EncodedStream, decode_stream, decode_stream_scalar
from repro.core.breaking import (
    BreakingStore,
    extract_breaking,
    extract_breaking_symbols,
)
from repro.core.canonical import (
    BaseCodebook,
    CanonizeResult,
    base_codebook_from_tree,
    canonize,
)
from repro.core.codebook_parallel import ParallelCodebookResult, parallel_codebook
from repro.core.encoder import ENCODE_IMPLS, GpuEncodeResult, gpu_encode
from repro.core.generate_cl import GenerateCLResult, generate_cl
from repro.core.generate_cw import GenerateCWResult, generate_cw
from repro.core.merge_path import MergeStats, merge_path_partition, parallel_merge
from repro.core.metrics import CompressionMetrics, analyze_stream, metrics_report
from repro.core.reduce_merge import ReduceMergeResult, reduce_merge, reduce_merge_trace
from repro.core.scan_pack import (
    ScanPackResult,
    analytic_moved_words,
    packed_codeword_table,
    scan_pack,
    scan_pack_symbols,
)
from repro.core.serialization import (
    deserialize_codebook,
    deserialize_stream,
    serialize_codebook,
    serialize_stream,
)
from repro.core.shuffle_merge import (
    ShuffleMergeResult,
    shuffle_merge,
    shuffle_merge_trace,
)
from repro.core.tuning import (
    DEFAULT_MAGNITUDE,
    EMPIRICAL_MAX_REDUCTION,
    EncoderTuning,
    average_bitwidth,
    choose_reduction_factor,
    entropy_bits,
    expected_merged_bits,
    proper_reduction_factor,
)

__all__ = [
    "AdaptiveEncodeResult",
    "adaptive_decode",
    "adaptive_encode",
    "deserialize_codebook",
    "deserialize_stream",
    "serialize_codebook",
    "serialize_stream",
    "EncodedStream",
    "decode_stream",
    "decode_stream_scalar",
    "BreakingStore",
    "extract_breaking",
    "extract_breaking_symbols",
    "BaseCodebook",
    "CanonizeResult",
    "base_codebook_from_tree",
    "canonize",
    "ParallelCodebookResult",
    "parallel_codebook",
    "ENCODE_IMPLS",
    "GpuEncodeResult",
    "gpu_encode",
    "ScanPackResult",
    "analytic_moved_words",
    "packed_codeword_table",
    "scan_pack",
    "scan_pack_symbols",
    "GenerateCLResult",
    "generate_cl",
    "GenerateCWResult",
    "generate_cw",
    "MergeStats",
    "CompressionMetrics",
    "analyze_stream",
    "metrics_report",
    "merge_path_partition",
    "parallel_merge",
    "ReduceMergeResult",
    "reduce_merge",
    "reduce_merge_trace",
    "ShuffleMergeResult",
    "shuffle_merge",
    "shuffle_merge_trace",
    "DEFAULT_MAGNITUDE",
    "EMPIRICAL_MAX_REDUCTION",
    "EncoderTuning",
    "average_bitwidth",
    "choose_reduction_factor",
    "entropy_bits",
    "expected_merged_bits",
    "proper_reduction_factor",
]
