"""SZ-style error-bounded quantization substrate (Nyx-Quant surrogate).

The paper's flagship dataset, Nyx-Quant, is the stream of quantization
codes SZ emits for the Nyx cosmology field ``baryon_density``.  We build
the equivalent front end from scratch: a smooth synthetic 3-D field, the
Lorenzo-style previous-value predictor SZ uses, and error-bounded linear
quantization of prediction residuals into ``n_bins`` integer codes
centred at ``n_bins/2``.  Smooth fields predict well, so the codes
concentrate sharply around the centre — exactly what gives Nyx-Quant its
β ≈ 1.03 average codeword width.

SZ's quantizer is a feedback loop (each prediction uses the previous
*reconstruction*).  We use the equivalent closed form — quantize the
prefix ``flat[i] - anchor`` and take first differences — which yields the
identical error guarantee (|reconstruction - data| <= eb at every point,
asserted by the test-suite) while staying fully vectorized; values whose
difference code falls outside the bin range become *outliers*, stored
verbatim and re-anchoring the chain, mirroring SZ's "unpredictable data"
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "synthetic_field",
    "QuantizedField",
    "lorenzo_quantize",
    "dequantize",
]


def synthetic_field(
    shape: tuple[int, ...], rng: np.random.Generator, roughness: float = 0.02
) -> np.ndarray:
    """Smooth multiscale cosine field + mild noise (a stand-in for
    baryon_density's large-scale structure)."""
    grids = np.meshgrid(
        *[np.linspace(0, 1, s, dtype=np.float64) for s in shape], indexing="ij"
    )
    field = np.zeros(shape, dtype=np.float64)
    for octave in range(1, 5):
        freq = 2.0**octave
        phase = rng.uniform(0, 2 * np.pi, size=len(shape))
        amp = 1.0 / freq
        wave = np.zeros(shape)
        for g, ph in zip(grids, phase):
            wave = wave + 2 * np.pi * freq * g + ph
        field += amp * np.cos(wave)
    field += roughness * rng.standard_normal(shape)
    return field


@dataclass
class QuantizedField:
    #: flattened quantization codes: int32 from lorenzo_quantize,
    #: uint16/uint32 (by n_bins) from decompress_field
    codes: np.ndarray
    first_value: float  # anchor for the prediction chain
    error_bound: float
    n_bins: int
    shape: tuple[int, ...]
    #: positions whose residual exceeded the bin range, stored verbatim
    outliers_idx: np.ndarray  # int64, ascending
    outliers_val: np.ndarray  # float64

    @property
    def outlier_fraction(self) -> float:
        return self.outliers_idx.size / max(self.codes.size, 1)


#: work window for segment scanning: keeps outlier-heavy inputs O(n)
#: instead of O(n * outliers)
_SCAN_WINDOW = 1 << 16


def _segment_codes(
    values: np.ndarray, anchor: float, eb: float, n_bins: int
) -> tuple[np.ndarray, int]:
    """Quantize one chain segment; returns (codes, first_bad_or_-1).

    Scans in windows so that only the span up to the first overflow is
    ever paid for, no matter how many outliers follow.
    """
    center = n_bins // 2
    pieces: list[np.ndarray] = []
    k_prev = 0
    for lo in range(0, values.size, _SCAN_WINDOW):
        window = values[lo: lo + _SCAN_WINDOW]
        k = np.round((window - anchor) / (2 * eb)).astype(np.int64)
        codes = np.diff(np.concatenate([[k_prev], k])) + center
        k_prev = int(k[-1])
        bad = np.flatnonzero((codes < 0) | (codes >= n_bins))
        if bad.size:
            pieces.append(codes[: int(bad[0])].astype(np.int32))
            return np.concatenate(pieces) if len(pieces) > 1 else pieces[0], (
                lo + int(bad[0])
            )
        pieces.append(codes.astype(np.int32))
    out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    return out, -1


def lorenzo_quantize(
    field: np.ndarray, error_bound: float, n_bins: int = 1024
) -> QuantizedField:
    """Previous-value (1-D Lorenzo) prediction + error-bounded quantization."""
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    if n_bins < 4:
        raise ValueError("n_bins must be at least 4")
    flat = np.asarray(field, dtype=np.float64).reshape(-1)
    n = flat.size
    center = n_bins // 2
    codes = np.full(n, center, dtype=np.int32)
    out_idx: list[int] = []
    out_val: list[float] = []
    if n == 0:
        return QuantizedField(
            codes=codes, first_value=0.0, error_bound=error_bound,
            n_bins=n_bins, shape=np.asarray(field).shape,
            outliers_idx=np.empty(0, np.int64),
            outliers_val=np.empty(0, np.float64),
        )
    # Precompute which positions overflow even against their *exact*
    # predecessor: any run of such positions after an outlier is itself a
    # run of outliers, which we can mark wholesale instead of re-anchoring
    # one by one (keeps rough-data inputs O(n)).
    if n > 1:
        qn = np.round(np.diff(flat) / (2 * error_bound)).astype(np.int64) + center
        bad_n = np.concatenate([[False], (qn < 0) | (qn >= n_bins)])
        idx_arr = np.arange(n, dtype=np.int64)
        next_good = np.minimum.accumulate(
            np.where(~bad_n, idx_arr, n)[::-1]
        )[::-1]
        next_good = np.concatenate([next_good, [n]])
    start = 1
    anchor = float(flat[0])
    while start < n:
        seg, first_bad = _segment_codes(flat[start:], anchor, error_bound, n_bins)
        if first_bad < 0:
            codes[start:] = seg
            break
        # positions before the overflow are fine; the overflow position
        # and any following exact-predecessor overflows become outliers
        codes[start: start + first_bad] = seg[:first_bad]
        pos = start + first_bad
        run_end = int(next_good[pos + 1]) if pos + 1 < n else n
        run_end = max(run_end, pos + 1)
        out_idx.extend(range(pos, run_end))
        out_val.extend(flat[pos:run_end].tolist())
        # codes in the run stay at the centre (zero residual)
        anchor = float(flat[run_end - 1])
        start = run_end
    return QuantizedField(
        codes=codes,
        first_value=float(flat[0]),
        error_bound=error_bound,
        n_bins=n_bins,
        shape=np.asarray(field).shape,
        outliers_idx=np.asarray(out_idx, dtype=np.int64),
        outliers_val=np.asarray(out_val, dtype=np.float64),
    )


def dequantize(qf: QuantizedField) -> np.ndarray:
    """Reconstruct the field; |reconstruction - data| <= error_bound."""
    n = qf.codes.size
    center = qf.n_bins // 2
    recon = np.empty(n, dtype=np.float64)
    if n == 0:
        return recon.reshape(qf.shape)
    eb2 = 2 * qf.error_bound
    # cumulative-sum-with-resets, fully vectorized: zero the step at every
    # anchor (anchors are exact), then offset each segment of the global
    # cumsum by its anchor value
    steps = (qf.codes.astype(np.float64) - center) * eb2
    anchor_pos = np.concatenate([[0], qf.outliers_idx]).astype(np.int64)
    anchor_val = np.concatenate([[qf.first_value], qf.outliers_val])
    steps[anchor_pos] = 0.0
    csum = np.cumsum(steps)
    seg_id = np.searchsorted(anchor_pos, np.arange(n), side="right") - 1
    recon = anchor_val[seg_id] + (csum - csum[anchor_pos][seg_id])
    return recon.reshape(qf.shape)
