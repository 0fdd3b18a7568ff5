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
path.  Reconstruction stays on the same integer lattice: each point's
offset from its anchor is an exact int64 sum of code steps, scaled by
``2 * eb`` once (cuSZ's dual-quantization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.histogram.gpu_histogram import MAX_HISTOGRAM_BINS
from repro.obs import span as _span

__all__ = [
    "synthetic_field",
    "QuantizedField",
    "check_outliers",
    "code_dtype",
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
    #: flattened quantization codes, in :func:`code_dtype` of ``n_bins``
    codes: np.ndarray
    first_value: float  # anchor for the prediction chain
    error_bound: float
    n_bins: int
    shape: tuple[int, ...]
    #: positions whose residual exceeded the bin range, stored verbatim
    outliers_idx: np.ndarray  # int64, strictly increasing within [1, n)
    outliers_val: np.ndarray  # float64
    #: int64 counts of ``codes`` over ``n_bins`` bins, counted by
    #: :func:`lorenzo_quantize` when ``n_bins <= MAX_HISTOGRAM_BINS``
    #: (else, and in a hand-built field, ``None``)
    histogram: np.ndarray | None = None

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
            pieces.append(codes[: int(bad[0])])
            return np.concatenate(pieces) if len(pieces) > 1 else pieces[0], (
                lo + int(bad[0])
            )
        pieces.append(codes)
    out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    return out, -1


def code_dtype(n_bins: int) -> type:
    """The dtype of the codes of ``n_bins`` bins: the narrowest unsigned
    one that holds them (codes lie in ``[0, n_bins)``)."""
    return np.uint16 if n_bins <= 65536 else np.uint32


def _quantize_numpy(
    flat: np.ndarray, error_bound: float, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of the compiled pass: ``(codes, outlier indices)``."""
    n = flat.size
    center = n_bins // 2
    codes = np.full(n, center, dtype=code_dtype(n_bins))
    out_idx: list[int] = []
    if n < 2:
        return codes, np.empty(0, np.int64)
    # Precompute which positions overflow even against their *exact*
    # predecessor: any run of such positions after an outlier is itself a
    # run of outliers, which we can mark wholesale instead of re-anchoring
    # one by one (keeps rough-data inputs O(n)).
    qn = np.round(np.diff(flat) / (2 * error_bound)).astype(np.int64) + center
    bad_n = np.concatenate([[False], (qn < 0) | (qn >= n_bins)])
    next_good = np.minimum.accumulate(
        np.where(~bad_n, np.arange(n, dtype=np.int64), n)[::-1]
    )[::-1]
    next_good = np.concatenate([next_good, [n]])  # next_good[j] >= j
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
        run_end = int(next_good[pos + 1])
        out_idx.extend(range(pos, run_end))
        # codes in the run stay at the centre (zero residual)
        anchor = float(flat[run_end - 1])
        start = run_end
    return codes, np.asarray(out_idx, dtype=np.int64)


def lorenzo_quantize(
    field: np.ndarray, error_bound: float, n_bins: int = 1024
) -> QuantizedField:
    """Previous-value (1-D Lorenzo) prediction + error-bounded quantization.

    The codes come in :func:`code_dtype` of ``n_bins`` (uint16 up to
    65536 bins, else uint32) from the compiled pass of
    :mod:`repro.native`, which also counts them into
    ``QuantizedField.histogram`` when ``n_bins <= MAX_HISTOGRAM_BINS``
    (the only bin counts ``compress_field`` accepts).  Hosts without the
    module and fields with a quotient that is not finite or of magnitude
    ``>= 2**62`` (NaN, inf, huge values) run the NumPy body and count
    with ``np.bincount``.  The ``quantize.lorenzo`` span records
    ``backend``, ``fallback`` and, when counted, ``histogram``.
    """
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    if not 4 <= n_bins <= 1 << 32:
        raise ValueError("n_bins must be within [4, 2**32]")
    flat = np.ascontiguousarray(field, dtype=np.float64).reshape(-1)
    count = n_bins <= MAX_HISTOGRAM_BINS
    hist = np.empty(n_bins, np.int64) if count else None
    with _span("quantize.lorenzo", n=int(flat.size)) as sp:
        kern, fallback = native.route(code_dtype(n_bins))
        if kern is not None:
            codes = np.empty(flat.size, code_dtype(n_bins))
            out_idx, bad = kern.lorenzo_quantize(
                flat, 2 * error_bound, n_bins, codes, hist
            )
            if bad >= 0:
                fallback = "quotient_range"
        if fallback is None:
            sp.set_attr(backend="native")
            if count:
                sp.set_attr(histogram="native")
        else:
            codes, out_idx = _quantize_numpy(flat, error_bound, n_bins)
            if count:
                hist = np.bincount(codes, minlength=n_bins).astype(
                    np.int64, copy=False)
                sp.set_attr(histogram="numpy")
            sp.set_attr(backend="numpy", fallback=fallback)
        sp.set_attr(outliers=int(out_idx.size))
    return QuantizedField(
        codes=codes,
        first_value=float(flat[0]) if flat.size else 0.0,
        error_bound=error_bound,
        n_bins=n_bins,
        shape=np.asarray(field).shape,
        outliers_idx=out_idx,
        outliers_val=flat[out_idx],
        histogram=hist,
    )


def check_outliers(idx: np.ndarray, n_values: int, n: int) -> None:
    """Raise ``ValueError`` unless the outlier indices ``idx`` strictly
    increase within ``[1, n)`` and match ``n_values`` values in count, as
    :func:`dequantize` needs (a hostile container can claim anything)."""
    if idx.ndim != 1 or idx.size != n_values:
        raise ValueError("outlier indices and values disagree in count")
    if idx.size and (idx[0] < 1 or idx[-1] >= n
                     or not bool(np.all(idx[1:] > idx[:-1]))):
        raise ValueError(
            "outlier indices must strictly increase within [1, n)"
        )


def _dequantize_numpy(qf: QuantizedField) -> np.ndarray:
    """The oracle of the compiled pass: the flat reconstruction."""
    n = qf.codes.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    center = qf.n_bins // 2
    # an int64 cumulative sum with resets, fully vectorized: zero the step
    # at every anchor (anchors are exact), subtract each segment's sum at
    # its anchor, then add the anchor value to the segment's multiple of
    # eb2.  Each segment's sum is exact: the global sum wraps modulo 2**64
    # at worst, and the difference of two wrapped sums is the true one
    # while it fits in int64 (up to INT64_MAX / 2**32, about 2**31, codes;
    # the compiled pass refuses longer ones)
    steps = qf.codes.astype(np.int64) - center
    anchor_pos = np.concatenate([[0], qf.outliers_idx]).astype(np.int64)
    anchor_val = np.concatenate([[qf.first_value], qf.outliers_val])
    steps[anchor_pos] = 0
    q = np.cumsum(steps)
    seg_len = np.diff(np.append(anchor_pos, n))
    q -= np.repeat(q[anchor_pos], seg_len)
    return np.repeat(anchor_val, seg_len) + q * (2 * qf.error_bound)


def dequantize(qf: QuantizedField) -> np.ndarray:
    """Reconstruct the field; |reconstruction - data| <= error_bound.

    The outliers must pass :func:`check_outliers` (``ValueError``
    otherwise).  uint16 and uint32 codes take the compiled pass,
    bit-identical to the NumPy body that other dtypes (a hand-built
    :class:`QuantizedField`) and hosts without the module run; the
    ``dequantize.lorenzo`` span records ``backend`` and ``fallback``.
    Both keep each point's quantized offset from its anchor as an exact
    int64 ``q`` and write ``anchor + q * 2 * error_bound``.
    """
    n = qf.codes.size
    idx = np.asarray(qf.outliers_idx, dtype=np.int64)
    check_outliers(idx, np.size(qf.outliers_val), n)
    codes = qf.codes.reshape(-1)
    with _span("dequantize.lorenzo", n=int(n)) as sp:
        kern, fallback = native.route(codes.dtype)
        if kern is not None:
            recon, bad = kern.lorenzo_dequantize(
                np.ascontiguousarray(codes), 2 * qf.error_bound,
                qf.n_bins // 2, qf.first_value, idx, qf.outliers_val,
            )
            if bad == -2:  # a centre past 2**32, or ~2**31 uint32 codes
                raise ValueError("codes could carry the int64 running sum "
                                 "past 2**63 - 1")
            if bad >= 0:  # check_outliers passed: cannot happen
                raise ValueError("outlier index out of order or range")
            sp.set_attr(backend="native")
        else:
            recon = _dequantize_numpy(qf)
            sp.set_attr(backend="numpy", fallback=fallback)
    return recon.reshape(qf.shape)
