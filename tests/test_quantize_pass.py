"""The compiled Lorenzo passes against their NumPy oracles.

``lorenzo_quantize`` and ``dequantize`` run ``repro.native``'s
``lorenzo_quantize_*``/``lorenzo_dequantize_*`` for uint16 and uint32
codes (uint32 past 65536 bins).  Their codes, outlier indices, outlier values and
reconstructions must equal the NumPy bodies' bit for bit (compared as
raw bits, so a -0.0 or a NaN payload counts), on rounding ties and on
quotients at the edges of the exact-integer and cast ranges too.  The
histogram the quantize pass counts must equal ``np.bincount`` of its
codes up to ``MAX_HISTOGRAM_BINS`` bins (and be ``None`` above), and
both reconstructions, an int64 running sum per anchor times ``2 * eb``,
must stay within the error bound.  Fields whose quotient is
not finite or reaches 2^62 must take the oracle with the reason on the
span, as must codes of any other dtype (int32, int64) in a hand-built
field, and a reconstruction must refuse outlier indices that do not
strictly increase within ``[1, n)``.  The passes refuse a histogram
shorter than the bins and a field whose running sum could pass 2^63.
The C-against-NumPy tests skip where the module cannot be built; the
rest run the oracle there.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.app.compressor import compress_field, decompress_field
from repro.datasets.quantization import (
    QuantizedField,
    _dequantize_numpy,
    _quantize_numpy,
    code_dtype,
    dequantize,
    lorenzo_quantize,
)
from repro.histogram.gpu_histogram import MAX_HISTOGRAM_BINS
from repro.obs import tracing

kern = native.kernel()
needs_native = pytest.mark.skipif(
    kern is None, reason=f"native module unavailable: {native.native_error()}"
)

#: (error bound, bins): wide, narrow, a bound so coarse that the
#: three-bit alphabet overflows on every jump, and uint32 codes
BOUNDS = [(1e-2, 1024), (1e-3, 64), (0.5, 8), (1e-5, 1 << 17)]
#: a bin count per code dtype
DTYPE_BINS = [(1e-3, 64), (1e-5, 1 << 17)]


def _field(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 6.0, n)
    if kind == "smooth":
        return np.sin(x) + 1e-4 * rng.standard_normal(n)
    if kind == "rough":
        return np.sin(x) + 0.05 * rng.standard_normal(n)
    if kind == "walk":
        return np.cumsum(rng.standard_normal(n)) * 0.01
    return rng.standard_normal(n)  # noise


FIELDS = [(k, b) for k in ("smooth", "rough", "walk", "noise")
          for b in BOUNDS]


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bytes of ``a``, so equality also compares -0.0 and NaNs."""
    return np.ascontiguousarray(a).view(np.uint8)


def assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


def _spans(fn):
    with tracing() as tracer:
        out = fn()
    return out, {s.name: s.attrs for s in tracer.spans}


def assert_histogram(qf: QuantizedField) -> None:
    """The counts the quantize pass took equal ``np.bincount`` of its
    codes, and exist only up to ``MAX_HISTOGRAM_BINS`` bins."""
    if qf.n_bins > MAX_HISTOGRAM_BINS:
        assert qf.histogram is None
        return
    want = np.bincount(qf.codes, minlength=qf.n_bins).astype(np.int64)
    assert_same(qf.histogram, want)


def assert_matches_oracle(field, eb, n_bins) -> QuantizedField:
    """The public calls (whatever backend they pick) equal the NumPy
    bodies on every output, the fused histogram included."""
    flat = np.asarray(field, np.float64).reshape(-1)
    qf = lorenzo_quantize(field, eb, n_bins)
    codes, out_idx = _quantize_numpy(flat, eb, n_bins)
    assert_same(qf.codes, codes)
    assert_same(qf.outliers_idx, out_idx)
    assert_same(qf.outliers_val, flat[out_idx])
    assert_histogram(qf)
    recon = dequantize(qf)
    assert recon.shape == np.shape(field)
    assert_same(recon.reshape(-1), _dequantize_numpy(qf).reshape(-1))
    return qf


def assert_within_bound(field, eb, n_bins) -> None:
    """Both reconstructions keep every point within ``eb`` of the
    field (up to the bound's own rounding)."""
    qf = assert_matches_oracle(field, eb, n_bins)
    err = np.abs(dequantize(qf) - np.asarray(field, np.float64))
    assert float(err.max(initial=0.0)) <= eb * (1 + 1e-9)


#: quotients (at 2 * eb = 1 and 0.25, so every one is exact) on rounding
#: ties, at the edges of the exactly representable integers and just
#: under the 2^62 cast limit
EDGE_QUOTIENTS = [0.5, 1.5, 2.5, 3.5, 2.0**51 - 0.5, 2.0**51 + 0.5,
                  2.0**52 - 1, 2.0**52, 2.0**53, np.nextafter(2.0**62, 0)]


@needs_native
class TestCompiledPassEqualsOracle:
    @pytest.mark.parametrize("kind,bound", FIELDS,
                             ids=[f"{k}-{b[1]}" for k, b in FIELDS])
    def test_fields(self, kind, bound):
        eb, n_bins = bound
        field = _field(kind, 20_000, seed=len(kind) * 7 + n_bins)
        qf, spans = _spans(lambda: assert_matches_oracle(field, eb, n_bins))
        assert qf.codes.dtype == code_dtype(n_bins)
        assert spans["quantize.lorenzo"]["backend"] == "native"
        assert spans["quantize.lorenzo"].get("histogram") == (
            "native" if n_bins <= MAX_HISTOGRAM_BINS else None)
        assert spans["dequantize.lorenzo"]["backend"] == "native"
        assert float(np.abs(dequantize(qf) - field).max()) <= eb * (1 + 1e-9)

    @pytest.mark.parametrize("eb", [0.5, 0.125])
    @pytest.mark.parametrize("n_bins", [8, 1024, 1 << 17, 1 << 32])
    def test_rounding_ties_and_edge_quotients(self, eb, n_bins):
        """Half-way quotients round to even and quotients near 2^51,
        2^52 and just under 2^62 cast alike in C and NumPy, as first
        points after the anchor, as steps between neighbours and inside
        outlier runs."""
        for v in EDGE_QUOTIENTS:
            for sign in (1.0, -1.0):
                q = sign * v * 2 * eb  # the value whose quotient is v
                for field in ([0.0, q], [0.0, q, q], [0.0, q, 0.0, -q],
                              [q, 0.0, q, 2 * q], [0.0, 2 * eb, q, q + eb]):
                    qf, spans = _spans(lambda: assert_matches_oracle(
                        np.asarray(field), eb, n_bins))
                    assert spans["quantize.lorenzo"]["backend"] == "native"
        # a run of ties either way from a moving anchor
        ties = np.arange(-40, 41) * eb + eb * 0.5 * (np.arange(81) % 3)
        assert_matches_oracle(ties, eb, n_bins)

    @pytest.mark.parametrize("eb,n_bins", DTYPE_BINS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_fields(self, n, eb, n_bins):
        for field in (np.zeros(n), np.arange(n) * 1e6, -np.arange(n) * 0.3):
            assert_matches_oracle(field, eb, n_bins)

    @pytest.mark.parametrize("eb,n_bins", DTYPE_BINS)
    def test_constant_fields(self, eb, n_bins):
        for value in (0.0, -0.0, 3.25, -1e12):
            qf = assert_matches_oracle(np.full((8, 9), value), eb, n_bins)
            assert qf.outliers_idx.size == 0
            assert np.all(qf.codes == n_bins // 2)

    @pytest.mark.parametrize("eb,n_bins", [(1e-3, 4), (1e-9, 1 << 17)])
    def test_outlier_heavy_fields(self, eb, n_bins):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(30_000) * 10
        qf = assert_matches_oracle(noise, eb, n_bins)
        assert qf.outlier_fraction > 0.9
        # isolated spikes: one outlier, then the chain re-anchors
        spiky = np.linspace(0, 1, 30_000)
        spiky[::97] += 50.0
        qf = assert_matches_oracle(spiky, 1e-3, 256)
        assert 300 <= qf.outliers_idx.size < 1000

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_dequantize_code_dtypes(self, dtype):
        """uint16 codes re-typed as uint32 take the uint32 pass and give
        the same reconstruction."""
        qf = lorenzo_quantize(_field("rough", 20_000, seed=5), 1e-3, 64)
        want = _dequantize_numpy(qf)
        qf.codes = qf.codes.astype(dtype)
        recon, spans = _spans(lambda: dequantize(qf))
        assert spans["dequantize.lorenzo"]["backend"] == "native"
        assert_same(recon, want)

    @given(
        n=st.integers(0, 3000),
        scale=st.sampled_from([1e-4, 1e-2, 1.0, 1e3]),
        bound=st.sampled_from(BOUNDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_walks(self, n, scale, bound, seed):
        rng = np.random.default_rng(seed)
        # steps on a coarse grid hit exact rounding ties (x.5 quotients)
        steps = rng.integers(-40, 41, n) * 0.25 * bound[0]
        field = np.cumsum(steps) * scale
        assert_matches_oracle(field, bound[0], bound[1])

    def test_kernel_refuses_a_short_histogram(self):
        """A histogram one count short of the bins (or not int64) is
        refused before the pass writes a code or a count."""
        x = np.linspace(0.0, 1.0, 100)
        codes = np.full(x.size, 0xA5A5, np.uint16)
        hist = np.full(63, -7, np.int64)
        with pytest.raises(ValueError):
            kern.lorenzo_quantize(x, 2e-3, 64, codes, hist)
        assert (codes == 0xA5A5).all() and (hist == -7).all()
        with pytest.raises(ValueError):
            kern.lorenzo_quantize(x, 2e-3, 64, codes,
                                  np.zeros(64, np.int32))
        # the raw pass: -2, nothing written
        n_oidx = kern._ffi.new("int64_t *")
        oidx = np.empty(x.size, np.int64)
        ret = kern._lib.lorenzo_quantize_u16(
            kern._p("double *", x), x.size, 2e-3, 64,
            kern._p("uint16_t *", codes), kern._p("int64_t *", oidx),
            n_oidx, kern._p("int64_t *", hist), 63)
        assert ret == -2 and n_oidx[0] == 0
        assert (codes == 0xA5A5).all() and (hist == -7).all()
        # a longer one is fine: the first n_bins counts are the histogram
        hist = np.full(70, -7, np.int64)
        _idx, bad = kern.lorenzo_quantize(x, 2e-3, 64, codes, hist)
        assert bad == -1
        assert_same(hist[:64], np.bincount(codes, minlength=64))
        assert (hist[64:] == -7).all()

    def test_kernel_refuses_a_running_sum_that_could_overflow(self):
        """``(n - 1) * max(center, code max)`` past 2^63 - 1, or a
        centre past 2^32, is refused before a code is read: the raw
        pass gets a length its buffers do not have and must not touch
        them (the sanitizer leg would report a read)."""
        codes = np.full(4, 7, np.uint32)
        out = np.full(4, -1.0)
        empty = np.empty(0, np.int64)

        def raw(n, center, dtype="u32"):
            cp = kern._ffi.cast(f"{dtype[0]}int{dtype[1:]}_t *",
                                kern._p("void *", codes))
            return getattr(kern._lib, f"lorenzo_dequantize_{dtype}")(
                cp, n, 0.1, center, 0.0,
                kern._p("int64_t *", empty), kern._p("double *", out), 0,
                kern._p("double *", out))

        for dtype, tmax in (("u32", 2**32 - 1), ("u16", 2**16 - 1)):
            longest = (2**63 - 1) // tmax + 1  # the most codes it takes
            assert raw(longest + 1, 8, dtype) == -2
        assert raw(4, 2**32 + 1) == -2 and raw(4, -1) == -2
        assert (out == -1.0).all()
        assert raw(4, 2**31) == -1  # in range: the four codes decode
        _out, bad = kern.lorenzo_dequantize(codes, 0.1, 2**33, 0.0,
                                            empty, np.empty(0))
        assert bad == -2
        qf = QuantizedField(codes=codes, first_value=0.0, error_bound=0.05,
                            n_bins=2**34, shape=(4,),
                            outliers_idx=empty, outliers_val=np.empty(0))
        with pytest.raises(ValueError):
            dequantize(qf)

    def test_kernel_reports_the_first_unrepresentable_quotient(self):
        x = np.array([0.0, 1.0, 2.0, np.inf, 3.0])
        codes = np.empty(x.size, np.uint16)
        _idx, bad = kern.lorenzo_quantize(x, 2.0, 16, codes)
        assert bad == 3
        x[3] = 2.0**62 * 2.0  # exactly the limit: not cast
        _idx, bad = kern.lorenzo_quantize(x, 2.0, 16, codes)
        assert bad == 3

    @pytest.mark.parametrize(
        "idx", [[3, 2], [2, 2], [-1], [0], [64], [5, 64]],
        ids=["swapped", "duplicate", "negative", "zero", "past-end",
             "second-past-end"],
    )
    def test_kernel_bounds_checks_outlier_indices(self, idx):
        codes = np.full(64, 8, np.uint16)
        idx = np.asarray(idx, np.int64)
        _out, bad = kern.lorenzo_dequantize(
            codes, 0.1, 8, 0.0, idx, np.zeros(idx.size))
        assert 0 <= bad < idx.size


class TestReconstructionBound:
    """|x̂ - x| <= eb on every route (the oracle's alone without the
    module)."""

    def test_bench_field_stays_within_the_bound(self):
        """The benchmark's 16 MiB field at its bound (1e-2)."""
        inputs = pytest.importorskip(
            "bench.inputs",
            reason="the bench package imports from the repository root")
        field = next(inputs.field_inputs(7))
        assert_within_bound(field, 1e-2, 1024)

    @given(
        n=st.integers(2, 3000),
        bound=st.sampled_from(BOUNDS),
        spikes=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_within_bound_with_outliers(self, n, bound,
                                                       spikes, seed):
        """Random walks with spikes and runs that overflow the bins:
        C equals NumPy and both stay within the bound."""
        eb, n_bins = bound
        rng = np.random.default_rng(seed)
        field = np.cumsum(rng.standard_normal(n)) * eb * 3
        at = rng.integers(0, n, spikes)
        field[at] += rng.choice([-1.0, 1.0], spikes) * eb * n_bins * 4
        assert_within_bound(field, eb, n_bins)


class TestOracleFallback:
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.parametrize("at", [0, 1, 500, 999])
    def test_unrepresentable_quotients_take_the_oracle(self, poison, at):
        field = np.linspace(0.0, 1.0, 1000)
        field[at] = poison
        with np.errstate(invalid="ignore", over="ignore"):
            qf, spans = _spans(lambda: lorenzo_quantize(field, 1e-3, 64))
            codes, out_idx = _quantize_numpy(field, 1e-3, 64)
        attrs = spans["quantize.lorenzo"]
        assert attrs["backend"] == "numpy"
        assert attrs["fallback"] == ("no_native_kernel" if kern is None
                                     else "quotient_range")
        assert attrs["histogram"] == "numpy"
        assert_same(qf.codes, codes)
        assert_same(qf.outliers_idx, out_idx)
        assert_histogram(qf)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_code_dtype_without_a_variant(self, dtype):
        field = np.cumsum(np.random.default_rng(1).standard_normal(4096))
        ref = lorenzo_quantize(field, 1e-2, 256)
        qf = QuantizedField(**{**vars(ref), "codes": ref.codes.astype(dtype)})
        recon, spans = _spans(lambda: dequantize(qf))
        assert spans["dequantize.lorenzo"] == {
            "n": 4096, "backend": "numpy", "fallback": "code_dtype"}
        assert_same(recon, dequantize(ref))

    def test_no_compiler(self, monkeypatch):
        field = _field("rough", 5000, seed=2)
        want = lorenzo_quantize(field, 1e-3, 64)
        want_recon = dequantize(want)
        monkeypatch.setattr(native, "kernel", lambda: None)
        qf, spans = _spans(lambda: lorenzo_quantize(field, 1e-3, 64))
        recon, dspans = _spans(lambda: dequantize(qf))
        assert spans["quantize.lorenzo"]["fallback"] == "no_native_kernel"
        assert spans["quantize.lorenzo"]["histogram"] == "numpy"
        assert dspans["dequantize.lorenzo"]["fallback"] == "no_native_kernel"
        assert_same(qf.codes, want.codes)
        assert_same(qf.outliers_idx, want.outliers_idx)
        assert_same(qf.histogram, want.histogram)
        assert_histogram(qf)
        assert_same(recon, want_recon)

    @pytest.mark.parametrize("n_bins", [MAX_HISTOGRAM_BINS,
                                        MAX_HISTOGRAM_BINS + 1, 1 << 17])
    def test_histogram_only_up_to_the_limit(self, n_bins):
        """Counted up to ``MAX_HISTOGRAM_BINS`` bins (the most
        ``compress_field`` accepts), else ``None``; the span says so."""
        field = _field("walk", 3000, seed=4)
        qf, spans = _spans(lambda: lorenzo_quantize(field, 1e-3, n_bins))
        assert_histogram(qf)
        counted = n_bins <= MAX_HISTOGRAM_BINS
        assert (qf.histogram is not None) == counted
        assert ("histogram" in spans["quantize.lorenzo"]) == counted

    def test_compress_field_takes_the_fused_histogram(self, monkeypatch):
        """No separate histogram pass reads the field's codes; the
        histogram stage's span says where the counts came from."""
        def no_pass(*args):
            raise AssertionError("a histogram pass ran on field codes")

        monkeypatch.setattr(sys.modules["repro.histogram.gpu_histogram"],
                            "host_histogram", no_pass)
        field = _field("rough", 5000, seed=9)
        (blob, _report), spans = _spans(lambda: compress_field(field, 1e-3))
        assert spans["encode.histogram"]["backend"] == "quantize"
        assert spans["quantize.lorenzo"]["histogram"] == (
            "numpy" if kern is None else "native")
        recon = decompress_field(blob)
        assert float(np.abs(recon - field).max()) <= 1e-3 * (1 + 1e-9)

    def test_code_dtype_follows_the_bins(self):
        assert lorenzo_quantize(np.ones(4), 1e-3, 65536).codes.dtype \
            == np.uint16
        assert lorenzo_quantize(np.ones(4), 1e-3, 65537).codes.dtype \
            == np.uint32
        with pytest.raises(ValueError):
            lorenzo_quantize(np.ones(4), 1e-3, (1 << 32) + 1)


class TestOutlierIndicesAreChecked:
    @pytest.mark.parametrize(
        "mutate",
        [lambda i: i[::-1], lambda i: np.repeat(i[:1], i.size),
         lambda i: i - i[0] - 1, lambda i: i * 0, lambda i: i[:-1]],
        ids=["swapped", "duplicate", "negative", "zero", "count"],
    )
    def test_dequantize_refuses(self, mutate):
        field = np.linspace(0, 1, 4096)
        field[[100, 2000, 3000]] += 10.0
        qf = lorenzo_quantize(field, 1e-3, 64)
        assert qf.outliers_idx.size >= 3
        qf.outliers_idx = mutate(qf.outliers_idx)
        with pytest.raises(ValueError):
            dequantize(qf)


def _exact_field(seed: int) -> np.ndarray:
    """Integer steps and spikes only: no transcendental function, so the
    field, and the container, are the same on every host."""
    rng = np.random.default_rng(seed)
    field = np.cumsum(rng.integers(-60, 61, 40_000)) * 1e-3
    field[rng.integers(0, field.size, 40)] += 50.0  # outlier spikes
    return field.reshape(40, 1000)


#: sha256 of each container: the compiled passes and the NumPy bodies
#: (``make test-no-native``) must both write exactly these bytes
@pytest.mark.parametrize("eb,n_bins,digest", [
    (1e-2, 1024,
     "efa32e9e3f215d9681a0186ca8c404c9bcf387bb98a67c9b3570518c2f774267"),
    (1e-3, 64,
     "bc508fe9000e9b78faf516c0fca34c8ab6db313d4e2713444188b092a088205f"),
])
def test_field_container_bytes_are_pinned(eb, n_bins, digest):
    field = _exact_field(11)
    blob, report = compress_field(field, eb, n_bins=n_bins)
    assert report.outliers > 0
    assert hashlib.sha256(blob).hexdigest() == digest
    recon = decompress_field(blob)
    assert float(np.abs(recon - field).max()) <= eb * (1 + 1e-9)
