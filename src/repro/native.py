"""The runtime-compiled C module: chunk-lane decode, scan-pack encode,
the histogram and the Lorenzo quantize/dequantize passes.

One C source set, compiled once per process via :mod:`cffi` and the
system C compiler and cached on disk under one digest of that source
and its compile flags, holds every compiled kernel of the codec.  Each
kernel has a NumPy counterpart that stays the oracle and the
no-compiler path.

Decode (:mod:`repro.decoder.gap_array`; oracle
:func:`repro.huffman.decoder.decode_lanes`, then
:func:`repro.core.bitstream.assemble_stream_symbols`):

- ``chunk_decode_{u8,u16,u32,i64}``: one interleaved walk over every
  lane of a container — each chunk, each broken cell and the tail
  starts at its own bit with its own symbol count — that stores each
  symbol straight at its output index in the caller's dtype.  A lane
  writes from its ``out_off`` on and jumps ``G`` slots at each of its
  holes (a chunk's broken cells); every lane's placement is bounds
  checked before it decodes, and a lane that runs out of bits stops the
  pass.  Lanes go in blocks of eight, interleaved to hide the
  decode-table load latency (the serial bp → window → table → bp chain
  otherwise dominates).  It reads the
  :class:`~repro.huffman.decoder.DecodeTable`'s own arrays: one gather
  from the packed root, and for a codeword longer than the root a
  descent through the subtables in a cold branch.

Encode (:mod:`repro.core.scan_pack`; oracle ``book.lookup`` followed
by the generic NumPy :func:`~repro.core.scan_pack.scan_pack`, which is
``scan_pack_symbols``'s path without this module):

- ``symbol_bits_u*``: the encoder's stats step — total codeword bits
  over a symbol stream, or the index of the first symbol that is out of
  the book's range or has no codeword.
- ``scan_pack_u*``: reduce-shuffle-merge collapsed to one pass per
  chunk.  Each cell gathers and merges its ``group_symbols`` codewords,
  records its true length and whether it breaks (length > W), and a
  kept cell is appended to the chunk's bit accumulator, which flushes
  W-bit words straight into the ``(n_chunks, cells_per_chunk)`` grid.
  Every symbol is checked against the book size before its gather.

Histogram (:func:`repro.histogram.gpu_histogram.host_histogram`;
oracle :func:`~repro.histogram.gpu_histogram.fast_histogram` after a
``min``/``max`` range check):

- ``histogram_u*``: one pass that counts symbol ``i`` into private
  sub-histogram ``i % 4`` and folds the four at the end (the paper's
  replicated bins, §IV-A).  Every symbol is checked against the bin
  count before its increment; the pass returns the index of the first
  out-of-range one.

Lorenzo quantization (:mod:`repro.datasets.quantization`; oracle the
NumPy bodies of ``lorenzo_quantize`` and ``dequantize``), over the code
dtypes uint16/uint32:

- ``lorenzo_quantize_*``: one walk of the prediction chain that writes
  each point's code, records each overflowing point and the run of
  exact-predecessor overflows after it as outliers, and re-anchors
  there.  A quotient that is not finite or reaches 2^62 in magnitude is
  never cast to an integer; the pass stops and the caller runs the
  oracle.
- ``lorenzo_dequantize_*``: one running sum of the code steps, reset at
  every anchor, in the oracle's order of operations (no fused
  multiply-add: ``-ffp-contract=off``).  Every outlier index is checked
  to increase strictly within the field before it is used.

When cffi, a compiler, or a writable cache directory is missing the
module degrades to ``kernel() -> None`` and every caller runs its NumPy
path, recording why.  ``REPRO_DISABLE_NATIVE=1`` forces that
degradation (the no-compiler test leg, ``make test-no-native``);
``REPRO_NATIVE_DIR`` overrides the cache directory (default
``build/native/`` in a source checkout).  ``REPRO_NATIVE_SANITIZE=1``
is a test build with AddressSanitizer and UBSan (``make native-asan``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "CODE_DTYPES",
    "DECODE_DTYPES",
    "NativeKernel",
    "SYMBOL_DTYPES",
    "kernel",
    "native_available",
    "native_error",
    "route",
]

#: symbol dtypes the scan-pack kernels take (one C variant each)
SYMBOL_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))
#: output dtypes the chunk-decode pass writes (uint64 shares the int64
#: variant: every decoded symbol is below 2^23)
DECODE_DTYPES = SYMBOL_DTYPES + (np.dtype(np.int64), np.dtype(np.uint64))
#: quantization-code dtypes the Lorenzo passes take (each
#: ``quantization.code_dtype``), with their C variant suffix and C type
_CODE_VARIANTS = {
    np.dtype(np.uint16): ("u16", "uint16_t"),
    np.dtype(np.uint32): ("u32", "uint32_t"),
}
CODE_DTYPES = tuple(_CODE_VARIANTS)

#: the Lorenzo passes must round exactly as NumPy does: no fused
#: multiply-add (which some targets contract by default) in any build
_FP_FLAGS = ["-ffp-contract=off"]
#: ``REPRO_NATIVE_SANITIZE=1`` builds with AddressSanitizer and UBSan
#: (a test build: Python must preload libasan, see ``make native-asan``)
_SANITIZE_FLAGS = ["-O1", "-g", "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all"]

_CDEF = r"""
int64_t chunk_decode_u8(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, uint8_t *out, int64_t n_out, int64_t *n_sub);
int64_t chunk_decode_u16(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, uint16_t *out, int64_t n_out, int64_t *n_sub);
int64_t chunk_decode_u32(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, uint32_t *out, int64_t n_out, int64_t *n_sub);
int64_t chunk_decode_i64(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, int64_t *out, int64_t n_out, int64_t *n_sub);
int64_t symbol_bits_u8(const uint8_t *sym, int64_t n, const uint64_t *tab,
    int64_t K, int64_t *total);
int64_t symbol_bits_u16(const uint16_t *sym, int64_t n, const uint64_t *tab,
    int64_t K, int64_t *total);
int64_t symbol_bits_u32(const uint32_t *sym, int64_t n, const uint64_t *tab,
    int64_t K, int64_t *total);
int64_t scan_pack_u8(const uint8_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, int64_t K, uint32_t *words,
    int64_t *bits, uint8_t *broken, int64_t *cell_len);
int64_t scan_pack_u16(const uint16_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, int64_t K, uint32_t *words,
    int64_t *bits, uint8_t *broken, int64_t *cell_len);
int64_t scan_pack_u32(const uint32_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, int64_t K, uint32_t *words,
    int64_t *bits, uint8_t *broken, int64_t *cell_len);
int64_t histogram_u8(const uint8_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
int64_t histogram_u16(const uint16_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
int64_t histogram_u32(const uint32_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
""" + "".join(
    f"""int64_t lorenzo_quantize_{sfx}(const double *x, int64_t n, double eb2,
    int64_t n_bins, {ct} *codes, int64_t *oidx, int64_t *n_oidx);
int64_t lorenzo_dequantize_{sfx}(const {ct} *codes, int64_t n, double eb2,
    int64_t center, double first, const int64_t *oidx, const double *oval,
    int64_t n_oidx, double *out);
""" for sfx, ct in _CODE_VARIANTS.values()
)

_CSRC = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

static inline uint64_t load_be64(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8);
    return __builtin_bswap64(v);
}

/* Entries are (symbol_or_node << 8) | len.  A zero length byte is a
 * subtable pointer: the next node_bits[node] stream bits index that
 * node's slice of sub, until an entry carries the codeword's absolute
 * length.  Only complete tables reach the kernel, so every pointer is
 * valid and the walk always advances.  Returns the resolved entry and
 * adds the subtable gathers it took to *nd. */
static inline int32_t descend(const uint8_t *buf, int64_t q, int32_t ent,
                              const int32_t *sub, const int64_t *node_base,
                              const int32_t *node_bits, int64_t *nd) {
    do {
        int32_t node = ent >> 8;
        int nb = node_bits[node];
        uint64_t x = load_be64(buf + (q >> 3)) << (q & 7);
        ent = sub[node_base[node] + (int64_t)(x >> (64 - nb))];
        q += nb;
        (*nd)++;
    } while (!(ent & 0xFF));
    return ent;
}

/* One interleaved walk over every decode lane: a chunk's dense stream,
 * a broken cell's side-channel stream or the tail.  Lane i decodes
 * nsym[i] codewords from bit start[i] and stores them from out[out_off[i]]
 * on; before each store its cursor jumps G slots at each entry of its
 * sorted holes[hole_base[i] .. hole_base[i + 1]] (a chunk's broken
 * cells, which their own lanes fill).
 *
 * Before a lane decodes, its bits must lie in [0, n_bits), its hole
 * range in holes[] and out_off + nsym + G * (its hole count) <= n_out:
 * the cursor moves by one per store and by G per hole it passes, so
 * every store and every hole read is then in bounds, whatever the
 * stream bits.  A lane whose cursor reaches its end bit while it still
 * owes symbols, or whose last codeword ends past it, stops the pass.
 * Every codeword is at least one bit, so that is exactly the lane
 * decoder's "cursor ends past the lane end".  Returns -1, or the first
 * lane found out of bounds or exhausted (the output is then partial).
 *
 * The caller pads buf by 8 + ceil(max_length / 8) bytes past n_bits,
 * which covers the root window at any bp < end and every descent load
 * below it.  Lanes go in blocks of eight, interleaved symbol by symbol
 * to hide the table-load latency of the serial bp -> window -> table
 * -> bp chain (measured faster than refilling a finished lane's slot).
 * *n_sub receives the subtable gathers. */
#define CHUNK_DECODE(NAME, T)                                             \
int64_t NAME(const uint8_t *buf, int64_t n_bits, const int64_t *start,    \
             const int64_t *end, const int64_t *nsym, int64_t n_lanes,    \
             const int64_t *out_off, const int64_t *hole_base,            \
             const int64_t *holes, int64_t n_holes, int64_t G,            \
             const int32_t *root, int k, const int32_t *sub,              \
             const int64_t *node_base, const int32_t *node_bits,          \
             T *out, int64_t n_out, int64_t *n_sub) {                     \
    const int sh0 = 64 - k;                                               \
    const uint32_t mask = (1u << k) - 1;                                  \
    enum { B = 8 };                                                       \
    int64_t nd = 0;                                                       \
    for (int64_t cb = 0; cb < n_lanes; cb += B) {                         \
        int nbk = (int)((n_lanes - cb < B) ? (n_lanes - cb) : B);         \
        int64_t bp[B], e[B], ns[B], o[B], h[B], he[B], hole[B];          \
        int64_t maxn = 0;                                                 \
        for (int j = 0; j < nbk; j++) {                                   \
            int64_t i = cb + j;                                           \
            int64_t off = out_off[i];                                     \
            int64_t h0 = hole_base[i], h1 = hole_base[i + 1];             \
            ns[j] = nsym[i];                                              \
            if (start[i] < 0 || start[i] > end[i] || end[i] > n_bits      \
                || ns[j] < 0 || off < 0 || off > n_out                    \
                || ns[j] > n_out - off || h0 < 0 || h0 > h1               \
                || h1 > n_holes || G < 1                                  \
                || h1 - h0 > (n_out - off - ns[j]) / G)                   \
                return i;                                                 \
            bp[j] = start[i];                                             \
            e[j] = end[i];                                                \
            o[j] = off;                                                   \
            h[j] = h0;                                                    \
            he[j] = h1;                                                   \
            hole[j] = h0 < h1 ? holes[h0] : -1;                           \
            if (ns[j] > maxn) maxn = ns[j];                               \
        }                                                                 \
        for (int64_t it = 0; it < maxn; it++) {                           \
            for (int j = 0; j < nbk; j++) {                               \
                if (it >= ns[j]) continue;                                \
                if (__builtin_expect(bp[j] >= e[j], 0)) return cb + j;    \
                uint32_t w = (uint32_t)(load_be64(buf + (bp[j] >> 3))     \
                                        >> (sh0 - (bp[j] & 7)));          \
                int32_t ent = root[w & mask];                             \
                if (__builtin_expect(!(ent & 0xFF), 0))                   \
                    ent = descend(buf, bp[j] + k, ent, sub, node_base,    \
                                  node_bits, &nd);                        \
                while (__builtin_expect(o[j] == hole[j], 0)) {            \
                    o[j] += G;                                            \
                    h[j]++;                                               \
                    hole[j] = h[j] < he[j] ? holes[h[j]] : -1;            \
                }                                                         \
                out[o[j]++] = (T)(ent >> 8);                              \
                bp[j] += ent & 0xFF;                                      \
            }                                                             \
        }                                                                 \
        for (int j = 0; j < nbk; j++)                                     \
            if (bp[j] > e[j]) return cb + j;                              \
    }                                                                     \
    *n_sub = nd;                                                          \
    return -1;                                                            \
}

/* Encode.  tab is the book's packed gather table, entry
 * (code << 16) | length per symbol (scan_pack.packed_codeword_table);
 * K is its size.  Both passes compare every symbol with K before the
 * gather, so no symbol value reads outside tab. */

/* Stats pass: *total = sum of codeword lengths; returns -1, or the index
 * of the first symbol that is out of range or has no codeword. */
#define SYMBOL_BITS(NAME, T)                                              \
int64_t NAME(const T *sym, int64_t n, const uint64_t *tab, int64_t K,     \
             int64_t *total) {                                            \
    int64_t t = 0;                                                        \
    for (int64_t i = 0; i < n; i++) {                                     \
        uint64_t s = sym[i];                                              \
        if (s >= (uint64_t)K) return i;                                   \
        int64_t l = (int64_t)(tab[s] & 0xFFFF);                           \
        if (!l) return i;                                                 \
        t += l;                                                           \
    }                                                                     \
    *total = t;                                                           \
    return -1;                                                            \
}

/* One pass per chunk of cpc cells, G = 2^r symbols each.  A cell's true
 * length goes to cell_len and broken[] marks it iff the length exceeds
 * W.  The value merge runs unconditionally (each shift is by one
 * codeword length, < 64): it is exact for a kept cell, whose codewords
 * total <= W <= 32 bits, and discarded for a broken one.  Kept cells
 * append to a bit accumulator whose low nacc < W bits are pending; each
 * full W-bit word is written MSB-first to the chunk's row of words (the
 * bits already written sit above the pending ones and are masked off
 * by every read).  A chunk's
 * kept bits are at most cpc * W, so it never writes past its row; the
 * row's tail is zeroed.  Returns -1, or the index of the first
 * out-of-range symbol (the outputs are then incomplete). */
#define SCAN_PACK(NAME, T)                                                \
int64_t NAME(const T *sym, int64_t n_chunks, int64_t G, int64_t cpc,      \
             int W, const uint64_t *tab, int64_t K, uint32_t *words,      \
             int64_t *bits, uint8_t *broken, int64_t *cell_len) {         \
    const uint64_t wmask = (1ull << W) - 1;                               \
    for (int64_t c = 0; c < n_chunks; c++) {                              \
        const T *p = sym + c * cpc * G;                                   \
        uint32_t *out = words + c * cpc;                                  \
        uint64_t acc = 0;                                                 \
        int64_t nacc = 0, wi = 0, cb = 0;                                 \
        for (int64_t j = 0; j < cpc; j++, p += G) {                       \
            int64_t len = 0;                                              \
            uint64_t v = 0;                                               \
            for (int64_t g = 0; g < G; g++) {                             \
                uint64_t s = p[g];                                        \
                if (__builtin_expect(s >= (uint64_t)K, 0))                \
                    return (c * cpc + j) * G + g;                         \
                uint64_t e = tab[s];                                      \
                int64_t l = (int64_t)(e & 0xFFFF);                        \
                len += l;                                                 \
                v = (v << l) | (e >> 16);                                 \
            }                                                             \
            int64_t cell = c * cpc + j;                                   \
            cell_len[cell] = len;                                         \
            broken[cell] = (uint8_t)(len > W);                            \
            if (len <= W) {                                               \
                acc = (acc << len) | v;                                   \
                nacc += len;                                              \
                cb += len;                                                \
                if (nacc >= W) {                                          \
                    nacc -= W;                                            \
                    out[wi++] = (uint32_t)((acc >> nacc) & wmask);        \
                }                                                         \
            }                                                             \
        }                                                                 \
        if (nacc) out[wi++] = (uint32_t)((acc << (W - nacc)) & wmask);    \
        while (wi < cpc) out[wi++] = 0;                                   \
        bits[c] = cb;                                                     \
    }                                                                     \
    return -1;                                                            \
}

/* Histogram: hist[s] = occurrences of s in sym[0..n).  Symbol i
 * counts into private sub-histogram i % 4 of priv (4 * K uint32 slots),
 * so neighbouring equal symbols do not serialize on one counter (the
 * paper's replicated bins, section IV-A, applied to a CPU's store
 * buffer); the copies fold into hist after each block of at most
 * 2^32 - 4 symbols, which keeps every private count below 2^30.  Every
 * symbol is compared with K before its increment.  Returns -1, or the
 * index of the first symbol >= K (hist is then incomplete). */
#define HISTOGRAM(NAME, T)                                                \
int64_t NAME(const T *sym, int64_t n, int64_t K, int64_t *hist,           \
             uint32_t *priv) {                                            \
    const uint64_t k = (uint64_t)K;                                       \
    uint32_t *p0 = priv, *p1 = priv + K, *p2 = priv + 2 * K,              \
             *p3 = priv + 3 * K;                                          \
    memset(hist, 0, (size_t)K * sizeof(int64_t));                         \
    for (int64_t lo = 0; lo < n; ) {                                      \
        int64_t hi = n - lo > 4294967292LL ? lo + 4294967292LL : n;       \
        memset(priv, 0, (size_t)K * 4 * sizeof(uint32_t));                \
        int64_t i = lo;                                                   \
        for (; i + 4 <= hi; i += 4) {                                     \
            uint64_t a = sym[i], b = sym[i + 1], c = sym[i + 2],          \
                     d = sym[i + 3];                                      \
            if (__builtin_expect((a >= k) | (b >= k) | (c >= k)           \
                                 | (d >= k), 0))                          \
                break;                                                    \
            p0[a]++;                                                      \
            p1[b]++;                                                      \
            p2[c]++;                                                      \
            p3[d]++;                                                      \
        }                                                                 \
        for (; i < hi; i++) {                                             \
            uint64_t a = sym[i];                                          \
            if (a >= k) return i;                                         \
            p0[a]++;                                                      \
        }                                                                 \
        for (int64_t s = 0; s < K; s++)                                   \
            hist[s] += (int64_t)p0[s] + p1[s] + p2[s] + p3[s];            \
        lo = hi;                                                          \
    }                                                                     \
    return -1;                                                            \
}

/* Lorenzo quantize (the oracle is the NumPy body of
 * repro.datasets.quantization.lorenzo_quantize).  Each point i >= 1 of
 * the chain quantizes against the current anchor a:
 * q = rint((x[i] - a) / eb2), NumPy's np.round (round-half-even), and
 * its code is q - q_prev + n_bins / 2.  A code outside [0, n_bins)
 * makes i an outlier, and so is every following point whose code from
 * its exact predecessor, rint((x[j] - x[j - 1]) / eb2) + n_bins / 2,
 * falls outside too.  Outliers keep the centre code and their indices
 * go to oidx in order; the last one of a run is the new anchor
 * (q_prev = 0).  A quotient that is not finite or reaches 2^62 in
 * magnitude is never cast (NumPy's int64 cast of it is platform
 * defined): the pass returns that point's index and the outputs are
 * partial.  Else it returns -1 and *n_oidx outliers (at most n - 1, so
 * oidx holds n entries). */
#define LORENZO_QUANTIZE(NAME, T)                                         \
int64_t NAME(const double *x, int64_t n, double eb2, int64_t n_bins,      \
             T *codes, int64_t *oidx, int64_t *n_oidx) {                  \
    const int64_t center = n_bins / 2;                                    \
    int64_t no = 0;                                                       \
    *n_oidx = 0;                                                          \
    if (n == 0) return -1;                                                \
    codes[0] = (T)center;                                                 \
    double a = x[0];                                                      \
    int64_t qp = 0;                                                       \
    for (int64_t i = 1; i < n; ) {                                        \
        double t = (x[i] - a) / eb2;                                      \
        if (!(fabs(t) < 0x1p62)) return i;                                \
        int64_t q = (int64_t)rint(t);                                     \
        int64_t c = q - qp + center;                                      \
        if (c >= 0 && c < n_bins) {                                       \
            codes[i++] = (T)c;                                            \
            qp = q;                                                       \
            continue;                                                     \
        }                                                                 \
        codes[i] = (T)center;                                             \
        oidx[no++] = i;                                                   \
        int64_t j = i + 1;                                                \
        for (; j < n; j++) {                                              \
            double u = (x[j] - x[j - 1]) / eb2;                           \
            if (!(fabs(u) < 0x1p62)) return j;                            \
            int64_t cn = (int64_t)rint(u) + center;                       \
            if (cn >= 0 && cn < n_bins) break;                            \
            codes[j] = (T)center;                                         \
            oidx[no++] = j;                                               \
        }                                                                 \
        a = x[j - 1];                                                     \
        qp = 0;                                                           \
        i = j;                                                            \
    }                                                                     \
    *n_oidx = no;                                                         \
    return -1;                                                            \
}

/* Lorenzo dequantize (oracle: the NumPy body of
 * repro.datasets.quantization.dequantize).  One running sum of the
 * steps ((double)code - center) * eb2, in NumPy's cumsum order, where
 * point 0 and every outlier step by 0.0 and reset the base; out[i] =
 * anchor + (sum - base), the anchor being first or the outlier's value.
 * Before it is used, each outlier index must exceed the previous anchor
 * (0 for the first) and lie below n.  Returns -1, or the position in
 * oidx of the first index that does not (out is then partial). */
#define LORENZO_DEQUANTIZE(NAME, T)                                       \
int64_t NAME(const T *codes, int64_t n, double eb2, int64_t center,       \
             double first, const int64_t *oidx, const double *oval,       \
             int64_t n_oidx, double *out) {                               \
    const double c0 = (double)center;                                     \
    int64_t k = 0, next = n;                                              \
    if (n == 0) return n_oidx ? 0 : -1;                                   \
    if (n_oidx) {                                                         \
        if (oidx[0] < 1 || oidx[0] >= n) return 0;                        \
        next = oidx[0];                                                   \
    }                                                                     \
    double sum = 0.0, base = 0.0, av = first;                             \
    out[0] = av + (sum - base);                                           \
    for (int64_t i = 1; i < n; i++) {                                     \
        if (i == next) {                                                  \
            sum += 0.0;                                                   \
            base = sum;                                                   \
            av = oval[k++];                                               \
            next = n;                                                     \
            if (k < n_oidx) {                                             \
                if (oidx[k] <= i || oidx[k] >= n) return k;               \
                next = oidx[k];                                           \
            }                                                             \
        } else {                                                          \
            sum += ((double)codes[i] - c0) * eb2;                         \
        }                                                                 \
        out[i] = av + (sum - base);                                       \
    }                                                                     \
    return -1;                                                            \
}

SYMBOL_BITS(symbol_bits_u8, uint8_t)
SYMBOL_BITS(symbol_bits_u16, uint16_t)
SYMBOL_BITS(symbol_bits_u32, uint32_t)
SCAN_PACK(scan_pack_u8, uint8_t)
SCAN_PACK(scan_pack_u16, uint16_t)
SCAN_PACK(scan_pack_u32, uint32_t)
CHUNK_DECODE(chunk_decode_u8, uint8_t)
CHUNK_DECODE(chunk_decode_u16, uint16_t)
CHUNK_DECODE(chunk_decode_u32, uint32_t)
CHUNK_DECODE(chunk_decode_i64, int64_t)
HISTOGRAM(histogram_u8, uint8_t)
HISTOGRAM(histogram_u16, uint16_t)
HISTOGRAM(histogram_u32, uint32_t)
""" + "".join(
    f"LORENZO_QUANTIZE(lorenzo_quantize_{sfx}, {ct})\n"
    f"LORENZO_DEQUANTIZE(lorenzo_dequantize_{sfx}, {ct})\n"
    for sfx, ct in _CODE_VARIANTS.values()
)


def _compile_flags() -> list[str]:
    if os.environ.get("REPRO_NATIVE_SANITIZE"):
        return _SANITIZE_FLAGS + _FP_FLAGS
    return ["-O2"] + _FP_FLAGS


def _source_digest() -> str:
    return hashlib.blake2b(
        (_CDEF + _CSRC + " ".join(_compile_flags())).encode(),
        digest_size=8,
    ).hexdigest()


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_DIR")
    if env:
        return Path(env)
    # source checkout: <repo>/build/native (this file lives at
    # <repo>/src/repro/native.py); installed package or a read-only
    # checkout falls back to a per-user temp directory.
    root = Path(__file__).resolve().parents[2]
    if (root / "pyproject.toml").exists() and os.access(root, os.W_OK):
        return root / "build" / "native"
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


class NativeKernel:
    """Thin numpy-array façade over the compiled passes.

    Every pass checks the layout of its arrays here; the decode pass
    also bounds-checks each lane's placement itself.
    """

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    def _p(self, ctype: str, arr: np.ndarray):
        return self._ffi.cast(ctype, arr.ctypes.data)

    def _table_args(self, table) -> tuple:
        return (
            self._p("int32_t *", table.root),
            int(table.k),
            self._p("int32_t *", table.sub),
            self._p("int64_t *", table.node_base),
            self._p("int32_t *", table.node_bits),
        )

    def chunk_decode(
        self,
        padded_buf: np.ndarray,
        n_bits: int,
        starts: np.ndarray,
        ends: np.ndarray,
        nsyms: np.ndarray,
        out_off: np.ndarray,
        hole_base: np.ndarray,
        holes: np.ndarray,
        group: int,
        table,
        out: np.ndarray,
    ) -> tuple[int, int]:
        """Decode every lane into ``out`` (``n_out = out.size``): the
        returned pair is ``-1`` or the first lane found out of bounds
        or exhausted (``out`` is then partial), and the subtable
        gathers taken."""
        if not out.flags.c_contiguous or out.dtype not in DECODE_DTYPES:
            raise ValueError("output must be contiguous uint8/16/32 or "
                             "int64/uint64")
        starts, ends, nsyms, out_off, hole_base, holes = (
            np.ascontiguousarray(a, np.int64)
            for a in (starts, ends, nsyms, out_off, hole_base, holes)
        )
        n = starts.shape[0]
        if not (ends.shape == nsyms.shape == out_off.shape == (n,)
                and hole_base.shape == (n + 1,) and holes.ndim == 1
                and padded_buf.dtype == np.uint8
                and padded_buf.flags.c_contiguous):
            raise ValueError("lane and placement arrays disagree in shape")
        suffix = {1: "u8", 2: "u16", 4: "u32", 8: "i64"}[out.itemsize]
        ctype = "int64_t *" if out.itemsize == 8 else f"{out.dtype.name}_t *"
        n_sub = self._ffi.new("int64_t *")
        bad = getattr(self._lib, f"chunk_decode_{suffix}")(
            self._p("uint8_t *", padded_buf),
            int(n_bits),
            self._p("int64_t *", starts),
            self._p("int64_t *", ends),
            self._p("int64_t *", nsyms),
            n,
            self._p("int64_t *", out_off),
            self._p("int64_t *", hole_base),
            self._p("int64_t *", holes),
            holes.shape[0],
            int(group),
            *self._table_args(table),
            self._p(ctype, out),
            out.size,
            n_sub,
        )
        return int(bad), int(n_sub[0])

    def _symbols(
        self, data: np.ndarray, table: np.ndarray
    ) -> tuple[str, object, object]:
        """C-variant suffix plus symbol and gather-table pointers, after
        checking the layout the encode passes read."""
        if data.dtype not in SYMBOL_DTYPES or not data.flags.c_contiguous:
            raise ValueError("symbols must be contiguous uint8/16/32")
        if table.dtype != np.uint64 or not table.flags.c_contiguous:
            raise ValueError("gather table must be contiguous uint64")
        suffix = {1: "u8", 2: "u16", 4: "u32"}[data.dtype.itemsize]
        return (suffix, self._p(f"{data.dtype.name}_t *", data),
                self._p("uint64_t *", table))

    def symbol_bits(
        self, data: np.ndarray, table: np.ndarray
    ) -> tuple[int, int]:
        """``(total_bits, bad)``: the codeword bits of ``data`` under the
        packed gather ``table``, and ``-1`` or the index of the first
        symbol that is out of range or has no codeword (``total_bits``
        is then meaningless)."""
        suffix, sym, tab = self._symbols(data, table)
        total = self._ffi.new("int64_t *")
        bad = getattr(self._lib, f"symbol_bits_{suffix}")(
            sym, data.size, tab, table.size, total
        )
        return int(total[0]), int(bad)

    def scan_pack(
        self,
        data: np.ndarray,
        table: np.ndarray,
        group_symbols: int,
        cells_per_chunk: int,
        word_bits: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """``(words, bits, broken, cell_lengths, bad)`` for whole chunks
        of ``data``: the ``(n_chunks, cells_per_chunk)`` uint32 word
        grid, per-chunk dense bits, per-cell broken flags and true
        lengths, and ``-1`` or the index of the first out-of-range
        symbol (the other outputs are then incomplete)."""
        n_cells = data.size // group_symbols
        n_chunks = n_cells // cells_per_chunk
        words = np.empty((n_chunks, cells_per_chunk), np.uint32)
        bits = np.empty(n_chunks, np.int64)
        broken = np.empty(n_cells, np.bool_)
        cell_lengths = np.empty(n_cells, np.int64)
        suffix, sym, tab = self._symbols(data, table)
        bad = getattr(self._lib, f"scan_pack_{suffix}")(
            sym, n_chunks, group_symbols, cells_per_chunk, word_bits,
            tab, table.size,
            self._p("uint32_t *", words),
            self._p("int64_t *", bits),
            self._p("uint8_t *", broken),
            self._p("int64_t *", cell_lengths),
        )
        return words, bits, broken, cell_lengths, int(bad)

    def histogram(
        self, data: np.ndarray, n_bins: int
    ) -> tuple[np.ndarray, int]:
        """``(hist, bad)``: the int64 counts of ``data`` over ``n_bins``
        bins, and ``-1`` or the index of the first symbol ``>= n_bins``
        (``hist`` is then incomplete)."""
        if data.dtype not in SYMBOL_DTYPES or not data.flags.c_contiguous:
            raise ValueError("symbols must be contiguous uint8/16/32")
        hist = np.empty(n_bins, np.int64)
        priv = np.empty(4 * n_bins, np.uint32)
        suffix = {1: "u8", 2: "u16", 4: "u32"}[data.dtype.itemsize]
        bad = getattr(self._lib, f"histogram_{suffix}")(
            self._p(f"{data.dtype.name}_t *", data), data.size, n_bins,
            self._p("int64_t *", hist), self._p("uint32_t *", priv),
        )
        return hist, int(bad)

    def _codes(self, codes: np.ndarray) -> tuple[str, object]:
        """C-variant suffix and pointer of a code array, after checking
        the layout the Lorenzo passes read and write."""
        if codes.dtype not in CODE_DTYPES or not codes.flags.c_contiguous:
            raise ValueError("codes must be contiguous uint16/uint32")
        sfx, ctype = _CODE_VARIANTS[codes.dtype]
        return sfx, self._p(f"{ctype} *", codes)

    def lorenzo_quantize(
        self, flat: np.ndarray, eb2: float, n_bins: int, codes: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Quantize ``flat`` into ``codes`` (same size): the returned pair
        is the int64 outlier indices and ``-1``, or the index of the first
        point whose quotient is not finite or reaches 2^62 (the outputs
        are then partial and must not be used)."""
        if (flat.dtype != np.float64 or flat.ndim != 1
                or not flat.flags.c_contiguous or codes.shape != flat.shape):
            raise ValueError("values must be contiguous 1-D float64 and "
                             "codes of the same shape")
        suffix, out = self._codes(codes)
        # holds the worst case (every point but the first an outlier);
        # only the pages the pass writes are ever touched
        oidx = np.empty(flat.size, np.int64)
        n_oidx = self._ffi.new("int64_t *")
        bad = getattr(self._lib, f"lorenzo_quantize_{suffix}")(
            self._p("double *", flat), flat.size, float(eb2), int(n_bins),
            out, self._p("int64_t *", oidx), n_oidx,
        )
        return oidx[: n_oidx[0]].copy(), int(bad)

    def lorenzo_dequantize(
        self,
        codes: np.ndarray,
        eb2: float,
        center: int,
        first: float,
        oidx: np.ndarray,
        oval: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """``(out, bad)``: the float64 reconstruction of ``codes``, and
        ``-1`` or the position of the first outlier index that does not
        strictly increase within ``[1, codes.size)`` (``out`` is then
        partial)."""
        suffix, cp = self._codes(codes)
        oidx = np.ascontiguousarray(oidx, np.int64)
        oval = np.ascontiguousarray(oval, np.float64)
        if oidx.ndim != 1 or oval.shape != oidx.shape:
            raise ValueError("outlier indices and values disagree in count")
        out = np.empty(codes.size, np.float64)
        bad = getattr(self._lib, f"lorenzo_dequantize_{suffix}")(
            cp, codes.size, float(eb2), int(center), float(first),
            self._p("int64_t *", oidx), self._p("double *", oval),
            oidx.size, self._p("double *", out),
        )
        return out, int(bad)


_LOCK = threading.Lock()
_KERNEL: Optional[NativeKernel] = None
_TRIED = False
_ERROR: Optional[str] = None


def _load_or_compile() -> NativeKernel:
    digest = _source_digest()
    modname = f"_repro_native_{digest}"
    cdir = _cache_dir() / digest
    sopath = None
    if cdir.is_dir():
        hits = sorted(cdir.glob(f"{modname}*.so"))
        if hits:
            sopath = hits[0]
    if sopath is None:
        # parsing the declarations costs tens of ms per process, so only
        # a build pays it; the built module carries its own ffi
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        cdir.mkdir(parents=True, exist_ok=True)
        flags = _compile_flags()
        ffi.set_source(
            modname, _CSRC, extra_compile_args=flags, libraries=["m"],
            extra_link_args=[f for f in flags if f.startswith("-fsan")],
        )
        sopath = Path(ffi.compile(tmpdir=str(cdir)))
    spec = importlib.util.spec_from_file_location(modname, sopath)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {sopath}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(modname, mod)
    spec.loader.exec_module(mod)
    return NativeKernel(mod.ffi, mod.lib)


def kernel() -> Optional[NativeKernel]:
    """The compiled kernel, or ``None`` when unavailable (first call
    pays the one-time compile; later calls are a cached read)."""
    global _KERNEL, _TRIED, _ERROR
    if _TRIED:
        return _KERNEL
    with _LOCK:
        if _TRIED:
            return _KERNEL
        if os.environ.get("REPRO_DISABLE_NATIVE"):
            _ERROR = "disabled via REPRO_DISABLE_NATIVE"
        else:
            try:
                _KERNEL = _load_or_compile()
            except Exception as exc:  # no cffi / no cc / read-only fs
                _ERROR = f"{type(exc).__name__}: {exc}"
        _TRIED = True
    return _KERNEL


def route(
    dtype: np.dtype, kind: str = "symbol"
) -> tuple[Optional[NativeKernel], Optional[str]]:
    """``(kernel, reason)``: the compiled module when it loads and has a
    variant for ``dtype`` (a ``"symbol"`` dtype of the encode and
    histogram passes, or a ``"code"`` dtype of the Lorenzo passes), else
    ``None`` and why not (``"symbol_dtype"``/``"code_dtype"`` or
    ``"no_native_kernel"``)."""
    dtypes = SYMBOL_DTYPES if kind == "symbol" else CODE_DTYPES
    if np.dtype(dtype) not in dtypes:
        return None, f"{kind}_dtype"
    kern = kernel()
    return kern, None if kern is not None else "no_native_kernel"


def native_available() -> bool:
    return kernel() is not None


def native_error() -> Optional[str]:
    """Why the native kernel is off (``None`` while it works)."""
    kernel()
    return _ERROR
