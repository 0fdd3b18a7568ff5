"""The runtime-compiled C module: chunk-lane decode and its
multi-symbol plane, the decode setup (canonical codes, decode table,
lane layout), scan-pack encode with its breaking side channel, the
histogram, the codeword lengths and the Lorenzo quantize/dequantize
passes.

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
  descent through the subtables in a cold branch.  Given the table's
  multi-symbol plane (output in the plane's dtype), each block first
  emits a whole run of codewords per lookup: the top ``PLANE_BITS``
  window bits give up to ``PLANE_CAP`` symbols, stored at once.
- ``multi_plane_{u8,u16,u32}``: the plane's builder (oracle
  :func:`repro.huffman.decoder.plane_oracle`), one root lookup per
  entry.  Every capacity is checked before a byte is written.

Decode setup (everything ``decompress_symbols`` builds before the
chunk-decode pass; each route is recorded on its span as ``impl`` with
a ``fallback`` reason):

- ``canonical_codes`` (:func:`repro.huffman.codebook.canonical_codes`,
  span ``codebook.canonical``; oracle ``canonical_from_lengths``): the
  book's codes, ``first``, ``entry`` and ``symbols_by_code`` from its
  length vector in two sweeps.  A length past 63 bits or a Kraft
  violation returns a code the wrapper turns into the oracle's
  ``ValueError``.  ``deserialize_stream`` and ``parallel_codebook`` both
  build their books this way.
- ``decode_table_plan`` and ``decode_table_fill``
  (:func:`repro.huffman.decoder.build_decode_table`, span
  ``decode.table``; oracle ``table_oracle``): the packed root, ``sub``,
  ``node_base``, ``node_bits`` and ``complete`` flag, with the oracle's
  breadth-first node numbering.  The plan walks
  ``book.symbols_by_code``, which for a canonical book lists the
  codewords in ascending left-aligned order, so each subtable node owns
  one run of it; it checks that order and numbers the nodes against a
  proven capacity (a codeword of length ``l`` passes
  ``ceil((l - k) / 8)`` nodes), and the fill writes the tables sized by
  the plan's count.  A book whose order is not that of a sorted prefix
  code builds through the oracle (``fallback="book_order"``).
- ``lane_layout`` (:func:`repro.core.bitstream.lane_layout`, span
  ``decode.layout``; oracle ``layout_oracle``): every lane's start and
  end bit, symbol count, output offset and hole range, in one sweep
  over ``chunk_bits``, the chunk offsets, the broken cells' indices,
  bit lengths and offsets and the tail fields, into one int64 block.
  Its section and ordering checks (a truncated chunk, breaking or tail
  payload; cell indices that do not increase strictly below the cell
  count) are the oracle's, in the oracle's order.  The chunk-decode
  pass checks each lane again before it decodes it, so the NumPy lane
  checks (``_check_lanes``) run only after a failed pass, to name the
  error.

Encode (:mod:`repro.core.scan_pack`; oracle the paper's iterative
pair, :func:`~repro.core.reduce_merge.reduce_merge` then
:func:`~repro.core.shuffle_merge.shuffle_merge` and the word grid's
coalescing copy, which is also the encode route without this module;
symbols in dtypes other than uint8/16/32 are range-checked and
narrowed onto them first):

- ``scan_pack_u*``: reduce-shuffle-merge, the coalescing copy and the
  breaking-point save collapsed to one pass per chunk.  Each cell
  gathers and merges its ``group_symbols`` codewords and records
  whether it breaks (length > W); a kept cell is appended to the
  chunk's bit accumulator, which stores the next 32 bits big-endian
  straight into the payload from the chunk's running byte offset after
  every kept cell and moves on only past full words (a branchless
  flush; the byte stream does not depend on W).  A broken cell appends
  its index, its bit length and its codewords — read from the book's
  exact uint64 ``codes``, so up to 63 bits each — MSB-first and
  byte-aligned to the side channel at its running offset (the paper's
  backtrace and dense-to-sparse save; oracle
  :func:`repro.core.breaking.extract_breaking_symbols`).  Every symbol
  is checked against the book size and for a nonzero codeword length
  before its bits are used; a chunk whose worst case
  (``cells_per_chunk * W / 8`` bytes plus a 4-byte trailing store)
  could pass the payload capacity ``n_out``, and a broken cell whose
  index slot or exact bytes could pass the side channel's capacities,
  are refused before they are written.  The wrapper sizes the side
  channel from a bound on the input's codeword bits (the caller's
  total, else every symbol at ``max_length``): a broken cell holds more
  than ``W`` bits, so at most ``total // (W + 1)`` cells break, in at
  most ``ceil(total / 8)`` bytes plus one per cell.

Histogram (:func:`repro.histogram.gpu_histogram.host_histogram`;
oracle :func:`~repro.histogram.gpu_histogram.fast_histogram` after a
``min``/``max`` range check; other integer dtypes are range-checked and
narrowed onto uint8/16/32 first, by :func:`narrow_symbols`):

- ``histogram_u*``: one pass that counts symbol ``i`` into private
  sub-histogram ``i % 4`` and folds the four at the end (the paper's
  replicated bins, §IV-A).  Every symbol is checked against the bin
  count before its increment; the pass returns the index of the first
  out-of-range one.  It is also every encode's bit total and coverage
  check: ``hist @ book.lengths`` and ``hist[book.lengths == 0]`` in
  O(K), from the app facade's histogram or, for an encode without one
  (an unpinned ``gpu_encode``, serve's single-stage encode), from a
  count of its own.

Codebook (:func:`repro.core.codebook_parallel.parallel_codebook`;
oracle ``codebook_parallel._two_queue_lengths``):

- ``two_queue_lengths``: the O(m) two-queue Huffman build over the
  ascending used counts, a leaf winning a tie with an internal node
  (GenerateCL's rule), then one reverse sweep for the depths.  Its
  scratch and output capacities are checked before it writes.

Lorenzo quantization (:mod:`repro.datasets.quantization`; oracle the
NumPy bodies of ``lorenzo_quantize`` and ``dequantize``), over the code
dtypes uint16/uint32:

- ``lorenzo_quantize_*``: one walk of the prediction chain that writes
  each point's code, records each overflowing point and the run of
  exact-predecessor overflows after it as outliers, and re-anchors
  there.  Given a histogram (and its capacity, checked before anything
  is written), it counts each code as it writes it, so the field's
  Huffman stage needs no histogram pass of its own.  A quotient that is
  not finite or reaches 2^62 in magnitude is never cast to an integer;
  the pass stops and the caller runs the oracle.
- ``lorenzo_dequantize_*``: one int64 running sum of the code steps,
  reset at every anchor, and ``anchor + q * 2 * eb`` per point, the
  oracle's operations (no fused multiply-add).  A field whose sum could
  pass 2^63 is refused before it is read, and every outlier index is
  checked to increase strictly within the field before it is used.

Build flags: ``-O2 -ffp-contract=off -fno-math-errno``.  The first
keeps every multiply and add rounded on its own, as NumPy rounds them;
the second lets ``(int64_t)rint(t)`` compile to one ``cvtsd2si`` (which
rounds half-even in the default rounding mode, as ``rint`` does)
instead of a libm call that must be able to set ``errno``.  The module
makes no other libm call.

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
    "PLANE_CAP",
    "PLANE_BITS",
    "SYMBOL_DTYPES",
    "kernel",
    "narrow_symbols",
    "native_available",
    "native_error",
    "route",
]

#: symbol dtypes the scan-pack kernels take (one C variant each)
SYMBOL_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def narrow_symbols(data: np.ndarray, n_symbols: int) -> Optional[np.ndarray]:
    """Integer ``data`` cast to the narrowest of :data:`SYMBOL_DTYPES`
    that holds ``n_symbols - 1``, after one ``min``/``max`` range check;
    ``None`` when a symbol lies outside ``[0, n_symbols)`` (so
    ``2**32 + 3`` is refused rather than wrapped to symbol 3).  An
    alphabet past 2^32 symbols keeps ``data`` as it is."""
    if data.size and (int(data.min()) < 0 or int(data.max()) >= n_symbols):
        return None
    dtype = _narrowest(n_symbols)
    return data if dtype is None else data.astype(dtype, copy=False)


def _narrowest(n_symbols: int) -> Optional[np.dtype]:
    top = max(int(n_symbols) - 1, 0)
    return next((dt for dt in SYMBOL_DTYPES
                 if top <= np.iinfo(dt).max), None)
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

#: symbols one multi-symbol plane entry holds, and the window bits that
#: index it, whatever the root's width (see EXPERIMENTS.md,
#: "Multi-symbol decode")
PLANE_CAP = 8
PLANE_BITS = 12

#: the Lorenzo passes must round exactly as NumPy does: no fused
#: multiply-add (which some targets contract by default) in any build;
#: with no errno to set, ``rint`` and its int64 cast become one
#: ``cvtsd2si`` (round-half-even in the default rounding mode)
_FP_FLAGS = ["-ffp-contract=off", "-fno-math-errno"]
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
    const int32_t *node_bits, const uint16_t *run, int p,
    const void *psyms, uint8_t *out, int64_t n_out, int64_t *n_sub,
    int64_t *n_plane);
int64_t chunk_decode_u16(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, const uint16_t *run, int p,
    const void *psyms, uint16_t *out, int64_t n_out, int64_t *n_sub,
    int64_t *n_plane);
int64_t chunk_decode_u32(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, const uint16_t *run, int p,
    const void *psyms, uint32_t *out, int64_t n_out, int64_t *n_sub,
    int64_t *n_plane);
int64_t chunk_decode_i64(const uint8_t *buf, int64_t n_bits,
    const int64_t *start, const int64_t *end, const int64_t *nsym,
    int64_t n_lanes, const int64_t *out_off, const int64_t *hole_base,
    const int64_t *holes, int64_t n_holes, int64_t G, const int32_t *root,
    int k, const int32_t *sub, const int64_t *node_base,
    const int32_t *node_bits, const uint16_t *run, int p,
    const void *psyms, int64_t *out, int64_t n_out, int64_t *n_sub,
    int64_t *n_plane);
int64_t multi_plane_u8(const int32_t *root, int k, int p, uint16_t *run,
    int64_t n_run, uint8_t *syms, int64_t n_syms, uint64_t *ends,
    int64_t n_ends);
int64_t multi_plane_u16(const int32_t *root, int k, int p, uint16_t *run,
    int64_t n_run, uint16_t *syms, int64_t n_syms, uint64_t *ends,
    int64_t n_ends);
int64_t multi_plane_u32(const int32_t *root, int k, int p, uint16_t *run,
    int64_t n_run, uint32_t *syms, int64_t n_syms, uint64_t *ends,
    int64_t n_ends);
int64_t canonical_codes(const int32_t *len, int64_t n, uint64_t *codes,
    int64_t n_codes, int64_t *first, int64_t *entry, int64_t n_first,
    int64_t *sbc, int64_t n_sbc, int64_t *info);
int64_t decode_table_plan(const int32_t *len, const uint64_t *codes,
    int64_t n, const int64_t *order, int64_t n_order, int k, int maxlen,
    int narrow, int spill, int64_t *run, int32_t *cons, int32_t *bits,
    int64_t cap, int64_t *info);
int64_t decode_table_fill(const int32_t *len, const uint64_t *codes,
    int64_t n, const int64_t *order, int64_t n_order, int k,
    const int64_t *run, const int32_t *cons, const int32_t *bits,
    int64_t n_nodes, int32_t *root, int64_t n_root, int32_t *sub,
    int64_t n_sub, int64_t *node_base);
int64_t lane_layout(int64_t n_chunks, int64_t cpc, int64_t G,
    const int64_t *offsets, const int64_t *chunk_bits, int64_t n_payload,
    const void *cells, int cells_wide, const void *blen, int blen_wide,
    const int64_t *boffsets, int64_t nnz, int64_t n_bpayload,
    int64_t tail_syms, int64_t tail_bits, int64_t n_tail, int64_t *out,
    int64_t n_out);
int64_t scan_pack_u8(const uint8_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, const uint64_t *codes,
    int64_t K, uint8_t *out, int64_t n_out, int64_t *offsets, int64_t *bits,
    uint8_t *broken, uint32_t *bidx, void *blen, int wide, int64_t n_bidx,
    uint8_t *bpay, int64_t n_bpay, int64_t *side);
int64_t scan_pack_u16(const uint16_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, const uint64_t *codes,
    int64_t K, uint8_t *out, int64_t n_out, int64_t *offsets, int64_t *bits,
    uint8_t *broken, uint32_t *bidx, void *blen, int wide, int64_t n_bidx,
    uint8_t *bpay, int64_t n_bpay, int64_t *side);
int64_t scan_pack_u32(const uint32_t *sym, int64_t n_chunks, int64_t G,
    int64_t cpc, int W, const uint64_t *tab, const uint64_t *codes,
    int64_t K, uint8_t *out, int64_t n_out, int64_t *offsets, int64_t *bits,
    uint8_t *broken, uint32_t *bidx, void *blen, int wide, int64_t n_bidx,
    uint8_t *bpay, int64_t n_bpay, int64_t *side);
int64_t two_queue_lengths(const int64_t *f, int64_t m, uint64_t *scratch,
    int64_t n_scratch, int32_t *len, int64_t n_len);
int64_t histogram_u8(const uint8_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
int64_t histogram_u16(const uint16_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
int64_t histogram_u32(const uint32_t *sym, int64_t n, int64_t K,
    int64_t *hist, uint32_t *priv);
""" + "".join(
    f"""int64_t lorenzo_quantize_{sfx}(const double *x, int64_t n, double eb2,
    int64_t n_bins, {ct} *codes, int64_t *oidx, int64_t *n_oidx,
    int64_t *hist, int64_t n_hist);
int64_t lorenzo_dequantize_{sfx}(const {ct} *codes, int64_t n, double eb2,
    int64_t center, double first, const int64_t *oidx, const double *oval,
    int64_t n_oidx, double *out);
""" for sfx, ct in _CODE_VARIANTS.values()
)

_CSRC = f"""
#define PLANE_CAP {PLANE_CAP}
""" + r"""
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
 *
 * With a multi-symbol plane (run != NULL and 1 <= p <= 16: multi_plane_*
 * over this root, symbols psyms in T) each block first runs phase 1.
 * Every lane owes at least PLANE_CAP symbols and has bits left for a
 * span of steps computed up front (a step takes at most PLANE_CAP
 * symbols and max(k, p) bits), so the steps need no per-lane exit
 * test.  A step looks up the top p window bits: (count << 8) | bits.
 * With count > 0 and no hole in the lane's next PLANE_CAP slots the
 * lane stores all PLANE_CAP plane symbols at once (the surplus lands in
 * its own later slots, which its next stores overwrite) and advances by
 * count symbols and bits bits; otherwise it takes one root step,
 * jumping holes as phase 2 does.  A run ends past the lane's end bit
 * only where a single codeword would, and the same checks then stop the
 * pass.  A root entry that needs a subtable ends phase 1 for the block.
 * Phase 2 is the single-symbol loop for whatever is left.  *n_sub
 * receives the subtable gathers and *n_plane the plane stores. */
#define CHUNK_DECODE(NAME, T)                                             \
int64_t NAME(const uint8_t *buf, int64_t n_bits, const int64_t *start,    \
             const int64_t *end, const int64_t *nsym, int64_t n_lanes,    \
             const int64_t *out_off, const int64_t *hole_base,            \
             const int64_t *holes, int64_t n_holes, int64_t G,            \
             const int32_t *root, int k, const int32_t *sub,              \
             const int64_t *node_base, const int32_t *node_bits,          \
             const uint16_t *run, int p, const void *psyms,               \
             T *out, int64_t n_out, int64_t *n_sub, int64_t *n_plane) {   \
    if (p < 1 || p > 16) run = NULL;                                      \
    const int sh0 = 64 - k, shp = 64 - p, step = k > p ? k : p;           \
    const uint32_t mask = (1u << k) - 1;                                  \
    const T *ps = (const T *)psyms;                                       \
    enum { B = 8 };                                                       \
    int64_t nd = 0, npl = 0;                                              \
    for (int64_t cb = 0; cb < n_lanes; cb += B) {                         \
        int nbk = (int)((n_lanes - cb < B) ? (n_lanes - cb) : B);         \
        int64_t bp[B], e[B], ns[B], o[B], h[B], he[B], hole[B];          \
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
            hole[j] = h0 < h1 ? holes[h0] : INT64_MAX;                    \
        }                                                                 \
        while (run) {                                                     \
            int64_t safe = INT64_MAX;                                     \
            for (int j = 0; j < nbk; j++) {                               \
                int64_t a = ns[j] / PLANE_CAP;                            \
                int64_t b = (e[j] - bp[j] + step - 1) / step;             \
                if (a < safe) safe = a;                                   \
                if (b < safe) safe = b;                                   \
            }                                                             \
            if (safe <= 0) break;                                         \
            int deep = 0;                                                 \
            for (int64_t t = 0; t < safe; t++) {                          \
                for (int j = 0; j < nbk; j++) {                           \
                    uint64_t x = load_be64(buf + (bp[j] >> 3))            \
                                 << (bp[j] & 7);                          \
                    uint32_t r = run[x >> shp];                           \
                    if (__builtin_expect((r >> 8)                         \
                            && hole[j] >= o[j] + PLANE_CAP, 1)) {         \
                        memcpy(out + o[j], ps + (x >> shp) * PLANE_CAP,   \
                               PLANE_CAP * sizeof(T));                    \
                        o[j] += r >> 8;                                   \
                        ns[j] -= r >> 8;                                  \
                        bp[j] += r & 0xFF;                                \
                        npl++;                                            \
                        continue;                                         \
                    }                                                     \
                    int32_t ent = root[x >> sh0];                         \
                    if (__builtin_expect(!(ent & 0xFF), 0)) {             \
                        deep = 1;                                         \
                        continue;                                         \
                    }                                                     \
                    while (__builtin_expect(o[j] == hole[j], 0)) {        \
                        o[j] += G;                                        \
                        h[j]++;                                           \
                        hole[j] = h[j] < he[j] ? holes[h[j]] : INT64_MAX; \
                    }                                                     \
                    out[o[j]++] = (T)(ent >> 8);                          \
                    ns[j]--;                                              \
                    bp[j] += ent & 0xFF;                                  \
                }                                                         \
                if (deep) break;                                          \
            }                                                             \
            if (deep) break;                                              \
        }                                                                 \
        int64_t maxn = 0;                                                 \
        for (int j = 0; j < nbk; j++)                                     \
            if (ns[j] > maxn) maxn = ns[j];                               \
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
                    hole[j] = h[j] < he[j] ? holes[h[j]] : INT64_MAX;     \
                }                                                         \
                out[o[j]++] = (T)(ent >> 8);                              \
                bp[j] += ent & 0xFF;                                      \
            }                                                             \
        }                                                                 \
        for (int j = 0; j < nbk; j++)                                     \
            if (bp[j] > e[j]) return cb + j;                              \
    }                                                                     \
    *n_sub = nd;                                                          \
    *n_plane = npl;                                                       \
    return -1;                                                            \
}

/* Multi-symbol plane of a decode table's root (the NumPy oracle is
 * repro.huffman.decoder.plane_oracle).  Entry w of the 2^p entries
 * (the top p bits of a window, for any root width k) holds the whole
 * codewords that fit in those p bits, at most PLANE_CAP of them, as the
 * root decodes them with the bits after w zero: run[w] = (count << 8) |
 * their bits, and syms[w * PLANE_CAP ..] the symbols, zero past count.
 * A first codeword longer than p bits (or a root entry of length 0: an
 * index no codeword reaches, or a subtable pointer) gives count 0.
 *
 * One root lookup per entry: if w's first codeword has l <= p bits, the
 * rest of w's run is the run of w' = (w << l) mod 2^p cut to the
 * codewords that end within p - l bits, and to PLANE_CAP - 1 of them.
 * w' has more trailing zeros than w, or is 0 (whose run repeats one
 * codeword), so the entries go by decreasing trailing zeros.  ends[w]
 * (scratch) packs the end bit of w's codeword i into byte i; only the
 * low count bytes are meaningful, and a carry or borrow out of a higher
 * byte runs upward, away from them.
 *
 * Refuses (returns -2, nothing written) p outside [1, 16] or
 * capacities below 2^p, 2^p * PLANE_CAP and 2^p; returns the first
 * entry found holding a symbol T cannot represent (the outputs are then
 * partial), else -1. */
_Static_assert(PLANE_CAP <= 8, "a run's codeword ends pack into 64 bits");
#define MULTI_PLANE(NAME, T)                                              \
int64_t NAME(const int32_t *root, int k, int p, uint16_t *run,            \
             int64_t n_run, T *syms, int64_t n_syms, uint64_t *ends,      \
             int64_t n_ends) {                                            \
    if (p < 1 || p > 16 || n_run < (1LL << p)                             \
        || n_syms / PLANE_CAP < (1LL << p) || n_ends < (1LL << p))        \
        return -2;                                                        \
    const uint64_t ones = 0x0101010101010101ULL, high = ones << 7;        \
    const uint32_t pm = (1u << p) - 1;                                    \
    /* the root index of window w: its top k bits, zero-filled */         \
    const int up = k > p ? k - p : 0, down = p > k ? p - k : 0;           \
    {                                                                     \
        int32_t ent = root[0];                                            \
        uint32_t l = ent & 0xFF, c = 0;                                   \
        if (l && l <= (uint32_t)p) {                                      \
            c = p / l < PLANE_CAP ? p / l : PLANE_CAP;                    \
            if ((uint64_t)(ent >> 8) != (T)(ent >> 8)) return 0;          \
        }                                                                 \
        uint64_t e = 0;                                                   \
        for (uint32_t i = 0; i < PLANE_CAP; i++) {                        \
            syms[i] = i < c ? (T)(ent >> 8) : 0;                          \
            e |= (uint64_t)(i < c ? (i + 1) * l : 0) << (8 * i);          \
        }                                                                 \
        ends[0] = e;                                                      \
        run[0] = (uint16_t)((c << 8) | (c * l));                          \
    }                                                                     \
    for (int t = p - 1; t >= 0; t--) {                                    \
        for (uint32_t w = 1u << t; w <= pm; w += 2u << t) {               \
            T *d = syms + (int64_t)w * PLANE_CAP;                         \
            int32_t ent = root[(w << up) >> down];                        \
            uint32_t l = ent & 0xFF;                                      \
            if (!l || l > (uint32_t)p) {                                  \
                memset(d, 0, PLANE_CAP * sizeof(T));                      \
                ends[w] = 0;                                              \
                run[w] = 0;                                               \
                continue;                                                 \
            }                                                             \
            if ((uint64_t)(ent >> 8) != (T)(ent >> 8)) return w;          \
            uint32_t ws = (w << l) & pm;                                  \
            uint64_t se = ends[ws];                                       \
            uint32_t sc = run[ws] >> 8;                                   \
            if (sc > PLANE_CAP - 1) sc = PLANE_CAP - 1;                   \
            /* byte i of fit has its high bit iff end i <= p - l */       \
            uint64_t fit = ((((p - l) * ones) | high) - se)               \
                           & high & ((1ULL << (8 * sc)) - 1);             \
            uint32_t m = fit ? (64 - __builtin_clzll(fit)) >> 3 : 0;      \
            d[0] = (T)(ent >> 8);                                         \
            memcpy(d + 1, syms + (int64_t)ws * PLANE_CAP,                 \
                   (PLANE_CAP - 1) * sizeof(T));                          \
            for (uint32_t i = m + 1; i <= sc; i++) d[i] = 0;              \
            uint64_t de = (se << 8) + l * ones;                           \
            ends[w] = de;                                                 \
            run[w] = (uint16_t)(((m + 1) << 8) | ((de >> (8 * m)) & 0xFF)); \
        }                                                                 \
    }                                                                     \
    return -1;                                                            \
}

/* Decode setup: the canonical book, its packed decode table and the
 * container's lane layout, each the compiled form of a NumPy oracle. */

/* Canonical codes from a length vector (oracle:
 * repro.huffman.codebook.canonical_from_lengths); a length <= 0 marks an
 * unused symbol.  One sweep counts the symbols per length, the longest
 * length (info[0]) and the used symbols (info[1]).  The canonical
 * recurrence first[l] = (first[l-1] + count[l-1]) << 1 is then checked
 * against Kraft at every length: first[l] + count[l] <= 2^l says the
 * Kraft sum up to l is at most 1, so the check is exact and no value
 * passes 2^63 + n.  A second sweep gives each used symbol the next code
 * of its length and its slot in sbc, the symbols in (length, symbol)
 * order; entry[l] counts the codes shorter than l.
 *
 * Returns -1; 1 for a length above 63 and 2 for a Kraft violation
 * (nothing but info written); -2, checked before any other write, when
 * codes holds fewer than n entries, first and entry fewer than
 * maxlen + 1 or sbc fewer than the used symbols. */
int64_t canonical_codes(const int32_t *len, int64_t n, uint64_t *codes,
                        int64_t n_codes, int64_t *first, int64_t *entry,
                        int64_t n_first, int64_t *sbc, int64_t n_sbc,
                        int64_t *info) {
    int64_t count[64] = {0}, maxlen = 0, used = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t l = len[i];
        if (l <= 0) continue;
        used++;
        if (l > maxlen) maxlen = l;
        if (l < 64) count[l]++;
    }
    info[0] = maxlen;
    info[1] = used;
    if (maxlen > 63) return 1;
    uint64_t code = 0;
    for (int64_t l = 1; l <= maxlen; l++) {
        code = (code + (uint64_t)count[l - 1]) << 1;
        if (code + (uint64_t)count[l] > (1ULL << l)) return 2;
    }
    if (n_codes < n || n_first < maxlen + 1 || n_sbc < used) return -2;
    uint64_t next[64];
    int64_t pos[64];
    first[0] = entry[0] = 0;
    code = 0;
    for (int64_t l = 1; l <= maxlen; l++) {
        code = (code + (uint64_t)count[l - 1]) << 1;
        first[l] = (int64_t)code;
        entry[l] = entry[l - 1] + count[l - 1];
        next[l] = code;
        pos[l] = entry[l];
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t l = len[i];
        if (l <= 0) {
            codes[i] = 0;
            continue;
        }
        codes[i] = next[l]++;
        sbc[pos[l]++] = i;
    }
    return -1;
}

/* The packed decode table of repro.huffman.decoder.DecodeTable (oracle:
 * repro.huffman.decoder.table_oracle), in two passes over order, the
 * book's used symbols by ascending left-aligned codeword: a canonical
 * book's symbols_by_code.  Entries are (symbol << 8) | absolute length,
 * (node << 8) for a subtable pointer and TABLE_INVALID where no codeword
 * reaches.
 *
 * decode_table_plan checks order first and returns -3 (the caller then
 * builds with NumPy) unless it lists exactly the used symbols, each in
 * [0, n) with 1 <= len <= maxlen <= 63 and code < 2^len, every
 * codeword's left-aligned span starting at or after the previous one's
 * end: a sorted prefix code.  Then it numbers the subtable nodes as the
 * oracle does, breadth first.  The root's nodes are the distinct k-bit
 * prefixes of the codewords longer than k; a node that has consumed
 * cons bits is indexed by e = rem bits if its longest codeword has
 * rem <= spill bits left, else by e = narrow bits; its codewords that
 * end within those e bits fill spans of it, and the distinct next-e-bit
 * prefixes of the rest are its children, numbered after every node of
 * its depth.  Sorted codewords put each node's codewords in one run of
 * order, so the plan records run[2q], run[2q + 1], cons[q] and bits[q]
 * per node q, info[0] the node count and info[1] the subtable entries.
 * A codeword that descends has e = narrow, so one of length l passes
 * ceil((l - k) / narrow) nodes: cap is sized from that, and each node
 * is checked against it before it is written (-2).
 *
 * decode_table_fill writes root (2^k entries), sub and node_base from
 * the plan, left to right: each table's unreached entries are filled
 * with TABLE_INVALID as the cursor passes them.  It returns -2 before
 * any write when root is not 2^k entries, a width lies outside [1, 30]
 * or the widths need more than n_sub entries; -3 when an order entry or
 * a node's run is out of range or a child pointer would name a node
 * past n_nodes (every store stays inside its own table either way);
 * else the number of TABLE_INVALID entries: 0 iff the table is
 * complete. */
#define TABLE_INVALID (-256)

static inline int table_entry_ok(const int32_t *len, const uint64_t *codes,
                                 int64_t n, int64_t s, int64_t maxlen) {
    if (s < 0 || s >= n) return 0;
    int64_t l = len[s];
    return l >= 1 && l <= maxlen && (codes[s] >> l) == 0;
}

int64_t decode_table_plan(const int32_t *len, const uint64_t *codes,
                          int64_t n, const int64_t *order, int64_t n_order,
                          int k, int maxlen, int narrow, int spill,
                          int64_t *run, int32_t *cons, int32_t *bits,
                          int64_t cap, int64_t *info) {
    if (k < 1 || k > 30 || maxlen < 0 || maxlen > 63 || narrow < 1
        || spill < narrow || spill > 30 || n > (1LL << 23))
        return -3;
    int64_t used = 0;
    for (int64_t i = 0; i < n; i++) used += len[i] > 0;
    if (used != n_order) return -3;
    int64_t nn = 0;
    uint64_t prev_end = 0, lastp = 0;
    for (int64_t i = 0; i < n_order; i++) {
        int64_t s = order[i];
        if (!table_entry_ok(len, codes, n, s, maxlen)) return -3;
        int64_t l = len[s];
        uint64_t start = codes[s] << (maxlen - l);
        if (start < prev_end) return -3;
        prev_end = start + (1ULL << (maxlen - l));
        if (l <= k) continue;
        uint64_t p = codes[s] >> (l - k);
        if (nn == 0 || p != lastp) {
            if (nn >= cap) return -2;
            run[2 * nn] = i;
            cons[nn] = k;
            nn++;
            lastp = p;
        }
        run[2 * nn - 1] = i + 1;
    }
    int64_t nsub = 0;
    for (int64_t q = 0; q < nn; q++) {
        int64_t lo = run[2 * q], hi = run[2 * q + 1], top = 0;
        int c = cons[q];
        for (int64_t i = lo; i < hi; i++)
            if (len[order[i]] > top) top = len[order[i]];
        int rem = (int)top - c, e = rem <= spill ? rem : narrow;
        bits[q] = e;
        nsub += 1LL << e;
        int64_t first_child = nn;
        for (int64_t i = lo; i < hi; i++) {
            int64_t s = order[i], l = len[s];
            if (l <= c + e) continue;
            uint64_t p = (codes[s] >> (l - c - e)) & ((1ULL << e) - 1);
            if (nn == first_child || p != lastp) {
                if (nn >= cap) return -2;
                run[2 * nn] = i;
                cons[nn] = c + e;
                nn++;
                lastp = p;
            }
            run[2 * nn - 1] = i + 1;
        }
    }
    info[0] = nn;
    info[1] = nsub;
    return -1;
}

static inline int64_t table_gap(int32_t *t, int64_t at, int64_t to) {
    /* TABLE_INVALID over [at, to); returns the entries written */
    int64_t w = 0;
    for (; at < to; at++, w++) t[at] = TABLE_INVALID;
    return w;
}

int64_t decode_table_fill(const int32_t *len, const uint64_t *codes,
                          int64_t n, const int64_t *order, int64_t n_order,
                          int k, const int64_t *run, const int32_t *cons,
                          const int32_t *bits, int64_t n_nodes,
                          int32_t *root, int64_t n_root, int32_t *sub,
                          int64_t n_sub, int64_t *node_base) {
    if (k < 1 || k > 30 || n_root != (1LL << k)) return -2;
    int64_t total = 0;
    for (int64_t q = 0; q < n_nodes; q++) {
        if (bits[q] < 1 || bits[q] > 30) return -2;
        total += 1LL << bits[q];
        if (total > n_sub) return -2;
    }
    if (n > (1LL << 23)) return -3;
    total = 0;
    for (int64_t q = 0; q < n_nodes; q++) {
        node_base[q] = total;
        total += 1LL << bits[q];
    }
    int64_t bad = 0, cur = 0, next_id = 0;
    uint64_t lastp = 0;
    for (int64_t i = 0; i < n_order; i++) {
        int64_t s = order[i];
        if (!table_entry_ok(len, codes, n, s, 63)) return -3;
        int64_t l = len[s];
        if (l <= k) {
            int64_t st = (int64_t)(codes[s] << (k - l)), sp = 1LL << (k - l);
            bad += table_gap(root, cur, st);
            int32_t v = (int32_t)((s << 8) | l);
            for (int64_t j = st; j < st + sp; j++) root[j] = v;
            if (st + sp > cur) cur = st + sp;
            continue;
        }
        int64_t p = (int64_t)(codes[s] >> (l - k));
        if (next_id && (uint64_t)p == lastp) continue;
        if (next_id >= n_nodes) return -3;
        bad += table_gap(root, cur, p);
        root[p] = (int32_t)(next_id++ << 8);
        if (p + 1 > cur) cur = p + 1;
        lastp = (uint64_t)p;
    }
    bad += table_gap(root, cur, n_root);
    for (int64_t q = 0; q < n_nodes; q++) {
        int64_t lo = run[2 * q], hi = run[2 * q + 1];
        int c = cons[q], e = bits[q];
        if (lo < 0 || lo > hi || hi > n_order || c < 1 || c > 63) return -3;
        int32_t *t = sub + node_base[q];
        int64_t size = 1LL << e, first_child = next_id;
        cur = 0;
        for (int64_t i = lo; i < hi; i++) {
            int64_t s = order[i], l = len[s];
            if (l <= c) return -3;
            if (l <= c + e) {
                int rem = (int)(l - c);
                int64_t st = (int64_t)(codes[s] & ((1ULL << rem) - 1))
                             << (e - rem);
                int64_t sp = 1LL << (e - rem);
                bad += table_gap(t, cur, st);
                int32_t v = (int32_t)((s << 8) | l);
                for (int64_t j = st; j < st + sp; j++) t[j] = v;
                if (st + sp > cur) cur = st + sp;
                continue;
            }
            int64_t p = (int64_t)((codes[s] >> (l - c - e)) & (size - 1));
            if (next_id > first_child && (uint64_t)p == lastp) continue;
            if (next_id >= n_nodes) return -3;
            bad += table_gap(t, cur, p);
            t[p] = (int32_t)(next_id++ << 8);
            if (p + 1 > cur) cur = p + 1;
            lastp = (uint64_t)p;
        }
        bad += table_gap(t, cur, size);
    }
    return bad;
}

/* The decode lanes of a container (oracle:
 * repro.core.bitstream.layout_oracle): its n_chunks chunk lanes, its nnz
 * broken-cell lanes and, when tail_syms > 0, the tail lane, over one
 * buffer holding the chunk payload (n_payload bytes), the breaking
 * payload (n_bpayload) and the tail payload (n_tail) back to back.  Each
 * lane's start bit, end bit, symbol count and output offset go to out in
 * four blocks of n_lanes, then the n_lanes + 1 hole bases and the nnz
 * holes (cell * G, the output slot where a broken cell starts).  Chunk c
 * starts at byte offsets[c], ends chunk_bits[c] bits later, holds
 * (cpc - its broken cells) * G symbols from c * cpc * G on and owns the
 * holes from hole_base[c] = its first broken cell; broken cell j starts
 * at byte n_payload + boffsets[j], ends blen[j] bits later, holds G
 * symbols from cells[j] * G on; the tail starts at byte n_payload +
 * n_bpayload and lands after the last chunk.  cells are uint32, or
 * int64 if cells_wide; blen uint16, or int64 if blen_wide; both may sit
 * at any byte address (views into a container), so they are read with
 * memcpy.  Arithmetic wraps as the oracle's int64 NumPy arithmetic
 * does.
 *
 * Before any write it returns -2 unless out holds 5 * n_lanes + 1 + nnz
 * entries, then the oracle's section checks in its order: 1 when the
 * chunk offsets run past the chunk payload, 2 when the breaking offsets
 * run past the breaking payload, 3 when the tail bits pass the tail
 * payload, 4 when the cell indices do not increase strictly within
 * [0, n_chunks * cpc).  Else -1. */
static inline int64_t load_index(const void *a, int wide, int64_t j) {
    if (wide) {
        int64_t v;
        memcpy(&v, (const char *)a + 8 * j, 8);
        return v;
    }
    uint32_t v;
    memcpy(&v, (const char *)a + 4 * j, 4);
    return v;
}

static inline int64_t load_length(const void *a, int wide, int64_t j) {
    if (wide) {
        int64_t v;
        memcpy(&v, (const char *)a + 8 * j, 8);
        return v;
    }
    uint16_t v;
    memcpy(&v, (const char *)a + 2 * j, 2);
    return v;
}

int64_t lane_layout(int64_t n_chunks, int64_t cpc, int64_t G,
                    const int64_t *offsets, const int64_t *chunk_bits,
                    int64_t n_payload, const void *cells, int cells_wide,
                    const void *blen, int blen_wide,
                    const int64_t *boffsets, int64_t nnz,
                    int64_t n_bpayload, int64_t tail_syms,
                    int64_t tail_bits, int64_t n_tail, int64_t *out,
                    int64_t n_out) {
    if (n_chunks < 0 || nnz < 0 || cpc < 0 || G < 0) return -2;
    const int64_t n_lanes = n_chunks + nnz + (tail_syms > 0);
    if (n_out < 5 * n_lanes + 1 + nnz) return -2;
    if (n_chunks && offsets[n_chunks] > n_payload) return 1;
    if (nnz && boffsets[nnz] > n_bpayload) return 2;
    if (tail_bits > n_tail * 8) return 3;
    const int64_t n_cells = n_chunks * cpc;
    for (int64_t j = 0, prev = -1; j < nnz; j++) {
        int64_t c = load_index(cells, cells_wide, j);
        if (c <= prev || c >= n_cells) return 4;
        prev = c;
    }
    int64_t *start = out, *end = out + n_lanes, *nsym = out + 2 * n_lanes,
            *off = out + 3 * n_lanes, *hole_base = out + 4 * n_lanes,
            *holes = hole_base + n_lanes + 1;
    const uint64_t N = (uint64_t)cpc * (uint64_t)G;
    int64_t j = 0;
    for (int64_t c = 0; c < n_chunks; c++) {
        int64_t j0 = j, lim = (c + 1) * cpc;
        while (j < nnz && load_index(cells, cells_wide, j) < lim) j++;
        start[c] = (int64_t)((uint64_t)offsets[c] * 8);
        end[c] = (int64_t)((uint64_t)start[c] + (uint64_t)chunk_bits[c]);
        nsym[c] = (cpc - (j - j0)) * G;
        off[c] = (int64_t)(c * N);
        hole_base[c] = j0;
    }
    const uint64_t bbase = (uint64_t)n_payload * 8;
    for (j = 0; j < nnz; j++) {
        int64_t i = n_chunks + j;
        int64_t c = load_index(cells, cells_wide, j);
        int64_t l = load_length(blen, blen_wide, j);
        start[i] = (int64_t)(bbase + (uint64_t)boffsets[j] * 8);
        end[i] = (int64_t)((uint64_t)start[i] + (uint64_t)l);
        nsym[i] = G;
        off[i] = (int64_t)((uint64_t)c * (uint64_t)G);
        hole_base[i] = nnz;
        holes[j] = off[i];
    }
    if (tail_syms > 0) {
        int64_t i = n_lanes - 1;
        start[i] = (int64_t)(((uint64_t)n_payload + (uint64_t)n_bpayload)
                             * 8);
        end[i] = (int64_t)((uint64_t)start[i] + (uint64_t)tail_bits);
        nsym[i] = tail_syms;
        off[i] = (int64_t)((uint64_t)n_chunks * N);
        hole_base[i] = nnz;
    }
    hole_base[n_lanes] = nnz;
    return -1;
}

/* Encode.  tab is the book's packed gather table, entry
 * (code << 16) | length per symbol (scan_pack.packed_codeword_table);
 * K is its size.  The pass compares every symbol with K before the
 * gather, so no symbol value reads outside tab. */

/* One pass per chunk of cpc cells, G = 2^r symbols each, that writes
 * the coalesced payload: chunk c's dense bits go MSB-first into out from
 * byte offsets[c] on, and offsets[c + 1] = offsets[c] + ceil(bits[c] / 8),
 * so no word grid and no copy follow.  broken[] marks a cell iff its true
 * length exceeds W.  The value merge runs unconditionally (each shift is
 * by one codeword length, at most MAX_CODE_BITS = 63): it is exact for a
 * kept cell, whose codewords total <= W <= 32 bits, and discarded for a
 * broken one.  Kept cells append to a bit accumulator whose low nacc < 32
 * bits are pending; every kept cell stores the accumulator's next 32 bits
 * big-endian at o and advances o by 4 only when they are all real (a
 * branchless flush: a partial word is overwritten by the next store; the
 * byte stream does not depend on W), and a chunk's last 1..31 bits go out
 * as one more 4-byte store whose zero low bytes the next chunk
 * overwrites.
 *
 * A chunk's kept bits are at most cpc * W, and o only moves past full
 * words, so it writes at most cpc * W / 8 + 4 bytes from its offset; a
 * chunk that could pass n_out is refused before it starts.
 *
 * Every broken cell also goes to the breaking side channel (the paper's
 * backtrace and dense-to-sparse save, in the same pass): its index to
 * bidx, its bit length to blen (int64 if wide, else uint16), and its
 * codewords, read from codes (the exact uint64 values: tab keeps only 48
 * bits of one), MSB-first into bpay from a running byte offset, padded
 * with zeros to a byte boundary.  Before a broken cell is written, its
 * index slot and its exact ceil(length / 8) bytes are checked against
 * n_bidx and n_bpay.  side[0] receives the broken-cell count, side[1] the
 * side-channel bytes.
 *
 * Returns -1; -2 for a refused chunk or a broken cell past a side-channel
 * capacity (nothing is written past any capacity); or the index of the
 * first symbol that is out of range or has no codeword (a zero length
 * byte; tab and codes are read only below K).  The outputs are then
 * incomplete. */
static inline uint8_t *put_bits(uint8_t *q, uint64_t *acc, int *nacc,
                                uint64_t v, int l) {
    /* append l <= 32 bits to an accumulator of *nacc < 32 pending bits,
     * storing a big-endian word once 32 are pending */
    *acc = (*acc << l) | v;
    *nacc += l;
    if (*nacc >= 32) {
        *nacc -= 32;
        uint32_t w = __builtin_bswap32((uint32_t)(*acc >> *nacc));
        memcpy(q, &w, 4);
        q += 4;
    }
    return q;
}

#define SCAN_PACK(NAME, T)                                                \
int64_t NAME(const T *sym, int64_t n_chunks, int64_t G, int64_t cpc,      \
             int W, const uint64_t *tab, const uint64_t *codes,           \
             int64_t K, uint8_t *out, int64_t n_out, int64_t *offsets,    \
             int64_t *bits, uint8_t *broken, uint32_t *bidx, void *blen,  \
             int wide, int64_t n_bidx, uint8_t *bpay, int64_t n_bpay,     \
             int64_t *side) {                                             \
    const int64_t worst = cpc * W / 8 + 4;                                \
    int64_t pos = 0, nbrk = 0, bpos = 0;                                  \
    offsets[0] = 0;                                                       \
    for (int64_t c = 0; c < n_chunks; c++) {                              \
        if (n_out - pos < worst) return -2;                               \
        const T *p = sym + c * cpc * G;                                   \
        uint8_t *o = out + pos;                                           \
        uint64_t acc = 0;                                                 \
        int64_t nacc = 0, cb = 0;                                         \
        for (int64_t j = 0; j < cpc; j++, p += G) {                       \
            int64_t len = 0;                                              \
            uint64_t v = 0;                                               \
            for (int64_t g = 0; g < G; g++) {                             \
                uint64_t s = p[g];                                        \
                uint64_t e = s < (uint64_t)K ? tab[s] : 0;                \
                int64_t l = (int64_t)(e & 0xFFFF);                        \
                if (__builtin_expect(!l, 0))                              \
                    return (c * cpc + j) * G + g;                         \
                len += l;                                                 \
                v = (v << l) | (e >> 16);                                 \
            }                                                             \
            broken[c * cpc + j] = (uint8_t)(len > W);                     \
            if (__builtin_expect(len <= W, 1)) {                          \
                acc = (acc << len) | v;                                   \
                nacc += len;                                              \
                cb += len;                                                \
                int64_t full = nacc >= 32;                                \
                nacc -= full << 5;                                        \
                uint32_t w = __builtin_bswap32((uint32_t)(acc >> nacc));  \
                memcpy(o, &w, 4);                                         \
                o += full << 2;                                           \
                continue;                                                 \
            }                                                             \
            int64_t nb = (len + 7) >> 3;                                  \
            if (nbrk >= n_bidx || n_bpay - bpos < nb) return -2;          \
            bidx[nbrk] = (uint32_t)(c * cpc + j);                         \
            if (wide) ((int64_t *)blen)[nbrk] = len;                      \
            else ((uint16_t *)blen)[nbrk] = (uint16_t)len;                \
            nbrk++;                                                       \
            uint8_t *q = bpay + bpos;                                     \
            uint64_t a = 0;                                               \
            int na = 0;                                                   \
            for (int64_t g = 0; g < G; g++) {                             \
                uint64_t s = p[g];                                        \
                int l = (int)(tab[s] & 0xFFFF);                           \
                uint64_t x = codes[s] & ((2ULL << (l - 1)) - 1);          \
                if (l > 32) {                                             \
                    q = put_bits(q, &a, &na, x >> 32, l - 32);            \
                    x &= 0xFFFFFFFFULL;                                   \
                    l = 32;                                               \
                }                                                         \
                q = put_bits(q, &a, &na, x, l);                           \
            }                                                             \
            if (na) {                                                     \
                uint32_t w = (uint32_t)(a << (32 - na));                  \
                for (int b = 0; b < na; b += 8, w <<= 8)                  \
                    *q++ = (uint8_t)(w >> 24);                            \
            }                                                             \
            bpos += nb;                                                   \
        }                                                                 \
        if (nacc) {                                                       \
            uint32_t w = (uint32_t)(acc << (32 - nacc));                  \
            w = __builtin_bswap32(w);                                     \
            memcpy(o, &w, 4);                                             \
        }                                                                 \
        bits[c] = cb;                                                     \
        pos += (cb + 7) >> 3;                                             \
        offsets[c + 1] = pos;                                             \
    }                                                                     \
    side[0] = nbrk;                                                       \
    side[1] = bpos;                                                       \
    return -1;                                                            \
}

/* Huffman codeword lengths of m counts f in ascending order (the oracle
 * is repro.core.codebook_parallel._two_queue_lengths): the two-queue
 * build, where leaves wait in f order and internal nodes in creation
 * order (their weights never decrease), and each meld takes the two
 * smallest fronts, a leaf winning a tie with an internal node
 * (GenerateCL's tie rule).  Parents are created after their children,
 * so one reverse sweep over the internal nodes gives every depth, and a
 * leaf's length is its parent's depth plus one.  Weights add as uint64.
 *
 * scratch holds 3 * m words: the internal nodes' weights (then their
 * depths), their parents and each leaf's parent.  Every index stays in
 * range whatever the counts: melding node t has consumed 2t items, so
 * the internal queue is never read at or past its end.  Returns -2
 * (nothing written) when scratch holds fewer than 3 * m words or len
 * fewer than m entries, else -1. */
int64_t two_queue_lengths(const int64_t *f, int64_t m, uint64_t *scratch,
                          int64_t n_scratch, int32_t *len, int64_t n_len) {
    if (m < 0 || n_len < m || n_scratch / 3 < m) return -2;
    if (m <= 1) {
        for (int64_t i = 0; i < m; i++) len[i] = 1;
        return -1;
    }
    uint64_t *w = scratch, *par = scratch + m, *leaf = scratch + 2 * m;
    int64_t li = 0, ii = 0;
    for (int64_t node = 0; node < m - 1; node++) {
        uint64_t sum = 0;
        for (int k = 0; k < 2; k++) {
            if (li < m && (ii == node || (uint64_t)f[li] <= w[ii])) {
                sum += (uint64_t)f[li];
                leaf[li++] = (uint64_t)node;
            } else {
                sum += w[ii];
                par[ii++] = (uint64_t)node;
            }
        }
        w[node] = sum;
    }
    /* the last node is the root; depths overwrite the weights */
    w[m - 2] = 0;
    for (int64_t j = m - 3; j >= 0; j--) w[j] = w[par[j]] + 1;
    for (int64_t i = 0; i < m; i++) len[i] = (int32_t)(w[leaf[i]] + 1);
    return -1;
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
 * its code is q - q_prev + n_bins / 2.  Built with -fno-math-errno, the
 * cast of rint is one cvtsd2si, which rounds half-even in the default
 * rounding mode exactly as rint does.  A code outside [0, n_bins)
 * makes i an outlier, and so is every following point whose code from
 * its exact predecessor, rint((x[j] - x[j - 1]) / eb2) + n_bins / 2,
 * falls outside too.  Outliers keep the centre code and their indices
 * go to oidx in order; the last one of a run is the new anchor
 * (q_prev = 0).  A quotient that is not finite or reaches 2^62 in
 * magnitude is never cast (NumPy's int64 cast of it is platform
 * defined): the pass returns that point's index and the outputs are
 * partial.  So |q|, |q_prev| < 2^62 and q - q_prev cannot overflow; it
 * is range-checked before the centre is added.
 *
 * hist, when not NULL, receives the count of every code written
 * (outliers' centre codes and point 0's included), cleared first; its
 * capacity n_hist must hold n_bins counts, else the pass returns -2
 * before it writes anything.  Else it returns -1 and *n_oidx outliers
 * (at most n - 1, so oidx holds n entries). */
#define LORENZO_QUANTIZE(NAME, T)                                         \
static inline __attribute__((always_inline)) int64_t                      \
NAME##_walk(const double *x, int64_t n, double eb2, int64_t n_bins,       \
            T *codes, int64_t *oidx, int64_t *n_oidx, int64_t *hist,      \
            const int count) {                                            \
    const int64_t center = n_bins / 2;                                    \
    int64_t no = 0;                                                       \
    if (n == 0) return -1;                                                \
    codes[0] = (T)center;                                                 \
    if (count) hist[center]++;                                            \
    double a = x[0];                                                      \
    int64_t qp = 0;                                                       \
    for (int64_t i = 1; i < n; ) {                                        \
        double t = (x[i] - a) / eb2;                                      \
        if (!(fabs(t) < 0x1p62)) return i;                                \
        int64_t q = (int64_t)rint(t);                                     \
        uint64_t c = (uint64_t)(q - qp) + (uint64_t)center;               \
        if (c < (uint64_t)n_bins) {                                       \
            codes[i++] = (T)c;                                            \
            if (count) hist[c]++;                                         \
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
        if (count) hist[center] += j - i;                                 \
        a = x[j - 1];                                                     \
        qp = 0;                                                           \
        i = j;                                                            \
    }                                                                     \
    *n_oidx = no;                                                         \
    return -1;                                                            \
}                                                                         \
int64_t NAME(const double *x, int64_t n, double eb2, int64_t n_bins,      \
             T *codes, int64_t *oidx, int64_t *n_oidx, int64_t *hist,     \
             int64_t n_hist) {                                            \
    *n_oidx = 0;                                                          \
    if (!hist)                                                            \
        return NAME##_walk(x, n, eb2, n_bins, codes, oidx, n_oidx,        \
                           NULL, 0);                                      \
    if (n_hist < n_bins) return -2;                                       \
    memset(hist, 0, (size_t)n_bins * sizeof *hist);                       \
    return NAME##_walk(x, n, eb2, n_bins, codes, oidx, n_oidx, hist, 1);  \
}

/* Lorenzo dequantize (oracle: the NumPy body of
 * repro.datasets.quantization.dequantize).  One int64 running sum q of
 * the code steps code - center, reset to 0 at point 0 and at every
 * outlier; out[i] = anchor + (double)q * eb2, the anchor being first or
 * the outlier's value (no fused multiply-add: -ffp-contract=off, as the
 * oracle rounds).  Every step lies in [-center, tmax], tmax the code
 * type's largest value, so |q| <= (n - 1) * max(center, tmax): the pass
 * returns -2 before it reads anything when that product could pass
 * INT64_MAX, or when center is outside [0, 2^32] (no code type has more
 * bins).  Before it is used, each outlier index must exceed the previous
 * anchor (0 for the first) and lie below n.  Returns -1, or the position
 * in oidx of the first index that does not (out is then partial). */
#define LORENZO_DEQUANTIZE(NAME, T)                                       \
int64_t NAME(const T *codes, int64_t n, double eb2, int64_t center,       \
             double first, const int64_t *oidx, const double *oval,       \
             int64_t n_oidx, double *out) {                               \
    const int64_t tmax = (int64_t)(T)-1;                                  \
    if (center < 0 || center > ((int64_t)1 << 32)) return -2;             \
    const int64_t s = center > tmax ? center : tmax;                      \
    if (n > 1 && n - 1 > INT64_MAX / s) return -2;                        \
    int64_t k = 0, next = n;                                              \
    if (n == 0) return n_oidx ? 0 : -1;                                   \
    if (n_oidx) {                                                         \
        if (oidx[0] < 1 || oidx[0] >= n) return 0;                        \
        next = oidx[0];                                                   \
    }                                                                     \
    int64_t q = 0;                                                        \
    double av = first;                                                    \
    out[0] = av + (double)q * eb2;                                        \
    for (int64_t i = 1; i < n; i++) {                                     \
        if (i == next) {                                                  \
            q = 0;                                                        \
            av = oval[k++];                                               \
            next = n;                                                     \
            if (k < n_oidx) {                                             \
                if (oidx[k] <= i || oidx[k] >= n) return k;               \
                next = oidx[k];                                           \
            }                                                             \
        } else {                                                          \
            q += (int64_t)codes[i] - center;                              \
        }                                                                 \
        out[i] = av + (double)q * eb2;                                    \
    }                                                                     \
    return -1;                                                            \
}

SCAN_PACK(scan_pack_u8, uint8_t)
SCAN_PACK(scan_pack_u16, uint16_t)
SCAN_PACK(scan_pack_u32, uint32_t)
CHUNK_DECODE(chunk_decode_u8, uint8_t)
CHUNK_DECODE(chunk_decode_u16, uint16_t)
CHUNK_DECODE(chunk_decode_u32, uint32_t)
CHUNK_DECODE(chunk_decode_i64, int64_t)
MULTI_PLANE(multi_plane_u8, uint8_t)
MULTI_PLANE(multi_plane_u16, uint16_t)
MULTI_PLANE(multi_plane_u32, uint32_t)
HISTOGRAM(histogram_u8, uint8_t)
HISTOGRAM(histogram_u16, uint16_t)
HISTOGRAM(histogram_u32, uint32_t)
""" + "".join(
    f"LORENZO_QUANTIZE(lorenzo_quantize_{sfx}, {ct})\n"
    f"LORENZO_DEQUANTIZE(lorenzo_dequantize_{sfx}, {ct})\n"
    for sfx, ct in _CODE_VARIANTS.values()
)


#: the cffi array type ``NativeKernel._p`` views a buffer as, per pointer
#: type the passes take
_ARRAY_TYPES = {
    f"{t} *": f"{t}[]"
    for t in ("uint8_t", "uint16_t", "uint32_t", "int32_t", "int64_t",
              "uint64_t", "double")
}
_ARRAY_TYPES["void *"] = "char[]"


def _aligned(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` as a contiguous, aligned array of ``dtype``: itself when
    it already is one (the common case, checked without
    ``np.require``'s cost), else a copy."""
    if (arr.dtype == dtype and arr.flags.c_contiguous
            and arr.flags.aligned):
        return arr
    return np.require(arr, dtype, ["C", "A"])


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
        """``arr``'s contiguous data as the C pointer type ``ctype``: a
        buffer reference (it keeps ``arr`` alive), about five times
        cheaper per call than casting ``arr.ctypes.data``."""
        return self._ffi.from_buffer(_ARRAY_TYPES[ctype], arr)

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
        plane: bool = False,
    ) -> tuple[int, int, int]:
        """Decode every lane into ``out`` (``n_out = out.size``): the
        returned triple is ``-1`` or the first lane found out of bounds
        or exhausted (``out`` is then partial), the subtable gathers
        taken and the stores made from the table's multi-symbol plane
        (``plane=True``, which needs ``out`` in the plane's dtype)."""
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
        if plane:
            if table.plane_syms is None or table.plane_syms.dtype != out.dtype:
                raise ValueError("the table has no plane in the output dtype")
            if not (1 <= table.plane_bits <= 16
                    and table.run.shape == (1 << table.plane_bits,)
                    and table.plane_syms.shape == (table.run.size
                                                   * PLANE_CAP,)
                    and table.run.dtype == np.uint16
                    and table.run.flags.c_contiguous
                    and table.plane_syms.flags.c_contiguous):
                raise ValueError("the table's plane arrays disagree in shape")
            plane_args = (self._p("uint16_t *", table.run),
                          int(table.plane_bits),
                          self._p("void *", table.plane_syms))
        else:
            plane_args = (self._ffi.NULL, 0, self._ffi.NULL)
        suffix = {1: "u8", 2: "u16", 4: "u32", 8: "i64"}[out.itemsize]
        ctype = "int64_t *" if out.itemsize == 8 else f"{out.dtype.name}_t *"
        counts = self._ffi.new("int64_t[2]")
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
            *plane_args,
            self._p(ctype, out),
            out.size,
            counts,
            counts + 1,
        )
        return int(bad), int(counts[0]), int(counts[1])

    def multi_plane(
        self, root: np.ndarray, k: int, p: int, dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(run, syms)``: the multi-symbol plane of a ``k``-bit packed
        root over ``p``-bit windows (``1 <= p <= 16``) — ``2**p`` uint16
        ``(count << 8) | bits`` entries and ``PLANE_CAP`` symbols each
        in ``dtype``."""
        dtype = np.dtype(dtype)
        if dtype not in SYMBOL_DTYPES:
            raise ValueError("plane symbols must be uint8/16/32")
        if not 1 <= p <= 16:
            raise ValueError(f"no {p}-bit plane")
        if (root.dtype != np.int32 or not root.flags.c_contiguous
                or root.size != 1 << k):
            raise ValueError("root must be contiguous int32 of 2**k entries")
        run = np.empty(1 << p, np.uint16)
        syms = np.empty((1 << p) * PLANE_CAP, dtype)
        ends = np.empty(run.size, np.uint64)
        suffix = {1: "u8", 2: "u16", 4: "u32"}[dtype.itemsize]
        bad = getattr(self._lib, f"multi_plane_{suffix}")(
            self._p("int32_t *", root), int(k), int(p),
            self._p("uint16_t *", run), run.size,
            self._p(f"{dtype.name}_t *", syms), syms.size,
            self._p("uint64_t *", ends), ends.size,
        )
        if bad >= 0:
            raise ValueError(f"plane entry {bad} holds a symbol past {dtype}")
        return run, syms

    def canonical_codes(
        self, lengths: np.ndarray
    ) -> tuple[int, int, Optional[tuple]]:
        """``(status, max_length, arrays)`` of a length vector:
        ``status`` is ``-1``, ``1`` (a length above 63) or ``2`` (a
        Kraft violation), and with ``-1`` ``arrays`` holds the book's
        ``(lengths, codes, first, entry, symbols_by_code)``, ``lengths``
        as a new int32 array."""
        lengths = np.array(lengths, dtype=np.int32, order="C")
        if lengths.ndim != 1:
            raise ValueError("lengths must be one-dimensional")
        n = lengths.size
        codes = np.empty(n, np.uint64)
        first = np.empty(2 * 64, np.int64)  # first[0:64], entry[64:128]
        sbc = np.empty(n, np.int64)
        info = self._ffi.new("int64_t[2]")
        fp = self._p("int64_t *", first)
        status = self._lib.canonical_codes(
            self._p("int32_t *", lengths), n, self._p("uint64_t *", codes),
            n, fp, fp + 64, 64, self._p("int64_t *", sbc), n, info,
        )
        top = int(info[0])
        if status != -1:
            return int(status), top, None
        return -1, top, (lengths, codes, first[: top + 1],
                         first[64: 65 + top], sbc[: int(info[1])])

    def decode_table(
        self,
        lengths: np.ndarray,
        codes: np.ndarray,
        order: np.ndarray,
        k: int,
        max_length: int,
        narrow: int,
        spill: int,
    ) -> Optional[tuple]:
        """``(root, sub, node_base, node_bits, complete)`` of the packed
        decode table of a book given by its ``lengths``, ``codes`` and
        ``order`` (its used symbols by ascending left-aligned codeword:
        a canonical book's ``symbols_by_code``), with a ``k``-bit root
        and subtable levels of ``narrow`` bits, or up to ``spill`` bits
        for a node's last level; ``None`` when ``order`` is not that
        order of a prefix code (the caller then builds with NumPy)."""
        lengths = _aligned(lengths, np.int32)
        codes = _aligned(codes, np.uint64)
        order = _aligned(order, np.int64)
        n, n_order = lengths.size, order.size
        if codes.shape != (n,) or order.ndim != 1:
            raise ValueError("lengths, codes and order disagree in shape")
        # a codeword of length l passes ceil((l - k) / narrow) nodes
        cap = n_order * max(-(-(int(max_length) - int(k)) // narrow), 0)
        run = np.empty(2 * cap, np.int64)
        cons = np.empty(cap, np.int32)
        bits = np.empty(cap, np.int32)
        info = self._ffi.new("int64_t[2]")
        lp = self._p("int32_t *", lengths)
        cp = self._p("uint64_t *", codes)
        op = self._p("int64_t *", order)
        status = self._lib.decode_table_plan(
            lp, cp, n, op, n_order, int(k), int(max_length), int(narrow),
            int(spill), self._p("int64_t *", run),
            self._p("int32_t *", cons), self._p("int32_t *", bits), cap,
            info,
        )
        if status == -3:
            return None
        if status != -1:
            raise RuntimeError("decode_table_plan refused a node past its "
                               "capacity")
        n_nodes, n_sub = int(info[0]), int(info[1])
        root = np.empty(1 << int(k), np.int32)
        sub = np.empty(n_sub, np.int32)
        node_base = np.empty(n_nodes, np.int64)
        invalid = self._lib.decode_table_fill(
            lp, cp, n, op, n_order, int(k), self._p("int64_t *", run),
            self._p("int32_t *", cons), self._p("int32_t *", bits), n_nodes,
            self._p("int32_t *", root), root.size,
            self._p("int32_t *", sub), n_sub,
            self._p("int64_t *", node_base),
        )
        if invalid < 0:
            raise RuntimeError(f"decode_table_fill refused its plan "
                               f"({invalid})")
        return root, sub, node_base, bits[:n_nodes].copy(), invalid == 0

    def lane_layout(
        self,
        n_chunks: int,
        cells_per_chunk: int,
        group: int,
        offsets: np.ndarray,
        chunk_bits: np.ndarray,
        n_payload: int,
        cells: np.ndarray,
        bit_lengths: np.ndarray,
        boffsets: np.ndarray,
        n_bpayload: int,
        tail_symbols: int,
        tail_bits: int,
        n_tail: int,
    ) -> tuple[int, np.ndarray]:
        """``(status, out)``: the lane layout of a container in one int64
        block — starts, ends, symbol counts and output offsets
        (``n_lanes`` each), the ``n_lanes + 1`` hole bases, then the
        holes — and ``-1``, or the section check that failed (``1``
        chunk payload, ``2`` breaking payload, ``3`` tail payload,
        ``4`` cell indices)."""
        nnz = cells.size
        if not (offsets.shape == (n_chunks + 1,)
                and chunk_bits.shape == (n_chunks,)
                and bit_lengths.shape == (nnz,)
                and boffsets.shape == (nnz + 1,)):
            raise ValueError("layout arrays disagree in shape")
        # the indices and bit lengths may be views at any byte offset of
        # a container: the pass reads them unaligned, so only another
        # dtype costs a copy
        cells_wide = cells.dtype != np.uint32
        cells = np.ascontiguousarray(
            cells, np.int64 if cells_wide else np.uint32)
        blen_wide = bit_lengths.dtype != np.uint16
        bit_lengths = np.ascontiguousarray(
            bit_lengths, np.int64 if blen_wide else np.uint16)
        offsets = _aligned(offsets, np.int64)
        chunk_bits = _aligned(chunk_bits, np.int64)
        boffsets = _aligned(boffsets, np.int64)
        n_lanes = n_chunks + nnz + (tail_symbols > 0)
        out = np.empty(5 * n_lanes + 1 + nnz, np.int64)
        status = self._lib.lane_layout(
            n_chunks, cells_per_chunk, group,
            self._p("int64_t *", offsets), self._p("int64_t *", chunk_bits),
            n_payload,
            self._p("void *", cells), int(cells_wide),
            self._p("void *", bit_lengths), int(blen_wide), self._p("int64_t *", boffsets), nnz, n_bpayload,
            tail_symbols, tail_bits, n_tail,
            self._p("int64_t *", out), out.size,
        )
        if status == -2:
            raise RuntimeError("lane_layout refused its output block")
        return int(status), out

    def _symbols(self, data: np.ndarray) -> tuple[np.ndarray, str, object]:
        """The contiguous symbols as the passes read them — aligned, a
        copy when ``data`` is not (a view into a buffer at an odd offset)
        — with their C-variant suffix and pointer."""
        if data.dtype not in SYMBOL_DTYPES or not data.flags.c_contiguous:
            raise ValueError("symbols must be contiguous uint8/16/32")
        data = np.require(data, requirements=["C", "A"])
        suffix = {1: "u8", 2: "u16", 4: "u32"}[data.dtype.itemsize]
        return data, suffix, self._p(f"{data.dtype.name}_t *", data)

    def _gather(self, table: np.ndarray):
        """Pointer to the encode passes' packed gather table."""
        if table.dtype != np.uint64 or not table.flags.c_contiguous:
            raise ValueError("gather table must be contiguous uint64")
        return self._p("uint64_t *", table)

    def scan_pack(
        self,
        data: np.ndarray,
        table: np.ndarray,
        codes: np.ndarray,
        group_symbols: int,
        cells_per_chunk: int,
        word_bits: int,
        max_length: int,
        total_bits: Optional[int] = None,
    ) -> tuple:
        """``(bits, payload, offsets, broken, side, bad)`` for whole
        chunks of ``data``: per-chunk dense bits, the coalesced uint8
        payload with its ``n_chunks + 1`` byte offsets, per-cell broken
        flags, the breaking side channel ``(cell_indices, bit_lengths,
        side_payload)`` (uint32, ``bit_lengths`` uint16 unless a cell
        can pass 65535 bits, then int64; uint8), and ``-1`` or the index
        of the first symbol that is out of range or has no codeword (the
        other outputs are then incomplete).  ``codes`` holds the book's
        uint64 codewords, one per ``table`` entry, and ``max_length``
        bounds every codeword's length.  ``total_bits`` is at least the
        codeword bits of ``data`` (default: every symbol at
        ``max_length``); the side channel is sized from it, and a total
        that understates them is refused like any short capacity."""
        codes = np.require(codes, np.uint64, ["C", "A"])
        if codes.shape != table.shape:
            raise ValueError("codes and gather table disagree in size")
        n_cells = data.size // group_symbols
        n_chunks = n_cells // cells_per_chunk
        # every chunk's worst case (all cells kept) plus the last chunk's
        # 4-byte trailing store; only the pages the pass writes are touched
        out = np.empty(n_chunks * cells_per_chunk * word_bits // 8 + 4,
                       np.uint8)
        offsets = np.empty(n_chunks + 1, np.int64)
        bits = np.empty(n_chunks, np.int64)
        broken = np.empty(n_cells, np.bool_)
        # a broken cell holds more than W bits, so at most total // (W + 1)
        # cells break, and their byte-aligned bits take at most one byte
        # per cell past ceil(total / 8)
        if total_bits is None:
            total_bits = data.size * int(max_length)
        nnz_max = min(n_cells, int(total_bits) // (word_bits + 1))
        wide = group_symbols * 64 > 0xFFFF
        bidx = np.empty(nnz_max, np.uint32)
        blen = np.empty(nnz_max, np.int64 if wide else np.uint16)
        bpay = np.empty(-(-int(total_bits) // 8) + nnz_max, np.uint8)
        side = self._ffi.new("int64_t[2]")
        data, suffix, sym = self._symbols(data)
        bad = getattr(self._lib, f"scan_pack_{suffix}")(
            sym, n_chunks, group_symbols, cells_per_chunk, word_bits,
            self._gather(table), self._p("uint64_t *", codes), table.size,
            self._p("uint8_t *", out), out.size,
            self._p("int64_t *", offsets),
            self._p("int64_t *", bits),
            self._p("uint8_t *", broken),
            self._p("uint32_t *", bidx), self._p("void *", blen), int(wide),
            bidx.size, self._p("uint8_t *", bpay), bpay.size, side,
        )
        if bad == -2:
            raise RuntimeError("scan_pack refused a chunk or a broken cell "
                               "that could overrun its capacity")
        nnz, nbytes = int(side[0]), int(side[1])
        # copies: the side channel is a sliver of its bounding buffers
        side_channel = (bidx[:nnz].copy(), blen[:nnz].copy(),
                        bpay[:nbytes].copy())
        return (bits, out[: offsets[-1]], offsets, broken, side_channel,
                int(bad))

    def two_queue_lengths(self, f_sorted: np.ndarray) -> np.ndarray:
        """int32 Huffman codeword lengths of the ascending int64 counts
        ``f_sorted``, a leaf winning a tie with an internal node."""
        f = np.require(f_sorted, np.int64, ["C", "A"])
        if f.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        out = np.empty(f.size, np.int32)
        scratch = np.empty(3 * f.size, np.uint64)
        self._lib.two_queue_lengths(
            self._p("int64_t *", f), f.size,
            self._p("uint64_t *", scratch), scratch.size,
            self._p("int32_t *", out), out.size,
        )
        return out

    def histogram(
        self, data: np.ndarray, n_bins: int
    ) -> tuple[np.ndarray, int]:
        """``(hist, bad)``: the int64 counts of ``data`` over ``n_bins``
        bins, and ``-1`` or the index of the first symbol ``>= n_bins``
        (``hist`` is then incomplete)."""
        data, suffix, sym = self._symbols(data)
        hist = np.empty(n_bins, np.int64)
        priv = np.empty(4 * n_bins, np.uint32)
        bad = getattr(self._lib, f"histogram_{suffix}")(
            sym, data.size, n_bins,
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
        self,
        flat: np.ndarray,
        eb2: float,
        n_bins: int,
        codes: np.ndarray,
        hist: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, int]:
        """Quantize ``flat`` into ``codes`` (same size), counting every
        code into ``hist`` (int64, at least ``n_bins`` long) when one is
        given: the returned pair is the int64 outlier indices and ``-1``,
        or the index of the first point whose quotient is not finite or
        reaches 2^62 (the outputs are then partial and must not be
        used).  A ``hist`` shorter than ``n_bins`` raises
        ``ValueError`` (the pass refuses it before writing)."""
        if (flat.dtype != np.float64 or flat.ndim != 1
                or not flat.flags.c_contiguous or codes.shape != flat.shape):
            raise ValueError("values must be contiguous 1-D float64 and "
                             "codes of the same shape")
        suffix, out = self._codes(codes)
        if hist is None:
            hp, n_hist = self._ffi.NULL, 0
        else:
            if hist.dtype != np.int64 or not hist.flags.c_contiguous:
                raise ValueError("histogram must be contiguous int64")
            hp, n_hist = self._p("int64_t *", hist), hist.size
        # holds the worst case (every point but the first an outlier);
        # only the pages the pass writes are ever touched
        oidx = np.empty(flat.size, np.int64)
        n_oidx = self._ffi.new("int64_t *")
        bad = getattr(self._lib, f"lorenzo_quantize_{suffix}")(
            self._p("double *", flat), flat.size, float(eb2), int(n_bins),
            out, self._p("int64_t *", oidx), n_oidx, hp, n_hist,
        )
        if bad == -2:
            raise ValueError("histogram holds fewer than n_bins counts")
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
        partial).  ``bad`` is ``-2``, with nothing read, when ``center``
        is not a code or ``codes.size`` steps could carry the int64
        running sum past 2^63 - 1."""
        suffix, cp = self._codes(codes)
        # aligned too: the outliers may be views into a container
        oidx = np.require(oidx, np.int64, ["C", "A"])
        oval = np.require(oval, np.float64, ["C", "A"])
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


def route(dtype: np.dtype) -> tuple[Optional[NativeKernel], Optional[str]]:
    """``(kernel, reason)``: the compiled module when it loads and has a
    Lorenzo variant for the code dtype ``dtype``, else ``None`` and why
    not (``"code_dtype"`` or ``"no_native_kernel"``)."""
    if np.dtype(dtype) not in CODE_DTYPES:
        return None, "code_dtype"
    kern = kernel()
    return kern, None if kern is not None else "no_native_kernel"


def native_available() -> bool:
    return kernel() is not None


def native_error() -> Optional[str]:
    """Why the native kernel is off (``None`` while it works)."""
    kernel()
    return _ERROR
