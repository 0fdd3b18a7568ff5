"""The runtime-compiled C module: gap-array decode and scan-pack encode.

One C source set, compiled once per process via :mod:`cffi` and the
system C compiler and cached on disk under one digest of that source,
holds every compiled kernel of the codec.  Each kernel has a NumPy
counterpart that stays the oracle and the no-compiler path.

Decode (:mod:`repro.decoder.gap_array`; serial oracle
:func:`repro.decoder.gap_array.reference_gap_array`, fallback
``decode_lanes``).  The two passes mirror the paper's exactly:

- ``gap_sync_pass``: per-chunk codeword-length walk that records, at
  every fixed-width subchunk boundary, the first codeword-aligned bit
  offset at-or-after the boundary and the number of symbols emitted
  before it — the *gap array*.  Chunks are independent, so eight are
  interleaved per iteration to hide the decode-table load latency
  (the serial bp → window → table → bp chain otherwise dominates).
- ``gap_decode_pass``: lock-step decode of *all* subchunk lanes; every
  lane owns a disjoint ``[out_off, out_end)`` output range computed
  from the gap array, so lanes are order-independent.  Eight lanes are
  interleaved per step — the host-side stand-in for a GPU warp.

Both passes read the :class:`~repro.huffman.decoder.DecodeTable`'s own
arrays: one gather from the packed root, and for a codeword longer than
the root a descent through the subtables in a cold branch.

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

When cffi, a compiler, or a writable cache directory is missing the
module degrades to ``kernel() -> None`` and every caller runs its NumPy
path, recording why.  ``REPRO_DISABLE_NATIVE=1`` forces that
degradation (the no-compiler test leg, ``make test-no-native``);
``REPRO_NATIVE_DIR`` overrides the cache directory (default
``build/native/`` in a source checkout).
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
    "NativeKernel",
    "SYMBOL_DTYPES",
    "kernel",
    "native_available",
    "native_error",
]

#: symbol dtypes the scan-pack kernels take (one C variant each)
SYMBOL_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))

_CDEF = r"""
void gap_sync_pass(const uint8_t *buf, const int64_t *ch_start,
    const int64_t *ch_end, const int64_t *lane_base, int64_t n_ch,
    int64_t S, const int32_t *root, int k, const int32_t *sub,
    const int64_t *node_base, const int32_t *node_bits, int64_t *gap_off,
    int64_t *gap_cnt, int64_t *ch_n, int64_t *ch_endpos, int64_t *ch_sub);
void gap_decode_pass(const uint8_t *buf, const int64_t *bit_off,
    const int64_t *out_off, const int64_t *out_end, int64_t n_lanes,
    const int32_t *root, int k, const int32_t *sub,
    const int64_t *node_base, const int32_t *node_bits, int64_t *out);
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
"""

_CSRC = r"""
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

/* Pass 1: gap-array discovery.  The caller pads buf by
 * 8 + ceil(max_length / 8) bytes past the last bit, which covers the
 * root window at any bp < end and every descent load below it. */
void gap_sync_pass(const uint8_t *buf,
                   const int64_t *ch_start, const int64_t *ch_end,
                   const int64_t *lane_base, int64_t n_ch, int64_t S,
                   const int32_t *root, int k, const int32_t *sub,
                   const int64_t *node_base, const int32_t *node_bits,
                   int64_t *gap_off, int64_t *gap_cnt,
                   int64_t *ch_n, int64_t *ch_endpos, int64_t *ch_sub) {
    const int sh0 = 64 - k;
    const uint32_t mask = (1u << k) - 1;
    enum { B = 8 };
    for (int64_t cb = 0; cb < n_ch; cb += B) {
        int nbk = (int)((n_ch - cb < B) ? (n_ch - cb) : B);
        int64_t bp[B], end[B], cur[B], last[B], nb[B], n[B], nd[B];
        for (int j = 0; j < nbk; j++) {
            int64_t c = cb + j;
            bp[j] = ch_start[c];
            end[j] = ch_end[c];
            cur[j] = lane_base[c];
            last[j] = lane_base[c + 1];
            nb[j] = ch_start[c] + S;
            n[j] = 0;
            nd[j] = 0;
            gap_off[cur[j]] = bp[j];
            gap_cnt[cur[j]] = 0;
            cur[j]++;
        }
        int active = 1;
        while (active) {
            active = 0;
            for (int j = 0; j < nbk; j++) {
                if (bp[j] < end[j]) {
                    active = 1;
                    while (cur[j] < last[j] && bp[j] >= nb[j]) {
                        gap_off[cur[j]] = bp[j];
                        gap_cnt[cur[j]] = n[j];
                        cur[j]++;
                        nb[j] += S;
                    }
                    uint32_t w = (uint32_t)(load_be64(buf + (bp[j] >> 3))
                                            >> (sh0 - (bp[j] & 7)));
                    int32_t ent = root[w & mask];
                    if (__builtin_expect(!(ent & 0xFF), 0))
                        ent = descend(buf, bp[j] + k, ent, sub, node_base,
                                      node_bits, &nd[j]);
                    bp[j] += ent & 0xFF;
                    n[j]++;
                }
            }
        }
        for (int j = 0; j < nbk; j++) {
            /* boundaries at/past the chunk's last codeword: record the
             * final chain position (== end on a well-formed stream) */
            while (cur[j] < last[j]) {
                gap_off[cur[j]] = bp[j];
                gap_cnt[cur[j]] = n[j];
                cur[j]++;
            }
            ch_n[cb + j] = n[j];
            ch_endpos[cb + j] = bp[j];
            ch_sub[cb + j] = nd[j];
        }
    }
}

/* Pass 2: lock-step decode of all subchunk lanes. */
void gap_decode_pass(const uint8_t *buf,
                     const int64_t *bit_off, const int64_t *out_off,
                     const int64_t *out_end, int64_t n_lanes,
                     const int32_t *root, int k, const int32_t *sub,
                     const int64_t *node_base, const int32_t *node_bits,
                     int64_t *out) {
    const int sh0 = 64 - k;
    const uint32_t mask = (1u << k) - 1;
    enum { B = 8 };
    int64_t nd = 0;  /* counted once, by the sync pass */
    for (int64_t base = 0; base < n_lanes; base += B) {
        int nb = (int)((n_lanes - base < B) ? (n_lanes - base) : B);
        int64_t bp[B], oi[B], oe[B];
        int64_t maxn = 0;
        for (int j = 0; j < nb; j++) {
            bp[j] = bit_off[base + j];
            oi[j] = out_off[base + j];
            oe[j] = out_end[base + j];
            if (oe[j] - oi[j] > maxn) maxn = oe[j] - oi[j];
        }
        for (int64_t it = 0; it < maxn; it++) {
            for (int j = 0; j < nb; j++) {
                if (oi[j] < oe[j]) {
                    uint32_t w = (uint32_t)(load_be64(buf + (bp[j] >> 3))
                                            >> (sh0 - (bp[j] & 7)));
                    int32_t ent = root[w & mask];
                    if (__builtin_expect(!(ent & 0xFF), 0))
                        ent = descend(buf, bp[j] + k, ent, sub, node_base,
                                      node_bits, &nd);
                    out[oi[j]++] = ent >> 8;
                    bp[j] += ent & 0xFF;
                }
            }
        }
    }
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

SYMBOL_BITS(symbol_bits_u8, uint8_t)
SYMBOL_BITS(symbol_bits_u16, uint16_t)
SYMBOL_BITS(symbol_bits_u32, uint32_t)
SCAN_PACK(scan_pack_u8, uint8_t)
SCAN_PACK(scan_pack_u16, uint16_t)
SCAN_PACK(scan_pack_u32, uint32_t)
"""


def _source_digest() -> str:
    return hashlib.blake2b(
        (_CDEF + _CSRC).encode(), digest_size=8
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

    Decode callers pass contiguous arrays of the declared dtypes; the
    encode passes check their symbol stream and gather table here.
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

    def sync_pass(
        self,
        padded_buf: np.ndarray,
        ch_start: np.ndarray,
        ch_end: np.ndarray,
        lane_base: np.ndarray,
        subchunk_bits: int,
        table,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(gap_off, gap_cnt, ch_n, ch_endpos, ch_sub)``: the gap
        array plus, per chunk, the codewords walked, the final chain
        position and the subtable gathers taken."""
        n_ch = ch_start.shape[0]
        n_lanes = int(lane_base[-1])
        gap_off = np.empty(n_lanes, np.int64)
        gap_cnt = np.empty(n_lanes, np.int64)
        ch_n = np.empty(n_ch, np.int64)
        ch_endpos = np.empty(n_ch, np.int64)
        ch_sub = np.empty(n_ch, np.int64)
        self._lib.gap_sync_pass(
            self._p("uint8_t *", padded_buf),
            self._p("int64_t *", ch_start),
            self._p("int64_t *", ch_end),
            self._p("int64_t *", lane_base),
            n_ch,
            int(subchunk_bits),
            *self._table_args(table),
            self._p("int64_t *", gap_off),
            self._p("int64_t *", gap_cnt),
            self._p("int64_t *", ch_n),
            self._p("int64_t *", ch_endpos),
            self._p("int64_t *", ch_sub),
        )
        return gap_off, gap_cnt, ch_n, ch_endpos, ch_sub

    def decode_pass(
        self,
        padded_buf: np.ndarray,
        bit_off: np.ndarray,
        out_off: np.ndarray,
        out_end: np.ndarray,
        table,
        n_out: int,
    ) -> np.ndarray:
        out = np.empty(int(n_out), np.int64)
        self._lib.gap_decode_pass(
            self._p("uint8_t *", padded_buf),
            self._p("int64_t *", bit_off),
            self._p("int64_t *", out_off),
            self._p("int64_t *", out_end),
            bit_off.shape[0],
            *self._table_args(table),
            self._p("int64_t *", out),
        )
        return out

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
        ffi.set_source(modname, _CSRC, extra_compile_args=["-O2"])
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


def native_available() -> bool:
    return kernel() is not None


def native_error() -> Optional[str]:
    """Why the native kernel is off (``None`` while it works)."""
    kernel()
    return _ERROR
