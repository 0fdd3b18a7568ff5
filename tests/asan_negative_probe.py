"""Deliberate out-of-bounds store through the raw chunk-decode pass.

``make native-asan`` runs this script under AddressSanitizer and
expects it to abort: it calls ``chunk_decode_u8`` directly with an
``n_out`` 16 times larger than the real output array, so the pass's
bound check passes and its stores run past the array's end.  A run
that exits 0 means the sanitizer leg is not live.  Without
``REPRO_NATIVE_SANITIZE=1`` the script makes no call and exits 0, so a
leg that forgot the sanitizer build fails too.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro import native
from repro.core.codebook_parallel import parallel_codebook
from repro.decoder.gap_array import _pad_buffer
from repro.huffman.cache import cached_decode_table
from repro.huffman.serial import serial_encode

N_REAL = 4096  # the output array's true length


def main() -> int:
    if not os.environ.get("REPRO_NATIVE_SANITIZE"):
        print("not a sanitizer build: no call made", file=sys.stderr)
        return 0
    kern = native.kernel()
    if kern is None:
        print(f"native module unavailable: {native.native_error()}",
              file=sys.stderr)
        return 0
    rng = np.random.default_rng(0xA5A)  # seeded: the same overrun each run
    n = 16 * N_REAL
    data = rng.integers(0, 16, n)
    book = parallel_codebook(np.bincount(data, minlength=16)).codebook
    buf, nbits = serial_encode(data, book)
    table = cached_decode_table(book)
    padded = _pad_buffer(buf, table.max_length)
    one = lambda v: np.array([v], dtype=np.int64)  # noqa: E731
    starts, ends, nsyms = one(0), one(nbits), one(n)
    out_off, hole_base = one(0), np.zeros(2, np.int64)
    holes = np.zeros(1, np.int64)
    counts = kern._ffi.new("int64_t[2]")
    out = np.empty(N_REAL, np.uint8)
    p = kern._p
    null = kern._ffi.NULL
    bad = kern._lib.chunk_decode_u8(
        p("uint8_t *", padded), int(nbits), p("int64_t *", starts),
        p("int64_t *", ends), p("int64_t *", nsyms), 1,
        p("int64_t *", out_off), p("int64_t *", hole_base),
        p("int64_t *", holes), 0, 1, *kern._table_args(table),
        null, 0, null, p("uint8_t *", out), n, counts, counts + 1,
    )
    print(f"overrun not caught (pass returned {bad})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
