#!/usr/bin/env python
"""Trace a full compress/decompress round trip into one telemetry file.

Runs the error-bounded lossy path (``compress_field`` →
``decompress_field``) on a synthetic Nyx-like field under an installed
:class:`repro.obs.Tracer`, then:

- writes a Chrome trace-event file (open it at https://ui.perfetto.dev
  or ``chrome://tracing``) with the embedded metrics dump,
- writes the same spans as a grep/jq-friendly JSONL log,
- merges the *modeled* V100 kernel timeline (cost model, via
  ``Profiler.to_spans``) into the same trace on a side track,
- prints the per-stage summary table and the headline counters.

Every span in the file is a real pipeline stage: ``encode.histogram``,
``encode.codebook`` (with its ``encode.codebook.sort`` and
``encode.canonize`` children: the host build),
``encode.reduce_shuffle_merge``, ``decode.stream`` and the app
envelopes around them.  The modeled GenerateCL/GenerateCW sub-phases
(``encode.codebook.generate_cl``/``generate_cw``) run only where a
codebook's modeled costs are read, which this round trip never does.

Usage::

    python examples/trace_pipeline.py [--out-dir DIR] [--size N] [--quiet]
"""

from __future__ import annotations

import argparse
import pathlib
import tempfile

import numpy as np

from repro.app.compressor import compress_field, decompress_field
from repro.cuda.costmodel import KernelCost
from repro.cuda.device import V100
from repro.cuda.profiler import Profiler
from repro.obs import (
    MetricsRegistry,
    Tracer,
    set_registry,
    stage_summary,
    tracing,
    write_chrome_trace,
    write_jsonl,
)


def main(argv: list[str] | None = None) -> None:
    # default to no flags (not sys.argv) so the example can be driven
    # in-process by the smoke tests; __main__ passes sys.argv explicitly
    argv = list(argv) if argv is not None else []
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=pathlib.Path, default=None,
                    help="where to write trace.json / trace.jsonl "
                         "(default: a temp directory)")
    ap.add_argument("--size", type=int, default=1 << 16,
                    help="number of field points (default 65536)")
    ap.add_argument("--quiet", action="store_true",
                    help="skip the per-stage summary table")
    args = ap.parse_args(argv)

    out_dir = args.out_dir or pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    # a smooth field + noise, like a cosmology baryon-density slice
    rng = np.random.default_rng(2021)
    side = max(2, int(np.sqrt(args.size)))
    x = np.linspace(0, 8 * np.pi, side * side)
    field = (np.sin(x) * np.exp(-x / 40.0) + rng.normal(0, 0.02, x.size))
    field = field.reshape(side, side)
    eb = 1e-3

    # fresh registry so the embedded metrics dump describes only this run
    registry = MetricsRegistry()
    prev_reg = set_registry(registry)
    try:
        with tracing(Tracer("trace-pipeline")) as tracer:
            blob, report = compress_field(field, error_bound=eb)
            recon = decompress_field(blob)
        assert np.all(np.abs(recon - field) <= eb), "error bound violated"

        # side track: what the cost model says a V100 would do per stage
        prof = Profiler(V100)
        n = field.size
        for name, byts in (("hist.privatized", field.nbytes),
                           ("enc.reduce_shuffle_merge", field.nbytes),
                           ("dec.chunk_parallel", 4 * n)):
            prof.record(
                KernelCost(name=name, bytes_coalesced=float(byts),
                           launches=1, compute_cycles=12.0 * n),
                payload_bytes=float(byts),
            )
        prof.merge_into(tracer)

        chrome_path = out_dir / "trace.json"
        jsonl_path = out_dir / "trace.jsonl"
        write_chrome_trace(chrome_path, tracer, registry=registry)
        write_jsonl(jsonl_path, tracer, registry=registry)
    finally:
        set_registry(prev_reg)

    print(f"field: {field.shape} float64 ({field.nbytes / 1e6:.2f} MB), "
          f"eb={eb:g}")
    print(f"compressed: {report.compressed_bytes} bytes "
          f"(ratio {report.ratio:.2f}x, avg {report.avg_bits:.2f} bits, "
          f"{report.outliers} outliers)")
    print(f"spans recorded: {len(tracer.spans)} "
          f"(threads + modeled side track)")
    print(f"cache: {registry.total('repro_cache_hits_total'):.0f} hits / "
          f"{registry.total('repro_cache_misses_total'):.0f} misses; "
          f"LUT fallbacks: "
          f"{registry.total('repro_decode_lut_fallback_total'):.0f}")
    if not args.quiet:
        print()
        print(stage_summary(tracer, title="per-stage breakdown"))
    print()
    print(f"chrome trace : {chrome_path}")
    print(f"jsonl log    : {jsonl_path}")
    print("open the chrome trace at https://ui.perfetto.dev, or run:")
    print(f"  repro-trace {chrome_path} --stages --metrics")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
