"""Set-up probe: one fresh process, from start to a first round trip.

Imports the public entry points, starts a ``CompressionService``,
registers a codebook, completes one 64 KiB compress/decompress round
trip through the service and exits.  The benchmark times this process
from spawn to exit as ``setup_s``; the first probe of a checkout also
compiles the native decode kernel into its disk cache.

Run as ``python -m bench.probe`` from the repository root.
"""

from __future__ import annotations

import sys

import numpy as np

from bench import SRC

sys.path.insert(0, str(SRC))

from bench import inputs  # noqa: E402
from repro.codebooks.registry import process_registry  # noqa: E402
from repro.core.codebook_parallel import parallel_codebook  # noqa: E402
from repro.serve.service import CompressionService, ServiceConfig  # noqa: E402


def main() -> int:
    data = inputs.CdfSampler(inputs.serve_probs()).sample(
        np.random.default_rng(0), 1 << 15, np.uint16)
    book = parallel_codebook(inputs.serve_histogram()).codebook
    entry = process_registry().register(book, persist=False)
    with CompressionService(ServiceConfig(n_shards=2)) as svc:
        blob, _report = svc.compress(data, codebook_id=entry.codebook_id)
        out = svc.decompress(blob)
    return 0 if np.array_equal(out, data) else 1


if __name__ == "__main__":
    sys.exit(main())
