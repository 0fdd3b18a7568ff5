"""``repro-serve``: run the HTTP compression service (or its smoke test).

Serve::

    repro-serve --host 127.0.0.1 --port 8077 --shards 4 --queue-size 256

Smoke (CI; starts on an ephemeral port, fires a mixed burst including a
malformed body and an oversized payload, asserts the status codes and a
clean shutdown, exits non-zero on any failure)::

    repro-serve --smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
from typing import Optional, Sequence

import numpy as np

from repro.cuda.device import get_device
from repro.serve.http import run_server
from repro.serve.service import CompressionService, ServiceConfig

__all__ = ["main", "build_parser", "run_smoke"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="async Huffman compression service (queue → "
                    "micro-batcher → worker shards)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--queue-size", type=int, default=256)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-delay-ms", type=float, default=5.0,
                   help="starvation bound: the longest a codebook's "
                        "requests wait behind a backlog of other "
                        "codebooks (an empty queue flushes at once)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker shards (default: sized from --device)")
    p.add_argument("--device", default="V100",
                   help="device spec shaping the shard pool")
    p.add_argument("--max-body-mb", type=float, default=8.0,
                   help="reject request bodies larger than this (413)")
    p.add_argument("--smoke", action="store_true",
                   help="run the self-contained smoke burst and exit")
    return p


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        n_shards=args.shards,
        request_max_bytes=int(args.max_body_mb * (1 << 20)),
        device=get_device(args.device),
    )


# --------------------------------------------------------------- smoke --
def _post(
    host: str, port: int, path: str, body: bytes,
    headers: Optional[dict] = None, timeout: float = 30.0,
):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _get(host: str, port: int, path: str, timeout: float = 10.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def run_smoke(args: argparse.Namespace) -> int:
    """Ephemeral-port server + mixed burst; returns a process exit code."""
    cfg = _config_from_args(args)
    service = CompressionService(cfg).start()
    ready = threading.Event()
    stop = threading.Event()
    bound: list[int] = []
    server = threading.Thread(
        target=run_server,
        kwargs=dict(service=service, host=args.host, port=0,
                    ready=ready, bound=bound, stop=stop),
        daemon=True,
    )
    server.start()
    failures: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}" + (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    try:
        if not ready.wait(10.0):
            print("smoke: server failed to start", file=sys.stderr)
            return 1
        host, port = args.host, bound[0]
        print(f"smoke: server on port {port}")
        rng = np.random.default_rng(7)

        # health first
        status, _, body = _get(host, port, "/healthz")
        check("GET /healthz -> 200", status == 200, body.decode()[:80])

        # mixed compress/decompress burst over two distributions
        payloads = [
            rng.choice(64, size=4096,
                       p=np.random.default_rng(s).dirichlet(
                           np.ones(64) * 0.2)).astype(np.uint16)
            for s in (1, 2)
        ]
        blobs = []
        ok_all = True
        for i in range(20):
            arr = payloads[i % len(payloads)]
            status, hdr, blob = _post(
                host, port, "/compress", arr.tobytes(),
                {"X-Repro-Dtype": "uint16"},
            )
            ok_all &= status == 200
            if status == 200:
                blobs.append((arr, blob))
        check("burst: 20x POST /compress -> 200", ok_all)
        ok_all = bool(blobs)
        for arr, blob in blobs:
            status, hdr, raw = _post(host, port, "/decompress", blob)
            back = np.frombuffer(raw, dtype=hdr.get("X-Repro-Dtype", "uint16"))
            ok_all &= status == 200 and np.array_equal(back, arr)
        check("burst: round trips bit-identical", ok_all)

        # malformed body -> 400
        status, _, body = _post(host, port, "/decompress", b"not a container")
        check("malformed body -> 400", status == 400, body.decode()[:80])

        # oversized payload -> 413
        big = b"\0" * (cfg.request_max_bytes + 1)
        status, _, _ = _post(host, port, "/compress", big)
        check("oversized body -> 413", status == 413)

        # stats shows batching machinery alive
        status, _, body = _get(host, port, "/stats")
        st = json.loads(body) if status == 200 else {}
        check("GET /stats -> 200", status == 200)
        check(
            "stats: requests served",
            st.get("requests", {}).get("served", 0) >= 40,
            f"served={st.get('requests', {}).get('served')}",
        )
    finally:
        stop.set()
        server.join(timeout=10.0)
        service.close()
    clean = not server.is_alive()
    check("clean shutdown", clean)
    if failures:
        print(f"smoke: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    service = CompressionService(_config_from_args(args)).start()
    try:
        run_server(service, host=args.host, port=args.port)
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
