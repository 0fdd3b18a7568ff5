"""``python -m repro.obs.smoke`` — end-to-end observability smoke.

Starts an in-process serve stack on an ephemeral port, drives a small
mixed burst — including one malformed request (a guaranteed *error*
record) and one much larger payload (a guaranteed p99 *outlier*) — then
scrapes every telemetry surface this PR exposes and validates it
strictly:

- ``GET /metrics`` must round-trip through
  :func:`repro.obs.metrics.parse_prometheus_text` (cumulative histogram
  buckets ending in ``+Inf``, escaped label values, typed families);
- ``GET /slo`` must evaluate every stock objective with windows;
- ``GET /trace/recent`` must be a valid Chrome-trace document whose
  flight records include the forced error and the forced outlier, each
  carrying a full span tree;
- request ids must be honored end-to-end (supplied id echoed on the
  response *and* attributable in the flight recorder).

``make obs-smoke`` runs this in CI; any failed check exits non-zero.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
from typing import Optional, Sequence

import numpy as np

from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import parse_prometheus_text
from repro.serve.http import run_server
from repro.serve.service import CompressionService, ServiceConfig

__all__ = ["main"]

_HOST = "127.0.0.1"


def _post(port: int, path: str, body: bytes,
          headers: Optional[dict] = None, timeout: float = 30.0):
    conn = http.client.HTTPConnection(_HOST, port, timeout=timeout)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _get(port: int, path: str, timeout: float = 10.0):
    conn = http.client.HTTPConnection(_HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = ServiceConfig(n_shards=2)
    service = CompressionService(cfg).start()
    ready = threading.Event()
    stop = threading.Event()
    bound: list[int] = []
    server = threading.Thread(
        target=run_server,
        kwargs=dict(service=service, host=_HOST, port=0,
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
            print("obs-smoke: server failed to start", file=sys.stderr)
            return 1
        port = bound[0]
        print(f"obs-smoke: server on port {port}")
        rng = np.random.default_rng(11)

        # ---- traffic: a burst to fill the latency window, one request
        # with a caller-chosen id, one error, one outlier ----------------
        small = rng.choice(
            64, size=4096, p=rng.dirichlet(np.ones(64) * 0.2)
        ).astype(np.uint16)
        ok_all = True
        for _ in range(40):
            status, hdr, _ = _post(port, "/compress", small.tobytes(),
                                   {"X-Repro-Dtype": "uint16"})
            ok_all &= status == 200 and bool(hdr.get("X-Repro-Request-Id"))
        check("burst: 40x compress -> 200 with request-id header", ok_all)

        my_id = "smoke-pinned-id-1"
        status, hdr, _ = _post(
            port, "/compress", small.tobytes(),
            {"X-Repro-Dtype": "uint16", "X-Repro-Request-Id": my_id},
        )
        check("supplied request id echoed",
              status == 200 and hdr.get("X-Repro-Request-Id") == my_id,
              f"got {hdr.get('X-Repro-Request-Id')!r}")

        status, hdr, _ = _post(port, "/decompress", b"XXXXgarbage",
                               {"X-Repro-Request-Id": "smoke-error-1"})
        check("malformed decompress -> 400", status == 400)

        # ~700x the burst payload: lands far past the rolling p99, which
        # over this short window is the slowest request so far (the
        # burst's cold first one included)
        big = rng.choice(
            64, size=3_000_000, p=rng.dirichlet(np.ones(64) * 0.2)
        ).astype(np.uint16)
        status, _, _ = _post(
            port, "/compress", big.tobytes(),
            {"X-Repro-Dtype": "uint16", "X-Repro-Request-Id": "smoke-big-1"},
        )
        check("outlier-sized compress -> 200", status == 200)

        # ---- /metrics: strict Prometheus exposition ---------------------
        status, hdr, body = _get(port, "/metrics")
        check("GET /metrics -> 200", status == 200)
        check("metrics content type",
              hdr.get("Content-Type", "").startswith("text/plain"),
              hdr.get("Content-Type", ""))
        families: dict = {}
        try:
            families = parse_prometheus_text(body.decode())
            check("metrics parse + histogram invariants", True,
                  f"{len(families)} families")
        except ValueError as exc:
            check("metrics parse + histogram invariants", False, str(exc))
        lat = families.get("repro_serve_request_latency_seconds")
        check("latency histogram exported",
              lat is not None and lat["kind"] == "histogram"
              and any(name.endswith("_bucket")
                      and labels.get("le") == "+Inf"
                      for name, labels, _ in lat["samples"]))
        check("request counter exported",
              "repro_serve_requests_total" in families)

        # ---- /slo: every stock objective, with windows ------------------
        status, _, body = _get(port, "/slo")
        slo = json.loads(body) if status == 200 else {}
        check("GET /slo -> 200", status == 200)
        want = {"compress_p99_latency", "decompress_p99_latency",
                "error_rate", "shed_rate"}
        check("slo: all stock objectives evaluated",
              want <= set(slo.get("slos", {})),
              ",".join(sorted(slo.get("slos", {}))))
        check("slo: windows + healthy flag",
              "healthy" in slo and all(
                  e.get("windows") for e in slo.get("slos", {}).values()))

        # ---- /trace/recent: valid Chrome trace, error + outlier kept ----
        status, _, body = _get(port, "/trace/recent")
        check("GET /trace/recent -> 200", status == 200)
        doc = json.loads(body) if status == 200 else {}
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as f:
            json.dump(doc, f)
            trace_path = f.name
        problems = validate_chrome_trace(trace_path)
        check("trace/recent is valid chrome-trace", not problems,
              "; ".join(problems[:3]))
        records = {r["request_id"]: r
                   for r in doc.get("otherData", {}).get("records", [])}
        err = records.get("smoke-error-1")
        check("forced error retained with spans",
              err is not None and err["status"] == "error"
              and err["retained"] == "error"
              and any(e.get("args", {}).get("request_id") == "smoke-error-1"
                      for e in doc.get("traceEvents", [])))
        big_rec = records.get("smoke-big-1")
        check("forced outlier retained with spans",
              big_rec is not None and big_rec["retained"] == "outlier"
              and any(e.get("args", {}).get("request_id") == "smoke-big-1"
                      for e in doc.get("traceEvents", [])))
        check("chosen paths recorded",
              big_rec is not None
              and big_rec.get("paths", {}).get("encode_impl") is not None,
              str(big_rec.get("paths") if big_rec else None))

        # ---- /stats: decode + flight + slo sections ---------------------
        status, _, body = _get(port, "/stats")
        st = json.loads(body) if status == 200 else {}
        check("GET /stats -> 200", status == 200)
        dec = st.get("decode", {})
        check("stats: decode section",
              (dec.get("gap_backend"), dec.get("gap_backend_reason") is None)
              in (("native", True), ("lanes", False)),
              str((dec.get("gap_backend"), dec.get("gap_backend_reason"))))
        check("stats: flight section",
              st.get("flight", {}).get("enabled") is True
              and st.get("flight", {}).get("kept", 0) >= 2)
        check("stats: slo summary",
              "healthy" in st.get("slo", {}))
    finally:
        stop.set()
        server.join(timeout=10.0)
        service.close()
    check("clean shutdown", not server.is_alive())
    if failures:
        print(f"obs-smoke: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("obs-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
