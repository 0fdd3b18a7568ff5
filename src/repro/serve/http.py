"""Minimal asyncio HTTP front for :class:`CompressionService`.

Stdlib only (``asyncio`` streams; no frameworks).  One connection per
request (``Connection: close``) keeps the parser trivial and robust —
the interesting concurrency lives behind the admission queue, not in
the socket layer.

Routes:

- ``POST /compress``   — body: raw little-endian array bytes;
  headers: ``X-Repro-Dtype`` (uint8/16/32/64, default uint8),
  ``X-Repro-Priority`` (``interactive``/``bulk``),
  ``X-Repro-Deadline-Ms``; response: app symbol container +
  ``X-Repro-Ratio`` header.
- ``POST /decompress`` — body: container bytes; response: raw array
  bytes + ``X-Repro-Dtype``.
- ``/codebooks``       — the :mod:`repro.codebooks` registry CRUD:
  ``GET`` lists, ``POST`` registers a book built from the corpus in
  the body (``X-Repro-Dtype``, optional ``X-Repro-Num-Symbols`` /
  ``X-Repro-Name``), ``GET /codebooks/<id>`` inspects, ``DELETE
  /codebooks/<id>`` evicts.  A compress request carrying
  ``X-Repro-Codebook-Id`` (digest or name) takes the single-stage
  static-codebook fast path; an unknown id or uncovered symbol is a
  400.
- ``GET /healthz``     — liveness + shard census.
- ``GET /stats``       — :meth:`CompressionService.stats` as JSON.
- ``GET /metrics``     — Prometheus text exposition (format 0.0.4).
- ``GET /slo``         — multi-window burn-rate SLO evaluation as JSON.
- ``GET /trace/recent``— the flight recorder's retained request span
  trees as one Chrome trace-event document (``?n=`` limits records).

Every request carries an id: a client-supplied ``X-Repro-Request-Id``
is honored, one is minted otherwise; either way the id is echoed on the
response and stamped through the service's span trees and flight
recorder, so one grep connects an HTTP response to its trace.

Status mapping: 400 malformed, 404 unknown route, 405 bad method,
413 oversized, 429 + ``Retry-After`` on queue shed, 503 on shutdown,
504 on deadline.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional

import numpy as np

from repro.obs import metrics as _metrics
from repro.serve.queue import (
    DeadlineExceeded,
    Priority,
    QueueClosed,
    QueueFullError,
    new_request_id,
)
from repro.serve.service import CompressionService

__all__ = ["ServeHTTP", "run_server"]

_DTYPES = {
    "uint8": np.uint8,
    "uint16": np.uint16,
    "uint32": np.uint32,
    "uint64": np.uint64,
}
_MAX_HEADER_BYTES = 16 * 1024
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ServeHTTP:
    """Asyncio HTTP server bound to one :class:`CompressionService`."""

    def __init__(
        self,
        service: CompressionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 → ephemeral; updated once bound
        self._server: Optional[asyncio.AbstractServer] = None

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> "ServeHTTP":
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------- parsing
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status = 500
        rid = None
        try:
            method, path, headers, body = await self._read_request(reader)
            # honor the client's request id or mint one; the normalized
            # header is what _common_submit_kw forwards into the service
            rid = headers.get("x-repro-request-id") or new_request_id()
            headers["x-repro-request-id"] = rid
            status, out_headers, payload = await self._route(
                method, path, headers, body
            )
        except _HttpError as exc:
            status = exc.status
            out_headers = {"Content-Type": "application/json", **exc.headers}
            payload = json.dumps({"error": str(exc)}).encode()
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status = 500
            out_headers = {"Content-Type": "application/json"}
            payload = json.dumps({"error": f"internal: {exc}"}).encode()
        if rid is not None:
            out_headers.setdefault("X-Repro-Request-Id", rid)
        _metrics().counter(
            "repro_serve_http_responses_total", status=str(status)
        ).inc()
        try:
            await self._write_response(writer, status, out_headers, payload)
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "header section too large") from None
        except asyncio.TimeoutError:
            raise _HttpError(400, "timed out reading request head") from None
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "truncated request head") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(400, "header section too large")
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise _HttpError(400, f"malformed header line: {line[:40]!r}")
            k, v = line.split(":", 1)
            headers[k.strip().lower()] = v.strip()
        body = b""
        if method == "POST":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if length < 0:
                raise _HttpError(400, "bad Content-Length")
            if length > self.service.config.request_max_bytes:
                # drain (bounded) so the client can finish sending and
                # read the 413 instead of hitting a connection reset
                await self._drain_body(reader, length)
                raise _HttpError(
                    413,
                    f"body of {length} B exceeds limit of "
                    f"{self.service.config.request_max_bytes} B",
                )
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=30.0
                    )
                except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                    raise _HttpError(400, "truncated body") from None
        return method, path, headers, body

    @staticmethod
    async def _drain_body(
        reader: asyncio.StreamReader, length: int,
        cap: int = 64 << 20, chunk: int = 1 << 20,
    ) -> None:
        remaining = min(length, cap)
        try:
            while remaining > 0:
                got = await asyncio.wait_for(
                    reader.read(min(chunk, remaining)), timeout=10.0
                )
                if not got:
                    return
                remaining -= len(got)
        except (asyncio.TimeoutError, ConnectionError):
            return

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int,
        headers: dict, payload: bytes,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Length": str(len(payload)),
            "Connection": "close",
            "Server": "repro-serve",
        }
        base.update(headers)
        head.extend(f"{k}: {v}" for k, v in base.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------- routing
    async def _route(self, method: str, path: str, headers: dict, body: bytes):
        query = ""
        if "?" in path:
            path, query = path.split("?", 1)
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }, _metrics().render().encode()
        if path == "/slo":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, {"Content-Type": "application/json"}, (
                json.dumps(self.service.slo_report()).encode()
            )
        if path == "/trace/recent":
            if method != "GET":
                raise _HttpError(405, "use GET")
            n = self._query_int(query, "n")
            doc = self.service.flight.to_chrome_trace(n)
            return 200, {"Content-Type": "application/json"}, (
                json.dumps(doc).encode()
            )
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET")
            st = self.service.stats()
            doc = {
                "status": "ok" if st["shards"]["alive"] else "degraded",
                "shards_alive": st["shards"]["alive"],
                "shards_total": st["shards"]["total"],
                "queue_depth": st["queue"]["depth"],
            }
            return 200, {"Content-Type": "application/json"}, (
                json.dumps(doc).encode()
            )
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, {"Content-Type": "application/json"}, (
                json.dumps(self.service.stats()).encode()
            )
        if path == "/compress":
            if method != "POST":
                raise _HttpError(405, "use POST")
            return await self._compress(headers, body)
        if path == "/decompress":
            if method != "POST":
                raise _HttpError(405, "use POST")
            return await self._decompress(headers, body)
        if path == "/codebooks" or path.startswith("/codebooks/"):
            return self._codebooks(method, path, headers, body)
        raise _HttpError(404, f"no route {path!r}")

    @staticmethod
    def _query_int(query: str, key: str) -> Optional[int]:
        for part in query.split("&"):
            if part.startswith(f"{key}="):
                try:
                    return int(part.split("=", 1)[1])
                except ValueError:
                    raise _HttpError(
                        400, f"bad query parameter {key!r}"
                    ) from None
        return None

    # ------------------------------------------------------------ handlers
    def _common_submit_kw(self, headers: dict) -> dict:
        kw: dict = {"request_id": headers.get("x-repro-request-id")}
        prio = headers.get("x-repro-priority", "interactive").lower()
        if prio not in ("interactive", "bulk"):
            raise _HttpError(400, f"unknown priority {prio!r}")
        kw["priority"] = (
            Priority.INTERACTIVE if prio == "interactive" else Priority.BULK
        )
        if "x-repro-deadline-ms" in headers:
            try:
                kw["deadline_s"] = float(headers["x-repro-deadline-ms"]) / 1e3
            except ValueError:
                raise _HttpError(400, "bad X-Repro-Deadline-Ms") from None
        return kw

    async def _await_future(self, fut):
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(fut),
                timeout=self.service.config.default_timeout_s,
            )
        except QueueFullError as exc:
            raise _HttpError(
                429, str(exc),
                {"Retry-After": f"{max(exc.retry_after_s, 0.01):.3f}"},
            ) from None
        except QueueClosed as exc:
            raise _HttpError(503, str(exc)) from None
        except DeadlineExceeded as exc:
            raise _HttpError(504, str(exc)) from None
        except (ValueError, TypeError, KeyError) as exc:
            raise _HttpError(400, str(exc)) from None
        except asyncio.TimeoutError:
            raise _HttpError(504, "request timed out in service") from None

    @staticmethod
    def _body_array(headers: dict, body: bytes) -> np.ndarray:
        """Decode a raw little-endian array body per ``X-Repro-Dtype``."""
        dtype_name = headers.get("x-repro-dtype", "uint8").lower()
        dtype = _DTYPES.get(dtype_name)
        if dtype is None:
            raise _HttpError(
                400, f"unsupported dtype {dtype_name!r} "
                     f"(one of {sorted(_DTYPES)})"
            )
        if len(body) % np.dtype(dtype).itemsize:
            raise _HttpError(
                400,
                f"body length {len(body)} is not a multiple of "
                f"{dtype_name} itemsize",
            )
        return np.frombuffer(body, dtype=dtype)

    # ------------------------------------------------- codebook registry
    def _codebooks(self, method: str, path: str, headers: dict, body: bytes):
        """The ``/codebooks`` CRUD surface over the process registry."""
        from repro.codebooks.registry import process_registry

        registry = process_registry()
        ref = path[len("/codebooks"):].lstrip("/")
        if not ref:
            if method == "GET":
                doc = {
                    "books": [e.describe() for e in registry.entries()],
                    **registry.info(),
                }
                return 200, {"Content-Type": "application/json"}, (
                    json.dumps(doc).encode()
                )
            if method == "POST":
                return self._register_codebook(registry, headers, body)
            raise _HttpError(405, "use GET or POST")
        if method == "GET":
            entry = registry.get(ref)
            if entry is None:
                raise _HttpError(404, f"unknown codebook {ref!r}")
            return 200, {"Content-Type": "application/json"}, (
                json.dumps(entry.describe()).encode()
            )
        if method == "DELETE":
            if not registry.evict(ref):
                raise _HttpError(404, f"unknown codebook {ref!r}")
            return 200, {"Content-Type": "application/json"}, (
                json.dumps({"evicted": ref}).encode()
            )
        raise _HttpError(405, "use GET or DELETE")

    def _register_codebook(self, registry, headers: dict, body: bytes):
        """``POST /codebooks``: build + register a book from a corpus body."""
        from repro.core.codebook_parallel import parallel_codebook
        from repro.serve.batcher import MAX_ALPHABET, _checked_num_symbols

        if not body:
            raise _HttpError(400, "empty corpus body")
        data = self._body_array(headers, body)
        declared = None
        if "x-repro-num-symbols" in headers:
            try:
                declared = int(headers["x-repro-num-symbols"])
            except ValueError:
                raise _HttpError(400, "bad X-Repro-Num-Symbols") from None
        smooth = headers.get("x-repro-smooth", "1") not in ("0", "false")
        try:
            num_symbols = _checked_num_symbols(data, declared, MAX_ALPHABET)
            hist = np.bincount(
                data.reshape(-1).astype(np.int64), minlength=num_symbols
            )
            if smooth:
                # add-one smoothing: a registered book serves traffic
                # *beyond* its corpus, so every symbol of the declared
                # alphabet gets a codeword (opt out: X-Repro-Smooth: 0)
                hist = hist + 1
            book = parallel_codebook(
                hist, device=self.service.config.device
            ).codebook
            entry = registry.register(
                book,
                name=headers.get("x-repro-name") or None,
                source="corpus",
            )
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        return 200, {"Content-Type": "application/json"}, (
            json.dumps(entry.describe()).encode()
        )

    async def _compress(self, headers: dict, body: bytes):
        if not body:
            raise _HttpError(400, "empty body")
        data = self._body_array(headers, body)
        kw = self._common_submit_kw(headers)
        if "x-repro-codebook-id" in headers:
            # registry fast path: the batcher resolves the reference and
            # rejects an unknown id, the shard's encode uncovered symbols,
            # both as 400-class errors
            kw["codebook_id"] = headers["x-repro-codebook-id"]
        try:
            fut = self.service.submit_compress(data, **kw)
        except QueueFullError as exc:
            raise _HttpError(
                429, str(exc),
                {"Retry-After": f"{max(exc.retry_after_s, 0.01):.3f}"},
            ) from None
        except QueueClosed as exc:
            raise _HttpError(503, str(exc)) from None
        blob, report = await self._await_future(fut)
        return 200, {
            "Content-Type": "application/octet-stream",
            "X-Repro-Ratio": f"{report.ratio:.4f}",
            "X-Repro-Avg-Bits": f"{report.avg_bits:.4f}",
        }, blob

    async def _decompress(self, headers: dict, body: bytes):
        if not body:
            raise _HttpError(400, "empty body")
        kw = self._common_submit_kw(headers)
        try:
            fut = self.service.submit_decompress(body, **kw)
        except QueueFullError as exc:
            raise _HttpError(
                429, str(exc),
                {"Retry-After": f"{max(exc.retry_after_s, 0.01):.3f}"},
            ) from None
        except QueueClosed as exc:
            raise _HttpError(503, str(exc)) from None
        out = await self._await_future(fut)
        return 200, {
            "Content-Type": "application/octet-stream",
            "X-Repro-Dtype": str(out.dtype),
            "X-Repro-Count": str(out.size),
        }, out.tobytes()


def run_server(
    service: CompressionService,
    host: str = "127.0.0.1",
    port: int = 8077,
    ready: Optional[threading.Event] = None,
    bound: Optional[list] = None,
    stop: Optional[threading.Event] = None,
) -> None:
    """Blocking server loop (the ``repro-serve`` entry point's core).

    ``ready``/``bound``/``stop`` are hooks for embedding the server in a
    test or smoke harness: ``bound`` (a list) receives the actual port,
    ``ready`` is set once listening, and setting ``stop`` shuts the loop
    down cleanly.
    """

    async def _main() -> None:
        front = ServeHTTP(service, host, port)
        await front.start()
        if bound is not None:
            bound.append(front.port)
        if ready is not None:
            ready.set()
        print(f"repro-serve listening on http://{host}:{front.port}",
              flush=True)
        try:
            if stop is None:
                await front.serve_forever()
            else:
                while not stop.is_set():
                    await asyncio.sleep(0.05)
        except asyncio.CancelledError:
            pass
        finally:
            await front.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down", flush=True)
