"""Per-layer ledger measured from outside the program.

The traced run replaces names that the program's modules look up at call
time (``repro.app.compressor.parallel_encode``,
``repro.core.bitstream.assemble_stream_symbols`` ...) with timing
wrappers.  Nothing in the program changes: a wrapper times the call,
keeps a per-thread stack of open calls and books each call's *self* time
(its duration minus the durations of the wrapped calls it made) to its
layer.

Every recorded call belongs to a *root*: a measured operation opened by
the benchmark (:meth:`Ledger.op`) or a serve-side call into the app
facade (a wrapper whose hook names an ``op``).  Wrapped calls made
outside a root, such as set-up and warm-up work, pass through
unrecorded.  A root's own self time is booked to ``app.other``, so the
self times of one root always add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

OTHER = "app.other"


@dataclass(frozen=True)
class Hook:
    """One wrapped name: ``module.attr`` is booked to ``layer``.

    ``op`` makes the wrapper a root for that op kind.  ``note`` turns a
    call's arguments and result into counts added to the ledger.
    """

    module: str
    attr: str
    layer: str
    op: Optional[str] = None
    note: Optional[Callable[[tuple, dict, Any], dict]] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _encoded_bytes(args, kwargs, result) -> dict:
    data = args[0] if args else kwargs["data"]
    return {"encode.bytes": int(data.nbytes)}


def _table_tier(args, kwargs, result) -> dict:
    return {"decode_table.tiered": int(type(result).__name__.startswith("Tiered"))}


def _gap_decode(args, kwargs, result) -> dict:
    return {
        "decode.symbols": int(result.symbols.size),
        "decode.gap_calls": int(result.backend != "lanes"),
    }


def _lane_decode(args, kwargs, result) -> dict:
    return {"decode.symbols": int(result.size)}


#: The layers of the program, by the names its modules call them through.
HOOKS: tuple[Hook, ...] = (
    Hook("repro.app.compressor", "gpu_histogram", "histogram"),
    Hook("repro.app.compressor", "cached_codebook", "codebook"),
    # the build runs inside the cache lookup, through this global
    Hook("repro.app.compressor", "parallel_codebook", "codebook"),
    Hook("repro.app.compressor", "lorenzo_quantize", "quantize"),
    Hook("repro.app.compressor", "parallel_encode", "encode", note=_encoded_bytes),
    # the in-process share of parallel_encode (all of it below the pool
    # threshold, the remainder after fork above it)
    Hook("repro.core.chunk_parallel", "gpu_encode", "encode"),
    # imported at call time by compress_symbols_registered
    Hook("repro.core.single_stage", "single_stage_encode", "encode",
         note=_encoded_bytes),
    Hook("repro.app.compressor", "serialize_stream", "serialize"),
    Hook("repro.app.compressor", "deserialize_stream", "deserialize"),
    Hook("repro.core.bitstream", "cached_decode_table", "decode_table",
         note=_table_tier),
    Hook("repro.core.bitstream", "stream_lanes", "lanes"),
    Hook("repro.decoder.gap_array", "gap_decode_lanes", "decode_kernel",
         note=_gap_decode),
    Hook("repro.core.bitstream", "decode_lanes", "decode_kernel",
         note=_lane_decode),
    Hook("repro.core.bitstream", "assemble_stream_symbols", "assemble"),
    Hook("repro.app.compressor", "dequantize", "dequantize"),
    # serve shards call the app facade through these names
    Hook("repro.serve.service", "compress_symbols_registered", OTHER,
         op="compress"),
    Hook("repro.serve.service", "decompress_symbols", OTHER, op="decompress"),
)


class _Frame:
    __slots__ = ("layer", "t0", "child_s")

    def __init__(self, layer: str, t0: float) -> None:
        self.layer = layer
        self.t0 = t0
        self.child_s = 0.0


class Ledger:
    """Self time per (op, layer), plus per-name call totals and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: (op, layer) -> summed self seconds
            self.self_s: dict[tuple[str, str], float] = defaultdict(float)
            #: op -> summed root seconds, and root count
            self.root_s: dict[str, float] = defaultdict(float)
            self.roots: dict[str, int] = defaultdict(int)
            #: hook name -> summed seconds, and call count
            self.name_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            #: counts contributed by hook notes
            self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> "Ledger":
        """A copy of the totals so far, unaffected by later calls."""
        copy = Ledger()
        with self._lock:
            for attr in ("self_s", "root_s", "roots", "name_s", "calls",
                         "counts"):
                getattr(copy, attr).update(getattr(self, attr))
        return copy

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, op: str, frame: _Frame, name: Optional[str],
               notes: Optional[dict]) -> None:
        dur = time.perf_counter() - frame.t0
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1].child_s += dur
        with self._lock:
            self.self_s[(op, frame.layer)] += dur - frame.child_s
            if not stack:
                self.root_s[op] += dur
                self.roots[op] += 1
            if name is not None:
                self.name_s[name] += dur
                self.calls[name] += 1
            for key, value in (notes or {}).items():
                self.counts[key] += value

    @contextmanager
    def op(self, op: str) -> Iterator[None]:
        """Open a root for one measured operation of kind ``op``."""
        frame = _Frame(OTHER, time.perf_counter())
        self._stack().append((op, frame))
        try:
            yield
        finally:
            self._close(op, frame, None, None)

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that books its calls to ``hook.layer``."""
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = ledger._stack()
            if stack:
                op = stack[-1][0]
            elif hook.op is not None:
                op = hook.op
            else:
                return fn(*args, **kwargs)
            frame = _Frame(hook.layer, time.perf_counter())
            stack.append((op, frame))
            notes = None
            try:
                result = fn(*args, **kwargs)
                if hook.note is not None:
                    notes = hook.note(args, kwargs, result)
                return result
            finally:
                ledger._close(op, frame, hook.name, notes)

        return traced


class Installed:
    """The wrappers one :func:`install` put in place; ``missing`` lists
    the hook names the program no longer has."""

    def __init__(self) -> None:
        self.replaced: list[tuple[Any, str, Callable]] = []
        self.missing: list[str] = []

    def restore(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def install(ledger: Ledger, hooks: tuple[Hook, ...] = HOOKS) -> Installed:
    """Replace every hooked name with its wrapper.

    A module or attribute that does not exist is recorded in
    ``Installed.missing`` instead of raising, so a renamed function
    shows up in the results rather than stopping the benchmark.
    """
    done = Installed()
    for hook in hooks:
        try:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr)
        except (ImportError, AttributeError):
            done.missing.append(hook.name)
            continue
        setattr(module, hook.attr, ledger.wrap(hook, original))
        done.replaced.append((module, hook.attr, original))
    return done


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call inside a root, in seconds.

    Times a wrapped no-op against the bare no-op on a scratch ledger;
    the traced run multiplies it by the number of wrapped calls it made
    to report the tracing overhead.
    """
    def noop():
        return None

    probe = Ledger()
    wrapped = probe.wrap(Hook("bench", "noop", "noop"), noop)
    best = float("inf")
    for _ in range(3):
        with probe.op("probe"):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
