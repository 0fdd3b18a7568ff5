"""Process-global metrics registry: counters, gauges, histograms.

Prometheus-flavoured, dependency-free, and cheap enough to leave enabled
in the hot paths (one dict lookup + one lock per *pipeline call*, never
per symbol).  Metric names follow the convention
``repro_<area>_<name>[_total]`` (see docs/ARCHITECTURE.md), e.g.::

    metrics().counter("repro_cache_hits_total", cache="decode_table").inc()
    metrics().gauge("repro_app_compression_ratio").set(3.8)
    metrics().histogram("repro_encode_avg_bits").observe(5.2)

Series are keyed by ``(name, sorted label items)``.  Per-name label
cardinality is bounded: once ``max_series_per_name`` label sets exist for
a name, further *new* label sets fold into a single overflow series
(labels ``{"overflow": "true"}``) and the drop is counted in
``dropped_series`` — unbounded label values can therefore never blow up
memory.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "set_registry",
    "DEFAULT_BUCKETS",
    "escape_label_value",
    "parse_prometheus_text",
]

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets: geometric, covering µs-to-minutes when the
#: unit is seconds and bytes-to-GB when the unit is "count-ish"
DEFAULT_BUCKETS = tuple(float(b) for b in (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
))

_OVERFLOW_KEY = (("overflow", "true"),)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format.

    Backslash, double-quote, and newline are the three characters the
    line protocol reserves inside a quoted label value.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _render_labels(items) -> str:
    if not items:
        return ""
    body = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in items
    )
    return "{" + body + "}"


def _render_value(v: float) -> str:
    if isinstance(v, float) and v != v:  # NaN
        return "NaN"
    return f"{v:g}"


class _Instrument:
    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self):
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _sample(self):
        return self._value


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple, buckets=None):
        super().__init__(name, labels)
        bs = tuple(sorted(float(b) for b in (buckets or DEFAULT_BUCKETS)))
        if not bs:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bs
        self._counts = [0] * (len(bs) + 1)  # +inf bucket last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.buckets, float(value))
        with self._lock:
            self._counts[i] += 1
            self._sum += float(value)
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _sample(self):
        cumulative = []
        running = 0
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
        for c in counts:
            running += c
            cumulative.append(running)
        return {
            "count": total,
            "sum": s,
            "buckets": {
                **{str(b): cumulative[i] for i, b in enumerate(self.buckets)},
                "+Inf": cumulative[-1],
            },
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe instrument registry with bounded label cardinality."""

    def __init__(self, max_series_per_name: int = 256):
        if max_series_per_name < 1:
            raise ValueError("max_series_per_name must be >= 1")
        self.max_series_per_name = int(max_series_per_name)
        self._series: dict[str, dict[tuple, _Instrument]] = {}
        self._kind: dict[str, str] = {}
        #: validated ``(kind, name, labels as passed)`` -> instrument, so
        #: a repeat lookup skips the name checks and the label sort.
        #: Overflow-folded lookups are never stored: each must count.
        self._memo: dict[tuple, _Instrument] = {}
        self._lock = threading.Lock()
        self.dropped_series = 0

    # ---------------------------------------------------------- lookup --
    def _get(self, kind: str, name: str, labels: dict, **extra):
        # str() the values: 1, 1.0 and True hash alike but name
        # different series
        memo_key = (kind, name, *[(k, str(v)) for k, v in labels.items()])
        inst = self._memo.get(memo_key)
        if inst is not None:
            return inst
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r} "
                "(convention: repro_<area>_<name>, snake_case)"
            )
        for k in labels:
            if not _LABEL_RE.match(k):
                raise ValueError(f"invalid label name {k!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            known = self._kind.get(name)
            if known is None:
                self._kind[name] = kind
                self._series[name] = {}
            elif known != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {known}, "
                    f"requested {kind}"
                )
            series = self._series[name]
            inst = series.get(key)
            if inst is None:
                if len(series) >= self.max_series_per_name:
                    self.dropped_series += 1
                    key = _OVERFLOW_KEY
                    inst = series.get(key)
                    if inst is None:
                        inst = _KINDS[kind](name, key, **extra)
                        series[key] = inst
                    return inst
                inst = _KINDS[kind](name, key, **extra)
                series[key] = inst
            self._memo[memo_key] = inst
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  **labels) -> Histogram:
        return self._get("histogram", name, labels, buckets=buckets)

    # --------------------------------------------------------- reading --
    def total(self, name: str, **label_filter) -> float:
        """Sum of a counter/gauge across series matching ``label_filter``."""
        with self._lock:
            series = dict(self._series.get(name, {}))
        out = 0.0
        for inst in series.values():
            if all(inst.labels.get(k) == str(v)
                   for k, v in label_filter.items()):
                if isinstance(inst, Histogram):
                    out += inst.count
                else:
                    out += inst.value
        return out

    def snapshot(self) -> dict:
        """Point-in-time dump: ``{name: {kind, series: [...]}}``."""
        with self._lock:
            names = {n: dict(s) for n, s in self._series.items()}
            kinds = dict(self._kind)
        doc = {}
        for name in sorted(names):
            doc[name] = {
                "kind": kinds[name],
                "series": [
                    {"labels": inst.labels, "value": inst._sample()}
                    for _, inst in sorted(names[name].items())
                ],
            }
        return doc

    def render(self) -> str:
        """Prometheus text-exposition format (version 0.0.4).

        Compliance points a real scraper depends on (held stable by
        :func:`parse_prometheus_text` in tests and ``make obs-smoke``):

        - histograms emit cumulative per-bucket ``<name>_bucket`` series
          with ``le`` labels, terminated by ``le="+Inf"`` whose value
          equals ``<name>_count``;
        - label values are escaped (``\\`` → ``\\\\``, ``"`` → ``\\"``,
          newline → ``\\n``) so hostile or odd label values can never
          corrupt the line protocol;
        - the output ends with a trailing newline.
        """
        lines = []
        for name, entry in self.snapshot().items():
            lines.append(f"# TYPE {name} {entry['kind']}")
            for s in entry["series"]:
                base = sorted(s["labels"].items())
                v = s["value"]
                if isinstance(v, dict):  # histogram
                    for le, cum in v["buckets"].items():
                        lbl = _render_labels(base + [("le", le)])
                        lines.append(f"{name}_bucket{lbl} {cum}")
                    lbl = _render_labels(base)
                    lines.append(f"{name}_sum{lbl} {_render_value(v['sum'])}")
                    lines.append(f"{name}_count{lbl} {v['count']}")
                else:
                    lines.append(
                        f"{name}{_render_labels(base)} {_render_value(v)}"
                    )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._kind.clear()
            self._memo.clear()
            self.dropped_series = 0


_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry the pipeline instruments feed."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = registry
    return prev


# ------------------------------------------------------------ parsing --
_SAMPLE_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")


def _parse_labels(body: str, lineno: int) -> dict[str, str]:
    """Parse the ``k="v",...`` interior of a label block (escape-aware)."""
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"line {lineno}: malformed label pair in "
                             f"{body!r}")
        key = body[i:eq].strip()
        if not _LABEL_RE.match(key):
            raise ValueError(f"line {lineno}: bad label name {key!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: label value must be quoted")
        # scan the quoted value respecting backslash escapes
        j = eq + 2
        raw = []
        while j < n:
            c = body[j]
            if c == "\\" and j + 1 < n:
                raw.append(body[j: j + 2])
                j += 2
                continue
            if c == '"':
                break
            raw.append(c)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        labels[key] = _unescape_label_value("".join(raw))
        i = j + 1
        if i < n:
            if body[i] != ",":
                raise ValueError(
                    f"line {lineno}: expected ',' between labels, got "
                    f"{body[i]!r}"
                )
            i += 1
    return labels


def parse_prometheus_text(text: str) -> dict:
    """Parse (and validate) Prometheus text-exposition output.

    Returns ``{family: {"kind": kind, "samples": [(name, labels, value),
    ...]}}``.  Raises :class:`ValueError` on any line that a real
    Prometheus scraper would reject, and additionally enforces histogram
    integrity: every ``_bucket`` series group must be cumulative
    (non-decreasing in ``le`` order), carry an ``le="+Inf"`` bucket, and
    agree with its ``_count``.  This is the format gate ``make
    obs-smoke`` runs against a live ``GET /metrics``.
    """
    families: dict[str, dict] = {}
    kinds: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE line")
                _, _, fname, kind = parts
                if kind not in _KINDS:
                    raise ValueError(
                        f"line {lineno}: unknown metric kind {kind!r}"
                    )
                kinds[fname] = kind
                families.setdefault(fname, {"kind": kind, "samples": []})
            continue  # HELP and other comments pass through
        m = _SAMPLE_NAME_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = m.group(0)
        rest = line[m.end():]
        labels: dict[str, str] = {}
        if rest.startswith("{"):
            close = _find_label_close(rest, lineno)
            labels = _parse_labels(rest[1:close], lineno)
            rest = rest[close + 1:]
        rest = rest.strip()
        value_str = rest.split()[0] if rest else ""
        try:
            value = float(value_str)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {value_str!r}"
            ) from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and kinds.get(base) == "histogram":
                family = base
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding "
                f"# TYPE declaration"
            )
        families[family]["samples"].append((name, labels, value))
    _validate_histograms(families)
    return families


def _find_label_close(rest: str, lineno: int) -> int:
    """Index of the ``}`` closing a label block (escape/quote aware)."""
    in_quotes = False
    i = 1
    while i < len(rest):
        c = rest[i]
        if c == "\\" and in_quotes:
            i += 2
            continue
        if c == '"':
            in_quotes = not in_quotes
        elif c == "}" and not in_quotes:
            return i
        i += 1
    raise ValueError(f"line {lineno}: unterminated label block")


def _validate_histograms(families: dict) -> None:
    for fname, fam in families.items():
        if fam["kind"] != "histogram":
            continue
        groups: dict[tuple, dict] = {}
        for name, labels, value in fam["samples"]:
            rest = {k: v for k, v in labels.items() if k != "le"}
            key = tuple(sorted(rest.items()))
            g = groups.setdefault(key, {"buckets": [], "count": None})
            if name == f"{fname}_bucket":
                if "le" not in labels:
                    raise ValueError(
                        f"{fname}: bucket sample missing 'le' label"
                    )
                le = labels["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                g["buckets"].append((bound, value))
            elif name == f"{fname}_count":
                g["count"] = value
        for key, g in groups.items():
            if not g["buckets"]:
                raise ValueError(
                    f"{fname}{dict(key)}: histogram has no _bucket samples"
                )
            buckets = sorted(g["buckets"])
            cums = [c for _, c in buckets]
            if any(b > a for a, b in zip(cums[1:], cums)):
                raise ValueError(
                    f"{fname}{dict(key)}: bucket counts not cumulative"
                )
            if buckets[-1][0] != float("inf"):
                raise ValueError(
                    f"{fname}{dict(key)}: missing le=\"+Inf\" bucket"
                )
            if g["count"] is not None and g["count"] != buckets[-1][1]:
                raise ValueError(
                    f"{fname}{dict(key)}: +Inf bucket ({buckets[-1][1]:g}) "
                    f"!= _count ({g['count']:g})"
                )
