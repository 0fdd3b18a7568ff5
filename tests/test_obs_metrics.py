"""MetricsRegistry: instruments, labels, cardinality, rendering."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    metrics,
    set_registry,
)


@pytest.fixture
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_default(self, reg):
        c = reg.counter("repro_test_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("repro_test_total").inc(-1)

    def test_same_labels_same_instrument(self, reg):
        a = reg.counter("repro_x_total", op="a")
        b = reg.counter("repro_x_total", op="a")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_total_filters_by_labels(self, reg):
        reg.counter("repro_x_total", op="a").inc(2)
        reg.counter("repro_x_total", op="b").inc(3)
        assert reg.total("repro_x_total") == 5
        assert reg.total("repro_x_total", op="a") == 2
        assert reg.total("repro_missing_total") == 0


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("repro_workers")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3


class TestHistogram:
    def test_observe_and_sample(self, reg):
        h = reg.histogram("repro_lat_seconds", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        s = h._sample()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(55.5)
        # cumulative buckets: le=1 -> 1, le=10 -> 2, +Inf -> 3
        assert s["buckets"]["1.0"] == 1
        assert s["buckets"]["10.0"] == 2
        assert s["buckets"]["+Inf"] == 3

    def test_default_buckets_monotonic(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestNamesAndKinds:
    def test_bad_name_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("Repro-Bad Name")

    def test_kind_conflict(self, reg):
        reg.counter("repro_thing_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_thing_total")


class TestCardinality:
    def test_overflow_folds_into_overflow_series(self):
        reg = MetricsRegistry(max_series_per_name=4)
        for i in range(10):
            reg.counter("repro_hot_total", key=str(i)).inc()
        snap = reg.snapshot()
        series = snap["repro_hot_total"]["series"]
        # 4 real series plus the fold-in series
        labels = [s["labels"] for s in series]
        assert {"overflow": "true"} in labels
        assert len(series) == 5
        # nothing lost: total preserved, drops accounted
        assert reg.total("repro_hot_total") == 10
        assert reg.dropped_series == 6

    def test_existing_series_keep_working_after_overflow(self):
        reg = MetricsRegistry(max_series_per_name=2)
        a = reg.counter("repro_hot_total", k="a")
        reg.counter("repro_hot_total", k="b")
        reg.counter("repro_hot_total", k="c").inc()  # folded
        a.inc(5)
        assert reg.total("repro_hot_total", k="a") == 5


class TestLookupMemo:
    """Repeat lookups come from a memo; its answers must equal the
    validated slow path's, and overflow must keep counting."""

    def test_same_instrument_any_label_order(self, reg):
        a = reg.counter("repro_memo_total", op="c", path="x")
        assert reg.counter("repro_memo_total", op="c", path="x") is a
        assert reg.counter("repro_memo_total", path="x", op="c") is a
        assert reg.counter("repro_memo_total", op="c", path="y") is not a

    def test_values_keyed_by_their_text(self, reg):
        one = reg.counter("repro_memo_total", n=1)
        assert reg.counter("repro_memo_total", n="1") is one
        assert reg.counter("repro_memo_total", n=True) is not one
        assert reg.counter("repro_memo_total", n=1.0) is not one

    def test_kind_clash_and_bad_names_still_raise(self, reg):
        reg.counter("repro_memo_total", op="c")
        reg.counter("repro_memo_total", op="c")  # memoized
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_memo_total", op="c")
        for _ in range(2):
            with pytest.raises(ValueError, match="metric name"):
                reg.counter("Repro-Bad Name")
            with pytest.raises(ValueError, match="label name"):
                reg.counter("repro_memo_total", **{"bad-label": "v"})

    def test_overflow_lookups_count_every_time(self):
        reg = MetricsRegistry(max_series_per_name=1)
        reg.counter("repro_hot_total", k="a")
        for _ in range(3):
            reg.counter("repro_hot_total", k="b").inc()
        assert reg.dropped_series == 3
        assert reg.total("repro_hot_total", overflow="true") == 3

    def test_reset_forgets_memoized_instruments(self, reg):
        a = reg.counter("repro_memo_total", op="c")
        a.inc()
        reg.reset()
        b = reg.counter("repro_memo_total", op="c")
        assert b is not a
        assert reg.total("repro_memo_total") == 0


class TestThreadSafety:
    def test_concurrent_inc(self, reg):
        c = reg.counter("repro_contended_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_concurrent_series_creation(self, reg):
        def work(i):
            for j in range(100):
                reg.counter("repro_many_total", w=str(i)).inc()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.total("repro_many_total") == 400

    def test_memoized_lookups_race_series_creation(self):
        """Memo reads race the slow path's creation and overflow fold;
        every lookup must still land on one series or count a drop."""
        reg = MetricsRegistry(max_series_per_name=4)

        def work():
            for j in range(300):
                reg.counter("repro_race_total", k=str(j % 6)).inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert reg.total("repro_race_total") == 8 * 300
        # 4 of the 6 label sets own a series; the other 2 fold on every
        # one of their 8 * 50 lookups
        assert reg.dropped_series == 2 * 8 * 50
        assert reg.total("repro_race_total", overflow="true") == 2 * 8 * 50


class TestRenderSnapshotReset:
    def test_render_exposition_style(self, reg):
        reg.counter("repro_bytes_total", op="enc").inc(7)
        reg.gauge("repro_ratio").set(2.5)
        reg.histogram("repro_bits", buckets=(8.0,)).observe(4.0)
        text = reg.render()
        assert 'repro_bytes_total{op="enc"} 7' in text
        assert "repro_ratio 2.5" in text
        assert "repro_bits_count" in text
        assert "repro_bits_sum" in text

    def test_snapshot_is_plain_data(self, reg):
        import json

        reg.counter("repro_a_total").inc()
        reg.histogram("repro_h").observe(1.0)
        json.dumps(reg.snapshot())  # must be JSON-serializable

    def test_reset(self, reg):
        reg.counter("repro_a_total").inc()
        reg.reset()
        assert reg.total("repro_a_total") == 0
        assert reg.snapshot() == {}
        assert reg.dropped_series == 0


class TestGlobalRegistry:
    def test_set_and_restore(self):
        mine = MetricsRegistry()
        prev = set_registry(mine)
        try:
            assert metrics() is mine
        finally:
            set_registry(prev)
        assert metrics() is prev
