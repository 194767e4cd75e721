"""Metrics-registry semantics: counters, gauges, histograms, timers.

Covers the contract documented in docs/observability.md -- name
validation, counter monotonicity, percentile math on known
distributions, cross-type name collisions, and a thread-safety smoke.
"""

import json
import threading

import pytest

from repro.obs import get_registry, reset_registry
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metric_name,
)


class TestMetricNames:
    def test_three_segments_accepted(self):
        assert validate_metric_name("search.context.queries") == (
            "search.context.queries"
        )

    def test_more_segments_accepted(self):
        validate_metric_name("a.b.c.d_e2")

    @pytest.mark.parametrize(
        "bad",
        [
            "search",  # one segment
            "search.queries",  # two segments
            "Search.context.queries",  # uppercase
            "search..queries",  # empty segment
            "search.context.2queries",  # digit-leading segment
            "search.context.queries ",  # trailing junk
        ],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_metric_name(bad)

    def test_registry_validates_on_creation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("nope")


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("a.b.c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("a.b.c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("a.b.c")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram("a.b.c")
        for value in (2.0, 4.0, 6.0, 8.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 20.0
        assert histogram.min == 2.0
        assert histogram.max == 8.0
        assert histogram.mean == 5.0

    def test_percentiles_on_known_distribution(self):
        histogram = Histogram("a.b.c")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        # Nearest-rank: p-th percentile of 1..100 is exactly p.
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(1) == 1.0

    def test_percentile_single_sample(self):
        histogram = Histogram("a.b.c")
        histogram.observe(7.0)
        assert histogram.percentile(50) == 7.0
        assert histogram.percentile(99) == 7.0

    def test_percentile_max_samples_one(self):
        # A one-slot ring: every observation evicts the last, and
        # nearest-rank over a single retained sample is that sample for
        # every percentile, while exact aggregates keep the full stream.
        histogram = Histogram("a.b.c", max_samples=1)
        for value in (3.0, 9.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 17.0
        for p in (1, 50, 95, 99, 100):
            assert histogram.percentile(p) == 5.0

    def test_percentile_empty_is_none(self):
        assert Histogram("a.b.c").percentile(50) is None

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("a.b.c").percentile(0)
        with pytest.raises(ValueError):
            Histogram("a.b.c").percentile(101)

    def test_ring_buffer_keeps_exact_count_and_sum(self):
        histogram = Histogram("a.b.c", max_samples=8)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == sum(range(100))
        assert histogram.max == 99.0
        assert histogram.min == 0.0
        # Percentiles are computed over the most recent 8 samples (92..99).
        assert histogram.percentile(50) >= 92.0

    def test_summary_keys(self):
        histogram = Histogram("a.b.c")
        histogram.observe(1.0)
        summary = histogram.summary()
        assert set(summary) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99"
        }


class TestRegistry:
    def test_memoised_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b.c") is registry.counter("a.b.c")

    def test_cross_type_reuse_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.b.c")
        with pytest.raises(ValueError):
            registry.gauge("a.b.c")
        with pytest.raises(ValueError):
            registry.histogram("a.b.c")

    def test_timer_observes_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("a.b.seconds"):
            pass
        histogram = registry.histogram("a.b.seconds")
        assert histogram.count == 1
        assert histogram.max >= 0.0

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a.b.hits").inc(3)
        registry.gauge("a.b.ratio").set(0.5)
        registry.histogram("a.b.seconds").observe(0.01)
        snapshot = registry.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["counters"]["a.b.hits"] == 3
        assert round_tripped["gauges"]["a.b.ratio"] == 0.5
        assert round_tripped["histograms"]["a.b.seconds"]["count"] == 1

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("a.b.c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_global_registry_reset(self):
        first = get_registry()
        first.counter("a.b.c").inc()
        second = reset_registry()
        assert second is get_registry()
        assert second is not first
        assert second.snapshot()["counters"] == {}

    def test_format_table_mentions_metrics(self):
        registry = MetricsRegistry()
        registry.counter("a.b.hits").inc(2)
        table = registry.format_table()
        assert "a.b.hits" in table
        assert "2" in table


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("smoke.thread.increments")
        histogram = registry.histogram("smoke.thread.samples")
        n_threads, per_thread = 8, 2000

        def work():
            for i in range(per_thread):
                counter.inc()
                histogram.observe(float(i))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread
        assert histogram.count == n_threads * per_thread
