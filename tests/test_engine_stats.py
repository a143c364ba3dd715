"""Unit tests for statistics collection."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import Counter, Histogram, StatsRegistry, WindowedCounter


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestHistogram:
    def test_empty(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0

    def test_moments(self):
        h = Histogram("h")
        for sample in (4, 2, 9):
            h.add(sample)
        assert h.count == 3
        assert h.total == 15
        assert h.min == 2
        assert h.max == 9
        assert h.mean == 5.0

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_moments_match_reference(self, samples):
        h = Histogram("h")
        for s in samples:
            h.add(s)
        assert h.count == len(samples)
        assert h.total == sum(samples)
        assert h.min == min(samples)
        assert h.max == max(samples)

    def test_empty_min_max_are_none(self):
        # Regression: min/max used to start at 0 (a sentinel fought by a
        # count==0 check); they must be None until the first sample.
        h = Histogram("h")
        assert h.min is None
        assert h.max is None
        assert h.p50 is None and h.p99 is None

    def test_first_sample_negative(self):
        # Regression: a run whose only samples are negative (e.g. a clock
        # skew diagnostic) must not report min=0 or max=0.
        h = Histogram("h")
        h.add(-7)
        assert h.min == -7
        assert h.max == -7
        h.add(-3)
        assert (h.min, h.max) == (-7, -3)

    def test_first_sample_zero(self):
        h = Histogram("h")
        h.add(0)
        h.add(5)
        assert h.min == 0
        assert h.max == 5
        assert h.count == 2

    def test_percentiles_exact_on_uniform(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.add(v)
        # Bucketed estimates carry < 2x relative error and are clamped
        # to the observed range.
        assert h.min <= h.p50 <= h.max
        assert h.p50 <= h.p90 <= h.p99 <= h.max
        assert 50 <= h.p50 < 100
        assert h.percentile(1.0) == 100

    def test_percentile_rejects_bad_fraction(self):
        h = Histogram("h")
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_single_sample_percentiles(self):
        h = Histogram("h")
        h.add(42)
        assert h.p50 == 42
        assert h.p99 == 42

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_percentiles_bounded_by_range(self, samples):
        h = Histogram("h")
        for s in samples:
            h.add(s)
        for fraction in (0.5, 0.9, 0.99):
            p = h.percentile(fraction)
            assert min(samples) <= p <= max(samples)

    def test_summary_shape(self):
        h = Histogram("h")
        h.add(3)
        h.add(300)
        digest = h.summary()
        assert digest["count"] == 2
        assert digest["min"] == 3 and digest["max"] == 300
        assert set(digest["buckets"]) == {"2", "9"}

    def test_bucket_memory_is_bounded(self):
        h = Histogram("h")
        for v in range(10_000):
            h.add(v)
        # 10k distinct samples collapse into <= 15 log2 buckets.
        assert len(h.summary()["buckets"]) <= 15


class TestWindowedCounter:
    def test_records_into_windows(self):
        w = WindowedCounter("w", window=100)
        w.record(5)
        w.record(150, 2)
        w.record(199)
        assert w.series() == [(0, 1), (100, 3)]
        assert w.total == 4
        assert w.peak() == 3

    def test_empty(self):
        w = WindowedCounter("w")
        assert w.series() == []
        assert w.total == 0
        assert w.peak() == 0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedCounter("w", window=0)

    def test_summary_is_json_shaped(self):
        w = WindowedCounter("w", window=10)
        w.record(3)
        w.record(17)
        assert w.summary() == {
            "window": 10,
            "total": 2,
            "peak": 1,
            "series": [[0, 1], [10, 1]],
        }


class TestRegistry:
    def test_counter_is_memoized(self):
        stats = StatsRegistry()
        assert stats.counter("a.b") is stats.counter("a.b")

    def test_value_of_untouched_counter(self):
        assert StatsRegistry().value("never") == 0

    def test_sum_matching(self):
        stats = StatsRegistry()
        stats.counter("cpu0.sc_fail").inc(2)
        stats.counter("cpu1.sc_fail").inc(3)
        stats.counter("cpu1.sc_ok").inc(7)
        assert stats.sum_matching(".sc_fail") == 5

    def test_snapshot(self):
        stats = StatsRegistry()
        stats.counter("a").inc()
        stats.counter("b").inc(2)
        assert stats.snapshot() == {"a": 1, "b": 2}

    def test_counters_iterates_sorted(self):
        stats = StatsRegistry()
        stats.counter("z").inc()
        stats.counter("a").inc()
        assert [name for name, _ in stats.counters()] == ["a", "z"]

    def test_histogram_registry(self):
        stats = StatsRegistry()
        stats.histogram("lat").add(3)
        stats.histogram("lat").add(5)
        (h,) = list(stats.histograms())
        assert h.count == 2

    def test_windowed_registry_memoizes(self):
        stats = StatsRegistry()
        assert stats.windowed("rate") is stats.windowed("rate")

    def test_histogram_snapshot_includes_windowed(self):
        stats = StatsRegistry()
        stats.histogram("lat").add(7)
        stats.windowed("rate", window=100).record(42)
        snap = stats.histogram_snapshot()
        assert snap["lat"]["count"] == 1
        assert snap["lat"]["p50"] == 7
        assert snap["rate"]["series"] == [[0, 1]]
