"""Statistics collection for simulation components.

Components register named counters, histograms and windowed counters
with a shared :class:`StatsRegistry`; the harness reads them out at the
end of a run to compute the paper's metrics (network transactions,
failed SC sequences, deferral delays, hand-off latencies, and so on).

:class:`Histogram` is *log-bucketed*: besides the exact moments (count,
total, min, max, mean) it keeps one counter per power-of-two magnitude
bucket, which bounds memory at ~70 buckets for any 64-bit sample stream
while supporting p50/p90/p99 estimates — the distributional view the
paper's bounded-delay argument rests on.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


def _bucket_index(sample: int) -> int:
    """Signed log2 bucket: 0 holds exactly 0; b>0 holds [2^(b-1), 2^b)."""
    if sample > 0:
        return sample.bit_length()
    if sample < 0:
        return -((-sample).bit_length())
    return 0


def _bucket_upper(index: int) -> int:
    """The largest sample a bucket can hold (its percentile estimate)."""
    if index > 0:
        return (1 << index) - 1
    if index < 0:
        # Negative buckets mirror positive ones: bucket -b holds
        # (-2^b, -2^(b-1)]; its upper (closest-to-zero) bound.
        return -(1 << (-index - 1))
    return 0


class Histogram:
    """Log-bucketed sample accumulator with exact moments.

    Memory is bounded (one int per occupied power-of-two bucket), so it
    is safe for multi-million-event runs.  ``min``/``max`` are ``None``
    until the first sample — a first negative or zero sample is
    recorded faithfully rather than fighting a ``0`` sentinel.

    Percentiles are estimates: the reported value is the upper bound of
    the bucket containing the requested rank, clamped to the exact
    observed ``[min, max]``.  The relative error is therefore < 2x,
    which is ample for the order-of-magnitude latency distributions the
    harness reports.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._buckets: Dict[int, int] = {}

    def add(self, sample: int) -> None:
        if self.min is None or sample < self.min:
            self.min = sample
        if self.max is None or sample > self.max:
            self.max = sample
        self.count += 1
        self.total += sample
        index = _bucket_index(sample)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> Optional[int]:
        """Estimated value at ``fraction`` (0..1] of the distribution."""
        if self.count == 0:
            return None
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
        rank = fraction * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                estimate = _bucket_upper(index)
                assert self.min is not None and self.max is not None
                return max(self.min, min(self.max, estimate))
        return self.max  # pragma: no cover - defensive (rank <= count)

    @property
    def p50(self) -> Optional[int]:
        return self.percentile(0.50)

    @property
    def p90(self) -> Optional[int]:
        return self.percentile(0.90)

    @property
    def p99(self) -> Optional[int]:
        return self.percentile(0.99)

    def summary(self) -> Dict[str, object]:
        """A JSON-encodable digest (the metrics-export shape)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}: n={self.count} mean={self.mean:.1f} "
            f"p50={self.p50} p99={self.p99})"
        )


class WindowedCounter:
    """Counts per fixed-width simulated-time window.

    Backs throughput-over-time curves (hand-offs per 10k cycles, bus
    transactions per window, ...).  Windows are sparse: only windows
    that saw events occupy memory.
    """

    __slots__ = ("name", "window", "_counts")

    def __init__(self, name: str, window: int = 10_000) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.name = name
        self.window = window
        self._counts: Dict[int, int] = {}

    def record(self, time: int, amount: int = 1) -> None:
        index = time // self.window
        self._counts[index] = self._counts.get(index, 0) + amount

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def series(self) -> List[Tuple[int, int]]:
        """(window_start_cycle, count) pairs in time order."""
        return [
            (index * self.window, self._counts[index])
            for index in sorted(self._counts)
        ]

    def peak(self) -> int:
        """The busiest window's count (0 when empty)."""
        return max(self._counts.values(), default=0)

    def summary(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "total": self.total,
            "peak": self.peak(),
            "series": [[start, count] for start, count in self.series()],
        }


def shared_names(values: Dict[str, object]) -> Dict[str, object]:
    """``values`` keyed by the process's one string object per name: the
    names :class:`StatsRegistry` interns, shared by every result that
    arrives as a copy (decoded from the result cache, or unpickled from
    a worker process)."""
    return dict(zip(map(sys.intern, values), values.values()))


class StatsRegistry:
    """Flat namespace of counters and histograms, keyed by dotted names.

    Names follow ``component.metric`` (e.g. ``bus.transactions``,
    ``cpu3.sc_failures``) so the harness can aggregate per component or per
    metric with simple prefix/suffix matching.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._windowed: Dict[str, WindowedCounter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            # one string object per counter name in the process, shared
            # with the results the result cache decodes
            name = sys.intern(name)
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name)
            self._histograms[name] = histogram
        return histogram

    def windowed(self, name: str, window: int = 10_000) -> WindowedCounter:
        counter = self._windowed.get(name)
        if counter is None:
            counter = WindowedCounter(name, window)
            self._windowed[name] = counter
        return counter

    def value(self, name: str) -> int:
        """Return a counter's value, 0 when it was never touched."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def sum_matching(self, suffix: str) -> int:
        """Sum every counter whose name ends with ``suffix``.

        Used to aggregate per-CPU metrics, e.g. ``sum_matching('.sc_failures')``.
        """
        return sum(
            counter.value
            for name, counter in self._counters.items()
            if name.endswith(suffix)
        )

    def counters(self) -> Iterator[Tuple[str, int]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def histograms(self) -> Iterator[Histogram]:
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def snapshot(self) -> Dict[str, int]:
        """A plain dict of all counter values (for reports and tests)."""
        return {name: counter.value for name, counter in self._counters.items()}

    def histogram_snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-encodable digests of every histogram and windowed counter."""
        out: Dict[str, Dict[str, object]] = {
            name: histogram.summary()
            for name, histogram in sorted(self._histograms.items())
        }
        for name, windowed in sorted(self._windowed.items()):
            out[name] = windowed.summary()
        return out
