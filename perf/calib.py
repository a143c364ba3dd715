"""Host-speed normalization for the benchmark's timings.

Raw host time on a shared machine drifts by tens of percent between
runs, because neighbours share the cores and caches.  Every timed
operation is followed by a sample of a fixed pure-Python calibration
kernel, and an operation's seconds are turned into reference-host
seconds in two ways:

* by its neighbours: each repetition is scaled by ``CALIB_REF_S`` over
  the mean of the calibration samples on either side of it, and the
  median over repetitions is kept.  This is right when the slowdown
  shows in the kernel too (a busy sibling hyperthread), and wrong when
  one sample lands in a contended moment a long operation missed;
* by the run: the fastest repetition is scaled by ``CALIB_REF_S`` over
  the lower quartile of all the run's calibration samples.  Contention
  only ever slows an operation down, so this is right when the slowdown
  is one the kernel cannot see (neighbours' memory traffic; the kernel
  runs in the L1/L2 caches), and wrong when the whole run is contended.

Each fails where the other holds, and the benchmark reports their
geometric mean.  Over four sets of ten runs per workload, taken at
different times, the worst workload's spread was 9.9% by neighbours
alone, 10.3% by the run alone and 7.0% for the mean.  Bursts of calls
too short to time one at a time use the neighbours' scale only; see
:meth:`Normalizer.time_each`.

The kernel imports nothing from ``repro``: it must cost the same on
every commit, so that only the simulator's own speed moves a metric.
It mixes the interpreter work the simulator is made of (generator
resumption, bound-method calls, slot attributes, dict updates, heap
pushes).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import statistics
import time
from typing import Any, Callable, List, Sequence, Tuple

#: Seconds of one :func:`calibrate` sample on the reference host (Intel
#: Xeon, 2 vCPU, x86_64, CPython 3.11.7) with nothing else running.
#: Changing the kernel requires re-measuring this constant and starting
#: a new baseline.
CALIB_REF_S = 0.0083

#: kernel rounds per calibration run and runs per calibration sample
KERNEL_ROUNDS = 800
KERNEL_RUNS = 5


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def _walker(nodes: List[_Node]):
    index = 0
    while True:
        step = yield nodes[index & 63]
        index += step


def kernel() -> int:
    """The fixed calibration workload; returns a checksum."""
    nodes = [_Node(i, i) for i in range(64)]
    table: dict = {}
    heap: list = []
    acc = 0
    walker = _walker(nodes)
    next(walker)
    for i in range(KERNEL_ROUNDS):
        for j in range(16):
            node = walker.send(j + 1)
            acc ^= node.bump(j)
            table[node.key] = table.get(node.key, 0) + 1
            heapq.heappush(heap, (acc & 1023, i, j))
        while len(heap) > 32:
            heapq.heappop(heap)
    return acc


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """One calibration sample: the median of a few kernel runs (seconds)."""
    runs = []
    for _ in range(KERNEL_RUNS):
        start = clock()
        kernel()
        runs.append(clock() - start)
    return statistics.median(runs)


@dataclasses.dataclass
class Timed:
    """One timed operation: its result, raw host seconds, and the scale
    to reference-host seconds from the calibration samples around it."""

    result: Any
    raw_s: float
    factor: float

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


class Normalizer:
    """Times operations and takes a calibration sample after each one.

    ``samples`` keeps every calibration taken, in order.
    """

    def __init__(
        self,
        ref_s: float = CALIB_REF_S,
        clock: Callable[[], float] = time.perf_counter,
        sample: Callable[[], float] = calibrate,
    ) -> None:
        self.ref_s = ref_s
        self.clock = clock
        self._sample = sample
        self.samples: List[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        value = self._sample()
        if value <= 0:
            raise ValueError(f"calibration sample {value!r} is not positive")
        self.samples.append(value)

    def time(self, fn: Callable[[], Any]) -> Timed:
        """Run ``fn``, then take a calibration sample."""
        before = self.samples[-1]
        start = self.clock()
        result = fn()
        raw = self.clock() - start
        self._calibrate()
        return Timed(result, raw, self.ref_s / ((before + self.samples[-1]) / 2.0))

    def time_each(
        self, items: Sequence[Any], fn: Callable[[Any], Any]
    ) -> Tuple[List[Any], List[float]]:
        """``[fn(item) ...]`` and each call's normalized seconds.

        For a burst of calls too short to time one at a time.  The burst
        is short enough that the calibration samples on either side see
        the host as the calls did, so only their scale is used.
        """
        raws: List[float] = []

        def body() -> List[Any]:
            out = []
            for item in items:
                start = self.clock()
                out.append(fn(item))
                raws.append(self.clock() - start)
            return out

        timed = self.time(body)
        return timed.result, [raw * timed.factor for raw in raws]

    def run_factor(self) -> float:
        """The scale from the lower quartile of all samples so far."""
        if len(self.samples) < 2:
            return self.ref_s / self.samples[0]
        return self.ref_s / statistics.quantiles(self.samples, n=4)[0]

    def spread(self) -> float:
        """Interquartile range of the calibration samples over their median."""
        if len(self.samples) < 2:
            return 0.0
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / median


def combine(repetitions: Sequence[Timed], run_factor: float) -> float:
    """An operation's reference-host seconds: the geometric mean of its
    median neighbour-scaled repetition and its fastest repetition at the
    run's scale (see the module docstring)."""
    by_neighbours = statistics.median(t.norm_s for t in repetitions)
    by_run = min(t.raw_s for t in repetitions) * run_factor
    return math.sqrt(by_neighbours * by_run)
