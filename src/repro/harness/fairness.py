"""Lock-fairness measurement.

The paper repeatedly trades off fairness: the distributed queue grants
"in precisely the order in which the original requests occurred"
(§3.2), while the retention alternative "avoids queue breakdown at the
expense of ... fairness and of forward progress" (§3.3), and raw TTS
spinning is famously unfair under contention.  This module quantifies
those claims: it runs the null critical section bench workload with a
:class:`FairnessRecorder` observer that timestamps every arrival (start
of acquire) and grant (acquire completed), and computes

* waiting-time statistics (mean / max / coefficient of variation),
* FIFO inversions — grants that overtook an earlier arrival, and
* Jain's fairness index over per-thread total waiting time.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.system import System
from repro.workloads.micro import NullCriticalSection


@dataclasses.dataclass
class Acquisition:
    """One lock acquisition: who, when requested, when granted."""

    tid: int
    arrival: int
    grant: int

    @property
    def wait(self) -> int:
        return self.grant - self.arrival


@dataclasses.dataclass
class FairnessReport:
    """Fairness metrics for one run."""

    primitive: str
    n_processors: int
    acquisitions: int
    mean_wait: float
    max_wait: int
    wait_cv: float
    fifo_inversions: int
    jain_index: float

    def row(self) -> Tuple:
        return (
            self.primitive,
            self.acquisitions,
            f"{self.mean_wait:.0f}",
            self.max_wait,
            f"{self.wait_cv:.2f}",
            self.fifo_inversions,
            f"{self.jain_index:.3f}",
        )


def _wait_stats(waits: List[int]) -> Tuple[float, int, float]:
    mean = sum(waits) / len(waits)
    if mean == 0:
        return mean, max(waits), 0.0
    variance = sum((w - mean) ** 2 for w in waits) / len(waits)
    return mean, max(waits), math.sqrt(variance) / mean


def count_fifo_inversions(acquisitions: List[Acquisition]) -> int:
    """Grants that overtook a strictly earlier, still-waiting arrival."""
    inversions = 0
    by_grant = sorted(acquisitions, key=lambda a: a.grant)
    for i, winner in enumerate(by_grant):
        for later in by_grant[i + 1:]:
            if later.arrival < winner.arrival:
                inversions += 1
    return inversions


def jain_index(per_thread_totals: Dict[int, int]) -> float:
    """Jain's fairness index over per-thread waiting totals (1 = fair)."""
    values = [max(v, 1) for v in per_thread_totals.values()]
    numerator = sum(values) ** 2
    denominator = len(values) * sum(v * v for v in values)
    return numerator / denominator


class FairnessRecorder:
    """A :class:`~repro.workloads.micro.NullCriticalSection` observer
    that timestamps every arrival and grant on the simulated clock."""

    def __init__(self) -> None:
        self.acquisitions: List[Acquisition] = []
        self._sim = None
        self._arrivals: Dict[int, int] = {}

    def bind(self, system: System, lock_line: int) -> None:
        self._sim = system.sim

    def arrive(self, tid: int) -> None:
        self._arrivals[tid] = self._sim.now

    def enter(self, tid: int) -> None:
        self.acquisitions.append(
            Acquisition(tid, self._arrivals.pop(tid), self._sim.now)
        )

    def exit(self, tid: int) -> None:
        pass


def measure_lock_fairness(
    primitive: str,
    n_processors: int = 8,
    acquires_per_proc: int = 15,
    think_cycles: int = 60,
    config_overrides: dict = None,
) -> FairnessReport:
    """Run a contended lock and report fairness metrics."""
    recorder = FairnessRecorder()
    workload = NullCriticalSection(
        get_primitive(primitive).lock_kind,
        acquires_per_proc,
        think_cycles,
        observer=recorder,
    )
    config = SystemConfig(n_processors=n_processors)
    if config_overrides:
        config = config.with_(**config_overrides)
    run_workload(workload, config, primitive=primitive)

    acquisitions = recorder.acquisitions
    waits = [a.wait for a in acquisitions]
    mean, worst, cv = _wait_stats(waits)
    per_thread: Dict[int, int] = {}
    for a in acquisitions:
        per_thread[a.tid] = per_thread.get(a.tid, 0) + a.wait
    return FairnessReport(
        primitive=primitive,
        n_processors=n_processors,
        acquisitions=len(acquisitions),
        mean_wait=mean,
        max_wait=worst,
        wait_cv=cv,
        fifo_inversions=count_fifo_inversions(acquisitions),
        jain_index=jain_index(per_thread),
    )
