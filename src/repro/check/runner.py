"""The checker's configuration matrix, fanned out in parallel.

One :class:`CheckJob` = one cell (scenario x primitive x fabric, plus
optional faults/mutation) with its exploration budget.  Jobs are
independent deterministic processes, so they ride the same
worker-process machinery as the sweep runner
(:func:`repro.harness.runner.map_parallel`): ``repro check --jobs 8``
explores eight cells concurrently with bit-identical results.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.check.explore import Budget, RunSpec, explore
from repro.check.faults import FaultPlan
from repro.check.scenarios import LADDER
from repro.core.registry import INTERCONNECTS
from repro.harness.runner import map_parallel


@dataclasses.dataclass
class CheckJob:
    """One matrix cell plus its budget (picklable worker payload)."""

    spec: RunSpec
    budget: Budget


@dataclasses.dataclass
class JobResult:
    """One cell's exploration, summarized for aggregation."""

    label: str
    spec: RunSpec
    interleavings: int
    violations: List[Dict[str, Any]]
    statuses: Dict[str, int]
    choice_points: int
    pruned: int
    frontier_left: int
    max_depth_seen: int
    handoffs: int
    wall_time_s: float
    fault_stats: Dict[str, int]
    reduction: str = "none"
    distinct_states: int = 0
    pruned_sleep: int = 0
    pruned_dpor: int = 0


def run_job(job: CheckJob) -> JobResult:
    """Worker entry point: explore one cell."""
    report = explore(job.spec, job.budget)
    return JobResult(
        label=job.spec.label(),
        spec=job.spec,
        interleavings=report.interleavings,
        violations=report.violations,
        statuses=report.statuses,
        choice_points=report.choice_points,
        pruned=report.pruned,
        frontier_left=report.frontier_left,
        max_depth_seen=report.max_depth_seen,
        handoffs=report.handoffs,
        wall_time_s=report.wall_time_s,
        fault_stats=report.fault_stats,
        reduction=report.reduction,
        distinct_states=report.distinct_states,
        pruned_sleep=report.pruned_sleep,
        pruned_dpor=report.pruned_dpor,
    )


def run_matrix(jobs: List[CheckJob], n_jobs: int = 1) -> List[JobResult]:
    """Run every job, in parallel when asked, in job order."""
    return map_parallel(run_job, jobs, n_jobs)


def smoke_jobs(
    scenario: str = "lock",
    primitives: Optional[List[str]] = None,
    interconnects: Optional[List[str]] = None,
    n_processors: int = 4,
    acquires_per_proc: int = 2,
    max_schedules: int = 1200,
    max_steps: int = 80_000,
    max_depth: int = 60,
    fault_seeds: Optional[List[int]] = None,
    mutation: Optional[str] = None,
    timeout_cycles: Optional[int] = 400,
    max_cycles: int = 2_000_000,
    reduction: str = "none",
) -> List[CheckJob]:
    """The policy-ladder x fabric matrix with uniform budgets.

    With ``fault_seeds``, each cell is repeated once per seed with the
    fault injector armed (drops only make sense where tear-offs exist,
    which the injector's own eligibility predicate enforces).
    """
    prims = primitives if primitives is not None else list(LADDER)
    fabrics = interconnects if interconnects is not None else list(INTERCONNECTS)
    budget = Budget(
        max_schedules=max_schedules,
        max_steps=max_steps,
        max_depth=max_depth,
        reduction=reduction,
    )
    jobs: List[CheckJob] = []
    for fabric in fabrics:
        for primitive in prims:
            base = RunSpec(
                scenario=scenario,
                primitive=primitive,
                interconnect=fabric,
                n_processors=n_processors,
                acquires_per_proc=acquires_per_proc,
                mutation=mutation,
                timeout_cycles=timeout_cycles,
                max_cycles=max_cycles,
            )
            jobs.append(CheckJob(spec=base, budget=budget))
            for seed in fault_seeds or []:
                # Fault cells tighten the timeout below the injector's
                # max delay so the timeout-recovery path actually fires.
                faulted = dataclasses.replace(
                    base,
                    timeout_cycles=(
                        min(timeout_cycles, 300)
                        if timeout_cycles is not None
                        else None
                    ),
                    fault_plan=FaultPlan(
                        seed=seed,
                        delay_prob=0.4,
                        max_delay_cycles=600,
                        bus_jitter_prob=0.3,
                        drop_prob=0.3,
                    ),
                )
                jobs.append(CheckJob(spec=faulted, budget=budget))
    return jobs
