"""Parameter-sweep utilities.

A small declarative helper for the grid experiments the benches run:
sweep primitive x machine size over a workload factory and collect
:class:`~repro.harness.experiment.RunResult` objects into a grid keyed
``(primitive, procs)``.  Other axes (timeout, network latency, fabric,
...) are swept by calling :func:`sweep` once per value with
``config_overrides``.

Cells are described as picklable
:class:`~repro.harness.runner.CellSpec` objects and executed through
:func:`~repro.harness.runner.run_cells`, so every sweep can run across
a worker pool (``n_jobs``) and replay unchanged cells from the
content-addressed result cache (``cache``) — with results identical to
a serial, uncached run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import get_primitive
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import RunResult
from repro.harness.runner import CellSpec, FactorySpec, RunnerStats, run_cells
from repro.workloads.base import Workload


@dataclasses.dataclass
class SweepResult:
    """A 2-D grid of run results: rows x columns."""

    row_axis: str
    col_axis: str
    rows: List[Any]
    cols: List[Any]
    grid: Dict[Tuple[Any, Any], RunResult]
    #: Execution accounting for the batch (simulated vs. cache hits).
    runner_stats: Optional[RunnerStats] = None

    def cell(self, row: Any, col: Any) -> RunResult:
        try:
            return self.grid[(row, col)]
        except KeyError:
            raise KeyError(
                f"no sweep cell ({row!r}, {col!r}): valid {self.row_axis} "
                f"values are {self.rows!r} and valid {self.col_axis} "
                f"values are {self.cols!r}"
            ) from None


def sweep(
    workload_factory: Callable[[str], Workload],
    primitives: Sequence[str],
    processor_counts: Sequence[int],
    config_overrides: Optional[dict] = None,
    verify: bool = True,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Sweep primitive x machine size.

    ``workload_factory(lock_kind)`` builds a fresh workload per cell
    (workloads hold per-run state and cannot be reused).  For parallel
    execution the factory must be picklable (a module-level callable or
    ``functools.partial``); otherwise the sweep runs serially.
    """
    specs = []
    for primitive in primitives:
        lock_kind = get_primitive(primitive).lock_kind
        for n in processor_counts:
            config = SystemConfig(n_processors=n, **(config_overrides or {}))
            specs.append(
                CellSpec(
                    key=(primitive, n),
                    primitive=primitive,
                    config=config,
                    workload=FactorySpec(workload_factory, lock_kind),
                    verify=verify,
                )
            )
    grid, stats = run_cells(specs, n_jobs=n_jobs, cache=cache)
    return SweepResult(
        row_axis="primitive",
        col_axis="procs",
        rows=list(primitives),
        cols=list(processor_counts),
        grid=grid,
        runner_stats=stats,
    )
