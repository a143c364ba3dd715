"""Parallel experiment runner.

The sweep layer describes each simulation as a picklable
:class:`CellSpec` — (workload spec, config, primitive) plus a grid key —
and submits batches of them through :func:`run_cells`, which executes
them across a ``ProcessPoolExecutor`` worker pool, consults the
content-addressed :class:`~repro.harness.cache.ResultCache` first, and
reassembles the grid in deterministic spec order.

The simulator is single-threaded and deterministic, so a parallel run
produces results bit-identical to a serial one; ``run_cells`` falls back
to an in-process serial loop for ``n_jobs=1``, for unpicklable specs
(e.g. lambda workload factories), and for platforms where worker
processes cannot be started.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import pickle
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core.registry import get_primitive
from repro.engine.stats import shared_names
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import RunResult, run_workload
from repro.workloads.base import Workload
from repro.workloads.splash import make_app


@dataclasses.dataclass
class FactorySpec:
    """A workload built by calling ``factory(lock_kind)``.

    The factory must be picklable (a module-level callable or a
    ``functools.partial`` of one) for the spec to run in a worker
    process; unpicklable factories still work via the serial fallback.
    """

    factory: Callable[[str], Workload]
    lock_kind: str

    def make(self) -> Workload:
        return self.factory(self.lock_kind)

    def describe(self) -> Any:
        """A stable content description: class + constructor state.

        Building a workload is cheap (construction only stores
        parameters; ``build()`` is what touches a System), so the
        description is taken from a fresh instance's attributes rather
        than from the factory's identity — a factory whose parameters
        change produces a different key even if its name does not.
        """
        sample = self.make()
        return {
            "kind": "factory",
            "class": f"{type(sample).__module__}.{type(sample).__qualname__}",
            "lock_kind": self.lock_kind,
            "params": dict(vars(sample)),
        }


@dataclasses.dataclass
class AppSpec:
    """A synthetic SPLASH-2 application model by name (Table 2)."""

    app_name: str
    lock_kind: str
    model_overrides: Optional[dict] = None

    def make(self) -> Workload:
        return make_app(
            self.app_name,
            lock_kind=self.lock_kind,
            model_overrides=self.model_overrides,
        )

    def describe(self) -> Any:
        sample = self.make()
        return {
            "kind": "app",
            "app_name": self.app_name,
            "lock_kind": self.lock_kind,
            "model": sample.model,
        }


@dataclasses.dataclass
class CellSpec:
    """One grid cell: a workload on a primitive under a config."""

    key: Tuple[Any, ...]
    primitive: str
    config: SystemConfig
    workload: Any  # FactorySpec | AppSpec (anything with make/describe)
    verify: bool = True

    def __post_init__(self) -> None:
        # Reject unregistered primitives at construction, with the
        # registry's choice-listing message — a typo'd sweep spec fails
        # before any cell is simulated, not deep inside a worker.  The
        # primitive alone selects the protocol, so the cache key names
        # the policy that actually runs.
        policy = get_primitive(self.primitive).policy
        self.config = self.config.with_(policy=policy)

    def describe(self) -> Any:
        """The content description hashed into the cache key."""
        return {
            "primitive": self.primitive,
            "config": self.config,
            "workload": self.workload.describe(),
            "verify": self.verify,
        }

    def signature(self) -> Optional["WorkloadSignature"]:
        """The cell's model-facing :class:`WorkloadSignature`.

        ``None`` for workload shapes the prediction layer has no closed
        form for (trace scenarios, litmus programs).
        """
        from repro.harness.signature import WorkloadSignature

        return WorkloadSignature.from_workload(
            self.workload.make(), self.config, self.primitive
        )


@dataclasses.dataclass
class RunnerStats:
    """What a batch of cells cost: simulations run vs. cache hits."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    wall_time_s: float = 0.0
    n_jobs: int = 1

    def summary(self) -> str:
        return (
            f"{self.total} cells: {self.executed} simulated, "
            f"{self.cache_hits} cache hits "
            f"({self.n_jobs} jobs, {self.wall_time_s:.2f}s wall)"
        )

    def print_summary(self, file: Optional[TextIO] = None) -> None:
        """Print the summary to *file* (default **stderr**).

        Diagnostics go to stderr so that piping a command's stdout (e.g.
        ``repro table3 --format json | jq``) yields clean JSON.
        """
        print(self.summary(), file=file if file is not None else sys.stderr)


def app_cell(
    app: str,
    primitive: str,
    n_processors: int,
    interconnect: str = "bus",
    model_overrides: Optional[dict] = None,
) -> CellSpec:
    """One synthetic SPLASH-2 model on one primitive (unverified, as in
    Table 3), keyed ``(interconnect, app, primitive, n_processors)``."""
    return CellSpec(
        key=(interconnect, app, primitive, n_processors),
        primitive=primitive,
        config=SystemConfig(n_processors=n_processors, interconnect=interconnect),
        workload=AppSpec(
            app_name=app,
            lock_kind=get_primitive(primitive).lock_kind,
            model_overrides=model_overrides,
        ),
        verify=False,
    )


def execute_cell(spec: CellSpec, telemetry: Optional[Any] = None) -> RunResult:
    """Run one cell to completion (also the worker-process entry point).

    ``telemetry`` is passed through to :func:`run_workload`.
    """
    return run_workload(
        spec.workload.make(),
        spec.config,
        primitive=spec.primitive,
        verify=spec.verify,
        telemetry=telemetry,
    )


def _picklable(*objects: Any) -> bool:
    try:
        pickle.dumps(objects)
    except Exception:
        return False
    return True


def map_parallel(
    fn: Callable[[Any], Any], items: Sequence[Any], n_jobs: int
) -> List[Any]:
    """``[fn(item) for item in items]`` across a worker-process pool.

    The generic engine behind :func:`run_cells`, reused by any batch of
    independent deterministic jobs (e.g. ``repro check``'s per-config
    explorations).  Results come back in item order.  Falls back to an
    in-process serial loop when parallelism cannot help (one job, one
    item), when ``fn``/items are unpicklable, or when the platform cannot
    start worker processes — the results are identical either way.
    """
    if n_jobs > 1 and len(items) > 1 and _picklable(fn, list(items)):
        workers = min(n_jobs, len(items))
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            ) as pool:
                return list(pool.map(fn, items))
        except (OSError, ValueError, concurrent.futures.BrokenExecutor):
            pass  # no fork/spawn available — fall through to serial
    return [fn(item) for item in items]


def run_cells(
    specs: Sequence[CellSpec],
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Tuple[Dict[Tuple[Any, ...], RunResult], RunnerStats]:
    """Run a batch of cells, returning ``(grid, stats)``.

    The grid maps each spec's ``key`` to its :class:`RunResult`, in spec
    order.  With a cache, previously-computed cells are served from disk
    and only the remainder is simulated; ``stats`` reports the split so
    callers can surface it ("0 simulated, 20 cache hits").
    """
    stats = RunnerStats(total=len(specs), n_jobs=max(1, n_jobs))
    start = time.perf_counter()
    results: Dict[Tuple[Any, ...], RunResult] = {}
    pending: List[Tuple[CellSpec, Optional[str]]] = []
    for spec in specs:
        cache_key = cache.key(spec.describe()) if cache else None
        cached = cache.get(cache_key) if cache else None
        if cached is not None:
            results[spec.key] = cached
            stats.cache_hits += 1
        else:
            pending.append((spec, cache_key))
    if pending:
        cells = [spec for spec, _ in pending]
        for (spec, cache_key), result in zip(
            pending, map_parallel(execute_cell, cells, n_jobs)
        ):
            if n_jobs > 1:
                # A worker's result arrives through pickle with its own
                # copy of every counter name.
                result.stats = shared_names(result.stats)
            results[spec.key] = result
            stats.executed += 1
            if cache:
                cache.put(cache_key, result)
    stats.wall_time_s = time.perf_counter() - start
    return {spec.key: results[spec.key] for spec in specs}, stats
