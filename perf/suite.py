"""The benchmark's workloads.

Each workload is a list of operations that make up one *pass*, plus the
checks that say whether a pass produced the right outputs.  The
operations call the public entry points of ``repro`` and nothing else:
``System``, ``Workload.build/verify``, ``System.run``, ``run_cells``
with a ``ResultCache``, ``check.runner.run_job``, ``predict.calibrate.fit``
and ``predict.model.predict``.

``--seed`` drives only the generated inputs; seed 0 reproduces the
committed artifacts, and the simulated cycles are checked against them
wherever the inputs coincide.

* ``storm`` — TTS and delayed-response spin storms, the densest event
  streams: most host time goes to the engine's calendar queue, the
  directory's NACK/retry path and the interconnect.
* ``queue`` — queued hand-off (IQOLB and three software queue locks):
  waiters spin on L1 hits, so the work moves to the CPU, memory and
  sync layers.  Same code as ``storm``, used differently.
* ``splash`` — the paper's Table 3 applications at 32 processors, then
  the same batch re-served from a warm result cache.
* ``verify`` — the analysis tools: the protocol checker (generic engine
  path with hooks, a fresh ``System`` per schedule) and the analytical
  predictor fitted without the lock ladder, scored on the ladder.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ledger import Spans, geomean, sim_layer_metrics

from repro.check.runner import CheckJob, run_job, smoke_jobs
from repro.core.registry import PRIMITIVE_SPECS
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import RunResult, primitive_pair, table3_cells
from repro.harness.runner import CellSpec, FactorySpec, run_cells
from repro.harness.signature import WorkloadSignature
from repro.harness.system import System
from repro.predict.benches import ARTIFACTS, ObservedCell, load_observed_cells
from repro.predict.calibrate import fit, load_calibration
from repro.predict.model import default_params, predict
from repro.predict.validate import validate_cells
from repro.workloads.micro import NullCriticalSection
from repro.workloads.splash import APP_MODELS, APP_ORDER

ROOT = pathlib.Path(__file__).resolve().parents[1]
LADDER_SUMMARY = "results/BENCH_lock_ladder.summary.json"
TABLE3 = "results/BENCH_table3.json"
SHIPPED_CALIBRATION = "results/PREDICT_calibration.json"

#: lock-ladder microbenchmark constants (benchmarks/bench_lock_ladder.py)
ACQUIRES = 4
BASE_THINK = 60

STORM_CELLS = (
    ("directory", "tts", 32),
    ("bus", "tts", 32),
    ("directory", "delayed", 64),
    ("bus", "delayed", 64),
)
QUEUE_CELLS = tuple(
    (fabric, primitive, n)
    for fabric, n in (("bus", 64), ("directory", 32))
    for primitive in ("iqolb", "mcs", "reciprocating", "fissile")
)
SPLASH_PROCESSORS = 32
#: smoke runs shrink every machine to a few processors
SMOKE_PROCESSORS = {32: 4, 64: 8}

#: checker matrix: small enough that every cell spends its whole
#: schedule budget on every seed, so the work per pass does not depend
#: on which fault plan the seed picks
CHECK_PROCESSORS = 3
CHECK_ACQUIRES = 2
CHECK_SCHEDULES = 12
QUERIES = 20_000
QUERY_POOL = 256


def think_cycles(seed: int) -> int:
    """Think time for the lock microbenchmarks; 60 (the artifact) at seed 0.

    The seed moves it only a few cycles, so a seed changes the inputs
    without changing how much work a pass does.
    """
    return BASE_THINK + seed % 8


def lock_cell(fabric: str, primitive: str, n: int, think: int) -> CellSpec:
    """One null-critical-section cell of the lock ladder."""
    policy, lock_kind = primitive_pair(primitive)
    factory = functools.partial(
        NullCriticalSection, acquires_per_proc=ACQUIRES, think_cycles=think
    )
    return CellSpec(
        key=(fabric, primitive, n),
        primitive=primitive,
        config=SystemConfig(n_processors=n, policy=policy, interconnect=fabric),
        workload=FactorySpec(factory, lock_kind),
    )


def _read_json(relpath: str) -> Dict[str, Any]:
    return json.loads((ROOT / relpath).read_text())


@dataclasses.dataclass
class Op:
    """One timed operation of a pass."""

    key: str
    run: Callable[[Spans], Any]


# ----------------------------------------------------------------------
# Simulation workloads: storm, queue, splash
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SimOutcome:
    """What one simulated cell produced; equal across identical reps."""

    result: RunResult
    events: int
    queue_high_water: int


def simulate(spec: CellSpec, spans: Spans) -> SimOutcome:
    """Build, run and verify one cell, with a span around each layer call."""
    policy, _lock_kind = primitive_pair(spec.primitive)
    config = spec.config.with_(policy=policy)
    workload = spec.workload.make()
    with spans.span("harness.System"):
        system = System(config)
    with spans.span("workloads.build"):
        workload.build(system)
    with spans.span("engine.run"):
        cycles = system.run()
    if spec.verify:
        with spans.span("workloads.verify"):
            workload.verify(system)
    result = RunResult(
        workload=workload.name,
        primitive=spec.primitive,
        n_processors=config.n_processors,
        cycles=cycles,
        bus_transactions=system.bus_transactions(),
        stats=system.stats.snapshot(),
        histograms=system.stats.histogram_snapshot(),
    )
    return SimOutcome(result, system.sim.events_fired, system.sim.queue_high_water)


class SimWorkload:
    """A batch of simulated cells, then the batch re-served from a cache."""

    def __init__(
        self,
        name: str,
        specs: Sequence[CellSpec],
        references: Dict[Tuple[Any, ...], Dict[str, int]],
        warmup: CellSpec,
    ) -> None:
        self.name = name
        self.specs = list(specs)
        #: cell key -> expected {"cycles": ..., "events": ...}
        self.references = references
        self.warmup = warmup
        self.cache: Optional[ResultCache] = None
        self.calibration = None

    def setup(self, tmp: pathlib.Path) -> None:
        self.cache = ResultCache(tmp / "cache")
        self.calibration = load_calibration(ROOT / SHIPPED_CALIBRATION)
        simulate(self.warmup, Spans())

    def ops(self) -> List[Op]:
        return [
            Op(str(spec.key), functools.partial(simulate, spec))
            for spec in self.specs
        ]

    def check(self, outputs: Dict[str, Any]) -> List[str]:
        """Seed-0 cycles (and event counts) against the committed artifacts."""
        problems = []
        for spec in self.specs:
            expected = self.references.get(spec.key)
            got = outputs.get(str(spec.key))
            if expected is None or got is None:
                continue
            actual = {"cycles": got.result.cycles, "events": got.events}
            for field, value in expected.items():
                if actual[field] != value:
                    problems.append(
                        f"{spec.key}: {field} {actual[field]} != "
                        f"committed {value}"
                    )
        return problems

    def fill_cache(self, outputs: Dict[str, Any], spans: Spans) -> List[str]:
        """Write every cell to the cache and read it back (``put``/``get``)."""
        problems = []
        for spec in self.specs:
            outcome = outputs[str(spec.key)]
            with spans.span("harness.cache.key"):
                key = self.cache.key(spec.describe())
            with spans.span("harness.cache.put"):
                self.cache.put(key, outcome.result)
            with spans.span("harness.cache.get"):
                got = self.cache.get(key)
            if got != outcome.result:
                problems.append(f"{spec.key}: cache returned a different result")
        return problems

    def warm_batch(self, spans: Spans) -> Any:
        with spans.span("harness.run_cells"):
            return run_cells(self.specs, cache=self.cache)

    def check_warm(self, served: Any, outputs: Dict[str, Any]) -> List[str]:
        grid, stats = served
        if stats.cache_hits != len(self.specs):
            return [f"warm batch simulated {stats.executed} cells"]
        return [
            f"{spec.key}: warm result differs from the simulated one"
            for spec in self.specs
            if grid[spec.key] != outputs[str(spec.key)].result
        ]

    def model_accuracy(self, outputs: Dict[str, Any]) -> float:
        """The shipped predictor calibration scored on this run's cells."""
        cells = [
            ObservedCell(
                "perf",
                spec.key,
                spec.signature(),
                float(outputs[str(spec.key)].result.cycles),
            )
            for spec in self.specs
        ]
        return accuracy(validate_cells(cells, params=self.calibration))

    def layer_metrics(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        cells = [outputs[str(spec.key)] for spec in self.specs]
        return sim_layer_metrics(
            [c.result for c in cells],
            [spec.signature().total_ops for spec in self.specs],
            [c.events for c in cells],
            [c.queue_high_water for c in cells],
        )


def accuracy(report: Any) -> float:
    """Geometric mean over cells of min(predicted, observed) / max(...)."""
    return geomean(
        [
            min(c.predicted_cycles, c.observed_cycles)
            / max(c.predicted_cycles, c.observed_cycles)
            for c in report.cells
        ]
    )


def _ladder_references() -> Dict[Tuple[Any, ...], Dict[str, int]]:
    return {
        tuple(cell["key"]): {
            "cycles": cell["cycles"],
            "events": cell["events_fired"],
        }
        for cell in _read_json(LADDER_SUMMARY)["cells"]
    }


def lock_workload(name: str, cells: Sequence[Tuple], seed: int, smoke: bool):
    think = think_cycles(seed)
    if smoke:
        cells = [(f, p, SMOKE_PROCESSORS[n]) for f, p, n in cells]
    specs = [lock_cell(f, p, n, think) for f, p, n in cells]
    references = _ladder_references() if think == BASE_THINK and not smoke else {}
    fabric, primitive, _n = cells[0]
    warmup = lock_cell(fabric, primitive, 4, think)
    return SimWorkload(name, specs, references, warmup)


def splash_workload(seed: int, smoke: bool) -> SimWorkload:
    n = SMOKE_PROCESSORS[SPLASH_PROCESSORS] if smoke else SPLASH_PROCESSORS
    specs: List[CellSpec] = []
    for app in APP_ORDER:
        overrides = {"seed": APP_MODELS[app].seed + seed} if seed else None
        specs.extend(table3_cells(n, apps=[app], model_overrides=overrides))
    references = {}
    if seed == 0 and not smoke:
        references = {
            tuple(cell["key"]): {"cycles": cell["cycles"]}
            for cell in _read_json(TABLE3)["cells"]
        }
    warmup = table3_cells(4, apps=[APP_ORDER[0]])[1]
    return SimWorkload("splash", specs, references, warmup)


# ----------------------------------------------------------------------
# The analysis tools: verify
# ----------------------------------------------------------------------
def is_ladder(artifact: str) -> bool:
    """Does this artifact name or path belong to the lock ladder?"""
    return "lock_ladder" in artifact


@dataclasses.dataclass
class HeldOut:
    """Predictions for the held-out ladder cells."""

    predicted: Tuple[float, ...]
    report: Any = dataclasses.field(compare=False, default=None)


@dataclasses.dataclass
class QueryBatch:
    """A batch of ``predict()`` answers and each query's raw latency."""

    predicted: Tuple[float, ...]
    latencies_s: List[float] = dataclasses.field(compare=False, default_factory=list)


def _check_summary(job: CheckJob, spans: Spans) -> Dict[str, Any]:
    with spans.span("check.run_job", cell=job.spec.label()):
        result = run_job(job)
    summary = dataclasses.asdict(result)
    summary.pop("wall_time_s")
    summary.pop("spec")
    return summary


def query_pool(seed: int, size: int = QUERY_POOL) -> List[WorkloadSignature]:
    """Random model queries: lock microbenchmarks and application shapes."""
    rng = random.Random(seed)
    primitives = sorted(PRIMITIVE_SPECS)
    pool = []
    for i in range(size):
        fabric = rng.choice(("bus", "directory"))
        primitive = rng.choice(primitives)
        if i % 4 == 3:
            model = APP_MODELS[rng.choice(APP_ORDER)]
            n = rng.choice((1, 2, 4, 8, 16, 32))
            pool.append(
                WorkloadSignature.from_app_model(model, primitive, fabric, n)
            )
        else:
            pool.append(
                WorkloadSignature.micro_lock(
                    primitive,
                    fabric,
                    rng.randint(2, 128),
                    rng.randint(2, 20),
                    rng.randint(20, 200),
                )
            )
    return pool


class VerifyWorkload:
    """Checker cells, a held-out predictor fit, and model queries."""

    name = "verify"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.jobs = smoke_jobs(
            scenario="lock",
            n_processors=CHECK_PROCESSORS,
            acquires_per_proc=CHECK_ACQUIRES,
            max_schedules=1 if smoke else CHECK_SCHEDULES,
            reduction="dpor",
            fault_seeds=[seed],
        )
        self.n_queries = 500 if smoke else QUERIES
        self.params = None

    def setup(self, tmp: pathlib.Path) -> None:
        # The held-out split: fit only from artifacts that are not the
        # lock ladder, loaded cell by cell -- never the shipped
        # calibration file, which a later change may fit on the ladder.
        held_in = {
            name: spec
            for name, spec in ARTIFACTS.items()
            if not (is_ladder(name) or is_ladder(spec.path))
        }
        self.train = [
            c for c in load_observed_cells(ROOT, held_in) if not is_ladder(c.artifact)
        ]
        self.fitted_from = tuple(sorted({c.artifact for c in self.train}))
        self.ladder = [
            ObservedCell(
                "lock_ladder",
                tuple(cell["key"]),
                WorkloadSignature.micro_lock(
                    cell["key"][1],
                    cell["key"][0],
                    cell["key"][2],
                    ACQUIRES,
                    BASE_THINK,
                ),
                float(cell["cycles"]),
            )
            for cell in _read_json(LADDER_SUMMARY)["cells"]
        ]
        self.pool = query_pool(self.seed)
        warm = dataclasses.replace(self.jobs[0].budget, max_schedules=1)
        run_job(CheckJob(self.jobs[0].spec, warm))
        predict(self.pool[0], default_params())

    def ops(self) -> List[Op]:
        checker = [
            Op(job.spec.label(), functools.partial(_check_summary, job))
            for job in self.jobs
        ]
        return checker + [
            Op("predict.fit", self._fit),
            Op("predict.heldout", self._heldout),
            Op("predict.queries", self._queries),
        ]

    def _fit(self, spans: Spans) -> Dict[str, Any]:
        with spans.span("predict.fit"):
            self.params = fit(self.train, fitted_from=self.fitted_from)
        return self.params.to_dict()

    def _heldout(self, spans: Spans) -> HeldOut:
        with spans.span("predict.predict", cells=len(self.ladder)):
            report = validate_cells(self.ladder, params=self.params)
        return HeldOut(tuple(c.predicted_cycles for c in report.cells), report)

    def _queries(self, spans: Spans) -> QueryBatch:
        clock = time.perf_counter
        predicted, latencies = [], []
        pool, params = self.pool, self.params
        with spans.span("predict.predict", queries=self.n_queries):
            for i in range(self.n_queries):
                start = clock()
                answer = predict(pool[i % len(pool)], params)
                latencies.append(clock() - start)
                predicted.append(answer.cycles)
        return QueryBatch(tuple(predicted), latencies)

    def check(self, outputs: Dict[str, Any]) -> List[str]:
        """Checker violations, runaways and non-finite predictions."""
        problems = []
        for job in self.jobs:
            summary = outputs.get(job.spec.label())
            if summary is None:
                continue
            if summary["violations"]:
                problems.append(f"{summary['label']}: checker violation")
            if summary["statuses"].get("runaway"):
                problems.append(f"{summary['label']}: runaway schedules")
        for key in ("predict.heldout", "predict.queries"):
            batch = outputs.get(key)
            if batch is not None and not all(
                math.isfinite(v) and v > 0 for v in batch.predicted
            ):
                problems.append(f"{key}: non-finite or non-positive prediction")
        return problems

    def fill_cache(self, outputs: Dict[str, Any], spans: Spans) -> List[str]:
        return []  # the analysis tools keep no result cache

    def warm_batch(self, spans: Spans) -> HeldOut:
        """Answer the held-out cells again from the fitted model."""
        return self._heldout(spans)

    def check_warm(self, served: HeldOut, outputs: Dict[str, Any]) -> List[str]:
        if served != outputs["predict.heldout"]:
            return ["held-out predictions changed between answers"]
        return []

    def model_accuracy(self, outputs: Dict[str, Any]) -> float:
        return accuracy(outputs["predict.heldout"].report)

    def layer_metrics(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        summaries = [outputs[job.spec.label()] for job in self.jobs]
        schedules = sum(s["interleavings"] for s in summaries)
        states = sum(s["distinct_states"] for s in summaries)
        heldout = outputs["predict.heldout"].report
        insample = validate_cells(self.train, params=self.params)
        return {
            "check.schedules": schedules,
            "check.distinct_states": states,
            "check.states_per_schedule": states / schedules if schedules else 0.0,
            "check.pruned_dpor": sum(s["pruned_dpor"] for s in summaries),
            "check.pruned_sleep": sum(s["pruned_sleep"] for s in summaries),
            "check.frontier_left": sum(s["frontier_left"] for s in summaries),
            "predict.err_insample": insample.mean_abs_rel_error,
            "predict.err_heldout": heldout.mean_abs_rel_error,
            "predict.err_heldout_max": heldout.max_abs_rel_error,
            "predict.ordering_heldout": heldout.ordering_agreement,
        }


def make_workload(name: str, seed: int, smoke: bool = False):
    """The named workload, with inputs generated from ``seed``."""
    if name == "storm":
        return lock_workload("storm", STORM_CELLS, seed, smoke)
    if name == "queue":
        return lock_workload("queue", QUEUE_CELLS, seed, smoke)
    if name == "splash":
        return splash_workload(seed, smoke)
    if name == "verify":
        return VerifyWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
