"""Experiment runner: the paper's evaluation procedures.

The central notion is a *primitive* (paper §4): the combination of a
synchronization library implementation and the protocol policy it runs
on.  The paper's three are::

    tts    test&test&set via LL/SC on the conventional protocol
    qolb   explicit QOLB (EnQOLB/DeQOLB) on the QOLB protocol
    iqolb  the same TTS binary, unmodified, on the IQOLB protocol

— the punchline being that ``iqolb`` runs *the TTS software* and gets
QOLB-class performance.  Extra primitives (ticket, mcs, ts, and the
retention variants) support the ablation benches.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.signature import WorkloadSignature
from repro.harness.system import System
from repro.telemetry.manifest import RunManifest, workload_seed
from repro.workloads.base import Workload
from repro.workloads.splash import APP_ORDER

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.harness.cache import ResultCache
    from repro.harness.runner import RunnerStats


def primitive_pair(primitive: str) -> tuple:
    """``(policy, lock_kind)`` for a primitive; rejection of an
    unregistered name lists the valid choices."""
    spec = get_primitive(primitive)
    return spec.policy, spec.lock_kind


@dataclasses.dataclass
class RunResult:
    """Outcome of one simulated run."""

    workload: str
    primitive: str
    n_processors: int
    cycles: int
    bus_transactions: int
    stats: Dict[str, int]
    #: Host seconds the simulation took; excluded from equality so that
    #: serial, parallel and cached runs of the same cell compare equal.
    wall_time_s: float = dataclasses.field(default=0.0, compare=False)
    #: Log-bucketed histogram digests (``StatsRegistry.histogram_snapshot``)
    #: — deterministic, so they participate in equality like counters do.
    histograms: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Provenance record; host- and wall-time-dependent, never compared.
    manifest: Optional[RunManifest] = dataclasses.field(
        default=None, compare=False
    )

    def stat(self, suffix: str) -> int:
        """Sum of all per-node counters ending in ``.suffix``."""
        return sum(
            value for name, value in self.stats.items()
            if name.endswith(f".{suffix}")
        )


def run_workload(
    workload: Workload,
    config: SystemConfig,
    primitive: str = "tts",
    verify: bool = True,
    telemetry: Optional[Any] = None,
) -> RunResult:
    """Build a system, run a workload on a primitive, verify, report.

    ``telemetry``, when given, is a
    :class:`~repro.telemetry.tracer.TraceDispatcher` wired to every
    emitter in the system for the duration of the run.
    """
    import repro

    start = time.perf_counter()
    run_config = config.with_(policy=get_primitive(primitive).policy)
    system = System(run_config)
    if telemetry is not None:
        system.attach_telemetry(telemetry)
    workload.build(system)
    cycles = system.run()
    if verify:
        workload.verify(system)
    wall_time_s = time.perf_counter() - start
    signature = WorkloadSignature.from_workload(workload, run_config, primitive)
    manifest = RunManifest.collect(
        config=run_config,
        version=repro.__version__,
        seed=workload_seed(workload),
        signature=signature.to_dict() if signature is not None else None,
        wall_time_s=wall_time_s,
        events_fired=system.sim.events_fired,
        events_skipped=system.sim.events_skipped,
        queue_high_water=system.sim.queue_high_water,
    )
    return RunResult(
        workload=workload.name,
        primitive=primitive,
        n_processors=config.n_processors,
        cycles=cycles,
        bus_transactions=system.bus_transactions(),
        stats=system.stats.snapshot(),
        wall_time_s=wall_time_s,
        histograms=system.stats.histogram_snapshot(),
        manifest=manifest,
    )


@dataclasses.dataclass
class Table3Row:
    """One benchmark's row of the paper's Table 3.

    Absolute speedup is "the fraction of the running time on a single
    node divided by the running time on a 32-node system" for TTS; QOLB
    and IQOLB are reported relative to the TTS base case (paper §5).
    """

    benchmark: str
    tts_absolute_speedup: float
    qolb_speedup: float
    iqolb_speedup: float
    tts_cycles: int
    qolb_cycles: int
    iqolb_cycles: int
    uniprocessor_cycles: int


def table3_cells(
    n_processors: int = 32,
    apps: Optional[List[str]] = None,
    model_overrides: Optional[dict] = None,
) -> list:
    """The declarative cell list behind Table 3.

    Four cells per benchmark — the uniprocessor TTS base case plus TTS,
    QOLB and IQOLB on the ``n_processors`` machine — keyed
    ``(app, label)`` so the grid reassembles into :class:`Table3Row`.
    """
    from repro.harness.runner import app_cell

    names = apps if apps is not None else APP_ORDER
    cells = []
    for name in names:
        runs = [("uni", "tts", 1)] + [
            (primitive, primitive, n_processors)
            for primitive in ("tts", "qolb", "iqolb")
        ]
        for label, primitive, procs in runs:
            cell = app_cell(
                name, primitive, procs, model_overrides=model_overrides
            )
            cells.append(dataclasses.replace(cell, key=(name, label)))
    return cells


def table3(
    n_processors: int = 32,
    apps: Optional[List[str]] = None,
    n_jobs: int = 1,
    cache: Optional["ResultCache"] = None,
    model_overrides: Optional[dict] = None,
    metrics_out: Optional[str] = None,
) -> Tuple[List[Table3Row], "RunnerStats"]:
    """Reproduce the paper's Table 3 through the parallel runner.

    Returns the rows plus the :class:`~repro.harness.runner.RunnerStats`
    (simulated vs. cache-hit cell counts) for the batch.  With
    ``metrics_out``, the full per-cell grid — counters, histogram
    percentiles and run manifests — is also written as ``metrics.json``.
    """
    from repro.harness.runner import run_cells
    from repro.telemetry.export import write_metrics

    names = apps if apps is not None else APP_ORDER
    cells = table3_cells(n_processors, names, model_overrides)
    grid, stats = run_cells(cells, n_jobs=n_jobs, cache=cache)
    if metrics_out is not None:
        write_metrics(metrics_out, grid, stats)
    rows = []
    for name in names:
        uni = grid[(name, "uni")]
        tts = grid[(name, "tts")]
        qolb = grid[(name, "qolb")]
        iqolb = grid[(name, "iqolb")]
        rows.append(
            Table3Row(
                benchmark=name,
                tts_absolute_speedup=uni.cycles / tts.cycles,
                qolb_speedup=tts.cycles / qolb.cycles,
                iqolb_speedup=tts.cycles / iqolb.cycles,
                tts_cycles=tts.cycles,
                qolb_cycles=qolb.cycles,
                iqolb_cycles=iqolb.cycles,
                uniprocessor_cycles=uni.cycles,
            )
        )
    return rows, stats
