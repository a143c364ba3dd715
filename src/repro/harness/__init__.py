"""Experiment harness: configuration, system builder, runners, tables."""

from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.config import SystemConfig, table1_rows
from repro.harness.diagram import render_sequence_diagram
from repro.harness.experiment import RunResult, Table3Row, run_workload, table3
from repro.harness.fairness import FairnessReport, measure_lock_fairness
from repro.harness.layout import MemoryLayout
from repro.harness.report import render_report, report_rows
from repro.harness.runner import (
    AppSpec,
    CellSpec,
    FactorySpec,
    RunnerStats,
    run_cells,
)
from repro.harness.sweep import SweepResult, sweep
from repro.harness.system import System
from repro.harness.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table2_parameters,
    render_table3,
)
from repro.harness.traces import (
    ScenarioResult,
    TraceRecorder,
    figure2_scenario,
    figure3_scenario,
    figure4_scenario,
)

__all__ = [
    "AppSpec",
    "CellSpec",
    "FactorySpec",
    "FairnessReport",
    "MemoryLayout",
    "ResultCache",
    "RunResult",
    "RunnerStats",
    "ScenarioResult",
    "System",
    "SystemConfig",
    "Table3Row",
    "TraceRecorder",
    "default_cache_dir",
    "run_cells",
    "figure2_scenario",
    "figure3_scenario",
    "figure4_scenario",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table2_parameters",
    "render_table3",
    "measure_lock_fairness",
    "render_report",
    "render_sequence_diagram",
    "report_rows",
    "run_workload",
    "sweep",
    "SweepResult",
    "table1_rows",
    "table3",
]
