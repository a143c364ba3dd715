"""Shared helpers for the benchmark harness.

Each bench regenerates one table or figure of the paper (see DESIGN.md's
experiment index).  Simulated runs are deterministic and expensive, so
every bench executes exactly once per session (``once``) and both prints
its artefact and writes it under ``results/`` (``smoke-results/`` under
``--smoke``, so a smoke run never overwrites the committed exports the
predictor and the golden gates read).  Every write goes through
``result_path``, which refuses a file name that the table of committed
results (``tools/results.py``) does not claim.

Harness options (also used by the CI smoke step):

``--smoke``
    Tiny machine sizes and short workloads: every driver still runs
    end-to-end (catching protocol regressions that only appear under
    sweeps), but the paper-calibrated quantitative assertions are
    skipped — they only hold at paper scale.  Artefacts go to
    ``smoke-results/``.
``--jobs N``
    Worker processes for sweep cells (default 1, serial).
``--no-cache``
    Ignore the on-disk result cache and re-simulate every cell.  CI runs
    the lock-ladder bench this way and gates its per-cell cycles,
    bus transactions and event counts against golden values with
    ``tools/perf_gate.py`` (see docs/harness.md "Golden cycles").
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.harness.cache import ResultCache
from repro.telemetry import (
    ChromeTraceSink,
    write_metrics,
    write_metrics_archive,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: where this session's artefacts go: ``results/``, or ``smoke-results/``
#: under ``--smoke`` (set by ``pytest_configure``, before any bench
#: module imports it)
RESULTS_DIR = ROOT / "results"

_SPEC = importlib.util.spec_from_file_location(
    "results_table", ROOT / "tools" / "results.py"
)
results_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(results_table)

#: The paper's Table 3 (TTS absolute, QOLB relative, IQOLB relative).
PAPER_TABLE3 = {
    "barnes": (7.5, 1.06, 1.06),
    "ocean": (6.0, 1.54, 1.52),
    "radiosity": (2.5, 6.37, 6.37),
    "raytrace": (1.5, 11.01, 10.75),
    "water-nsq": (18.1, 1.06, 1.06),
}


def pytest_addoption(parser):
    group = parser.getgroup("repro benches")
    group.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="tiny sweeps, end-to-end only; skip paper-scale assertions",
    )
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep cells (default: 1, serial)",
    )
    group.addoption(
        "--no-cache",
        action="store_true",
        default=False,
        help="bypass the on-disk result cache",
    )


def pytest_configure(config):
    global RESULTS_DIR
    if config.getoption("--smoke"):
        RESULTS_DIR = ROOT / "smoke-results"


def once(benchmark, fn, *args, **kwargs):
    """Run a deterministic, expensive experiment exactly once."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def result_path(name: str) -> pathlib.Path:
    """Where the artefact ``name`` goes under ``RESULTS_DIR``; refuses a
    name that ``tools/results.py`` does not claim."""
    results_table.claim(name)
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / name


def publish(name: str, text: str) -> None:
    """Print an artefact and persist it under ``RESULTS_DIR``."""
    print()
    print(text)
    result_path(f"{name}.txt").write_text(text + "\n")


def publish_metrics(name, results, runner_stats=None, archive=False) -> pathlib.Path:
    """Persist a machine-readable metrics document under ``RESULTS_DIR``.

    ``results`` is a grid (key -> RunResult) or an iterable of
    RunResults; the artefact conforms to
    ``tests/schemas/metrics.schema.json``.

    With ``archive=True`` (for sweeps too large to commit raw) the
    full document is written gzipped (``BENCH_<name>.json.gz``) next to
    a committed compact digest (``BENCH_<name>.summary.json``,
    ``tests/schemas/metrics_summary.schema.json``).
    """
    if archive:
        summary = result_path(f"BENCH_{name}.summary.json")
        base = result_path(f"BENCH_{name}.json.gz").with_suffix("")
        write_metrics_archive(base, results, runner_stats)
        return summary
    path = result_path(f"BENCH_{name}.json")
    write_metrics(path, results, runner_stats)
    return path


def publish_chrome_trace(name, events) -> pathlib.Path:
    """Persist recorded telemetry events as a Chrome trace under
    ``RESULTS_DIR``."""
    path = result_path(f"{name}.trace.json")
    sink = ChromeTraceSink(path)
    for event in events:
        sink.emit(event)
    sink.close()
    return path


@pytest.fixture
def paper_table3():
    return PAPER_TABLE3


@pytest.fixture
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


@pytest.fixture
def jobs(request) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture
def result_cache(request):
    """The shared result cache, or None under ``--no-cache``."""
    if request.config.getoption("--no-cache"):
        return None
    return ResultCache()
