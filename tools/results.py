#!/usr/bin/env python3
"""The table of committed results: who writes each file, what keeps it current.

Every file under ``results/`` has one entry in :data:`RESULTS`: the
file, its producer and its gate.  A producer is a ``benchmarks/bench_*.py``
file, run through pytest at full scale, or a command run from the repo
root.  The gates:

``bytes``
    Rerunning the producer rewrites the file byte for byte.
``golden``
    The file carries host wall times, so ``tools/perf_gate.py`` pins its
    deterministic per-cell fields instead: cycles, bus transactions,
    event counts, and the counters and histograms where it has them.
``budget``
    Set by hand; ``tools/time_budget.py`` reads it.

The benches' ``publish`` helpers (``benchmarks/conftest.py``) refuse a
file name that no entry claims, and ``tests/test_results_table.py``
fails on a file under ``results/`` that no entry claims, on an entry
whose file or producer is missing, and on a bench no entry names.

Usage::

    python tools/results.py

reruns every ``bytes`` producer at full scale with the result cache
off, gates each golden export those runs rewrote against the copy it
replaced (and puts that copy back), then exits with the status of
``git diff --exit-code results/``.
"""

from __future__ import annotations

import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
BYTES, GOLDEN, BUDGET = "bytes", "golden", "budget"
GATES = (BYTES, GOLDEN, BUDGET)
#: the producer of a file that is set by hand
BY_HAND = "by hand"


class Result(NamedTuple):
    """One committed file under ``results/``."""

    file: str
    producer: str
    gate: str

    @property
    def bench(self) -> bool:
        return self.producer.startswith("benchmarks/")


def _bench(name: str, *files: str, gate: str = BYTES) -> List[Result]:
    return [Result(f, f"benchmarks/bench_{name}.py", gate) for f in files]


RESULTS = (
    *_bench("table1_config", "table1.txt"),
    *_bench("table2_benchmarks", "table2.txt"),
    *_bench("table3_speedups", "table3.txt"),
    *_bench("table3_speedups", "BENCH_table3.json", gate=GOLDEN),
    *_bench("fig1_taxonomy", "fig1_taxonomy.txt"),
    *_bench("fig1_taxonomy", "BENCH_fig1_taxonomy.json", gate=GOLDEN),
    *_bench("fig2_baseline_trace", "fig2_trace.txt"),
    *_bench("fig3_delayed_trace", "fig3_trace.txt"),
    *_bench("fig4_iqolb_trace", "fig4_trace.txt", "fig4.trace.json"),
    *_bench("ablation_retention", "ablation_retention.txt"),
    *_bench("ablation_timeout", "ablation_timeout.txt"),
    *_bench("ablation_collocation", "ablation_collocation.txt"),
    *_bench("ablation_predictor", "ablation_predictor.txt"),
    *_bench("ablation_generalized", "ablation_generalized.txt"),
    *_bench("scaling", "scaling.txt"),
    *_bench("primitives", "primitives.txt"),
    *_bench("network_gap", "network_gap.txt"),
    *_bench("fairness", "fairness.txt"),
    *_bench("lock_ladder", "lock_ladder.txt"),
    *_bench(
        "lock_ladder",
        "BENCH_lock_ladder.summary.json",
        "BENCH_lock_ladder.json.gz",
        gate=GOLDEN,
    ),
    *_bench(
        "predict_error", "predict_error.txt", "BENCH_predict_error.summary.json"
    ),
    Result("PREDICT_calibration.json", "python -m repro predict --calibrate", BYTES),
    Result("CHECK_smoke.json", "python tools/check_smoke.py", BYTES),
    # the smoke ladder's cells, after a --smoke run of its bench
    Result(
        "PERF_baseline.json",
        "python tools/perf_gate.py smoke-results/BENCH_lock_ladder.summary.json"
        " --golden results/PERF_baseline.json --update",
        GOLDEN,
    ),
    Result("TIER1_budget.json", BY_HAND, BUDGET),
)

TABLE: Dict[str, Result] = {result.file: result for result in RESULTS}


def claim(name: str) -> Result:
    """The entry for ``results/<name>``; refuses a name no entry claims."""
    result = TABLE.get(name)
    if result is None:
        raise ValueError(
            f"results/{name} is not in the table of committed results "
            f"(tools/results.py); add an entry naming its producer and gate"
        )
    return result


def main() -> int:
    import perf_gate  # next to this script, on sys.path when run as one

    env = dict(os.environ, PYTHONPATH="src")
    rerun = [r for r in RESULTS if r.gate == BYTES]
    benches = sorted({r.producer for r in rerun if r.bench})
    commands = list(dict.fromkeys(r.producer for r in rerun if not r.bench))
    # golden exports a rerun bench rewrites: keep the copies they replace
    saved = {
        r.file: (ROOT / "results" / r.file).read_bytes()
        for r in RESULTS
        if r.gate == GOLDEN and r.producer in benches
    }

    runs = [[sys.executable, "-m", "pytest", *benches, "--no-cache",
             "--jobs", "2", "-q", "-p", "no:cacheprovider"]]
    runs += [
        [sys.executable, *shlex.split(command)[1:]] for command in commands
    ]
    for argv in runs:
        print("$", " ".join(argv), flush=True)
        status = subprocess.call(argv, cwd=ROOT, env=env)
        if status:
            return status

    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, content in saved.items():
            path = ROOT / "results" / name
            golden = pathlib.Path(scratch) / name
            golden.write_bytes(content)
            print(f"golden gate: results/{name}", flush=True)
            if perf_gate.main([str(path), "--golden", str(golden)]):
                failed.append(name)
            else:
                path.write_bytes(content)
    if failed:
        print(f"FAIL golden drift: {', '.join(failed)}", file=sys.stderr)
        return 1
    return subprocess.call(["git", "diff", "--exit-code", "results/"], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
