#!/usr/bin/env python3
"""Regenerate ``results/CHECK_smoke.json``, the checker's smoke matrix.

Runs ``repro check --smoke --max-schedules 120 --faults`` (every ladder
primitive on both fabrics, plus a fault-injected variant of each) with
its report in ``check-out/``, and fails unless the matrix is
violation-free, explored at least 2,000 interleavings and drove the
directory NACK/retry, timeout and injected-drop paths.  It then writes
each cell's exploration numbers (no wall times, no specs) to
``results/CHECK_smoke.json``; the numbers do not depend on the host or
the worker count, so a rerun rewrites the file byte for byte.

Usage::

    PYTHONPATH=src python tools/check_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.cli import main as repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "check-out"
#: the per-cell fields the committed projection keeps
KEYS = ("label", "interleavings", "distinct_states", "statuses", "pruned",
        "pruned_sleep", "pruned_dpor", "frontier_left")


def main() -> int:
    repro(["check", "--smoke", "--max-schedules", "120", "--faults",
           "-j", "2", "--out", str(OUT)])
    report = json.loads((OUT / "check-report.json").read_text())
    stats = report["fault_stats"]
    expected = {
        "no violation": report["total_violations"] == 0,
        ">= 2,000 interleavings": report["total_interleavings"] >= 2000,
        "directory retries": stats.get("dir.retries", 0) > 0,
        "timeouts": stats.get("timeouts", 0) > 0,
        "injected drops": stats.get("fault.drops_injected", 0) > 0,
    }
    missing = [name for name, held in expected.items() if not held]
    if missing:
        print(
            f"FAIL expected {', '.join(missing)}; got "
            f"{report['total_violations']} violation(s) "
            f"{report['counterexamples']}, "
            f"{report['total_interleavings']} interleavings, "
            f"fault-path counters {stats}",
            file=sys.stderr,
        )
    cells = [
        dict({k: cell[k] for k in KEYS}, violations=len(cell["violations"]))
        for cell in report["cells"]
    ]
    with open(ROOT / "results" / "CHECK_smoke.json", "w") as out:
        json.dump({"cells": cells}, out, indent=1, sort_keys=True)
        out.write("\n")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
