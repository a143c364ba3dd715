"""Compare two sets of benchmark runs, workload by workload and metric by metric.

Usage (from the repository root)::

    python perf/compare.py BASE_DIR NEW_DIR

Each directory holds run records written by ``perf/run.py --out``.  For
every workload and metric the table shows each side's median and
quartiles.  End-to-end metrics are labelled with the bounds in
``BENCHMARK.json``:

* ``improved``   -- the new side wins at least nine tenths of the run
  pairs (paired by seed) and the medians differ by more than the base
  side's interquartile range, or every new run beats every base run;
* ``regressed``  -- the new median is worse than the base median by
  more than the bound;
* ``unresolved`` -- the run-to-run spread (interquartile range over the
  median, on either side) is wider than the bound, so neither verdict
  can be drawn;
* ``unchanged``  -- otherwise.

The exit status is 1 when any metric is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN_SCHEMA = "repro-perf-run/1"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def label(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    pairs: Sequence[Tuple[float, float]] = (),
) -> str:
    """The verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(a: float, b: float) -> float:
        return sign * (b - a)  # > 0 when b is better than a

    base_q1, base_median, base_q3 = quartiles(base)
    new_median = quartiles(new)[1]
    beats_all = all(gain(a, b) > 0 for a in base for b in new)
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if max(spread(base), spread(new)) > bound:
        return "improved" if beats_all else "unresolved"
    if beats_all or (
        pairs
        and wins >= 0.9 * len(pairs)
        and gain(base_median, new_median) > base_q3 - base_q1
    ):
        return "improved"
    if -gain(base_median, new_median) > bound * abs(base_median):
        return "regressed"
    return "unchanged"


Runs = Dict[str, Dict[str, Dict[int, float]]]


def load_runs(directory: pathlib.Path) -> Tuple[Runs, Dict[str, str]]:
    """``{workload: {metric: {seed: value}}}`` and each metric's unit."""
    runs: Runs = defaultdict(lambda: defaultdict(dict))
    units: Dict[str, str] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict) or record.get("schema") != RUN_SCHEMA:
            continue
        for name, metric in record["metrics"].items():
            runs[record["workload"]][name][record["seed"]] = metric["value"]
            units[name] = metric["unit"]
    return runs, units


def compare(
    base: Runs, new: Runs, units: Dict[str, str], spec: Dict
) -> Tuple[List[List[str]], int]:
    """The comparison table and the number of regressed/unresolved rows."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows: List[List[str]] = []
    bad = 0
    for workload in sorted(set(base) | set(new)):
        for name in sorted(set(base[workload]) | set(new[workload])):
            a = base[workload].get(name, {})
            b = new[workload].get(name, {})
            if not a or not b:
                continue
            bound, verdict = "-", "-"
            if name in bounds:
                metric = bounds[name]
                bound = f"{metric['bound']:.2f}"
                verdict = label(
                    list(a.values()),
                    list(b.values()),
                    metric["better"],
                    metric["bound"],
                    [(a[seed], b[seed]) for seed in sorted(set(a) & set(b))],
                )
                bad += verdict in ("regressed", "unresolved")
            worst = max(spread(list(a.values())), spread(list(b.values())))
            rows.append(
                [
                    workload,
                    name,
                    units.get(name, ""),
                    _summary(list(a.values())),
                    _summary(list(b.values())),
                    f"{worst:.3f}",
                    bound,
                    verdict,
                ]
            )
    return rows, bad


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, units = load_runs(args.base)
    new, new_units = load_runs(args.new)
    units.update(new_units)
    rows, bad = compare(base, new, units, spec)
    header = ["workload", "metric", "unit", "base", "new", "spread", "bound", "label"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
