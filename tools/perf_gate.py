#!/usr/bin/env python
"""Golden-value gate for the benches' committed cells.

Compares a fresh bench artifact against golden per-cell values and
fails if any golden cell is missing or drifted on a deterministic
field: ``cycles``, ``bus_transactions``, ``events_fired`` or
``events_total``.  When both documents are full metrics exports, every
counter and every histogram must match too, so a drift such as
``bus.line_conflicts`` fails the gate even with the cycles unchanged.
The simulator is deterministic, so these values are host-independent;
a mismatch means the protocol, the workload or the event order
changed.  ``events_total`` is ``events_fired +
events_skipped``, the events a run whose spin loops never park would
fire: a change to parking may move ``events_fired`` (and refresh the
goldens), but never ``events_total``.

FRESH is a metrics summary (``repro-metrics-summary/1``, e.g.
``results/BENCH_lock_ladder.summary.json``) or a full metrics export
(``repro-metrics/1``, e.g. ``results/BENCH_table3.json``, whose cells
carry the event counts in their manifest), gzipped or not.  The golden
file is either of those or the checked-in ``results/PERF_baseline.json``
(``repro-perf-baseline/2``, the smoke cells).

Usage::

    python tools/perf_gate.py FRESH --golden FILE [--update]

Exit status is non-zero on any drift, with a per-cell diff table on
stderr.  ``--update`` rewrites FILE as a baseline from FRESH instead of
gating.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from typing import Any, Dict, Optional

BASELINE_SCHEMA = "repro-perf-baseline/2"
SUMMARY_SCHEMA = "repro-metrics-summary/1"
METRICS_SCHEMA = "repro-metrics/1"

#: the deterministic per-cell fields the golden values pin
GOLDEN_FIELDS = ("cycles", "bus_transactions", "events_fired", "events_total")
#: per-cell breakdowns a full metrics export carries, pinned name by name
#: when both documents have them
DETAIL_FIELDS = ("counters", "histograms")


def index_cells(payload: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Index a metrics document's cells by their joined key.

    A ``repro-metrics/1`` cell keeps its event counts in its manifest;
    they are read from there, so both document kinds gate alike.
    """
    cells = {}
    for cell in payload["cells"]:
        counts = cell.get("manifest") or cell
        fired = counts.get("events_fired")
        total = None if fired is None else fired + counts.get("events_skipped", 0)
        cell = {**cell, "events_fired": fired, "events_total": total}
        cells["/".join(map(str, cell["key"]))] = cell
    return cells


def read_json(path: str) -> Dict[str, Any]:
    """A JSON document, gunzipped first when ``path`` ends in ``.gz``."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def load_cells(path: str) -> Dict[str, Dict[str, Any]]:
    """The cells of a metrics document, keyed like ``bus/iqolb/8``."""
    return index_cells(read_json(path))


def load_golden(path: str) -> Dict[str, Dict[str, Any]]:
    """Golden cells from a baseline or a metrics summary."""
    payload = read_json(path)
    schema = payload.get("schema")
    if schema == BASELINE_SCHEMA:
        return payload["cells"]
    if schema in (SUMMARY_SCHEMA, METRICS_SCHEMA):
        return index_cells(payload)
    raise ValueError(
        f"{path}: golden schema {schema!r} is not one of "
        f"{BASELINE_SCHEMA!r}, {SUMMARY_SCHEMA!r}, {METRICS_SCHEMA!r}"
    )


def build_baseline(fresh: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """A baseline document pinning ``fresh``'s golden fields."""
    return {
        "schema": BASELINE_SCHEMA,
        "cells": {
            key: {field: fresh[key].get(field, 0) for field in GOLDEN_FIELDS}
            for key in sorted(fresh)
        },
    }


def record_diff(diffs, cell, field, expected, got) -> None:
    """Accumulate one expected-vs-got divergence for the failure report."""
    if diffs is not None:
        diffs.append(
            {"cell": cell, "field": field, "expected": expected, "got": got}
        )


def print_cell_diffs(diffs, file=None) -> None:
    """Render accumulated divergences as an aligned per-cell diff table,
    so a CI log shows *which* cells drifted and by how much without
    re-running the bench locally."""
    if not diffs:
        return
    out = file if file is not None else sys.stderr
    rows = []
    for diff in diffs:
        expected, got = diff["expected"], diff["got"]
        if isinstance(expected, (int, float)) and expected:
            delta = f"{(got - expected) / expected:+.2%}"
        else:
            delta = "n/a"
        rows.append(
            (diff["cell"], diff["field"], str(expected), str(got), delta)
        )
    headers = ("cell", "field", "expected", "got", "delta")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    print("per-cell diff (expected vs. got):", file=out)
    print(
        "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        file=out,
    )
    for row in rows:
        print(
            "  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)),
            file=out,
        )


def check_golden(fresh, golden, failures, diffs=None) -> None:
    """Compare every golden cell's deterministic fields with ``fresh``,
    and its counters and histograms where both cells carry them."""
    for key, expected in sorted(golden.items()):
        cell = fresh.get(key)
        if cell is None:
            failures.append(f"determinism: golden cell {key} not measured")
            continue
        for field in GOLDEN_FIELDS:
            want, got = expected.get(field), cell.get(field)
            if got != want:
                failures.append(
                    f"determinism: cell {key} {field} is {got}, golden "
                    f"says {want} (intended? re-run with --update)"
                )
                record_diff(diffs, key, field, want, got)
        for field in DETAIL_FIELDS:
            want, got = expected.get(field), cell.get(field)
            if want is None or got is None:
                continue
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    failures.append(
                        f"determinism: cell {key} {field} {name} is "
                        f"{got.get(name)}, golden says {want.get(name)}"
                    )
                    record_diff(
                        diffs, key, f"{field}[{name}]", want.get(name),
                        got.get(name),
                    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="metrics summary JSON from a fresh run")
    parser.add_argument(
        "--golden",
        required=True,
        help="golden values: a repro-perf-baseline/2 file or a metrics "
        "summary or export",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite --golden as a baseline from FRESH instead of gating",
    )
    args = parser.parse_args(argv)

    fresh = load_cells(args.fresh)
    if args.update:
        baseline = build_baseline(fresh)
        with open(args.golden, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.golden} ({len(fresh)} cell(s))")
        return 0

    try:
        golden = load_golden(args.golden)
    except ValueError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    failures: list = []
    diffs: list = []
    check_golden(fresh, golden, failures, diffs)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print_cell_diffs(diffs)
        return 1
    detailed = sum(
        all(field in cell and field in fresh[key] for field in DETAIL_FIELDS)
        for key, cell in golden.items()
    )
    print(
        f"perf gate: OK ({len(golden)} golden cell(s) x "
        f"{len(GOLDEN_FIELDS)} fields match; counters and histograms "
        f"match on {detailed})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
