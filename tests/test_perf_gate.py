"""The golden-value gate and its failure diagnostics.

The gate fails when any golden cell drifts on ``cycles``,
``bus_transactions``, ``events_fired`` or ``events_total`` (fired plus
skipped, the count of a run that never parks), or, between two full
metrics exports, on any counter or histogram, and a failure in CI must be
diagnosable from the log alone: the gate prints a per-cell
expected-vs-got diff with relative deltas rather than only the failing
assertion.
"""

from __future__ import annotations

import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = ROOT / "results" / "PERF_baseline.json"

SPEC = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_gate)


def cell(key, cycles=100, bus=10, events=1000, skipped=0, rate=5000.0):
    return {
        "key": key,
        "cycles": cycles,
        "bus_transactions": bus,
        "events_fired": events,
        "events_skipped": skipped,
        "events_per_host_s": rate,
        "wall_time_s": events / rate,
    }


def golden(*cells):
    return perf_gate.build_baseline(perf_gate.index_cells({"cells": cells}))[
        "cells"
    ]


def write_summary(path, cells):
    payload = {"schema": perf_gate.SUMMARY_SCHEMA, "cells": cells}
    path.write_text(json.dumps(payload))
    return str(path)


class TestDiffCollection:
    def test_determinism_divergence_is_recorded(self):
        fresh = perf_gate.index_cells({"cells": [cell(["a"], events=1100)]})
        failures, diffs = [], []
        perf_gate.check_golden(fresh, golden(cell(["a"])), failures, diffs)
        assert any("determinism" in f for f in failures)
        assert diffs == [
            {"cell": "a", "field": "events_fired", "expected": 1000, "got": 1100},
            {"cell": "a", "field": "events_total", "expected": 1000, "got": 1100},
        ]

    def test_parking_moves_events_fired_but_not_the_total(self):
        """Events a parked loop skips leave ``events_total`` alone; a
        change to the never-parking count is a drift of its own."""
        parked = perf_gate.index_cells(
            {"cells": [cell(["a"], events=700, skipped=300)]}
        )
        failures, diffs = [], []
        perf_gate.check_golden(parked, golden(cell(["a"])), failures, diffs)
        assert [d["field"] for d in diffs] == ["events_fired"]
        assert parked["a"]["events_total"] == 1000
        more = perf_gate.index_cells(
            {"cells": [cell(["a"], events=1000, skipped=1)]}
        )
        diffs = []
        perf_gate.check_golden(more, golden(cell(["a"])), [], diffs)
        assert diffs == [
            {"cell": "a", "field": "events_total", "expected": 1000, "got": 1001}
        ]

    def test_clean_run_records_nothing(self):
        grid = perf_gate.index_cells({"cells": [cell(["a"])]})
        failures, diffs = [], []
        perf_gate.check_golden(grid, golden(cell(["a"])), failures, diffs)
        assert failures == []
        assert diffs == []

    def test_missing_golden_cell_fails(self):
        failures = []
        perf_gate.check_golden({}, golden(cell(["a"])), failures)
        assert failures == ["determinism: golden cell a not measured"]


class TestGate:
    def test_cycles_only_drift_fails(self, tmp_path, capsys):
        """Events and bus transactions match; one cell's cycles do not."""
        key = ["bus", "tts", 16]
        gold = tmp_path / "golden.json"
        fresh = write_summary(tmp_path / "fresh.json", [cell(key)])
        assert perf_gate.main([fresh, "--golden", str(gold), "--update"]) == 0
        drifted = write_summary(tmp_path / "drift.json", [cell(key, cycles=101)])
        assert perf_gate.main([drifted, "--golden", str(gold)]) == 1
        err = capsys.readouterr().err
        assert "bus/tts/16 cycles is 101, golden says 100" in err
        assert "+1.00%" in err

    def test_summary_is_a_golden_file(self, tmp_path):
        """A committed metrics summary gates a fresh run directly."""
        cells = [cell(["directory", "iqolb", 64], cycles=5000)]
        gold = write_summary(tmp_path / "golden.summary.json", cells)
        fresh = write_summary(tmp_path / "fresh.json", cells)
        assert perf_gate.main([fresh, "--golden", gold]) == 0

    def test_metrics_export_reads_events_from_manifests(self, tmp_path):
        """A ``repro-metrics/1`` export (``BENCH_table3.json``) keeps each
        cell's event count in its manifest; the loader lifts it out."""
        exported = []
        for events in (1000, 1001):
            full = cell(["barnes", "iqolb"], cycles=5000, events=events)
            del full["events_fired"], full["events_skipped"]
            full["manifest"] = {
                "events_fired": events, "events_skipped": 7, "version": "x"
            }
            exported.append(
                {"schema": perf_gate.METRICS_SCHEMA, "cells": [full]}
            )
        gold, fresh, drifted = (
            tmp_path / "golden.json", tmp_path / "fresh.json",
            tmp_path / "drifted.json",
        )
        gold.write_text(json.dumps(exported[0]))
        fresh.write_text(json.dumps(exported[0]))
        drifted.write_text(json.dumps(exported[1]))
        cells = perf_gate.load_cells(str(fresh))
        assert cells["barnes/iqolb"]["events_fired"] == 1000
        assert cells["barnes/iqolb"]["events_total"] == 1007
        assert perf_gate.load_golden(str(gold)) == cells
        assert perf_gate.main([str(fresh), "--golden", str(gold)]) == 0
        assert perf_gate.main([str(drifted), "--golden", str(gold)]) == 1

    def test_metrics_export_pins_counters_and_histograms(
        self, tmp_path, capsys
    ):
        """Between two ``repro-metrics/1`` exports a counter drift fails
        even with cycles, transactions and events unchanged; a golden
        without breakdowns (a summary) still gates only the fields."""
        def export(conflicts, path):
            full = cell(["barnes", "tts"], cycles=5000)
            full["counters"] = {
                "bus.line_conflicts": conflicts, "bus.transactions": 10
            }
            full["histograms"] = {"bus.arb_wait": {"count": 10, "max": 4}}
            path.write_text(
                json.dumps({"schema": perf_gate.METRICS_SCHEMA, "cells": [full]})
            )
            return str(path)

        gold = export(334331, tmp_path / "golden.json")
        assert perf_gate.main([gold, "--golden", gold]) == 0
        drifted = export(334332, tmp_path / "drifted.json")
        assert perf_gate.main([drifted, "--golden", gold]) == 1
        err = capsys.readouterr().err
        assert (
            "barnes/tts counters bus.line_conflicts is 334332, golden says "
            "334331" in err
        )
        assert "counters[bus.line_conflicts]" in err
        summary = write_summary(
            tmp_path / "summary.json", [cell(["barnes", "tts"], cycles=5000)]
        )
        assert perf_gate.main([drifted, "--golden", summary]) == 0

    def test_unknown_golden_schema_fails(self, tmp_path, capsys):
        gold = tmp_path / "old.json"
        gold.write_text(json.dumps({"schema": "repro-perf-baseline/1"}))
        fresh = write_summary(tmp_path / "fresh.json", [])
        assert perf_gate.main([fresh, "--golden", str(gold)]) == 1
        assert "repro-perf-baseline/1" in capsys.readouterr().err

    def test_committed_baseline_pins_three_fields(self):
        payload = json.loads(BASELINE.read_text())
        assert payload["schema"] == perf_gate.BASELINE_SCHEMA
        assert set(payload) == {"schema", "cells"}
        for values in payload["cells"].values():
            assert set(values) == set(perf_gate.GOLDEN_FIELDS)


class TestDiffRendering:
    def test_diff_table_shows_relative_delta(self):
        out = io.StringIO()
        perf_gate.print_cell_diffs(
            [
                {
                    "cell": "directory/iqolb/64",
                    "field": "events_fired",
                    "expected": 1000,
                    "got": 1100,
                }
            ],
            file=out,
        )
        text = out.getvalue()
        assert "directory/iqolb/64" in text
        assert "expected" in text and "got" in text
        assert "+10.00%" in text

    def test_no_diffs_prints_nothing(self):
        out = io.StringIO()
        perf_gate.print_cell_diffs([], file=out)
        assert out.getvalue() == ""

    def test_zero_expected_renders_na(self):
        out = io.StringIO()
        perf_gate.print_cell_diffs(
            [{"cell": "x", "field": "cycles", "expected": 0, "got": 7}],
            file=out,
        )
        assert "n/a" in out.getvalue()
