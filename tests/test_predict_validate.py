"""Validation harness + calibration + schema plumbing for repro.predict.

Runs the real fit against the committed benchmark artifacts and holds
the subsystem to the CI gates it advertises: mean relative error within
bounds, predicted taxonomy ordering matching the simulated one,
artifact schema-clean (including through gzip), calibration
round-trippable.
"""

from __future__ import annotations

import gzip
import json
import pathlib

import pytest

from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.predict import (
    check_gates,
    fit_from_artifacts,
    load_calibration,
    load_observed_cells,
    predict,
    save_calibration,
    validate_artifacts,
    write_report,
)
from repro.predict.benches import ARTIFACTS, stored_signature
from repro.predict.validate import SCHEMA, OrderingGroup, ValidationReport
from repro.telemetry import (
    SchemaError,
    infer_schema_path,
    validate_file,
    write_metrics_archive,
)
from repro.workloads.micro import NullCriticalSection

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "tests" / "schemas" / "predict_error.schema.json"

pytestmark = pytest.mark.skipif(
    not (ROOT / "results" / "BENCH_table3.json").exists(),
    reason="committed benchmark artifacts not present",
)


@pytest.fixture(scope="module")
def report():
    return validate_artifacts(ROOT)


@pytest.fixture(scope="module")
def params():
    return fit_from_artifacts(ROOT)


class TestObservedCells:
    def test_stored_signatures_match_cell_identities(self):
        """Every committed cell carries a signature, and it describes
        the cell it sits in: primitive, processors, workload and key."""
        for name, spec in ARTIFACTS.items():
            cells = json.loads((ROOT / spec.path).read_text())["cells"]
            assert cells, name
            for cell in cells:
                sig = stored_signature(cell)
                assert sig is not None, (name, cell["key"])
                assert sig.primitive == cell["primitive"]
                assert sig.n_processors == cell["n_processors"]
                assert sig.workload == cell["workload"]
                if name == "lock_ladder":
                    assert [sig.fabric, sig.primitive, sig.n_processors] == (
                        cell["key"]
                    )
                elif name == "fig1_taxonomy":
                    primitive, shape = cell["key"]
                    assert (sig.primitive, sig.kind) == (primitive, shape)
                else:
                    app, label = cell["key"]
                    assert (sig.workload, sig.kind) == (app, "app")
                    if label == "uni":
                        assert sig.n_processors == 1
                    else:
                        assert sig.primitive == label
        assert len(load_observed_cells(ROOT)) == 54

    def test_signature_round_trips_through_an_archive(self, tmp_path):
        """A cell's signature comes from the cell itself, not from
        constants copied out of its bench."""
        workload = NullCriticalSection(acquires_per_proc=3, think_cycles=17)
        config = SystemConfig(n_processors=2, interconnect="directory")
        result = run_workload(workload, config, primitive="iqolb")
        results = tmp_path / "results"
        results.mkdir()
        write_metrics_archive(
            results / "BENCH_lock_ladder.json",
            {("directory", "iqolb", 2): result},
        )
        artifacts = {"lock_ladder": ARTIFACTS["lock_ladder"]}
        (cell,) = load_observed_cells(tmp_path, artifacts)
        sig = cell.signature
        assert (sig.total_ops, sig.local_compute) == (6, 17)
        assert cell.observed_cycles == result.cycles

    def test_ladder_reader_keeps_only_the_calibration_envelope(self):
        """Of the 48 committed ladder cells the fit reads 16: the
        taxonomy on the directory and IQOLB on the bus."""
        spec = ARTIFACTS["lock_ladder"]
        cells = json.loads((ROOT / spec.path).read_text())["cells"]
        kept = {
            tuple(cell["key"])
            for cell in cells
            if spec.build_signature(cell) is not None
        }
        sizes = (16, 32, 64, 128)
        envelope = {
            ("directory", primitive, n)
            for primitive in ("tts", "delayed", "iqolb")
            for n in sizes
        } | {("bus", "iqolb", n) for n in sizes}
        assert len(cells) == 48
        assert kept == envelope
        observed = load_observed_cells(ROOT, {"lock_ladder": spec})
        assert {cell.key for cell in observed} == envelope

    def test_cell_without_signature_names_its_artifact(self, tmp_path):
        path = tmp_path / ARTIFACTS["table3"].path
        path.parent.mkdir()
        path.write_text(json.dumps({"cells": [{"key": ["barnes", "uni"]}]}))
        with pytest.raises(ValueError, match="table3"):
            load_observed_cells(tmp_path)


class TestGates:
    def test_meets_advertised_error_and_ordering_gates(self, report):
        assert check_gates(report) == []
        assert report.mean_abs_rel_error <= 0.25
        assert report.ordering_agreement >= 0.90
        assert len(report.ordering) >= 5

    def test_gates_fail_when_thresholds_are_unreachable(self, report):
        problems = check_gates(
            report, max_mean_error=0.0, min_agreement=1.01
        )
        assert len(problems) == 2

    def test_agreement_counts_matching_orderings(self):
        """A group the simulation leaves unordered agrees only when the
        model predicts it unordered too."""

        def group(name, observed, predicted):
            return OrderingGroup("synthetic", (name,), observed, predicted)

        report = ValidationReport(cells=[], ordering=[
            group("ordered", True, True),
            group("unordered-predicted-ordered", False, True),
            group("unordered-predicted-unordered", False, False),
            group("ordered-predicted-unordered", True, False),
        ])
        assert report.ordering_agreement == 0.5
        assert ValidationReport(cells=[], ordering=[
            group("unordered-predicted-ordered", False, True),
        ]).ordering_agreement == 0.0

    def test_observed_ordering_holds_everywhere(self, report):
        """The simulator itself satisfies tts > delayed > iqolb on every
        lock-shaped group — a broken group would mean the registry
        paired the wrong cells."""
        assert all(group.observed_ordered for group in report.ordering)


class TestArtifact:
    def test_payload_schema_roundtrip(self, tmp_path, report):
        out = tmp_path / "BENCH_predict_error.summary.json"
        write_report(report, out)
        assert validate_file(out, SCHEMA_PATH) == 1

    def test_payload_schema_roundtrip_gzipped(self, tmp_path, report):
        out = tmp_path / "BENCH_predict_error.summary.json.gz"
        payload = json.dumps(report.payload()).encode("utf-8")
        out.write_bytes(gzip.compress(payload))
        assert validate_file(out, SCHEMA_PATH) == 1

    def test_schema_is_inferred_from_document(self, tmp_path, report):
        out = tmp_path / "report.json"
        write_report(report, out)
        assert infer_schema_path(out) == SCHEMA_PATH
        assert json.loads(out.read_text())["schema"] == SCHEMA

    def test_unregistered_schema_is_an_error(self, tmp_path):
        out = tmp_path / "odd.json"
        out.write_text(json.dumps({"schema": "nobody-knows/9"}))
        with pytest.raises(SchemaError):
            infer_schema_path(out)

    def test_committed_artifact_is_current(self, report):
        """The committed error report must match a fresh fit — CI
        regenerates and diffs, this is the local early warning."""
        committed_path = ROOT / "results" / "BENCH_predict_error.summary.json"
        if not committed_path.exists():
            pytest.skip("error artifact not committed yet")
        committed = json.loads(committed_path.read_text())
        assert committed == report.payload()


class TestCalibration:
    def test_committed_calibration_is_current(self, params):
        """A fresh fit must reproduce the committed calibration exactly:
        a parameter that drifts by one ulp fails here, not just once the
        error summary moves."""
        committed = ROOT / "results" / "PREDICT_calibration.json"
        assert params.to_dict() == json.loads(committed.read_text())

    def test_save_load_roundtrip(self, tmp_path, params):
        path = tmp_path / "calibration.json"
        save_calibration(params, path)
        restored = load_calibration(path)
        assert restored.to_dict() == params.to_dict()

    def test_fitted_curves_reproduce_micro_cells(self, params):
        """Each fitted curve must land close on its own fit points."""
        for cell in load_observed_cells(ROOT):
            if cell.signature.kind == "app":
                continue
            predicted = predict(cell.signature, params).cycles
            rel = abs(predicted - cell.observed_cycles) / cell.observed_cycles
            assert rel < 0.15, (cell.artifact, cell.key, rel)
