"""Tests for the experiment runner and the table renderers."""

from repro.harness.config import SystemConfig
from repro.harness.experiment import primitive_pair, run_workload, table3
from repro.harness.runner import app_cell, execute_cell
from repro.harness.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table2_parameters,
    render_table3,
)
from repro.workloads.micro import ContendedCounter

FAST_MODEL = {"total_work": 32, "phases": 2, "serial_compute": 500,
              "local_compute": 150}


class TestPrimitives:
    def test_the_papers_three(self):
        assert primitive_pair("tts") == ("baseline", "tts")
        assert primitive_pair("qolb") == ("qolb", "qolb")
        # IQOLB runs the *TTS software* on the IQOLB protocol.
        assert primitive_pair("iqolb") == ("iqolb", "tts")

    def test_run_workload_returns_stats(self):
        config = SystemConfig(n_processors=2, policy="baseline")
        result = run_workload(
            ContendedCounter(increments_per_proc=5), config, primitive="tts"
        )
        assert result.cycles > 0
        assert result.bus_transactions > 0
        assert result.stat("sc_attempts") >= 10

    def test_run_app_small(self):
        cell = app_cell("raytrace", "iqolb", 4, model_overrides=FAST_MODEL)
        result = execute_cell(cell)
        assert result.workload == "raytrace"
        assert result.primitive == "iqolb"
        assert result.n_processors == 4

    def test_table3_row_small(self):
        (row,), _stats = table3(
            n_processors=4, apps=["raytrace"], model_overrides=FAST_MODEL
        )
        assert row.benchmark == "raytrace"
        assert row.uniprocessor_cycles > 0
        # contended single lock: queue primitives should not lose
        assert row.qolb_speedup > 0.8
        assert row.iqolb_speedup > 0.8


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_render_table_with_title(self):
        text = render_table(["h"], [["v"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_table1_contains_parameters(self):
        text = render_table1()
        for fragment in ("64-KB", "512-KB", "12-cycle", "117", "crossbar",
                         "sequential consistency"):
            assert fragment in text

    def test_table2_lists_all_benchmarks(self):
        text = render_table2()
        for name in ("barnes", "ocean", "radiosity", "raytrace", "water-nsq"):
            assert name in text

    def test_table2_parameters(self):
        text = render_table2_parameters()
        assert "hot%" in text
        assert "barnes" in text

    def test_table3_rendering(self):
        from repro.harness.experiment import Table3Row

        rows = [
            Table3Row("raytrace", 1.5, 11.0, 10.7, 100, 9, 10, 150),
        ]
        text = render_table3(rows)
        assert "TTS w/ LL/SC" in text
        assert "(1.5)" in text
        assert "11.00" in text
        assert "IQOLB" in text
