"""Tests for the sweep utility and the run report."""

import pytest

from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.report import render_report, report_rows
from repro.harness.sweep import sweep
from repro.workloads.micro import NullCriticalSection


def null_cs_factory(lock_kind):
    return NullCriticalSection(
        lock_kind=lock_kind, acquires_per_proc=5, think_cycles=40
    )


class TestSweep:
    def test_grid_shape(self):
        result = sweep(null_cs_factory, ["tts", "iqolb"], [2, 4])
        assert result.rows == ["tts", "iqolb"]
        assert result.cols == [2, 4]
        assert len(result.grid) == 4
        assert result.cell("tts", 2).cycles > 0

    def test_config_overrides_apply(self):
        slow = sweep(
            null_cs_factory, ["iqolb"], [4],
            config_overrides={"xbar_line_cycles": 200},
        )
        fast = sweep(
            null_cs_factory, ["iqolb"], [4],
            config_overrides={"xbar_line_cycles": 20},
        )
        assert slow.cell("iqolb", 4).cycles > fast.cell("iqolb", 4).cycles

    def test_cell_unknown_key_is_descriptive(self):
        result = sweep(null_cs_factory, ["iqolb"], [2])
        with pytest.raises(KeyError, match="valid primitive values"):
            result.cell("mcs", 2)
        with pytest.raises(KeyError, match="valid procs values"):
            result.cell("iqolb", 64)
        message = str(pytest.raises(KeyError, result.cell, "mcs", 64).value)
        assert "iqolb" in message and "2" in message


class TestReport:
    def _result(self, primitive="iqolb", interconnect="bus"):
        return run_workload(
            NullCriticalSection(
                lock_kind=get_primitive(primitive).lock_kind, acquires_per_proc=6
            ),
            SystemConfig(n_processors=4, interconnect=interconnect),
            primitive=primitive,
        )

    @pytest.mark.parametrize("interconnect", ["bus", "directory"])
    def test_rows_skip_zero_metrics(self, interconnect):
        result = self._result("tts", interconnect)
        rows = report_rows(result)
        values = {label: value for _, label, value in rows}
        assert values["total transactions"] == result.bus_transactions
        assert values["GetS (read shared)"] > 0
        assert "data pushes (gen. IQOLB)" not in values  # zero for tts
        if interconnect == "directory":
            assert values["memory supplies"] == result.stats[
                "dir.memory_supplies"
            ]

    def test_iqolb_report_shows_speculation(self):
        text = render_report(self._result("iqolb"))
        assert "tear-offs sent" in text
        assert "at release store (lock)" in text
        assert "cycles per hand-off" in text

    def test_report_header(self):
        text = render_report(self._result())
        assert "null-cs on iqolb, 4 processors" in text

    def test_derived_metrics_present(self):
        text = render_report(self._result("tts"))
        assert "SC failure rate" in text
        assert "cache hit rate" in text
