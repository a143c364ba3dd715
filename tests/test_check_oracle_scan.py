"""The state-scan oracles' shared view against a per-controller scan.

:class:`~repro.check.oracles.SwmrOracle` and
:class:`~repro.check.oracles.DataValueOracle` read one
:class:`~repro.check.oracles.CoherentCopies` view per fired event.  The
reference oracles below are the scan it replaced: every controller's
``hierarchy.peek`` for every tracked line, per oracle.  Paired in one
run, both must give the same verdict — the same violation, message and
time, or none — after every step, on clean schedules and on the seeded
mutations each oracle exists to catch.
"""

import importlib

import pytest

from repro.check.explore import Budget, RunSpec, explore
from repro.check.faults import FaultPlan
from repro.check.oracles import (
    CoherentCopies,
    DataValueOracle,
    Oracle,
    SwmrOracle,
    Violation,
)
from repro.check.scenarios import build_scenario
from repro.mem.line import State

#: the module, not the ``repro.check.explore`` function that shadows it
explore_module = importlib.import_module("repro.check.explore")

class ReferenceSwmr(Oracle):
    """SWMR by a per-controller ``peek`` of every tracked line."""

    name = "swmr"

    def __init__(self, tracked_lines):
        self.tracked = tracked_lines

    def on_step(self, system):
        for line_addr in self.tracked:
            writers = []
            holders = []
            for controller in system.controllers:
                line = controller.hierarchy.peek(line_addr)
                if line is None or not line.valid:
                    continue
                if line.state is State.TEAROFF:
                    continue
                holders.append((controller.node_id, line.state))
                if line.writable:
                    writers.append(controller.node_id)
            if len(writers) > 1:
                raise Violation(
                    self.name,
                    f"line {line_addr:#x} writable at "
                    f"{['P%d' % w for w in writers]}",
                    time=system.sim.now,
                )
            if writers and len(holders) > 1:
                raise Violation(
                    self.name,
                    f"line {line_addr:#x} writable at P{writers[0]} while "
                    f"also held: {[(f'P{n}', s.value) for n, s in holders]}",
                    time=system.sim.now,
                )


class ReferenceDataValue(Oracle):
    """Data-value by a per-controller ``peek`` of every tracked line."""

    name = "data-value"

    def __init__(self, tracked_lines):
        self.tracked = tracked_lines

    def on_step(self, system):
        for line_addr in self.tracked:
            reference = None
            ref_node = None
            for controller in system.controllers:
                line = controller.hierarchy.peek(line_addr)
                if line is None or not line.valid:
                    continue
                if line.state is State.TEAROFF:
                    continue
                if reference is None:
                    reference = list(line.data)
                    ref_node = controller.node_id
                elif list(line.data) != reference:
                    raise Violation(
                        self.name,
                        f"line {line_addr:#x} diverged: "
                        f"P{ref_node}={reference} vs "
                        f"P{controller.node_id}={list(line.data)}",
                        time=system.sim.now,
                    )


def _verdict(oracle, system):
    try:
        oracle.on_step(system)
    except Violation as exc:
        return exc, (exc.oracle, exc.message, exc.time)
    return None, None


class Paired(Oracle):
    """Runs the shipped oracle and its reference after every step and
    asserts they agree; re-raises the shipped oracle's violation."""

    def __init__(self, shipped, reference, log):
        self.name = shipped.name
        self.shipped = shipped
        self.reference = reference
        self.log = log

    def on_step(self, system):
        raised, got = _verdict(self.shipped, system)
        _, want = _verdict(self.reference, system)
        step = system.sim.events_fired
        assert got == want, (step, got, want)
        self.log["steps"] += 1
        if raised is not None:
            self.log["violations"].append((step, got))
            raise raised


@pytest.fixture
def paired_log(monkeypatch):
    """Swap the explorer's state-scan oracles for shipped/reference
    pairs; returns the log of compared steps and matched violations."""
    log = {"steps": 0, "violations": []}

    def pair(shipped_cls, reference_cls):
        def make(copies):
            return Paired(
                shipped_cls(copies), reference_cls(copies.tracked), log
            )
        return make

    monkeypatch.setattr(
        explore_module, "SwmrOracle", pair(SwmrOracle, ReferenceSwmr)
    )
    monkeypatch.setattr(
        explore_module,
        "DataValueOracle",
        pair(DataValueOracle, ReferenceDataValue),
    )
    return log


BUDGET = Budget(max_schedules=8, max_steps=60_000, max_depth=30)

#: clean cells: TTS sharers, IQOLB tear-offs (exempt from both
#: oracles), an MCS queue's many lines, the barrier's round counters
CLEAN_CELLS = [
    ("lock", "tts"),
    ("lock", "iqolb"),
    ("lock", "mcs"),
    ("barrier", "iqolb"),
]


@pytest.mark.parametrize("cell", CLEAN_CELLS, ids="/".join)
def test_shared_view_agrees_on_clean_schedules(cell, interconnect, paired_log):
    scenario, primitive = cell
    spec = RunSpec(
        scenario=scenario, primitive=primitive, interconnect=interconnect,
        n_processors=3, acquires_per_proc=2,
    )
    report = explore(spec, BUDGET)
    assert not report.violations, report.violations
    assert report.schedules_run > 1
    # Both oracles compared after every fired event of every schedule.
    assert paired_log["steps"] > 2 * report.schedules_run


def test_shared_view_agrees_under_faults(paired_log):
    spec = RunSpec(
        primitive="iqolb", interconnect="directory", n_processors=3,
        fault_plan=FaultPlan(seed=1, delay_prob=0.4, drop_prob=0.3),
    )
    report = explore(spec, BUDGET)
    assert not report.violations, report.violations
    assert paired_log["steps"] > 0


@pytest.mark.parametrize(
    "mutation, oracle",
    [("sharer_keeps_copy", "swmr"), ("gets_fill_from_memory", "data-value")],
)
def test_shared_view_raises_where_the_scan_does(mutation, oracle, paired_log):
    spec = RunSpec(
        primitive="tts", n_processors=2, mutation=mutation,
        timeout_cycles=10_000_000, max_cycles=200_000,
    )
    report = explore(spec, BUDGET)
    assert report.violations, f"{mutation} was not caught"
    record = report.violations[0]["violation"]
    assert record["oracle"] == oracle, record
    # The pair agreed at the step that raised (and at every step before).
    step, (name, message, time) = paired_log["violations"][0]
    assert (name, message, time) == (
        record["oracle"], record["message"], record["time"]
    )
    assert step > 0


def test_view_is_built_once_per_fired_event():
    built = build_scenario("lock", "tts", "bus", 2, 1, 400, 2_000_000)
    system = built.system
    copies = CoherentCopies(system, built.tracked_lines)
    first = copies.per_line()
    assert copies.per_line() is first
    assert [addr for addr, _ in first] == built.tracked_lines
    system.run()
    assert copies.per_line() is not first
