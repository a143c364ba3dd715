"""The scenario library: the barrier and the shipped-lock cells.

Each scenario must (a) explore violation-free at a smoke budget on both
fabrics, (b) catch its seeded mutation — a checker whose oracle never
fires is indistinguishable from one that cannot — and (c) replay any
counterexample bit-identically from the saved schedule.
"""

import json
import pathlib
import re

import pytest

from repro.check.explore import Budget, RunSpec, explore
from repro.check.oracles import (
    OUTCOME_RUNAWAY,
    BarrierMonitor,
    GrantOrderMonitor,
    ProgressOracle,
    Violation,
)
from repro.check.report import Counterexample, from_explore_violation, replay
from repro.check.scenarios import (
    MUTATIONS,
    SCENARIOS,
    build_scenario,
    install_mutation,
    mutation_names,
    scenario_names,
)
from repro.cli import main
from repro.core.registry import PRIMITIVE_SPECS
from repro.workloads.micro import ContendedCounter, NullCriticalSection

SMOKE = Budget(max_schedules=30, max_steps=80_000, max_depth=30)

CI_WORKFLOW = pathlib.Path(__file__).parent.parent / ".github/workflows/ci.yml"

#: every registered software queue lock, from the registry
SWQUEUE_PRIMITIVES = [
    name for name, spec in PRIMITIVE_SPECS.items()
    if spec.taxonomy == "swqueue"
]

#: clean cells by id: the barrier, and the ``lock`` scenario over every
#: software queue (the cell's primitive picks the shipped lock code)
CLEAN_CELLS = {
    "barrier": ("barrier", "iqolb"),
    **{name: ("lock", name) for name in SWQUEUE_PRIMITIVES},
}

#: per-mutation (scenario, primitive) cell, acquires and the oracles
#: allowed to catch it.  The barrier mutations need >= 2 rounds: with a
#: single round every thread reports arrival at program start, before
#: any barrier latency separates the early releaser from the laggard it
#: failed to wait for.
MUTATION_CASES = {
    # One per state-scan oracle: a stale sharer next to the new writer,
    # and a reader filled from stale memory behind a dirty owner.
    "sharer_keeps_copy": (("lock", "tts"), 2, {"swmr"}),
    "gets_fill_from_memory": (("lock", "tts"), 2, {"data-value"}),
    "barrier_skip_sense_flip": (("barrier", "iqolb"), 2, {"progress"}),
    "barrier_early_release": (("barrier", "iqolb"), 2, {"barrier-phase"}),
    "mcs_drop_handoff": (("lock", "mcs"), 2, {"progress"}),
    "recip_drop_terminal_signal": (
        ("lock", "reciprocating"), 2, {"progress"},
    ),
    # The skipped promotion surfaces as starvation when a waiter parks
    # behind the stale head, or as the dangling outer tail caught by the
    # final verify when every acquire won on the fast path.
    "fissile_skip_anti_collapse": (
        ("lock", "fissile"), 2, {"progress", "workload-verify"},
    ),
}


def _spec(cell, interconnect, mutation=None, acquires=1):
    scenario, primitive = cell
    kwargs = {}
    if mutation is not None:
        # Seeded-bug cells disable the hand-off timeout and tighten the
        # runaway guard so starvation surfaces quickly as a progress
        # violation rather than a timeout-recovered stall.
        kwargs = dict(timeout_cycles=10_000_000, max_cycles=200_000)
    return RunSpec(
        scenario=scenario,
        primitive=primitive,
        interconnect=interconnect,
        n_processors=2,
        acquires_per_proc=acquires,
        mutation=mutation,
        **kwargs,
    )


class TestScenariosClean:
    @pytest.mark.parametrize("cell", sorted(CLEAN_CELLS))
    def test_violation_free_at_smoke_budget(self, cell, interconnect):
        report = explore(_spec(CLEAN_CELLS[cell], interconnect), SMOKE)
        assert report.schedules_run > 1
        assert not report.violations, report.violations
        assert report.statuses.get("finished", 0) == report.schedules_run

    @pytest.mark.parametrize("cell", sorted(CLEAN_CELLS))
    def test_scenario_specific_oracle_attached(self, cell):
        scenario, primitive = CLEAN_CELLS[cell]
        built = build_scenario(scenario, primitive, "bus", 2, 1, 400, 2_000_000)
        workload = built.workload
        extras = workload.extra_oracles(built.system)
        # the registered oracle is the instance the program feeds
        if scenario == "barrier":
            assert extras == [workload.monitor]
            assert isinstance(workload.monitor, BarrierMonitor)
        else:
            assert extras == [workload.observer]
            assert isinstance(workload.observer, GrantOrderMonitor)

    @pytest.mark.parametrize("primitive", SWQUEUE_PRIMITIVES)
    def test_lock_cell_tracks_every_lockset_line(self, primitive):
        """SWMR and data-value watch the queue nodes too: the tracked
        lines are the lock line, the token, then every other line the
        LockSet allocated (counted here for 3 threads)."""
        lockset_lines = {
            "ticket": 2,  # ticket word, grant word
            "mcs": 4,  # tail, 3 nodes
            "anderson": 4,  # tail, 3 slots
            "clh": 5,  # tail, dummy node, 3 nodes
            "reciprocating": 4,  # arrivals word, 3 nodes
            "fissile": 5,  # inner word, tail, 3 nodes
        }[primitive]
        built = build_scenario("lock", primitive, "bus", 3, 1, 400, 2_000_000)
        workload, amap = built.workload, built.system.amap
        lines = built.tracked_lines
        assert lines[0] == workload.lock_line(built.system)
        assert lines[1] == amap.line_addr(workload.token_addr)
        assert len(set(lines)) == len(lines) == lockset_lines + 1

    @pytest.mark.parametrize("primitive", sorted(PRIMITIVE_SPECS))
    def test_grant_order_monitor_follows_the_spec(self, primitive):
        built = build_scenario("lock", primitive, "bus", 2, 1, 400, 2_000_000)
        monitor = built.workload.observer
        assert monitor.fifo == PRIMITIVE_SPECS[primitive].fifo
        assert monitor.lock_line == built.workload.lock_line(built.system)

    def test_lock_and_counter_run_the_bench_workloads(self):
        """The checker explores the programs the benches time: the
        shipped micro-workloads at the checker's think times."""
        lock = build_scenario("lock", "mcs", "bus", 2, 3, 400, 2_000_000)
        assert type(lock.workload) is NullCriticalSection
        assert lock.workload.lock_kind == "mcs"
        assert lock.workload.acquires_per_proc == 3
        assert lock.workload.think_cycles == 30
        counter = build_scenario("counter", "tts", "bus", 2, 3, 400, 2_000_000)
        assert type(counter.workload) is ContendedCounter
        assert counter.workload.increments_per_proc == 3
        assert counter.workload.think_cycles == 15
        assert counter.tracked_lines == [
            counter.workload.lock_line(counter.system)
        ]


class TestSeededMutations:
    @pytest.mark.parametrize("mutation", sorted(MUTATION_CASES))
    def test_mutation_caught_and_replays(self, mutation):
        cell, acquires, oracles = MUTATION_CASES[mutation]
        spec = _spec(cell, "bus", mutation=mutation, acquires=acquires)
        budget = Budget(max_schedules=20, max_steps=150_000, max_depth=30)
        report = explore(spec, budget)
        assert report.violations, f"{mutation} was not caught"
        record = report.violations[0]
        assert record["violation"]["oracle"] in oracles, record
        # Even violations raised from a program (barrier-phase) carry
        # the simulated time the run stopped at.
        assert isinstance(record["violation"]["time"], int), record

        # Bit-identical replay: same schedule -> same oracle, message,
        # and violation time.
        counterexample = from_explore_violation(spec, record)
        outcome = replay(counterexample)
        assert outcome.violation is not None, "replay lost the violation"
        assert outcome.violation["oracle"] == record["violation"]["oracle"]
        assert outcome.violation["message"] == record["violation"]["message"]
        assert outcome.violation["time"] == record["violation"]["time"]
        assert outcome.cycles == record["cycles"]


class TestProgressOracle:
    class _System:
        class sim:
            max_cycles = 100
            now = 100

    @pytest.mark.parametrize("primitive", SWQUEUE_PRIMITIVES)
    def test_software_queue_runaway_is_starvation(self, primitive):
        """A software queue hands off with a plain store whatever the
        policy, so a runaway is a lost wake-up, not LL/SC livelock."""
        oracle = ProgressOracle(PRIMITIVE_SPECS[primitive])
        with pytest.raises(Violation, match="promises bounded hand-off"):
            oracle.at_end(self._System, OUTCOME_RUNAWAY)

    def test_baseline_spinning_runaway_is_inconclusive(self):
        oracle = ProgressOracle(PRIMITIVE_SPECS["tts"])
        oracle.at_end(self._System, OUTCOME_RUNAWAY)
        assert oracle.inconclusive


class TestRegistries:
    def test_scenario_names_cover_registry(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert scenario_names() == ["barrier", "counter", "lock"]

    def test_mutation_names_cover_registry(self):
        assert mutation_names() == sorted(MUTATIONS)

    def test_ci_self_test_runs_every_mutation(self):
        """CI's seeded-mutation step installs every registered mutation,
        each on the (scenario, primitive) cell of its row above: a
        mutation CI never runs proves nothing about the checker."""
        step = CI_WORKFLOW.read_text().split(
            "- name: Seeded-mutation self-test", 1
        )[1].split("- name:", 1)[0]
        cells = {}
        for command in step.split("python -m repro check")[1:]:
            mutation = re.search(r"--mutate (\S+)", command)
            if mutation is not None:
                scenario = re.search(r"--scenario (\S+)", command)
                primitive = re.search(r"--primitives (\S+)", command)
                cells[mutation.group(1)] = (
                    scenario and scenario.group(1), primitive.group(1)
                )
        assert sorted(cells) == mutation_names()
        for mutation, (cell, _acquires, _oracles) in MUTATION_CASES.items():
            assert cells[mutation] == cell, mutation

    def test_unknown_scenario_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario") as excinfo:
            build_scenario("nope", "iqolb", "bus", 2, 1, 400, 2_000_000)
        for name in scenario_names():
            assert name in str(excinfo.value)

    def test_unknown_mutation_error_lists_known(self):
        built = build_scenario("lock", "iqolb", "bus", 2, 1, 400, 2_000_000)
        with pytest.raises(ValueError, match="unknown mutation"):
            install_mutation("nope", built.system, built.workload)

    def test_mutation_requires_matching_scenario(self):
        built = build_scenario("lock", "iqolb", "bus", 2, 1, 400, 2_000_000)
        with pytest.raises(ValueError, match="requires the 'lock' scenario "
                           "with lock kind 'mcs'"):
            install_mutation(
                "mcs_drop_handoff", built.system, built.workload
            )

    def test_replay_of_retired_scenario_names_lock(self, tmp_path, capsys):
        """Counterexamples saved from the retired ``mcs`` scenario fail
        to load with the unknown-scenario error, which lists ``lock``."""
        counterexample = Counterexample(
            spec=RunSpec(scenario="lock", primitive="mcs"), schedule=[0],
            oracle="progress", message="m", time=1,
        )
        data = counterexample.to_json_obj()
        data["spec"]["scenario"] = "mcs"
        path = tmp_path / "old-ce.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown scenario 'mcs'") as exc:
            Counterexample.load(str(path))
        assert "lock" in str(exc.value)

        assert main(["check", "--replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown scenario 'mcs'; known: barrier, counter, lock" in err

    def test_cli_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--scenario", "definitely-not-a-scenario"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "invalid choice" in err
