"""Tests for the workload layer: micro-benchmarks and synthetic apps."""

import re

import pytest

from conftest import build_system
from repro.core.registry import PRIMITIVE_SPECS, get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.workloads.base import LOCK_KINDS, LockSet
from repro.workloads.micro import (
    CollocatedCriticalSection,
    ContendedCounter,
    NullCriticalSection,
)
from repro.workloads.splash import APP_MODELS, APP_ORDER, make_app

#: collocated cells that never finish, by their symptom.  A node that
#: read the collocated data sends an UPGRADE or GETX on the lock line;
#: that breaks the retention queue down (``queue_breakdown``) though the
#: policy keeps it, and the squashed waiter queues again behind a tail
#: that is itself still waiting.  A protocol defect the checker's
#: ``lock`` scenario (token on its own line) cannot reach; these cells
#: keep it visible and start failing once it is fixed.
COLLOCATED_WEDGED = {
    ("bus", "delayed+retention"): "retried [0-9]+ times; wedged",
    ("directory", "delayed+retention"): "3 threads never finished",
    ("directory", "iqolb+retention"): "3 threads never finished",
}


def _collocated_cells():
    for fabric in ("bus", "directory"):
        for primitive in PRIMITIVE_SPECS:
            symptom = COLLOCATED_WEDGED.get((fabric, primitive))
            marks = () if symptom is None else pytest.mark.xfail(
                strict=True,
                raises=RuntimeError,
                reason=f"retention queue broken down by a collocated "
                f"write: {symptom}",
            )
            yield pytest.param(
                fabric, primitive, marks=marks, id=f"{fabric}-{primitive}"
            )


class TestLockSet:
    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_builds_every_kind(self, kind):
        system = build_system(2, "qolb" if kind == "qolb" else "baseline")
        lockset = LockSet(kind, system, n_locks=3, n_threads=2)
        assert lockset.lock_addr(0) != lockset.lock_addr(1)

    def test_unknown_kind_rejected(self):
        system = build_system(1)
        with pytest.raises(ValueError):
            LockSet("spinlock9000", system, 1, 1)

    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_acquire_release_roundtrip(self, kind):
        from conftest import run_programs
        from repro.cpu.ops import Compute, Read, Write

        policy = "qolb" if kind == "qolb" else "baseline"
        system = build_system(3, policy)
        lockset = LockSet(kind, system, n_locks=2, n_threads=3)
        tokens = [system.layout.alloc_line() for _ in range(2)]

        def program(tid):
            for i in range(5):
                lock_idx = i % 2
                yield from lockset.acquire(lock_idx, tid)
                value = yield Read(tokens[lock_idx])
                yield Write(tokens[lock_idx], value + 1)
                yield from lockset.release(lock_idx, tid)
                yield Compute(20)

        run_programs(system, [program(t) for t in range(3)])
        assert sum(system.read_word(t) for t in tokens) == 15


class TestMicroWorkloads:
    def test_contended_counter_verifies(self, main_policy):
        config = SystemConfig(n_processors=3)
        workload = ContendedCounter(increments_per_proc=10)
        result = run_workload(workload, config, primitive="tts")
        assert result.cycles > 0

    def test_null_cs_all_primitives(self):
        for primitive in ("tts", "iqolb", "qolb", "ticket", "mcs"):
            lock_kind = get_primitive(primitive).lock_kind
            config = SystemConfig(n_processors=3)
            workload = NullCriticalSection(
                lock_kind=lock_kind, acquires_per_proc=6
            )
            run_workload(workload, config, primitive=primitive)

    def test_null_cs_verify_requires_the_lock_free(self):
        config = SystemConfig(n_processors=2, policy="baseline")
        workload = NullCriticalSection(lock_kind="tts", acquires_per_proc=3)
        run_workload(workload, config, primitive="tts")
        # the token is right but the lock word still reads as held
        held = type("S", (), {"read_word": lambda self, addr: (
            workload.expected if addr == workload.token_addr else 1
        )})()
        with pytest.raises(AssertionError, match="tts lock not free"):
            workload.verify(held)

    @pytest.mark.parametrize("primitive", ["iqolb", "mcs"])
    def test_null_cs_observer_adds_no_ops(self, primitive):
        """The observer is bound once to the lock line, then sees
        arrive/enter/exit per acquire, and the run is the one without."""

        class Log:
            def __init__(self):
                self.calls = []

            def bind(self, system, lock_line):
                self.system, self.lock_line = system, lock_line

            def arrive(self, tid):
                self.calls.append(("arrive", tid))

            def enter(self, tid):
                self.calls.append(("enter", tid))

            def exit(self, tid):
                self.calls.append(("exit", tid))

        lock_kind = get_primitive(primitive).lock_kind
        config = SystemConfig(n_processors=3)
        log = Log()
        watched = NullCriticalSection(lock_kind, 4, 30, observer=log)
        result = run_workload(watched, config, primitive=primitive)
        plain = run_workload(
            NullCriticalSection(lock_kind, 4, 30), config, primitive=primitive
        )
        assert result == plain
        assert result.manifest.events_fired == plain.manifest.events_fired
        assert log.lock_line == watched.lock_line(log.system)
        for tid in range(3):
            mine = [kind for kind, t in log.calls if t == tid]
            assert mine == ["arrive", "enter", "exit"] * 4
        inside = [kind for kind, _ in log.calls if kind != "arrive"]
        assert inside == ["enter", "exit"] * 12

    def test_collocated_cs(self):
        config = SystemConfig(n_processors=3, policy="iqolb")
        workload = CollocatedCriticalSection(lock_kind="tts", acquires_per_proc=6)
        run_workload(workload, config, primitive="iqolb")

    @pytest.mark.parametrize("fabric,primitive", _collocated_cells())
    def test_collocated_cs_every_primitive(self, fabric, primitive):
        workload = CollocatedCriticalSection(
            lock_kind=get_primitive(primitive).lock_kind, acquires_per_proc=6
        )
        config = SystemConfig(n_processors=4, interconnect=fabric)
        try:
            run_workload(workload, config, primitive=primitive)
        except RuntimeError as err:
            symptom = COLLOCATED_WEDGED.get((fabric, primitive))
            assert symptom is not None and re.search(symptom, str(err)), err
            raise

    def test_verify_catches_corruption(self):
        config = SystemConfig(n_processors=2, policy="baseline")
        workload = ContendedCounter(increments_per_proc=5)
        result = run_workload(workload, config, primitive="tts")
        # sabotage the expectation: verify must raise
        workload.expected += 1
        system_stub = type(
            "S", (), {"read_word": lambda self, addr: workload.expected - 1}
        )()
        with pytest.raises(AssertionError):
            workload.verify(system_stub)


class TestSyntheticApps:
    def test_registry_order(self):
        assert set(APP_ORDER) == set(APP_MODELS)

    @pytest.mark.parametrize("name", APP_ORDER)
    def test_each_app_runs_small(self, name):
        app = make_app(
            name,
            lock_kind="tts",
            model_overrides={"total_work": 32, "phases": 2},
        )
        config = SystemConfig(n_processors=4, policy="iqolb")
        result = run_workload(app, config, primitive="iqolb", verify=False)
        assert result.cycles > 0

    def test_work_conservation_divisibility_enforced(self):
        app = make_app("raytrace", model_overrides={"total_work": 30})
        config = SystemConfig(n_processors=4, policy="baseline")
        with pytest.raises(ValueError):
            run_workload(app, config, primitive="tts", verify=False)

    def test_deterministic_given_seed(self):
        def one_run():
            app = make_app(
                "radiosity",
                model_overrides={"total_work": 32, "phases": 2},
            )
            config = SystemConfig(n_processors=4, policy="baseline")
            return run_workload(app, config, primitive="tts", verify=False).cycles

        assert one_run() == one_run()

    def test_seed_changes_run(self):
        def one_run(seed):
            app = make_app(
                "radiosity",
                model_overrides={"total_work": 32, "phases": 2, "seed": seed},
            )
            config = SystemConfig(n_processors=4, policy="baseline")
            return run_workload(app, config, primitive="tts", verify=False).cycles

        assert one_run(1) != one_run(2)

    def test_hot_lock_selection(self):
        """hot_lock_fraction=1 with one lock means every acquire hits it."""
        app = make_app(
            "raytrace", model_overrides={"total_work": 32, "phases": 2}
        )
        config = SystemConfig(n_processors=4, policy="iqolb")
        result = run_workload(app, config, primitive="iqolb", verify=False)
        # one lock + one data line + barrier words: tiny footprint
        assert result.stat("deferrals") > 0

    def test_make_app_override_patch(self):
        app = make_app("barnes", model_overrides={"n_locks": 3})
        assert app.model.n_locks == 3
        assert APP_MODELS["barnes"].n_locks != 3  # registry untouched
