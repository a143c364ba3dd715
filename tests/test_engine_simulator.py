"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.simulator import SimulationError, Simulator


class TestScheduling:
    def test_schedule_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(5, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 10

    def test_zero_delay_fires_same_cycle(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert sim.now == 0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule_at(42, lambda: None)
        sim.run()
        assert sim.now == 42

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(7, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(3, outer)
        sim.run()
        assert fired == [("outer", 3), ("inner", 10)]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestRun:
    def test_until_stops_early(self):
        sim = Simulator()
        fired = []
        for t in (1, 2, 3, 4):
            sim.schedule(t, fired.append, t)
        sim.run(until=lambda: len(fired) >= 2)
        assert fired == [1, 2]
        assert sim.pending_events == 2

    def test_max_cycles_guard(self):
        sim = Simulator(max_cycles=100)

        def reschedule():
            sim.schedule(10, reschedule)

        sim.schedule(10, reschedule)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_determinism(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            for t in (3, 1, 1, 2):
                sim.schedule(t, lambda t=t: trace.append((sim.now, t)))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestTieBreaker:
    def test_tie_breaker_permutes_same_cycle_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(5, fired.append, tag)
        sim.tie_breaker = lambda ties: len(ties) - 1  # always last
        sim.run()
        assert sorted(fired) == ["a", "b", "c"]
        assert fired == ["c", "b", "a"]

    def test_tie_breaker_not_consulted_without_ties(self):
        sim = Simulator()
        calls = []
        sim.tie_breaker = lambda ties: calls.append(len(ties)) or 0
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run()
        assert calls == []  # singletons pop normally

    def test_default_choice_matches_no_hook(self):
        def run(hook):
            sim = Simulator()
            fired = []
            for t, tag in ((3, "x"), (3, "y"), (7, "z")):
                sim.schedule(t, fired.append, tag)
            if hook:
                sim.tie_breaker = lambda ties: 0
            sim.run()
            return fired

        assert run(hook=False) == run(hook=True)

    def test_on_step_fires_per_event(self):
        sim = Simulator()
        steps = []
        sim.on_step = lambda: steps.append(sim.now)
        for t in (1, 4, 9):
            sim.schedule(t, lambda: None)
        sim.run()
        assert steps == [1, 4, 9]


class TestRunawayDiagnostics:
    def _runaway(self, sim):
        def reschedule():
            sim.schedule(10, reschedule)

        sim.schedule(10, reschedule)
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        return str(excinfo.value)

    def test_error_includes_queue_summary(self):
        message = self._runaway(Simulator(max_cycles=100))
        assert "pending event(s)" in message
        assert "reschedule" in message  # the stuck callback, by name

    def test_diagnostic_providers_appended(self):
        sim = Simulator(max_cycles=100)
        sim.diagnostic_providers.append(lambda: "P0: wedged on 0x40")
        message = self._runaway(sim)
        assert "P0: wedged on 0x40" in message

    def test_failing_provider_does_not_mask_error(self):
        sim = Simulator(max_cycles=100)

        def broken():
            raise RuntimeError("boom")

        sim.diagnostic_providers.append(broken)
        message = self._runaway(sim)
        assert "max_cycles=100" in message
        assert "diagnostic provider failed" in message

    def test_parked_sleeper_with_only_cancelled_events_left(self):
        """A queue holding nothing but a cancelled event is drained: with
        a loop parked, the run raises instead of returning."""
        sim = Simulator()
        sim.cancel(sim.schedule(5, lambda: None))
        sim.sleepers = 1
        with pytest.raises(SimulationError, match="queue drained.*parked loop"):
            sim.run()
        assert len(sim._queue) == 0
