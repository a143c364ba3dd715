"""Unit tests for the deterministic workload RNG."""

from hypothesis import given, strategies as st

from repro.engine.rng import WorkloadRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = WorkloadRng(42)
        b = WorkloadRng(42)
        assert [a.uniform_int(0, 100) for _ in range(20)] == [
            b.uniform_int(0, 100) for _ in range(20)
        ]

    def test_spawn_is_deterministic(self):
        a = WorkloadRng(42).spawn(3)
        b = WorkloadRng(42).spawn(3)
        assert [a.uniform_int(0, 9) for _ in range(10)] == [
            b.uniform_int(0, 9) for _ in range(10)
        ]

    def test_spawned_children_differ(self):
        parent = WorkloadRng(42)
        children = [parent.spawn(i) for i in range(4)]
        streams = [
            tuple(child.uniform_int(0, 10**9) for _ in range(5))
            for child in children
        ]
        assert len(set(streams)) == len(streams)


class TestDraws:
    @given(st.integers(0, 50), st.integers(0, 50))
    def test_uniform_in_range(self, a, b):
        low, high = min(a, b), max(a, b)
        rng = WorkloadRng(7)
        for _ in range(20):
            value = rng.uniform_int(low, high)
            assert low <= value <= high

    @given(st.floats(min_value=1.0, max_value=10_000.0))
    def test_exponential_floor(self, mean):
        rng = WorkloadRng(7)
        for _ in range(20):
            assert rng.exponential_int(mean, minimum=5) >= 5
