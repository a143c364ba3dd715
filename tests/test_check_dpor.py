"""Partial-order reduction: equivalence against the exhaustive oracle.

The DPOR reduction (sleep sets plus backtrack seeding) is only admissible
if it visits exactly the states the exhaustive ``none`` mode visits.
These tests pin that down on configurations small enough to *exhaust*
the schedule tree — frontier empty, so budget cuts cannot confound the
set comparison — and check the independence relation's own algebra with
Hypothesis.
"""

import pytest
from hypothesis import given, strategies as st

from conftest import prop_settings
from repro.check.explore import (
    REDUCTIONS,
    Budget,
    RunSpec,
    explore,
    independent,
)

#: a budget generous enough that every small cell below exhausts its
#: frontier — required for the fingerprint-set comparisons to be exact
EXHAUST = dict(max_schedules=4000, max_steps=80_000, max_depth=16)


def _exhaustive(spec: RunSpec, reduction: str):
    report = explore(spec, Budget(reduction=reduction, **EXHAUST))
    assert report.frontier_left == 0, (
        f"{spec.label()}/{reduction} did not exhaust its frontier "
        f"({report.frontier_left} left) — comparison would be meaningless"
    )
    assert not report.violations, report.violations
    return report


class TestReductionEquivalence:
    @pytest.mark.parametrize("scenario", ["counter", "lock"])
    def test_reductions_visit_the_same_states(self, scenario, interconnect):
        """dpor reaches exactly the fingerprint set none reaches."""
        spec = RunSpec(
            scenario=scenario,
            primitive="iqolb",
            interconnect=interconnect,
            n_processors=2,
            acquires_per_proc=1,
        )
        none = _exhaustive(spec, "none")
        dpor = _exhaustive(spec, "dpor")
        assert none.state_fingerprints, "oracle explored no states"
        assert dpor.state_fingerprints == none.state_fingerprints, (
            "dpor lost or invented states vs none"
        )
        # A reduction may never need *more* schedules than the
        # exhaustive oracle for the same state set.
        assert dpor.schedules_run <= none.schedules_run

    def test_dpor_actually_prunes(self):
        """On a scenario with disjoint per-node lines the dpor rule must
        fire — a reduction that never reduces is vacuous."""
        spec = RunSpec(
            scenario="lock",
            primitive="mcs",
            interconnect="bus",
            n_processors=2,
            acquires_per_proc=1,
        )
        none = _exhaustive(spec, "none")
        dpor = _exhaustive(spec, "dpor")
        assert dpor.pruned_dpor > 0
        assert dpor.schedules_run < none.schedules_run
        assert dpor.state_fingerprints == none.state_fingerprints

    def test_report_records_reduction_mode(self):
        spec = RunSpec(
            scenario="counter",
            primitive="iqolb",
            interconnect="bus",
            n_processors=2,
            acquires_per_proc=1,
        )
        assert _exhaustive(spec, "dpor").reduction == "dpor"

    def test_unknown_reduction_rejected(self):
        # no sleep-sets-only mode: dpor is sleep sets plus one more prune
        for reduction in ("full-por", "sleep"):
            with pytest.raises(ValueError, match="unknown reduction"):
                Budget(reduction=reduction)


class TestMutationUnderReduction:
    """A reduction must not prune away the interleavings that expose a
    seeded bug: the self-test violation fires under every mode."""

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_seeded_mutation_caught(self, reduction):
        spec = RunSpec(
            scenario="lock",
            primitive="iqolb",
            interconnect="bus",
            n_processors=3,
            acquires_per_proc=2,
            mutation="skip_release_handoff",
            timeout_cycles=10_000_000,
            max_cycles=200_000,
        )
        budget = Budget(
            max_schedules=10,
            max_steps=150_000,
            max_depth=30,
            reduction=reduction,
        )
        report = explore(spec, budget)
        assert report.violations, (
            f"reduction={reduction} missed the seeded hand-off bug"
        )


# -- the independence relation's algebra, property-tested ---------------

_keys = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    st.frozensets(st.integers(min_value=0, max_value=5), max_size=3),
    st.sampled_from(["cpu_request", "_start_miss", "_advance", "_resolve"]),
)


class TestIndependenceRelation:
    @prop_settings
    @given(a=_keys, b=_keys)
    def test_symmetric(self, a, b):
        assert independent(a, b) == independent(b, a)

    @prop_settings
    @given(a=_keys)
    def test_irreflexive(self, a):
        """An event never commutes with itself (same node)."""
        assert not independent(a, a)

    @prop_settings
    @given(a=_keys, b=_keys)
    def test_conservative_cases_conflict(self, a, b):
        """Shared-component events (no node), unknown footprints, same
        node, and overlapping lines must all be treated as conflicts."""
        if (
            a[0] is None
            or b[0] is None
            or a[0] == b[0]
            or not a[1]
            or not b[1]
            or (a[1] & b[1])
        ):
            assert not independent(a, b)
        else:
            assert independent(a, b)

    @prop_settings
    @given(
        cell=st.sampled_from([
            ("counter", "iqolb"),
            ("lock", "iqolb"),
            ("lock", "mcs"),
            ("barrier", "iqolb"),
        ]),
        fabric=st.sampled_from(["bus", "directory"]),
    )
    def test_declared_independent_events_commute(self, cell, fabric):
        """The end-to-end commutation check: every reordering the
        reduction declines to execute (because its candidate commutes
        with the event fired, or sleeps) must lead only to states some
        executed schedule also reaches — exhaustive fingerprint-set
        equality against the oracle *is* executing both orders of every
        declared-independent pair and comparing the outcomes."""
        scenario, primitive = cell
        spec = RunSpec(
            scenario=scenario,
            primitive=primitive,
            interconnect=fabric,
            n_processors=2,
            acquires_per_proc=1,
        )
        oracle = _exhaustive(spec, "none")
        reduced = _exhaustive(spec, "dpor")
        assert reduced.state_fingerprints == oracle.state_fingerprints
