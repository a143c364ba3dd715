"""Sanity properties of the analytical prediction model.

The closed-form models must behave like physics before they can be
trusted as calibrated curve fits: throughput cannot rise when critical
sections lengthen, a serial section bounds system throughput no matter
how many processors compete, and with one processor every primitive
degenerates to the same uncontended rate (the hand-off machinery is
idle).  Hypothesis drives the signature space; the model is pure
arithmetic, so these run in milliseconds with no simulator.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.harness.signature import KIND_LOCK, WorkloadSignature
from repro.predict import (
    CalibrationParams,
    default_params,
    load_calibration,
    model,
    predict,
)
from repro.predict.model import (
    PRIMITIVE_CLASS,
    CostCurve,
    Saturation,
    _app_cycles,
    _Equilibrium,
    _mva,
    equilibrium,
)
from repro.workloads.splash import APP_MODELS, APP_ORDER

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALIBRATION = ROOT / "results" / "PREDICT_calibration.json"

#: model arithmetic is fast — allow more examples than the simulator suite
model_settings = settings(max_examples=60, deadline=None)

PRIMITIVES = sorted(PRIMITIVE_CLASS)
FABRICS = ("bus", "directory")


def lock_signature(
    primitive: str,
    fabric: str,
    n: int,
    cs_compute: int = 0,
    local: int = 100,
) -> WorkloadSignature:
    return WorkloadSignature(
        kind=KIND_LOCK,
        workload="null-cs",
        primitive=primitive,
        fabric=fabric,
        n_processors=n,
        total_ops=n * 20,
        n_locks=1,
        cs_reads=1,
        cs_writes=1,
        cs_compute=cs_compute,
        local_compute=local,
    )


signature_params = st.tuples(
    st.sampled_from(PRIMITIVES),
    st.sampled_from(FABRICS),
    st.integers(min_value=1, max_value=128),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2000),
)


class TestModelProperties:
    @model_settings
    @given(params=signature_params, delta=st.integers(1, 200))
    def test_throughput_monotone_in_cs_length(self, params, delta):
        """Lengthening the critical section never raises throughput."""
        primitive, fabric, n, cs, local = params
        shorter = predict(lock_signature(primitive, fabric, n, cs, local))
        longer = predict(
            lock_signature(primitive, fabric, n, cs + delta, local)
        )
        assert longer.throughput <= shorter.throughput * (1 + 1e-9)

    @model_settings
    @given(params=signature_params)
    def test_throughput_bounded_by_serial_section(self, params):
        """A critical section is serial: system throughput can never
        exceed one operation per CS occupancy, however wide the machine."""
        primitive, fabric, n, cs, local = params
        prediction = predict(lock_signature(primitive, fabric, n, cs, local))
        cs_length = max(1, cs + 2)  # compute + the two body accesses
        assert prediction.throughput <= 1000.0 / cs_length + 1e-9

    @model_settings
    @given(
        fabric=st.sampled_from(FABRICS),
        cs=st.integers(0, 300),
        local=st.integers(0, 2000),
    )
    def test_all_primitives_converge_at_one_processor(self, fabric, cs, local):
        """With no contention the choice of primitive is irrelevant —
        every model must degrade to the identical uncontended rate."""
        rates = {
            predict(lock_signature(prim, fabric, 1, cs, local)).throughput
            for prim in PRIMITIVES
        }
        assert len(rates) == 1
        prediction = predict(lock_signature("tts", fabric, 1, cs, local))
        assert prediction.regime == "compute-bound"
        assert prediction.handoff_cycles == 0.0

    @model_settings
    @given(
        params=signature_params,
        extra=st.integers(min_value=1, max_value=64),
    )
    def test_throughput_never_negative_and_finite(self, params, extra):
        primitive, fabric, n, cs, local = params
        prediction = predict(lock_signature(primitive, fabric, n, cs, local))
        assert 0.0 < prediction.throughput < 1e6
        assert prediction.cycles > 0.0
        assert 0.0 <= prediction.effective_waiters <= n


class TestParamsPlumbing:
    def test_default_params_cover_both_fabrics(self):
        params = default_params()
        for fabric in FABRICS:
            assert params.transfer_for(fabric) > 0
            sig = lock_signature("mcs", fabric, 8)
            assert params.curve_for(sig).c0 > 0

    def test_calibration_roundtrip(self):
        params = default_params()
        params.lock_curves[("bus", "tts")] = CostCurve(100.0, 7.5, 1.25)
        restored = CalibrationParams.from_dict(params.to_dict())
        assert restored.to_dict() == params.to_dict()

    def test_grid_is_simulation_free_and_fast(self):
        import time

        params = default_params()
        start = time.perf_counter()
        count = 0
        for fabric in FABRICS:
            for primitive in ("tts", "aggressive", "delayed", "iqolb", "qolb"):
                n = 1
                while n <= 128:
                    predict(lock_signature(primitive, fabric, n), params)
                    count += 1
                    n *= 2
        elapsed = time.perf_counter() - start
        assert count == 80
        assert elapsed < 5.0


def reference_mva(n, think, f0, n_locks, cost, couple):
    """The MVA loop with the service time as a callable ``cost(w)``.

    The straightforward form of :func:`repro.predict.model._mva`, which
    evaluates the cost curve inline; the two must agree bit for bit.
    """
    think = max(1.0, think)
    rest_locks = max(0, n_locks - 1)
    f_rest = max(0.0, 1.0 - f0) if rest_locks else 0.0
    q_hot = 0.0
    q_rest = 0.0
    x = 1.0 / think
    s_hot = cost(1.0)
    for m in range(1, n + 1):
        w_hot = q_hot + 1.0 + couple * q_rest
        s_hot = cost(w_hot)
        r_hot = s_hot * (1.0 + q_hot)
        if f_rest > 0:
            per_lock = q_rest / rest_locks
            r_rest = cost(per_lock + 1.0) * (1.0 + per_lock)
        else:
            r_rest = 0.0
        r_cycle = think + f0 * r_hot + f_rest * r_rest
        x = m / r_cycle
        q_hot = x * f0 * r_hot
        q_rest = x * f_rest * r_rest
    return _Equilibrium(
        x_items=x,
        q_hot=q_hot,
        s_hot=s_hot,
        utilization=min(1.0, x * f0 * s_hot),
    )


def splash_signature(app, primitive, fabric, n):
    return WorkloadSignature.from_app_model(
        APP_MODELS[app], primitive, fabric, n
    )


finite = dict(allow_nan=False, allow_infinity=False)


class TestSolverAgainstReference:
    # A last-bit slip in the inlined cost is mostly absorbed by the larger
    # terms it is added to, so the search is wide and the example below
    # is one where writing ``per_lock`` for ``(per_lock + 1.0) - 1.0``
    # shows in the result.
    @settings(max_examples=300, deadline=None)
    @given(
        c0=st.floats(0.0, 2000.0, **finite),
        a=st.floats(0.0, 500.0, **finite),
        p=st.floats(0.05, 2.0, **finite),
        sat_mult=st.floats(1.0, 100.0, **finite),
        delta=st.floats(0.0, 500.0, **finite),
        n=st.integers(1, 128),
        n_locks=st.integers(1, 64),
        f0=st.floats(0.0, 1.0, **finite),
        think=st.floats(0.0, 5000.0, **finite),
        couple=st.floats(0.0, 1.0, **finite),
    )
    @example(
        c0=10.0, a=20.0, p=1.3, sat_mult=1.0, delta=0.0,
        n=8, n_locks=4, f0=0.1, think=200.0, couple=0.5,
    )
    def test_inlined_cost_matches_reference(
        self, c0, a, p, sat_mult, delta, n, n_locks, f0, think, couple
    ):
        curve = CostCurve(c0, a, p)

        def cost(w):
            return curve.cost(w) * sat_mult + delta

        expected = reference_mva(n, think, f0, n_locks, cost, couple)
        got = _mva(n, think, f0, n_locks, curve, sat_mult, delta, couple)
        assert dataclasses.astuple(got) == dataclasses.astuple(expected)

    @model_settings
    @given(
        app=st.sampled_from(APP_ORDER),
        primitive=st.sampled_from(PRIMITIVES),
        fabric=st.sampled_from(FABRICS),
        n=st.integers(2, 128),
        straggle=st.floats(0.0, 2.0, **finite),
        barrier=st.floats(0.0, 64.0, **finite),
        couple=st.floats(0.0, 1.0, **finite),
    )
    def test_app_cycles_on_equilibrium_is_predict(
        self, app, primitive, fabric, n, straggle, barrier, couple
    ):
        """Calibration scores app cells as ``_app_cycles`` on a solved
        equilibrium; that must be exactly what ``predict`` returns."""
        params = default_params()
        params.straggle = straggle
        params.barrier_per_proc = barrier
        params.storm_couple = couple
        sig = splash_signature(app, primitive, fabric, n)
        x_items = equilibrium(sig, params).x_items
        cycles = _app_cycles(sig, params, x_items)[0]
        assert cycles == predict(sig, params).cycles


class TestImpossibleMachines:
    @pytest.mark.parametrize("n", [0, -3])
    def test_no_processors_is_rejected(self, n):
        with pytest.raises(ValueError, match="n_processors"):
            predict(lock_signature("tts", "bus", n))

    @pytest.mark.parametrize("n", [1, 8])
    def test_no_phases_is_rejected(self, n):
        sig = splash_signature("barnes", "iqolb", "bus", n).with_(phases=0)
        with pytest.raises(ValueError, match="phases"):
            predict(sig)


def bits(eq):
    return tuple(float.hex(v) for v in dataclasses.astuple(eq))


def cold_predict(sig, params):
    """``predict`` with no shared trajectory to read from."""
    model._TRAJECTORIES.clear()
    return predict(sig, params)


#: (c0, a, p, sat_mult, delta, n_locks, f0, think, couple)
networks = st.tuples(
    st.floats(0.0, 2000.0, **finite),
    st.floats(0.0, 500.0, **finite),
    st.floats(0.05, 2.0, **finite),
    st.floats(1.0, 100.0, **finite),
    st.floats(0.0, 500.0, **finite),
    st.integers(1, 64),
    st.floats(0.0, 1.0, **finite),
    st.floats(0.0, 5000.0, **finite),
    st.floats(0.0, 1.0, **finite),
)


def query_order(order, sizes, n_networks):
    """``(network, n)`` queries over every network, in ``order``."""
    if order == "ascending":
        sizes = sorted(sizes)
    elif order == "descending":
        sizes = sorted(sizes, reverse=True)
    elif order == "repeated":
        sizes = sizes + sizes[::-1] + sizes
    if order == "interleaved":
        return [(i, n) for n in sizes for i in range(n_networks)]
    return [(i, n) for i in range(n_networks) for n in sizes]


class TestSharedTrajectory:
    """``_mva`` answers from a per-network population trajectory shared
    by every query; each answer must be the cold solve's, bit for bit."""

    @pytest.mark.parametrize(
        "order", ["ascending", "descending", "repeated", "interleaved"]
    )
    @settings(max_examples=40, deadline=None)
    @given(
        nets=st.lists(networks, min_size=1, max_size=3),
        sizes=st.lists(st.integers(1, 128), min_size=1, max_size=6),
    )
    def test_every_query_order_matches_reference(self, order, nets, sizes):
        model._TRAJECTORIES.clear()
        for i, n in query_order(order, sizes, len(nets)):
            c0, a, p, sat_mult, delta, n_locks, f0, think, couple = nets[i]
            curve = CostCurve(c0, a, p)

            def cost(w):
                return curve.cost(w) * sat_mult + delta

            expected = reference_mva(n, think, f0, n_locks, cost, couple)
            got = _mva(n, think, f0, n_locks, curve, sat_mult, delta, couple)
            assert bits(got) == bits(expected), (order, i, n)

    def test_table_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr(model, "MVA_TABLE_CAP", 8)
        model._TRAJECTORIES.clear()
        curve = CostCurve(40.0, 3.0, 1.1)
        for think in range(1, 30):
            _mva(16, float(think), 1.0, 1, curve, 1.0, 0.0, 0.0)
            assert len(model._TRAJECTORIES) <= 8
        # the oldest networks went first; an evicted one solves afresh
        thinks = [key[0] for key in model._TRAJECTORIES]
        assert thinks == [float(t) for t in range(22, 30)]
        got = _mva(16, 1.0, 1.0, 1, curve, 1.0, 0.0, 0.0)
        expected = reference_mva(
            16, 1.0, 1.0, 1, lambda w: curve.cost(w) * 1.0 + 0.0, 0.0
        )
        assert bits(got) == bits(expected)
        assert len(model._TRAJECTORIES) == 8

    def test_in_place_fit_mutations_never_serve_stale_answers(self):
        """``calibrate.fit`` rewrites a ``CalibrationParams`` in place:
        curves, ``storm_couple`` and the bus saturation.  Each answer
        after a mutation must be the cold one, and must have moved."""
        params = load_calibration(CALIBRATION)
        sigs = [
            splash_signature("radiosity", "tts", "bus", 32),
            lock_signature("tts", "bus", 128),
            lock_signature("iqolb", "directory", 64),
        ]

        def set_curve():
            curve = params.lock_curves[("bus", "tts")]
            params.lock_curves[("bus", "tts")] = CostCurve(
                curve.c0 * 1.1, curve.a * 0.9, curve.p
            )

        def set_couple():
            params.storm_couple = 0.7

        def set_saturation():
            sat = params.saturation["bus"]
            params.saturation["bus"] = Saturation(sat.knee, sat.k * 2, sat.q)

        moved = {set_curve: sigs[:2], set_couple: sigs[:1],
                 set_saturation: sigs[1:2]}
        for mutate, changed in moved.items():
            before = [predict(sig, params).to_dict() for sig in sigs]
            mutate()
            after = [predict(sig, params).to_dict() for sig in sigs]
            cold = [cold_predict(sig, params).to_dict() for sig in sigs]
            assert after == cold, mutate.__name__
            for sig, old, new in zip(sigs, before, after):
                assert (old != new) == (sig in changed), mutate.__name__

    def test_cli_grid_equals_cold_cells(self, capsys):
        """``repro predict --grid`` shares trajectories across its cells;
        every registered primitive on both fabrics must still read what
        a cold ``predict`` of the cell gives."""
        model._TRAJECTORIES.clear()
        assert main([
            "predict", "--grid", "procs=1..128", "--format", "json",
            "--calibration", str(CALIBRATION), "--primitive", *PRIMITIVES,
        ]) == 0
        grid = json.loads(capsys.readouterr().out)
        assert len(grid) == len(PRIMITIVES) * len(FABRICS) * 8
        params = load_calibration(CALIBRATION)
        for cell in grid:
            sig = WorkloadSignature.from_dict(cell["signature"])
            cold = cold_predict(sig, params).to_dict()
            assert json.dumps(cell, sort_keys=True) == json.dumps(
                cold, sort_keys=True
            )


class TestCurveProvenance:
    """Each prediction says whether its cost curve was fitted or derived."""

    def test_fitted_and_derived_primitives(self, capsys):
        params = load_calibration(CALIBRATION)
        assert ("bus", "tts") in params.lock_curves
        assert ("bus", "mcs") not in params.lock_curves
        for n in (1, 16):
            assert predict(
                lock_signature("tts", "bus", n), params
            ).curve_source == "fitted"
            assert predict(
                lock_signature("mcs", "bus", n), params
            ).curve_source == "derived"

        argv = ["predict", "--primitive", "tts", "mcs", "--fabric", "bus",
                "--calibration", str(CALIBRATION)]
        assert main(argv + ["--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert [c["curve_source"] for c in cells] == ["fitted", "derived"]
        for extra in ([], ["--grid", "procs=1..4"]):
            assert main(argv + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            assert "curve" in lines[1].split()
            rows = {line.split()[0]: line.split() for line in lines[3:]}
            assert "fitted" in rows["bus/tts"]
            assert "derived" in rows["bus/mcs"]
