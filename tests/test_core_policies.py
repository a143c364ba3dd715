"""Unit tests for the protocol policies' decision logic.

These test the *decisions* against real controllers embedded in tiny
systems, by inspecting policy behaviour right at the decision points.
"""

import pytest

from conftest import build_system
from repro.core.baseline import AggressiveBaselinePolicy, BaselinePolicy
from repro.core.delayed import DelayedResponsePolicy
from repro.core.iqolb import IqolbPolicy
from repro.core.policy import ProtocolPolicy
from repro.core.qolb import QolbPolicy
from repro.core.registry import (
    POLICIES,
    make_policy,
    policy_class,
    policy_names,
)
from repro.cpu.ops import LL
from repro.harness.config import SystemConfig
from repro.harness.system import System
from repro.interconnect.messages import BusOp, BusTransaction
from repro.mem.line import CacheLine, State


class TestRegistry:
    def test_names(self):
        assert policy_names() == [
            "baseline",
            "aggressive",
            "delayed",
            "delayed+retention",
            "iqolb",
            "iqolb+retention",
            "iqolb+gen",
            "adaptive",
            "qolb",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nope")

    @pytest.mark.parametrize("name", [
        "baseline", "aggressive", "delayed", "delayed+retention",
        "iqolb", "iqolb+retention", "qolb",
    ])
    def test_factory_builds_fresh_instances(self, name):
        a = make_policy(name)
        b = make_policy(name)
        assert a is not b
        assert a.name == name

    def test_retention_flags(self):
        assert not make_policy("delayed").queue_retention
        assert make_policy("delayed+retention").queue_retention
        assert not make_policy("iqolb").queue_retention
        assert make_policy("iqolb+retention").queue_retention

    def test_timeout_override(self):
        policy = make_policy("iqolb", timeout_cycles=123)
        assert policy.timeout_cycles == 123


#: name -> (queue retention, queue-order hand-off, progress promise,
#: default timeout): the Figure 1 ladder's protocol properties
PROPERTIES = {
    "baseline": (False, False, False, None),
    "aggressive": (False, False, False, None),
    "delayed": (False, False, True, 1000),
    "delayed+retention": (True, True, True, 1000),
    "iqolb": (False, False, True, 5000),
    "iqolb+retention": (True, True, True, 5000),
    "iqolb+gen": (False, False, True, 5000),
    "adaptive": (False, False, True, None),
    "qolb": (False, True, True, None),
}


def test_property_table_covers_every_policy():
    assert set(PROPERTIES) == set(POLICIES)


@pytest.mark.parametrize("name", sorted(PROPERTIES))
@pytest.mark.parametrize("interconnect", ["bus", "directory"])
def test_policy_declares_its_properties(name, interconnect):
    retention, fifo, progress, timeout = PROPERTIES[name]
    cls = policy_class(name)
    assert cls.name == name
    assert cls.queue_retention is retention
    assert cls.fifo_handoff is fifo
    assert cls.promises_progress is progress
    assert cls.timeout_cycles == timeout
    system = System(
        SystemConfig(n_processors=2, policy=name, interconnect=interconnect)
    )
    for controller in system.controllers:
        assert type(controller.policy) is cls
        assert controller.policy.queue_retention is retention
    if interconnect == "directory":
        assert system.bus.queue_retention is retention


class TestLlMissOps:
    def test_baseline_reads_shared(self):
        assert BaselinePolicy().ll_miss_op(LL(0x100)) is BusOp.GETS

    def test_aggressive_reads_for_ownership(self):
        assert AggressiveBaselinePolicy().ll_miss_op(LL(0x100)) is BusOp.GETX

    def test_delayed_uses_lprfo(self):
        assert DelayedResponsePolicy().ll_miss_op(LL(0x100)) is BusOp.LPRFO

    def test_iqolb_uses_lprfo(self):
        assert IqolbPolicy().ll_miss_op(LL(0x100)) is BusOp.LPRFO

    def test_qolb_plain_ll_is_baseline(self):
        assert QolbPolicy().ll_miss_op(LL(0x100)) is BusOp.GETS


def bound_policy(policy_name):
    """A policy attached to a live controller (node 0 of a tiny system)."""
    system = build_system(n_processors=2, policy=policy_name)
    controller = system.controllers[0]
    return controller.policy, controller


def make_line(addr=0x1000, state=State.MODIFIED):
    return CacheLine(addr, state, [0] * 16)


class TestShouldDefer:
    def test_base_policy_never_defers(self):
        policy, _ = bound_policy("baseline")
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        decision = policy.should_defer(txn, make_line())
        assert not decision.defer

    def test_delayed_defers_only_with_live_link(self):
        policy, ctrl = bound_policy("delayed")
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        assert not policy.should_defer(txn, make_line()).defer
        ctrl.link_valid = True
        ctrl.link_addr = 0x1004
        decision = policy.should_defer(txn, make_line())
        assert decision.defer and not decision.tearoff

    def test_delayed_link_on_other_line_does_not_defer(self):
        policy, ctrl = bound_policy("delayed")
        ctrl.link_valid = True
        ctrl.link_addr = 0x2000
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        assert not policy.should_defer(txn, make_line()).defer

    def test_iqolb_fetchphi_defers_without_tearoff(self):
        policy, ctrl = bound_policy("iqolb")
        ctrl.link_valid = True
        ctrl.link_addr = 0x1000
        ctrl.current_ll_pc = 0x42  # unknown PC -> Fetch&Phi
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        decision = policy.should_defer(txn, make_line())
        assert decision.defer and not decision.tearoff

    def test_iqolb_predicted_lock_defers_with_tearoff(self):
        policy, ctrl = bound_policy("iqolb")
        policy.predictor.train_lock(0x42)
        ctrl.link_valid = True
        ctrl.link_addr = 0x1000
        ctrl.current_ll_pc = 0x42
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        decision = policy.should_defer(txn, make_line())
        assert decision.defer and decision.tearoff

    def test_iqolb_held_lock_defers_with_tearoff(self):
        policy, ctrl = bound_policy("iqolb")
        policy.predictor.train_lock(0x42)
        policy.held.insert(0x1000, pc=0x42, now=0)
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        decision = policy.should_defer(txn, make_line())
        assert decision.defer and decision.tearoff

    def test_iqolb_untrained_held_entry_is_training_only(self):
        policy, ctrl = bound_policy("iqolb")
        policy.held.insert(0x1000, pc=0x42, now=0)  # never trained
        txn = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        assert not policy.should_defer(txn, make_line()).defer

    def test_qolb_defers_only_enq_on_held(self):
        policy, ctrl = bound_policy("qolb")
        policy.on_enqolb_acquired(0x1000)
        enq = BusTransaction(BusOp.QOLB_ENQ, 0x1000, 1)
        lprfo = BusTransaction(BusOp.LPRFO, 0x1000, 1)
        assert policy.should_defer(enq, make_line()).defer
        assert not policy.should_defer(lprfo, make_line()).defer


class TestReleaseHooks:
    def test_base_discharges_at_sc(self):
        assert ProtocolPolicy().on_sc_success(0x1000, 0) is True

    def test_delayed_discharges_at_sc(self):
        policy, _ = bound_policy("delayed")
        assert policy.on_sc_success(0x1000, 0x42) is True

    def test_iqolb_holds_predicted_locks(self):
        policy, _ = bound_policy("iqolb")
        policy.predictor.train_lock(0x42)
        assert policy.on_sc_success(0x1000, 0x42) is False

    def test_iqolb_releases_fetchphi_at_sc(self):
        policy, _ = bound_policy("iqolb")
        assert policy.on_sc_success(0x1000, 0x99) is True

    def test_iqolb_store_release_trains(self):
        policy, _ = bound_policy("iqolb")
        assert policy.on_sc_success(0x1000, 0x42) is True  # untrained yet
        assert policy.on_store_complete(0x1000, 0) is True  # the release
        assert policy.predictor.predict_lock(0x42)

    def test_iqolb_store_to_unheld_addr_is_not_release(self):
        policy, _ = bound_policy("iqolb")
        assert policy.on_store_complete(0x1000, 0) is False

    def test_iqolb_collocated_store_is_not_release(self):
        policy, _ = bound_policy("iqolb")
        policy.on_sc_success(0x1000, 0x42)
        assert policy.on_store_complete(0x1004, 0) is False  # same line!
        assert policy.on_store_complete(0x1000, 0) is True

    def test_qolb_held_tracking(self):
        policy, ctrl = bound_policy("qolb")
        policy.on_enqolb_acquired(0x1004)
        assert policy.tearoff_for_read(0x1000)
        policy.on_deqolb(0x1004)
        assert not policy.tearoff_for_read(0x1000)

    def test_qolb_two_locks_one_line(self):
        policy, _ = bound_policy("qolb")
        policy.on_enqolb_acquired(0x1000)
        policy.on_enqolb_acquired(0x1004)
        policy.on_deqolb(0x1000)
        assert policy.tearoff_for_read(0x1000)  # second lock still held
        policy.on_deqolb(0x1004)
        assert not policy.tearoff_for_read(0x1000)

    def test_iqolb_tearoff_for_read_requires_trained_hold(self):
        policy, _ = bound_policy("iqolb")
        policy.held.insert(0x1000, pc=0x42, now=0)
        assert not policy.tearoff_for_read(0x1000)
        policy.predictor.train_lock(0x42)
        assert policy.tearoff_for_read(0x1000)
