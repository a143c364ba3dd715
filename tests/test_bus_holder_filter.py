"""The bus's snoop filters and line re-queue against references.

:class:`~repro.interconnect.bus.AddressBus` snoops only the nodes in a
line's holder mask and drops a node from it when the node answers
``NO_STATE``.  A GETS also skips the plain sharers and reads ``shared``
off their mask; an LPRFO or QOLB_ENQ skips the queued waiters that
already hold a successor, which can only answer ``defer``.  The filters
must be exact: every snoop they skip would have been the predicted reply
with no side effect.  ``BroadcastSystem`` switches every filter off --
every node on every line, never pruned, nothing read off a mask -- so a
run on it is the full broadcast.  ``ShadowSystem`` snoops every skipped
node after the real snoops and checks its reply was the predicted one.
``RequeueEverySystem`` puts each waiter of a freed line back in the
arbitration queue on its own, as the bus once did.  Every pair of runs
must agree on every deterministic output: cycles, events, bus
transactions, queue high water, every counter and every histogram.
"""

from collections import deque

import pytest

import repro.harness.experiment as experiment
from repro.coherence.controller import CacheController, Obligation
from repro.coherence.mshr import Mshr
from repro.core.registry import PRIMITIVE_SPECS
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.runner import app_cell, execute_cell
from repro.harness.system import System
from repro.interconnect.bus import AddressBus
from repro.interconnect.messages import (
    DEFERRABLE_OPS,
    NO_STATE,
    BusOp,
    BusTransaction,
)
from repro.mem.line import State
from repro.workloads.micro import NullCriticalSection


class EveryNode(dict):
    """Holder map that answers every node and ignores pruning."""

    def __init__(self, n_nodes):
        super().__init__()
        self.mask = (1 << n_nodes) - 1

    def get(self, line_addr, default=0):
        return self.mask

    def __missing__(self, line_addr):
        return self.mask

    def __setitem__(self, line_addr, mask):
        pass  # note_holder and NO_STATE pruning leave it unchanged


class NoNode(EveryNode):
    """Reply mask that answers no node: nothing is read off it."""

    def __init__(self):
        super().__init__(0)


class BroadcastSystem(System):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus._holders = EveryNode(self.config.n_processors)
        self.bus._sharers = NoNode()
        self.bus._deferrers = NoNode()


def _outputs(result):
    return {
        "cycles": result.cycles,
        "events_fired": result.manifest.events_fired,
        "events_skipped": result.manifest.events_skipped,
        "queue_high_water": result.manifest.queue_high_water,
        "bus_transactions": result.bus_transactions,
        "counters": result.stats,
        "histograms": result.histograms,
    }


def _filtered_and_reference(monkeypatch, run, reference=BroadcastSystem):
    """Run ``run()`` on the shipped bus, then on ``reference``; returns
    both outputs and both snoop counts."""
    snoops = {"n": 0}
    snoop = CacheController.snoop

    def counted(self, txn):
        snoops["n"] += 1
        return snoop(self, txn)

    monkeypatch.setattr(CacheController, "snoop", counted)
    filtered = _outputs(run())
    filtered_snoops = snoops["n"]
    snoops["n"] = 0
    monkeypatch.setattr(experiment, "System", reference)
    referenced = _outputs(run())
    return filtered, referenced, filtered_snoops, snoops["n"]


def _check(monkeypatch, run, most=1.0):
    """The filtered bus matches the full broadcast and makes fewer than
    ``most`` of its snoops."""
    filtered, broadcast, n_filtered, n_broadcast = _filtered_and_reference(
        monkeypatch, run
    )
    assert filtered == broadcast
    # Not vacuous: the filter really skipped snoops.
    assert n_filtered < n_broadcast * most
    return filtered


def _null_cs(primitive, n_processors, acquires):
    spec = PRIMITIVE_SPECS[primitive]
    workload = NullCriticalSection(
        lock_kind=spec.lock_kind, acquires_per_proc=acquires, think_cycles=80
    )
    config = SystemConfig(n_processors=n_processors, policy=spec.policy)
    return run_workload(workload, config, primitive=primitive)


@pytest.mark.parametrize("primitive", list(PRIMITIVE_SPECS))
def test_every_primitive_matches_broadcast(monkeypatch, primitive):
    _check(monkeypatch, lambda: _null_cs(primitive, 4, 20))


@pytest.mark.parametrize("primitive", ["tts", "iqolb"])
@pytest.mark.parametrize("app", ["raytrace", "radiosity"])
def test_applications_match_broadcast(monkeypatch, app, primitive):
    _check(monkeypatch, lambda: execute_cell(app_cell(app, primitive, 4)))


def test_pushes_to_pruned_nodes_match_broadcast(monkeypatch):
    """A pushed line lands on nodes the bus had stopped snooping for it;
    the receiver must register at install (at 8p radiosity a missing
    registration leaves two owners of one line)."""
    _check(
        monkeypatch, lambda: execute_cell(app_cell("radiosity", "iqolb+gen", 8))
    )


@pytest.mark.parametrize(
    "primitive, exercised",
    [("iqolb+gen", "pushes_sent"), ("iqolb+retention", "loans")],
)
def test_pushed_and_lent_lines_match_broadcast(
    monkeypatch, primitive, exercised
):
    """Lines a node pushed or lent keep it snooped while they are away."""
    outputs = _check(monkeypatch, lambda: _null_cs(primitive, 8, 20))
    assert sum(
        value
        for name, value in outputs["counters"].items()
        if name.endswith(f".{exercised}")
    ) > 0


@pytest.mark.parametrize("primitive", ["delayed", "tts", "iqolb"])
def test_16p_cells_match_broadcast_with_a_quarter_of_its_snoops(
    monkeypatch, primitive
):
    _check(monkeypatch, lambda: _null_cs(primitive, 16, 20), most=0.25)


def test_raytrace_tts_8p_matches_broadcast(monkeypatch):
    _check(monkeypatch, lambda: execute_cell(app_cell("raytrace", "tts", 8)))


# ----------------------------------------------------------------------
# The shadow bus: every skipped node, snooped after the real snoops
# ----------------------------------------------------------------------
def _reply_kind(reply):
    if reply is NO_STATE:
        return "no state"
    flags = [
        name for name in ("supply", "defer", "shared", "retry")
        if getattr(reply, name)
    ]
    return " ".join(flags) or "empty"


class ShadowBus(AddressBus):
    """Snoops every node the real loop skipped, once the real snoops and
    their outcome are done, and checks each gives the reply the bus
    predicted: ``shared`` for a skipped sharer, ``defer`` for a skipped
    waiter and no state for a node outside the holder mask."""

    def _resolve(self, txn):
        if txn.cancelled or txn.op is BusOp.WRITEBACK:
            super()._resolve(txn)
            return
        line_addr = txn.line_addr
        holders = self._holders.get(line_addr, 0)
        if txn.op is BusOp.GETS:
            quiet, kind = self._sharers.get(line_addr, 0), "shared"
        elif txn.op in DEFERRABLE_OPS:
            quiet, kind = self._deferrers.get(line_addr, 0), "defer"
        else:
            quiet, kind = 0, None
        predicted = {}
        for node_id in self._clients:
            bit = 1 << node_id
            if node_id == txn.requester:
                continue
            if not holders & bit:
                predicted[node_id] = "no state"
            elif quiet & bit:
                predicted[node_id] = kind
        super()._resolve(txn)
        for node_id, want in sorted(predicted.items()):
            got = _reply_kind(self._clients[node_id].snoop(txn))
            assert got == want, (
                f"P{node_id} on line {line_addr:#x}: the bus predicted "
                f"{want} for {txn!r}, the snoop answered {got}"
            )


class ShadowSystem(System):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus.__class__ = ShadowBus


@pytest.mark.parametrize("primitive", list(PRIMITIVE_SPECS))
def test_every_skipped_snoop_gives_the_predicted_reply(monkeypatch, primitive):
    plain = _outputs(_null_cs(primitive, 4, 20))
    monkeypatch.setattr(experiment, "System", ShadowSystem)
    assert _outputs(_null_cs(primitive, 4, 20)) == plain


def test_squashed_tearoff_holders_match_shadow_and_broadcast(monkeypatch):
    """IQOLB without retention: a regular RFO breaks the queue down and
    each waiter reissues its LPRFO.  Until the reissue is deferred again
    its MSHR is open but unqueued, and the tear-off it spins on stays
    installed.  Such a node answers every snoop empty: the bus stops
    snooping it at its first ``NO_STATE``, the shadow bus checks every
    later snoop it skips answers the same, and the full broadcast agrees
    on every output."""
    replies = []
    snoop = CacheController.snoop

    def watched(self, txn):
        line = self.hierarchy.peek(txn.line_addr)
        mshr = self.mshrs.get(txn.line_addr)
        reply = snoop(self, txn)
        if (
            line is not None
            and line.state is State.TEAROFF
            and mshr is not None
            and not mshr.queued
        ):
            replies.append(reply)
        return reply

    monkeypatch.setattr(CacheController, "snoop", watched)
    plain = _outputs(_null_cs("iqolb", 16, 20))
    assert sum(
        value
        for name, value in plain["counters"].items()
        if name.endswith(".squashes")
    ) > 0
    assert replies and all(reply is NO_STATE for reply in replies)
    monkeypatch.setattr(experiment, "System", ShadowSystem)
    assert _outputs(_null_cs("iqolb", 16, 20)) == plain
    monkeypatch.setattr(experiment, "System", System)
    _check(monkeypatch, lambda: _null_cs("iqolb", 16, 20))


def _skip_reply_notes_in(monkeypatch, method):
    """Seed a mutation: ``method`` no longer tells the bus its replies."""
    original = getattr(CacheController, method)

    def mutated(self, *args):
        self._note_line = lambda line_addr: None
        try:
            return original(self, *args)
        finally:
            del self._note_line

    monkeypatch.setattr(CacheController, method, mutated)


def test_shadow_bus_names_a_stale_sharer(monkeypatch):
    """An UPGRADE that leaves its node marked a sharer: the next GETS
    reads ``shared`` off the mask while the node now owns the line."""
    _skip_reply_notes_in(monkeypatch, "_complete_upgrade")
    monkeypatch.setattr(experiment, "System", ShadowSystem)
    with pytest.raises(
        AssertionError,
        match=r"P\d+ on line 0x[0-9a-f]+: the bus predicted shared .* "
        r"answered supply",
    ):
        _null_cs("tts", 4, 20)


# ----------------------------------------------------------------------
# Re-queueing a freed line's waiters one by one, as the bus once did
# ----------------------------------------------------------------------
class RequeueEveryWaiter(AddressBus):
    """A freed line's waiters go back to the queue front one by one, and
    each that finds the line blocked again parks on its own."""

    def _pick_issuable(self):
        while self._queue:
            txn = self._queue.popleft()
            if txn.cancelled:
                self.stats.counter("bus.cancelled").inc()
                self._unblock_line(txn)
                continue
            blocker = self._line_blocked.get(txn.line_addr)
            if (
                blocker is not None
                and blocker != txn.txn_id
                and txn.op is not BusOp.WRITEBACK
            ):
                self._line_wait.setdefault(txn.line_addr, deque()).append(txn)
                self.stats.counter("bus.line_conflicts").inc()
                continue
            return txn
        return None

    def _unblock_line(self, txn):
        if self._line_blocked.get(txn.line_addr) != txn.txn_id:
            return
        del self._line_blocked[txn.line_addr]
        waiters = self._line_wait.pop(txn.line_addr, None)
        if waiters:
            self._queue.extendleft(reversed(waiters))


class RequeueEverySystem(System):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus.__class__ = RequeueEveryWaiter


@pytest.mark.parametrize(
    "primitive, exercised",
    [("tts", "bus.cancelled"), ("delayed", "bus.line_conflicts")],
)
def test_one_entry_requeue_matches_every_waiter_requeue(
    monkeypatch, primitive, exercised
):
    once, every, _, _ = _filtered_and_reference(
        monkeypatch, lambda: _null_cs(primitive, 16, 20), RequeueEverySystem
    )
    assert once == every
    assert once["counters"][exercised] > 0


# ----------------------------------------------------------------------
# What keeps a node snooped
# ----------------------------------------------------------------------
LINE = 0x100


def _give_mshr(controller):
    mshr = Mshr(LINE, None, None, 0)
    mshr.bus_op = BusOp.LPRFO
    mshr.queued = True
    controller.mshrs[LINE] = mshr


def _give_line(controller):
    controller._install_line(LINE, State.SHARED, [0] * 16)


def _give_obligation(controller):
    controller.obligations[LINE] = Obligation(LINE, 0)


def _lend(controller):
    controller.on_loan[LINE] = 2


def _push(controller):
    controller.forwarded[LINE] = 2


@pytest.mark.parametrize(
    "give", [_give_mshr, _give_line, _give_obligation, _lend, _push]
)
@pytest.mark.parametrize("op", [BusOp.GETS, BusOp.GETX, BusOp.LPRFO])
def test_any_line_state_keeps_the_node_snooped(give, op):
    """Each kind of per-line state, alone, is a real reply; with none of
    them the controller answers NO_STATE and nothing else changes."""
    system = System(SystemConfig(n_processors=4, policy="iqolb+retention"))
    controller = system.controllers[1]
    txn = BusTransaction(op, LINE, 0)
    assert controller.snoop(txn) is NO_STATE
    assert not controller.successor
    give(controller)
    assert controller.snoop(txn) is not NO_STATE


@pytest.mark.parametrize("op", [BusOp.GETS, BusOp.GETX, BusOp.LPRFO])
@pytest.mark.parametrize("miss", [BusOp.GETS, BusOp.GETX, BusOp.LPRFO])
def test_unqueued_miss_alone_answers_no_state(op, miss):
    """An open miss that is not queued needs no snoop: it has nothing to
    supply, defer or retry and claims no successor.  An UPGRADE whose
    copy was evicted still answers: the winning snoop must squash it."""
    system = System(SystemConfig(n_processors=4, policy="iqolb+retention"))
    controller = system.controllers[1]
    mshr = Mshr(LINE, None, None, 0)
    mshr.bus_op = miss
    mshr.txn = BusTransaction(miss, LINE, 1)
    controller.mshrs[LINE] = mshr
    assert controller.snoop(BusTransaction(op, LINE, 0)) is NO_STATE
    assert not controller.successor
    assert controller.mshrs[LINE] is mshr and not mshr.txn.cancelled

    upgrade = Mshr(LINE, None, None, 0)
    upgrade.bus_op = BusOp.UPGRADE
    upgrade.txn = BusTransaction(BusOp.UPGRADE, LINE, 1)
    controller.mshrs[LINE] = upgrade
    assert controller.hierarchy.peek(LINE) is None
    assert controller.snoop(BusTransaction(op, LINE, 0)) is not NO_STATE
    if op is not BusOp.GETS:
        assert upgrade.txn.cancelled and LINE not in controller.mshrs
