"""The bus's holder filter against a full-broadcast reference.

:class:`~repro.interconnect.bus.AddressBus` snoops only the nodes in a
line's holder mask and drops a node from it when the node answers
``NO_STATE``.  The filter must be exact: every snoop it skips would have
been an empty reply with no side effect.  ``EveryNode`` is the holder
map of the full broadcast -- every node, on every line, never pruned --
so a run on it is the unfiltered bus.  Both runs must agree on every
deterministic output: cycles, events, bus transactions, every counter
and every histogram.
"""

import pytest

import repro.harness.experiment as experiment
from repro.coherence.controller import CacheController, Obligation
from repro.coherence.mshr import Mshr
from repro.core.registry import PRIMITIVE_SPECS
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.runner import app_cell, execute_cell
from repro.harness.system import System
from repro.interconnect.messages import NO_STATE, BusOp, BusTransaction
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


class BroadcastSystem(System):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus._holders = EveryNode(self.config.n_processors)


def _outputs(result):
    return {
        "cycles": result.cycles,
        "events_fired": result.manifest.events_fired,
        "bus_transactions": result.bus_transactions,
        "counters": result.stats,
        "histograms": result.histograms,
    }


def _filtered_and_broadcast(monkeypatch, run):
    """Run ``run()`` on the filtered bus, then on the full broadcast;
    returns both outputs and both snoop counts."""
    snoops = {"n": 0}
    snoop = CacheController.snoop

    def counted(self, txn):
        snoops["n"] += 1
        return snoop(self, txn)

    monkeypatch.setattr(CacheController, "snoop", counted)
    filtered = _outputs(run())
    filtered_snoops = snoops["n"]
    snoops["n"] = 0
    monkeypatch.setattr(experiment, "System", BroadcastSystem)
    broadcast = _outputs(run())
    return filtered, broadcast, filtered_snoops, snoops["n"]


def _check(monkeypatch, run):
    filtered, broadcast, n_filtered, n_broadcast = _filtered_and_broadcast(
        monkeypatch, run
    )
    assert filtered == broadcast
    # Not vacuous: the filter really skipped snoops.
    assert n_filtered < n_broadcast
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


LINE = 0x100


def _give_mshr(controller):
    controller.mshrs[LINE] = Mshr(LINE, None, None, 0)


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
