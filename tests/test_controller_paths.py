"""Targeted tests for cache-controller corner paths.

These drive specific controller code paths either through crafted
programs or by injecting crossbar messages directly — the situations
that only arise under racing timings in full runs.
"""

import pytest

from conftest import build_system, run_programs
from repro.cpu.ops import LL, SC, Compute, DeQOLB, EnQOLB, Read, Swap, Write
from repro.interconnect.messages import BusOp, DataKind, DataMessage, GrantState
from repro.mem.line import State


class TestStaleResponses:
    def test_stale_line_fill_dropped(self):
        """A LINE answer for a superseded transaction must not install."""
        system = build_system(2, "baseline")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 7)  # become M owner

        run_programs(system, [program(), iter([])])
        assert controller.hierarchy.state_of(addr) is State.MODIFIED

        # Inject a stale memory response claiming to answer txn 999999.
        stale = DataMessage(
            DataKind.LINE, addr, src=-1, dst=0,
            data=[0] * 16, grant=GrantState.EXCLUSIVE, txn_id=999_999,
        )
        controller.on_data(stale)
        line = controller.hierarchy.peek(addr)
        assert line.read_word(0) == 7  # untouched
        assert system.stats.value("ctrl0.stale_fills_dropped") == 1

    def test_stale_tearoff_dropped_without_mshr(self):
        """An orphan tear-off (no queue position) must not install."""
        system = build_system(2, "iqolb")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()
        orphan = DataMessage(
            DataKind.TEAROFF, addr, src=1, dst=0, data=[1] * 16, txn_id=5,
        )
        controller.on_data(orphan)
        assert controller.hierarchy.peek(addr) is None
        assert system.stats.value("ctrl0.stale_tearoffs_dropped") == 1

    def test_tearoff_for_owner_dropped(self):
        """A tear-off racing a hand-off we already received is ignored."""
        system = build_system(2, "iqolb")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 9)

        run_programs(system, [program(), iter([])])
        tearoff = DataMessage(
            DataKind.TEAROFF, addr, src=1, dst=0, data=[0] * 16, txn_id=7,
        )
        controller.on_data(tearoff)
        line = controller.hierarchy.peek(addr)
        assert line.state is State.MODIFIED
        assert line.read_word(0) == 9

    def test_chain_transfer_to_owner_dropped(self):
        system = build_system(2, "iqolb")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 5)

        run_programs(system, [program(), iter([])])
        chain = DataMessage(
            DataKind.LINE, addr, src=1, dst=0,
            data=[0] * 16, grant=GrantState.EXCLUSIVE, txn_id=None,
        )
        controller.on_data(chain)
        assert controller.hierarchy.peek(addr).read_word(0) == 5


class TestUpgradeRaces:
    def test_raced_store_replays_with_getx(self):
        """A plain store whose UPGRADE loses the race must still land."""
        system = build_system(3, "baseline")
        addr = system.layout.alloc_line()
        order = []

        def sharer(value, stagger):
            def program():
                yield Read(addr)           # S copy
                yield Compute(stagger)
                yield Write(addr, value)   # UPGRADE; someone loses
                order.append(value)
            return program()

        def reader():
            yield Read(addr)

        run_programs(system, [sharer(1, 200), sharer(2, 200), reader()])
        # Both stores completed (no lost writes); the final value is one
        # of them.
        assert sorted(order) == [1, 2]
        assert system.read_word(addr) in (1, 2)

    def test_raced_sc_fails_cleanly(self):
        system = build_system(2, "baseline")
        addr = system.layout.alloc_line()
        outcomes = []

        def contender(stagger):
            def program():
                yield Read(addr)  # both S
                yield Compute(stagger)
                value = yield LL(addr, pc=1)
                yield Compute(50)
                outcomes.append((yield SC(addr, value + 1, pc=1)))
            return program()

        run_programs(system, [contender(100), contender(100)])
        # At least one succeeded; failures were clean (no corruption).
        assert True in outcomes
        assert system.read_word(addr) == outcomes.count(True)


class TestLoanReturnEdge:
    def test_dissolved_loan_token_handled(self):
        """A data-less LOAN_RETURN clears lender bookkeeping (defensive
        path; the current protocol never emits one)."""
        system = build_system(2, "iqolb+retention")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()
        controller.on_loan[addr] = 1
        controller.successor[addr] = 1
        token = DataMessage(DataKind.LOAN_RETURN, addr, src=1, dst=0, data=None)
        controller.on_data(token)
        assert addr not in controller.on_loan
        assert addr not in controller.successor
        assert system.stats.value("ctrl0.loans_dissolved") == 1


class TestPushEdges:
    def test_push_to_existing_owner_is_acked_and_dropped(self):
        system = build_system(2, "iqolb+gen")
        controller = system.controllers[0]
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 3)

        run_programs(system, [program(), iter([])])
        push = DataMessage(
            DataKind.PUSH, addr, src=1, dst=0,
            data=[0] * 16, grant=GrantState.EXCLUSIVE,
        )
        controller.on_data(push)
        system.sim.run()  # let the ack fly
        assert controller.hierarchy.peek(addr).read_word(0) == 3
        assert system.stats.value("ctrl0.pushes_received") == 1

    def test_push_ack_clears_forwarded(self):
        system = build_system(2, "iqolb+gen")
        controller = system.controllers[0]
        controller.forwarded[0x4000] = 1
        ack = DataMessage(DataKind.PUSH_ACK, 0x4000, src=1, dst=0)
        controller.on_data(ack)
        assert controller.forwarded == {}


class TestLinkFlagEdges:
    def test_ll_to_new_address_moves_link(self):
        system = build_system(1, "baseline")
        controller = system.controllers[0]
        a = system.layout.alloc_line()
        b = system.layout.alloc_line()
        outcomes = []

        def program():
            yield LL(a, pc=1)
            yield LL(b, pc=1)          # link moves to b
            outcomes.append((yield SC(a, 1, pc=1)))  # must fail
            yield LL(b, pc=1)
            outcomes.append((yield SC(b, 1, pc=1)))  # succeeds

        run_programs(system, [program()])
        assert outcomes == [False, True]

    def test_eviction_of_linked_line_fails_sc(self):
        system = build_system(
            1, "baseline",
            l1_size_bytes=2 * 64, l1_assoc=1,
            l2_size_bytes=2 * 64, l2_assoc=1,
        )
        target = system.layout.alloc_line()
        fillers = [system.layout.alloc_line() for _ in range(4)]
        outcomes = []

        def program():
            yield LL(target, pc=1)
            for addr in fillers:  # force the linked line out
                yield Read(addr)
            outcomes.append((yield SC(target, 1, pc=1)))

        run_programs(system, [program()])
        # The linked line was evicted; the SC cannot be guaranteed and
        # fails (architecturally allowed and expected).
        assert outcomes == [False]


class TestCoherentReadback:
    def test_read_word_prefers_owner_copy(self):
        system = build_system(2, "baseline")
        addr = system.layout.alloc_line()

        def writer():
            yield Write(addr, 77)

        run_programs(system, [writer(), iter([])])
        assert system.memory.read_word(addr) == 0
        assert system.read_word(addr) == 77

    def test_read_word_falls_back_to_memory(self):
        system = build_system(1, "baseline")
        addr = system.layout.alloc_line()
        system.write_word(addr, 13)
        system.load_program(0, iter([]))
        system.run()
        assert system.read_word(addr) == 13


# ----------------------------------------------------------------------
# One path per CPU operation: the hit re-check and the completion
# ----------------------------------------------------------------------
KINDS = ("read", "ll", "write", "swap", "sc", "enqolb", "deqolb")

#: the bus request each kind's miss issues on an absent line (baseline
#: policy; QOLB for the QOLB instructions)
MISS_OP = {
    "read": BusOp.GETS,
    "ll": BusOp.GETS,
    "write": BusOp.GETX,
    "swap": BusOp.GETX,
    "enqolb": BusOp.QOLB_ENQ,
    "deqolb": BusOp.GETX,
}


def _make_op(kind, addr):
    return {
        "read": lambda: Read(addr),
        "ll": lambda: LL(addr, pc=3),
        "write": lambda: Write(addr, 5, pc=3),
        "swap": lambda: Swap(addr, 5, pc=3),
        "sc": lambda: SC(addr, 5, pc=3),
        "enqolb": lambda: EnQOLB(addr, pc=3),
        "deqolb": lambda: DeQOLB(addr, pc=3),
    }[kind]()


def _one_node(kind, state):
    """A one-node system whose memory holds the line with word 0 set
    (0 for an EnQOLB, so it finds the lock free); with ``state``, the
    node holds a copy in that state too.  An SC's link is set by an LL
    hit first."""
    system = build_system(1, "qolb" if "qolb" in kind else "baseline")
    controller = system.controllers[0]
    addr = system.layout.alloc_line()
    data = list(system.memory.read_line(addr))
    data[0] = 0 if kind == "enqolb" else 7
    system.memory.write_line(addr, data)
    if state is not None:
        controller._install_line(addr, state, list(data))
    if kind == "sc":
        linked = []
        controller.cpu_request(LL(addr, pc=3), linked.append)
        system.sim.run()
        assert linked == [7]
    return system, controller, addr


def _perform(system, controller, op, before_finish=None):
    """Run ``op`` through ``cpu_request`` to completion; returns its
    result, the bus requests it made and the controller's counters it
    moved.  ``before_finish`` runs after the lookup, before a hit's
    re-check."""
    requests = []
    request = system.bus.request

    def record(txn):
        requests.append(txn.op)
        request(txn)

    system.bus.request = record
    before = system.stats.snapshot()
    results = []
    controller.cpu_request(op, results.append)
    if before_finish is not None:
        system.sim.schedule(0, before_finish)
    system.sim.run()
    moved = {
        name: value - before.get(name, 0)
        for name, value in system.stats.snapshot().items()
        if name.startswith("ctrl0.") and value != before.get(name, 0)
    }
    assert len(results) == 1
    return results[0], requests, moved


#: what each kind returns on the one-node line
RESULT = {
    "read": 7, "ll": 7, "write": None, "swap": 7, "sc": True,
    "enqolb": 0, "deqolb": None,
}


#: the requests each kind replays with when its exclusive copy was
#: downgraded to SHARED during the lookup (loads still hit)
SHARED_REPLAY = {
    "read": [],
    "ll": [],
    "write": [BusOp.UPGRADE],
    "swap": [BusOp.UPGRADE],
    "enqolb": [BusOp.QOLB_ENQ],
    "deqolb": [BusOp.GETX],
}


class TestLostCopyRecheck:
    """A hit whose copy goes, or loses write permission, between the
    lookup and the re-check: the op replays and issues its miss, and an
    SC fails."""

    @pytest.mark.parametrize("loss", ["dropped", "shared"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_lost_before_finish(self, kind, loss):
        system, controller, addr = _one_node(kind, State.EXCLUSIVE)
        assert controller.hierarchy.l1_hit_cycles > 0

        def lose_copy():
            line = controller.hierarchy.peek(addr)
            if loss == "shared":
                line.state = State.SHARED
            else:
                system.memory.write_line(addr, list(line.data))
                controller.hierarchy.drop(addr)
            controller._note_line(addr)

        op = _make_op(kind, addr)
        result, requests, moved = _perform(system, controller, op, lose_copy)
        if kind == "sc":
            assert result is False
            assert requests == []
            assert moved == {"ctrl0.sc_attempts": 1, "ctrl0.sc_fail": 1}
            return
        assert result == RESULT[kind]
        if loss == "shared":
            assert requests == SHARED_REPLAY[kind]
        else:
            assert requests == [MISS_OP[kind]]
        assert controller.hierarchy.peek(addr) is not None


class TestHitAndFillAgree:
    """Each kind completes the same way on a hit as on a fill (for an
    SC, the upgrade grant): the same result, line, link and counters."""

    @staticmethod
    def _outcome(kind, state):
        system, controller, addr = _one_node(kind, state)
        result, requests, moved = _perform(
            system, controller, _make_op(kind, addr)
        )
        line = controller.hierarchy.peek(addr)
        link = (
            controller.link_valid,
            controller.link_addr - addr,
            controller.current_ll_pc,
            controller.link_tearoff,
        )
        outcome = (result, line.state, line.pinned, line.read_word(0), link)
        return outcome + (moved,), requests

    @pytest.mark.parametrize("kind", KINDS)
    def test_hit_matches_fill(self, kind):
        hit, hit_requests = self._outcome(kind, State.EXCLUSIVE)
        fill, fill_requests = self._outcome(
            kind, State.SHARED if kind == "sc" else None
        )
        assert hit_requests == []
        assert fill_requests == (
            [BusOp.UPGRADE] if kind == "sc" else [MISS_OP[kind]]
        )
        assert hit == fill
        assert hit[0] == RESULT[kind]
