"""Unit tests for the snooping address bus, using stub clients."""

import pytest

from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.interconnect.bus import AddressBus, BusClient
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    NO_STATE,
    BusOp,
    BusTransaction,
    SnoopReply,
)
from repro.mem.address import AddressMap
from repro.mem.mainmemory import MainMemory


class StubClient(BusClient):
    """A scriptable bus client for protocol-free bus testing."""

    def __init__(self):
        self.snoops = []
        self.posts = []
        self.issues = []
        self.reply = SnoopReply()

    def snoop(self, txn):
        self.snoops.append(txn)
        return self.reply

    def post_snoop(self, txn, supplied, deferred):
        self.posts.append((txn, supplied, deferred))

    def on_own_issue(self, txn, supplier, shared, deferred):
        self.issues.append((txn, supplier, shared, deferred))


#: the lines the tests below transact on
LINES = (0x100, 0x200)


def make_bus(n_clients=3, lines=LINES, **kwargs):
    """A bus with ``n_clients`` stubs, each registered as a holder of
    every line in ``lines`` (the bus snoops only registered holders)."""
    sim = Simulator()
    stats = StatsRegistry()
    amap = AddressMap(64)
    memory = MainMemory(amap)
    xbar = Crossbar(sim, stats)
    deliveries = []
    bus = AddressBus(sim, stats, memory, xbar, **kwargs)
    clients = [StubClient() for _ in range(n_clients)]
    for node, client in enumerate(clients):
        bus.attach(node, client)
        xbar.attach(node, lambda msg, node=node: deliveries.append((node, msg)))
        for line_addr in lines:
            bus.note_holder(line_addr, node)
    return sim, bus, clients, memory, deliveries


class TestBroadcastOrder:
    def test_requester_not_snooped(self):
        sim, bus, clients, _, _ = make_bus()
        bus.request(BusTransaction(BusOp.GETS, 0x100, 1))
        sim.run()
        assert not clients[1].snoops
        assert len(clients[0].snoops) == 1
        assert len(clients[2].snoops) == 1

    def test_fifo_issue_order_distinct_lines(self):
        sim, bus, clients, _, _ = make_bus()
        a = BusTransaction(BusOp.GETS, 0x100, 0)
        b = BusTransaction(BusOp.GETS, 0x200, 0)
        bus.request(a)
        bus.request(b)
        sim.run()
        assert a.issue_time < b.issue_time

    def test_requester_notified(self):
        sim, bus, clients, _, _ = make_bus()
        txn = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(txn)
        sim.run()
        assert clients[0].issues[0][0] is txn


class TestMemorySupply:
    def test_memory_supplies_when_no_owner(self):
        sim, bus, clients, memory, deliveries = make_bus()
        memory.write_word(0x100, 55)
        bus.request(BusTransaction(BusOp.GETS, 0x100, 0))
        sim.run()
        (node, msg), = deliveries
        assert node == 0
        assert msg.data[0] == 55
        assert msg.grant.value == "E"  # nobody shared -> exclusive grant

    def test_shared_grant_when_snooper_shares(self):
        sim, bus, clients, _, deliveries = make_bus()
        clients[1].reply = SnoopReply(shared=True)
        bus.request(BusTransaction(BusOp.GETS, 0x100, 0))
        sim.run()
        assert deliveries[0][1].grant.value == "S"

    def test_supplier_claim_suppresses_memory(self):
        sim, bus, clients, _, deliveries = make_bus()
        clients[1].reply = SnoopReply(supply=True)
        bus.request(BusTransaction(BusOp.GETS, 0x100, 0))
        sim.run()
        assert deliveries == []  # the stub "supplies" nothing itself

    def test_defer_suppresses_memory(self):
        sim, bus, clients, _, deliveries = make_bus()
        clients[2].reply = SnoopReply(defer=True)
        txn = BusTransaction(BusOp.LPRFO, 0x100, 0)
        bus.request(txn)
        sim.run()
        assert deliveries == []
        assert clients[0].issues[0][3] is True  # deferred flag

    def test_two_suppliers_is_an_error(self):
        sim, bus, clients, _, _ = make_bus()
        clients[1].reply = SnoopReply(supply=True)
        clients[2].reply = SnoopReply(supply=True)
        bus.request(BusTransaction(BusOp.GETS, 0x100, 0))
        with pytest.raises(RuntimeError):
            sim.run()


class TestLineBlocking:
    def test_same_line_requests_serialize(self):
        sim, bus, clients, _, deliveries = make_bus()
        a = BusTransaction(BusOp.GETS, 0x100, 0)
        b = BusTransaction(BusOp.GETS, 0x100, 1)
        bus.request(a)
        bus.request(b)
        sim.run()
        # b must wait until a's fill completes; a's requester never calls
        # transaction_complete here, so b never issues.
        assert a.issue_time is not None
        assert b.issue_time is None
        bus.transaction_complete(a)
        sim.run()
        assert b.issue_time is not None

    def test_deferred_response_unblocks_line(self):
        sim, bus, clients, _, _ = make_bus()
        clients[2].reply = SnoopReply(defer=True)
        a = BusTransaction(BusOp.LPRFO, 0x100, 0)
        b = BusTransaction(BusOp.LPRFO, 0x100, 1)
        bus.request(a)
        bus.request(b)
        sim.run()
        # The deferral released the block: b broadcast without waiting
        # for a's (delayed) data — this is how the queue forms.
        assert b.issue_time is not None

    def test_writeback_ignores_blocking(self):
        sim, bus, clients, _, _ = make_bus()
        a = BusTransaction(BusOp.GETS, 0x100, 0)
        wb = BusTransaction(BusOp.WRITEBACK, 0x100, 1)
        wb.data = [7] * 16
        bus.request(a)
        bus.request(wb)
        sim.run()
        assert wb.issue_time is not None


class TestCancellation:
    def test_cancelled_before_issue_is_dropped(self):
        sim, bus, clients, _, _ = make_bus()
        blocker = BusTransaction(BusOp.GETS, 0x100, 0)
        parked = BusTransaction(BusOp.GETS, 0x100, 1)
        bus.request(blocker)
        bus.request(parked)
        sim.run()
        parked.cancelled = True
        bus.transaction_complete(blocker)
        sim.run()
        assert parked.issue_time is None

    def test_freed_line_requeues_its_waiters_as_one_entry(self):
        """The waiters go back as one queue entry; the first live one
        issues, a cancelled one drops, and the rest park again, each
        counted as a conflict as if it had been re-queued on its own."""
        sim, bus, clients, _, _ = make_bus()
        blocker = BusTransaction(BusOp.GETX, 0x100, 0)
        waiters = [BusTransaction(BusOp.GETX, 0x100, node) for node in (1, 2, 1)]
        for txn in [blocker, *waiters]:
            bus.request(txn)
        sim.run()
        assert bus.stats.value("bus.line_conflicts") == 3
        waiters[1].cancelled = True
        bus.transaction_complete(blocker)
        assert len(bus._queue) == 1
        sim.run()
        assert waiters[0].issue_time is not None
        assert waiters[2].issue_time is None
        assert list(bus._line_wait[0x100]) == [waiters[2]]
        assert bus.stats.value("bus.line_conflicts") == 4
        assert bus.stats.value("bus.cancelled") == 1

    def test_cancelled_in_flight_never_snooped(self):
        sim, bus, clients, _, deliveries = make_bus(addr_latency=12)
        txn = BusTransaction(BusOp.UPGRADE, 0x100, 0)
        bus.request(txn)
        # cancel after issue but before resolve
        sim.schedule(5, lambda: setattr(txn, "cancelled", True))
        sim.run()
        assert clients[1].snoops == []
        assert bus.stats.value("bus.cancelled_in_flight") == 1


class TestRetry:
    def test_retry_reissues(self):
        sim, bus, clients, _, _ = make_bus()
        replies = iter([SnoopReply(retry=True), SnoopReply()])
        original_snoop = clients[1].snoop

        def scripted(txn):
            clients[1].snoops.append(txn)
            return next(replies)

        clients[1].snoop = scripted
        txn = BusTransaction(BusOp.GETX, 0x100, 0)
        bus.request(txn)
        sim.run()
        assert txn.retries == 1
        assert len(clients[1].snoops) == 2  # snooped twice

    def test_supply_wins_over_retry(self):
        sim, bus, clients, _, _ = make_bus()
        clients[1].reply = SnoopReply(supply=True)
        clients[2].reply = SnoopReply(retry=True)
        txn = BusTransaction(BusOp.GETX, 0x100, 0)
        bus.request(txn)
        sim.run()
        assert txn.retries == 0
        assert clients[0].issues[0][1] == 1  # supplier node

    def test_post_snoop_runs_for_rfos(self):
        sim, bus, clients, _, _ = make_bus()
        clients[1].reply = SnoopReply(supply=True)
        bus.request(BusTransaction(BusOp.GETX, 0x100, 0))
        bus.request(BusTransaction(BusOp.GETS, 0x200, 0))
        sim.run()
        kinds = [t.op for t, _, _ in clients[2].posts]
        assert BusOp.GETX in kinds
        assert BusOp.GETS not in kinds  # second phase only for RFOs


class TestHolderFilter:
    def test_unregistered_node_not_snooped(self):
        sim, bus, clients, _, _ = make_bus(lines=())
        bus.note_holder(0x100, 2)
        bus.request(BusTransaction(BusOp.GETX, 0x100, 0))
        sim.run()
        assert clients[1].snoops == []
        assert len(clients[2].snoops) == 1

    def test_no_state_reply_clears_until_noted_again(self):
        sim, bus, clients, _, _ = make_bus()
        clients[1].reply = NO_STATE
        first = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(first)
        sim.run()
        bus.transaction_complete(first)
        second = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(second)
        sim.run()
        bus.transaction_complete(second)
        assert clients[1].snoops == [first]
        assert clients[2].snoops == [first, second]
        # Registering again (as a controller does on a miss or a fill)
        # puts the node back in the snoop set.
        bus.note_holder(0x100, 1)
        third = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(third)
        sim.run()
        assert clients[1].snoops == [first, third]

    def test_no_state_is_per_line(self):
        sim, bus, clients, _, _ = make_bus()
        clients[1].reply = NO_STATE
        a = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(a)
        sim.run()
        clients[1].reply = SnoopReply()
        b = BusTransaction(BusOp.GETS, 0x200, 0)
        bus.request(b)
        sim.run()
        assert clients[1].snoops == [a, b]

    def test_post_snoop_only_to_nodes_that_replied(self):
        sim, bus, clients, _, _ = make_bus(n_clients=4)
        clients[1].reply = SnoopReply(supply=True)
        clients[2].reply = NO_STATE
        bus.request(BusTransaction(BusOp.GETX, 0x100, 0))
        sim.run()
        assert len(clients[1].posts) == 1
        assert clients[2].posts == []
        assert len(clients[3].posts) == 1  # an empty reply is a reply
        assert clients[0].posts == []  # the requester

    def test_writeback_snoops_nobody(self):
        sim, bus, clients, memory, _ = make_bus()
        txn = BusTransaction(BusOp.WRITEBACK, 0x100, 0)
        txn.data = [3] * 16
        bus.request(txn)
        sim.run()
        assert all(client.snoops == [] for client in clients)
        assert all(client.posts == [] for client in clients)
        assert memory.read_word(0x100) == 3
        assert clients[0].issues[0][0] is txn

    def test_snoop_order_is_ascending_node_id(self):
        sim, bus, clients, _, _ = make_bus(n_clients=6, lines=())
        order = []
        for node, client in enumerate(clients):
            client.snoop = lambda txn, node=node: order.append(node) or SnoopReply()
        for node in (4, 1, 5, 2):
            bus.note_holder(0x100, node)
        bus.note_holder(0x100, 1)  # idempotent
        bus.request(BusTransaction(BusOp.GETX, 0x100, 2))
        sim.run()
        assert order == [1, 4, 5]

    def test_first_deferrer_and_two_owners_follow_node_order(self):
        sim, bus, clients, _, _ = make_bus(n_clients=4, lines=())
        for node in (3, 1):
            bus.note_holder(0x100, node)
            clients[node].reply = SnoopReply(defer=True)
        bus.request(BusTransaction(BusOp.LPRFO, 0x100, 0))
        sim.run()
        assert clients[0].issues[0][1] == 1  # lowest deferrer answers
        bus.note_holder(0x200, 3)
        bus.note_holder(0x200, 2)
        clients[2].reply = clients[3].reply = SnoopReply(supply=True)
        bus.request(BusTransaction(BusOp.GETS, 0x200, 0))
        with pytest.raises(RuntimeError, match="P2 and P3"):
            sim.run()


class TestReplyMasks:
    def test_gets_reads_shared_off_the_sharer_mask(self):
        sim, bus, clients, _, _ = make_bus(n_clients=4)
        bus.note_reply(0x100, 2, sharer=True, deferrer=False)
        bus.request(BusTransaction(BusOp.GETS, 0x100, 0))
        bus.request(BusTransaction(BusOp.GETX, 0x200, 0))
        sim.run()
        assert [t.op for t in clients[2].snoops] == [BusOp.GETX]  # per line
        assert [t.op for t in clients[1].snoops] == [BusOp.GETS, BusOp.GETX]
        assert clients[0].issues[0][2] is True  # shared, from the mask

    def test_sharer_mask_is_per_op_and_cleared_by_a_new_note(self):
        sim, bus, clients, _, _ = make_bus()
        bus.note_reply(0x100, 1, sharer=True, deferrer=False)
        first = BusTransaction(BusOp.GETX, 0x100, 0)
        bus.request(first)
        sim.run()
        bus.transaction_complete(first)
        bus.note_reply(0x100, 1, sharer=False, deferrer=False)
        second = BusTransaction(BusOp.GETS, 0x100, 0)
        bus.request(second)
        sim.run()
        assert clients[1].snoops == [first, second]  # a GETX asks sharers
        assert clients[0].issues[1][2] is False

    @pytest.mark.parametrize("quiet, snooped, expected", [(1, 2, 1), (2, 1, 1)])
    def test_lowest_quiet_or_snooped_deferrer_answers(
        self, quiet, snooped, expected
    ):
        sim, bus, clients, _, _ = make_bus()
        bus.note_reply(0x100, quiet, sharer=False, deferrer=True)
        clients[snooped].reply = SnoopReply(defer=True)
        bus.request(BusTransaction(BusOp.LPRFO, 0x100, 0))
        sim.run()
        assert clients[quiet].snoops == []
        assert len(clients[snooped].snoops) == 1
        _, supplier, _, deferred = clients[0].issues[0]
        assert (supplier, deferred) == (expected, True)


class TestWriteback:
    def test_writeback_updates_memory(self):
        sim, bus, clients, memory, _ = make_bus()
        txn = BusTransaction(BusOp.WRITEBACK, 0x100, 0)
        txn.data = [9] * 16
        bus.request(txn)
        sim.run()
        assert memory.read_word(0x100) == 9

    def test_writeback_without_data_is_an_error(self):
        sim, bus, clients, _, _ = make_bus()
        bus.request(BusTransaction(BusOp.WRITEBACK, 0x100, 0))
        with pytest.raises(RuntimeError):
            sim.run()


class TestOutstandingLimit:
    def test_limit_stalls_issue(self):
        sim, bus, clients, _, _ = make_bus(max_outstanding=1)
        a = BusTransaction(BusOp.GETS, 0x100, 0)
        b = BusTransaction(BusOp.GETS, 0x200, 1)
        bus.request(a)
        bus.request(b)
        sim.run()
        assert a.issue_time is not None
        assert b.issue_time is None
        bus.transaction_complete(a)
        sim.run()
        assert b.issue_time is not None
