"""Split-transaction broadcast snooping address bus.

Models the Gigaplane-style address bus of the paper's target (Table 1):

* split address/data — the address phase establishes global coherence
  order; data moves separately on the crossbar;
* broadcast snooping — every controller that holds state for the line
  observes every transaction on it, which is what lets the
  delayed-response/IQOLB protocols build their distributed queue purely
  from locally observed bus order (paper 3.2).  The bus skips only nodes
  whose reply cannot change the outcome, read off per-line masks the
  controllers keep (:class:`BusClient`): nodes that hold no state, plain
  sharers (a GETS reads their ``shared`` off the mask) and queued
  waiters that already hold a successor (an LPRFO or QOLB_ENQ takes the
  lowest of them as a deferrer).  The rest are snooped in ascending
  node id, the order of a full broadcast, so every outcome is the one a
  full broadcast would give;
* 12-cycle address access latency and a bounded number of outstanding
  transactions (117 in Table 1).

The *issue order* of transactions is the system's global coherence order.

Per-line blocking: while a (non-deferred) fill for a line is in flight,
further transactions for that same line wait — this models the
snoop-hit-on-pending-MSHR retry of real buses, and is what makes
concurrent misses to one line coherent.  Freeing the line puts its
waiters back at the front of the arbitration queue as one entry.  A
*deferred* response releases
the line block immediately: the owner retains the line and keeps
answering snoops, so subsequent LPRFOs broadcast freely and the
distributed queue can form (paper 3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, StatsRegistry
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    DATA_OPS,
    DEFERRABLE_OPS,
    MEMORY_NODE,
    NO_STATE,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
    SnoopReply,
)
from repro.mem.mainmemory import MainMemory

#: Cycles a NACKed transaction waits before it is reissued (both fabrics).
RETRY_DELAY = 20


class ParkedSpinners:
    """The wake table for spinners parked on a line (both fabrics).

    A processor parks its spin loop on an L1 copy only while no
    transaction that would change that copy is in flight, that is
    serialized by the fabric but not yet delivered to the copy
    (:meth:`in_flight`).  The fabric calls :meth:`serialize` at its
    serialization point (the bus's address-phase issue, the home's send
    of an invalidation or forward), which wakes every spinner whose copy
    the transaction will change, and :meth:`deliver` just before the
    snoop.  Delivery is at least an address phase (or one network hop)
    later, so every woken spinner is back on real events a cycle or more
    before its copy can change.  A bus transaction is bound for every
    node; a directory forward or invalidation only for its target, so
    a forward to the queue's tail neither wakes nor blocks the owner.
    A GETS changes only an owner's copy (it supplies and downgrades).
    An LPRFO or QOLB_ENQ that an obligated owner defers changes nothing
    of its copy (:meth:`~repro.coherence.controller.CacheController.keeps_copy`);
    every other snooped transaction changes any coherent copy.  A miss
    merely opening, or waiting for arbitration, changes nothing and
    wakes nobody.  Spinners parked on IQOLB tear-off copies never enter
    the table: no snoop changes a tear-off, and their own node wakes
    them (an install, or the MSHR behind the tear-off closing), so a
    queued request does not wake every waiter in the queue.
    """

    def __init__(self) -> None:
        #: line -> processors parked on it, in park order
        self._spinners: Dict[int, List[Any]] = {}
        #: line -> the one of them whose copy owns the line
        self._owners: Dict[int, Any] = {}
        #: line -> serialized, undelivered transactions, each with the
        #: node it is bound for (None: every node)
        self._in_flight: Dict[
            int, List[Tuple[BusTransaction, Optional[int]]]
        ] = {}

    def park(self, line_addr: int, spinner: Any) -> None:
        self._spinners.setdefault(line_addr, []).append(spinner)
        if spinner.controller.hierarchy.peek(line_addr).is_owner:
            # One copy at most owns the line, and it stays the owner
            # while parked: only a snoop or a discharge, which wake it
            # first, change it.
            self._owners[line_addr] = spinner

    def unpark(self, line_addr: int, spinner: Any) -> None:
        parked = self._spinners.get(line_addr)
        if parked is not None:
            parked.remove(spinner)
            if not parked:
                del self._spinners[line_addr]
        if self._owners.get(line_addr) is spinner:
            del self._owners[line_addr]

    def in_flight(self, line_addr: int, client: Any) -> bool:
        """Is a transaction that would change ``client``'s copy of
        ``line_addr`` serialized but not yet delivered to it?"""
        pending = self._in_flight.get(line_addr)
        if pending is None:
            return False
        node = client.node_id
        for txn, target in pending:
            if target is not None and target != node:
                continue
            op = txn.op
            if op is BusOp.GETS:
                if client.hierarchy.peek(line_addr).is_owner:
                    return True
            elif op not in DEFERRABLE_OPS or not client.keeps_copy(txn):
                return True
        return False

    def serialize(self, txn: BusTransaction, node: Optional[int] = None) -> None:
        """``txn`` reached its coherence point, bound for ``node``'s copy
        (every copy when None): count it in flight and wake the spinners
        whose copies it will change."""
        line_addr = txn.line_addr
        self._in_flight.setdefault(line_addr, []).append((txn, node))
        op = txn.op
        if op is BusOp.GETS:
            owner = self._owners.get(line_addr)
            woken = () if owner is None else (owner,)
        else:
            woken = tuple(self._spinners.get(line_addr, ()))
        deferrable = op in DEFERRABLE_OPS
        for spinner in woken:
            if node is not None and spinner.node_id != node:
                continue
            if deferrable and spinner.controller.keeps_copy(txn):
                continue
            spinner.wake()

    def deliver(self, txn: BusTransaction, node: Optional[int] = None) -> None:
        """A transaction :meth:`serialize` counted for ``node`` reaches
        its snoop there."""
        line_addr = txn.line_addr
        pending = self._in_flight[line_addr]
        pending.remove((txn, node))
        if not pending:
            del self._in_flight[line_addr]


class AddressBus(ParkedSpinners):
    """Arbitrates, broadcasts, and resolves who supplies data."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        memory: MainMemory,
        crossbar: Crossbar,
        addr_latency: int = 12,
        issue_interval: int = 2,
        max_outstanding: int = 117,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.stats = stats
        self.memory = memory
        self.crossbar = crossbar
        self.addr_latency = addr_latency
        self.issue_interval = issue_interval
        self.max_outstanding = max_outstanding
        self._clients: Dict[int, "BusClient"] = {}
        #: line -> bitmask of nodes that may hold state for it (bit n is
        #: node n); a clear bit means that node's snoop reply is empty
        self._holders: Dict[int, int] = {}
        #: line -> holders whose GETS reply is a plain ``shared``
        self._sharers: Dict[int, int] = {}
        #: line -> holders whose LPRFO/QOLB_ENQ reply is a plain ``defer``
        self._deferrers: Dict[int, int] = {}
        #: transactions awaiting arbitration, and freed lines' waiters
        #: (a deque of them per entry, see :meth:`_unblock_line`)
        self._queue: Deque[Any] = deque()
        self._next_issue_time = 0
        self._issue_scheduled = False
        self._outstanding = 0
        #: line -> txn_id of the in-flight fill blocking that line
        self._line_blocked: Dict[int, int] = {}
        #: transactions parked behind a blocked line, in arrival order
        self._line_wait: Dict[int, Deque[BusTransaction]] = {}
        #: optional trace hook: tracer(kind, time, node, line_addr, info)
        self.tracer: Optional[Callable[..., None]] = None
        #: per-bus transaction numbering, deterministic run to run
        self._next_txn_id = 0
        #: optional fault injector (repro.check.faults) — may stretch the
        #: address phase of individual transactions by a bounded jitter.
        self.fault_hook = None
        self._next_resolve_time = 0
        # Per-transaction counters, pre-resolved once; rare outcome
        # counters (cancellations, stalls, conflicts) stay lazy.
        self._c_requests = stats.counter("bus.requests")
        self._c_transactions = stats.counter("bus.transactions")
        self._h_arb_wait = stats.histogram("bus.arb_wait")
        self._w_txn_rate = stats.windowed("bus.txn_rate")
        #: per-op issue counters ("bus.gets", ...), filled on first use
        self._c_by_op: Dict[BusOp, Counter] = {}

    def attach(self, node_id: int, client: "BusClient") -> None:
        self._clients[node_id] = client

    def note_holder(self, line_addr: int, node_id: int) -> None:
        """Snoop ``node_id`` on ``line_addr`` until it answers NO_STATE."""
        holders = self._holders
        holders[line_addr] = holders.get(line_addr, 0) | (1 << node_id)

    def note_reply(
        self, line_addr: int, node_id: int, sharer: bool, deferrer: bool
    ) -> None:
        """Record which reply ``node_id`` would give on ``line_addr``
        without being snooped: a plain ``shared`` to a GETS when
        ``sharer``, a plain ``defer`` to an LPRFO or QOLB_ENQ when
        ``deferrer``.  The bus skips it for those ops while it is set."""
        bit = 1 << node_id
        for masks, on in ((self._sharers, sharer), (self._deferrers, deferrer)):
            mask = masks.get(line_addr, 0)
            if on != bool(mask & bit):
                masks[line_addr] = mask ^ bit

    def describe_state(self) -> str:
        """One-line digest of in-flight bus state, for runaway diagnostics."""
        blocked = ", ".join(
            f"{line_addr:#x} by txn {txn_id}"
            for line_addr, txn_id in sorted(self._line_blocked.items())
        )
        parked = sum(len(waiters) for waiters in self._line_wait.values())
        return (
            f"bus: blocked lines [{blocked}]; {parked} parked; "
            f"{self._outstanding} outstanding"
        )

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def request(self, txn: BusTransaction) -> None:
        """Enqueue a transaction for arbitration (FIFO)."""
        if txn.request_time is None:
            txn.request_time = self.sim.now
            txn.txn_id = self._next_txn_id
            self._next_txn_id += 1
        self._queue.append(txn)
        self._c_requests.value += 1
        self._pump()

    def transaction_complete(self, txn: BusTransaction) -> None:
        """Called by the requester when the response data has arrived."""
        self._outstanding -= 1
        self._unblock_line(txn)
        self._pump()

    # ------------------------------------------------------------------
    # Arbitration and issue
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._issue_scheduled or not self._queue:
            return
        if self._outstanding >= self.max_outstanding:
            self.stats.counter("bus.outstanding_stalls").inc()
            return
        when = max(self.sim.now, self._next_issue_time)
        self._issue_scheduled = True
        self.sim.schedule_at(when, self._issue_next)

    def _issue_next(self) -> None:
        self._issue_scheduled = False
        if self._outstanding >= self.max_outstanding:
            return
        txn = self._pick_issuable()
        if txn is None:
            return
        self._next_issue_time = self.sim.now + self.issue_interval
        txn.issue_time = self.sim.now
        if txn.request_time is not None:
            self._h_arb_wait.add(self.sim.now - txn.request_time)
        self._c_transactions.value += 1
        op_counter = self._c_by_op.get(txn.op)
        if op_counter is None:
            op_counter = self._c_by_op[txn.op] = self.stats.counter(
                f"bus.{txn.op.value}"
            )
        op_counter.value += 1
        self._w_txn_rate.record(self.sim.now)
        if txn.op in DATA_OPS:
            self._outstanding += 1
            # Block the line until the fill lands (or the response turns
            # out to be deferred, which unblocks at resolve time).
            self._line_blocked[txn.line_addr] = txn.txn_id
        if txn.op is not BusOp.WRITEBACK:
            # The coherence point: spinners whose copies the snoop will
            # change go back to real events an address phase before it.
            self.serialize(txn)
        # Snoop resolution happens after the address access latency.  A
        # fault injector may stretch individual address phases, but the
        # bus resolves strictly in issue order — that *is* the coherence
        # order — so resolve times are clamped monotonically.
        latency = self.addr_latency
        if self.fault_hook is not None:
            latency += self.fault_hook.bus_jitter(txn)
        resolve_at = max(self.sim.now + latency, self._next_resolve_time)
        self._next_resolve_time = resolve_at
        self.sim.schedule_at(resolve_at, self._resolve, txn)
        if self._queue:
            self._pump()

    def _pick_issuable(self) -> Optional[BusTransaction]:
        """Pop the first live transaction whose line is not blocked."""
        queue = self._queue
        while queue:
            txn = queue.popleft()
            if txn.__class__ is deque:
                txn = self._pick_waiter(txn)
                if txn is None:
                    continue
                return txn
            if txn.cancelled:
                self.stats.counter("bus.cancelled").inc()
                # A retried transaction may already hold its line's block
                # (e.g. its requester was satisfied by a pushed line in
                # the meantime); dropping it must release the block.
                self._unblock_line(txn)
                continue
            blocker = self._line_blocked.get(txn.line_addr)
            if (
                blocker is not None
                and blocker != txn.txn_id
                and txn.op is not BusOp.WRITEBACK
            ):
                # Ownership-granting and data ops alike wait out an
                # in-flight fill: an UPGRADE crossing a pending fill
                # would let stale data be installed over a newer write.
                # (A transaction blocked by itself is a retry; let it in.)
                self._line_wait.setdefault(txn.line_addr, deque()).append(txn)
                self.stats.counter("bus.line_conflicts").inc()
                continue
            return txn
        return None

    def _pick_waiter(self, waiters: Deque[BusTransaction]) -> Optional[BusTransaction]:
        """The first live waiter of a freed line, the rest left at the
        queue front behind it, as if each sat there on its own: cancelled
        ones drop, and if the line is blocked again, all of them park."""
        live = deque(txn for txn in waiters if not txn.cancelled)
        if len(live) < len(waiters):
            self.stats.counter("bus.cancelled").inc(len(waiters) - len(live))
        if not live:
            return None
        line_addr = live[0].line_addr
        if line_addr in self._line_blocked:
            self._line_wait[line_addr] = live
            self.stats.counter("bus.line_conflicts").inc(len(live))
            return None
        txn = live.popleft()
        if live:
            self._queue.appendleft(live)
        return txn

    def _unblock_line(self, txn: BusTransaction) -> None:
        if self._line_blocked.get(txn.line_addr) != txn.txn_id:
            return
        del self._line_blocked[txn.line_addr]
        waiters = self._line_wait.pop(txn.line_addr, None)
        if waiters:
            # Re-enter at the front as one entry, in arrival order.
            self._queue.appendleft(waiters)

    # ------------------------------------------------------------------
    # Snoop resolution
    # ------------------------------------------------------------------
    def _resolve(self, txn: BusTransaction) -> None:
        """Broadcast the snoop and determine the data supplier."""
        if txn.op is not BusOp.WRITEBACK:
            self.deliver(txn)
        if txn.cancelled:
            # Withdrawn after issue (e.g. an UPGRADE whose SC already
            # failed): it must not reach the snoopers — a stale upgrade
            # would invalidate the rightful owner.
            self.stats.counter("bus.cancelled_in_flight").inc()
            if txn.op in DATA_OPS:
                self._outstanding -= 1
                self._unblock_line(txn)
            self._pump()
            return
        supply_node: Optional[int] = None
        defer_node: Optional[int] = None
        retry = False
        shared = False
        # clients that gave a real reply, in snoop order
        replied: List["BusClient"] = []
        line_addr = txn.line_addr
        op = txn.op
        holders = self._holders
        # A writeback changes no cache's state; only memory takes note.
        pending = quiet = 0
        if op is not BusOp.WRITEBACK:
            pending = holders.get(line_addr, 0) & ~(1 << txn.requester)
            if op is BusOp.GETS:
                # Plain sharers can only answer ``shared``: read it off.
                quiet = self._sharers.get(line_addr, 0) & pending
                shared = quiet != 0
            elif op in DEFERRABLE_OPS:
                # Queued waiters holding a successor can only answer
                # ``defer``; the lowest of them joins the snooped ones.
                quiet = self._deferrers.get(line_addr, 0) & pending
            pending &= ~quiet
        while pending:
            # Lowest set bit first: ascending node id, the snoop order
            # that decides "two owners" and the first deferrer.
            bit = pending & -pending
            pending ^= bit
            node_id = bit.bit_length() - 1
            client = self._clients[node_id]
            reply = client.snoop(txn)
            if reply is NO_STATE:
                holders[line_addr] &= ~bit
                continue
            replied.append(client)
            if reply.shared:
                shared = True
            if reply.supply:
                if supply_node is not None:
                    raise RuntimeError(
                        f"two owners answered {txn}: P{supply_node} and P{node_id}"
                    )
                supply_node = node_id
            if reply.defer and defer_node is None:
                defer_node = node_id
            if reply.retry:
                retry = True
        if quiet and op is not BusOp.GETS:
            lowest = (quiet & -quiet).bit_length() - 1
            if defer_node is None or lowest < defer_node:
                defer_node = lowest

        if supply_node is None and retry:
            # The line is in flight between caches; NACK and reissue — the
            # retry mechanism of real snooping buses.
            self._retry(txn)
            return

        deferred = supply_node is None and defer_node is not None
        supplier = supply_node if supply_node is not None else defer_node

        # Second snoop phase: outcome-dependent reactions (queue breakdown
        # happens only when an owner actually supplied a regular RFO).
        if txn.op is BusOp.GETX or txn.op is BusOp.UPGRADE:
            supplied = supply_node is not None
            for client in replied:
                client.post_snoop(txn, supplied=supplied, deferred=deferred)

        if deferred:
            # The responsible node keeps answering snoops; later same-line
            # requests must broadcast so the queue can form.
            self._unblock_line(txn)
            self._pump()

        if txn.op is BusOp.WRITEBACK:
            if txn.data is None:
                raise RuntimeError(f"writeback {txn} carries no data")
            self.memory.write_line(txn.line_addr, txn.data)
            self._finish(txn, supplier, shared, deferred)
            return

        if txn.op is BusOp.UPGRADE:
            # Permission-only: sharers invalidated during snoop; no data.
            self._finish(txn, supplier, shared, deferred)
            return

        if supply_node is None and not deferred:
            self._supply_from_memory(txn, shared)
        # else: the owning controller supplies (now or deferred) — it
        # learned so from its own snoop return and schedules the send.
        self._finish(txn, supplier, shared, deferred)

    def _retry(self, txn: BusTransaction) -> None:
        """NACK: reissue the transaction after a short delay."""
        txn.retries += 1
        self.stats.counter("bus.retries").inc()
        if txn.retries > 10_000:
            raise RuntimeError(f"{txn} retried {txn.retries} times; wedged")
        if txn.op in DATA_OPS:
            self._outstanding -= 1  # re-incremented at the next issue
        # The line block (keyed by this txn) is retained so parked
        # same-line transactions keep waiting behind us.
        self.sim.schedule(RETRY_DELAY, self._requeue, txn)

    def _requeue(self, txn: BusTransaction) -> None:
        self._queue.append(txn)
        self._pump()

    def _finish(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        """Tell the requester how its transaction resolved, then trace it."""
        client = self._clients.get(txn.requester)
        if client is not None:
            client.on_own_issue(txn, supplier, shared, deferred)
        if self.tracer is not None:
            txn.trace(self.tracer, self.sim.now, supplier, shared, deferred)

    def _supply_from_memory(self, txn: BusTransaction, shared: bool) -> None:
        """No cache owner: main memory provides the line."""
        if txn.op is BusOp.GETS:
            grant = GrantState.SHARED if shared else GrantState.EXCLUSIVE
        else:
            grant = GrantState.EXCLUSIVE
        data = self.memory.read_line(txn.line_addr)
        msg = DataMessage(
            DataKind.LINE,
            txn.line_addr,
            src=MEMORY_NODE,
            dst=txn.requester,
            data=data,
            grant=grant,
            txn_id=txn.txn_id,
        )
        self.stats.counter("bus.memory_supplies").inc()
        self.sim.schedule(self.memory.line_latency(), self.crossbar.send, msg)


class BusClient:
    """Interface controllers implement to sit on the address bus.

    The bus snoops a client on a line only after the client called
    ``note_holder(line_addr, node_id)`` for it: when a line installs,
    and when its miss is deferred (the MSHR is queued).  A client with
    no state for the line answers
    :data:`~repro.interconnect.messages.NO_STATE` (and has no side
    effect), and the bus stops snooping it there until it registers
    again; an open miss counts as no state unless it is queued or an
    UPGRADE, which a winning snoop must squash, and so does a tear-off
    copy, which no snoop changes.  Wherever its state for
    a line changes, a client also reports through ``note_reply``
    whether its reply is a plain ``shared`` to a GETS or a plain
    ``defer`` to an LPRFO or QOLB_ENQ; those ops then skip it.
    ``post_snoop`` reaches only clients that gave a real reply, and
    writebacks are not snooped.
    """

    def snoop(self, txn: BusTransaction) -> SnoopReply:  # pragma: no cover
        raise NotImplementedError

    def post_snoop(
        self, txn: BusTransaction, supplied: bool, deferred: bool
    ) -> None:  # pragma: no cover
        """Second phase: reactions that depend on the snoop outcome."""
        raise NotImplementedError

    def on_own_issue(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:  # pragma: no cover
        raise NotImplementedError
