"""Home-node MOESI directory protocol over the point-to-point mesh.

The scalable alternative to the broadcast snooping bus
(``SystemConfig(interconnect="directory")``).  Every cache line has a
*home node* (address-interleaved across the mesh); the home keeps a
directory entry — owner pointer, sharer vector, and the distributed
lock queue's bookkeeping — and coherence requests resolve by targeted
messages instead of broadcast:

* **GetS** — forwarded to the owner (3-hop: requester → home → owner →
  requester) when one exists, else supplied by the home's memory;
* **GetX / Upgrade** — the home sends invalidations to every sharer,
  *collects the acknowledgements*, then forwards to the owner (who
  supplies exclusively, or lends under queue retention) or supplies
  from memory;
* **LPRFO / QolbEnq** (the paper's deferrable, low-priority ownership
  requests) — forwarded to the **tail of the line's waiter queue** (or
  the owner when the queue is empty).  The tail claims the requester as
  its successor exactly as it would from observed bus order, so the
  paper's distributed queue forms without a broadcast medium — this is
  the directory realization of the generality claim in paper §3.2, and
  tear-off copies travel point-to-point from the deferring owner.

The class is request/complete-compatible with
:class:`~repro.interconnect.bus.AddressBus`, and talks to the
*unchanged* :class:`~repro.coherence.controller.CacheController` snoop
interface: a forwarded request invokes the target's ``snoop`` and the
reply (supply / defer / retry) is interpreted at the home.  Per-line
serialization at the home replaces the bus's global order: while a
non-deferred fill is in flight the line is *busy* and later requests
park, which is what keeps concurrent misses coherent; a deferral
releases the line immediately so the queue can keep forming.

Ownership hand-offs that bypass the home (queue hand-offs, eviction
transfers, loan returns, pushed protected data) are observed on the
fabric via :class:`~repro.interconnect.network.MeshNetwork`'s ownership
listener, standing in for the directory-update messages a hardware
protocol would piggyback on those transfers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.interconnect.bus import RETRY_DELAY, BusClient, ParkedSpinners
from repro.interconnect.messages import (
    DATA_OPS,
    DEFERRABLE_OPS,
    MEMORY_NODE,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
)
from repro.interconnect.network import VC_REQ, MeshNetwork
from repro.mem.mainmemory import MainMemory


class DirectoryEntry:
    """Per-line home-node state."""

    __slots__ = ("owner", "sharers", "waiters", "tail", "busy_txn", "pending")

    def __init__(self) -> None:
        #: node holding the line in an owner state (M/E/O), or None
        self.owner: Optional[int] = None
        #: nodes holding shared copies (conservative: silent evictions
        #: leave stale entries, pruned at the next invalidation round)
        self.sharers: Set[int] = set()
        #: deferred requesters, in queue order (head = next to be served)
        self.waiters: List[int] = []
        #: node new deferrable requests are forwarded to (queue tail)
        self.tail: Optional[int] = None
        #: txn_id of the in-flight fill keeping the line busy
        self.busy_txn: Optional[int] = None
        #: requests parked behind the busy line, in arrival order
        self.pending: Deque[BusTransaction] = deque()


class DirectoryInterconnect(ParkedSpinners):
    """Home-node directory + request transport; AddressBus-compatible."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        memory: MainMemory,
        network: MeshNetwork,
        n_nodes: int,
        lookup_cycles: int = 6,
        queue_retention: bool = False,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.stats = stats
        self.memory = memory
        self.network = network
        self.n_nodes = n_nodes
        self.lookup_cycles = lookup_cycles
        #: does the protocol variant preserve the queue across RFOs?
        #: (a system-wide protocol property, mirrored from the policy)
        self.queue_retention = queue_retention
        self._clients: Dict[int, BusClient] = {}
        self._entries: Dict[int, DirectoryEntry] = {}
        self._next_txn_id = 0
        #: optional trace hook: tracer(kind, time, node, line_addr, info)
        self.tracer: Optional[Callable[..., None]] = None
        network.ownership_listener = self._note_ownership
        # Counters on the per-request path, pre-resolved once; rare
        # outcome counters (NACKs, breakdowns, ...) stay lazy so they
        # only appear in snapshots when they actually fire.
        self._c_requests = stats.counter("dir.requests")
        self._c_lookups = stats.counter("dir.lookups")
        self._c_transactions = stats.counter("dir.transactions")
        self._c_forwards = stats.counter("dir.forwards")
        self._h_resolve_wait = stats.histogram("dir.resolve_wait")
        self._w_txn_rate = stats.windowed("dir.txn_rate")
        #: per-op completion counters ("dir.gets", ...), keyed by BusOp,
        #: filled on first use so only ops that complete are reported
        self._c_by_op: Dict[BusOp, Any] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node_id: int, client: BusClient) -> None:
        self._clients[node_id] = client

    def note_holder(self, line_addr: int, node_id: int) -> None:
        """No-op: the home already snoops only the line's owner, sharers
        and queue tail, and reads a NO_STATE reply as the empty reply."""

    def note_reply(
        self, line_addr: int, node_id: int, sharer: bool, deferrer: bool
    ) -> None:
        """No-op: the home forwards each request to the nodes that must
        act on it and never broadcasts, so it has no snoops to skip."""

    def home(self, line_addr: int) -> int:
        """The line's home node (line-interleaved across the mesh)."""
        return (line_addr // self.memory.amap.line_bytes) % self.n_nodes

    def _entry(self, line_addr: int) -> DirectoryEntry:
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = self._entries[line_addr] = DirectoryEntry()
        return entry

    def _trace(self, kind: str, home: int, line_addr: int, **info: object) -> None:
        if self.tracer is not None:
            self.tracer(kind, self.sim.now, home, line_addr, info)

    # ------------------------------------------------------------------
    # Request side (controller-facing, AddressBus-compatible)
    # ------------------------------------------------------------------
    def request(self, txn: BusTransaction) -> None:
        """Route a transaction to its home node."""
        if txn.request_time is None:
            txn.request_time = self.sim.now
            txn.txn_id = self._next_txn_id
            self._next_txn_id += 1
        self._c_requests.value += 1
        home = self.home(txn.line_addr)
        self.network.route(
            txn.requester,
            home,
            line=txn.op is BusOp.WRITEBACK,
            vc=VC_REQ,
            callback=lambda: self._arrive(txn),
        )

    def transaction_complete(self, txn: BusTransaction) -> None:
        """The requester's fill landed: unblock the line.

        The request may still be live inside the home (parked behind a
        busy line, or re-scheduled by a NACK) if something else — a chain
        hand-off or a push — satisfied the requester first.  It must die
        here: resolving it later would act on a need that no longer
        exists, e.g. supply a stale memory copy over a pushed dirty line.
        """
        txn.cancelled = True
        entry = self._entry(txn.line_addr)
        if entry.busy_txn == txn.txn_id:
            entry.busy_txn = None
            self._pump(txn.line_addr)

    # ------------------------------------------------------------------
    # Home-side processing
    # ------------------------------------------------------------------
    def _arrive(self, txn: BusTransaction) -> None:
        if txn.cancelled:
            self._drop_cancelled(txn)
            return
        self._c_lookups.value += 1
        self.sim.schedule(self.lookup_cycles, self._resolve, txn)

    def _resolve(self, txn: BusTransaction) -> None:
        if txn.cancelled:
            self._drop_cancelled(txn)
            return
        line_addr = txn.line_addr
        entry = self._entry(line_addr)
        if (
            entry.busy_txn is not None
            and entry.busy_txn != txn.txn_id
            and txn.op is not BusOp.WRITEBACK
        ):
            # A fill for this line is in flight; park behind it (the
            # directory analogue of the bus's per-line blocking).
            entry.pending.append(txn)
            self.stats.counter("dir.line_conflicts").inc()
            return
        if txn.issue_time is None:
            txn.issue_time = self.sim.now
            if txn.request_time is not None:
                self._h_resolve_wait.add(self.sim.now - txn.request_time)
        if self.tracer is not None:
            self._trace("dir_lookup", self.home(line_addr), line_addr,
                        op=txn.op.value, requester=txn.requester)
        if txn.op is BusOp.WRITEBACK:
            self._resolve_writeback(txn, entry)
        elif txn.op is BusOp.GETS:
            self._resolve_gets(txn, entry)
        elif txn.op is BusOp.UPGRADE:
            self._resolve_upgrade(txn, entry)
        else:  # GETX / LPRFO / QOLB_ENQ: ownership requests
            self._resolve_ownership(txn, entry)

    def _resolve_writeback(self, txn: BusTransaction, entry: DirectoryEntry) -> None:
        if txn.data is None:
            raise RuntimeError(f"writeback {txn} carries no data")
        self.memory.write_line(txn.line_addr, txn.data)
        if entry.owner == txn.requester:
            entry.owner = None
        self.stats.counter("dir.writebacks").inc()
        self._finish(txn, supplier=None, shared=False, deferred=False)

    # ------------------------------- GetS -----------------------------
    def _resolve_gets(self, txn: BusTransaction, entry: DirectoryEntry) -> None:
        if entry.owner == txn.requester:
            entry.owner = None  # stale pointer: the requester lost it
        if entry.owner is not None:
            self._forward(txn, entry.owner, role="owner")
            return
        if entry.waiters:
            # No owner on record but a waiter chain exists: the line is
            # mid-hand-off between chain nodes.  Memory must not supply
            # a second copy; wait for the transfer to land.
            self._retry(txn)
            return
        entry.sharers.discard(txn.requester)
        shared = bool(entry.sharers)
        grant = GrantState.SHARED if shared else GrantState.EXCLUSIVE
        if shared:
            entry.sharers.add(txn.requester)
        else:
            # An exclusive-clean grant: the receiver may silently write,
            # so the directory must treat it as the owner.
            entry.owner = txn.requester
        entry.busy_txn = txn.txn_id
        self._supply_from_memory(txn, grant)
        self._finish(txn, supplier=None, shared=shared, deferred=False)

    # ----------------------------- Upgrade ----------------------------
    def _resolve_upgrade(self, txn: BusTransaction, entry: DirectoryEntry) -> None:
        requester = txn.requester
        valid = requester in entry.sharers or entry.owner == requester
        if not valid:
            # The requester is not on record: a competing request won the
            # line and its invalidation (which squashes this upgrade at
            # the requester) is still in flight.  Finishing now would
            # grant write permission the requester no longer has — hold
            # the request until the squash cancels it.
            self.stats.counter("dir.stale_upgrades").inc()
            self._retry(txn)
            return
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        targets.discard(requester)
        entry.sharers.clear()
        # Serialize the invalidation window: on the bus the upgrade's
        # snoop is atomic, but here the acks take time — a fill resolved
        # mid-window could install data the upgrade is about to kill.
        entry.busy_txn = txn.txn_id
        self._collect_invalidations(
            txn, sorted(targets), lambda: self._after_upgrade(txn)
        )

    def _after_upgrade(self, txn: BusTransaction) -> None:
        entry = self._entry(txn.line_addr)
        if txn.cancelled:
            self._drop_cancelled(txn)
            return
        entry.owner = txn.requester
        self._finish(txn, supplier=None, shared=False, deferred=False)
        # Ownership changed hands without the owner supplying data: the
        # queue (if any) reacts exactly as it would to a snooped upgrade.
        self._queue_breakdown(txn, supplied=False)
        # Permission-only: no fill will call transaction_complete, so the
        # home releases the line itself.
        if entry.busy_txn == txn.txn_id:
            entry.busy_txn = None
            self._pump(txn.line_addr)

    # ------------------------- ownership requests ---------------------
    def _resolve_ownership(self, txn: BusTransaction, entry: DirectoryEntry) -> None:
        requester = txn.requester
        if entry.owner == requester:
            entry.owner = None  # stale: it is requesting the line again
        if txn.op in DEFERRABLE_OPS and requester in entry.waiters:
            # Reissue by a node already queued (squash path): its old
            # position is dead; it rejoins at the tail.
            entry.waiters.remove(requester)
            if entry.tail == requester:
                entry.tail = entry.waiters[-1] if entry.waiters else None
        entry.busy_txn = txn.txn_id
        targets = sorted(entry.sharers - {requester})
        entry.sharers.clear()
        self._collect_invalidations(
            txn, targets, lambda: self._after_invals(txn)
        )

    def _after_invals(self, txn: BusTransaction) -> None:
        entry = self._entry(txn.line_addr)
        if txn.cancelled:
            self._drop_cancelled(txn)
            return
        if txn.op in DEFERRABLE_OPS and entry.waiters:
            # The queue exists: the tail claims the requester as its
            # successor, keeping hand-off order = request order.
            self._forward(txn, entry.tail, role="tail")
            return
        if entry.owner is not None:
            self._forward(txn, entry.owner, role="owner")
            return
        if entry.waiters:
            # Ownerless but a chain exists (hand-off in flight): a regular
            # RFO must wait for the transfer rather than tap memory.
            self._retry(txn)
            return
        entry.owner = txn.requester
        self._supply_from_memory(txn, GrantState.EXCLUSIVE)
        self._finish(txn, supplier=None, shared=False, deferred=False)

    # ------------------------------------------------------------------
    # Forwarding (the 3-hop path) and reply interpretation
    # ------------------------------------------------------------------
    def _forward(self, txn: BusTransaction, target: int, role: str) -> None:
        if txn.op in DATA_OPS and txn.op not in DEFERRABLE_OPS or role == "owner":
            entry = self._entry(txn.line_addr)
            entry.busy_txn = txn.txn_id
        self._c_forwards.value += 1
        self._trace("dir_forward", self.home(txn.line_addr), txn.line_addr,
                    target=target, role=role, op=txn.op.value)
        home = self.home(txn.line_addr)
        self.serialize(txn, target)
        self.network.route(
            home,
            target,
            line=False,
            vc=VC_REQ,
            callback=lambda: self._forward_arrived(txn, target, role),
        )

    def _forward_arrived(self, txn: BusTransaction, target: int, role: str) -> None:
        self.deliver(txn, target)
        entry = self._entry(txn.line_addr)
        if txn.cancelled:
            self._drop_cancelled(txn)
            return
        reply = self._clients[target].snoop(txn)
        if reply.supply:
            self._on_supplied(txn, entry, target, reply.shared)
        elif reply.defer and txn.op in DEFERRABLE_OPS:
            self._on_deferred(txn, entry, target)
        elif reply.retry:
            self._retry(txn)
        else:
            self._on_forward_missed(txn, entry, target, role)

    def _on_supplied(
        self,
        txn: BusTransaction,
        entry: DirectoryEntry,
        target: int,
        shared: bool,
    ) -> None:
        if txn.op is BusOp.GETS:
            if shared:
                entry.sharers.add(txn.requester)
                held = self._clients[target].hierarchy.peek(txn.line_addr)
                if held is None or not held.is_owner:
                    # The owner downgraded clean-exclusive to plain
                    # shared (E -> S), relinquishing ownership; memory is
                    # current again.  Forgetting this would leave a stale
                    # owner pointer that later invalidations skip.
                    if entry.owner == target:
                        entry.owner = None
                        entry.sharers.add(target)
                # else: M -> O, the target remains the owner of record.
            # else: a tear-off satisfied the read; no coherent copy moved.
        # Ownership ops: the fabric's ownership listener moved the owner
        # pointer when the target committed the line to the requester.
        self._finish(txn, supplier=target, shared=shared, deferred=False)
        if txn.op is BusOp.GETX:
            self._queue_breakdown(txn, supplied=True)

    def _on_deferred(
        self, txn: BusTransaction, entry: DirectoryEntry, target: int
    ) -> None:
        if self._clients[target].successor.get(txn.line_addr) != txn.requester:
            # The target deferred but could not link the requester into
            # the hand-off chain: it still holds an undischarged successor
            # claim from an earlier pass through the queue.  (Re-enqueueing
            # while a previous position is pending is legal, so under
            # retention the claim graph can close into a ring with no free
            # tail.)  Recording the waiter anyway would orphan it — no
            # controller would ever hand it the line.  NACK instead; a
            # claim slot opens once the chain advances.
            if entry.busy_txn == txn.txn_id:
                entry.busy_txn = None
            self.stats.counter("dir.defer_nacks").inc()
            self._trace("dir_nack", self.home(txn.line_addr), txn.line_addr,
                        at=target, requester=txn.requester)
            self._retry(txn)
            self._pump(txn.line_addr)
            return
        entry.waiters.append(txn.requester)
        entry.tail = txn.requester
        if entry.busy_txn == txn.txn_id:
            # A deferred response releases the line immediately: the
            # queue must keep forming behind it.
            entry.busy_txn = None
        self.stats.counter("dir.deferred").inc()
        self._trace("dir_defer", self.home(txn.line_addr), txn.line_addr,
                    at=target, requester=txn.requester,
                    depth=len(entry.waiters))
        self._finish(txn, supplier=target, shared=False, deferred=True)
        self._pump(txn.line_addr)

    def _on_forward_missed(
        self, txn: BusTransaction, entry: DirectoryEntry, target: int, role: str
    ) -> None:
        """The forward target no longer answers for the line.

        For an upgrade-style invalidation this is the normal ack.  For a
        data request it means stale directory state: a silently evicted
        clean owner, or a squashed queue tail.  Repair and re-resolve.
        """
        self.stats.counter("dir.stale_forwards").inc()
        txn.retries += 1
        if txn.retries > 10_000:
            raise RuntimeError(f"{txn} chased stale state {txn.retries} times")
        if role == "tail":
            # The queue broke down under us (squash); forget it and let
            # the request resolve against the owner.
            entry.waiters.clear()
            entry.tail = None
        elif entry.owner == target:
            entry.owner = None
        self._resolve(txn)

    # ------------------------------------------------------------------
    # Invalidation collection
    # ------------------------------------------------------------------
    def _collect_invalidations(
        self,
        txn: BusTransaction,
        targets: List[int],
        done: Callable[[], None],
    ) -> None:
        """Invalidate ``targets``, gather acks at the home, then ``done``.

        Each invalidation runs the target's ``snoop`` (dropping shared
        copies and squashing raced upgrades) and acknowledges back to
        the home; ``done`` fires once every ack has returned.
        """
        if not targets:
            done()
            return
        home = self.home(txn.line_addr)
        remaining = {"n": len(targets)}
        self.stats.counter("dir.invalidations").inc(len(targets))
        self._trace("dir_inval", home, txn.line_addr,
                    targets=len(targets), op=txn.op.value)

        def make_inval(node: int) -> Callable[[], None]:
            def inval() -> None:
                self.deliver(txn, node)
                self._clients[node].snoop(txn)
                self.network.route(
                    node, home, line=False, vc=VC_REQ, callback=ack
                )
            return inval

        def ack() -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                done()

        for node in targets:
            self.serialize(txn, node)
            self.network.route(
                home, node, line=False, vc=VC_REQ, callback=make_inval(node)
            )

    # ------------------------------------------------------------------
    # Queue breakdown (post-snoop phase)
    # ------------------------------------------------------------------
    def _queue_breakdown(self, txn: BusTransaction, supplied: bool) -> None:
        """Tell queued waiters a regular RFO won the line.

        The bus broadcasts this for free; the directory notifies the
        registered waiters point-to-point.  Without queue retention they
        squash and reissue (and the home forgets the dead queue); with
        retention the queue survives untouched.
        """
        entry = self._entry(txn.line_addr)
        if not entry.waiters:
            return
        home = self.home(txn.line_addr)
        waiters = [w for w in entry.waiters if w != txn.requester]
        if not self.queue_retention:
            entry.waiters.clear()
            entry.tail = None
            self.stats.counter("dir.breakdowns").inc()
            self._trace("dir_breakdown", home, txn.line_addr,
                        cause=txn.requester, waiters=len(waiters))
        for node in waiters:
            client = self._clients[node]
            self.network.route(
                home,
                node,
                line=False,
                vc=VC_REQ,
                callback=lambda client=client: client.post_snoop(
                    txn, supplied=supplied, deferred=False
                ),
            )

    # ------------------------------------------------------------------
    # Supply, retry, completion
    # ------------------------------------------------------------------
    def _supply_from_memory(self, txn: BusTransaction, grant: GrantState) -> None:
        home = self.home(txn.line_addr)
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
        self.stats.counter("dir.memory_supplies").inc()
        self.sim.schedule(
            self.memory.line_latency(),
            lambda: self.network.send(msg, origin=home),
        )

    def _retry(self, txn: BusTransaction) -> None:
        """NACK: the line is in flight; re-resolve shortly."""
        txn.retries += 1
        self.stats.counter("dir.retries").inc()
        if txn.retries > 10_000:
            raise RuntimeError(f"{txn} retried {txn.retries} times; wedged")
        self.sim.schedule(RETRY_DELAY, self._resolve, txn)

    def _finish(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        self._c_transactions.value += 1
        op_counter = self._c_by_op.get(txn.op)
        if op_counter is None:
            op_counter = self._c_by_op[txn.op] = self.stats.counter(
                f"dir.{txn.op.value}"
            )
        op_counter.value += 1
        self._w_txn_rate.record(self.sim.now)
        client = self._clients.get(txn.requester)
        if client is not None:
            client.on_own_issue(txn, supplier, shared, deferred)
        if self.tracer is not None:
            txn.trace(self.tracer, self.sim.now, supplier, shared, deferred)

    def _drop_cancelled(self, txn: BusTransaction) -> None:
        self.stats.counter("dir.cancelled").inc()
        entry = self._entry(txn.line_addr)
        if entry.busy_txn == txn.txn_id:
            entry.busy_txn = None
        # Always pump: a cancelled transaction may have been the one the
        # pump just popped, with live requests still parked behind it.
        self._pump(txn.line_addr)

    def _pump(self, line_addr: int) -> None:
        entry = self._entry(line_addr)
        if entry.busy_txn is not None or not entry.pending:
            return
        txn = entry.pending.popleft()
        self.sim.schedule(0, self._resolve, txn)

    # ------------------------------------------------------------------
    # Fabric ownership updates
    # ------------------------------------------------------------------
    def _note_ownership(self, line_addr: int, node: int) -> None:
        """An ownership-carrying transfer committed ``line_addr`` to ``node``."""
        entry = self._entry(line_addr)
        entry.owner = node
        entry.sharers.discard(node)
        if node in entry.waiters:
            entry.waiters.remove(node)
            if entry.tail == node:
                entry.tail = entry.waiters[-1] if entry.waiters else None
