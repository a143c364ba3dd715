"""Per-node cache controller.

Implements the MOESI snooping protocol over the split-transaction bus, the
LL/SC link flag, and all the machinery the paper's mechanisms need:

* **deferral / forward obligations** — an owner may delay its response to
  a low-priority RFO; the obligation to eventually forward the line (with
  its bounded timeout) is tracked here (paper §3.2);
* **distributed queue** — every controller claims, from the broadcast bus
  order alone, at most one *successor* per line; the chain of successors
  is the hardware queue of waiting requestors (paper §3.2, "the line will
  be passed ... in precisely the order in which the original requests
  occurred");
* **tear-off copies** — value-only responses installed in a TEAROFF
  pseudo-state that supports local spinning (paper §3.3);
* **queue retention** — loaned lines with forced ownership return
  (paper §3.2/3.3, the "with queue retention" alternatives);
* **squash and reissue** — queue breakdown on a regular RFO when
  retention is off.

Which of these fire, and when, is decided by the attached
:class:`~repro.core.policy.ProtocolPolicy`.

CPU side: every memory operation takes one path.  :meth:`cpu_request`
looks the line up and picks, per op kind, a hit or the bus request of
its miss; the policy answers only which request an LL miss issues and
whether a store releases a lock.  A hit's access ends in
:meth:`_finish_local`, which re-checks the copy and either completes
the op, replays it, or fails an SC.  :meth:`_complete` is the one
completion, reached from a hit, a fill, an upgrade grant and a returned
loan alike, so each op means the same whichever way its line arrived.

A note on the link flag: a *deferred* LPRFO must NOT reset the owner's
link flag — delaying the response precisely so the owner's SC can succeed
is the entire mechanism.  The link resets only when the line is actually
surrendered (supply, loan, hand-off, eviction) or when a copy is
invalidated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.coherence.mshr import Mshr
from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Op
from repro.engine.event import Event
from repro.engine.simulator import SimulationError, Simulator
from repro.engine.stats import StatsRegistry
from repro.interconnect.bus import AddressBus, BusClient
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    DATA_OPS,
    DEFERRABLE_OPS,
    NO_STATE,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
    SnoopReply,
)
from repro.mem.address import AddressMap
from repro.mem.hierarchy import NodeCacheHierarchy
from repro.mem.line import CacheLine, State

#: the memory operations :meth:`CacheController.cpu_request` performs
_CPU_KINDS = frozenset({"read", "write", "ll", "sc", "swap", "enqolb", "deqolb"})


class Obligation:
    """A promise to forward line ownership to the successor."""

    __slots__ = ("line_addr", "timer", "created", "suspended", "fire_on_resume")

    def __init__(self, line_addr: int, created: int) -> None:
        self.line_addr = line_addr
        self.timer: Optional[Event] = None
        self.created = created
        #: line is currently on loan; discharge must wait for its return
        self.suspended = False
        #: a release/timeout happened while suspended; discharge on return
        self.fire_on_resume = False


class CacheController(BusClient):
    """Coherence engine for one node."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        stats: StatsRegistry,
        amap: AddressMap,
        hierarchy: NodeCacheHierarchy,
        bus: AddressBus,
        crossbar: Crossbar,
        policy: ProtocolPolicy,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.stats = stats
        self.amap = amap
        self.hierarchy = hierarchy
        self.bus = bus
        self.crossbar = crossbar
        self.policy = policy
        policy.bind(self)

        self.mshrs: Dict[int, Mshr] = {}
        #: distributed-queue successor per line (claimed from bus order)
        self.successor: Dict[int, int] = {}
        #: promises to forward ownership, keyed by line address
        self.obligations: Dict[int, Obligation] = {}
        #: lines we borrowed and must return (value = lender node)
        self.loan_return_to: Dict[int, int] = {}
        #: lines we lent out and expect back (value = borrower node)
        self.on_loan: Dict[int, int] = {}
        #: protected-data lines pushed to a successor, awaiting its ack
        #: (Generalized IQOLB, paper §6); value = receiving node
        self.forwarded: Dict[int, int] = {}
        #: this node's processor while its spin loop is parked on an L1
        #: line (see :meth:`quiet_line`); woken by any install here, by
        #: the fabric serializing a transaction that changes a coherent
        #: copy, by this node's timeout or discharge of an obligation on
        #: the line, and by the MSHR behind a tear-off copy closing
        self.spinner: Optional[Any] = None
        #: the state of the copy it parked on (a tear-off stays out of
        #: the fabric's table); the copy must keep it until the wake
        self.spinner_state: Optional[State] = None

        # LL/SC architectural state: the link flag and locked physical
        # address register (paper §2), plus the PC of the live LL for the
        # owner-side lock speculation (paper §3.4).
        self.link_valid = False
        self.link_addr = 0
        self.current_ll_pc = 0
        #: the live link was established from a tear-off snapshot; it must
        #: be re-established from real data before an SC may succeed —
        #: intermediate queue holders' writes never invalidate a tear-off,
        #: so an SC chained off a tear-off LL would miss them.
        self.link_tearoff = False

        #: optional trace hook: tracer(event, time, node, line_addr, info)
        self.tracer: Optional[Callable[..., None]] = None
        self._prefix = f"ctrl{node_id}"
        #: metric name -> Counter, so hot-path _count calls skip the
        #: f-string build and registry lookup after the first occurrence
        self._counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _count(self, metric: str, amount: int = 1) -> None:
        counter = self._counters.get(metric)
        if counter is None:
            counter = self._counters[metric] = self.stats.counter(
                f"{self._prefix}.{metric}"
            )
        counter.value += amount

    def _trace(self, event: str, line_addr: int, **info: Any) -> None:
        if self.tracer is not None:
            self.tracer(event, self.sim.now, self.node_id, line_addr, info)

    def describe_state(self) -> str:
        """One-line digest of protocol state, for runaway diagnostics.

        Returns an empty string when the controller is quiescent so the
        kernel's stuck-state report only lists nodes that matter.
        """
        parts: List[str] = []
        for line_addr, mshr in sorted(self.mshrs.items()):
            flags = []
            if mshr.issued:
                flags.append("issued")
            if mshr.queued:
                flags.append("queued")
            if mshr.tearoff_done:
                flags.append("tearoff")
            if mshr.has_waiter:
                flags.append(f"waiting:{mshr.cpu_op.kind}")
            op = mshr.bus_op.name if mshr.bus_op is not None else "?"
            detail = ",".join(flags) or "idle"
            parts.append(
                f"mshr {line_addr:#x} {op} {detail} since t={mshr.start_time}"
            )
        for line_addr, obligation in sorted(self.obligations.items()):
            state = "suspended" if obligation.suspended else "armed"
            parts.append(
                f"obligation {line_addr:#x} {state} "
                f"since t={obligation.created}"
            )
        for line_addr, successor in sorted(self.successor.items()):
            parts.append(f"successor {line_addr:#x} -> P{successor}")
        for line_addr, lender in sorted(self.loan_return_to.items()):
            parts.append(f"loan {line_addr:#x} owed to P{lender}")
        for line_addr, borrower in sorted(self.on_loan.items()):
            parts.append(f"lent {line_addr:#x} to P{borrower}")
        for line_addr, receiver in sorted(self.forwarded.items()):
            parts.append(f"pushed {line_addr:#x} to P{receiver}")
        if not parts:
            return ""
        return f"P{self.node_id}: " + "; ".join(parts)

    def _reset_link_if(self, line_addr: int) -> None:
        """Reset the link flag if it covers this line."""
        if self.link_valid and self.amap.line_addr(self.link_addr) == line_addr:
            self.link_valid = False

    def _drop(self, line_addr: int) -> None:
        """Give up our copy of a line: drop it and any link on it."""
        self.hierarchy.drop(line_addr)
        self._reset_link_if(line_addr)

    def _note_line(self, line_addr: int) -> None:
        """Tell the fabric whether our snoop reply on ``line_addr`` is a
        plain ``shared`` to a GETS or a plain ``defer`` to an LPRFO or
        QOLB_ENQ (:class:`~repro.interconnect.bus.BusClient`).  Called
        wherever a change to the line's state, residency, queued MSHR,
        successor, loan or push can change either; a push in flight
        makes every snoop retry."""
        mshr = self.mshrs.get(line_addr)
        queued = mshr is not None and mshr.queued
        plain = line_addr not in self.forwarded
        line = self.hierarchy.peek(line_addr)
        sharer = (
            plain and not queued and line is not None
            and line.state is State.SHARED and line_addr not in self.on_loan
        )
        deferrer = plain and queued and line_addr in self.successor
        self.bus.note_reply(line_addr, self.node_id, sharer, deferrer)

    def _readable_now(self, line, line_addr: int) -> bool:
        """May a load/LL be satisfied by this line right now?

        Tear-off copies are usable only while we hold a queue position
        for the line (an open MSHR): an orphaned tear-off is stale data
        nobody will ever refresh, so spinning on it would never end.
        """
        if line is None:
            return False
        if line.state is State.TEAROFF:
            return line_addr in self.mshrs
        return line.readable

    def quiet_line(self, line_addr: int) -> bool:
        """May a spinner park on this node's copy of ``line_addr``?

        Only while re-reading it could not change anything.  A coherent
        copy in the L1 is quiet while this node holds no MSHR, loan or
        push on it, no obligation or successor unless it owns the line
        under an obligation, and the fabric has no transaction in flight
        to it that would change the copy between its serialization and
        its snoop (:meth:`keeps_copy`).  From then on only three things
        can touch it: an install here, the fabric serializing such a
        transaction, and this node's own timeout or discharge of the
        obligation (which ends in :meth:`discharge`); each wakes the
        spinner before the copy changes.
        A tear-off copy in the L1 is quiet while its MSHR is open and the
        line is not borrowed, lent out or pushed: snoops never touch a
        tear-off, so only an install here or the MSHR closing can change
        what an LL on it returns, and both wake the spinner first
        (:meth:`park`).
        """
        line = self.hierarchy.l1.index.get(line_addr)
        if line is None:
            return False
        if line.state is State.TEAROFF:
            return (
                line_addr in self.mshrs
                and line_addr not in self.loan_return_to
                and line_addr not in self.on_loan
                and line_addr not in self.forwarded
            )
        if line_addr in self.obligations:
            if not line.is_owner:
                return False
        elif line_addr in self.successor:
            return False
        return (
            line.readable
            and line_addr not in self.mshrs
            and line_addr not in self.loan_return_to
            and line_addr not in self.on_loan
            and line_addr not in self.forwarded
            and not self.bus.in_flight(line_addr, self)
        )

    def keeps_copy(self, txn: BusTransaction) -> bool:
        """Does this node's snoop of ``txn``, an LPRFO or QOLB_ENQ, leave
        its parked coherent copy of the line as it is?

        Yes when the node owns the line under an obligation and its
        policy defers ``txn`` (every policy that creates obligations
        defers such a request while one is held): the deferral only
        chains a successor and may send a tear-off.  Anything else a
        snoop does to an owner, or to a copy without an obligation, may
        change it.
        """
        line_addr = txn.line_addr
        if line_addr not in self.obligations:
            return False
        line = self.hierarchy.peek(line_addr)
        return (
            line is not None
            and line.is_owner
            and self.policy.should_defer(txn, line).defer
        )

    def park(self, spinner: Any) -> None:
        """``spinner`` parks on its line, which :meth:`quiet_line` found
        quiet.  A coherent copy goes into the fabric's wake table; a
        tear-off stays out of it, because no snoop changes a tear-off
        and every queued request would otherwise wake every waiter."""
        line_addr = spinner.parked_line
        self.spinner = spinner
        state = self.hierarchy.peek(line_addr).state
        self.spinner_state = state
        if state is not State.TEAROFF:
            self.bus.park(line_addr, spinner)

    def unpark(self, spinner: Any) -> None:
        """``spinner`` wakes.  It must wake before its copy changes:
        while the line is still in the state it parked on and, for a
        tear-off, its MSHR is still open.  A wake that finds otherwise
        came after a change that should have woken it, and raises."""
        line_addr = spinner.parked_line
        state = self.spinner_state
        line = self.hierarchy.peek(line_addr)
        if line is None or line.state is not state:
            if state is State.TEAROFF:
                lost = "an install replaced its tear-off"
            else:
                lost = f"its {state.name} copy changed"
        elif state is State.TEAROFF and line_addr not in self.mshrs:
            lost = "its tear-off's MSHR closed"
        else:
            lost = None
        if lost is not None:
            raise SimulationError(
                f"{spinner.describe_state()}: {lost} without waking it"
            )
        if state is not State.TEAROFF:
            self.bus.unpark(line_addr, spinner)
        self.spinner = None
        self.spinner_state = None

    def replay_lls(self, op: Op, count: int) -> None:
        """Charge ``count`` LLs a parked linked spin skipped on its quiet
        copy of ``op``'s line.

        Skipped LLs are idempotent: each would have set the link exactly
        as the last real one did (``link_tearoff`` when the copy is a
        tear-off) and read the same value, and nothing could reset the
        link in between -- an ownership snoop, an eviction, a supply,
        lend, discharge or push on the line, or a fill replacing a
        tear-off, either wakes the loop before it happens or is ruled
        out by :meth:`quiet_line`.  So rewriting the link changes
        nothing, and only ``ll_ops`` moves.
        """
        self._set_link(op, self.hierarchy.peek(self.amap.line_addr(op.addr)))
        self._count("ll_ops", count)

    # ==================================================================
    # CPU side
    # ==================================================================
    def cpu_request(self, op: Op, done: Callable[[Any], None]) -> None:
        """Entry point for the processor's memory operations.

        Looks the line up and, after the lookup's latency, either
        re-checks the copy and completes the op on it
        (:meth:`_finish_local`) or starts the op's miss.
        """
        kind = op.kind
        if kind == "sc":
            self._count("sc_attempts")
            if not self.link_valid or self.link_addr != op.addr:
                self._fail_sc(op, done)
                return
        elif kind not in _CPU_KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        line_addr = self.amap.line_addr(op.addr)
        line, latency = self.hierarchy.lookup(line_addr)
        if kind == "read" or kind == "ll":
            if self._readable_now(line, line_addr):
                miss = None
            elif kind == "read":
                miss = BusOp.GETS
            else:
                miss = self.policy.ll_miss_op(op)
        elif line is not None and line.writable:
            miss = None
        elif kind == "enqolb":
            if (
                line is not None
                and line.state is State.TEAROFF
                and line_addr in self.mshrs
            ):
                # Local spinning on the shadow copy: zero network traffic.
                # A tear-off means "queued; the lock is not currently
                # available" (paper §3.3), so the EnQOLB reports it held
                # regardless of the snapshot value.
                self.sim.schedule(latency, done, 1)
                return
            # Shared or absent: QOLB needs ownership of the lock line.
            miss = BusOp.QOLB_ENQ
        elif kind == "deqolb":
            # We lost the lock line while holding the lock (eviction
            # hand-off).  Re-acquire with a regular RFO, then release.
            miss = BusOp.GETX
        elif line is not None and line.state in (State.SHARED, State.OWNED):
            miss = BusOp.UPGRADE
        elif kind == "sc":
            # No coherent copy (invalid or tear-off): the SC cannot be
            # guaranteed atomic, so it fails (paper §2 semantics).
            self.sim.schedule(latency, self._fail_sc, op, done)
            return
        else:
            miss = BusOp.GETX
        if miss is None:
            self.sim.schedule(latency, self._finish_local, op, done)
        else:
            self.sim.schedule(latency, self._start_miss, op, done, miss)

    def _finish_local(self, op: Op, done: Callable[[Any], None]) -> None:
        """The hit's access is over: complete ``op`` on the copy if it is
        still usable.  A snoop, eviction or install during the access
        may have taken it; then the op replays, and an SC fails."""
        line_addr = self.amap.line_addr(op.addr)
        line = self.hierarchy.peek(line_addr)
        kind = op.kind
        if kind == "read" or kind == "ll":
            usable = self._readable_now(line, line_addr)
        else:
            usable = line is not None and line.writable
        if usable:
            self._complete(op, line, done)
        elif kind == "sc":
            self._fail_sc(op, done)
        else:
            self.cpu_request(op, done)

    def _complete(
        self, op: Op, line: CacheLine, done: Callable[[Any], None]
    ) -> None:
        """Perform ``op`` on ``line`` at its coherence point and pass the
        result to ``done``: after a hit, a fill, an upgrade grant or a
        returned loan alike.  Stores run the policy's release hooks."""
        kind = op.kind
        index = self.amap.word_index(op.addr)
        if kind == "read":
            done(line.read_word(index))
            return
        if kind == "ll":
            self._set_link(op, line)
            self._count("ll_ops")
            value = line.read_word(index)
            if self.tracer is not None:
                # guarded at the call site: this runs once per spin
                # iteration, and building the payload would dominate
                # the untraced path
                self._trace(
                    "ll", line.addr, value=value, pc=op.pc,
                    state=line.state.value,
                )
            done(value)
            return
        if kind == "enqolb":
            value = line.read_word(index)
            if line.writable and value == 0:
                self.policy.on_enqolb_acquired(op.addr)
                line.pinned = True
            self._trace("enqolb", line.addr, value=value)
            done(value)
            return
        if kind == "sc" and not (
            self.link_valid and self.link_addr == op.addr and line.writable
        ):
            self._fail_sc(op, done)
            return
        # A store: a write, a swap, a successful SC or a DeQOLB.
        old = line.read_word(index)
        line.write_word(index, 0 if kind == "deqolb" else op.value)
        line.state = State.MODIFIED
        result = release = None
        if kind == "sc":
            self.link_valid = False
            self._count("sc_success")
            self._trace("sc", line.addr, success=True, pc=op.pc)
            result = True
            if self.policy.on_sc_success(op.addr, op.pc):
                release = "sc"
            else:
                # Lock acquired and held: extend the deferral window so
                # the critical section gets its own full timeout (§3.3).
                self.rearm_obligation(line.addr)
        elif kind == "deqolb":
            line.pinned = False
            self.policy.on_deqolb(op.addr)
            self._trace("deqolb", line.addr)
            release = "deqolb"
        else:
            if kind == "swap":
                result = old
                self._trace("swap", line.addr, old=old, new=op.value)
            elif self.tracer is not None:
                self._trace("store", line.addr, value=op.value, pc=op.pc)
            if self.policy.on_store_complete(op.addr, op.pc):
                # the policy recognised a lock release
                self._count("releases_detected")
                self._trace("release", line.addr)
                release = "release"
        if release is not None and line.addr not in self.loan_return_to:
            self.discharge(line.addr, reason=release)
        self._maybe_return_loan(line.addr)
        done(result)

    def _set_link(self, op: Op, line: CacheLine) -> None:
        """An LL on ``line`` sets the link (paper §2), marked as off a
        tear-off when ``line`` is one."""
        self.link_valid = True
        self.link_addr = op.addr
        self.current_ll_pc = op.pc
        self.link_tearoff = line.state is State.TEAROFF

    def _fail_sc(self, op: Op, done: Callable[[Any], None]) -> None:
        self.link_valid = False
        self._count("sc_fail")
        self._trace("sc", self.amap.line_addr(op.addr), success=False, pc=op.pc)
        self.policy.on_sc_fail(op.addr, op.pc)
        done(False)

    # ==================================================================
    # Miss path
    # ==================================================================
    def _start_miss(
        self, op: Op, done: Callable[[Any], None], bus_op: BusOp
    ) -> None:
        line_addr = self.amap.line_addr(op.addr)
        line = self.hierarchy.peek(line_addr)
        if (
            line is not None
            and line.state is not State.TEAROFF
            and (line.writable or bus_op is BusOp.GETS)
        ):
            # The line landed while the miss was being set up (a push or
            # chain transfer racing the cache lookup).  Requesting it
            # anyway would make the fabric serve a need that no longer
            # exists — possibly from memory, over a dirtier copy.
            self.cpu_request(op, done)
            return
        if bus_op is BusOp.UPGRADE and (
            line is None or line.state is State.TEAROFF
        ):
            # The inverse race: our shared copy was invalidated between
            # the upgrade decision and issue.  An UPGRADE without a copy
            # can never be granted (and, once issued, never cancelled —
            # there is no MSHR yet for the winner's snoop to squash), so
            # re-dispatch: an SC fails on its lost link, a store falls
            # back to a full GETX.
            self.cpu_request(op, done)
            return
        existing = self.mshrs.get(line_addr)
        if existing is not None:
            # A queued MSHR for this line is still waiting for ownership
            # (a tear-off already unblocked the CPU once).  Attach the new
            # CPU operation; it completes when the line finally arrives.
            if existing.has_waiter:
                raise RuntimeError(
                    f"P{self.node_id}: second blocked op on {line_addr:#x}"
                )
            existing.cpu_op = op
            existing.done_cb = done
            return
        mshr = Mshr(line_addr, op, done, self.sim.now)
        mshr.bus_op = bus_op
        self.mshrs[line_addr] = mshr
        if line_addr in self.on_loan:
            # We lent this line out and it will come back shortly; wait
            # for the return instead of racing it with a bus request.
            return
        self._issue_bus(mshr)

    def _issue_bus(self, mshr: Mshr) -> None:
        assert mshr.bus_op is not None
        txn = BusTransaction(mshr.bus_op, mshr.line_addr, self.node_id)
        mshr.txn = txn
        mshr.issued = False
        self.bus.request(txn)

    def _wake_spinner_on(self, line_addr: int) -> None:
        """Wake this node's spinner if it is parked on ``line_addr``:
        a local event is about to change its copy or what may change it."""
        spinner = self.spinner
        if spinner is not None and spinner.parked_line == line_addr:
            spinner.wake()

    def _close_mshr(self, line_addr: int) -> None:
        """Remove ``line_addr``'s MSHR.  A tear-off copy is readable only
        while its MSHR is open, so a spinner parked on one wakes first."""
        self._wake_spinner_on(line_addr)
        mshr = self.mshrs.pop(line_addr, None)
        if mshr is not None and mshr.queued:
            self._note_line(line_addr)

    def _retire_mshr(self, mshr: Mshr) -> None:
        """Remove an MSHR, settling its bus-transaction accounting."""
        self._close_mshr(mshr.line_addr)
        if mshr.txn is None:
            return
        if mshr.issued:
            if mshr.txn.op in DATA_OPS:
                self.bus.transaction_complete(mshr.txn)
        else:
            mshr.txn.cancelled = True

    # ==================================================================
    # Bus client: own-transaction notifications
    # ==================================================================
    def on_own_issue(
        self,
        txn: BusTransaction,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        if txn.op is BusOp.WRITEBACK:
            return
        mshr = self.mshrs.get(txn.line_addr)
        if mshr is None or mshr.txn is not txn:
            return  # superseded (e.g. squashed and reissued)
        mshr.issued = True
        if txn.op is BusOp.UPGRADE:
            self._complete_upgrade(mshr)
            return
        if deferred:
            # Queued: snoops must see us from now on.
            mshr.queued = True
            self.bus.note_holder(txn.line_addr, self.node_id)
            self._note_line(txn.line_addr)
            self._count("waits_in_queue")
            self._trace("queued", txn.line_addr, supplier=supplier)

    def _complete_upgrade(self, mshr: Mshr) -> None:
        """The UPGRADE reached its coherence point: permission granted."""
        done = mshr.take_waiter()
        self._close_mshr(mshr.line_addr)
        if done is None:
            return
        line = self.hierarchy.peek(mshr.line_addr)
        if line is not None:
            line.state = State.MODIFIED
            self._note_line(mshr.line_addr)
        # Our shared copy may have evaporated (silent eviction) between
        # the request and the grant; then the op replays, or an SC fails.
        self._finish_local(mshr.pending_op, done)

    # ==================================================================
    # Bus client: snooping
    # ==================================================================
    def snoop(self, txn: BusTransaction) -> SnoopReply:
        line_addr = txn.line_addr
        line = self.hierarchy.peek(line_addr)
        spinner = self.spinner
        deferring = False
        if (
            spinner is not None
            and spinner.parked_line == line_addr
            and self.spinner_state is not State.TEAROFF
            and (txn.op is not BusOp.GETS or line.is_owner)
        ):
            # The fabric wakes a spinner when it serializes a transaction
            # that will change its coherent copy (a GETS changes only an
            # owner's), a cycle or more before the snoop.  It leaves it
            # parked only for an LPRFO or QOLB_ENQ that an obligated
            # owner defers (:meth:`keeps_copy`).  No snoop changes a
            # tear-off.
            if txn.op not in DEFERRABLE_OPS or line_addr not in self.obligations:
                raise SimulationError(
                    f"{txn!r} reached {spinner.describe_state()}: the fabric "
                    f"serialized it without waking the spinner"
                )
            deferring = True
        mshr = self.mshrs.get(line_addr)
        if (
            (line is None or line.state is State.TEAROFF)
            and (
                mshr is None
                or not (mshr.queued or mshr.bus_op is BusOp.UPGRADE)
            )
            and line_addr not in self.obligations
            and line_addr not in self.on_loan
            and line_addr not in self.forwarded
        ):
            # Nothing here to supply, defer, retry, invalidate or squash
            # (claiming a successor needs a queued MSHR or an obligation;
            # a miss that is merely open answers nothing either, and a
            # tear-off is no coherent copy).
            return NO_STATE

        # Distributed-queue bookkeeping: the tail of the queue claims the
        # new requestor as its successor (paper §3.2).
        if txn.op in DEFERRABLE_OPS:
            self._maybe_claim_successor(txn)

        if txn.op is BusOp.GETS:
            return self._snoop_gets(txn, line)
        reply = self._snoop_ownership(txn, line)
        if deferring and (
            not reply.defer
            or self.hierarchy.peek(line_addr) is not line
            or line.state is not self.spinner_state
        ):
            raise SimulationError(
                f"{txn!r} changed the copy of {spinner.describe_state()}: "
                f"the fabric left it parked for a deferral"
            )
        return reply

    def _maybe_claim_successor(self, txn: BusTransaction) -> None:
        line_addr = txn.line_addr
        if line_addr in self.successor:
            return
        mshr = self.mshrs.get(line_addr)
        queued_waiter = mshr is not None and mshr.queued
        deferring_owner = line_addr in self.obligations
        if queued_waiter or deferring_owner:
            self.successor[line_addr] = txn.requester
            self._note_line(line_addr)
            self._count("successors_claimed")
            self._trace("successor", line_addr, successor=txn.requester)

    def _snoop_gets(
        self, txn: BusTransaction, line: Optional[CacheLine]
    ) -> SnoopReply:
        if txn.line_addr in self.on_loan or txn.line_addr in self.forwarded:
            # The authoritative copy is with (or in flight to) another
            # node on our behalf; make the reader try again shortly.
            return SnoopReply(retry=True)
        mshr = self.mshrs.get(txn.line_addr)
        if mshr is not None and mshr.queued:
            # We are queued for this line.  If the current owner answers,
            # the bus ignores this; if the line is in flight to us, the
            # retry keeps memory from supplying stale data.
            return SnoopReply(retry=True)
        if line is None or line.state is State.TEAROFF:
            return SnoopReply()
        if line.is_owner and txn.line_addr in self.loan_return_to:
            # Borrowed line: stay silent; the lender answers for it.
            return SnoopReply(retry=True)
        if line.is_owner:
            if self.policy.tearoff_for_read(line.addr):
                # Speculatively satisfy the read without giving up
                # ownership (paper §3.3: queries of a held lock proceed
                # without joining the queue).
                self._send_tearoff(txn.requester, line, txn.txn_id)
                return SnoopReply(supply=True)
            self._send_line(txn.requester, line, GrantState.SHARED, txn_id=txn.txn_id)
            if line.state is State.EXCLUSIVE:
                line.state = State.SHARED
                self._note_line(line.addr)
            else:
                line.state = State.OWNED
            return SnoopReply(supply=True, shared=True)
        if line.state is State.SHARED:
            return SnoopReply(shared=True)
        return SnoopReply()

    def _snoop_ownership(
        self, txn: BusTransaction, line: Optional[CacheLine]
    ) -> SnoopReply:
        line_addr = txn.line_addr
        self._squash_upgrade_if_raced(txn)

        if line_addr in self.forwarded:
            # A pushed protected-data line is in flight to its receiver;
            # requests must wait for the (bounded) transfer + ack window.
            return SnoopReply(retry=True)

        if line_addr in self.on_loan:
            # We lent the line out.  We answer for it: the queue will
            # serve low-priority requests; high-priority ones must wait
            # out the loan (NACK/retry, a short bounded window).
            if txn.op in DEFERRABLE_OPS:
                return SnoopReply(defer=True)
            return SnoopReply(retry=True)

        mshr = self.mshrs.get(line_addr)
        if mshr is not None and mshr.queued:
            # We are queued for this line.  A low-priority request behind
            # us will be served by the chain (defer suppresses memory); a
            # regular RFO either gets the line from the current owner (our
            # retry is then ignored; post_snoop may break the queue down)
            # or must retry while the line is in flight.
            if txn.op in DEFERRABLE_OPS:
                return SnoopReply(defer=True)
            return SnoopReply(retry=True)

        if line is None or line.state is State.TEAROFF:
            # Tear-offs are not coherent copies; nothing to invalidate.
            return SnoopReply()

        if not line.is_owner:
            # Shared copy: invalidate; someone is about to write.  (Only
            # such a copy can be a plain sharer, so only its drop is noted.)
            self._drop(line_addr)
            self._note_line(line_addr)
            return SnoopReply()

        # ---- we own the line ----
        if line_addr in self.loan_return_to:
            # Borrowed line: the lender answers for it; stay silent so the
            # loan can return undisturbed.
            return SnoopReply(retry=True)

        if txn.op in DEFERRABLE_OPS:
            decision = self.policy.should_defer(txn, line)
            if decision.defer:
                self._register_deferral(txn, line, decision.tearoff)
                return SnoopReply(defer=True)
            self._supply_exclusive(txn.requester, line, txn.txn_id)
            return SnoopReply(supply=True)

        # ---- regular RFO / upgrade: must be served promptly ----
        if line_addr in self.obligations:
            if self.policy.queue_retention and txn.op is BusOp.GETX:
                self._lend_line(txn.requester, line, txn.txn_id)
                return SnoopReply(supply=True)
            self._cancel_obligation(line_addr)
            self.successor.pop(line_addr, None)
            self._count("queue_breakdowns")
            self._trace("queue_breakdown", line_addr, cause=txn.requester)
        if txn.op is BusOp.UPGRADE:
            if line.state in (State.MODIFIED, State.EXCLUSIVE):
                # The requester cannot hold a valid copy while we are M/E:
                # this upgrade is stale (its SC already failed); ignore it
                # rather than dropping dirty data.
                self._count("stale_upgrades_ignored")
                return SnoopReply()
            # Requester already holds the data; we just invalidate.
            self._drop(line_addr)
            return SnoopReply()
        self._supply_exclusive(txn.requester, line, txn.txn_id)
        return SnoopReply(supply=True)

    def post_snoop(
        self, txn: BusTransaction, supplied: bool, deferred: bool
    ) -> None:
        """Outcome-dependent snoop reactions (second bus phase).

        Queue breakdown happens only when a regular RFO was actually
        served by the owner; while the line is in flight the transaction
        is being retried and the queue must stay intact.
        """
        if txn.op in DEFERRABLE_OPS or txn.op is BusOp.GETS:
            return
        if not supplied and txn.op is not BusOp.UPGRADE:
            return  # line in flight; the bus is retrying the RFO
        mshr = self.mshrs.get(txn.line_addr)
        if mshr is None or not mshr.queued:
            return
        if self.policy.queue_retention:
            # Waiters ignore the transaction; the queue survives.
            return
        mshr.queued = False
        self.successor.pop(txn.line_addr, None)
        self._note_line(txn.line_addr)
        if mshr.txn is not None and mshr.issued:
            self.bus.transaction_complete(mshr.txn)
        self._count("squashes")
        self._trace("squash", txn.line_addr, cause=txn.requester)
        # Reissue: rejoin the (re-forming) queue, possibly in a new order.
        self._issue_bus(mshr)

    def _squash_upgrade_if_raced(self, txn: BusTransaction) -> None:
        """Another node won ownership first: our pending UPGRADE dies."""
        mshr = self.mshrs.get(txn.line_addr)
        if mshr is None or mshr.txn is None or mshr.txn.op is not BusOp.UPGRADE:
            return
        mshr.txn.cancelled = True
        done = mshr.take_waiter()
        self._close_mshr(txn.line_addr)
        self._count("upgrade_races")
        if done is None:
            return
        op = mshr.pending_op
        if op.kind == "sc":
            # The link was (or is about to be) reset by this invalidation:
            # the SC fails at the coherence point.
            self.sim.schedule(0, self._fail_sc, op, done)
        else:
            # A plain store or swap just lost its shared copy; replay it
            # (it will issue a full GETX this time).
            self.sim.schedule(0, self.cpu_request, op, done)

    # ==================================================================
    # Supplying data
    # ==================================================================
    def _send_line(
        self,
        dst: int,
        line: CacheLine,
        grant: GrantState,
        loan: bool = False,
        txn_id: "Optional[int]" = None,
    ) -> None:
        msg = DataMessage(
            DataKind.LINE,
            line.addr,
            src=self.node_id,
            dst=dst,
            data=list(line.data),
            grant=grant,
            loan=loan,
            txn_id=txn_id,
        )
        self.crossbar.send(msg)

    def _send_tearoff(self, dst: int, line: CacheLine, txn_id: int) -> None:
        msg = DataMessage(
            DataKind.TEAROFF,
            line.addr,
            src=self.node_id,
            dst=dst,
            data=list(line.data),
            txn_id=txn_id,
        )
        self._count("tearoffs_sent")
        self._trace("tearoff", line.addr, to=dst)
        self.crossbar.send(msg)

    def _supply_exclusive(self, dst: int, line: CacheLine, txn_id: int) -> None:
        """Normal MOESI ownership transfer: send and invalidate."""
        self._send_line(dst, line, GrantState.EXCLUSIVE, txn_id=txn_id)
        self._drop(line.addr)

    def _lend_line(self, dst: int, line: CacheLine, txn_id: int) -> None:
        """Queue retention: loan the line; borrower must return it."""
        self._send_line(dst, line, GrantState.EXCLUSIVE, loan=True, txn_id=txn_id)
        self._drop(line.addr)
        self.on_loan[line.addr] = dst
        obligation = self.obligations.get(line.addr)
        if obligation is not None:
            obligation.suspended = True
        self._count("loans")
        self._trace("loan", line.addr, to=dst)

    def _maybe_return_loan(self, line_addr: int) -> None:
        lender = self.loan_return_to.pop(line_addr, None)
        if lender is None:
            return
        line = self.hierarchy.peek(line_addr)
        if line is None:
            return
        msg = DataMessage(
            DataKind.LOAN_RETURN,
            line_addr,
            src=self.node_id,
            dst=lender,
            data=list(line.data),
        )
        self._drop(line_addr)
        self._count("loan_returns")
        self._trace("loan_return", line_addr, to=lender)
        self.crossbar.send(msg)

    # ==================================================================
    # Deferral / obligations
    # ==================================================================
    def _register_deferral(
        self, txn: BusTransaction, line: CacheLine, tearoff: bool
    ) -> None:
        line_addr = txn.line_addr
        self._count("deferrals")
        self._trace("defer", line_addr, requester=txn.requester)
        if line_addr not in self.successor:
            self.successor[line_addr] = txn.requester
        self._create_obligation(line_addr)
        line.pinned = True
        if tearoff:
            self._send_tearoff(txn.requester, line, txn.txn_id)

    def _create_obligation(self, line_addr: int) -> None:
        if line_addr in self.obligations:
            return
        # Single speculative timer per controller (paper §3.3): entering a
        # second deferral discards the *first* speculation ("if a second,
        # nested, critical section is entered, the first can generally be
        # discarded").
        for other in list(self.obligations.values()):
            if not other.suspended:
                self._count("obligation_spills")
                self.discharge(other.line_addr, reason="displaced")
        obligation = Obligation(line_addr, self.sim.now)
        self.obligations[line_addr] = obligation
        self._arm_timer(obligation)

    def _arm_timer(self, obligation: Obligation) -> None:
        timeout = self.policy.timeout_cycles
        if timeout is None:
            return
        if obligation.timer is not None:
            self.sim.cancel(obligation.timer)
        obligation.timer = self.sim.schedule(
            timeout, self._timeout_fired, obligation.line_addr
        )

    def rearm_obligation(self, line_addr: int) -> None:
        """Restart the deferral window (e.g. at lock acquisition)."""
        obligation = self.obligations.get(line_addr)
        if obligation is not None:
            self._arm_timer(obligation)

    def _timeout_fired(self, line_addr: int) -> None:
        obligation = self.obligations.get(line_addr)
        if obligation is None:
            return
        obligation.timer = None
        self._count("timeouts")
        self._trace("timeout", line_addr)
        self.policy.on_timeout(line_addr)
        self.discharge(line_addr, reason="timeout")

    def _cancel_obligation(self, line_addr: int) -> None:
        obligation = self.obligations.pop(line_addr, None)
        if obligation is not None and obligation.timer is not None:
            self.sim.cancel(obligation.timer)

    def discharge(self, line_addr: int, reason: str) -> None:
        """Forward line ownership to the successor, if any is waiting."""
        # A spinner parked on the line wakes first: the hand-off takes
        # its copy, and without the obligation any request changes it.
        self._wake_spinner_on(line_addr)
        obligation = self.obligations.get(line_addr)
        if obligation is not None and obligation.suspended:
            obligation.fire_on_resume = True
            return
        successor = self.successor.get(line_addr)
        if successor is None:
            self._cancel_obligation(line_addr)
            return
        line = self.hierarchy.peek(line_addr)
        if line is None or not line.is_owner:
            # The line is gone (transferred some other way); the successor
            # will be served by whoever owns it now.
            self._cancel_obligation(line_addr)
            return
        self._cancel_obligation(line_addr)
        del self.successor[line_addr]
        line.pinned = False
        self._count("handoffs")
        self._count(f"handoff_{reason}")
        if obligation is not None:
            # Lock-handoff latency: cycles between taking on the deferral
            # obligation and forwarding ownership — the paper's bounded
            # deferral window, observed rather than assumed.
            self.stats.histogram("handoff.defer_cycles").add(
                self.sim.now - obligation.created
            )
        self.stats.windowed("handoff.rate").record(self.sim.now)
        self._trace("handoff", line_addr, to=successor, reason=reason)
        self._send_line(successor, line, GrantState.EXCLUSIVE)
        self._drop(line_addr)
        if reason == "release":
            # Generalized IQOLB (paper §6): the critical section's data
            # lines travel to the next lock holder with the lock.
            for data_line in self.policy.protected_lines(line_addr):
                self._push_line(successor, data_line)

    def _push_line(self, dst: int, line_addr: int) -> None:
        """Forward an owned protected-data line to the next lock holder."""
        if (
            line_addr in self.mshrs
            or line_addr in self.on_loan
            or line_addr in self.forwarded
        ):
            return
        line = self.hierarchy.peek(line_addr)
        if line is None or not line.is_owner or line.pinned:
            return
        msg = DataMessage(
            DataKind.PUSH,
            line_addr,
            src=self.node_id,
            dst=dst,
            data=list(line.data),
            grant=GrantState.EXCLUSIVE,
        )
        self._drop(line_addr)
        self.forwarded[line_addr] = dst
        self._count("pushes_sent")
        self._trace("push", line_addr, to=dst)
        self.crossbar.send(msg)

    # ==================================================================
    # Data network receive
    # ==================================================================
    def on_data(self, msg: DataMessage) -> None:
        if msg.kind is DataKind.LINE:
            self._on_line_data(msg)
        elif msg.kind is DataKind.TEAROFF:
            self._on_tearoff(msg)
        elif msg.kind is DataKind.LOAN_RETURN:
            self._on_loan_return(msg)
        elif msg.kind is DataKind.PUSH:
            self._on_push(msg)
        elif msg.kind is DataKind.PUSH_ACK:
            self.forwarded.pop(msg.line_addr, None)
            self._note_line(msg.line_addr)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown message kind {msg.kind}")

    def _on_push(self, msg: DataMessage) -> None:
        """Receive a forwarded protected-data line (Generalized IQOLB)."""
        self._count("pushes_received")
        self._trace("push_recv", msg.line_addr, src=msg.src)
        ack = DataMessage(
            DataKind.PUSH_ACK, msg.line_addr, self.node_id, msg.src
        )
        self.crossbar.send(ack)
        # Install like a chain transfer (no transaction id): the usual
        # acceptance guards apply.
        self._on_line_data(msg)

    def _on_line_data(self, msg: DataMessage) -> None:
        line_addr = msg.line_addr
        mshr = self.mshrs.get(line_addr)
        current = self.hierarchy.peek(line_addr)
        if msg.txn_id is not None:
            # A direct response: it must answer our *current* request, or
            # it is a stale answer to a superseded transaction.
            if (
                mshr is None
                or mshr.txn is None
                or mshr.txn.txn_id != msg.txn_id
            ):
                self._count("stale_fills_dropped")
                return
        elif mshr is None and current is not None and current.is_owner:
            # Chain transfer racing a fill that already served us.
            self._count("stale_fills_dropped")
            return
        if msg.grant is GrantState.EXCLUSIVE:
            # Cache-to-cache exclusive transfers may carry dirty data;
            # install as MODIFIED so it is written back on eviction.
            state = State.MODIFIED if msg.src >= 0 else State.EXCLUSIVE
        else:
            state = State.SHARED
        line = self._install_line(line_addr, state, list(msg.data or []))
        line.pinned = False
        if (
            self.link_valid
            and self.link_tearoff
            and self.amap.line_addr(self.link_addr) == line_addr
        ):
            self.link_valid = False
        if msg.loan:
            self.loan_return_to[line_addr] = msg.src
            line.pinned = True  # a borrowed line must survive to return
        self._trace("fill", line_addr, state=state.value, src=msg.src)
        if mshr is not None:
            self._retire_mshr(mshr)
            if mshr.queued:
                self.stats.histogram("queue.wait_cycles").add(
                    self.sim.now - mshr.start_time
                )
            done = mshr.take_waiter()
            if done is not None:
                self._complete(mshr.pending_op, line, done)
        # Arriving at the head of a queue with a known successor creates a
        # fresh forward obligation (the chain must keep moving).
        settled = self.hierarchy.peek(line_addr)
        if (
            settled is not None
            and settled.is_owner
            and line_addr in self.successor
        ):
            self._create_obligation(line_addr)
            settled.pinned = True

    def _on_tearoff(self, msg: DataMessage) -> None:
        line_addr = msg.line_addr
        self._count("tearoffs_received")
        self._trace("tearoff_recv", line_addr, src=msg.src)
        mshr = self.mshrs.get(line_addr)
        current = self.hierarchy.peek(line_addr)
        if current is not None and current.is_owner:
            return  # stale tear-off racing a hand-off we already received
        if msg.txn_id is not None and (
            mshr is None or mshr.txn is None or mshr.txn.txn_id != msg.txn_id
        ):
            # Answer to a superseded request (e.g. squashed and reissued).
            self._count("stale_tearoffs_dropped")
            return
        if mshr is not None and mshr.cpu_op is not None and mshr.cpu_op.kind == "read":
            # A read satisfied by a tear-off is fully complete and is NOT
            # installed: the value is usable once, which keeps repeated
            # reads from observing it after intervening accesses (the
            # sequential-consistency constraint of paper §3.3), and the
            # reader stays out of the queue.
            done = mshr.take_waiter()
            self._retire_mshr(mshr)
            if done is not None:
                data = list(msg.data or [])
                done(data[self.amap.word_index(mshr.pending_op.addr)])
            return
        if mshr is None:
            # A tear-off that outlived its request (e.g. delayed at the
            # sender's port until after we acquired and passed the line
            # on).  Installing it would leave a stale copy we might spin
            # on forever; drop it.
            self._count("stale_tearoffs_dropped")
            return
        line = self._install_line(line_addr, State.TEAROFF, list(msg.data or []))
        # LL or EnQOLB waiter: unblock the CPU with the speculative value;
        # the MSHR stays open, holding our place in the queue.
        mshr.tearoff_done = True
        line.pinned = True
        done = mshr.take_waiter()
        if done is not None:
            op = mshr.pending_op
            value = line.read_word(self.amap.word_index(op.addr))
            if op.kind == "ll":
                self._set_link(op, line)
            elif op.kind == "enqolb":
                # Receipt of a tear-off signals a successful queue insert,
                # with the lock currently unavailable (paper §3.3).
                value = 1
            done(value)

    def _on_loan_return(self, msg: DataMessage) -> None:
        line_addr = msg.line_addr
        self.on_loan.pop(line_addr, None)
        if msg.data is None:
            # Loan dissolved: the borrower lost the line to a third party.
            self._dissolve_loan(line_addr)
            return
        line = self._install_line(line_addr, State.MODIFIED, list(msg.data))
        self._trace("loan_back", line_addr, src=msg.src)
        obligation = self.obligations.get(line_addr)
        if obligation is not None:
            obligation.suspended = False
            line.pinned = True
            if obligation.fire_on_resume:
                obligation.fire_on_resume = False
                self.discharge(line_addr, reason="resume")
        self._serve_parked_mshr(line_addr)

    def _serve_parked_mshr(self, line_addr: int) -> None:
        mshr = self.mshrs.get(line_addr)
        if mshr is None or mshr.txn is not None:
            return
        done = mshr.take_waiter()
        self._close_mshr(line_addr)
        if done is None:
            return
        current = self.hierarchy.peek(line_addr)
        if current is not None and current.is_owner:
            self._complete(mshr.pending_op, current, done)
        else:
            # The line moved on (e.g. discharged on resume); replay.
            self.cpu_request(mshr.pending_op, done)

    def _dissolve_loan(self, line_addr: int) -> None:
        self._count("loans_dissolved")
        self._cancel_obligation(line_addr)
        self.successor.pop(line_addr, None)
        mshr = self.mshrs.get(line_addr)
        if mshr is not None and mshr.txn is None:
            # The parked miss must now really go to the bus.
            self._issue_bus(mshr)

    # ==================================================================
    # Line installation and eviction
    # ==================================================================
    def _install_line(self, line_addr: int, state: State, data: list) -> CacheLine:
        if self.spinner is not None:
            # Any fill may evict the spun line and moves the L1 LRU clock.
            self.spinner.wake()
        self.bus.note_holder(line_addr, self.node_id)
        existing = self.hierarchy.l2.index.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.data = data
            self._note_line(line_addr)
            return existing
        line = CacheLine(line_addr, state, data)
        for victim in self.hierarchy.install(line):
            self._handle_eviction(victim)
        self._note_line(line_addr)
        return line

    def _handle_eviction(self, victim: CacheLine) -> None:
        """Evicted lines with waiters hand off; dirty lines write back."""
        self._reset_link_if(victim.addr)
        self._note_line(victim.addr)
        if victim.addr in self.successor and victim.is_owner:
            # Eviction is treated as a time-out (paper §3.3): ownership
            # and data transfer to the next requestor in line.
            successor = self.successor.pop(victim.addr)
            self._cancel_obligation(victim.addr)
            self._count("evict_handoffs")
            self._trace("evict_handoff", victim.addr, to=successor)
            self._send_line(successor, victim, GrantState.EXCLUSIVE)
            return
        if victim.state is State.TEAROFF:
            return  # tear-offs vanish silently
        if victim.dirty:
            # Functionally update memory immediately so a concurrent read
            # cannot observe stale data; the WRITEBACK transaction models
            # the bus/timing cost.
            self.bus.memory.write_line(victim.addr, list(victim.data))
            txn = BusTransaction(BusOp.WRITEBACK, victim.addr, self.node_id)
            txn.data = list(victim.data)
            self._count("writebacks")
            self.bus.request(txn)
