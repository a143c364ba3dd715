"""Invariant oracles: the machine-checkable form of the paper's claims.

Each oracle watches one invariant through whichever surface observes it
most directly:

* state-scan oracles (:class:`SwmrOracle`, :class:`DataValueOracle`)
  inspect the caches after every fired event via the kernel's ``on_step``
  hook, through one :class:`CoherentCopies` view built once per event;
* event-stream oracles (:class:`HandoffOracle`) consume the structured
  telemetry stream through an :class:`OracleSink` attached to the run's
  :class:`~repro.telemetry.tracer.TraceDispatcher` — dispatch is
  synchronous, so a violation raises *inside* the simulation at the
  exact step that broke the invariant;
* :class:`GrantOrderMonitor` and :class:`BarrierMonitor` are called
  directly from the scenario's generator programs (arrive, enter and
  exit; arrive and depart); the grant-order monitor also reads each
  thread's splice off the telemetry stream, so it checks the shipped
  lock code without seams in it;
* :class:`ProgressOracle` classifies how the run *ended* (finished,
  runaway, out of budget) against the policy's liveness promise.

All report through :class:`Violation`, which the explorer converts into
a replayable counterexample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.registry import PrimitiveSpec, policy_class
from repro.mem.line import CacheLine, State
from repro.telemetry.events import TelemetryEvent

#: run outcomes handed to ``Oracle.at_end``
OUTCOME_FINISHED = "finished"
OUTCOME_RUNAWAY = "runaway"
OUTCOME_BUDGET = "budget"

#: telemetry kinds that mean "this node regained ownership of the line"
_REGAIN_KINDS = frozenset({"fill", "push_recv", "loan_back"})


class Violation(Exception):
    """An invariant broke.  Carries enough context to file a report."""

    def __init__(self, oracle: str, message: str, time: Optional[int] = None):
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.message = message
        self.time = time


class Oracle:
    """Interface every invariant check implements (all hooks optional)."""

    name = "oracle"

    def on_event(self, event: TelemetryEvent) -> None:
        """One structured telemetry event, synchronously, in-sim."""

    def on_step(self, system) -> None:
        """Called after every fired kernel event."""

    def at_end(self, system, outcome: str) -> None:
        """Called once when the run ends; ``outcome`` is OUTCOME_*."""


class OracleSink:
    """TraceSink adapter: fans telemetry events out to the oracles."""

    def __init__(self, oracles: List[Oracle]) -> None:
        self._oracles = [o for o in oracles if o is not None]

    def emit(self, event: TelemetryEvent) -> None:
        for oracle in self._oracles:
            oracle.on_event(event)

    def close(self) -> None:
        pass


class CoherentCopies:
    """Per tracked line, the copies that carry coherence permission.

    The state-scan oracles share one instance.  After each fired event
    the first of them to ask builds the view from every node's L2 index:
    per tracked line, the ``(node_id, line)`` pairs of the valid copies
    that are not tear-offs (those carry no permission by design, paper
    3.3), in node order.  The others reuse it until the next event.
    """

    def __init__(self, system, tracked_lines: List[int]) -> None:
        self.tracked = tracked_lines
        self._sim = system.sim
        self._indexes = [
            (controller.node_id, controller.hierarchy.l2.index)
            for controller in system.controllers
        ]
        self._built_at = -1
        self._copies: List[Tuple[int, List[Tuple[int, CacheLine]]]] = []

    def per_line(self) -> List[Tuple[int, List[Tuple[int, CacheLine]]]]:
        """``(line_addr, copies)`` for each tracked line, as of now."""
        fired = self._sim.events_fired
        if fired != self._built_at:
            self._built_at = fired
            invalid, tearoff = State.INVALID, State.TEAROFF
            indexes = self._indexes
            view = []
            for line_addr in self.tracked:
                copies = []
                for node_id, index in indexes:
                    line = index.get(line_addr)
                    if line is not None:
                        state = line.state
                        if state is not invalid and state is not tearoff:
                            copies.append((node_id, line))
                view.append((line_addr, copies))
            self._copies = view
        return self._copies


class SwmrOracle(Oracle):
    """Single-writer / multiple-reader over the tracked lines.

    At every step: at most one cache may hold a line writable (E/M), and
    while one does, no other cache may hold any coherent copy.  Tear-off
    copies are exempt — they carry no permission by design (paper 3.3).
    """

    name = "swmr"

    def __init__(self, copies: CoherentCopies) -> None:
        self.copies = copies

    def on_step(self, system) -> None:
        for line_addr, copies in self.copies.per_line():
            if len(copies) < 2:
                continue  # one copy, writable or not, breaks nothing
            writers = [node for node, line in copies if line.writable]
            if len(writers) > 1:
                raise Violation(
                    self.name,
                    f"line {line_addr:#x} writable at "
                    f"{['P%d' % w for w in writers]}",
                    time=system.sim.now,
                )
            if writers:
                holders = [(f"P{n}", line.state.value) for n, line in copies]
                raise Violation(
                    self.name,
                    f"line {line_addr:#x} writable at P{writers[0]} while "
                    f"also held: {holders}",
                    time=system.sim.now,
                )


class DataValueOracle(Oracle):
    """All coherent copies of a tracked line carry identical data.

    MOESI keeps memory stale behind an O/M owner, so memory is not
    consulted; the invariant is pairwise agreement between caches.
    """

    name = "data-value"

    def __init__(self, copies: CoherentCopies) -> None:
        self.copies = copies

    def on_step(self, system) -> None:
        for line_addr, copies in self.copies.per_line():
            if len(copies) < 2:
                continue
            ref_node, reference = copies[0]
            for node, line in copies[1:]:
                if line.data != reference.data:
                    raise Violation(
                        self.name,
                        f"line {line_addr:#x} diverged: "
                        f"P{ref_node}={list(reference.data)} vs "
                        f"P{node}={list(line.data)}",
                        time=system.sim.now,
                    )


class GrantOrderMonitor(Oracle):
    """Mutual exclusion and, where claimed, grant in splice order.

    It is a :class:`~repro.workloads.micro.NullCriticalSection`
    observer: the program calls :meth:`arrive` before its acquire starts,
    :meth:`enter` right after the acquire completes and :meth:`exit`
    right before the release begins, with no simulated operation in
    between, so occupancy tracks the lock's semantics exactly.  Overlap
    raises immediately, in-sim.

    The *splice* — the step that fixes a thread's place in the lock's
    queue — is read off the telemetry stream, not off seams in the lock
    code: a thread's first committed ``swap``, or first successful
    ``sc``, on the lock line after it arrived: the tail swap of a
    pointer splice (MCS, CLH), the fetch&add of a counting splice
    (ticket, Anderson).  Only primitives whose
    :class:`~repro.core.registry.PrimitiveSpec` claims FIFO (``fifo``)
    track splices, and for them :meth:`enter` must follow splice order.
    """

    name = "grant-order"

    def __init__(self, fifo: bool = False) -> None:
        self.lock_line: Optional[int] = None
        self.fifo = fifo
        self.inside: Set[int] = set()
        self.entries = 0
        #: threads that arrived and have not spliced yet
        self.arrived: Set[int] = set()
        #: threads that spliced and have not entered yet, in splice order
        self.spliced: List[int] = []

    def bind(self, system, lock_line: int) -> None:
        """Watch ``lock_line``: called by the workload once it is laid out."""
        self.lock_line = lock_line

    def arrive(self, tid: int) -> None:
        self.arrived.add(tid)

    def on_event(self, event: TelemetryEvent) -> None:
        if (
            not self.fifo
            or event.line_addr != self.lock_line
            or event.node not in self.arrived
        ):
            return
        if event.kind == "swap" or (
            event.kind == "sc" and event.info.get("success")
        ):
            self.arrived.discard(event.node)
            self.spliced.append(event.node)

    def enter(self, tid: int) -> None:
        if self.inside:
            raise Violation(
                self.name,
                f"T{tid} entered the critical section while "
                f"{sorted(self.inside)} inside",
            )
        if tid in self.spliced:
            if self.fifo and self.spliced[0] != tid:
                raise Violation(
                    self.name,
                    f"T{tid} entered ahead of T{self.spliced[0]}, which "
                    f"spliced first (splice order {self.spliced})",
                )
            self.spliced.remove(tid)
        self.arrived.discard(tid)
        self.inside.add(tid)
        self.entries += 1

    def exit(self, tid: int) -> None:
        self.inside.discard(tid)


class BarrierMonitor(Oracle):
    """All-arrive-before-any-depart, per barrier round.

    Scenario programs call :meth:`arrive` once their pre-barrier work is
    globally visible (just before entering the barrier protocol) and
    :meth:`depart` immediately after the barrier releases them.  A depart
    while any party has not arrived at that round is the barrier's safety
    violation — a sense flip released waiters early.  Registered as an
    end-of-run oracle too: a *finished* run must have departed every
    round exactly ``parties`` times.
    """

    name = "barrier-phase"

    def __init__(self, parties: int, rounds: int) -> None:
        self.parties = parties
        self.rounds = rounds
        #: per round: the set of parties that arrived
        self.arrived: Dict[int, Set[int]] = {}
        #: per round: the set of parties that departed
        self.departed: Dict[int, Set[int]] = {}

    def arrive(self, tid: int, round_no: int) -> None:
        arrived = self.arrived.setdefault(round_no, set())
        if tid in arrived:
            raise Violation(
                self.name,
                f"T{tid} arrived at round {round_no} twice",
            )
        arrived.add(tid)

    def depart(self, tid: int, round_no: int) -> None:
        arrived = self.arrived.get(round_no, set())
        if tid not in arrived:
            raise Violation(
                self.name,
                f"T{tid} departed round {round_no} without arriving",
            )
        if len(arrived) < self.parties:
            missing = sorted(set(range(self.parties)) - arrived)
            raise Violation(
                self.name,
                f"T{tid} departed round {round_no} with only "
                f"{len(arrived)}/{self.parties} arrivals "
                f"(missing {missing})",
            )
        self.departed.setdefault(round_no, set()).add(tid)

    def at_end(self, system, outcome: str) -> None:
        if outcome != OUTCOME_FINISHED:
            return
        for round_no in range(self.rounds):
            departed = self.departed.get(round_no, set())
            if len(departed) != self.parties:
                raise Violation(
                    self.name,
                    f"run finished but round {round_no} was departed by "
                    f"{len(departed)}/{self.parties} parties",
                    time=system.sim.now,
                )


class HandoffOracle(Oracle):
    """Exactly-once hand-off per release, in queue order.

    Sourced from the telemetry stream:

    * ``defer`` (at the owner, with the requester) builds the per-line
      queue in join order;
    * ``handoff``/``evict_handoff`` is an ownership transfer by the
      emitting node; a second transfer by the same node without an
      intervening regain (``fill``/``push_recv``/``loan_back``) is a
      duplicated hand-off — the "exactly once" upper bound;
    * a ``release`` while the node holds a claimed successor arms an
      expectation that a hand-off follows; releasing *again* with the
      expectation still armed, or ending the run with it armed, is the
      "exactly once" lower bound — the hand-off never happened;
    * with ``fifo`` (policies declaring ``fifo_handoff``: the retention
      variants and QOLB), the transfer target must be the queue head —
      paper 4.2's request-order guarantee.
    """

    name = "handoff"

    def __init__(self, system, tracked_lines: List[int], fifo: bool = False):
        self.system = system
        self.tracked = set(tracked_lines)
        self.fifo = fifo
        #: per line: queued requesters in join order
        self.queue: Dict[int, List[int]] = {}
        #: (node, line) pairs that handed the line away and have not
        #: regained it since — a second hand-off from here is a duplicate
        self._handed: Set[Tuple[int, int]] = set()
        #: (node, line) -> release time, armed until the hand-off happens
        self.pending_release: Dict[Tuple[int, int], int] = {}
        self.handoffs = 0

    def _claim(self, node: int, line: int) -> Optional[int]:
        """The node's *live* successor claim — controller state is the
        authority, because queue breakdowns and squashes void claims
        through paths the event stream only reflects indirectly."""
        return self.system.controllers[node].successor.get(line)

    def on_event(self, event: TelemetryEvent) -> None:
        if event.line_addr not in self.tracked:
            return
        line = event.line_addr
        node = event.node
        kind = event.kind
        if kind == "defer":
            requester = event.info.get("requester")
            queue = self.queue.setdefault(line, [])
            if requester in queue:
                queue.remove(requester)
            queue.append(requester)
        elif kind == "squash":
            for queue in self.queue.values():
                if node in queue:
                    queue.remove(node)
        elif kind in ("queue_breakdown", "dir_breakdown"):
            # The queue dissolved (members squash and re-arbitrate); any
            # recorded order is void until it re-forms.
            self.queue.pop(line, None)
        elif kind in _REGAIN_KINDS:
            self._handed.discard((node, line))
            queue = self.queue.get(line)
            if kind == "fill" and queue and node in queue:
                queue.remove(node)
        elif kind == "release":
            claim = self._claim(node, line)
            if claim is None:
                return
            if (node, line) in self.pending_release:
                raise Violation(
                    self.name,
                    f"P{node} released line {line:#x} twice (t="
                    f"{self.pending_release[(node, line)]} and t="
                    f"{event.time}) without handing off to its queued "
                    f"successor P{claim}",
                    time=event.time,
                )
            self.pending_release[(node, line)] = event.time
        elif kind in ("handoff", "evict_handoff"):
            self.handoffs += 1
            target = event.info.get("to")
            if (node, line) in self._handed:
                raise Violation(
                    self.name,
                    f"P{node} handed line {line:#x} to P{target} twice "
                    f"without regaining ownership",
                    time=event.time,
                )
            self._handed.add((node, line))
            self.pending_release.pop((node, line), None)
            if self.fifo:
                queue = self.queue.get(line)
                if queue and target in queue and queue[0] != target:
                    raise Violation(
                        self.name,
                        f"FIFO order broken on line {line:#x}: handed to "
                        f"P{target} while P{queue[0]} joined first "
                        f"(queue {queue})",
                        time=event.time,
                    )

    def at_end(self, system, outcome: str) -> None:
        if outcome == OUTCOME_BUDGET:
            return  # cut short; the hand-off may still have been coming
        for (node, line), when in sorted(self.pending_release.items()):
            successor = self._claim(node, line)
            if successor is None:
                continue
            raise Violation(
                self.name,
                f"P{node} released line {line:#x} at t={when} but never "
                f"handed it to its queued successor P{successor} "
                f"(run {outcome} at t={system.sim.now})",
                time=when,
            )


class ProgressOracle(Oracle):
    """Liveness under the paper's timeout bound.

    For policies that declare ``promises_progress`` (the timeout-based
    delayed/IQOLB variants, adaptive and explicit QOLB), hitting the
    kernel's runaway guard means some waiter starved: a liveness
    violation.  The same holds for the software queue locks (taxonomy
    ``swqueue``) whatever policy they run on: their hand-off is a plain
    store, so a waiter that never gets the lock has lost its wake-up.
    For the baseline and aggressive policies under LL/SC spinning,
    livelock is a *documented phenomenon* (the paper's Figure 2
    motivation), so a runaway is recorded as inconclusive rather than
    flagged.
    """

    name = "progress"

    def __init__(self, spec: PrimitiveSpec) -> None:
        #: who promises the bounded hand-off, or None when nobody does
        self.promisor: Optional[str] = None
        if policy_class(spec.policy).promises_progress:
            self.promisor = f"policy {spec.policy}"
        elif spec.taxonomy == "swqueue":
            self.promisor = f"software queue lock {spec.name}"
        self.inconclusive = False

    def at_end(self, system, outcome: str) -> None:
        if outcome != OUTCOME_RUNAWAY:
            return
        if self.promisor is None:
            self.inconclusive = True
            return
        raise Violation(
            self.name,
            f"{self.promisor} promises bounded hand-off but the run "
            f"exceeded max_cycles={system.sim.max_cycles}",
            time=system.sim.now,
        )
