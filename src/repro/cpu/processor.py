"""In-order processor model.

The paper simulates 4-wide out-of-order cores; at reproduction scale we
substitute an in-order core with blocking memory operations (see
DESIGN.md §2).  The rate at which the core presents work to the memory
system — the only thing that matters to the mechanisms under study — is
modelled by explicit ``Compute`` costs in the programs plus a fixed
per-instruction issue overhead.

Sequential consistency (the paper's model, Table 1) holds trivially: each
processor issues one memory operation at a time and the bus serializes
them globally.

Spin loops
----------
A :class:`~repro.cpu.ops.Spin` op is a whole spin loop, run here: a
``wait_until`` loop, each test a ``Read``, or TTS's test loop, a
*linked* spin, each test an ``LL``.  Each failed test waits
``issue_overhead + pause`` before the next, exactly as the
``Read``/``Compute`` (or ``LL``/``Compute``) pairs it replaces (three
events per failed test).  When a test fails on an L1 hit and the
controller reports the line quiet
(:meth:`~repro.coherence.controller.CacheController.quiet_line`), the
processor *parks*: it schedules nothing, because every further test
would re-read the same value from the same L1 copy.  The copy may be a
coherent one or IQOLB's tear-off, backed by the queued request's open
MSHR.  A coherent copy may be one this node owns under an obligation:
the delayed-response waiter that a timeout hand-off passed a lock still
held spins on its own M copy.  What wakes it is what can change the
copy.  For a coherent copy, that is the fabric serializing a
transaction that will change it
(:class:`~repro.interconnect.bus.ParkedSpinners`: the bus issuing it,
the directory sending an invalidation or forward to this node; its
snoop is at least a cycle later), and for an obligated owner also its
node's own timeout or discharge of the obligation, which wake it before
the line moves on.  An LPRFO or QOLB_ENQ that the obligated owner
defers only chains a successor and wakes nobody.  No snoop touches a
tear-off; its MSHR closing does, since the tear-off is readable only
while the MSHR is open.  Any install into this node's caches wakes
either kind.  A miss that merely opens on the line, like the GETS
refills that keep a saturated bus busy, or another node's request
joining the queue, wakes nobody.  On
waking it charges the tests the loop would have run so far — ops,
``mem_ops``, L1 hits and LRU touches, backoff, and for a linked spin
``ll_ops`` and the link register
(:meth:`~repro.coherence.controller.CacheController.replay_lls`: each
skipped LL would have set it to what the last real one left, and
nothing could reset it in between) — and queues the one event the loop
would have pending, at its exact time and in its exact place among the
events due with it.  A linked spin does not park while a tracer is
attached: every LL emits an ``ll`` trace event.

That place is where the loop would have queued it.  Events due in one
cycle fire in the order they were queued; events queued in one cycle, in
the order of the events that queued them.  Every event records the cycle
it was queued in (``Event.born``), and each loop keeps the times, queue
cycles and seqs of its tests (real and skipped), so a woken event goes
behind the events queued before its loop would have queued it, ahead of
those queued after, and among other loops' events queued in the same
cycle by walking both loops back until they part.  A walk stops at the
first step where both loops' events were real, since their seqs decide;
so a test issued after every woken event's due time, and finished with
no loop parked, is as far back as any walk can reach (every loop's event
in its issue cycle was real), and the loop drops the tests before it.
A loop event due in the wake cycle itself already ran if it was queued
before the event doing the waking was.  Two ties stay unresolved and go
the loop event last: another event queued in the same cycle as the loop
event, and a waking event queued in the same cycle as it.  A loop event
touches only its own thread, its L1 hit counter and LRU stamp, its link
register and its read of its copy.  Against a serialization wake no
outcome depends on the ties: the copy changes a cycle or more later, so
the loop event commutes with any event of another node, and what does
not commute, two loops' misses reaching the bus together, is ordered by
the walk.  An install, an MSHR closing, a timeout or a discharge changes
the copy in the waking event itself; there the check is
``tests/test_spin_park.py``, which holds every outcome to a loop that
never parks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.cpu.ops import Compute, Fence, Spin
from repro.cpu.thread import SimThread
from repro.engine.event import Event, callback_label
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry

#: where a woken spin loop resumes: the pause-end ``_advance``, the
#: test's ``cpu_request``, or the L1 hit's ``_finish_local``
_ADVANCE, _REQUEST, _FINISH = range(3)


class Processor:
    """Drives one :class:`SimThread`, one operation at a time."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        stats: StatsRegistry,
        issue_overhead: int = 1,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.stats = stats
        self.issue_overhead = issue_overhead
        self.controller: Optional[Any] = None  # set by the system builder
        self.thread: Optional[SimThread] = None
        self.on_thread_done: Optional[Callable[[SimThread], None]] = None
        self._prefix = f"cpu{node_id}"
        # _advance runs once per instruction; resolve its counters once
        self._c_ops = stats.counter(f"{self._prefix}.ops")
        self._c_mem_ops = stats.counter(f"{self._prefix}.mem_ops")
        #: the spin loop in progress, its line, and the pause that
        #: follows its current failed test
        self._spin: Optional[Spin] = None
        self._spin_line = 0
        self._pause = 0
        #: when the current test's Read issued (its ``_advance`` time)
        self._issued = 0
        #: the line this processor is parked on, or None while running
        self.parked_line: Optional[int] = None
        #: time of the last failed test before parking
        self._parked_at = 0
        #: the loop's tests back to the last point a tie walk could
        #: reach, oldest first, to order its events against other
        #: loops' (see :meth:`_events_back`): per real test ``[issued,
        #: queued_at, seq, request_seq, finished, queued_at, seq]`` for
        #: the events that issued, requested and finished it, and one
        #: :class:`_SkippedTests` run per park
        self._history: List[Any] = []
        #: the event a wake queued, until it fires (its seq is not one
        #: the loop's own events gave it)
        self._woken: Optional[Event] = None
        #: failed tests charged arithmetically, over the whole run
        self.tests_skipped = 0

    def bind(self, thread: SimThread) -> None:
        """Attach the thread this processor will run."""
        self.thread = thread

    def start(self) -> None:
        """Schedule the first instruction."""
        if self.thread is None:
            raise RuntimeError(f"processor {self.node_id} has no thread")
        self.thread.start_time = self.sim.now
        self.sim.schedule(0, self._advance, None)

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _advance(self, result: Any) -> None:
        """Feed the previous result to the program and issue the next op."""
        spin = self._spin
        if spin is not None:
            # The pause after a failed test is over: test again.
            if spin.max_pause is not None:
                self._pause = min(self._pause * 2, spin.max_pause)
            self.thread.ops_executed += 1
            self._issue_test(spin)
            return
        thread = self.thread
        assert thread is not None
        op = thread.advance(result)
        if op is None:
            thread.finish_time = self.sim.now
            self._c_ops.value += thread.ops_executed
            if self.on_thread_done is not None:
                self.on_thread_done(thread)
            return
        if type(op) is Compute:
            self.sim.schedule(self.issue_overhead + op.value, self._advance, None)
            return
        if type(op) is Fence:
            self.sim.schedule(self.issue_overhead, self._advance, None)
            return
        # Memory operation: hand to the cache controller; it calls
        # _memory_done(value) when the access completes.
        if self.controller is None:
            raise RuntimeError(f"processor {self.node_id} has no controller")
        if type(op) is Spin:
            self._spin = op
            self._spin_line = self.controller.amap.line_addr(op.addr)
            self._pause = op.pause
            self._history = []
            self._issue_test(op)
            return
        self._c_mem_ops.value += 1
        self.sim.schedule(
            self.issue_overhead, self.controller.cpu_request, op, self._memory_done
        )

    def _memory_done(self, value: Any) -> None:
        self._advance(value)

    # ------------------------------------------------------------------
    # Spin loops
    # ------------------------------------------------------------------
    def _issue_test(self, spin: Spin) -> None:
        sim = self.sim
        self._c_mem_ops.value += 1
        self._issued = sim.now
        born, seq = self._firing()
        request = sim.schedule(
            self.issue_overhead, self.controller.cpu_request, spin, self._tested
        )
        self._history.append(
            [sim.now, born, seq, request.seq, None, None, None]
        )

    def _firing(self) -> Tuple[int, Optional[float]]:
        """``(queued_at, seq)`` of the event firing now; a woken loop's
        own event has no real seq (its position came from the wake)."""
        event = self.sim.last_event
        return event.born, None if event is self._woken else event.seq

    def _tested(self, value: int) -> None:
        """One spin test completed with ``value``."""
        spin = self._spin
        if spin.accepts(value):
            self._spin = None
            self._advance(value)
            return
        self.thread.ops_executed += 1  # the pause, a Compute in the loop
        sim = self.sim
        now = sim.now
        hit = (
            now - self._issued
            == self.issue_overhead + self.controller.hierarchy.l1_hit_cycles
        )
        history = self._history
        history[-1][4:] = (now, *self._firing())
        if (
            sim.sleepers == 0
            and sim.woken_until < self._issued
            and len(history) > 1
        ):
            # Nothing was parked or woken from this test's issue on, so
            # every loop's event in that cycle is a real one: a tie walk
            # stops there, and the tests before it are never read.
            del history[:-1]
        if hit and self._may_park():
            self.parked_line = self._spin_line
            self._parked_at = now
            self.controller.park(self)
            sim.sleepers += 1
            return
        sim.schedule(self.issue_overhead + self._pause, self._advance, None)

    def _may_park(self) -> bool:
        """Park after this failed L1-hit test?  Yes whenever the line is
        quiet, except a linked spin under a tracer (each LL emits an
        ``ll`` trace event); a reference that runs every test overrides
        it."""
        controller = self.controller
        if self._spin.linked and controller.tracer is not None:
            return False
        return controller.quiet_line(self._spin_line)

    def _replay(
        self, now: int, trigger_born: Optional[int] = None
    ) -> Tuple[int, int, int, int, int, int, int]:
        """The parked loop from its last real test up to ``now``.

        Returns ``(reads, tests, pause, resume, when, issued, after)``:
        the Reads it issued and the failed tests it completed before
        ``now`` (each completed test also hit the L1 once more than it
        paused), its pause after that, and which event it has pending
        (``resume``, one of ``_ADVANCE``/``_REQUEST``/``_FINISH``) at
        time ``when`` for the Read issued at ``issued``, after the test
        that finished at ``after``.  A loop event
        due at ``now`` itself counts as run when it was queued in an
        earlier cycle than ``trigger_born``, the cycle the event firing
        now was queued in: it would have fired first.
        """
        io = self.issue_overhead
        hit = self.controller.hierarchy.l1_hit_cycles
        max_pause = self._spin.max_pause
        if trigger_born is None:
            trigger_born = -1

        def pending(due: int, queued_at: int) -> bool:
            return due > now or (due == now and queued_at >= trigger_born)

        t = self._parked_at
        pause = self._pause
        reads = tests = 0
        while True:
            if max_pause is None or pause == max_pause:
                # Constant pause from here: skip whole iterations.
                period = 2 * io + hit + pause
                skip = (now - 1 - t) // period
                if skip > 0:
                    t += skip * period
                    reads += skip
                    tests += skip
            issued = t + io + pause
            if pending(issued, t):
                return reads, tests, pause, _ADVANCE, issued, issued, t
            reads += 1
            if max_pause is not None:
                pause = min(pause * 2, max_pause)
            if pending(issued + io, issued):
                return reads, tests, pause, _REQUEST, issued + io, issued, t
            if pending(issued + io + hit, issued + io):
                return (
                    reads, tests, pause, _FINISH, issued + io + hit, issued, t
                )
            tests += 1
            t = issued + io + hit

    def wake(self) -> None:
        """Unpark: charge the skipped tests and queue the pending event."""
        line_addr = self.parked_line
        if line_addr is None:
            return
        controller = self.controller
        controller.unpark(self)
        self.parked_line = None
        sim = self.sim
        sim.sleepers -= 1
        parked_pause = self._pause
        # Inside the event that woke us: our event due this same cycle
        # ran first if it was queued first.
        trigger = sim.last_event
        reads, tests, pause, resume, when, issued, after = self._replay(
            sim.now, None if trigger is None else trigger.born
        )
        hits = tests + (resume == _FINISH)
        self.thread.ops_executed += reads + tests
        self._c_mem_ops.value += reads
        if hits:
            controller.hierarchy.replay_l1_hits(line_addr, hits)
        spin = self._spin
        if tests and spin.linked:
            controller.replay_lls(spin, tests)
        self.tests_skipped += tests
        sim.events_skipped += reads + hits + tests
        self._pause = pause
        self._issued = issued
        history = self._history
        if tests:
            history.append(
                _SkippedTests(self, self._parked_at, parked_pause, tests)
            )
        io = self.issue_overhead
        if resume == _ADVANCE:
            callback, args = self._advance, (None,)
            queued_at = after
        else:
            history.append([issued, after, None, None, None, None, None])
            if resume == _REQUEST:
                callback, args = controller.cpu_request, (spin, self._tested)
                queued_at = issued
            else:
                # The L1 hit's completion, as the controller queued it.
                callback, args = controller._finish_local, (spin, self._tested)
                queued_at = issued + io
        self._woken = self._queue_in_order(when, queued_at, callback, args)
        if when > sim.woken_until:
            sim.woken_until = when

    def _queue_in_order(
        self, when: int, queued_at: int, callback, args: tuple
    ) -> Event:
        """Queue the woken loop's pending event where the loop would
        have queued it, in cycle ``queued_at``: behind the events due
        at ``when`` queued before that cycle, ahead of those queued
        after it, and among the ones queued in that cycle by other spin
        loops in the order their loops' events would have run.  (Other
        events queued in that same cycle stay ahead.)"""
        queue = self.sim._queue
        bucket = queue._buckets.get(when)
        if bucket:
            start = queue._head_pos if bucket is queue._head_bucket else 0
            for event in bucket[start:]:
                if event.cancelled or event.born < queued_at:
                    continue
                if event.born > queued_at:
                    return queue.push_before(event, callback, args, queued_at)
                other = _spin_owner(event)
                if (
                    other is not None
                    and other is not self
                    and _fires_first(
                        self, None, other,
                        None if event is other._woken else event.seq,
                        when,
                    )
                ):
                    return queue.push_before(event, callback, args, queued_at)
        event = self.sim.schedule_at(when, callback, *args)
        event.born = queued_at
        return event

    def _events_back(self, when: int, seq: Optional[float]) -> Iterator[tuple]:
        """The loop's events from its pending one, due at ``when``, back
        through its history: ``(time, queued_at, seq)`` each, where
        ``queued_at`` is the cycle it was queued in and ``seq`` its queue
        seq (None for an event a park skipped or a wake queued).  Each
        event was queued by the next one, as long as that one's time is
        the ``queued_at``; otherwise by something outside the loop."""
        io = self.issue_overhead
        tests = self._tests_back()
        (
            issued, issued_at, issued_seq, request_seq,
            finished, finished_at, finished_seq,
        ) = next(tests)
        if finished is None:  # pending: its request or its L1 hit
            if when == issued + io:
                yield when, issued, seq
            else:
                yield when, issued + io, seq
                yield issued + io, issued, request_seq
        else:  # pending: the pause's end
            yield when, finished, seq
            yield finished, finished_at, finished_seq
            yield issued + io, issued, request_seq
        yield issued, issued_at, issued_seq
        for (
            issued, issued_at, issued_seq, request_seq,
            finished, finished_at, seq,
        ) in tests:
            yield finished, finished_at, seq
            yield issued + io, issued, request_seq
            yield issued, issued_at, issued_seq

    def _tests_back(self) -> Iterator[list]:
        """Every test of the loop, newest first, skipped ones included."""
        for entry in reversed(self._history):
            if type(entry) is list:
                yield entry
            else:
                yield from entry.back()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def settled_view(self, now: int) -> Tuple[int, Optional[tuple]]:
        """``(ops_executed, pending)`` as the running loop would show
        them at ``now``: the thread's op count with the parked loop's
        skipped ops charged, and its pending event as an entry of
        :meth:`~repro.engine.event.EventQueue.signature` (None when not
        parked).  Reads only; the checker's state fingerprint uses it."""
        thread = self.thread
        ops = thread.ops_executed if thread is not None else -1
        if self.parked_line is None:
            return ops, None
        reads, tests, _, resume, when, _, _ = self._replay(now)
        if resume == _ADVANCE:
            callback, nargs = self._advance, 1
        elif resume == _REQUEST:
            callback, nargs = self.controller.cpu_request, 2
        else:
            callback, nargs = self.controller._finish_local, 2
        return ops + reads + tests, (when - now, callback_label(callback), nargs)

    def describe_state(self) -> str:
        """One-line digest of a parked spin, for runaway diagnostics."""
        if self.parked_line is None:
            return ""
        tests = self._replay(self.sim.now)[1]
        return (
            f"P{self.node_id} parked on {self.parked_line:#x} "
            f"since t={self._parked_at} ({tests} tests skipped)"
        )


class _SkippedTests:
    """The tests one park skipped: ``count`` of them after the test that
    finished at ``after``, paused ``pause`` (then backing off)."""

    __slots__ = ("io", "hit", "max_pause", "after", "pause", "count")

    def __init__(
        self, processor: Processor, after: int, pause: int, count: int
    ) -> None:
        self.io = processor.issue_overhead
        self.hit = processor.controller.hierarchy.l1_hit_cycles
        self.max_pause = processor._spin.max_pause
        self.after = after
        self.pause = pause
        self.count = count

    def back(self) -> Iterator[list]:
        """The skipped tests, newest first, as history entries."""
        io, hit, max_pause = self.io, self.hit, self.max_pause
        issued = []
        finished, pause = self.after, self.pause
        # Back off to the steady pause (a handful of tests at most),
        # then every test is one period after the one before it.
        while len(issued) < self.count:
            if issued and (max_pause is None or pause == max_pause):
                break
            if issued and max_pause is not None:
                pause = min(pause * 2, max_pause)
            issued.append(finished + io + pause)
            finished = issued[-1] + io + hit
        steady = len(issued)
        period = 2 * io + hit + pause
        last = issued[-1]
        for k in range(self.count, steady, -1):
            at = last + (k - steady) * period
            yield [
                at, at - period + io + hit, None, None,
                at + io + hit, at + io, None,
            ]
        for k in range(steady - 1, -1, -1):
            at = issued[k]
            before = issued[k - 1] + io + hit if k else self.after
            yield [at, before, None, None, at + io + hit, at + io, None]


def _spin_owner(event: Event) -> Optional[Processor]:
    """The processor whose spin loop queued ``event``, if one did."""
    args = event.args
    if len(args) == 2 and type(args[0]) is Spin:
        return args[1].__self__
    owner = getattr(event.callback, "__self__", None)
    if (
        isinstance(owner, Processor)
        and owner._spin is not None
        and getattr(event.callback, "__func__", None) is Processor._advance
    ):
        return owner
    return None


def _fires_first(
    first: Processor,
    first_seq: Optional[int],
    second: Processor,
    second_seq: Optional[int],
    when: int,
) -> bool:
    """Does ``first``'s loop event due at ``when`` fire before
    ``second``'s?  Events due together fire in the order they were
    queued, and events queued in the same cycle in the order of the
    events that queued them: walk both loops back until they differ
    or reach two real events, whose seqs decide."""
    pairs = zip(
        first._events_back(when, first_seq),
        second._events_back(when, second_seq),
    )
    due = when
    for (time_a, queued_a, seq_a), (time_b, queued_b, seq_b) in pairs:
        if time_a != due or time_b != due:
            break  # one was queued by an event outside its loop
        if seq_a is not None and seq_b is not None:
            return seq_a < seq_b
        if queued_a != queued_b:
            return queued_a < queued_b
        due = queued_a
    return True
