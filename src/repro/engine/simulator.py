"""The discrete-event simulation kernel.

Every hardware component in the simulated multiprocessor (bus, crossbar,
caches, memory, processors) schedules work on a single shared
:class:`Simulator`.  Time is measured in processor cycles, matching the
paper's Table 1 which expresses all latencies in processor cycles.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.engine.event import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or runaway state."""


class Simulator:
    """Owns the clock and the event queue.

    The kernel is intentionally minimal: components interact only through
    scheduled callbacks, which keeps the global event order (and therefore
    the simulated coherence order) fully deterministic.

    Two optional hooks open the kernel up to the protocol checker without
    costing the common path anything:

    * ``tie_breaker`` — called with the list of live events tied for the
      head of the queue (due in the same cycle) whenever that list has
      more than one entry; returns the index of the event to fire.  Their
      relative order is pure scheduling accident, so any choice is a legal
      hardware outcome — permuting it is how ``repro.check`` enumerates
      interleavings.
    * ``on_step`` — called after every fired event, for invariant oracles.

    ``diagnostic_providers`` is a list of zero-argument callables returning
    strings; their output is appended to the runaway ``SimulationError``
    so a max-cycles overrun reports *what* was stuck, not just when.

    ``sleepers`` counts components that parked a loop instead of
    scheduling it (a processor spinning on an unchanged L1 line) and
    rely on another event to wake them; ``events_skipped`` counts the
    events their loops would have fired.  A queue that drains while a
    sleeper is parked is the runaway the loop would have hit at
    ``max_cycles``, and raises the same error.  ``woken_until`` is the
    latest time an event a wake queued is due.

    With no hook installed, :meth:`run` drains the queue through a
    batched loop (:meth:`_run_fast`); with either hook it takes the
    per-event loop (:meth:`_run_generic`).  Both fire the same events in
    the same order, and ``tests/test_engine_fastpath.py`` holds them to it.
    """

    def __init__(self, max_cycles: int = 1_000_000_000) -> None:
        self.now = 0
        self.max_cycles = max_cycles
        self._queue = EventQueue()
        self._events_fired = 0
        self.tie_breaker: Optional[Callable[[Sequence[Event]], int]] = None
        self.on_step: Optional[Callable[[], None]] = None
        #: the event currently (or most recently) being fired — lets the
        #: checker's ``on_step`` hook inspect what just executed (e.g. to
        #: wake sleep-set entries that conflict with it).
        self.last_event: Optional[Event] = None
        self.diagnostic_providers: List[Callable[[], str]] = []
        self.sleepers = 0
        self.events_skipped = 0
        #: the latest time a woken loop's event is due
        self.woken_until = -1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events fire later in the
        current cycle, after all previously scheduled events for this cycle.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self._queue.push(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel an event previously returned by ``schedule``."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_event(self) -> Optional[Event]:
        """Pop the next event, consulting the tie-break hook if set."""
        if self.tie_breaker is None:
            return self._queue.pop()
        ties = self._queue.candidates()
        if not ties:
            return None
        if len(ties) == 1:
            return self._queue.pop()
        choice = self.tie_breaker(ties)
        return self._queue.extract(ties[choice])

    def _runaway_error(self) -> SimulationError:
        """Build the max-cycles overrun error, with stuck-state detail."""
        if self._queue or not self.sleepers:
            headline = (
                f"simulation exceeded max_cycles={self.max_cycles} "
                f"(possible livelock) at t={self.now} "
                f"after {self._events_fired} events"
            )
        else:
            headline = (
                f"simulation would exceed max_cycles={self.max_cycles} "
                f"(possible livelock): the queue drained at t={self.now} "
                f"after {self._events_fired} events with {self.sleepers} "
                f"parked loop(s) nothing can wake"
            )
        parts = [headline, self._queue.summarize()]
        for provider in self.diagnostic_providers:
            try:
                text = provider()
            except Exception as exc:  # diagnostics must never mask the error
                text = f"<diagnostic provider failed: {exc!r}>"
            if text:
                parts.append(text)
        return SimulationError("\n".join(parts))

    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drain the event queue; return the final simulated time.

        ``until``, when provided, is evaluated after every event and stops
        the run early once it returns True.  A :class:`SimulationError` is
        raised if the clock passes ``max_cycles`` — the runaway guard that
        turns livelock (a real phenomenon for the aggressive-baseline
        protocol) into a detectable outcome instead of a hang.
        """
        if self.tie_breaker is None and self.on_step is None:
            self._run_fast(until)
        else:
            self._run_generic(until)
        if self.sleepers and not self._queue and (until is None or not until()):
            raise self._runaway_error()
        return self.now

    def _run_generic(self, until: Optional[Callable[[], bool]]) -> None:
        """The hook-capable drain loop (the checker and invariant oracles)."""
        while self._queue:
            # Guard before popping so the offending event is still in
            # the queue when the error summarizes it.
            next_time = self._queue.peek_time()
            if next_time is not None and next_time > self.max_cycles:
                raise self._runaway_error()
            event = self._next_event()
            if event is None:
                break
            self.now = event.time
            self._events_fired += 1
            self.last_event = event
            event.callback(*event.args)
            if self.on_step is not None:
                self.on_step()
            if until is not None and until():
                break

    def _run_fast(self, until: Optional[Callable[[], bool]]) -> None:
        """Batched drain over the calendar buckets (no hooks installed).

        Fires exactly the same events in exactly the same order as
        :meth:`_run_generic`; the difference is mechanical — whole
        same-cycle buckets are walked inline with hot state in locals,
        and the events-fired tally is folded back once per run instead
        of per event.
        """
        queue = self._queue
        head = queue._head
        max_cycles = self.max_cycles
        fired = self._events_fired
        try:
            while True:
                event = head()
                if event is None:
                    break
                bucket_time = queue._head_time
                # One guard per bucket == one guard per event time; raise
                # before consuming so the events are still in the queue
                # when the error summarizes them.
                if bucket_time > max_cycles:
                    raise self._runaway_error()
                self.now = bucket_time
                bucket = queue._head_bucket
                pos = queue._head_pos
                n = len(bucket)
                while pos < n:
                    event = bucket[pos]
                    pos += 1
                    if event.cancelled:
                        continue
                    queue._head_pos = pos
                    queue._live -= 1
                    fired += 1
                    self.last_event = event
                    event.callback(*event.args)
                    if until is not None and until():
                        return
                    n = len(bucket)
                queue._head_pos = pos
        finally:
            self._events_fired = fired

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def queue_high_water(self) -> int:
        """The deepest the event queue has ever been.

        Tracked inside the queue's ``push`` as a single integer compare,
        so it costs nothing measurable per event and stays on even when
        no telemetry sinks are attached.
        """
        return self._queue.high_water
