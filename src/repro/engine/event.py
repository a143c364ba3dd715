"""Event primitives for the discrete-event simulation kernel.

Events are ordered by (time, sequence). The sequence number makes ordering
total and deterministic: two events scheduled for the same cycle fire in the
order they were scheduled.
"""

from __future__ import annotations

import heapq
from sys import intern as _intern
from typing import Callable, Dict, Iterator, List, Optional


def _brief(value: object, width: int = 32) -> str:
    """Clip an argument repr so queue digests stay one line per event."""
    text = repr(value)
    if len(text) > width:
        text = text[: width - 3] + "..."
    return text


#: interned callback labels, keyed by the callback's code object.  Bound
#: methods of different instances and closures minted repeatedly from the
#: same ``lambda`` all share one code object, so the cache stays small
#: while the hot paths (footprints, signatures, digests) get one interned
#: string per call site instead of a fresh ``__qualname__`` fetch.
_LABEL_CACHE: Dict[object, str] = {}


def callback_label(callback: Callable[..., None]) -> str:
    """The callback's ``__qualname__``, interned and cached.

    Returns exactly what ``getattr(callback, "__qualname__", "")`` would,
    so checker fingerprints built from labels are unchanged; the payoff
    is identity-comparable strings and no attribute walk per event.
    """
    func = getattr(callback, "__func__", callback)
    code = getattr(func, "__code__", None)
    if code is None:
        return getattr(callback, "__qualname__", "")
    label = _LABEL_CACHE.get(code)
    if label is None:
        label = _intern(getattr(callback, "__qualname__", ""))
        _LABEL_CACHE[code] = label
    return label


class Event:
    """A single scheduled callback.

    Cancellation goes through :meth:`EventQueue.cancel`: a cancelled
    event stays in its calendar bucket but is skipped when the bucket
    drains.  This is O(1) cancellation at the cost of a little bucket
    garbage, which the kernel tolerates happily.
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "args",
        "cancelled",
        "born",
        "_footprint",
    )

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        born: int = -1,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: the cycle it was queued in (-1 before the first event fired)
        self.born = born
        self._footprint: Optional[tuple] = None

    def footprint(self) -> tuple:
        """Conflict metadata ``(node, addrs, label)`` for the checker.

        The model checker's independence relation needs to know, for two
        events tied at the head of the queue, whether their firing order
        can matter.  The footprint is a best-effort static summary:

        * ``node`` — the ``node_id`` of the bound-method owner (a cache
          controller or processor), or ``None`` when the event belongs to
          a shared component (bus, crossbar, directory) or a free
          function.  ``None`` means "touches shared state": the checker
          must treat the event as conflicting with everything.
        * ``addrs`` — addresses mentioned by the arguments: ``line_addr``
          attributes (interconnect messages, directory transactions) and
          ``addr`` attributes (CPU ops).  An empty tuple means the
          footprint is unknown, which the checker also treats
          conservatively.
        * ``label`` — the callback's qualified name, used to tell apart
          distinct transitions that happen to share node and addresses.

        The result is cached: footprints are immutable once scheduled.
        """
        if self._footprint is None:
            owner = getattr(self.callback, "__self__", None)
            node = getattr(owner, "node_id", None) if owner is not None else None
            addrs: List[int] = []
            for arg in self.args:
                line = getattr(arg, "line_addr", None)
                if isinstance(line, int):
                    addrs.append(line)
                    continue
                addr = getattr(arg, "addr", None)
                if isinstance(addr, int):
                    addrs.append(addr)
            label = callback_label(self.callback)
            self._footprint = (node, tuple(addrs), label)
        return self._footprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} #{self.seq}{state}>"


class EventQueue:
    """The kernel's deterministic bucketed (calendar) scheduler.

    Events land in per-cycle buckets keyed by absolute firing time; a
    small min-heap orders only the *distinct* times.  Draining a cycle is
    then a list walk, with no per-event re-heapify and no per-event
    ``(time, seq)`` tuple comparisons.

    Ordering contract:

    * events fire in ``(time, seq)`` order.  A bucket is kept in push
      order, which is seq order, so it never needs sorting; a push into
      the head bucket mid-drain simply lands at the end of its tail.
    * ``candidates()`` / ``extract()`` / ``signature()`` / ``summarize()``
      observe the live (pushed, not fired, not cancelled) events only.

    ``tests/test_engine_fastpath.py`` holds the queue to this contract
    against a sorted-list model keyed on ``(time, seq)``.

    The kernel's fast loop reaches into ``_head_bucket``/``_head_pos``
    directly to drain same-cycle batches; it lives in
    :mod:`repro.engine.simulator` and evolves with this class.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Event]] = {}
        self._times: List[int] = []
        self._seq = 0
        self._live = 0
        self.high_water = 0
        self._head_time = -1
        self._head_bucket: Optional[List[Event]] = None
        self._head_pos = 0

    def push(
        self,
        time: int,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        event = Event(time, self._seq, callback, args, self._head_time)
        self._seq += 1
        live = self._live + 1
        self._live = live
        if live > self.high_water:
            self.high_water = live
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def push_before(
        self,
        ahead_of: Event,
        callback: Callable[..., None],
        args: tuple,
        born: int,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire just before the pending
        ``ahead_of``, at its time, as if queued in cycle ``born``.

        For a caller that knows the event would have been queued earlier
        than ``ahead_of`` (a parked loop's next event, queued only when
        the loop wakes).  Its seq falls between its neighbours', so
        ``candidates()`` keeps bucket order.
        """
        bucket = self._buckets[ahead_of.time]
        pos = next(i for i, event in enumerate(bucket) if event is ahead_of)
        before = bucket[pos - 1].seq if pos else ahead_of.seq - 1
        event = Event(
            ahead_of.time,
            (before + ahead_of.seq) / 2,
            callback,
            args,
            born,
        )
        bucket.insert(pos, event)
        live = self._live + 1
        self._live = live
        if live > self.high_water:
            self.high_water = live
        return event

    def _promote(self) -> Optional[List[Event]]:
        """Make the earliest pending bucket the head bucket."""
        while self._times:
            time = heapq.heappop(self._times)
            bucket = self._buckets.get(time)
            if bucket is None:
                continue
            self._head_time = time
            self._head_bucket = bucket
            self._head_pos = 0
            return bucket
        return None

    def _demote_head(self) -> None:
        """Return the (partially drained) head bucket to the calendar.

        Only needed in the rare case where an earlier bucket appears
        while a head bucket is current: external code peeked (promoting
        the bucket at time T) and then scheduled at a time < T before
        the kernel advanced to T.
        """
        time = self._head_time
        rest = self._head_bucket[self._head_pos :]
        if rest:
            self._buckets[time] = rest
            heapq.heappush(self._times, time)
        else:
            del self._buckets[time]
        self._head_bucket = None
        self._head_time = -1
        self._head_pos = 0

    def _head(self) -> Optional[Event]:
        """The next live event, leaving it in place (None when empty).

        On return, ``_head_bucket[_head_pos]`` is the returned event.
        """
        while True:
            bucket = self._head_bucket
            if bucket is not None:
                times = self._times
                if times and times[0] < self._head_time:
                    self._demote_head()
                    continue
                pos = self._head_pos
                n = len(bucket)
                while pos < n:
                    event = bucket[pos]
                    if not event.cancelled:
                        self._head_pos = pos
                        return event
                    pos += 1
                # Bucket exhausted (possibly by trailing cancellations).
                del self._buckets[self._head_time]
                self._head_bucket = None
                self._head_time = -1
                self._head_pos = 0
            if self._promote() is None:
                return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        event = self._head()
        if event is None:
            return None
        self._head_pos += 1
        self._live -= 1
        return event

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event without popping it."""
        event = self._head()
        return None if event is None else event.time

    def candidates(self) -> List[Event]:
        """Every live event due in the head cycle.

        That is exactly the set whose relative order is decided only by
        scheduling sequence, i.e. the same-cycle tie-breaking a model
        checker may legally permute.  Returned in sequence order (the
        default firing order), deterministically.
        """
        if self._head() is None:
            return []
        return [e for e in self._head_bucket[self._head_pos :] if not e.cancelled]

    def extract(self, event: Event) -> Event:
        """Remove a specific live event so the caller can fire it."""
        if event.cancelled:
            raise ValueError(f"cannot extract dead event {event!r}")
        event.cancelled = True
        self._live -= 1
        return event

    def _iter_pending(self) -> Iterator[Event]:
        """All not-yet-fired events (live and cancelled), unordered."""
        head_bucket = self._head_bucket
        if head_bucket is not None:
            yield from head_bucket[self._head_pos :]
        for bucket in self._buckets.values():
            if bucket is head_bucket:
                continue
            yield from bucket

    def signature(self, now: int) -> tuple:
        """A hashable digest of the live queue, relative to ``now``.

        Part of the model checker's state fingerprint: two simulations
        whose pending work has the same shape (same callbacks at the same
        relative offsets) are exploring the same future.
        """
        return tuple(
            sorted(
                (
                    event.time - now,
                    callback_label(event.callback),
                    len(event.args),
                )
                for event in self._iter_pending()
                if not event.cancelled
            )
        )

    def summarize(self, limit: int = 8) -> str:
        """A human-readable digest of the pending events (diagnostics)."""
        live = sorted(
            (event for event in self._iter_pending() if not event.cancelled),
            key=lambda event: (event.time, event.seq),
        )
        lines = [f"{self._live} pending event(s)"]
        for event in live[:limit]:
            callback = event.callback
            name = getattr(callback, "__qualname__", repr(callback))
            args = ", ".join(_brief(arg) for arg in event.args)
            lines.append(f"  t={event.time} {name}({args})")
        if len(live) > limit:
            lines.append(f"  ... and {len(live) - limit} more")
        return "\n".join(lines)

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
