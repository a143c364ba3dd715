"""Lock prediction tables (paper §3.4).

Two small hardware tables drive IQOLB's speculation:

* :class:`LockPredictor` — indexed by the *instruction PC* of an LL.  An
  entry is trained to "lock" when a successful LL/SC to an address is
  followed, some time later, by a plain store to the *same* address (the
  release).  "Once a lock operation is seen, one can predict with high
  confidence that this will be true for all future executions of the
  code."  A per-entry accuracy counter detects the pathological case and
  turns the entry off.

* :class:`HeldLockTable` — tracks locks this processor currently holds
  (address + acquiring PC), so the release store is recognized quickly
  and writes to collocated or falsely-shared words are not misread as
  releases (the table is keyed by the exact word address).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.mem.address import AddressMap

#: PCs the lock predictor tracks; the least recently used goes first.
PREDICTOR_CAPACITY = 256
#: An entry whose accuracy drops below this is switched off...
DISABLE_THRESHOLD = 0.5
#: ...once it has seen at least this many outcomes.
MIN_SAMPLES = 4
#: Entries in each node's held-lock table.
HELD_CAPACITY = 8


class PredictorEntry:
    """Per-PC prediction state with a confidence shut-off."""

    __slots__ = ("is_lock", "correct", "wrong", "enabled")

    def __init__(self) -> None:
        self.is_lock = False
        self.correct = 0
        self.wrong = 0
        self.enabled = True


class LockPredictor:
    """PC-indexed lock/Fetch&Phi predictor."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[int, PredictorEntry]" = OrderedDict()

    def _entry(self, pc: int) -> PredictorEntry:
        entry = self._entries.get(pc)
        if entry is None:
            if len(self._entries) >= PREDICTOR_CAPACITY:
                self._entries.popitem(last=False)
            entry = PredictorEntry()
            self._entries[pc] = entry
        else:
            self._entries.move_to_end(pc)
        return entry

    def predict_lock(self, pc: int) -> bool:
        """Is the LL at ``pc`` believed to be a lock acquire?"""
        entry = self._entries.get(pc)
        return entry is not None and entry.enabled and entry.is_lock

    def train_lock(self, pc: int) -> None:
        """A release store confirmed the LL at ``pc`` acquires a lock."""
        entry = self._entry(pc)
        entry.is_lock = True
        entry.correct += 1

    def record_correct(self, pc: int) -> None:
        """A hold-until-release speculation paid off (released in time)."""
        entry = self._entries.get(pc)
        if entry is not None:
            entry.correct += 1

    def record_misprediction(self, pc: int) -> None:
        """The speculation for ``pc`` went wrong (e.g. timeout while held).

        After ``MIN_SAMPLES`` outcomes, entries whose accuracy drops below
        ``DISABLE_THRESHOLD`` are switched off ("the pathological case can
        be detected by determining the accuracy of prediction and turning
        the predictor off", paper §3.4).
        """
        entry = self._entries.get(pc)
        if entry is None:
            return
        entry.wrong += 1
        total = entry.correct + entry.wrong
        if total >= MIN_SAMPLES:
            accuracy = entry.correct / total
            if accuracy < DISABLE_THRESHOLD:
                entry.enabled = False

    def stats(self) -> Dict[str, int]:
        lock_entries = sum(1 for e in self._entries.values() if e.is_lock)
        disabled = sum(1 for e in self._entries.values() if not e.enabled)
        return {
            "entries": len(self._entries),
            "lock_entries": lock_entries,
            "disabled": disabled,
        }


class HeldLock:
    """One held-lock record: word address, acquiring PC, acquire time."""

    __slots__ = ("addr", "pc", "acquired_at", "timed_out")

    def __init__(self, addr: int, pc: int, acquired_at: int) -> None:
        self.addr = addr
        self.pc = pc
        self.acquired_at = acquired_at
        #: the deferral for this hold expired before the release store; a
        #: late release must not count as a successful speculation.
        self.timed_out = False


class HeldLockTable:
    """Small table of locks this processor currently holds.

    The table needs very few entries: speculation targets the lowest-level
    critical sections, and when a nested section enters a full table the
    oldest speculation is discarded (paper §3.3).
    """

    def __init__(self, amap: AddressMap) -> None:
        self.amap = amap
        self._by_addr: "OrderedDict[int, HeldLock]" = OrderedDict()

    def insert(self, addr: int, pc: int, now: int) -> Optional[HeldLock]:
        """Record a held lock; returns any entry discarded for capacity."""
        discarded: Optional[HeldLock] = None
        self._by_addr.pop(addr, None)
        if len(self._by_addr) >= HELD_CAPACITY:
            oldest_addr = next(iter(self._by_addr))
            discarded = self._by_addr.pop(oldest_addr)
        self._by_addr[addr] = HeldLock(addr, pc, now)
        return discarded

    def release(self, addr: int) -> Optional[HeldLock]:
        """A store to ``addr`` completed; pop and return the entry."""
        return self._by_addr.pop(addr, None)

    def most_recent(self) -> Optional[HeldLock]:
        """The most recently inserted held lock, or None."""
        if not self._by_addr:
            return None
        return next(reversed(self._by_addr.values()))

    def lookup_line(self, line_addr: int) -> Optional[HeldLock]:
        """Return a held entry living in this line, if any."""
        for entry in self._by_addr.values():
            if self.amap.line_addr(entry.addr) == line_addr:
                return entry
        return None

    def __len__(self) -> int:
        return len(self._by_addr)
