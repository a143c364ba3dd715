"""Anderson's array-based queue lock (paper §2 related work, ref [3]).

T. E. Anderson, "The Performance of Spin Lock Alternatives for
Shared-Memory Multiprocessors", IEEE TPDS 1(1), 1990.

In the :mod:`repro.sync.qcore` decomposition, Anderson's lock is the
*counting* splice (fetch&increment on a tail counter, the ticket taken
modulo the slot count) with the wait block pointed at a ticket-indexed
slot word and a two-store signal: reset your slot for its next
wrap-around use, then open the next slot.  Each slot lives in its own
cache line so waiters spin without interfering — the software ancestor
of the hardware queues this paper builds.

The slot array must have at least as many slots as there are concurrent
contenders (threads), as in Anderson's original design.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: slot flag values
HAS_LOCK = 1
MUST_WAIT = 0


class AndersonLock(Lock):
    """Array-based queue lock.

    ``tail_addr`` holds the next free slot index; ``slot_addrs`` are the
    per-slot flag words (one cache line each).  Slot 0 starts at
    ``HAS_LOCK`` (the lock starts free), which :meth:`lay_out` writes
    to memory.  A thread keeps its slot index from acquire to release.
    """

    name = "anderson"

    def __init__(self, tail_addr: int, slot_addrs: List[int]) -> None:
        super().__init__(tail_addr)
        if len(slot_addrs) < 2:
            raise ValueError("Anderson lock needs at least two slots")
        self.tail_addr = tail_addr
        self.slot_addrs = slot_addrs
        self.n_slots = len(slot_addrs)
        #: tid -> the slot it holds the lock in, until its release
        self._slots: Dict[int, int] = {}
        self.pc_spin = synthetic_pc("anderson.spin")

    @classmethod
    def lay_out(cls, system, n_threads: int) -> AndersonLock:
        """The tail word, then one slot line per thread (two at least)."""
        layout = system.layout
        lock = cls(
            layout.alloc_line(),
            [layout.alloc_line() for _ in range(max(2, n_threads))],
        )
        system.write_word(lock.slot_addrs[0], HAS_LOCK)
        for addr in lock.slot_addrs[1:]:
            system.write_word(addr, MUST_WAIT)
        system.write_word(lock.tail_addr, 0)
        return lock

    def is_free(self, read_word) -> bool:
        slot = read_word(self.tail_addr) % self.n_slots
        return read_word(self.slot_addrs[slot]) == HAS_LOCK

    def acquire(self, tid: int):
        ticket = yield from qcore.splice_count(self.tail_addr, "anderson.grab")
        slot = ticket % self.n_slots
        yield from qcore.wait_until(
            self.slot_addrs[slot], HAS_LOCK, pc=self.pc_spin
        )
        self._slots[tid] = slot

    def release(self, tid: int):
        slot = self._slots.pop(tid)
        # Reset our slot for its next wrap-around use, then pass the
        # lock to the next slot.
        yield from qcore.signal(self.slot_addrs[slot], MUST_WAIT)
        yield from qcore.signal(
            self.slot_addrs[(slot + 1) % self.n_slots], HAS_LOCK
        )
