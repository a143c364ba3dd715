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

from typing import List

from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: slot flag values
HAS_LOCK = 1
MUST_WAIT = 0


class AndersonLock(Lock):
    """Array-based queue lock.

    ``tail_addr`` holds the next free slot index; ``slot_addrs`` are the
    per-slot flag words (one cache line each).  Slot 0 must be
    initialised to ``HAS_LOCK`` (the lock starts free); the system
    builder or caller does that with ``initialise``.
    """

    name = "anderson"

    def __init__(self, tail_addr: int, slot_addrs: List[int]) -> None:
        super().__init__(tail_addr)
        if len(slot_addrs) < 2:
            raise ValueError("Anderson lock needs at least two slots")
        self.tail_addr = tail_addr
        self.slot_addrs = slot_addrs
        self.n_slots = len(slot_addrs)
        self.pc_spin = synthetic_pc("anderson.spin")

    def initialise(self, write_word) -> None:
        """Set up initial memory state (slot 0 holds the lock)."""
        write_word(self.slot_addrs[0], HAS_LOCK)
        for addr in self.slot_addrs[1:]:
            write_word(addr, MUST_WAIT)
        write_word(self.tail_addr, 0)

    def is_free(self, read_word) -> bool:
        slot = read_word(self.tail_addr) % self.n_slots
        return read_word(self.slot_addrs[slot]) == HAS_LOCK

    def acquire_slot(self):
        """Generator: acquire; returns the slot index (keep for release)."""
        ticket = yield from qcore.splice_count(self.tail_addr, "anderson.grab")
        slot = ticket % self.n_slots
        yield from qcore.wait_until(
            self.slot_addrs[slot], HAS_LOCK, pc=self.pc_spin
        )
        return slot

    def release_slot(self, slot: int):
        """Generator: release from the given slot."""
        # Reset our slot for its next wrap-around use, then pass the
        # lock to the next slot.
        yield from qcore.signal(self.slot_addrs[slot], MUST_WAIT)
        yield from qcore.signal(
            self.slot_addrs[(slot + 1) % self.n_slots], HAS_LOCK
        )
