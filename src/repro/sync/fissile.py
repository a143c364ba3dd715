"""Fissile lock (Dice & Kogan, "Fissile Locks", NETYS 2020).

A composite primitive on the :mod:`repro.sync.qcore` substrate: a plain
test&set word (the *inner* lock, which is the actual mutual exclusion)
fronted by an MCS-style *outer* queue that throttles who may spin on it.

* **Fast path**: an arriving thread makes a small bounded number of
  ``grab`` attempts on the inner word.  Under no/light contention the
  lock behaves like test&set — one atomic, no queue traffic at all.
* **Slow path**: after the bounded barging budget is spent, the thread
  splices onto the outer queue and waits on its own node.  Only the
  *head* of the outer queue spins on the inner word, so at most the
  head plus a bounded number of bargers ever contend on the hot line —
  the "anti-collapse" property that prevents the test&set invalidation
  storm the paper's taxonomy charges to centralized spinning.
* **Anti-collapse hand-off**: the head, having won the inner lock,
  promotes its successor to head *before* entering the critical
  section, so the next waiter is already in position to take the inner
  lock the moment it is released.

Release is a single store clearing the inner word, whoever wins next.
Fairness is long-term (bounded bypass via the bounded fast path), not
FIFO.  The outer queue reuses the MCS node layout (``flag``/``next``),
one node per thread; release touches no node.
"""

from __future__ import annotations

from typing import Sequence

from repro.sync import qcore
from repro.sync.mcs import FLAG_OFFSET, NEXT_OFFSET
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: bounded barging: inner-lock attempts before joining the outer queue
FAST_ATTEMPTS = 2

#: inner word states
UNLOCKED = 0
LOCKED = 1


class FissileLock(Lock):
    """Test&set inner lock behind an MCS-style anti-collapse queue.

    ``inner_addr`` is the test&set word; ``tail_addr`` the outer-queue
    tail pointer (separate lines).  Queue nodes use the MCS layout and,
    as with MCS, must never live at address 0.
    """

    name = "fissile"

    def __init__(self, inner_addr: int, tail_addr: int,
                 nodes: Sequence[int], max_backoff: int = 256) -> None:
        super().__init__(inner_addr)
        if 0 in nodes:
            raise ValueError("fissile node cannot live at address 0")
        self.inner_addr = inner_addr
        self.tail_addr = tail_addr
        self.nodes = list(nodes)
        self.max_backoff = max_backoff
        self.pc_fast = synthetic_pc("fissile.fast")
        self.pc_queue = synthetic_pc("fissile.queue")
        self.pc_head = synthetic_pc("fissile.head")
        self.pc_release = synthetic_pc("fissile.release")

    @classmethod
    def lay_out(cls, system, n_threads: int) -> FissileLock:
        """The inner word, the tail word, then one node line per thread."""
        layout = system.layout
        return cls(
            layout.alloc_line(),
            layout.alloc_line(),
            [layout.alloc_line() for _ in range(n_threads)],
        )

    def is_free(self, read_word) -> bool:
        return (
            read_word(self.inner_addr) == UNLOCKED
            and read_word(self.tail_addr) == 0
        )

    def acquire(self, tid: int):
        """Generator: acquire; thread ``tid``'s node is only touched on
        the slow path and is free for reuse once this generator returns."""
        node_addr = self.nodes[tid]
        # Fast path: bounded barging on the inner word.
        backoff = SPIN_PAUSE
        for _attempt in range(FAST_ATTEMPTS):
            old = yield from qcore.grab(self.inner_addr, pc=self.pc_fast)
            if old == UNLOCKED:
                return
            yield from qcore.pause(backoff)
            backoff = min(backoff * 2, self.max_backoff)
        # Slow path: splice onto the outer queue, wait to become head.
        yield from qcore.signal(node_addr + NEXT_OFFSET, 0)
        yield from qcore.signal(node_addr + FLAG_OFFSET, 0)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node_addr)
        if predecessor != 0:
            yield from qcore.signal(predecessor + NEXT_OFFSET, node_addr)
            yield from qcore.wait_until(
                node_addr + FLAG_OFFSET, qcore.nonzero, pc=self.pc_queue
            )
        # Head of the outer queue: test-and-test&set on the inner word,
        # the test a wait_until like every other waiter's.
        while True:
            yield from qcore.wait_until(
                self.inner_addr, UNLOCKED, pc=self.pc_head
            )
            old = yield from qcore.grab(self.inner_addr, pc=self.pc_head)
            if old == UNLOCKED:
                break
            yield from qcore.pause(SPIN_PAUSE)
        # Anti-collapse hand-off: promote the successor to head before
        # entering the critical section.
        yield from self._promote_successor(node_addr)

    def _promote_successor(self, node_addr: int):
        """MCS-style release of the *outer* queue position: the next
        waiter becomes head and starts contending on the inner word."""
        next_node = yield from qcore.read_once(node_addr + NEXT_OFFSET)
        if next_node == 0:
            swapped = yield from qcore.unsplice(
                self.tail_addr, node_addr, pc_label="fissile.promote_cas"
            )
            if swapped:
                return
            next_node = yield from qcore.wait_until(
                node_addr + NEXT_OFFSET, qcore.nonzero
            )
        yield from qcore.signal(next_node + FLAG_OFFSET, 1)

    def release(self, tid: int = 0):
        """Generator: release — one store clearing the inner word."""
        yield from qcore.signal(
            self.inner_addr, UNLOCKED, pc=self.pc_release
        )
