"""The CLH queue lock (Craig; Landin & Hagersten).

A list-based queue lock like MCS but with the *wait* block pointed at
the **predecessor's** node: acquire is a pointer splice on the tail plus
a wait until the predecessor's flag clears; release is a single signal
on the thread's *own* node (no successor lookup at all — the successor
is already watching).  In Golab's decomposition the whole MCS/CLH split
is exactly this choice of wait location plus MCS's extra link/signal
pair.  Included, with MCS and Anderson, to place the paper's hardware
queues against the full software-queue landscape.

Node management: each thread owns a node and inherits its predecessor's
on release (the classic recycling trick): ``nodes[tid]`` is the node
thread ``tid`` queues with next, swapped for its predecessor's at every
acquire.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: node flag values
PENDING = 1   # holder or waiter: successors must wait
GRANTED = 0   # released: successor may proceed


class ClhLock(Lock):
    """CLH list-based queue lock; ``addr`` is the tail pointer word.

    The tail starts at a dummy node whose flag is GRANTED, which
    :meth:`lay_out` writes to memory.
    """

    name = "clh"

    def __init__(
        self, tail_addr: int, dummy_node: int, nodes: Sequence[int] = ()
    ) -> None:
        super().__init__(tail_addr)
        if 0 in nodes:
            raise ValueError("CLH node cannot live at address 0")
        self.tail_addr = tail_addr
        self.dummy_node = dummy_node
        self.nodes = list(nodes)
        #: tid -> the node it holds the lock with, until its release
        self._held: Dict[int, int] = {}
        self.pc_spin = synthetic_pc("clh.spin")

    @classmethod
    def lay_out(cls, system, n_threads: int) -> ClhLock:
        layout = system.layout
        lock = cls(layout.alloc_line(), layout.alloc_line())
        system.write_word(lock.dummy_node, GRANTED)
        system.write_word(lock.tail_addr, lock.dummy_node)
        return lock

    def lay_out_nodes(self, system, n_threads: int) -> None:
        self.nodes = [system.layout.alloc_line() for _ in range(n_threads)]

    def is_free(self, read_word) -> bool:
        return read_word(read_word(self.tail_addr)) == GRANTED

    def acquire(self, tid: int):
        node_addr = self.nodes[tid]
        yield from qcore.signal(node_addr, PENDING)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node_addr)
        yield from qcore.wait_until(predecessor, GRANTED, pc=self.pc_spin)
        self._held[tid] = node_addr
        self.nodes[tid] = predecessor  # recycle the predecessor's node

    def release(self, tid: int):
        yield from qcore.signal(self._held.pop(tid), GRANTED)
