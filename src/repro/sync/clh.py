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
on release (the classic recycling trick), implemented here with a
per-thread "my node" register kept in the generator's locals.
"""

from __future__ import annotations

from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: node flag values
PENDING = 1   # holder or waiter: successors must wait
GRANTED = 0   # released: successor may proceed


class ClhLock(Lock):
    """CLH list-based queue lock; ``addr`` is the tail pointer word.

    The tail must be initialised to a dummy node whose flag is GRANTED
    (``initialise``).  ``acquire_with(node)`` returns the *new* node the
    thread owns afterwards (its predecessor's), which it must pass to the
    next ``acquire_with`` — the recycling protocol.
    """

    name = "clh"

    def __init__(self, tail_addr: int, dummy_node: int) -> None:
        super().__init__(tail_addr)
        self.tail_addr = tail_addr
        self.dummy_node = dummy_node
        self.pc_spin = synthetic_pc("clh.spin")

    def initialise(self, write_word) -> None:
        write_word(self.dummy_node, GRANTED)
        write_word(self.tail_addr, self.dummy_node)

    def is_free(self, read_word) -> bool:
        return read_word(read_word(self.tail_addr)) == GRANTED

    def acquire_with(self, node_addr: int):
        """Generator: acquire using ``node_addr``; returns (held_node,
        predecessor_node) — release with these, then reuse
        ``predecessor_node`` for the next acquire."""
        if node_addr == 0:
            raise ValueError("CLH node cannot live at address 0")
        yield from qcore.signal(node_addr, PENDING)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node_addr)
        yield from qcore.wait_until(predecessor, GRANTED, pc=self.pc_spin)
        return node_addr, predecessor

    def release_with(self, held_node: int):
        """Generator: release the lock held via ``held_node``."""
        yield from qcore.signal(held_node, GRANTED)
