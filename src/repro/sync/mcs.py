"""MCS queue lock (paper §2 related work: Mellor-Crummey & Scott).

The classic software queue lock, expressed as a composition over the
:mod:`repro.sync.qcore` building blocks: a pointer *splice* on the tail,
a *wait* on a flag in the thread's *own* node (so waiting generates no
traffic on the lock word), and a *signal* store opening the successor's
flag.  This is the software analogue of what QOLB/IQOLB build in
hardware, included for the wider primitive comparison benches.

Addressing: nodes are identified by their base address; ``0`` means nil,
so a node must never live at address 0.  Each node occupies two words:
``flag`` (base) and ``next`` (base + 4), on a line of its own so
spinners do not falsely share.  Thread ``tid`` queues with node
``nodes[tid]``, laid out by :meth:`McsLock.lay_out_nodes`.
"""

from __future__ import annotations

from typing import Sequence

from repro.mem.address import WORD_BYTES
from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

FLAG_OFFSET = 0
NEXT_OFFSET = WORD_BYTES


class McsLock(Lock):
    """MCS list-based queue lock; ``addr`` is the tail pointer word."""

    name = "mcs"

    def __init__(self, tail_addr: int, nodes: Sequence[int] = ()) -> None:
        super().__init__(tail_addr)
        if 0 in nodes:
            raise ValueError("MCS node cannot live at address 0")
        self.tail_addr = tail_addr
        self.nodes = list(nodes)
        self.pc_spin = synthetic_pc("mcs.spin")

    def lay_out_nodes(self, system, n_threads: int) -> None:
        self.nodes = [system.layout.alloc_line() for _ in range(n_threads)]

    def acquire(self, tid: int):
        node_addr = self.nodes[tid]
        yield from qcore.signal(node_addr + NEXT_OFFSET, 0)
        yield from qcore.signal(node_addr + FLAG_OFFSET, 0)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node_addr)
        if predecessor == 0:
            return
        # Link into the predecessor's node, then wait on our *own* flag.
        yield from qcore.signal(predecessor + NEXT_OFFSET, node_addr)
        yield from qcore.wait_until(
            node_addr + FLAG_OFFSET, qcore.nonzero, pc=self.pc_spin
        )

    def release(self, tid: int):
        node_addr = self.nodes[tid]
        next_node = yield from qcore.read_once(node_addr + NEXT_OFFSET)
        if next_node == 0:
            swapped = yield from qcore.unsplice(
                self.tail_addr, node_addr, pc_label="mcs.release_cas"
            )
            if swapped:
                return
            # A successor is mid-enqueue: wait for it to link in.
            next_node = yield from qcore.wait_until(
                node_addr + NEXT_OFFSET, qcore.nonzero
            )
        yield from qcore.signal(next_node + FLAG_OFFSET, 1)
