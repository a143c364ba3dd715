"""Reciprocating lock (Dice & Kogan, "Reciprocating Locks", 2025).

A modern contention-tolerant software queue lock built from the same
:mod:`repro.sync.qcore` blocks as MCS/CLH — the proof that Golab's
splice/wait/signal decomposition expresses designs its author never saw.

The entire lock state is **one word** (``arrivals``):

* ``0`` — unlocked.
* ``LOCKED_EMPTY`` (1) — locked, no pending arrivals.
* otherwise — locked, pointing at the top of a LIFO *arrival stack* of
  waiter nodes (each node's splice returned its predecessor).

Arriving threads splice themselves onto the stack with a single swap
(the uncontended path is that one atomic, like test&set).  The holder
serves waiters in *segments*: when the current segment is exhausted it
detaches the whole pending stack with one swap and admits it top-first
— so admission within a segment is the **reverse** of arrival order,
and successive segments alternate against arrival order (the eponymous
palindromic, "reciprocating" schedule).  Every waiter is admitted
before any thread that arrived after the segment detached, which bounds
bypass at one segment — starvation-free, though deliberately not FIFO.

Hand-off conveys two values into the successor's node before opening
its gate:

* ``eos`` (end-of-segment boundary): the stack value the segment's
  bottom node spliced onto.  A holder whose splice predecessor equals
  the boundary is the segment's terminal holder.
* ``res`` (residue): what the detaching swap left in ``arrivals`` —
  the value the terminal holder must CAS back to ``0`` to free the
  lock, and the boundary of the *next* segment.

Node layout (one line per node, fields collocated so the three hand-off
stores ride one line transfer): ``gate`` (base), ``eos`` (base+4),
``res`` (base+8).  A thread keeps its splice predecessor and the
conveyed pair from acquire to release; its node is reusable
immediately after release (a released node is referenced by no live
chain — boundary values are compared, never dereferenced).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.mem.address import WORD_BYTES
from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE

#: ``arrivals`` states (node addresses are line-aligned, so never 0/1)
FREE = 0
LOCKED_EMPTY = 1

#: node field offsets
GATE_OFFSET = 0
EOS_OFFSET = WORD_BYTES
RES_OFFSET = 2 * WORD_BYTES

#: gate states
GATE_CLOSED = 0
GATE_OPEN = 1


class ReciprocatingLock(Lock):
    """Palindromic-admission queue lock; ``addr`` is the arrivals word."""

    name = "reciprocating"

    def __init__(self, arrivals_addr: int, nodes: Sequence[int]) -> None:
        super().__init__(arrivals_addr)
        if FREE in nodes or LOCKED_EMPTY in nodes:
            raise ValueError(
                "reciprocating node cannot live at a reserved address"
            )
        self.arrivals_addr = arrivals_addr
        self.nodes = list(nodes)
        #: tid -> (splice predecessor, eos, res), from acquire to release
        self._held: Dict[int, Tuple[int, int, int]] = {}
        self.pc_gate = synthetic_pc("recip.gate")

    @classmethod
    def lay_out(cls, system, n_threads: int) -> ReciprocatingLock:
        """The arrivals word, then one node line per thread."""
        layout = system.layout
        return cls(
            layout.alloc_line(),
            [layout.alloc_line() for _ in range(n_threads)],
        )

    def is_free(self, read_word) -> bool:
        return read_word(self.arrivals_addr) == FREE

    def acquire(self, tid: int):
        node_addr = self.nodes[tid]
        # Close our gate before the splice publishes the node.
        yield from qcore.signal(node_addr + GATE_OFFSET, GATE_CLOSED)
        pred = yield from qcore.splice_swap(self.arrivals_addr, node_addr)
        if pred == FREE:
            # Uncontended: our node stays spliced as the segment
            # boundary; nothing arrived before us, so we are our own
            # segment's terminal holder (eos == pred == FREE) and the
            # residue to clear at release is our own node.
            self._held[tid] = (pred, FREE, node_addr)
            return
        # Contended: wait for a holder to open our gate, then read the
        # conveyed segment pair off our own line.
        yield from qcore.wait_until(
            node_addr + GATE_OFFSET, GATE_OPEN, pc=self.pc_gate
        )
        eos = yield from qcore.read_once(node_addr + EOS_OFFSET)
        res = yield from qcore.read_once(node_addr + RES_OFFSET)
        self._held[tid] = (pred, eos, res)

    def _admit(self, succ: int, eos: int, res: int):
        """Convey the segment pair into ``succ``'s node, then open its
        gate — the ownership hand-off."""
        yield from qcore.signal(succ + EOS_OFFSET, eos)
        yield from qcore.signal(succ + RES_OFFSET, res)
        yield from qcore.signal(succ + GATE_OFFSET, GATE_OPEN)

    def release(self, tid: int):
        pred, eos, res = self._held.pop(tid)
        if pred != eos:
            # Mid-segment: reciprocate — admit the thread that arrived
            # immediately *before* us.
            yield from self._admit(pred, eos, res)
            return
        # Terminal holder of the segment: if nothing new arrived, one
        # CAS clears the residue and frees the lock.
        freed = yield from qcore.unsplice(
            self.arrivals_addr, res, "recip.release_cas"
        )
        if freed:
            return
        # New arrivals stacked up meanwhile: detach them all with one
        # swap (leaving LOCKED_EMPTY as the next residue) and admit the
        # stack top-first.  The detached segment's boundary is the old
        # residue — the value its bottom node spliced onto.
        top = yield from qcore.splice_swap(self.arrivals_addr, LOCKED_EMPTY)
        yield from self._admit(top, res, LOCKED_EMPTY)
