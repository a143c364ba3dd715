"""Explicit QOLB (paper §2, the comparison point).

QOLB [Goodman, Vernon & Woest 1989] keeps a hardware queue of processors
waiting on a lock, driven by *explicit* EnQOLB/DeQOLB instructions:

* ``EnQOLB`` allocates local (shadow) space and requests the lock line,
  or joins the queue if the lock is held; waiters spin on the local
  shadow copy with zero network traffic;
* ``DeQOLB`` releases: the lock line travels to the next queued processor
  in a single message.

Here the same distributed-queue/deferral machinery that implements IQOLB
implements QOLB — the difference is that deferral and release are
commanded by the instructions instead of inferred by prediction, which is
exactly the paper's framing (IQOLB = QOLB's benefits without the software
and ISA support).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.policy import SUPPLY_NOW, DeferDecision, ProtocolPolicy
from repro.cpu.ops import Op
from repro.interconnect.messages import BusOp, BusTransaction
from repro.mem.line import CacheLine


class QolbPolicy(ProtocolPolicy):
    """Hardware queue-based locking with explicit enqueue/dequeue."""

    name = "qolb"
    #: the explicit queue hands the lock over in EnQOLB order
    fifo_handoff = True
    promises_progress = True
    #: QOLB needs no speculative timer: releases are explicit.  (Evictions
    #: still hand the line to the successor, as for every scheme.)
    timeout_cycles: Optional[int] = None

    def __init__(self) -> None:
        super().__init__()
        #: word addresses of locks this node currently holds
        self.held_words: Set[int] = set()
        #: line addresses covering held locks
        self.held_lines: Set[int] = set()

    # Plain LL/SC under the QOLB system behaves like the baseline.
    def ll_miss_op(self, op: Op) -> BusOp:
        return BusOp.GETS

    def should_defer(self, txn: BusTransaction, line: CacheLine) -> DeferDecision:
        ctrl = self.ctrl
        assert ctrl is not None
        if txn.op is not BusOp.QOLB_ENQ:
            return SUPPLY_NOW
        line_addr = txn.line_addr
        if line_addr in ctrl.obligations:
            return DeferDecision(defer=True, tearoff=True)
        if line_addr in self.held_lines:
            # Lock held: the requestor joins the queue and receives the
            # shadow (tear-off) copy to spin on locally.
            return DeferDecision(defer=True, tearoff=True)
        return SUPPLY_NOW

    def tearoff_for_read(self, line_addr: int) -> bool:
        return line_addr in self.held_lines

    def on_enqolb_acquired(self, addr: int) -> None:
        ctrl = self.ctrl
        assert ctrl is not None
        self.held_words.add(addr)
        self.held_lines.add(ctrl.amap.line_addr(addr))

    def on_deqolb(self, addr: int) -> None:
        ctrl = self.ctrl
        assert ctrl is not None
        self.held_words.discard(addr)
        line_addr = ctrl.amap.line_addr(addr)
        if not any(
            ctrl.amap.line_addr(word) == line_addr for word in self.held_words
        ):
            self.held_lines.discard(line_addr)
