"""The delayed-response scheme (paper §3.2).

An LL miss issues a *low-priority* read-for-ownership (LPRFO).  While a
processor has an LL/SC sequence in flight on a line it owns (its link flag
covers the line), it defers responses to incoming LPRFOs until its own SC
completes — bounded by the time-out.  Regular RFOs (plain stores, lock
releases) are always served promptly; that priority split is exactly what
the paper introduces to fix lock hand-off latency.

The deferred LPRFOs observed on the broadcast bus form the distributed
queue; under :class:`DelayedResponsePolicy` a regular RFO breaks the
queue down (waiters squash and reissue), under
:class:`DelayedRetentionPolicy` the owner loans the line out and gets it
back after the write.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import SUPPLY_NOW, DeferDecision, ProtocolPolicy
from repro.cpu.ops import Op
from repro.interconnect.messages import BusOp, BusTransaction
from repro.mem.line import CacheLine


class DelayedResponsePolicy(ProtocolPolicy):
    """Aggressive baseline + delayed responses using LPRFO."""

    name = "delayed"
    promises_progress = True
    #: Deferral bound.  Architectural specs insist on few instructions
    #: between LL and SC, so the SC nearly always completes well before
    #: this fires.
    timeout_cycles: Optional[int] = 1_000

    def __init__(self, timeout_cycles: Optional[int] = None) -> None:
        super().__init__()
        if timeout_cycles is not None:
            self.timeout_cycles = timeout_cycles

    def ll_miss_op(self, op: Op) -> BusOp:
        return BusOp.LPRFO

    def should_defer(self, txn: BusTransaction, line: CacheLine) -> DeferDecision:
        ctrl = self.ctrl
        assert ctrl is not None
        line_addr = txn.line_addr
        # Already deferring this line: later requestors chain behind the
        # existing queue; no extra obligation is created.
        if line_addr in ctrl.obligations:
            return DeferDecision(defer=True, tearoff=False)
        # An LL/SC of our own is in flight on this line: delay the
        # response until our SC completes (paper §3.2).
        if ctrl.link_valid and ctrl.amap.line_addr(ctrl.link_addr) == line_addr:
            return DeferDecision(defer=True, tearoff=False)
        return SUPPLY_NOW


class DelayedRetentionPolicy(DelayedResponsePolicy):
    """Delayed response whose queue survives regular RFOs (paper §3.2)."""

    name = "delayed+retention"
    queue_retention = True
    fifo_handoff = True
