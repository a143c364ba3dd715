"""Baseline and aggressive-baseline LL/SC implementations (paper §3.1).

* :class:`BaselinePolicy` — the conventional scheme: an LL fetches the
  line in a shared state; a successful SC then needs a second network
  transaction (an upgrade) to obtain exclusivity.  At least one processor
  always succeeds, but every contended read-modify-write costs two bus
  transactions.

* :class:`AggressiveBaselinePolicy` — read-for-ownership on the LL.  One
  transaction per RMW when uncontended, but under contention processors
  steal each other's exclusive copies between the LL and the SC, so SC
  failure rates explode and livelock becomes possible (paper Figure 1,
  second frame).
"""

from __future__ import annotations

from repro.core.policy import ProtocolPolicy
from repro.cpu.ops import Op
from repro.interconnect.messages import BusOp


class BaselinePolicy(ProtocolPolicy):
    """Traditional LL/SC: LL reads shared, SC upgrades."""

    name = "baseline"


class AggressiveBaselinePolicy(ProtocolPolicy):
    """Baseline + RFO on LL: single transaction per RMW, livelock-prone."""

    name = "aggressive"

    def ll_miss_op(self, op: Op) -> BusOp:
        return BusOp.GETX


class AdaptiveBaselinePolicy(ProtocolPolicy):
    """The paper's conservative hybrid (§3.1).

    "It might choose to request ownership on the first LL instruction
    encountered after a successful SC instruction.  This would prohibit
    live-lock by ensuring that the failure would only occur once."

    The first LL after a successful SC issues an RFO (one transaction per
    uncontended RMW); if that optimistic attempt fails, subsequent LLs
    fall back to the baseline GetS+upgrade path until an SC succeeds and
    re-arms the speculation.  Never slower than the baseline, better in
    the common case — exactly the paper's conjecture, which the
    ``bench_fig1_taxonomy`` bench measures.
    """

    name = "adaptive"
    #: the fallback after one failed RFO rules out livelock
    promises_progress = True

    def __init__(self) -> None:
        super().__init__()
        self._rfo_armed = True

    def ll_miss_op(self, op: Op) -> BusOp:
        if self._rfo_armed:
            self._rfo_armed = False
            return BusOp.GETX
        return BusOp.GETS

    def on_sc_success(self, addr: int, pc: int) -> bool:
        self._rfo_armed = True
        return True
