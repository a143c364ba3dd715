"""Protocol policy interface.

A *policy* is the paper's contribution distilled: it sits alongside the
cache-coherence protocol and "guides the decisions the protocol makes with
respect to lock (and associated data) transfers" (paper §1/abstract).  The
mechanics — MOESI states, MSHRs, the distributed queue, timers, tear-off
installation — live in :class:`repro.coherence.controller.CacheController`;
each policy only answers the speculative questions:

* what bus operation should an LL miss issue? (GetS / GetX / LPRFO)
* should an incoming deferrable request be delayed, and should the
  requestor receive a tear-off copy meanwhile?
* when is a deferral released — at SC completion (Fetch&Phi), at the
  release store (lock), or at an explicit DeQOLB?

One policy instance is created per controller, so per-node predictor state
lives naturally on the policy object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.cpu.ops import Op
from repro.interconnect.messages import BusOp, BusTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.coherence.controller import CacheController
    from repro.mem.line import CacheLine


class DeferDecision(NamedTuple):
    """Answer to "may this deferrable request be delayed?"."""

    defer: bool
    tearoff: bool


SUPPLY_NOW = DeferDecision(defer=False, tearoff=False)


class ProtocolPolicy:
    """Base policy: conventional MOESI behaviour, nothing speculative.

    Subclasses override the hooks below.  Defaults reproduce the paper's
    *Baseline* method: LL fetches shared, SC pays a second transaction,
    nothing is ever deferred.
    """

    # Each registered variant declares what it is as class attributes,
    # so the registry, the system builder and the checker read them off
    # the class without building an instance.

    #: identifier used in configs, stats and reports (the registry key)
    name = "base"
    #: preserve the distributed queue across regular RFOs? (paper §3.2/3.3)
    queue_retention = False
    #: queued waiters receive the line in request order (paper §4.2)
    fifo_handoff = False
    #: hand-off latency is bounded (a timeout or an explicit queue), so a
    #: run that never finishes is a bug rather than LL/SC livelock
    promises_progress = False
    #: default bound on a deferral before the timeout forwards the line
    #: (None = never defers, so no timer is needed and none can be set)
    timeout_cycles: Optional[int] = None

    def __init__(self) -> None:
        self.ctrl: Optional["CacheController"] = None

    def bind(self, ctrl: "CacheController") -> None:
        """Attach this policy instance to its controller."""
        self.ctrl = ctrl

    def trace(self, kind: str, line_addr: int, **info: object) -> None:
        """Emit a telemetry event through the controller's dispatch point.

        Free when no tracer is attached (a single ``is None`` check), so
        policies may narrate speculative decisions unconditionally.
        """
        if self.ctrl is not None:
            self.ctrl._trace(kind, line_addr, **info)

    # ------------------------------------------------------------------
    # Request-side speculation
    # ------------------------------------------------------------------
    def ll_miss_op(self, op: Op) -> BusOp:
        """Bus operation an LL miss issues (paper Figure 1 progression)."""
        return BusOp.GETS

    # ------------------------------------------------------------------
    # Snoop-side speculation (only consulted when this node owns the line)
    # ------------------------------------------------------------------
    def should_defer(self, txn: BusTransaction, line: "CacheLine") -> DeferDecision:
        """May the response to this LPRFO/QOLB_ENQ be delayed?"""
        return SUPPLY_NOW

    def tearoff_for_read(self, line_addr: int) -> bool:
        """Serve an external GETS with a tear-off instead of downgrading?"""
        return False

    # ------------------------------------------------------------------
    # Release-point hooks (return True to discharge deferrals on the line)
    # ------------------------------------------------------------------
    def on_sc_success(self, addr: int, pc: int) -> bool:
        """SC completed.  True → forward any deferred queue now."""
        return True

    def on_sc_fail(self, addr: int, pc: int) -> None:
        """SC failed (prediction bookkeeping only)."""

    def on_store_complete(self, addr: int, pc: int) -> bool:
        """A plain store completed.  True → it released a lock; forward."""
        return False

    def on_enqolb_acquired(self, addr: int) -> None:
        """An EnQOLB observed the lock free with ownership (QOLB only)."""

    def on_deqolb(self, addr: int) -> None:
        """DeQOLB released the lock (QOLB only)."""

    def on_timeout(self, line_addr: int) -> None:
        """The deferral timer expired (prediction-accuracy bookkeeping)."""

    def protected_lines(self, lock_line: int) -> list:
        """Data lines to forward along with a released lock line.

        Generalized IQOLB (paper §6) overrides this; everyone else
        forwards nothing.
        """
        return []
