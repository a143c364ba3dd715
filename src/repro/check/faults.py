"""Coherence fault injection: adverse message timing, on purpose.

The injector perturbs the interconnect through the fabric fault hooks
(``AddressBus.fault_hook``, ``Crossbar.fault_hook``,
``MeshNetwork.fault_hook``) in three ways, all within the protocol's
legal envelope:

* **bounded extra delay** on data messages and mesh routes — messages
  sit at the source interface before entering the fabric, so per-link
  and per-port FIFO books stay consistent while cross-source arrival
  order gets adversarial;
* **address-phase jitter** on the bus — individual address phases
  stretch, with resolutions clamped to issue order (the coherence
  order);
* **dropped tear-off responses** — only tear-offs answering a queued
  deferrable request (LPRFO/QOLB_ENQ) are droppable: the requester holds
  a queue position and the real line still arrives at discharge, so the
  loss is recovered by the protocol's own timeout/hand-off machinery.
  Dropping anything else could orphan a requester, which would be an
  injected *protocol* bug rather than an injected *message* fault.

Decisions draw from one seeded :class:`random.Random` in simulation
event order, which is itself deterministic given a schedule — so a
faulted run replays exactly from ``(schedule, seed)``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, Optional

from repro.interconnect.messages import DEFERRABLE_OPS, DataKind


@dataclasses.dataclass
class FaultPlan:
    """Picklable description of one injection campaign."""

    seed: int = 0
    #: probability an individual data message / mesh route is delayed
    delay_prob: float = 0.25
    #: maximum injected entry delay, cycles (uniform 1..max)
    max_delay_cycles: int = 200
    #: probability an individual bus address phase is stretched
    bus_jitter_prob: float = 0.25
    max_bus_jitter_cycles: int = 60
    #: probability an eligible tear-off response is dropped
    drop_prob: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(**data)


class FaultInjector:
    """Implements every fabric fault hook from one seeded RNG."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.delays_injected = 0
        self.delay_cycles_injected = 0
        self.drops_injected = 0
        self.jitters_injected = 0
        self._system = None
        #: optional trace hook: tracer(kind, time, node, line_addr, info)
        self.tracer: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, system) -> "FaultInjector":
        """Attach to every fabric surface the system actually has."""
        self._system = system
        if hasattr(system.bus, "fault_hook"):
            system.bus.fault_hook = self  # AddressBus jitter
        system.crossbar.fault_hook = self  # Crossbar or MeshNetwork
        return self

    def _trace(self, kind: str, line_addr: int, **info: Any) -> None:
        if self.tracer is not None and self._system is not None:
            # line 0 stands in for "no particular line" (mesh route
            # faults); the JSONL schema requires a non-negative address.
            self.tracer(
                kind, self._system.sim.now, -1, max(line_addr, 0), info
            )

    # ------------------------------------------------------------------
    # Hook surface (called by the fabrics)
    # ------------------------------------------------------------------
    def bus_jitter(self, txn) -> int:
        if self.rng.random() >= self.plan.bus_jitter_prob:
            return 0
        jitter = self.rng.randint(1, self.plan.max_bus_jitter_cycles)
        self.jitters_injected += 1
        self._trace("fault_delay", txn.line_addr, cycles=jitter, where="bus")
        return jitter

    def data_delay(self, msg) -> int:
        return self._entry_delay(msg.line_addr, where="xbar")

    def route_delay(self, src: int, dst: int, vc: str) -> int:
        return self._entry_delay(-1, where=f"net:{vc}")

    def _entry_delay(self, line_addr: int, where: str) -> int:
        if self.rng.random() >= self.plan.delay_prob:
            return 0
        delay = self.rng.randint(1, self.plan.max_delay_cycles)
        self.delays_injected += 1
        self.delay_cycles_injected += delay
        self._trace("fault_delay", line_addr, cycles=delay, where=where)
        return delay

    def drop(self, msg) -> bool:
        if self.plan.drop_prob <= 0.0 or msg.kind is not DataKind.TEAROFF:
            return False
        if not self._droppable(msg):
            return False
        if self.rng.random() >= self.plan.drop_prob:
            return False
        self.drops_injected += 1
        self._trace("fault_drop", msg.line_addr, dst=msg.dst, src=msg.src)
        return True

    def _droppable(self, msg) -> bool:
        """Only tear-offs whose receiver holds a deferrable queue slot.

        A tear-off answering a plain GETS is the *only* data its reader
        will get for that request; losing it would wedge the system, so
        it stays out of the fault envelope.
        """
        if self._system is None:
            return False
        if not 0 <= msg.dst < len(self._system.controllers):
            return False
        controller = self._system.controllers[msg.dst]
        mshr = controller.mshrs.get(msg.line_addr)
        return (
            mshr is not None
            and mshr.bus_op is not None
            and mshr.bus_op in DEFERRABLE_OPS
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        return {
            "delays_injected": self.delays_injected,
            "delay_cycles_injected": self.delay_cycles_injected,
            "bus_jitters_injected": self.jitters_injected,
            "drops_injected": self.drops_injected,
        }
