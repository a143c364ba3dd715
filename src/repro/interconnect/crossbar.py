"""Point-to-point crossbar data network.

Models the Gigaplane-XB-style data crossbar of the paper's target system
(Table 1): 40 cycles of latency per cache-line transfer, with transfers
from the same source port — and transfers *to* the same destination
port — serialized (a crossbar has no shared medium, so contention
appears at the ports, on both sides of the switch).  Short messages —
tear-off words and ownership-return tokens — cost less than full lines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, Histogram, StatsRegistry
from repro.interconnect.messages import DataKind, DataMessage


class Crossbar:
    """Data network connecting cache controllers and memory."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        line_transfer_cycles: int = 40,
        word_transfer_cycles: int = 10,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.line_transfer_cycles = line_transfer_cycles
        self.word_transfer_cycles = word_transfer_cycles
        #: input (source-side) and output (destination-side) port
        #: occupancy; a node's two port directions are distinct hardware.
        self._port_free: Dict[int, int] = {}
        self._out_free: Dict[int, int] = {}
        self._receivers: Dict[int, Callable[[DataMessage], None]] = {}
        #: optional fault injector (repro.check.faults) — may delay a
        #: message before it claims its ports, or drop it outright.
        self.fault_hook = None
        # Per-message stats, resolved on the first send (so a crossbar
        # that carries nothing registers nothing), then kept: send()
        # runs for every data transfer.
        self._c_messages: Optional[Counter] = None
        self._h_queueing: Optional[Histogram] = None
        #: per kind: (transfer cycles, "xbar.<kind>" counter)
        self._by_kind: Dict[DataKind, Tuple[int, Counter]] = {}

    def _resolve(self, kind: DataKind) -> Tuple[int, Counter]:
        """Resolve the stats a ``kind`` message updates, once."""
        if self._c_messages is None:
            self._c_messages = self.stats.counter("xbar.messages")
            self._h_queueing = self.stats.histogram("xbar.queueing")
        cost = (
            self.line_transfer_cycles
            if kind in (DataKind.LINE, DataKind.PUSH)
            else self.word_transfer_cycles
        )
        entry = self._by_kind[kind] = (
            cost, self.stats.counter(f"xbar.{kind.value}")
        )
        return entry

    def attach(self, node_id: int, receiver: Callable[[DataMessage], None]) -> None:
        """Register the delivery callback for a node (or memory)."""
        self._receivers[node_id] = receiver

    def send(self, msg: DataMessage) -> int:
        """Queue a message; returns its delivery time.

        Both ports are busy for the duration of the transfer: back-to-back
        sends from one node serialize at the source port, and transfers
        converging on one node serialize at its output port.  Only
        transfers between disjoint port pairs proceed concurrently, as on
        a real crossbar.
        """
        if msg.dst not in self._receivers:
            raise KeyError(f"no receiver attached for node {msg.dst}")
        # Fault injection happens *before* the ports are booked: a dropped
        # message never occupies the fabric, and an entry delay pushes the
        # whole transfer back without reordering either port's FIFO.
        entry_delay = 0
        if self.fault_hook is not None:
            if self.fault_hook.drop(msg):
                self.stats.counter("xbar.faulted_drops").inc()
                return -1
            entry_delay = self.fault_hook.data_delay(msg)
        entry = self._by_kind.get(msg.kind)
        if entry is None:
            entry = self._resolve(msg.kind)
        cost, kind_counter = entry
        now = self.sim.now
        start = max(
            now + entry_delay,
            self._port_free.get(msg.src, 0),
            self._out_free.get(msg.dst, 0),
        )
        delivery = start + cost
        self._port_free[msg.src] = delivery
        self._out_free[msg.dst] = delivery
        self._c_messages.value += 1
        kind_counter.value += 1
        self._h_queueing.add(start - now)
        self.sim.schedule_at(delivery, self._deliver, msg)
        return delivery

    def _deliver(self, msg: DataMessage) -> None:
        self._receivers[msg.dst](msg)
