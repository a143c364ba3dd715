"""Contention-modeled point-to-point interconnect (2-D mesh).

The scalable fabric behind the directory protocol backend
(``SystemConfig(interconnect="directory")``).  Unlike the broadcast bus,
nothing here is a shared medium: nodes sit on a near-square 2-D mesh,
messages follow dimension-ordered (XY) routes, and contention appears on
the individual directed links a route crosses.

Timing model, per message::

    t = now
    for each directed link (u, v) on the route:
        t = max(t, link_free[u, v, vc])     # wait out earlier traffic
        link_free[u, v, vc] = t + ser       # serialization occupancy
        t += hop_cycles                     # propagation to the next hop

``ser`` depends on the payload — a full cache line occupies a link far
longer than a control flit — so line transfers interleave badly on a
shared path while short messages slip through.  Requests and responses
travel in separate *virtual channels* (independent ``link_free`` books),
the standard protocol-deadlock-avoidance split: a burst of requests can
never delay the responses that would retire them.

The class is send-compatible with :class:`~repro.interconnect.crossbar.
Crossbar`, so :class:`~repro.coherence.controller.CacheController` uses
either without modification.  Ownership-carrying deliveries are reported
to an attached listener — the home directory keeps its owner pointers
current by watching the fabric (the analogue of the directory-update
messages a real protocol would piggyback on transfers).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, StatsRegistry
from repro.interconnect.messages import DataKind, DataMessage, GrantState

#: virtual channel names
VC_REQ = "req"
VC_RESP = "resp"


class MeshNetwork:
    """Point-to-point 2-D mesh with per-link occupancy and two VCs."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        n_nodes: int,
        hop_cycles: int = 4,
        line_ser_cycles: int = 16,
        word_ser_cycles: int = 4,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.n_nodes = n_nodes
        self.hop_cycles = hop_cycles
        self.line_ser_cycles = line_ser_cycles
        self.word_ser_cycles = word_ser_cycles
        self.width = max(1, math.ceil(math.sqrt(n_nodes)))
        #: (src, dst, vc) -> cycle the directed link frees up
        self._link_free: Dict[Tuple[int, int, str], int] = {}
        #: (src, dst, vc) -> the route's ``_link_free`` keys, in hop order
        self._links: Dict[Tuple[int, int, str], Tuple[Tuple[int, int, str], ...]] = {}
        self._receivers: Dict[int, Callable[[DataMessage], None]] = {}
        #: called with (line_addr, node) when an ownership-carrying
        #: message is committed to a node (see ``send``)
        self.ownership_listener: Optional[Callable[[int, int], None]] = None
        # Per-message counters, pre-resolved once (route() runs for every
        # coherence request; send() for every data transfer)
        self._c_messages = stats.counter("net.messages")
        self._c_hops = stats.counter("net.hops")
        self._h_latency = stats.histogram("net.latency")
        #: per-kind send counters ("net.line", ...), filled on first use
        self._c_by_kind: Dict[DataKind, Counter] = {}
        #: optional fault injector (repro.check.faults).  Entry delays are
        #: applied *before* a message books any link, so per-link FIFO and
        #: the occupancy books stay consistent; drops are vetoed per
        #: message at ``send`` and never touch the fabric.
        self.fault_hook = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def distance(self, src: int, dst: int) -> int:
        """Manhattan hop count between two nodes."""
        (x0, y0), (x1, y1) = self.coords(src), self.coords(dst)
        return abs(x1 - x0) + abs(y1 - y0)

    def _route_nodes(self, src: int, dst: int) -> List[int]:
        """XY (dimension-ordered) route, inclusive of both endpoints."""
        x, y = self.coords(src)
        x1, y1 = self.coords(dst)
        path = [src]
        while x != x1:
            x += 1 if x1 > x else -1
            path.append(y * self.width + x)
        while y != y1:
            y += 1 if y1 > y else -1
            path.append(y * self.width + x)
        return path

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def route(
        self,
        src: int,
        dst: int,
        line: bool,
        vc: str,
        callback: Callable[[], None],
    ) -> int:
        """Schedule ``callback`` at the message's delivery time.

        ``line`` selects the serialization cost (full line vs. control
        flit); ``vc`` selects the virtual channel's occupancy book.
        """
        ser = self.line_ser_cycles if line else self.word_ser_cycles
        hop = self.hop_cycles
        links = self._links.get((src, dst, vc))
        if links is None:
            path = self._route_nodes(src, dst)
            links = self._links[(src, dst, vc)] = tuple(
                (u, v, vc) for u, v in zip(path, path[1:])
            )
        now = self.sim.now
        t = now
        if self.fault_hook is not None:
            # Injection-point delay: the message sits at the source's
            # network interface before entering the mesh proper.
            t += self.fault_hook.route_delay(src, dst, vc)
        if not links:
            # Local delivery (e.g. the home node answering itself): no
            # link crossed, but the switch traversal still costs a hop.
            t += hop
        link_free = self._link_free
        for link in links:
            start = link_free.get(link, 0)
            if start < t:
                start = t
            link_free[link] = start + ser
            t = start + ser + hop
        self._c_messages.value += 1
        self._c_hops.value += len(links)
        self._h_latency.add(t - now)
        self.sim.schedule_at(t, callback)
        return t

    def send(self, msg: DataMessage, origin: Optional[int] = None) -> int:
        """Deliver a data message point-to-point (Crossbar-compatible).

        ``origin`` overrides the routing source for messages whose
        logical ``src`` is not a mesh node (memory supplies carry
        ``src=MEMORY_NODE`` but enter the fabric at the home node).
        """
        if msg.dst not in self._receivers:
            raise KeyError(f"no receiver attached for node {msg.dst}")
        # Drop decision comes first: a dropped message must not commit
        # ownership or book links.  The injector only drops messages the
        # protocol can recover from (tear-offs re-fetched via the queue).
        if self.fault_hook is not None and self.fault_hook.drop(msg):
            self.stats.counter("net.faulted_drops").inc()
            return -1
        src = origin if origin is not None else msg.src
        if src < 0:
            src = msg.dst  # memory with no stated origin: model as local
        kind = msg.kind
        line = kind is DataKind.LINE or kind is DataKind.PUSH
        kind_counter = self._c_by_kind.get(kind)
        if kind_counter is None:
            kind_counter = self._c_by_kind[kind] = self.stats.counter(
                f"net.{kind.value}"
            )
        kind_counter.value += 1

        # Ownership bookkeeping for the directory (see module docstring).
        listener = self.ownership_listener
        exclusive = (
            msg.kind is DataKind.LINE and msg.grant is GrantState.EXCLUSIVE
        )
        loan_return = msg.kind is DataKind.LOAN_RETURN and msg.data is not None
        if listener is not None and (exclusive or loan_return):
            # Committed at send time: while the line is in flight the
            # receiver already answers for it (its MSHR replies retry).
            listener(msg.line_addr, msg.dst)

        def deliver() -> None:
            if (
                listener is not None
                and msg.kind is DataKind.PUSH
            ):
                # A push lands unsolicited; until delivery the *sender*
                # answers for the line (its ``forwarded`` marker), so the
                # ownership move is recorded only now.
                self._receivers[msg.dst](msg)
                listener(msg.line_addr, msg.dst)
                return
            self._receivers[msg.dst](msg)

        return self.route(src, msg.dst, line=line, vc=VC_RESP, callback=deliver)

    def attach(self, node_id: int, receiver: Callable[[DataMessage], None]) -> None:
        """Register the delivery callback for a node (or memory)."""
        self._receivers[node_id] = receiver
