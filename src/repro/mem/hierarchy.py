"""Per-node two-level cache hierarchy.

The paper's nodes have split 64-KB L1 caches (1-cycle hit) and a unified
512-KB L2 (6-cycle hit), with the L1s inclusive in the L2 (Table 1).

Modelling note: the L1 array holds *references to the same*
:class:`~repro.mem.line.CacheLine` objects as the L2, so coherence state
and data are always consistent between levels by construction; the L1
exists to provide hit/miss timing and capacity/conflict behaviour.
Instruction fetches are not simulated (the paper reports negligible
I-cache miss rates), so only the L1-D is modelled.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.stats import StatsRegistry
from repro.mem.cache import CacheArray
from repro.mem.line import CacheLine, State


class NodeCacheHierarchy:
    """L1-D + unified L2 for one node, sharing line objects."""

    def __init__(
        self,
        node_id: int,
        l1: CacheArray,
        l2: CacheArray,
        l1_hit_cycles: int,
        l2_hit_cycles: int,
        stats: StatsRegistry,
    ) -> None:
        self.node_id = node_id
        self.l1 = l1
        self.l2 = l2
        self.l1_hit_cycles = l1_hit_cycles
        self.l2_hit_cycles = l2_hit_cycles
        self._stats = stats
        self._prefix = f"cache{node_id}"
        # Pre-resolved counters: lookup() runs once per memory operation,
        # so the registry's name-keyed dict lookup is hoisted out of it.
        self._c_l1_hits = stats.counter(f"{self._prefix}.l1_hits")
        self._c_l2_hits = stats.counter(f"{self._prefix}.l2_hits")
        self._c_misses = stats.counter(f"{self._prefix}.misses")

    # ------------------------------------------------------------------
    # Lookup with timing
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Tuple[Optional[CacheLine], int]:
        """Find a line; return (line or None, access latency in cycles).

        An L1 hit costs ``l1_hit_cycles``; an L1 miss that hits in L2 costs
        the L1 lookup plus the L2 hit time and refills the L1; a full miss
        costs the same lookup path before the controller goes to the bus.
        """
        line = self.l1.lookup(line_addr)
        if line is not None and line.state is not State.INVALID:
            self._c_l1_hits.value += 1
            return line, self.l1_hit_cycles
        latency = self.l1_hit_cycles + self.l2_hit_cycles
        line = self.l2.lookup(line_addr)
        if line is not None and line.state is not State.INVALID:
            self._c_l2_hits.value += 1
            self._fill_l1(line)
            return line, latency
        self._c_misses.value += 1
        return None, latency

    def replay_l1_hits(self, line_addr: int, count: int) -> None:
        """Charge ``count`` back-to-back L1 hits on a resident line: the
        hit counter and LRU state that many :meth:`lookup` calls leave."""
        self.l1.touch(line_addr, count)
        self._c_l1_hits.value += count

    def peek(self, line_addr: int) -> Optional[CacheLine]:
        """Find a line without timing or LRU effects (for snooping)."""
        line = self.l2.index.get(line_addr)
        if line is not None and line.valid:
            return line
        return None

    # ------------------------------------------------------------------
    # Installation and eviction
    # ------------------------------------------------------------------
    def install(self, line: CacheLine) -> List[CacheLine]:
        """Install a freshly filled line in L2 (and L1).

        Returns the evicted L2 victims (usually none or one; more after a
        set was over-occupied by a pinned overflow) — the controller is
        responsible for writing back dirty victims and for any queue
        hand-off tied to them.  Victim selection never picks pinned
        lines; if the whole set is pinned the line is force-installed and
        the event counted.
        """
        victims: List[CacheLine] = []
        # A set may be over-occupied from an earlier pinned overflow, in
        # which case a single eviction is not enough to make room.
        while self.l2.needs_eviction(line.addr):
            candidate = self.l2.select_victim(line.addr)
            if candidate is None:
                self._stats.counter(f"{self._prefix}.pinned_overflows").inc()
                self.l2.insert(line, force=True)
                self._fill_l1(line)
                return victims
            self.l2.remove(candidate.addr)
            self.l1.remove(candidate.addr)
            self._stats.counter(f"{self._prefix}.l2_evictions").inc()
            victims.append(candidate)
        self.l2.insert(line)
        self._fill_l1(line)
        return victims

    def drop(self, line_addr: int) -> None:
        """Remove a line from both levels (invalidation)."""
        self.l2.remove(line_addr)
        self.l1.remove(line_addr)

    def _fill_l1(self, line: CacheLine) -> None:
        """Refill the L1 with a line already resident in L2.

        L1 evictions are silent: the L2 is inclusive and shares the line
        object, so no data movement is needed.
        """
        if self.l1.index.get(line.addr) is line:
            return
        if self.l1.needs_eviction(line.addr):
            victim = self.l1.select_victim(line.addr)
            if victim is None:
                return  # every L1 frame pinned; serve from L2
            self.l1.remove(victim.addr)
        self.l1.insert(line)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_of(self, line_addr: int) -> State:
        line = self.peek(line_addr)
        return line.state if line is not None else State.INVALID
