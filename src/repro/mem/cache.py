"""Set-associative cache array with LRU replacement.

This is the tag/data array used for both L1 and L2; coherence decisions
live in the controller, not here.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.mem.line import CacheLine


class CacheArray:
    """A set-associative array of :class:`CacheLine` frames.

    Capacity and associativity are in lines.  One address-keyed index
    serves lookups and removals with a single dict lookup; a set exists
    only once a line was inserted into it, and is consulted only for
    occupancy and the LRU victim choice, both O(associativity).  Pinned
    lines (lines with outstanding misses or active deferrals) are never
    chosen as victims.
    """

    def __init__(self, n_sets: int, assoc: int, line_bytes: int) -> None:
        if n_sets <= 0 or n_sets & (n_sets - 1):
            raise ValueError(f"set count must be a power of two, got {n_sets}")
        if assoc <= 0:
            raise ValueError(f"associativity must be positive, got {assoc}")
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        #: every resident line, by line address
        self.index: Dict[int, CacheLine] = {}
        #: set index -> that set's lines, made on the set's first insert
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self._tick = 0

    @classmethod
    def from_size(cls, size_bytes: int, assoc: int, line_bytes: int) -> "CacheArray":
        """Build an array from a total capacity in bytes (e.g. 64 KB)."""
        n_lines = size_bytes // line_bytes
        n_sets = n_lines // assoc
        return cls(n_sets, assoc, line_bytes)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) & (self.n_sets - 1)

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line for ``line_addr``, updating LRU state."""
        line = self.index.get(line_addr)
        if line is not None and touch:
            self._tick += 1
            line.last_used = self._tick
        return line

    def touch(self, line_addr: int, times: int) -> None:
        """The LRU state ``times`` touching lookups of a resident line
        leave, applied at once."""
        self._tick += times
        self.index[line_addr].last_used = self._tick

    def insert(self, line: CacheLine, force: bool = False) -> None:
        """Install a line.  The set must have room (evict first if needed).

        ``force=True`` permits temporary over-occupancy; a real controller
        would stall the fill instead.  The coherence controller uses this
        only when every frame in the set is pinned by outstanding misses,
        and counts the occurrences.
        """
        addr = line.addr
        set_index = self._set_index(addr)
        bucket = self._sets.get(set_index)
        if bucket is None:
            bucket = self._sets[set_index] = {}
        if addr not in bucket and len(bucket) >= self.assoc and not force:
            raise RuntimeError(
                f"set for {addr:#x} is full; select_victim/remove first"
            )
        self._tick += 1
        line.last_used = self._tick
        bucket[addr] = line
        self.index[addr] = line

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the line, or None if absent."""
        line = self.index.pop(line_addr, None)
        if line is not None:
            del self._sets[self._set_index(line_addr)][line_addr]
        return line

    def needs_eviction(self, line_addr: int) -> bool:
        """True when installing ``line_addr`` requires evicting a resident."""
        if line_addr in self.index:
            return False
        bucket = self._sets.get(self._set_index(line_addr))
        return bucket is not None and len(bucket) >= self.assoc

    def select_victim(self, line_addr: int) -> Optional[CacheLine]:
        """Pick the LRU non-pinned line of the target set, or None.

        Returns None either when no eviction is needed or when every frame
        in the set is pinned (the caller must then stall or bypass).
        """
        if not self.needs_eviction(line_addr):
            return None
        bucket = self._sets[self._set_index(line_addr)]
        candidates = [line for line in bucket.values() if not line.pinned]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.last_used)

    def lines(self) -> Iterator[CacheLine]:
        """Every resident line, in set-index order."""
        for set_index in sorted(self._sets):
            yield from self._sets[set_index].values()

    def resident_count(self) -> int:
        return len(self.index)
