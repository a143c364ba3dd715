"""Shared-memory layout allocator for workloads and tests.

A simple bump allocator over the simulated address space, with the
placement controls that matter for this paper: same-line placement (for
collocation experiments) and line-separated placement (to avoid false
sharing between unrelated variables).
"""

from __future__ import annotations

from typing import List

from repro.mem.address import WORD_BYTES, AddressMap


class MemoryLayout:
    """Allocates word addresses in the simulated shared memory."""

    def __init__(self, amap: AddressMap, base: int = 0x1_0000) -> None:
        self.amap = amap
        if base % amap.line_bytes:
            raise ValueError("layout base must be line-aligned")
        self._next = base

    def alloc_line(self) -> int:
        """A fresh, exclusively-held cache line; returns its first word."""
        self._align_to_line()
        addr = self._next
        self._next += self.amap.line_bytes
        return addr

    def alloc_words_in_line(self, count: int) -> List[int]:
        """``count`` words guaranteed to share one line (collocation)."""
        if count > self.amap.words_per_line:
            raise ValueError(
                f"{count} words cannot share a {self.amap.line_bytes}-byte line"
            )
        self._align_to_line()
        addrs = [self._next + i * WORD_BYTES for i in range(count)]
        self._next += self.amap.line_bytes
        return addrs

    def alloc_array(self, n_words: int) -> List[int]:
        """A dense array of words starting on a line boundary."""
        self._align_to_line()
        addrs = [self._next + i * WORD_BYTES for i in range(n_words)]
        self._next += n_words * WORD_BYTES
        return addrs

    def _align_to_line(self) -> None:
        line = self.amap.line_bytes
        self._next = (self._next + line - 1) // line * line
