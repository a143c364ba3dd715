"""Address arithmetic helpers.

The simulator uses byte addresses, 4-byte words, and a configurable cache
line size (64 bytes by default, as in the paper's Table 1).
"""

from __future__ import annotations

WORD_BYTES = 4


class AddressMap:
    """Line/word arithmetic for a fixed line size."""

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line size must be a power of two, got {line_bytes}")
        if line_bytes % WORD_BYTES:
            raise ValueError("line size must be a multiple of the word size")
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // WORD_BYTES
        self._line_mask = ~(line_bytes - 1)
        self._offset_mask = line_bytes - 1

    def line_addr(self, addr: int) -> int:
        """The line-aligned base address containing ``addr``."""
        return addr & self._line_mask

    def word_index(self, addr: int) -> int:
        """Index of the word within its line (0..words_per_line-1)."""
        return (addr & self._offset_mask) // WORD_BYTES
