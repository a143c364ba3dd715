"""Common scaffolding for the simulated synchronization library.

Every primitive is written against the simulated ISA: its methods are
generators that yield :mod:`repro.cpu.ops` operations, to be driven with
``yield from`` inside a thread program::

    def worker(lock, counter):
        yield from lock.acquire()
        value = yield Read(counter)
        yield Write(counter, value + 1)
        yield from lock.release()

Synthetic program counters: the lock predictor (paper §3.4) indexes by
the PC of the LL instruction.  Each code location in this library gets a
stable synthetic PC derived from a label, shared by every lock instance —
just as every lock acquired through the same acquire routine shares that
routine's real PC.
"""

from __future__ import annotations

import zlib


def synthetic_pc(label: str) -> int:
    """A stable, deterministic PC for a named code location."""
    return zlib.crc32(label.encode("utf-8"))


class Lock:
    """Base class: a lock living at a word address."""

    name = "lock"

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def acquire(self):  # pragma: no cover - interface
        """Generator performing the acquire; yields simulated ops."""
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def release(self):  # pragma: no cover - interface
        """Generator performing the release; yields simulated ops."""
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def is_free(self, read_word) -> bool:
        """Whether memory, read through ``read_word(addr)``, holds this
        lock released with nobody queued — the state every run must end
        in.  The default fits locks whose one word is 0 when free
        (test&set, test&test&set, QOLB, and an MCS tail at nil)."""
        return read_word(self.addr) == 0
