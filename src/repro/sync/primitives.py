"""Common scaffolding for the simulated synchronization library.

Every primitive is written against the simulated ISA: its methods are
generators that yield :mod:`repro.cpu.ops` operations, to be driven with
``yield from`` inside a thread program::

    def worker(lock, tid, counter):
        yield from lock.acquire(tid)
        value = yield Read(counter)
        yield Write(counter, value + 1)
        yield from lock.release(tid)

Synthetic program counters: the lock predictor (paper §3.4) indexes by
the PC of the LL instruction.  Each code location in this library gets a
stable synthetic PC derived from a label, shared by every lock instance —
just as every lock acquired through the same acquire routine shares that
routine's real PC.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.harness.system import System


def synthetic_pc(label: str) -> int:
    """A stable, deterministic PC for a named code location."""
    return zlib.crc32(label.encode("utf-8"))


class Lock:
    """Base class: a lock living at a word address.

    A lock kind is its class.  :meth:`lay_out` places one instance on a
    system, :meth:`lay_out_nodes` adds the per-thread nodes once every
    lock word of a set is placed, and ``acquire(tid)``/``release(tid)``
    is the one entry pair; a lock that hands state from acquire to
    release (a queue node, a slot) keeps it per ``tid``.
    """

    name = "lock"

    def __init__(self, addr: int) -> None:
        self.addr = addr

    @classmethod
    def lay_out(cls, system: System, n_threads: int) -> Lock:
        """One instance on ``system``: the lock word on a line of its own."""
        return cls(system.layout.alloc_line())

    def lay_out_nodes(self, system: System, n_threads: int) -> None:
        """Lay out per-thread nodes.  :class:`~repro.workloads.base.
        LockSet` calls this after every lock word of its set is placed,
        so the words of a multi-lock set come first; none here."""

    def acquire(self, tid: int = 0):  # pragma: no cover - interface
        """Generator performing thread ``tid``'s acquire; yields
        simulated ops."""
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def release(self, tid: int = 0):  # pragma: no cover - interface
        """Generator performing thread ``tid``'s release; yields
        simulated ops."""
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator

    def is_free(self, read_word) -> bool:
        """Whether memory, read through ``read_word(addr)``, holds this
        lock released with nobody queued — the state every run must end
        in.  The default fits locks whose one word is 0 when free
        (test&set, test&test&set, QOLB, and an MCS tail at nil)."""
        return read_word(self.addr) == 0
