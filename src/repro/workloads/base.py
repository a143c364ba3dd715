"""Workload scaffolding.

A workload knows how to lay out its shared memory on a
:class:`~repro.harness.system.System` and to produce one generator
program per processor.  Lock-primitive selection is factored into
:class:`LockSet` so the same workload runs unchanged under any
registered lock kind — the comparison axis of the paper's evaluation.

A lock kind is its :mod:`repro.sync` lock class: the class lays an
instance out (words, slots, nodes, initial memory) and keeps what a
thread holds from ``acquire(tid)`` to ``release(tid)``.
:data:`LOCK_CLASSES` maps each class's own ``name`` to the class, so
registering a lock kind is adding its class there; :data:`LOCK_KINDS`
and every registry-parameterized test grid derive from it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Type

from repro.core.registry import unknown_choice
from repro.harness.system import System
from repro.sync.anderson import AndersonLock
from repro.sync.clh import ClhLock
from repro.sync.fissile import FissileLock
from repro.sync.mcs import McsLock
from repro.sync.primitives import Lock
from repro.sync.qolb_lock import QolbLock
from repro.sync.reciprocating import ReciprocatingLock
from repro.sync.ticket import TicketLock
from repro.sync.tts import TSLock, TTSLock

#: lock kind -> lock class, keyed on the class's own ``name``
LOCK_CLASSES: Dict[str, Type[Lock]] = {
    cls.name: cls
    for cls in (
        TTSLock,
        TSLock,
        TicketLock,
        McsLock,
        QolbLock,
        AndersonLock,
        ClhLock,
        ReciprocatingLock,
        FissileLock,
    )
}

#: lock primitive names accepted by LockSet
LOCK_KINDS = tuple(LOCK_CLASSES)


class LockSet:
    """A set of locks of one primitive kind, one per lock index.

    Every lock is laid out first, then every lock's per-thread nodes,
    so MCS and CLH nodes come after all the lock words of the set — the
    layout the committed perf baselines were measured on.  Workload
    code stays primitive-agnostic::

        yield from lockset.acquire(lock_idx, tid)
        ... critical section ...
        yield from lockset.release(lock_idx, tid)
    """

    def __init__(
        self, kind: str, system: System, n_locks: int, n_threads: int
    ) -> None:
        lock_cls = LOCK_CLASSES.get(kind)
        if lock_cls is None:
            raise unknown_choice("lock kind", kind, LOCK_CLASSES)
        self.kind = kind
        self.n_locks = n_locks
        self._locks = [
            lock_cls.lay_out(system, n_threads) for _ in range(n_locks)
        ]
        for lock in self._locks:
            lock.lay_out_nodes(system, n_threads)

    def lock(self, index: int) -> Lock:
        """The lock instance behind ``index`` (one of :mod:`repro.sync`)."""
        return self._locks[index]

    def lock_addr(self, index: int) -> int:
        return self._locks[index].addr

    def acquire(self, index: int, tid: int) -> Iterator:
        return self._locks[index].acquire(tid)

    def release(self, index: int, tid: int) -> Iterator:
        return self._locks[index].release(tid)


class Workload:
    """Base class: builds per-processor programs on a system."""

    name = "workload"

    def build(self, system: System) -> None:  # pragma: no cover - interface
        """Allocate shared memory and load one program per processor."""
        raise NotImplementedError

    def verify(self, system: System) -> None:
        """Post-run invariant checks (override where meaningful)."""

    def handoff_lines(self, system: System) -> List[int]:
        """Lines whose ownership hand-off the checker should audit.

        Defaults to the workload's contended line when it declares one
        (``lock_line``); scenarios with different hand-off semantics
        override this.
        """
        lock_line = getattr(self, "lock_line", None)
        return [lock_line(system)] if callable(lock_line) else []

    def extra_oracles(self, system: System) -> List[object]:
        """Scenario-specific oracles to register alongside the standard
        SWMR / data-value / hand-off / progress checks (checker only)."""
        return []
