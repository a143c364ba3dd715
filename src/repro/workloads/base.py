"""Workload scaffolding.

A workload knows how to lay out its shared memory on a
:class:`~repro.harness.system.System` and to produce one generator
program per processor.  Lock-primitive selection is factored into
:class:`LockSet` so the same workload runs unchanged under any
registered lock kind — the comparison axis of the paper's evaluation.

Each kind's plumbing (node allocation, state carried from acquire to
release) lives in a small adapter class, and :data:`LOCK_ADAPTERS` maps
kind name -> adapter factory.  Registering a lock kind is adding one
entry there; :data:`LOCK_KINDS` and every registry-parameterized test
grid derive from it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from repro.core.registry import unknown_choice
from repro.harness.system import System
from repro.sync.anderson import AndersonLock
from repro.sync.clh import ClhLock
from repro.sync.fissile import FissileLock
from repro.sync.mcs import McsLock
from repro.sync.qolb_lock import QolbLock
from repro.sync.reciprocating import ReciprocatingLock
from repro.sync.ticket import TicketLock
from repro.sync.tts import TSLock, TTSLock


class _SimpleAdapter:
    """Locks with stateless ``acquire()``/``release()`` generators."""

    def __init__(self, lock) -> None:
        self.lock = lock

    def acquire(self, tid: int) -> Iterator:
        return self.lock.acquire()

    def release(self, tid: int) -> Iterator:
        return self.lock.release()


class _McsAdapter:
    """One queue node per thread; nodes are two words and get a line
    each to avoid false sharing between spinners."""

    def __init__(self, system: System, n_threads: int) -> None:
        self.lock = McsLock(system.layout.alloc_line())
        self._nodes: List[int] = []

    def finish(self, system: System, n_threads: int) -> None:
        self._nodes = [system.layout.alloc_line() for _ in range(n_threads)]

    def acquire(self, tid: int) -> Iterator:
        return self.lock.acquire_with(self._nodes[tid])

    def release(self, tid: int) -> Iterator:
        return self.lock.release_with(self._nodes[tid])


class _AndersonAdapter:
    """Slot index held between acquire and release, per thread."""

    def __init__(self, system: System, n_threads: int) -> None:
        layout = system.layout
        self.lock = AndersonLock(
            layout.alloc_line(),
            [layout.alloc_line() for _ in range(max(2, n_threads))],
        )
        self.lock.initialise(system.write_word)
        self._slots: Dict[int, int] = {}

    def acquire(self, tid: int):
        slot = yield from self.lock.acquire_slot()
        self._slots[tid] = slot

    def release(self, tid: int):
        yield from self.lock.release_slot(self._slots.pop(tid))


class _ClhAdapter:
    """Each thread recycles its predecessor's node (CLH protocol)."""

    def __init__(self, system: System, n_threads: int) -> None:
        layout = system.layout
        self.lock = ClhLock(layout.alloc_line(), layout.alloc_line())
        self.lock.initialise(system.write_word)
        self._nodes: Dict[int, int] = {}
        self._held: Dict[int, int] = {}

    def finish(self, system: System, n_threads: int) -> None:
        self._nodes = {
            t: system.layout.alloc_line() for t in range(n_threads)
        }

    def acquire(self, tid: int):
        held, pred = yield from self.lock.acquire_with(self._nodes[tid])
        self._held[tid] = held
        self._nodes[tid] = pred  # recycle predecessor's node

    def release(self, tid: int):
        yield from self.lock.release_with(self._held.pop(tid))


class _ReciprocatingAdapter:
    """Splice predecessor and conveyed segment pair carried from
    acquire to release, per thread; nodes are immediately reusable."""

    def __init__(self, system: System, n_threads: int) -> None:
        layout = system.layout
        self.lock = ReciprocatingLock(layout.alloc_line())
        self._nodes = [layout.alloc_line() for _ in range(n_threads)]
        self._held: Dict[int, tuple] = {}

    def acquire(self, tid: int):
        pred, eos, res = yield from self.lock.acquire_with(self._nodes[tid])
        self._held[tid] = (pred, eos, res)

    def release(self, tid: int):
        pred, eos, res = self._held.pop(tid)
        yield from self.lock.release_with(self._nodes[tid], pred, eos, res)


class _FissileAdapter:
    """Outer-queue node per thread; release touches no node state."""

    def __init__(self, system: System, n_threads: int) -> None:
        layout = system.layout
        self.lock = FissileLock(layout.alloc_line(), layout.alloc_line())
        self._nodes = [layout.alloc_line() for _ in range(n_threads)]

    def acquire(self, tid: int) -> Iterator:
        return self.lock.acquire_with(self._nodes[tid])

    def release(self, tid: int) -> Iterator:
        return self.lock.release()


def _simple(lock_cls, n_addrs: int = 1):
    def factory(system: System, n_threads: int) -> _SimpleAdapter:
        layout = system.layout
        addrs = [layout.alloc_line() for _ in range(n_addrs)]
        return _SimpleAdapter(lock_cls(*addrs))
    return factory


#: lock kind -> ``factory(system, n_threads)`` building one adapter
#: (= one lock instance plus its per-thread plumbing).  An adapter may
#: defer part of its allocation to a ``finish`` method, which LockSet
#: calls after every lock in the set is constructed — this keeps the
#: memory layout of multi-lock sets identical to the pre-registry code
#: (lock words first, then queue nodes), which the committed perf
#: baselines depend on.
LOCK_ADAPTERS: Dict[str, Callable[[System, int], object]] = {
    "tts": _simple(TTSLock),
    "ts": _simple(TSLock),
    "ticket": _simple(TicketLock, n_addrs=2),
    "mcs": _McsAdapter,
    "qolb": _simple(QolbLock),
    "anderson": _AndersonAdapter,
    "clh": _ClhAdapter,
    "reciprocating": _ReciprocatingAdapter,
    "fissile": _FissileAdapter,
}

#: lock primitive names accepted by LockSet (derived from the adapter
#: registry — a new adapter is automatically a new kind)
LOCK_KINDS = tuple(LOCK_ADAPTERS)


class LockSet:
    """A set of locks of one primitive kind, one per lock index.

    Queue locks need private per-(thread, lock) state — MCS nodes, CLH
    recycling, reciprocating segment pairs; the kind's adapter allocates
    and hides that so workload code is primitive-agnostic::

        yield from lockset.acquire(lock_idx, tid)
        ... critical section ...
        yield from lockset.release(lock_idx, tid)
    """

    def __init__(
        self, kind: str, system: System, n_locks: int, n_threads: int
    ) -> None:
        factory = LOCK_ADAPTERS.get(kind)
        if factory is None:
            raise unknown_choice("lock kind", kind, LOCK_ADAPTERS)
        self.kind = kind
        self.n_locks = n_locks
        self._adapters = [
            factory(system, n_threads) for _ in range(n_locks)
        ]
        for adapter in self._adapters:
            finish = getattr(adapter, "finish", None)
            if finish is not None:
                finish(system, n_threads)

    def lock(self, index: int):
        """The lock instance behind ``index`` (one of :mod:`repro.sync`)."""
        return self._adapters[index].lock  # type: ignore[attr-defined]

    def lock_addr(self, index: int) -> int:
        return self.lock(index).addr

    def acquire(self, index: int, tid: int) -> Iterator:
        return self._adapters[index].acquire(tid)  # type: ignore[attr-defined]

    def release(self, index: int, tid: int) -> Iterator:
        return self._adapters[index].release(tid)  # type: ignore[attr-defined]


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
