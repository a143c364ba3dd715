"""Microbenchmarks.

These isolate the paper's mechanisms one at a time:

* :class:`ContendedCounter` — every processor hammers fetch&add on one
  word: the pure atomic-RMW scenario of paper Figures 2 and 3 (network
  transactions per RMW, SC failure rates, livelock exposure).
* :class:`NullCriticalSection` — lock/unlock with an empty body: pure
  lock hand-off throughput, the IQOLB scenario of Figure 4.
* :class:`CollocatedCriticalSection` — lock plus protected data in the
  *same* cache line: the collocation benefit QOLB pioneered and
  Generalized IQOLB targets (paper §6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.ops import Compute, Read, Write
from repro.harness.system import System
from repro.mem.address import WORD_BYTES
from repro.sync.fetchop import fetch_and_add
from repro.workloads.base import LockSet, Workload


class ContendedCounter(Workload):
    """All processors increment one shared counter atomically."""

    name = "contended-counter"

    def __init__(self, increments_per_proc: int = 50, think_cycles: int = 20) -> None:
        self.increments_per_proc = increments_per_proc
        self.think_cycles = think_cycles
        self.counter_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        self.counter_addr = system.layout.alloc_line()
        n = system.config.n_processors
        self.expected = n * self.increments_per_proc
        for node in range(n):
            system.load_program(node, self._program())

    def tracked_lines(self, system: System) -> List[int]:
        return [self.lock_line(system)]

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.counter_addr)

    def _program(self):
        for _ in range(self.increments_per_proc):
            yield from fetch_and_add(self.counter_addr, 1, "counter.add")
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.counter_addr)
        if actual != self.expected:
            raise AssertionError(
                f"lost updates: counter={actual}, expected {self.expected}"
            )


class NullCriticalSection(Workload):
    """Lock hand-off throughput: acquire/release with an empty body.

    ``observer``, when given, watches every acquisition without adding a
    simulated op: ``bind(system, lock_line)`` once the lock is laid out,
    then ``arrive(tid)`` before each acquire, ``enter(tid)`` right after
    it and ``exit(tid)`` right before the release.  The checker's
    :class:`~repro.check.oracles.GrantOrderMonitor` and the fairness
    bench's :class:`~repro.harness.fairness.FairnessRecorder` are the two
    observers.
    """

    name = "null-cs"

    def __init__(
        self,
        lock_kind: str = "tts",
        acquires_per_proc: int = 20,
        think_cycles: int = 100,
        observer: Optional[object] = None,
    ) -> None:
        self.lock_kind = lock_kind
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.observer = observer
        self.token_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        n = system.config.n_processors
        self.lockset = LockSet(self.lock_kind, system, 1, n)
        self.token_addr = system.layout.alloc_line()
        self.expected = n * self.acquires_per_proc
        if self.observer is not None:
            self.observer.bind(system, self.lock_line(system))
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        """The lock line, the token line, then the rest of the lines the
        LockSet allocated (queue nodes, slots, a second lock word).  The
        bump allocator laid those out between the two."""
        line_bytes = system.amap.line_bytes
        lock_line = self.lock_line(system)
        token_line = system.amap.line_addr(self.token_addr)
        rest = range(lock_line + line_bytes, token_line, line_bytes)
        return [lock_line, token_line, *rest]

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.lockset.lock_addr(0))

    def extra_oracles(self, system: System) -> List[object]:
        return [] if self.observer is None else [self.observer]

    def _program(self, tid: int):
        observer = self.observer
        for _ in range(self.acquires_per_proc):
            if observer is not None:
                observer.arrive(tid)
            yield from self.lockset.acquire(0, tid)
            if observer is not None:
                observer.enter(tid)
            # Minimal body: bump a token in a *different* line so mutual
            # exclusion is checkable without collocation effects.
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            if observer is not None:
                observer.exit(tid)
            yield from self.lockset.release(0, tid)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )
        if not self.lockset.lock(0).is_free(system.read_word):
            raise AssertionError(
                f"{self.lock_kind} lock not free after all releases"
            )


class CollocatedCriticalSection(Workload):
    """Lock and protected data share one cache line (collocation)."""

    name = "collocated-cs"

    def __init__(
        self,
        lock_kind: str = "tts",
        acquires_per_proc: int = 20,
        think_cycles: int = 100,
        data_words: int = 4,
    ) -> None:
        self.lock_kind = lock_kind
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.data_words = data_words
        self.data_addrs: list = []

    def build(self, system: System) -> None:
        n = system.config.n_processors
        # The lock set allocates a full line per lock; reuse that line's
        # remaining words as the protected data (collocation).
        self.lockset = LockSet(self.lock_kind, system, 1, n)
        lock_addr = self.lockset.lock_addr(0)
        self.data_addrs = [
            lock_addr + WORD_BYTES * (i + 1) for i in range(self.data_words)
        ]
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def _program(self, tid: int):
        for _ in range(self.acquires_per_proc):
            yield from self.lockset.acquire(0, tid)
            total = 0
            for addr in self.data_addrs:
                total += yield Read(addr)
            yield Write(self.data_addrs[0], total + 1)
            yield from self.lockset.release(0, tid)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.data_addrs[0])
        if actual != self.expected:
            raise AssertionError(
                f"collocated data corrupted: {actual} != {self.expected}"
            )
