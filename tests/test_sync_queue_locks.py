"""Integration tests for the software queue locks (Anderson, CLH).

Both come from the paper's related-work landscape (refs [3], [27]) and
provide the software baseline that the paper's hardware queues improve
on.  Mutual exclusion, FIFO order, and recycling are verified on locks
each class lays out itself; the LockSet integration sweeps *every*
registered lock kind so a newly registered primitive is covered the
moment it lands in the registry.
"""

import pytest

from conftest import build_system, run_programs
from repro.core.registry import PRIMITIVE_SPECS
from repro.cpu.ops import Compute, Read, Write
from repro.sync.anderson import AndersonLock
from repro.sync.clh import ClhLock
from repro.workloads.base import LOCK_CLASSES, LOCK_KINDS, LockSet


def _clh(system, n_threads):
    lock = ClhLock.lay_out(system, n_threads)
    lock.lay_out_nodes(system, n_threads)
    return lock


class TestAndersonLock:
    @pytest.mark.parametrize("policy", ["baseline", "delayed", "iqolb"])
    def test_mutual_exclusion(self, policy):
        n = 4
        system = build_system(n, policy)
        lock = AndersonLock.lay_out(system, n)
        token = system.layout.alloc_line()

        def worker(tid):
            for _ in range(10):
                yield from lock.acquire(tid)
                value = yield Read(token)
                yield Compute(3)
                yield Write(token, value + 1)
                yield from lock.release(tid)
                yield Compute(25)

        run_programs(system, [worker(t) for t in range(n)])
        assert system.read_word(token) == n * 10

    def test_fifo_grant_order(self):
        system = build_system(3, "baseline")
        lock = AndersonLock.lay_out(system, 3)
        granted = []

        def worker(tid):
            yield Compute(1 + tid * 500)
            yield from lock.acquire(tid)
            granted.append(tid)
            yield Compute(900)
            yield from lock.release(tid)

        run_programs(system, [worker(t) for t in range(3)])
        assert granted == [0, 1, 2]

    def test_slot_wraparound(self):
        """More acquires than slots: indices wrap and stay correct."""
        system = build_system(2, "baseline")
        lock = AndersonLock.lay_out(system, 2)
        token = system.layout.alloc_line()

        def worker(tid):
            for _ in range(9):  # 18 acquires over 2 slots
                yield from lock.acquire(tid)
                value = yield Read(token)
                yield Write(token, value + 1)
                yield from lock.release(tid)
                yield Compute(15)

        run_programs(system, [worker(t) for t in range(2)])
        assert system.read_word(token) == 18

    def test_too_few_slots_rejected(self):
        with pytest.raises(ValueError):
            AndersonLock(0x1000, [0x1040])


class TestClhLock:
    @pytest.mark.parametrize("policy", ["baseline", "delayed", "iqolb"])
    def test_mutual_exclusion_with_recycling(self, policy):
        n = 4
        system = build_system(n, policy)
        lock = _clh(system, n)
        token = system.layout.alloc_line()
        first_nodes = set(lock.nodes)

        def worker(tid):
            for _ in range(10):
                yield from lock.acquire(tid)
                value = yield Read(token)
                yield Compute(3)
                yield Write(token, value + 1)
                yield from lock.release(tid)
                yield Compute(25)

        run_programs(system, [worker(t) for t in range(n)])
        assert system.read_word(token) == n * 10
        # every thread queues next with a recycled node: the nodes still
        # in use are the laid-out ones plus the dummy, one of them
        # left behind in the tail
        in_use = set(lock.nodes) | {system.read_word(lock.tail_addr)}
        assert in_use == first_nodes | {lock.dummy_node}

    def test_fifo_grant_order(self):
        system = build_system(3, "baseline")
        lock = _clh(system, 3)
        granted = []

        def worker(tid):
            yield Compute(1 + tid * 500)
            yield from lock.acquire(tid)
            granted.append(tid)
            yield Compute(900)
            yield from lock.release(tid)

        run_programs(system, [worker(t) for t in range(3)])
        assert granted == [0, 1, 2]

    def test_node_zero_rejected(self):
        with pytest.raises(ValueError):
            ClhLock(0x1000, 0x1040, nodes=[0x1080, 0])


class TestViaLockSet:
    def test_every_registered_lock_kind_has_an_adapter(self):
        """Loud-failure coverage guard: registering a primitive whose
        lock kind has no lock class must fail here, not silently
        shrink the parameter grid below."""
        missing = {
            spec.lock_kind for spec in PRIMITIVE_SPECS.values()
        } - set(LOCK_CLASSES)
        assert not missing, (
            f"primitives registered with no lock class: {missing}"
        )

    @pytest.mark.parametrize("kind", LOCK_KINDS)
    def test_lockset_integration(self, kind):
        system = build_system(3, "baseline")
        lockset = LockSet(kind, system, n_locks=2, n_threads=3)
        tokens = [system.layout.alloc_line() for _ in range(2)]

        def worker(tid):
            for i in range(6):
                idx = i % 2
                yield from lockset.acquire(idx, tid)
                value = yield Read(tokens[idx])
                yield Write(tokens[idx], value + 1)
                yield from lockset.release(idx, tid)
                yield Compute(20)

        run_programs(system, [worker(t) for t in range(3)])
        assert sum(system.read_word(t) for t in tokens) == 18
