"""Integration tests for the synchronization library.

Every primitive must provide mutual exclusion and progress on every
protocol policy it is meant to run on.  Mutual exclusion is checked with
the classic read-modify-write token test: if two threads ever overlap in
the critical section, increments are lost.
"""

import pytest

from conftest import build_system, run_programs
from repro.cpu.ops import Compute, Read, Write
from repro.sync import (
    Barrier,
    McsLock,
    QolbLock,
    TSLock,
    TTSLock,
    TicketLock,
    compare_and_swap,
    fetch_and_add,
)


def lock_worker(lock_ops, counter, iters):
    acquire, release = lock_ops

    def program():
        for _ in range(iters):
            yield from acquire()
            value = yield Read(counter)
            yield Compute(3)
            yield Write(counter, value + 1)
            yield from release()
            yield Compute(17)

    return program


def check_mutual_exclusion(system, make_lock_ops, n, iters=12):
    counter = system.layout.alloc_line()
    programs = [lock_worker(make_lock_ops(tid), counter, iters)() for tid in range(n)]
    run_programs(system, programs)
    assert system.read_word(counter) == n * iters


POLICIES_FOR_SW_LOCKS = ["baseline", "aggressive", "delayed", "iqolb",
                         "iqolb+retention", "delayed+retention"]


class TestTTSLock:
    @pytest.mark.parametrize("policy", POLICIES_FOR_SW_LOCKS)
    def test_mutual_exclusion(self, policy):
        system = build_system(4, policy)
        lock = TTSLock(system.layout.alloc_line())
        check_mutual_exclusion(
            system, lambda tid: (lock.acquire, lock.release), 4
        )

    def test_single_thread_reacquire(self):
        system = build_system(1, "iqolb")
        lock = TTSLock(system.layout.alloc_line())
        check_mutual_exclusion(
            system, lambda tid: (lock.acquire, lock.release), 1, iters=5
        )


class TestTSLock:
    @pytest.mark.parametrize("policy", ["baseline", "iqolb"])
    def test_mutual_exclusion(self, policy):
        system = build_system(4, policy)
        lock = TSLock(system.layout.alloc_line())
        check_mutual_exclusion(
            system, lambda tid: (lock.acquire, lock.release), 4
        )


class TestTicketLock:
    @pytest.mark.parametrize("policy", ["baseline", "delayed", "iqolb"])
    def test_mutual_exclusion(self, policy):
        system = build_system(4, policy)
        lock = TicketLock(system.layout.alloc_line(), system.layout.alloc_line())
        check_mutual_exclusion(
            system, lambda tid: (lock.acquire, lock.release), 4
        )

    def test_fifo_order(self):
        """Tickets grant in strict arrival order."""
        system = build_system(3, "baseline")
        lock = TicketLock(system.layout.alloc_line(), system.layout.alloc_line())
        order_addr = system.layout.alloc_line()
        granted = []

        def program(tid):
            yield Compute(tid * 500)  # stagger arrivals: 0, then 1, then 2
            yield from lock.acquire()
            pos = yield Read(order_addr)
            granted.append(tid)
            yield Write(order_addr, pos + 1)
            yield Compute(800)  # hold long enough that others queue up
            yield from lock.release()

        run_programs(system, [program(t) for t in range(3)])
        assert granted == [0, 1, 2]


class TestMcsLock:
    @pytest.mark.parametrize("policy", ["baseline", "delayed", "iqolb"])
    def test_mutual_exclusion(self, policy):
        system = build_system(4, policy)
        lock = McsLock.lay_out(system, 4)
        lock.lay_out_nodes(system, 4)
        check_mutual_exclusion(
            system,
            lambda tid: (
                lambda: lock.acquire(tid),
                lambda: lock.release(tid),
            ),
            4,
        )

    def test_node_at_zero_rejected(self):
        with pytest.raises(ValueError):
            McsLock(0x1000, nodes=[0x1040, 0])


class TestQolbLock:
    def test_mutual_exclusion_on_qolb_policy(self):
        system = build_system(4, "qolb")
        lock = QolbLock(system.layout.alloc_line())
        check_mutual_exclusion(
            system, lambda tid: (lock.acquire, lock.release), 4
        )

    def test_uncontended_reacquire_no_extra_traffic(self):
        system = build_system(2, "qolb")
        lock = QolbLock(system.layout.alloc_line())

        def program():
            for _ in range(10):
                yield from lock.acquire()
                yield from lock.release()

        system.load_program(0, program())
        system.load_program(1, iter([]))
        system.run()
        # First acquire fetches the line; the rest are local.
        assert system.stats.value("bus.QolbEnq") == 1


class TestFetchOps:
    @pytest.mark.parametrize(
        "policy", ["baseline", "aggressive", "delayed", "iqolb", "qolb"]
    )
    def test_fetch_and_add_atomicity(self, policy):
        system = build_system(4, policy)
        counter = system.layout.alloc_line()

        def program():
            for _ in range(10):
                yield from fetch_and_add(counter, 1)
                yield Compute(11)

        run_programs(system, [program() for _ in range(4)])
        assert system.read_word(counter) == 40

    def test_fetch_and_add_returns_old_value(self):
        system = build_system(1, "baseline")
        counter = system.layout.alloc_line()
        system.write_word(counter, 5)
        seen = []

        def program():
            old = yield from fetch_and_add(counter, 3)
            seen.append(old)

        run_programs(system, [program()])
        assert seen == [5]
        assert system.read_word(counter) == 8

    def test_cas_success_and_failure(self):
        system = build_system(1, "baseline")
        addr = system.layout.alloc_line()
        system.write_word(addr, 10)
        outcomes = []

        def program():
            ok = yield from compare_and_swap(addr, 10, 20)
            outcomes.append(ok)
            ok = yield from compare_and_swap(addr, 10, 30)
            outcomes.append(ok)

        run_programs(system, [program()])
        assert outcomes == [True, False]
        assert system.read_word(addr) == 20


class TestBarrier:
    @pytest.mark.parametrize("policy", ["baseline", "iqolb", "qolb"])
    def test_barrier_synchronizes(self, policy):
        n = 4
        system = build_system(n, policy)
        barrier = Barrier(
            system.layout.alloc_line(), system.layout.alloc_line(), n
        )
        marks = system.layout.alloc_array(n)
        violations = []

        def program(tid):
            sense = 0
            for episode in range(3):
                yield Compute((tid + 1) * 37)
                yield Write(marks[tid], episode + 1)
                sense = yield from barrier.wait(sense)
                # After the barrier, every thread must have written this
                # episode's mark.
                for other in range(n):
                    value = yield Read(marks[other])
                    if value < episode + 1:
                        violations.append((tid, other, episode))

        run_programs(system, [program(t) for t in range(n)])
        assert violations == []

    def test_single_party_barrier(self):
        system = build_system(1, "baseline")
        barrier = Barrier(
            system.layout.alloc_line(), system.layout.alloc_line(), 1
        )

        def program():
            sense = 0
            for _ in range(3):
                sense = yield from barrier.wait(sense)

        run_programs(system, [program()])

    def test_zero_parties_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Barrier(0x100, 0x140, 0)
