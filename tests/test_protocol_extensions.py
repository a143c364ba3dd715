"""Tests for the paper's described-but-unevaluated mechanisms:

* the conservative hybrid ("adaptive": RFO on the first LL after a
  successful SC, paper §3.1), and
* Generalized IQOLB (forwarding the critical section's protected data
  lines with the released lock, paper §6).
"""

from conftest import build_system, run_programs
from repro.core.iqolb import PROTECTED_CAPACITY
from repro.cpu.ops import LL, SC, Compute, Read, Write
from repro.sync import TTSLock, fetch_and_add


class TestAdaptivePolicy:
    def test_uncontended_rmw_single_transaction(self):
        system = build_system(1, "adaptive")
        addr = system.layout.alloc_line()

        def program():
            for _ in range(5):
                value = yield LL(addr, pc=1)
                ok = yield SC(addr, value + 1, pc=1)
                assert ok
                yield Compute(10)

        run_programs(system, [program()])
        # First LL fetched exclusive (armed); everything else local.
        assert system.stats.value("bus.transactions") == 1
        assert system.stats.value("bus.GetX") == 1

    def test_livelock_free_under_contention(self):
        """Unlike 'aggressive', the hybrid always completes: a failed SC
        de-arms the speculation so the next attempt is baseline."""
        system = build_system(4, "adaptive", max_cycles=10_000_000)
        addr = system.layout.alloc_line()

        def program():
            for _ in range(8):
                while True:
                    value = yield LL(addr, pc=1)
                    yield Compute(60)  # the livelock-inducing window
                    ok = yield SC(addr, value + 1, pc=1)
                    if ok:
                        break
                    yield Compute(5)
                yield Compute(15)

        run_programs(system, [program() for _ in range(4)])
        assert system.read_word(addr) == 32

    def test_failure_dearms_until_next_success(self):
        system = build_system(2, "adaptive")
        policy = system.controllers[0].policy
        assert policy._rfo_armed is True
        from repro.cpu.ops import LL as LLOp

        assert policy.ll_miss_op(LLOp(0x100)).value == "GetX"
        assert policy.ll_miss_op(LLOp(0x100)).value == "GetS"  # consumed
        policy.on_sc_success(0x100, 1)
        assert policy.ll_miss_op(LLOp(0x100)).value == "GetX"  # re-armed


def generalized_run(policy, n=4, iters=10, data_lines=2):
    system = build_system(n, policy)
    lock = TTSLock(system.layout.alloc_line())
    data = [system.layout.alloc_line() for _ in range(data_lines)]

    def worker():
        for _ in range(iters):
            yield from lock.acquire()
            for addr in data:
                value = yield Read(addr)
                yield Write(addr, value + 1)
            yield from lock.release()
            yield Compute(80)

    run_programs(system, [worker() for _ in range(n)])
    for addr in data:
        assert system.read_word(addr) == n * iters
    return system


class TestGeneralizedIqolb:
    def test_correctness_with_pushes(self):
        system = generalized_run("iqolb+gen")
        assert system.total("pushes_sent") > 0
        assert system.total("pushes_received") > 0

    def test_pushes_are_acked(self):
        system = generalized_run("iqolb+gen")
        # Every forwarded marker was eventually cleared by an ack.
        for controller in system.controllers:
            assert controller.forwarded == {}

    def test_plain_iqolb_never_pushes(self):
        system = generalized_run("iqolb")
        assert system.total("pushes_sent") == 0

    def test_pushing_reduces_traffic(self):
        plain = generalized_run("iqolb", iters=12, data_lines=3)
        gen = generalized_run("iqolb+gen", iters=12, data_lines=3)
        assert (
            gen.stats.value("bus.transactions")
            < plain.stats.value("bus.transactions")
        )

    def test_collocated_data_not_pushed(self):
        """Data in the lock's own line rides the hand-off anyway."""
        system = build_system(3, "iqolb+gen")
        lock_line = system.layout.alloc_words_in_line(3)
        lock = TTSLock(lock_line[0])
        data = lock_line[1]

        def worker():
            for _ in range(8):
                yield from lock.acquire()
                value = yield Read(data)
                yield Write(data, value + 1)
                yield from lock.release()
                yield Compute(60)

        run_programs(system, [worker() for _ in range(3)])
        assert system.read_word(data) == 24
        assert system.total("pushes_sent") == 0

    def test_learned_set_is_bounded(self):
        """Only the most recent protected lines are forwarded."""
        system = generalized_run("iqolb+gen", data_lines=PROTECTED_CAPACITY + 2)
        learned = [
            len(lines)
            for controller in system.controllers
            for lines in controller.policy._protected.values()
        ]
        assert max(learned) == PROTECTED_CAPACITY == 4

    def test_fetchphi_traffic_unaffected(self):
        system = build_system(4, "iqolb+gen")
        counter = system.layout.alloc_line()

        def program():
            for _ in range(8):
                yield from fetch_and_add(counter, 1)
                yield Compute(40)

        run_programs(system, [program() for _ in range(4)])
        assert system.read_word(counter) == 32
        assert system.total("pushes_sent") == 0
