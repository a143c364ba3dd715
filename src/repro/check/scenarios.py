"""Checker scenarios: the smallest workloads that exercise everything.

Model checking pays for state, so scenarios are deliberately tiny —
2-4 processors, one or two contended lines, a handful of acquires — yet
chosen so the DFS reaches every protocol path: deferral, tear-offs,
queue formation, hand-off, timeout, NACK/retry on the directory.

Each scenario builds a ready-to-run :class:`~repro.harness.system.System`
and reports which line addresses the state-scan oracles should track.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.check.oracles import (
    BarrierMonitor,
    CsMonitor,
    McsQueueMonitor,
    Violation,
)
from repro.core.registry import unknown_choice
from repro.cpu.ops import Compute, Read, Swap, Write
from repro.harness.config import SystemConfig
from repro.harness.experiment import PRIMITIVES
from repro.harness.system import System
from repro.sync import qcore
from repro.sync.barrier import Barrier
from repro.sync.fetchop import compare_and_swap, fetch_and_add
from repro.sync.fissile import FAST_ATTEMPTS, UNLOCKED
from repro.sync.mcs import FLAG_OFFSET, NEXT_OFFSET, SPIN_PAUSE
from repro.sync.primitives import synthetic_pc
from repro.sync.reciprocating import (
    EOS_OFFSET,
    FREE,
    GATE_CLOSED,
    GATE_OFFSET,
    GATE_OPEN,
    LOCKED_EMPTY,
    RES_OFFSET,
)
from repro.workloads.base import LockSet, Workload

#: the policy ladder the smoke matrix sweeps (5 primitives)
LADDER = ("tts", "delayed", "iqolb", "iqolb+retention", "qolb")

#: both coherence fabrics
FABRICS = ("bus", "directory")


class MonitoredCriticalSection(Workload):
    """Contended lock with an in-process mutual-exclusion monitor.

    Like :class:`~repro.workloads.micro.NullCriticalSection`, but every
    critical section reports entry/exit to a :class:`CsMonitor` (overlap
    raises in-sim) and bumps a token word in a separate line so lost
    updates are also caught by the final verify.
    """

    name = "monitored-cs"

    def __init__(
        self,
        lock_kind: str = "tts",
        acquires_per_proc: int = 2,
        think_cycles: int = 30,
    ) -> None:
        self.lock_kind = lock_kind
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.monitor = CsMonitor()
        self.token_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        n = system.config.n_processors
        self.lockset = LockSet(self.lock_kind, system, 1, n)
        self.token_addr = system.layout.alloc_line()
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        return [
            system.amap.line_addr(self.lockset.lock_addr(0)),
            system.amap.line_addr(self.token_addr),
        ]

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.lockset.lock_addr(0))

    def _program(self, tid: int):
        for _ in range(self.acquires_per_proc):
            yield from self.lockset.acquire(0, tid)
            self.monitor.enter(tid)
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            self.monitor.exit(tid)
            yield from self.lockset.release(0, tid)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )


class SmallCounter(Workload):
    """Tiny contended fetch&add: the pure atomic-RMW state space."""

    name = "small-counter"

    def __init__(self, increments_per_proc: int = 2, think_cycles: int = 15):
        self.increments_per_proc = increments_per_proc
        self.think_cycles = think_cycles
        self.monitor = None
        self.counter_addr = 0
        self.expected = 0

    def build(self, system: System) -> None:
        self.counter_addr = system.layout.alloc_line()
        n = system.config.n_processors
        self.expected = n * self.increments_per_proc
        for node in range(n):
            system.load_program(node, self._program())

    def tracked_lines(self, system: System) -> List[int]:
        return [system.amap.line_addr(self.counter_addr)]

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


class BarrierEpochs(Workload):
    """Sense-reversing barrier (``sync/barrier.py``), N nodes x R rounds.

    Each round, every thread bumps a per-round work counter (an atomic
    fetch&add on its own line), reports arrival to a
    :class:`BarrierMonitor`, waits on the shared :class:`Barrier`, and on
    release checks — in-program, against simulated memory — that the
    round's counter already equals the party count.  Departing before all
    parties arrived therefore trips either the monitor (phase-order
    violation) or the memory check (a party's work was not yet visible):
    the all-arrive-before-any-depart oracle at both the program and the
    coherence level.
    """

    name = "barrier-epochs"

    def __init__(self, rounds: int = 2, think_cycles: int = 20) -> None:
        self.rounds = rounds
        self.think_cycles = think_cycles
        self.monitor: Optional[BarrierMonitor] = None
        self.barrier: Optional[Barrier] = None
        self.parties = 0
        self.round_addrs: List[int] = []

    def build(self, system: System) -> None:
        self.parties = system.config.n_processors
        self.monitor = BarrierMonitor(self.parties, self.rounds)
        count_addr = system.layout.alloc_line()
        sense_addr = system.layout.alloc_line()
        self.barrier = Barrier(count_addr, sense_addr, self.parties)
        self.round_addrs = [
            system.layout.alloc_line() for _ in range(self.rounds)
        ]
        for node in range(self.parties):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        lines = [
            system.amap.line_addr(self.barrier.count_addr),
            system.amap.line_addr(self.barrier.sense_addr),
        ]
        lines.extend(system.amap.line_addr(a) for a in self.round_addrs)
        return lines

    def lock_line(self, system: System) -> int:
        # The fetch&add'ed arrival count is the contended hand-off line.
        return system.amap.line_addr(self.barrier.count_addr)

    def extra_oracles(self, system: System) -> List[object]:
        return [self.monitor]

    def _program(self, tid: int):
        local_sense = 0
        for round_no in range(self.rounds):
            yield from fetch_and_add(
                self.round_addrs[round_no], 1, "round.work"
            )
            self.monitor.arrive(tid, round_no)
            local_sense = yield from self.barrier.wait(local_sense)
            self.monitor.depart(tid, round_no)
            done = yield Read(self.round_addrs[round_no])
            if done != self.parties:
                raise Violation(
                    self.monitor.name,
                    f"T{tid} departed round {round_no} with the round "
                    f"counter at {done}/{self.parties} — a party's work "
                    f"was not yet visible",
                )
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        for round_no, addr in enumerate(self.round_addrs):
            actual = system.read_word(addr)
            if actual != self.parties:
                raise AssertionError(
                    f"round {round_no} counter={actual}, "
                    f"expected {self.parties}"
                )
        count = system.read_word(self.barrier.count_addr)
        if count != 0:
            raise AssertionError(
                f"barrier count not reset after the last round: {count}"
            )
        sense = system.read_word(self.barrier.sense_addr)
        if sense != self.rounds % 2:
            raise AssertionError(
                f"global sense={sense} after {self.rounds} rounds, "
                f"expected {self.rounds % 2}"
            )


class McsHandoff(Workload):
    """MCS queue-lock hand-off race, instrumented at the protocol points.

    The program mirrors :class:`~repro.sync.mcs.McsLock`'s acquire and
    release step for step (same node layout — ``FLAG_OFFSET`` /
    ``NEXT_OFFSET`` imported from ``sync/mcs.py`` — same swap/CAS/spin
    sequence), with :class:`McsQueueMonitor` hooks inserted where the
    lock's own generators leave no seam: after the tail swap (queue
    position becomes known), at critical-section entry, and when the
    release completes.  ``drop_next_handoff`` is the scenario's seeded
    mutation: the releaser "forgets" the successor flag write, the exact
    hand-off bug the queue-order oracle exists to catch.
    """

    name = "mcs-handoff"

    def __init__(
        self, acquires_per_proc: int = 2, think_cycles: int = 25
    ) -> None:
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.monitor: Optional[McsQueueMonitor] = None
        #: seeded mutation: skip the successor's flag write on release
        self.drop_next_handoff = False
        self.tail_addr = 0
        self.token_addr = 0
        self.node_addrs: List[int] = []
        self.owner_of: Dict[int, int] = {}
        self.expected = 0
        self.pc_spin = synthetic_pc("mcs.check.spin")

    def build(self, system: System) -> None:
        n = system.config.n_processors
        self.monitor = McsQueueMonitor()
        self.tail_addr = system.layout.alloc_line()
        self.token_addr = system.layout.alloc_line()
        self.node_addrs = [system.layout.alloc_line() for _ in range(n)]
        self.owner_of = {addr: tid for tid, addr in enumerate(self.node_addrs)}
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        lines = [
            system.amap.line_addr(self.tail_addr),
            system.amap.line_addr(self.token_addr),
        ]
        lines.extend(system.amap.line_addr(a) for a in self.node_addrs)
        return lines

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.tail_addr)

    def extra_oracles(self, system: System) -> List[object]:
        return [self.monitor]

    def _acquire(self, tid: int):
        node = self.node_addrs[tid]
        yield Write(node + NEXT_OFFSET, 0)
        yield Write(node + FLAG_OFFSET, 0)
        predecessor = yield Swap(self.tail_addr, node)
        self.monitor.enqueued(tid, self.owner_of.get(predecessor))
        if predecessor == 0:
            return
        yield Write(predecessor + NEXT_OFFSET, node)
        while True:
            flag = yield Read(node + FLAG_OFFSET, pc=self.pc_spin)
            if flag:
                return
            yield Compute(SPIN_PAUSE)

    def _release(self, tid: int):
        node = self.node_addrs[tid]
        next_node = yield Read(node + NEXT_OFFSET)
        if next_node == 0:
            swapped = yield from compare_and_swap(
                self.tail_addr, node, 0, pc_label="mcs.release_cas"
            )
            if swapped:
                self.monitor.released(tid)
                return
            while True:
                next_node = yield Read(node + NEXT_OFFSET)
                if next_node != 0:
                    break
                yield Compute(SPIN_PAUSE)
        # Record the release *before* the hand-off store commits: once it
        # does, the successor's spinning Read may observe the flag and
        # enter ahead of this generator's next resumption.
        self.monitor.released(tid)
        if not self.drop_next_handoff:
            yield Write(next_node + FLAG_OFFSET, 1)

    def _program(self, tid: int):
        for _ in range(self.acquires_per_proc):
            yield from self._acquire(tid)
            self.monitor.enter(tid)
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            self.monitor.exit(tid)
            yield from self._release(tid)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )
        tail = system.read_word(self.tail_addr)
        if tail != 0:
            raise AssertionError(
                f"MCS tail not nil after all releases: {tail:#x}"
            )


class RecipHandoff(Workload):
    """Reciprocating-lock segment hand-off, instrumented for the checker.

    The program mirrors :class:`~repro.sync.reciprocating
    .ReciprocatingLock` step for step (same arrivals-word encoding, same
    node layout and qcore blocks), wrapped in a :class:`CsMonitor` so
    overlapping critical sections raise in-sim.  The state the lock
    threads through generator locals — splice predecessor and conveyed
    ``(eos, res)`` pair — makes the hand-off itself the fragile step:
    ``drop_terminal_signal`` is the seeded mutation where the segment's
    terminal holder detaches the pending arrival stack but "forgets" to
    open the detached top's gate, starving the whole stack.
    """

    name = "recip-handoff"

    def __init__(
        self, acquires_per_proc: int = 2, think_cycles: int = 25
    ) -> None:
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.monitor: Optional[CsMonitor] = None
        #: seeded mutation: the terminal holder detaches the pending
        #: stack but never opens its gate
        self.drop_terminal_signal = False
        self.arrivals_addr = 0
        self.token_addr = 0
        self.node_addrs: List[int] = []
        self.expected = 0
        self.pc_gate = synthetic_pc("recip.check.gate")

    def build(self, system: System) -> None:
        n = system.config.n_processors
        self.monitor = CsMonitor()
        self.arrivals_addr = system.layout.alloc_line()
        self.token_addr = system.layout.alloc_line()
        self.node_addrs = [system.layout.alloc_line() for _ in range(n)]
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        lines = [
            system.amap.line_addr(self.arrivals_addr),
            system.amap.line_addr(self.token_addr),
        ]
        lines.extend(system.amap.line_addr(a) for a in self.node_addrs)
        return lines

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.arrivals_addr)

    def _acquire(self, tid: int):
        node = self.node_addrs[tid]
        yield from qcore.signal(node + GATE_OFFSET, GATE_CLOSED)
        pred = yield from qcore.splice_swap(self.arrivals_addr, node)
        if pred == FREE:
            return pred, FREE, node
        yield from qcore.wait_until(
            node + GATE_OFFSET, GATE_OPEN, pc=self.pc_gate
        )
        eos = yield from qcore.probe(node + EOS_OFFSET)
        res = yield from qcore.probe(node + RES_OFFSET)
        return pred, eos, res

    def _admit(self, succ: int, eos: int, res: int, terminal: bool):
        yield from qcore.signal(succ + EOS_OFFSET, eos)
        yield from qcore.signal(succ + RES_OFFSET, res)
        if terminal and self.drop_terminal_signal:
            return
        yield from qcore.signal(succ + GATE_OFFSET, GATE_OPEN)

    def _release(self, tid: int, pred: int, eos: int, res: int):
        if pred != eos:
            yield from self._admit(pred, eos, res, terminal=False)
            return
        freed = yield from qcore.unsplice(
            self.arrivals_addr, res, "recip.check.release_cas"
        )
        if freed:
            return
        top = yield from qcore.splice_swap(self.arrivals_addr, LOCKED_EMPTY)
        yield from self._admit(top, res, LOCKED_EMPTY, terminal=True)

    def _program(self, tid: int):
        for _ in range(self.acquires_per_proc):
            pred, eos, res = yield from self._acquire(tid)
            self.monitor.enter(tid)
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            self.monitor.exit(tid)
            yield from self._release(tid, pred, eos, res)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )
        arrivals = system.read_word(self.arrivals_addr)
        if arrivals != FREE:
            raise AssertionError(
                f"arrivals word not FREE after all releases: {arrivals:#x}"
            )


class FissileHandoff(Workload):
    """Fissile-lock anti-collapse hand-off, instrumented for the checker.

    Mirrors :class:`~repro.sync.fissile.FissileLock` step for step:
    bounded barging on the inner test&set word, MCS-style outer queue,
    and the head's promote-successor-before-CS step.  That promotion is
    the lock's load-bearing liveness edge — the *only* place an outer
    waiter is ever woken — so ``skip_anti_collapse`` is the seeded
    mutation: the head enters the critical section without promoting,
    and every thread parked behind it starves.
    """

    name = "fissile-handoff"

    def __init__(
        self, acquires_per_proc: int = 2, think_cycles: int = 25
    ) -> None:
        self.acquires_per_proc = acquires_per_proc
        self.think_cycles = think_cycles
        self.monitor: Optional[CsMonitor] = None
        #: seeded mutation: the head never promotes its successor
        self.skip_anti_collapse = False
        self.inner_addr = 0
        self.tail_addr = 0
        self.token_addr = 0
        self.node_addrs: List[int] = []
        self.expected = 0
        self.pc_fast = synthetic_pc("fissile.check.fast")
        self.pc_queue = synthetic_pc("fissile.check.queue")
        self.pc_head = synthetic_pc("fissile.check.head")

    def build(self, system: System) -> None:
        n = system.config.n_processors
        self.monitor = CsMonitor()
        self.inner_addr = system.layout.alloc_line()
        self.tail_addr = system.layout.alloc_line()
        self.token_addr = system.layout.alloc_line()
        self.node_addrs = [system.layout.alloc_line() for _ in range(n)]
        self.expected = n * self.acquires_per_proc
        for node in range(n):
            system.load_program(node, self._program(node))

    def tracked_lines(self, system: System) -> List[int]:
        lines = [
            system.amap.line_addr(self.inner_addr),
            system.amap.line_addr(self.tail_addr),
            system.amap.line_addr(self.token_addr),
        ]
        lines.extend(system.amap.line_addr(a) for a in self.node_addrs)
        return lines

    def lock_line(self, system: System) -> int:
        return system.amap.line_addr(self.inner_addr)

    def _acquire(self, tid: int):
        node = self.node_addrs[tid]
        backoff = SPIN_PAUSE
        for _attempt in range(FAST_ATTEMPTS):
            old = yield from qcore.grab(self.inner_addr, pc=self.pc_fast)
            if old == UNLOCKED:
                return
            yield from qcore.pause(backoff)
            backoff = min(backoff * 2, 256)
        yield from qcore.signal(node + NEXT_OFFSET, 0)
        yield from qcore.signal(node + FLAG_OFFSET, 0)
        predecessor = yield from qcore.splice_swap(self.tail_addr, node)
        if predecessor != 0:
            yield from qcore.signal(predecessor + NEXT_OFFSET, node)
            yield from qcore.wait_until(
                node + FLAG_OFFSET, qcore.nonzero, pc=self.pc_queue
            )
        while True:
            value = yield from qcore.probe(self.inner_addr, pc=self.pc_head)
            if value == UNLOCKED:
                old = yield from qcore.grab(self.inner_addr, pc=self.pc_head)
                if old == UNLOCKED:
                    break
            yield from qcore.pause(SPIN_PAUSE)
        if not self.skip_anti_collapse:
            yield from self._promote_successor(node)

    def _promote_successor(self, node: int):
        next_node = yield from qcore.probe(node + NEXT_OFFSET)
        if next_node == 0:
            swapped = yield from qcore.unsplice(
                self.tail_addr, node, pc_label="fissile.check.promote_cas"
            )
            if swapped:
                return
            next_node = yield from qcore.wait_until(
                node + NEXT_OFFSET, qcore.nonzero
            )
        yield from qcore.signal(next_node + FLAG_OFFSET, 1)

    def _program(self, tid: int):
        for _ in range(self.acquires_per_proc):
            yield from self._acquire(tid)
            self.monitor.enter(tid)
            value = yield Read(self.token_addr)
            yield Write(self.token_addr, value + 1)
            self.monitor.exit(tid)
            yield from qcore.signal(self.inner_addr, UNLOCKED)
            yield Compute(self.think_cycles)

    def verify(self, system: System) -> None:
        actual = system.read_word(self.token_addr)
        if actual != self.expected:
            raise AssertionError(
                f"mutual exclusion violated: token={actual}, "
                f"expected {self.expected}"
            )
        inner = system.read_word(self.inner_addr)
        if inner != UNLOCKED:
            raise AssertionError(
                f"inner word still held after all releases: {inner}"
            )
        tail = system.read_word(self.tail_addr)
        if tail != 0:
            raise AssertionError(
                f"fissile outer tail not nil after all releases: {tail:#x}"
            )


@dataclasses.dataclass
class BuiltScenario:
    """Everything a checker run needs, freshly constructed."""

    system: System
    workload: Workload
    tracked_lines: List[int]
    #: the workload's in-process monitor (CsMonitor, BarrierMonitor,
    #: McsQueueMonitor, ...) or None when the scenario has none
    monitor: Optional[object]


def make_config(
    primitive: str,
    interconnect: str,
    n_processors: int,
    timeout_cycles: Optional[int],
    max_cycles: int,
) -> SystemConfig:
    policy, _lock_kind = PRIMITIVES[primitive]
    return SystemConfig(
        n_processors=n_processors,
        policy=policy,
        interconnect=interconnect,
        timeout_cycles=timeout_cycles,
        max_cycles=max_cycles,
    )


def _make_lock(primitive: str, acquires_per_proc: int) -> Workload:
    _policy, lock_kind = PRIMITIVES[primitive]
    return MonitoredCriticalSection(
        lock_kind=lock_kind, acquires_per_proc=acquires_per_proc
    )


def _make_counter(primitive: str, acquires_per_proc: int) -> Workload:
    return SmallCounter(increments_per_proc=acquires_per_proc)


def _make_barrier(primitive: str, acquires_per_proc: int) -> Workload:
    return BarrierEpochs(rounds=acquires_per_proc)


def _make_mcs(primitive: str, acquires_per_proc: int) -> Workload:
    return McsHandoff(acquires_per_proc=acquires_per_proc)


def _make_recip(primitive: str, acquires_per_proc: int) -> Workload:
    return RecipHandoff(acquires_per_proc=acquires_per_proc)


def _make_fissile(primitive: str, acquires_per_proc: int) -> Workload:
    return FissileHandoff(acquires_per_proc=acquires_per_proc)


#: the scenario registry: one dict so the CLI ``choices``, the runner
#: matrix, and the unknown-scenario error message cannot drift apart.
#: Each factory takes ``(primitive, acquires_per_proc)`` — the per-proc
#: knob doubles as rounds for the barrier scenario.
SCENARIOS: Dict[str, Callable[[str, int], Workload]] = {
    "lock": _make_lock,
    "counter": _make_counter,
    "barrier": _make_barrier,
    "mcs": _make_mcs,
    "reciprocating": _make_recip,
    "fissile": _make_fissile,
}


def scenario_names() -> List[str]:
    """Registry keys, sorted — the single source for CLI choices."""
    return sorted(SCENARIOS)


def mutation_names() -> List[str]:
    """Mutation registry keys, sorted — the single source for CLI choices."""
    return sorted(MUTATIONS)


def build_scenario(
    scenario: str,
    primitive: str,
    interconnect: str,
    n_processors: int,
    acquires_per_proc: int,
    timeout_cycles: Optional[int],
    max_cycles: int,
) -> BuiltScenario:
    """Construct system + workload for one checker cell (not yet run)."""
    try:
        factory = SCENARIOS[scenario]
    except KeyError:
        raise unknown_choice(
            "scenario", scenario, scenario_names()
        ) from None
    config = make_config(
        primitive, interconnect, n_processors, timeout_cycles, max_cycles
    )
    workload = factory(primitive, acquires_per_proc)
    system = System(config)
    workload.build(system)
    return BuiltScenario(
        system=system,
        workload=workload,
        tracked_lines=workload.tracked_lines(system),
        monitor=workload.monitor,
    )


def _mutate_skip_release_handoff(system: System, workload: Workload) -> None:
    """Every controller silently drops the ownership hand-off a release
    should trigger — the "exactly-once per acquire/release pair" bug."""
    for controller in system.controllers:
        original = controller.discharge

        def patched(line_addr, reason, _original=original):
            if reason == "release":
                return None
            return _original(line_addr, reason)

        controller.discharge = patched


def _require(workload: Workload, cls: type, mutation: str):
    if not isinstance(workload, cls):
        raise ValueError(
            f"mutation {mutation!r} requires the {cls.name!r} scenario, "
            f"not {workload.name!r}"
        )
    return workload


def _mutate_barrier_skip_sense_flip(system: System, workload) -> None:
    """The last arriver never recognizes itself (the arrival count can
    never reach ``parties``), so the sense flip is skipped entirely and
    every waiter starves — caught as a liveness violation."""
    barrier = _require(workload, BarrierEpochs, "barrier_skip_sense_flip").barrier
    barrier.parties += 1


def _mutate_barrier_early_release(system: System, workload) -> None:
    """The second-to-last arriver flips the sense, releasing waiters
    while one party has not arrived — the all-arrive-before-any-depart
    violation the barrier oracle exists to catch."""
    barrier = _require(workload, BarrierEpochs, "barrier_early_release").barrier
    if barrier.parties < 2:
        raise ValueError("barrier_early_release needs at least 2 parties")
    barrier.parties -= 1


def _mutate_mcs_drop_handoff(system: System, workload) -> None:
    """The MCS releaser "forgets" the successor's flag write: the queued
    next waiter spins forever — the dropped next-pointer hand-off."""
    _require(workload, McsHandoff, "mcs_drop_handoff").drop_next_handoff = True


def _mutate_recip_drop_terminal_signal(system: System, workload) -> None:
    """The reciprocating terminal holder detaches the pending arrival
    stack but never opens the detached top's gate: the whole stacked
    segment spins on closed gates forever."""
    _require(
        workload, RecipHandoff, "recip_drop_terminal_signal"
    ).drop_terminal_signal = True


def _mutate_fissile_skip_anti_collapse(system: System, workload) -> None:
    """The fissile head enters the critical section without promoting
    its outer-queue successor — the one wake-up edge outer waiters have
    — so everyone parked behind it starves."""
    _require(
        workload, FissileHandoff, "fissile_skip_anti_collapse"
    ).skip_anti_collapse = True


#: mutation registry: protocol-level mutations patch the system, the
#: scenario-level ones arm a deliberate bug in the workload itself.
MUTATIONS: Dict[str, Callable[[System, Workload], None]] = {
    "skip_release_handoff": _mutate_skip_release_handoff,
    "barrier_skip_sense_flip": _mutate_barrier_skip_sense_flip,
    "barrier_early_release": _mutate_barrier_early_release,
    "mcs_drop_handoff": _mutate_mcs_drop_handoff,
    "recip_drop_terminal_signal": _mutate_recip_drop_terminal_signal,
    "fissile_skip_anti_collapse": _mutate_fissile_skip_anti_collapse,
}


def install_mutation(
    name: Optional[str], system: System, workload: Optional[Workload] = None
) -> None:
    """Deliberately break the protocol or scenario — the checker's own
    self-test.

    A checker that never fires is indistinguishable from one that
    cannot; each scenario has at least one seeded mutation whose
    violation the CI self-test asserts is found *and* replayable.
    """
    if name is None:
        return
    try:
        installer = MUTATIONS[name]
    except KeyError:
        raise unknown_choice("mutation", name, mutation_names()) from None
    installer(system, workload)
