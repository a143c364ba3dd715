"""Checker scenarios: the smallest workloads that exercise everything.

Model checking pays for state, so scenarios are deliberately tiny —
2-4 processors, one or two contended lines, a handful of acquires — yet
chosen so the DFS reaches every protocol path: deferral, tear-offs,
queue formation, hand-off, timeout, NACK/retry on the directory.

Each scenario builds a ready-to-run :class:`~repro.harness.system.System`
and reports which line addresses the state-scan oracles should track.
The ``lock`` and ``counter`` scenarios are the benches' own
micro-workloads (:mod:`repro.workloads.micro`), so the checker explores
the programs the benches time; only the barrier scenario lives here.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.check.oracles import BarrierMonitor, GrantOrderMonitor, Violation
from repro.core.registry import get_primitive, unknown_choice
from repro.cpu.ops import Compute, Read, Swap, Write
from repro.harness.config import SystemConfig
from repro.harness.system import System
from repro.interconnect.messages import GrantState
from repro.mem.line import CacheLine, State
from repro.sync.barrier import Barrier
from repro.sync.fetchop import fetch_and_add
from repro.sync.reciprocating import GATE_OFFSET
from repro.workloads.base import Workload
from repro.workloads.micro import ContendedCounter, NullCriticalSection

#: the policy ladder the smoke matrix sweeps (5 primitives)
LADDER = ("tts", "delayed", "iqolb", "iqolb+retention", "qolb")


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


@dataclasses.dataclass
class BuiltScenario:
    """Everything a checker run needs, freshly constructed."""

    system: System
    workload: Workload
    tracked_lines: List[int]


def make_config(
    primitive: str,
    interconnect: str,
    n_processors: int,
    timeout_cycles: Optional[int],
    max_cycles: int,
) -> SystemConfig:
    return SystemConfig(
        n_processors=n_processors,
        policy=get_primitive(primitive).policy,
        interconnect=interconnect,
        timeout_cycles=timeout_cycles,
        max_cycles=max_cycles,
    )


def _make_lock(primitive: str, acquires_per_proc: int) -> Workload:
    """The bench's null critical section on the cell's primitive, as
    shipped, under the grant-order monitor."""
    spec = get_primitive(primitive)
    return NullCriticalSection(
        spec.lock_kind,
        acquires_per_proc,
        think_cycles=30,
        observer=GrantOrderMonitor(fifo=spec.fifo),
    )


def _make_counter(primitive: str, acquires_per_proc: int) -> Workload:
    return ContendedCounter(
        increments_per_proc=acquires_per_proc, think_cycles=15
    )


def _make_barrier(primitive: str, acquires_per_proc: int) -> Workload:
    return BarrierEpochs(rounds=acquires_per_proc)


#: the scenario registry: one dict so the CLI ``choices``, the runner
#: matrix, and the unknown-scenario error message cannot drift apart.
#: Each factory takes ``(primitive, acquires_per_proc)`` — the per-proc
#: knob doubles as rounds for the barrier scenario.
SCENARIOS: Dict[str, Callable[[str, int], Workload]] = {
    "lock": _make_lock,
    "counter": _make_counter,
    "barrier": _make_barrier,
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


def _mutate_sharer_keeps_copy(system: System, workload: Workload) -> None:
    """A sharer keeps its copy through an invalidating snoop: a stale
    read-only copy survives next to the new writer.  No data differs
    until that writer stores, and the copy carries no write permission,
    so only the SWMR oracle sees it, at the step the writer's grant
    lands.  (Only the snoop's sharer invalidation drops a SHARED copy;
    owners give theirs up through the same ``_drop``, unchanged.)"""
    for controller in system.controllers:
        original = controller._drop

        def patched(line_addr, _controller=controller, _original=original):
            line = _controller.hierarchy.peek(line_addr)
            if line is not None and line.state is State.SHARED:
                return None
            return _original(line_addr)

        controller._drop = patched


def _mutate_gets_fill_from_memory(system: System, workload: Workload) -> None:
    """An owner answering a GETS ships memory's copy of the line instead
    of its own: the reader installs stale data while the dirty owner
    keeps the new value.  Both copies are read-only afterwards, so only
    the data-value oracle sees it, at the step the fill lands."""
    memory = system.memory
    for controller in system.controllers:
        original = controller._send_line

        def patched(dst, line, grant, _original=original, **kwargs):
            if grant is GrantState.SHARED:
                stale = memory.read_line(line.addr)
                line = CacheLine(line.addr, line.state, stale)
            return _original(dst, line, grant, **kwargs)

        controller._send_line = patched


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


def _drop_ops(ops, drop):
    """Drive the op generator ``ops`` but swallow every op ``drop``
    selects: it never reaches the processor, and ``ops`` sees None as
    its result."""
    result = None
    try:
        while True:
            op = ops.send(result)
            result = None if drop(op) else (yield op)
    except StopIteration as stop:
        return stop.value


def _require_lock(workload: Workload, kind: str, mutation: str):
    """The shipped lock instance a lock-level mutation patches."""
    if (
        not isinstance(workload, NullCriticalSection)
        or workload.lock_kind != kind
    ):
        raise ValueError(
            f"mutation {mutation!r} requires the 'lock' scenario with "
            f"lock kind {kind!r}"
        )
    return workload.lockset.lock(0)


def _mutate_mcs_drop_handoff(system: System, workload) -> None:
    """The MCS releaser "forgets" the successor's flag write (the one
    store in ``McsLock.release``): the queued next waiter spins
    forever — the dropped next-pointer hand-off."""
    lock = _require_lock(workload, "mcs", "mcs_drop_handoff")
    release = lock.release
    lock.release = lambda tid: _drop_ops(
        release(tid), lambda op: isinstance(op, Write)
    )


def _mutate_recip_drop_terminal_signal(system: System, workload) -> None:
    """The reciprocating terminal holder detaches the pending arrival
    stack but never opens the detached top's gate: the whole stacked
    segment spins on closed gates forever."""
    lock = _require_lock(
        workload, "reciprocating", "recip_drop_terminal_signal"
    )
    release = lock.release
    line_bytes = system.amap.line_bytes

    def mutated(tid):
        detached = False

        def drop(op) -> bool:
            nonlocal detached
            # The detaching Swap(arrivals, LOCKED_EMPTY) is the only swap
            # a release issues; nodes are line-aligned, so the gate store
            # is the one at the gate's offset in its line.
            detached = detached or isinstance(op, Swap)
            return (
                detached
                and isinstance(op, Write)
                and op.addr % line_bytes == GATE_OFFSET
            )

        return _drop_ops(release(tid), drop)

    lock.release = mutated


def _mutate_fissile_skip_anti_collapse(system: System, workload) -> None:
    """The fissile head enters the critical section without promoting
    its outer-queue successor — the one wake-up edge outer waiters have
    — so everyone parked behind it starves."""
    lock = _require_lock(workload, "fissile", "fissile_skip_anti_collapse")
    lock._promote_successor = lambda node_addr: iter(())


#: mutation registry: protocol-level mutations patch the controllers
#: (the sharer and GETS-fill ones, one per state-scan oracle, too),
#: the barrier ones arm a bug in the workload, and the lock-level ones
#: patch the shipped lock instance the ``lock`` scenario runs.
MUTATIONS: Dict[str, Callable[[System, Workload], None]] = {
    "skip_release_handoff": _mutate_skip_release_handoff,
    "sharer_keeps_copy": _mutate_sharer_keeps_copy,
    "gets_fill_from_memory": _mutate_gets_fill_from_memory,
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
