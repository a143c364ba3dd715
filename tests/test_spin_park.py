"""Parked spin loops against a reference that never parks.

A :class:`~repro.cpu.ops.Spin` loop (a ``wait_until`` loop, or TTS's
linked LL loop) whose test fails on a quiet L1 line parks: it schedules
nothing until the fabric serializes a transaction that will change its
coherent copy, its node installs a line, or the MSHR behind its
tear-off copy closes, and then charges the skipped tests
arithmetically.  ``NeverParks`` runs every test as real events, which
is the loop as it was written.  Both runs must agree on every
deterministic output -- cycles, bus transactions, every counter and
every histogram -- and the reference fires exactly the skipped events
more.
"""

import pytest

import repro.harness.experiment as experiment
from repro.check.explore import RunSpec, run_once
from repro.check.scenarios import build_scenario, install_mutation
from repro.coherence.controller import CacheController
from repro.coherence.directory import DirectoryInterconnect
from repro.core.registry import PRIMITIVE_SPECS
from repro.cpu.ops import LL, SC, Compute, Read, Write
from repro.cpu.processor import Processor
from repro.engine.event import callback_label
from repro.engine.simulator import SimulationError
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.runner import app_cell, execute_cell
from repro.harness.system import System
from repro.interconnect.bus import AddressBus, ParkedSpinners
from repro.mem.line import State
from repro.sync import qcore
from repro.sync.tts import TTSLock
from repro.workloads.micro import NullCriticalSection

SWQUEUES = ["ticket", "mcs", "anderson", "clh", "reciprocating", "fissile"]
#: primitives whose waiters spin on a coherent L1 copy of the lock line
L1_SPINNERS = ["tts", "adaptive"]
#: primitives whose queued waiters spin on tear-off copies
TEAROFF_SPINNERS = ["iqolb", "iqolb+retention", "iqolb+gen"]


class NeverParks(Processor):
    """The spin loop as written: every test is three real events."""

    def _may_park(self):
        return False


class ReferenceSystem(System):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for processor in self.processors:
            processor.__class__ = NeverParks


def _outputs(system, cycles):
    return {
        "cycles": cycles,
        "bus_transactions": system.bus_transactions(),
        "counters": system.stats.snapshot(),
        "histograms": system.stats.histogram_snapshot(),
    }


def _compare(monkeypatch, run):
    """Run ``run()`` parked, then on the reference; returns the parked
    run's system after checking the two agree."""
    built = []

    def capture(cls):
        class Captured(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        return Captured

    monkeypatch.setattr(experiment, "System", capture(System))
    parked_result = run()
    monkeypatch.setattr(experiment, "System", capture(ReferenceSystem))
    reference_result = run()
    parked, reference = built
    assert _outputs(parked, parked_result.cycles) == _outputs(
        reference, reference_result.cycles
    )
    assert reference.sim.events_skipped == 0
    assert (
        reference.sim.events_fired
        == parked.sim.events_fired + parked.sim.events_skipped
    )
    assert parked.sim.queue_high_water <= reference.sim.queue_high_water
    return parked


def _skipped_tests(system):
    return sum(processor.tests_skipped for processor in system.processors)


def _null_cs(
    primitive,
    n_processors,
    interconnect,
    acquires=20,
    think_cycles=80,
    timeout_cycles=None,
):
    spec = PRIMITIVE_SPECS[primitive]
    workload = NullCriticalSection(
        lock_kind=spec.lock_kind,
        acquires_per_proc=acquires,
        think_cycles=think_cycles,
    )
    config = SystemConfig(
        n_processors=n_processors,
        policy=spec.policy,
        interconnect=interconnect,
        timeout_cycles=timeout_cycles,
    )
    return run_workload(workload, config, primitive=primitive)


@pytest.mark.parametrize("primitive", list(PRIMITIVE_SPECS))
def test_every_primitive_matches_reference(monkeypatch, interconnect, primitive):
    """Software-queue waiters and TTS-style LL spinners on a coherent L1
    copy skip tests, and so do IQOLB's queued waiters on their tear-off
    copies (asserted at 8p below).  A delayed waiter's LL blocks on its
    deferred request's MSHR, with no copy to spin on, until the line
    arrives with the lock still held; it then spins on its own copy,
    under an obligation once a request queues behind it, and skips
    tests there."""
    parked = _compare(
        monkeypatch, lambda: _null_cs(primitive, 4, interconnect)
    )
    if PRIMITIVE_SPECS[primitive].taxonomy == "swqueue" or primitive in (
        "tts",
        "delayed",
    ):
        assert _skipped_tests(parked) > 0
    elif primitive in L1_SPINNERS:
        # At 4p on the bus every adaptive park is woken inside its first
        # test; whole tests are skipped at 8p (see below).
        assert parked.sim.events_skipped > 0


@pytest.mark.parametrize("primitive", SWQUEUES)
def test_software_queues_at_8p_match_reference(
    monkeypatch, interconnect, primitive
):
    parked = _compare(
        monkeypatch, lambda: _null_cs(primitive, 8, interconnect)
    )
    assert _skipped_tests(parked) > 0


@pytest.mark.parametrize("primitive", L1_SPINNERS)
def test_l1_spinners_at_8p_match_reference(
    monkeypatch, interconnect, primitive
):
    parked = _compare(
        monkeypatch, lambda: _null_cs(primitive, 8, interconnect)
    )
    assert _skipped_tests(parked) > 0


@pytest.mark.parametrize("primitive", TEAROFF_SPINNERS + ["qolb"])
def test_queued_waiters_at_8p_match_reference(
    monkeypatch, interconnect, primitive
):
    """IQOLB's queued waiters park on their tear-off copies and skip
    whole tests; QOLB's ``EnQOLB`` loop is not a ``Spin`` and must only
    agree.  (On the directory, iqolb+retention's queue never forms in
    this cell: one deferral, then loans, and no tear-off to spin on; its
    skipped tests are those of owners spinning under an obligation.)"""
    parked = _compare(
        monkeypatch, lambda: _null_cs(primitive, 8, interconnect)
    )
    if primitive in TEAROFF_SPINNERS:
        tearoffs = sum(
            value
            for name, value in parked.stats.snapshot().items()
            if name.endswith(".tearoffs_received")
        )
        assert _skipped_tests(parked) > 0
        assert tearoffs > 0 or primitive == "iqolb+retention"


#: the policies whose owners defer requests under an obligation
DEFERRING = ["delayed", "delayed+retention", "iqolb", "iqolb+retention"]


def _watch_obligated_parks(monkeypatch):
    """Count the parks on a copy the node owns under an obligation, and
    the tests they skip; returns the live counts."""
    seen = {"parks": 0, "tests": 0}
    obligated = set()
    original_park = CacheController.park
    original_wake = Processor.wake

    def park(self, spinner):
        if spinner.parked_line in self.obligations:
            assert self.hierarchy.peek(spinner.parked_line).is_owner
            seen["parks"] += 1
            obligated.add(spinner)
        original_park(self, spinner)

    def wake(self):
        before = self.tests_skipped
        original_wake(self)
        if self in obligated:
            obligated.discard(self)
            seen["tests"] += self.tests_skipped - before

    monkeypatch.setattr(CacheController, "park", park)
    monkeypatch.setattr(Processor, "wake", wake)
    return seen


@pytest.mark.parametrize("n_processors, timeout_cycles", [(8, 60), (16, 100)])
@pytest.mark.parametrize("primitive", DEFERRING)
def test_obligated_owners_match_reference(
    monkeypatch, interconnect, primitive, n_processors, timeout_cycles
):
    """A timeout hand-off passes a lock still held down the queue, and
    its receiver spins on its own M copy, holding an obligation and a
    successor.  It parks: the LPRFOs and QOLB_ENQs it defers meanwhile
    wake nobody, and its own timeout or discharge wakes it before the
    line moves on.  Short timeouts and 20-cycle think times make
    timeouts frequent at 8 and 16p."""
    seen = _watch_obligated_parks(monkeypatch)
    parked = _compare(
        monkeypatch,
        lambda: _null_cs(
            primitive,
            n_processors,
            interconnect,
            think_cycles=20,
            timeout_cycles=timeout_cycles,
        ),
    )
    counters = parked.stats.snapshot()
    assert sum(
        value for name, value in counters.items() if name.endswith(".timeouts")
    ) > 0
    assert seen["parks"] > 0 and seen["tests"] > 0
    if primitive.startswith("delayed"):
        assert _skipped_tests(parked) > 0


@pytest.mark.parametrize("n_processors", [8, 16])
@pytest.mark.parametrize("app", ["raytrace", "radiosity"])
def test_tts_applications_match_reference(
    monkeypatch, interconnect, app, n_processors
):
    """The lock-heavy applications under TTS, whose LL loops park on
    shared copies while other nodes' GETS refills come and go."""
    parked = _compare(
        monkeypatch,
        lambda: execute_cell(app_cell(app, "tts", n_processors, interconnect)),
    )
    assert _skipped_tests(parked) > 0


@pytest.mark.parametrize("primitive", ["tts", "iqolb"])
@pytest.mark.parametrize("app", ["barnes", "raytrace"])
def test_barrier_backoff_matches_reference(monkeypatch, app, primitive):
    """Barrier waits back off exponentially up to a cap."""
    parked = _compare(
        monkeypatch, lambda: execute_cell(app_cell(app, primitive, 8))
    )
    assert _skipped_tests(parked) > 0


# ----------------------------------------------------------------------
# Hand-built wake-ups: installs into a parked node
# ----------------------------------------------------------------------
#: one L1 set on the default 2-way, 64 KB L1 (set stride 32 KB); each
#: line sits in its own L2 set, so installs evict from the L1 only
FLAG, Z, Y1, Y2 = 0x4000, 0xC000, 0x14000, 0x1C000
LOCK, DATA1, DATA2 = 0x1000, 0x2000, 0x3000
ACQ_PC = 0x51


def _run_pair(build):
    """Build and run the parked system and the reference."""
    systems = []
    for cls in (System, ReferenceSystem):
        system = build(cls)
        systems.append((system, system.run()))
    (parked, p_cycles), (reference, r_cycles) = systems
    assert _outputs(parked, p_cycles) == _outputs(reference, r_cycles)
    assert (
        reference.sim.events_fired
        == parked.sim.events_fired + parked.sim.events_skipped
    )
    return parked


def _evicting_installs(t1, gap, interconnect):
    """P1 spins on FLAG, with Z the other line of its L1 set; two lines
    of that set are installed at P1 at ``t1`` and ``t1 + gap``."""

    def build(cls):
        system = cls(SystemConfig(n_processors=2, interconnect=interconnect))

        def setter():
            yield Compute(5000)
            yield Write(FLAG, 1)

        def spinner():
            yield Read(Z)
            yield from qcore.wait_until(FLAG, 1)

        system.load_program(0, setter())
        system.load_program(1, spinner())
        controller = system.controllers[1]
        for when, line_addr in ((t1, Y1), (t1 + gap, Y2)):
            system.sim.schedule_at(
                when,
                controller._install_line,
                line_addr,
                State.SHARED,
                system.memory.read_line(line_addr),
            )
        return system

    return build


@pytest.mark.parametrize("gap", [0, 1, 2, 28])
def test_installs_evicting_the_parked_line(interconnect, gap):
    """Back-to-back installs push FLAG out of the L1 while P1 is parked
    (the first evicts Z, the second the now-older FLAG); spread out,
    the woken loop's re-reads keep FLAG the most recently used.  The
    install times sweep a whole test period so the loop's read, its
    L1 hit and its pause each fall in the install cycle."""
    for t1 in range(2000, 2028):
        parked = _run_pair(_evicting_installs(t1, gap, interconnect))
        assert parked.processors[1].tests_skipped > 0
        if gap == 0:
            # FLAG left the L1: the next test hit in the L2
            assert parked.stats.value("cache1.l2_hits") == 1


def test_serialization_wakes_the_line_before_its_snoop(
    monkeypatch, interconnect
):
    """P1 parks on FLAG; P0's store miss opens and waits while P1 stays
    parked, and the fabric wakes P1 when it serializes the store, a
    cycle or more before the snoop reaches P1's copy."""
    parked_at_issue = []
    original_issue = CacheController._issue_bus

    def watched_issue(self, mshr):
        parked_at_issue.append(mshr.line_addr in self.bus._spinners)
        return original_issue(self, mshr)

    woken_at = []
    original_serialize = ParkedSpinners.serialize

    def watched_serialize(self, txn, node=None):
        line_addr = txn.line_addr
        before = line_addr in self._spinners
        original_serialize(self, txn, node)
        if before and line_addr not in self._spinners:
            woken_at.append(self.sim.now)

    snooped_at = []
    original_snoop = CacheController.snoop

    def watched_snoop(self, txn):
        if self.node_id == 1 and txn.line_addr == FLAG:
            assert self.spinner is None
            snooped_at.append(self.sim.now)
        return original_snoop(self, txn)

    monkeypatch.setattr(CacheController, "_issue_bus", watched_issue)
    monkeypatch.setattr(ParkedSpinners, "serialize", watched_serialize)
    monkeypatch.setattr(CacheController, "snoop", watched_snoop)
    parked = _run_pair(_evicting_installs(10**6, 0, interconnect))
    assert parked.processors[1].tests_skipped > 0
    assert any(parked_at_issue)
    assert len(woken_at) == 1 and snooped_at
    assert snooped_at[0] > woken_at[0]


@pytest.mark.parametrize("primitive", ["tts", "mcs"])
def test_dropped_serialization_wake_fails_loudly(
    monkeypatch, interconnect, primitive
):
    """Seeded mutation: one fabric counts a serialized transaction but
    wakes nobody.  The snoop that reaches the parked copy raises, naming
    the spinner and the transaction."""

    def count_only(self, txn, node=None):
        self._in_flight.setdefault(txn.line_addr, []).append((txn, node))

    fabric = AddressBus if interconnect == "bus" else DirectoryInterconnect
    monkeypatch.setattr(fabric, "serialize", count_only)
    with pytest.raises(SimulationError) as exc:
        _null_cs(primitive, 4, interconnect)
    message = str(exc.value)
    assert "parked on 0x" in message and "tests skipped" in message
    assert "<Txn#" in message and "without waking the spinner" in message


def test_mshr_closing_under_a_parked_tearoff_wakes_it(
    monkeypatch, interconnect
):
    """Seeded mutation: the MSHR behind a parked tear-off closes
    without waking the spinner.  Its LLs would have missed from then
    on, so the next wake finds the premise of the park broken and
    raises, naming the spinner.  (The first tear-off park has its MSHR
    retired 50 cycles later, with no fill.)"""
    original_park = CacheController.park
    closing = []

    def park_then_close(self, spinner):
        original_park(self, spinner)
        if self.spinner_state is State.TEAROFF and not closing:
            closing.append(self.mshrs[spinner.parked_line])
            self.sim.schedule(50, self._retire_mshr, closing[0])

    def pop_only(self, line_addr):
        self.mshrs.pop(line_addr, None)

    monkeypatch.setattr(CacheController, "park", park_then_close)
    monkeypatch.setattr(CacheController, "_close_mshr", pop_only)
    with pytest.raises(SimulationError) as exc:
        _null_cs("iqolb", 4, interconnect)
    message = str(exc.value)
    assert "parked on 0x" in message and "tests skipped" in message
    assert "its tear-off's MSHR closed without waking it" in message


def test_dropped_tearoff_install_wake_fails_loudly(monkeypatch, interconnect):
    """Seeded mutation: an install at a node parked on a tear-off does
    not wake it.  The fill that ends the wait replaces the tear-off and
    then closes its MSHR; that wake finds the copy changed and raises,
    naming the spinner."""
    original = CacheController._install_line

    def no_tearoff_wake(self, line_addr, state, data):
        if self.spinner_state is not State.TEAROFF:
            return original(self, line_addr, state, data)
        spinner, self.spinner = self.spinner, None
        try:
            return original(self, line_addr, state, data)
        finally:
            self.spinner = spinner

    monkeypatch.setattr(CacheController, "_install_line", no_tearoff_wake)
    with pytest.raises(SimulationError) as exc:
        _null_cs("iqolb", 4, interconnect)
    message = str(exc.value)
    assert "parked on 0x" in message and "tests skipped" in message
    assert "an install replaced its tear-off without waking it" in message


def _timeout_handoff(interconnect):
    """Delayed response, TTS lock: P0 holds it 5,000 cycles.  P1's
    request takes the held line and P1 spins on its M copy; P2's request
    queues behind P1, which defers it and owes P2 the line; P1's timeout
    then hands the line, lock still held, to P2."""

    def build(cls):
        system = cls(
            SystemConfig(
                n_processors=3, policy="delayed", interconnect=interconnect
            )
        )
        lock = TTSLock(LOCK)

        def holder():
            yield from lock.acquire(0)
            yield Compute(5000)
            yield from lock.release(0)

        def waiter(tid):
            yield Compute(100 * tid)
            yield from lock.acquire(tid)
            yield from lock.release(tid)

        system.load_program(0, holder())
        system.load_program(1, waiter(1))
        system.load_program(2, waiter(2))
        return system

    return build


def test_obligated_owner_wakes_on_its_own_timeout(monkeypatch, interconnect):
    """P1 parks on its M copy; P2's request wakes it (P1 owes nobody
    yet) and is deferred.  P1 parks again, now under the obligation to
    P2, and its timeout wakes it before the hand-off takes the line."""
    fired = []
    original = CacheController._timeout_fired

    def watched(self, line_addr):
        spinner = self.spinner
        parked = (
            spinner is not None
            and spinner.parked_line == line_addr
            and line_addr in self.obligations
            and self.successor.get(line_addr) == 2
        )
        skipped = 0 if spinner is None else spinner.tests_skipped
        original(self, line_addr)
        charged = 0 if spinner is None else spinner.tests_skipped - skipped
        fired.append((self.node_id, parked, self.spinner, charged))

    monkeypatch.setattr(CacheController, "_timeout_fired", watched)
    parked = _run_pair(_timeout_handoff(interconnect))
    # The parked run's first timeout is P1's, parked under the
    # obligation: it wakes P1, charging the tests it skipped, and hands
    # the line on.
    node, was_parked, spinner_after, charged = fired[0]
    assert (node, was_parked, spinner_after) == (1, True, None)
    assert charged > 0
    assert parked.stats.value("ctrl1.handoff_timeout") >= 1
    assert parked.stats.value("ctrl1.deferrals") >= 1


def _history_high_water(processor_class, fabric, primitive, n_processors):
    """The most tests and skipped runs any loop of a ladder cell keeps
    in its history at once."""
    high_water = [0]

    class Watched(processor_class):
        def _issue_test(self, spin):
            super()._issue_test(spin)
            high_water[0] = max(high_water[0], len(self._history))

        def wake(self):
            super().wake()
            high_water[0] = max(high_water[0], len(self._history))

    system = System(
        SystemConfig(
            n_processors=n_processors,
            policy=PRIMITIVE_SPECS[primitive].policy,
            interconnect=fabric,
        )
    )
    for processor in system.processors:
        processor.__class__ = Watched
    NullCriticalSection(
        lock_kind=PRIMITIVE_SPECS[primitive].lock_kind,
        acquires_per_proc=4,
        think_cycles=60,
    ).build(system)
    system.run()
    return high_water[0]


def test_spin_history_stays_bounded():
    """A loop's history is cut at the last test no tie walk can pass.
    With nothing parked a loop keeps at most its previous test and the
    one in flight; among parked IQOLB waiters at 64p a loop keeps a few
    dozen entries.  An uncut history reaches 708 entries on the parked
    cell and 593 on the reference one."""
    assert _history_high_water(Processor, "bus", "iqolb", 64) <= 64
    assert _history_high_water(NeverParks, "bus", "iqolb", 32) <= 2


def test_linked_spin_does_not_park_under_a_tracer():
    """Each LL emits an ``ll`` trace event, so a traced TTS waiter runs
    every test; a traced ``wait_until`` loop (MCS) still parks."""
    skipped, traced = {}, []
    for primitive in ("tts", "mcs"):
        spec = PRIMITIVE_SPECS[primitive]
        system = System(SystemConfig(n_processors=4, policy=spec.policy))
        for controller in system.controllers:
            controller.tracer = lambda kind, *rest: traced.append(kind)
        NullCriticalSection(
            lock_kind=spec.lock_kind, acquires_per_proc=20, think_cycles=80
        ).build(system)
        system.run()
        skipped[primitive] = system.sim.events_skipped
    assert "ll" in traced
    assert skipped["tts"] == 0 and skipped["mcs"] > 0


def test_push_lands_on_parked_node(monkeypatch):
    """Generalized IQOLB: P1 is queued for the lock (a tear-off let its
    LL complete) and parks on FLAG; P0's release pushes the lock line
    and the two lines it wrote to P1, whose installs wake it."""
    pushed_onto_parked = []
    original = CacheController._on_push

    def watched(self, msg):
        pushed_onto_parked.append(self.spinner is not None)
        return original(self, msg)

    monkeypatch.setattr(CacheController, "_on_push", watched)

    def build(cls):
        system = cls(SystemConfig(n_processors=2, policy="iqolb+gen"))

        def holder():
            # The first acquire/release trains the lock predictor.
            yield LL(LOCK, pc=ACQ_PC)
            yield SC(LOCK, 1, pc=ACQ_PC)
            yield Write(LOCK, 0)
            yield LL(LOCK, pc=ACQ_PC)
            yield SC(LOCK, 1, pc=ACQ_PC)
            yield Compute(200)
            yield Write(DATA1, 5)
            yield Write(DATA2, 6)
            yield Compute(3000)
            yield Write(LOCK, 0)
            yield Compute(3000)
            yield Write(FLAG, 1)

        def waiter():
            yield Compute(400)
            yield Read(FLAG)
            yield LL(LOCK, pc=ACQ_PC)
            yield from qcore.wait_until(FLAG, 1)

        system.load_program(0, holder())
        system.load_program(1, waiter())
        return system

    parked = _run_pair(build)
    assert parked.stats.value("ctrl1.pushes_received") == 2
    assert pushed_onto_parked[:2] == [True, True]


# ----------------------------------------------------------------------
# The checker's view of a parked loop
# ----------------------------------------------------------------------
def test_settled_view_is_the_running_loop(interconnect):
    """Stopped at any cycle, a parked loop shows the reference's op
    count and pending event (as in the checker's state fingerprint)."""
    for stop in range(2000, 2030):
        stopped = []
        for cls in (System, ReferenceSystem):
            system = _evicting_installs(10**6, 0, interconnect)(cls)
            system.sim.schedule_at(stop, lambda: None)
            for node_id in (0, 1):
                system.processors[node_id].start()
            system.sim.run(until=lambda s=system: s.sim.now >= stop)
            stopped.append(system)
        parked, reference = stopped
        assert parked.processors[1].parked_line is not None
        ops, pending = parked.processors[1].settled_view(stop)
        assert ops == reference.processors[1].thread.ops_executed
        assert sorted(
            parked.sim._queue.signature(stop) + (pending,)
        ) == sorted(reference.sim._queue.signature(stop))


# ----------------------------------------------------------------------
# A parked loop that nothing wakes
# ----------------------------------------------------------------------
def test_unwoken_parked_loop_is_a_runaway():
    """An MCS release that never opens its successor's flag: the
    successor parks for good and the queue drains.  The loop would have
    run into max_cycles; the drained queue raises the same error, with
    the parked spinner in the stuck-state digest."""
    for cls in (System, ReferenceSystem):
        built = build_scenario("lock", "mcs", "bus", 2, 2, 10_000_000, 200_000)
        system = built.system
        if cls is ReferenceSystem:
            for processor in system.processors:
                processor.__class__ = NeverParks
        install_mutation("mcs_drop_handoff", system, built.workload)
        with pytest.raises(SimulationError, match="max_cycles=200000") as exc:
            system.run()
        message = str(exc.value)
        if cls is System:
            assert "queue drained" in message
            assert "parked on 0x" in message
            assert "tests skipped)" in message
        else:
            assert "exceeded max_cycles" in message


def test_checker_reports_the_unwoken_loop():
    """The checker still classifies the drained queue as a runaway and
    its progress oracle flags the lost wake-up."""
    outcome = run_once(
        RunSpec(
            scenario="lock",
            primitive="mcs",
            interconnect="bus",
            n_processors=2,
            acquires_per_proc=2,
            mutation="mcs_drop_handoff",
            timeout_cycles=10_000_000,
            max_cycles=200_000,
        ),
        [],
    )
    assert outcome.detail.startswith("simulation would exceed max_cycles")
    assert outcome.violation["oracle"] == "progress"


# ----------------------------------------------------------------------
# Where a woken loop's event goes
# ----------------------------------------------------------------------
LOOP_EVENTS = {
    "Processor._advance",
    "CacheController.cpu_request",
    "CacheController._finish_local",
}


def _fired(monkeypatch, cls, run):
    """Every event ``run()`` fires on a ``cls`` system, as (time, label,
    node, argument count), and after each one the nodes it woke and
    every node's link register ``(link_valid, link_addr,
    current_ll_pc)``."""
    fired, after = [], []

    class Logged(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sim = self.sim
            processors = self.processors
            controllers = self.controllers
            parked = [False] * len(processors)

            def log():
                event = sim.last_event
                owner = getattr(event.callback, "__self__", None)
                fired.append(
                    (
                        event.time,
                        callback_label(event.callback),
                        getattr(owner, "node_id", None),
                        len(event.args),
                    )
                )
                woken = []
                for node, processor in enumerate(processors):
                    now_parked = processor.parked_line is not None
                    if parked[node] and not now_parked:
                        woken.append(node)
                    parked[node] = now_parked
                links = tuple(
                    (c.link_valid, c.link_addr, c.current_ll_pc)
                    for c in controllers
                )
                after.append((woken, links))

            sim.on_step = log

    monkeypatch.setattr(experiment, "System", Logged)
    run()
    return fired, after


def _assert_reference_order(monkeypatch, primitive, interconnect):
    """raytrace/``primitive``/8: the parked run fires the reference's
    events in the reference's order, less the loop events it skipped,
    and after every wake the woken node's link register is the
    reference's."""

    def run():
        return execute_cell(app_cell("raytrace", primitive, 8, interconnect))

    parked, parked_after = _fired(monkeypatch, System, run)
    reference, reference_after = _fired(monkeypatch, ReferenceSystem, run)
    kept = iter(zip(parked, parked_after))
    expected, (woken, links) = next(kept)
    wakes = 0
    for event, (_, reference_links) in zip(reference, reference_after):
        if event != expected:
            assert event[1] in LOOP_EVENTS, event
            continue
        for node in woken:
            assert links[node] == reference_links[node], (event, node)
            wakes += 1
        expected, (woken, links) = next(kept, (None, (None, None)))
    assert expected is None
    assert len(parked) < len(reference)
    assert wakes > 0


def test_woken_events_fire_in_reference_order(monkeypatch, interconnect):
    """A woken event goes behind events queued before its loop would
    have queued it, ahead of those queued after, and runs first in the
    wake cycle if queued first."""
    _assert_reference_order(monkeypatch, "mcs", interconnect)


def test_woken_ll_loops_fire_in_reference_order(monkeypatch, interconnect):
    """TTS waiters park in their LL loops: the same strict order, and a
    woken loop's link register is what its skipped LLs would have left
    (``link_valid``, ``link_addr``, ``current_ll_pc``)."""
    _assert_reference_order(monkeypatch, "tts", interconnect)


def test_woken_tearoff_loops_fire_in_reference_order(
    monkeypatch, interconnect
):
    """IQOLB waiters park on their tear-off copies: the same strict
    order, and a woken loop's link register, linked to a tear-off, is
    the reference's."""
    _assert_reference_order(monkeypatch, "iqolb", interconnect)


def test_loops_woken_together_keep_their_order(monkeypatch):
    """At 16 processors barrier waiters spin in lockstep; one release
    wakes them together, and their misses must reach the bus in the
    order their loops had (walked back to where the loops part)."""
    parked = _compare(
        monkeypatch, lambda: execute_cell(app_cell("barnes", "tts", 16))
    )
    assert _skipped_tests(parked) > 0
