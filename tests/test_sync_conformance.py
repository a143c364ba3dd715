"""Cross-primitive lock conformance suite.

Registry-parameterized: every primitive in
:data:`repro.core.registry.PRIMITIVE_SPECS` is swept over both
coherence fabrics, so registering a primitive (the qcore compositions,
reciprocating, fissile, or anything later) buys it this contract
automatically:

* **mutual exclusion** — an in-process :class:`GrantOrderMonitor`
  raises the instant two threads overlap in the critical section, a
  token word catches lost updates at the end, and every lock must be
  back to free (its ``is_free``) once all threads finished;
* **grant order** — the same monitor reads each thread's splice off the
  telemetry stream, and for primitives whose spec claims FIFO every
  entry must follow splice order, under every schedule below;
* **release hand-off** — back-to-back acquire/release pairs with zero
  think time hand the lock off exactly once per release (entry count ==
  release count, no duplicate or lost wake-up);
* **FIFO where claimed** — primitives whose spec claims FIFO grant in
  arrival order under well-separated arrivals; non-FIFO primitives
  (reciprocating's palindromic admission, fissile's bounded barging)
  are exempt by their spec, not by a hand-kept list;
* **starvation freedom under bounded schedules** — Hypothesis drives
  randomized think times and staggered arrivals; every thread must
  finish its fixed quota of acquires (the suite's pinned profile keeps
  the example budget small enough for CI).
"""

import pytest
from hypothesis import given, strategies as st

from conftest import build_system, prop_settings, run_programs
from repro.check.oracles import GrantOrderMonitor, OracleSink
from repro.core.registry import PRIMITIVE_SPECS
from repro.cpu.ops import Compute, Read, Write
from repro.telemetry.tracer import TraceDispatcher
from repro.workloads.base import LOCK_CLASSES, LockSet

PRIMITIVE_NAMES = list(PRIMITIVE_SPECS)

FIFO_PRIMITIVES = [
    name for name, spec in PRIMITIVE_SPECS.items() if spec.fifo
]


def test_registry_covers_every_lock_kind():
    """Loud coverage guard: a primitive registered with a lock kind the
    workloads cannot build must fail here, not vanish from the sweep.
    The kind table is keyed on each lock class's own name."""
    missing = {
        spec.lock_kind for spec in PRIMITIVE_SPECS.values()
    } - set(LOCK_CLASSES)
    assert not missing, (
        f"registered primitives with no lock class: {missing}"
    )
    assert all(name == cls.name for name, cls in LOCK_CLASSES.items())


def _contended_run(
    primitive,
    interconnect,
    n_threads,
    acquires,
    think_cycles,
    staggers=None,
):
    """Run ``n_threads`` contending on one lock; returns the monitor and
    the final token value (expected ``n_threads * acquires``)."""
    spec = PRIMITIVE_SPECS[primitive]
    system = build_system(
        n_threads, spec.policy, interconnect=interconnect
    )
    lockset = LockSet(spec.lock_kind, system, 1, n_threads)
    token = system.layout.alloc_line()
    monitor = GrantOrderMonitor(fifo=spec.fifo)
    monitor.bind(system, system.amap.line_addr(lockset.lock_addr(0)))
    system.attach_telemetry(TraceDispatcher([OracleSink([monitor])]))

    def worker(tid):
        if staggers is not None:
            yield Compute(staggers[tid])
        for _ in range(acquires):
            monitor.arrive(tid)
            yield from lockset.acquire(0, tid)
            monitor.enter(tid)
            value = yield Read(token)
            yield Write(token, value + 1)
            monitor.exit(tid)
            yield from lockset.release(0, tid)
            yield Compute(think_cycles)

    run_programs(system, [worker(t) for t in range(n_threads)])
    assert lockset.lock(0).is_free(system.read_word), (
        f"{primitive} lock not free after all releases"
    )
    return monitor, system.read_word(token)


@pytest.mark.parametrize("primitive", PRIMITIVE_NAMES)
class TestConformance:
    def test_mutual_exclusion(self, primitive, interconnect):
        n, acquires = 4, 3
        monitor, token = _contended_run(
            primitive, interconnect, n, acquires, think_cycles=25
        )
        assert token == n * acquires
        assert monitor.entries == n * acquires
        assert not monitor.inside

    def test_release_handoff_exactly_once(self, primitive, interconnect):
        """Zero think time: every release immediately feeds the next
        waiter; a dropped or doubled hand-off shows up as a hung run,
        a short entry count, or a monitor overlap."""
        n, acquires = 3, 4
        monitor, token = _contended_run(
            primitive, interconnect, n, acquires, think_cycles=0
        )
        assert token == n * acquires
        assert monitor.entries == n * acquires


@pytest.mark.parametrize("primitive", FIFO_PRIMITIVES)
def test_fifo_grant_order_where_claimed(primitive, interconnect):
    """Primitives whose spec claims FIFO must grant in arrival order
    when arrivals are separated far beyond any fabric reordering."""
    spec = PRIMITIVE_SPECS[primitive]
    n = 3
    system = build_system(n, spec.policy, interconnect=interconnect)
    lockset = LockSet(spec.lock_kind, system, 1, n)
    granted = []

    def worker(tid):
        yield Compute(1 + tid * 600)
        yield from lockset.acquire(0, tid)
        granted.append(tid)
        yield Compute(2200)  # hold long enough that all others queue
        yield from lockset.release(0, tid)

    run_programs(system, [worker(t) for t in range(n)])
    assert granted == list(range(n)), (
        f"{primitive} claims FIFO but granted {granted}"
    )


@pytest.mark.parametrize("primitive", PRIMITIVE_NAMES)
class TestStarvationFreedom:
    @prop_settings
    @given(
        think=st.integers(min_value=0, max_value=120),
        staggers=st.lists(
            st.integers(min_value=0, max_value=300),
            min_size=3,
            max_size=3,
        ),
    )
    def test_bounded_schedules_all_threads_finish(
        self, primitive, interconnect, think, staggers
    ):
        """Under randomized bounded schedules every thread completes its
        quota — a starved waiter would stall the run at ``max_cycles``
        and fail the token count."""
        n, acquires = 3, 2
        monitor, token = _contended_run(
            primitive,
            interconnect,
            n,
            acquires,
            think_cycles=think,
            staggers=staggers,
        )
        assert token == n * acquires
        assert monitor.entries == n * acquires
