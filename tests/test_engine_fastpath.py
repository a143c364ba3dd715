"""Event-kernel identity suite.

The simulator has one scheduler, the calendar :class:`EventQueue`, and
two drain loops over it.  Every cycle count the repo reports depends on
the queue's ``(time, seq)`` firing order, so this suite holds
it to that contract at three levels:

* **queue level** — Hypothesis drives the queue and :class:`ModelQueue`
  (a sorted list keyed on ``(time, seq)``) through the same
  operation sequences and compares every observable (pop order, peeks,
  tied-head candidates, extraction, signatures, lengths, high-water
  marks);
* **kernel level** — random concurrent programs run on both fabrics
  through the batched hookless loop (``_run_fast``) and through the
  per-event hook loop (``_run_generic``, entered via a no-op ``on_step``
  or a tie-breaker that always takes the default candidate); cycles,
  the full counter snapshot, events fired and queue high water must match;
* **checker level** — one exploration cell's fingerprints are pinned to
  literals.

End to end, the committed golden per-cell cycles and event counts
(``results/PERF_baseline.json``, gated by ``tools/perf_gate.py``) carry
the same identity across changes.
"""

import bisect
import dataclasses
import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from conftest import small_config
from repro import System
from repro.check.explore import Budget, RunSpec, explore
from repro.cpu.ops import LL, SC, Compute, Read, Swap, Write
from repro.engine.event import EventQueue, callback_label
from repro.engine.simulator import Simulator
from repro.harness.config import SystemConfig

prop_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)


# ----------------------------------------------------------------------
# Queue level: the calendar queue against a sorted-list model
# ----------------------------------------------------------------------
def _cb_a():  # distinct callbacks so labels distinguish events
    pass


def _cb_b():
    pass


def _cb_c():
    pass


CALLBACKS = [_cb_a, _cb_b, _cb_c]


def _key(event):
    """An event's model identity: its sort key plus its callback label."""
    return (event.time, event.seq, callback_label(event.callback))


class ModelQueue:
    """The queue's ordering contract, as a sorted list of live keys."""

    def __init__(self):
        self.live, self.seq, self.high_water = [], 0, 0

    def push(self, time, callback, args=()):
        key = (time, self.seq, callback_label(callback))
        self.seq += 1
        bisect.insort(self.live, key)
        self.high_water = max(self.high_water, len(self.live))
        return key

    def pop(self):
        return self.live.pop(0) if self.live else None

    def peek_time(self):
        return self.live[0][0] if self.live else None

    def candidates(self):
        return [k for k in self.live if k[0] == self.live[0][0]]

    def cancel(self, key):
        if key in self.live:
            self.live.remove(key)

    def signature(self, now):
        return tuple(sorted((t - now, label, 0) for t, _, label in self.live))


_op = st.one_of(
    st.tuples(
        st.just("push"),
        st.integers(min_value=0, max_value=4),  # delay from last pop
        st.integers(min_value=0, max_value=2),  # callback index
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("extract"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("candidates")),
)


class TestQueueEquivalence:
    @prop_settings
    @given(ops=st.lists(_op, min_size=1, max_size=60))
    def test_mirrored_operations_agree(self, ops):
        """The queue and the model, fed the same operations, agree."""
        queue, model = EventQueue(), ModelQueue()
        pending = {}  # model key -> queue event, for not-yet-fired events
        now = 0
        for op in ops:
            if op[0] == "push":
                _, delay, cb = op
                event = queue.push(now + delay, CALLBACKS[cb])
                key = model.push(now + delay, CALLBACKS[cb])
                assert _key(event) == key
                pending[key] = event
            elif op[0] == "pop":
                event, key = queue.pop(), model.pop()
                assert (None if event is None else _key(event)) == key
                if key is not None:
                    now = key[0]
                    # Fired events may not be cancelled (kernel contract:
                    # cancellation is for *pending* events only).
                    del pending[key]
            elif op[0] == "cancel" and pending:
                key = sorted(pending)[op[1] % len(pending)]
                queue.cancel(pending[key])
                model.cancel(key)
            elif op[0] == "extract":
                ties = queue.candidates()
                assert [_key(e) for e in ties] == model.candidates()
                if ties:
                    key = _key(ties[op[1] % len(ties)])
                    assert queue.extract(pending.pop(key)) is not None
                    model.live.remove(key)
                    now = key[0]
            elif op[0] == "peek":
                assert queue.peek_time() == model.peek_time()
            elif op[0] == "candidates":
                assert [_key(e) for e in queue.candidates()] == model.candidates()
            assert len(queue) == len(model.live)
            assert bool(queue) == bool(model.live)
            assert queue.high_water == model.high_water
            assert queue.signature(now) == model.signature(now)
        # Drain whatever is left: the full firing order must agree.
        while True:
            event, key = queue.pop(), model.pop()
            assert (None if event is None else _key(event)) == key
            if key is None:
                break

    def test_demote_head_on_earlier_push(self):
        """Peeking promotes a bucket; a push at an earlier time must win."""
        q = EventQueue()
        q.push(5, _cb_a)
        assert q.peek_time() == 5  # promotes the t=5 bucket
        q.push(3, _cb_b)
        assert q.peek_time() == 3
        assert q.pop().time == 3
        assert q.pop().time == 5
        assert q.pop() is None

    def test_cancelled_tail_deletes_bucket(self):
        q = EventQueue()
        a = q.push(2, _cb_a)
        b = q.push(2, _cb_b)
        q.cancel(a)
        q.cancel(b)
        assert len(q) == 0
        assert q.pop() is None
        assert q.peek_time() is None
        q.push(4, _cb_c)
        assert q.pop().time == 4

    def test_extract_matches_reference(self):
        """Extracting a middle candidate leaves the model's order."""
        queue, model = EventQueue(), ModelQueue()
        events = [queue.push(3, cb) for cb in CALLBACKS]
        keys = [model.push(3, cb) for cb in CALLBACKS]
        queue.extract(events[1])
        model.live.remove(keys[1])
        assert [_key(e) for e in queue.candidates()] == model.candidates()
        assert _key(queue.pop()) == model.pop()
        assert _key(queue.pop()) == model.pop()
        assert queue.pop() is None and model.pop() is None


# ----------------------------------------------------------------------
# Kernel level: the batched loop against the per-event hook loop
# ----------------------------------------------------------------------
def _build_pair(n, policy, interconnect, scripts, lines_per):
    """Two identical systems running the same random programs."""
    systems = []
    for _ in range(2):
        system = System(small_config(n, policy, interconnect=interconnect))
        lines = [system.layout.alloc_line() for _ in range(lines_per)]

        def worker(tid, script, lines=lines):
            def program():
                for i, (kind, line_idx, arg) in enumerate(script):
                    addr = lines[line_idx % len(lines)]
                    if kind == "read":
                        yield Read(addr)
                    elif kind == "write":
                        yield Write(addr, tid * 1000 + i)
                    elif kind == "swap":
                        yield Swap(addr, tid * 1000 + 500 + i)
                    elif kind == "rmw":
                        while True:
                            value = yield LL(addr, pc=0x99)
                            ok = yield SC(addr, value + 1, pc=0x99)
                            if ok:
                                break
                            yield Compute(3)
                    else:
                        yield Compute(arg)
            return program()

        for node in range(n):
            system.load_program(node, worker(node, scripts[node]))
        systems.append(system)
    return systems


def _assert_same_run(a, b):
    """Cycles, every counter, events fired and queue high water agree."""
    assert a.run() == b.run()
    assert a.stats.snapshot() == b.stats.snapshot()
    assert a.sim.events_fired == b.sim.events_fired
    assert a.sim.queue_high_water == b.sim.queue_high_water


_script_op = st.tuples(
    st.sampled_from(["read", "write", "rmw", "swap", "compute"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=40),
)


def _draw_scripts(data, n, max_ops):
    return [
        data.draw(
            st.lists(_script_op, min_size=1, max_size=max_ops),
            label=f"script{t}",
        )
        for t in range(n)
    ]


class TestSystemEquivalence:
    @prop_settings
    @given(data=st.data())
    def test_random_programs_bit_identical(self, interconnect, data):
        """The hookless batched loop equals the per-event loop."""
        n = data.draw(st.integers(min_value=2, max_value=3), label="threads")
        policy = data.draw(
            st.sampled_from(["baseline", "delayed", "iqolb"]), label="policy"
        )
        scripts = _draw_scripts(data, n, 10)
        hookless, stepped = _build_pair(n, policy, interconnect, scripts, 3)
        stepped.sim.on_step = lambda: None  # forces _run_generic
        _assert_same_run(hookless, stepped)

    @prop_settings
    @given(data=st.data())
    def test_tied_head_candidates_identical(self, interconnect, data):
        """A tie-breaker that always takes candidate 0 changes nothing.

        This is the checker's configuration (tie-break hook, per-event
        loop) following the default schedule, so it must reproduce the
        hookless run exactly; every tied set it sees must share one
        time and be in seq order.
        """
        n = data.draw(st.integers(min_value=2, max_value=3), label="threads")
        scripts = _draw_scripts(data, n, 6)
        hookless, tied = _build_pair(n, "iqolb", interconnect, scripts, 2)
        seen = []

        def tie_breaker(ties):
            seen.append([_key(e) for e in ties])
            return 0  # lowest seq == the default firing order

        tied.sim.tie_breaker = tie_breaker
        _assert_same_run(hookless, tied)
        for keys in seen:
            assert len({k[0] for k in keys}) == 1
            assert [k[1] for k in keys] == sorted(k[1] for k in keys)


# ----------------------------------------------------------------------
# Checker level: pinned fingerprints
# ----------------------------------------------------------------------
class TestCheckerEquivalence:
    def test_smoke_cell_same_distinct_states(self):
        """One exhaustive exploration cell reproduces its recorded
        schedules, statuses and state-fingerprint set."""
        spec = RunSpec(
            scenario="lock",
            primitive="iqolb",
            interconnect="bus",
            n_processors=2,
            acquires_per_proc=1,
        )
        report = explore(spec, Budget(max_schedules=12, reduction="none"))
        digest = hashlib.sha256(
            "\n".join(sorted(report.state_fingerprints)).encode()
        ).hexdigest()
        assert report.schedules_run == 12
        assert report.statuses == {"finished": 12}
        assert report.distinct_states == 11
        assert digest == (
            "fa2714cfcfbcc2cce4bdd030c22eb2d413dfdba03a9ad7637b081b628755ec72"
        )
        assert not report.violations


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
class TestEngineSelection:
    """There is one kernel: nothing selects an engine any more."""

    def test_unknown_engine_rejected(self):
        """A spec saved when ``engine`` was a field names it on load."""
        data = dict(RunSpec().to_dict(), engine="fast")
        with pytest.raises(ValueError, match="'engine'.*valid fields: scenario"):
            RunSpec.from_dict(data)

    def test_config_selects_queue_class(self):
        system = System(small_config(2))
        assert type(system.sim._queue) is EventQueue
        assert "engine" not in {f.name for f in dataclasses.fields(SystemConfig)}
        assert not hasattr(Simulator(), "engine")
