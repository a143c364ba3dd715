"""The memory layout every lock kind lays out through ``LockSet``.

The committed perf baselines and checker fingerprints were measured on
one layout: the lock words of a multi-lock set first, in lock order,
then the per-thread nodes of MCS and CLH.  This pins it per kind at
three (locks, threads) shapes: the line of each lock word, the next free
line, the initial memory, then the lines a short contended run touches
(from its trace), its cycles and its trace-event count.  Lines and words
count from the layout base: line ``k`` is ``base + k * line_bytes`` and
word ``w`` is ``base + 4 * w``.
"""

import pytest

from conftest import build_system, run_programs
from repro.cpu.ops import Compute, Read, Write
from repro.harness.traces import TraceRecorder
from repro.telemetry.tracer import TraceDispatcher
from repro.workloads.base import LOCK_KINDS, LockSet

BASE = 0x1_0000

#: (kind, locks, threads) -> (lock lines, next free line, initial
#: memory {word: value}, touched lines, cycles, trace events)
PINNED = {
    ("tts", 1, 3): ([0], 1, {}, [0, 2], 700, 59),
    ("tts", 3, 2): ([0, 1, 2], 3, {}, [0, 1, 2, 4, 5, 6], 1506, 132),
    ("tts", 2, 1): ([0, 1], 2, {}, [0, 1, 3, 4], 588, 24),
    ("ts", 1, 3): ([0], 1, {}, [0, 2], 1504, 77),
    ("ts", 3, 2): ([0, 1, 2], 3, {}, [0, 1, 2, 4, 5, 6], 1611, 113),
    ("ts", 2, 1): ([0, 1], 2, {}, [0, 1, 3, 4], 580, 20),
    ("ticket", 1, 3): ([0], 2, {}, [0, 1, 3], 1420, 92),
    ("ticket", 3, 2): ([0, 2, 4], 6, {}, [0, 1, 2, 3, 4, 5, 7, 8, 9], 2133, 156),
    ("ticket", 2, 1): ([0, 2], 4, {}, [0, 1, 2, 3, 5, 6], 868, 28),
    ("mcs", 1, 3): ([0], 4, {}, [0, 1, 2, 3, 5], 1610, 114),
    ("mcs", 3, 2): (
        [0, 1, 2], 9, {},
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12], 2238, 171,
    ),
    ("mcs", 2, 1): ([0, 1], 4, {}, [0, 1, 2, 3, 5, 6], 864, 36),
    ("qolb", 1, 3): ([0], 1, {}, [0, 2], 875, 73),
    ("qolb", 3, 2): ([0, 1, 2], 3, {}, [0, 1, 2, 4, 5, 6], 1410, 120),
    ("qolb", 2, 1): ([0, 1], 2, {}, [0, 1, 3, 4], 588, 24),
    ("anderson", 1, 3): ([0], 4, {16: 1}, [0, 1, 2, 3, 5], 1487, 101),
    ("anderson", 3, 2): (
        [0, 3, 6], 9, {16: 1, 64: 1, 112: 1},
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12], 2536, 189,
    ),
    ("anderson", 2, 1): ([0, 3], 6, {16: 1, 64: 1}, [0, 1, 2, 3, 4, 5, 7, 8], 1120, 36),
    ("clh", 1, 3): ([0], 5, {0: 65600}, [0, 1, 2, 3, 4, 6], 1315, 88),
    ("clh", 3, 2): (
        [0, 2, 4], 12, {0: 65600, 32: 65728, 64: 65856},
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15], 2437, 153,
    ),
    ("clh", 2, 1): (
        [0, 2], 6, {0: 65600, 32: 65728},
        [0, 1, 2, 3, 4, 5, 7, 8], 1100, 32,
    ),
    ("reciprocating", 1, 3): ([0], 4, {}, [0, 1, 2, 3, 5], 1643, 106),
    ("reciprocating", 3, 2): (
        [0, 3, 6], 9, {},
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12], 2296, 171,
    ),
    ("reciprocating", 2, 1): ([0, 2], 4, {}, [0, 1, 2, 3, 5, 6], 848, 32),
    ("fissile", 1, 3): ([0], 5, {}, [0, 1, 3, 4, 6], 1138, 77),
    ("fissile", 3, 2): ([0, 4, 8], 12, {}, [0, 1, 3, 4, 8, 13, 14, 15], 1520, 114),
    ("fissile", 2, 1): ([0, 3], 6, {}, [0, 3, 7, 8], 580, 20),
}


def _measure(kind, n_locks, n_threads):
    system = build_system(n_threads, "qolb" if kind == "qolb" else "baseline")
    line = system.amap.line_bytes
    lockset = LockSet(kind, system, n_locks, n_threads)
    next_free = system.layout.alloc_line()
    memory = {
        (addr - BASE) // 4 + i: value
        for addr in range(BASE, next_free, line)
        for i, value in enumerate(system.memory.read_line(addr))
        if value
    }
    tokens = [system.layout.alloc_line() for _ in range(n_locks)]
    recorder = TraceRecorder()
    system.attach_telemetry(TraceDispatcher([recorder]))

    def program(tid):
        for i in range(2 * n_locks):
            idx = i % n_locks
            yield from lockset.acquire(idx, tid)
            value = yield Read(tokens[idx])
            yield Write(tokens[idx], value + 1)
            yield from lockset.release(idx, tid)
            yield Compute(10)

    cycles = run_programs(system, [program(t) for t in range(n_threads)])
    touched = sorted({
        (event.line_addr - BASE) // line
        for event in recorder.events
        if event.line_addr is not None
    })
    lock_lines = [
        (lockset.lock_addr(i) - BASE) // line for i in range(n_locks)
    ]
    return (
        lock_lines,
        (next_free - BASE) // line,
        memory,
        touched,
        cycles,
        len(recorder.events),
    )


def test_every_kind_is_pinned():
    assert {kind for kind, _, _ in PINNED} == set(LOCK_KINDS)


@pytest.mark.parametrize("kind,n_locks,n_threads", sorted(PINNED))
def test_layout_and_run_match_the_pin(kind, n_locks, n_threads):
    assert _measure(kind, n_locks, n_threads) == PINNED[
        (kind, n_locks, n_threads)
    ]
