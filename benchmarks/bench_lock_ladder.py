"""Widened lock ladder — modern software queue locks vs. the taxonomy.

The paper's ladder compares delay-insertion protocols against TTS and
the hardware queues.  This bench adds the modern software primitives
built on the qcore substrate — the reciprocating lock (single-word
palindromic admission) and the fissile lock (test&set fast path behind
an MCS anti-collapse queue) — and runs the widened ladder on **both**
fabrics at 16-128 processors, against TTS, MCS, delayed response, and
IQOLB.  It is the repo's one 16-128p lock grid.

The paper claims its mechanisms "require no changes to the processor"
and work "in systems with either a broadcast-based or a directory-based
coherence protocol" (§3.2's generality argument).  The directory half
of the ladder runs the home-node directory over the point-to-point mesh
at machine sizes the broadcast bus cannot reach, and measures both
halves of that story:

* **Taxonomy transfers.**  The ordering the paper establishes on the
  bus — baseline > delayed > IQOLB in contended-lock cost — holds
  unchanged on the directory at every size up to 128 processors: the
  distributed queue forms from home-node forwarding instead of
  observed bus order.
* **The bus saturates; the directory scales.**  IQOLB is
  network-optimal (one line transfer per hand-off), so on the bus its
  per-hand-off cost is *flat* until the broadcast medium itself
  saturates — then it cliffs (every transaction still occupies the one
  shared address bus).  On the mesh the same protocol keeps scaling:
  hand-offs ride disjoint links.

Expected shape of the software queues (the taxonomy's claim, extended):

* TTS collapses super-linearly on both fabrics (invalidation storm).
* Delayed response bounds the storm but keeps centralized spinning.
* MCS, reciprocating, and fissile — all ``swqueue`` class — track each
  other within a small factor: one software hand-off per transfer,
  regardless of which queue discipline (FIFO, palindromic, or bounded
  barging) orders the waiters.
* IQOLB (hardware queue) beats every software queue at small scale —
  the hand-off is one line transfer with no software protocol around
  it — but the measured ladder shows a **crossover**: per-hand-off
  cost for the software queues is nearly flat in machine size (the
  next holder is already spinning on its own private word), while
  IQOLB's cost grows with the fabric (and falls off the bus's known
  128p saturation cliff).  By 64 processors on the directory, and at
  the 128p bus cliff, every software queue undercuts the hardware
  queue.
"""

import functools

from conftest import once, publish, publish_metrics
from repro.core.registry import INTERCONNECTS
from repro.harness.sweep import sweep
from repro.harness.tables import render_table
from repro.workloads.micro import NullCriticalSection

SIZES = [16, 32, 64, 128]
SMOKE_SIZES = [4, 8]
PRIMS = ["tts", "delayed", "iqolb", "mcs", "reciprocating", "fissile"]
ACQUIRES = 4

factory = functools.partial(
    NullCriticalSection, acquires_per_proc=ACQUIRES, think_cycles=60
)


def measure(sizes, n_jobs=1, cache=None):
    """Per-hand-off cost for the widened ladder on both fabrics."""
    results = {}
    export = {}
    for fabric in INTERCONNECTS:
        grid = sweep(
            factory,
            PRIMS,
            sizes,
            config_overrides={"interconnect": fabric},
            n_jobs=n_jobs,
            cache=cache,
        )
        for prim in PRIMS:
            results[f"{fabric}/{prim}"] = [
                grid.cell(prim, n).cycles / (n * ACQUIRES) for n in sizes
            ]
            export.update(
                {(fabric, prim, n): grid.cell(prim, n) for n in sizes}
            )
    return results, export


def test_lock_ladder(benchmark, smoke, jobs, result_cache):
    sizes = SMOKE_SIZES if smoke else SIZES
    results, export = once(
        benchmark, measure, sizes, n_jobs=jobs, cache=result_cache
    )
    publish_metrics("lock_ladder", export, archive=True)
    rows = [
        [name] + [f"{c:.0f}" for c in cycles]
        for name, cycles in results.items()
    ]
    publish(
        "lock_ladder",
        render_table(
            ["fabric/primitive"] + [f"{s}p" for s in sizes],
            rows,
            title="Cycles per lock hand-off: widened ladder, both fabrics",
        ),
    )
    if smoke:
        assert all(all(c > 0 for c in cycles) for cycles in results.values())
        return

    for fabric in INTERCONNECTS:
        tts = results[f"{fabric}/tts"]
        delayed = results[f"{fabric}/delayed"]
        iqolb = results[f"{fabric}/iqolb"]
        mcs = results[f"{fabric}/mcs"]
        recip = results[f"{fabric}/reciprocating"]
        fissile = results[f"{fabric}/fissile"]
        queues = (mcs, recip, fissile)

        for i, n in enumerate(sizes):
            # The storm -> deferred rung holds at every size on both
            # fabrics, and deferred -> queued everywhere short of the
            # bus's known 128-processor saturation cliff (where IQOLB's
            # LPRFO traffic saturates the address bus and the hardware
            # queue's advantage inverts — see ROADMAP's PR 3 note).
            assert tts[i] > delayed[i] * 1.2
            if not (fabric == "bus" and n == 128):
                assert delayed[i] > iqolb[i] * 1.2
            # Every software queue lock escapes the TTS storm.
            for sw in queues:
                assert sw[i] < tts[i]

        # At small scale the hardware queue beats every software queue:
        # the hand-off is one line transfer with no software protocol
        # around it.
        for i, n in enumerate(sizes):
            if n <= 32:
                for sw in queues:
                    assert iqolb[i] < sw[i]
        # The crossover: software-queue hand-off cost is nearly flat in
        # machine size (the next holder already spins on its own word),
        # while IQOLB's grows with the fabric — at 128 processors every
        # software queue undercuts the hardware queue on both fabrics.
        for sw in queues:
            assert sw[-1] < iqolb[-1]

        # The swqueue class is a class: the modern locks track MCS
        # within a small factor at every machine size — the queue
        # discipline (FIFO vs. palindromic vs. bounded barging) does
        # not change the per-hand-off cost regime.
        for sw in (recip, fissile):
            for i, _n in enumerate(sizes):
                assert sw[i] < mcs[i] * 3
                assert sw[i] > mcs[i] / 3

        # Contention tolerance at scale: at 128 processors the modern
        # locks' hand-off cost stays below the *delayed* storm cost —
        # software queues beat bounded centralized spinning.
        assert recip[-1] < delayed[-1]
        assert fissile[-1] < delayed[-1]

    # IQOLB on the bus: flat while the broadcast medium has headroom...
    bus_iqolb = results["bus/iqolb"]
    dir_iqolb = results["directory/iqolb"]
    assert bus_iqolb[2] < bus_iqolb[0] * 2  # 16p -> 64p
    # ...then the bus itself saturates and the cost cliffs.
    assert bus_iqolb[3] > bus_iqolb[2] * 5  # 64p -> 128p
    # The directory has no shared medium to saturate: the same protocol
    # degrades smoothly past the bus's cliff...
    assert dir_iqolb[3] < dir_iqolb[2] * 4
    # ...and is absolutely cheaper than the saturated bus at 128p.
    assert dir_iqolb[3] < bus_iqolb[3]

    # On the bus the software queues are *flat*: one line ping-pongs
    # between two fixed nodes per hand-off, independent of machine
    # size.  (On the directory, mesh distance grows the cost ~2x from
    # 16p to 128p — still an order flatter than any spinning lock.)
    for name in ("mcs", "reciprocating", "fissile"):
        cycles = results[f"bus/{name}"]
        assert max(cycles) < min(cycles) * 1.2
