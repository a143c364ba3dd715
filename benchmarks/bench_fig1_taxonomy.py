"""Figure 1 — the method taxonomy, quantified.

The paper's Figure 1 is a chart of methods with their pros and cons.
This bench turns each frame's +/- claims into measurements on a
contended Fetch&Inc (the RMW case) and a contended lock (the lock case),
and asserts them:

* Baseline: at least one processor always succeeds, but ~2 network
  transactions per RMW update under sharing.
* Aggressive baseline: ~1 transaction per RMW, but SC failures appear
  under contention (the livelock exposure).
* Delayed response: builds a queue — deferrals observed, no SC failures.
* IQOLB: distinguishes Fetch&Phi from lock acquire/release — tear-offs
  and release-store hand-offs on the lock workload only.
"""

import dataclasses
import functools

from conftest import once, publish, publish_metrics
from repro.harness.sweep import sweep
from repro.harness.tables import render_table
from repro.workloads.micro import ContendedCounter, NullCriticalSection

POLICY_PRIMS = ["aggressive", "adaptive", "delayed", "delayed+retention",
                "iqolb", "iqolb+retention", "iqolb+gen", "qolb"]


@dataclasses.dataclass
class Row:
    primitive: str
    rmw_cycles: int
    rmw_txns_per_update: float
    rmw_sc_failures: int
    lock_cycles: int
    lock_txns_per_acquire: float
    tearoffs: int
    release_handoffs: int


def counter(lock_kind: str, increments: int) -> ContendedCounter:
    """The RMW workload; its Fetch&Inc takes no lock, so ``lock_kind``
    (the sweep's per-primitive argument) is unused."""
    return ContendedCounter(increments_per_proc=increments, think_cycles=40)


def run_all(
    n_processors: int = 16,
    increments: int = 30,
    acquires: int = 20,
    n_jobs: int = 1,
    cache=None,
):
    """(primitive -> Row, grid of every raw RunResult keyed for export)."""
    prims = ["tts"] + POLICY_PRIMS
    n = n_processors
    rmw = sweep(
        functools.partial(counter, increments=increments),
        prims, [n], n_jobs=n_jobs, cache=cache,
    )
    lock = sweep(
        functools.partial(
            NullCriticalSection, acquires_per_proc=acquires, think_cycles=80
        ),
        prims, [n], n_jobs=n_jobs, cache=cache,
    )
    rows = {}
    grid = {}
    for prim in prims:
        rmw_run, lock_run = rmw.cell(prim, n), lock.cell(prim, n)
        rows[prim] = Row(
            primitive=prim,
            rmw_cycles=rmw_run.cycles,
            rmw_txns_per_update=rmw_run.bus_transactions / (n * increments),
            rmw_sc_failures=rmw_run.stat("sc_fail"),
            lock_cycles=lock_run.cycles,
            lock_txns_per_acquire=lock_run.bus_transactions / (n * acquires),
            tearoffs=lock_run.stat("tearoffs_sent"),
            release_handoffs=lock_run.stat("handoff_release"),
        )
        grid[(prim, "rmw")] = rmw_run
        grid[(prim, "lock")] = lock_run
    return rows, grid


def test_fig1_taxonomy(benchmark, smoke, jobs, result_cache):
    scale = (4, 10, 8) if smoke else (16, 30, 20)
    rows, grid = once(
        benchmark, run_all, *scale, n_jobs=jobs, cache=result_cache
    )
    publish_metrics("fig1_taxonomy", grid)
    n_procs = scale[0]
    table = render_table(
        ["method", "RMW cyc", "txns/RMW", "SC fails",
         "lock cyc", "txns/acq", "tearoffs", "rel-handoffs"],
        [
            (
                r.primitive,
                r.rmw_cycles,
                f"{r.rmw_txns_per_update:.2f}",
                r.rmw_sc_failures,
                r.lock_cycles,
                f"{r.lock_txns_per_acquire:.2f}",
                r.tearoffs,
                r.release_handoffs,
            )
            for r in rows.values()
        ],
        title=f"Figure 1 taxonomy, quantified ({n_procs} processors)",
    )
    publish("fig1_taxonomy", table)

    if smoke:
        # End-to-end protocol sanity only; the calibrated claims below
        # hold at paper scale, not on a 4-processor smoke machine.
        assert rows["delayed"].rmw_sc_failures == 0
        assert rows["iqolb"].rmw_sc_failures == 0
        assert rows["delayed"].tearoffs == 0
        return

    base, aggr = rows["tts"], rows["aggressive"]
    delayed, iqolb = rows["delayed"], rows["iqolb"]
    adaptive = rows["adaptive"]

    # Conservative hybrid (paper §3.1): matches aggressive's single
    # transaction per RMW when speculation pays; no livelock by design
    # (a failure de-arms it), so the run completed (we are here).
    assert adaptive.rmw_txns_per_update < base.rmw_txns_per_update

    # Baseline: needs ~2 transactions per contended RMW update...
    assert base.rmw_txns_per_update > 1.5
    # ...but everyone completed (the harness would have hung otherwise).

    # Aggressive: single transaction per RMW update.
    assert aggr.rmw_txns_per_update < 1.3
    # Livelock exposure: contended SCs fail under aggressive but never
    # under the deferral schemes.
    assert delayed.rmw_sc_failures == 0
    assert iqolb.rmw_sc_failures == 0

    # Delayed response beats both baselines on the RMW workload.
    assert delayed.rmw_cycles < base.rmw_cycles
    assert delayed.rmw_cycles <= aggr.rmw_cycles * 1.05

    # IQOLB distinguishes locks: tear-offs and release hand-offs appear
    # on the lock workload; the delayed scheme never produces them.
    assert iqolb.tearoffs > 0
    assert iqolb.release_handoffs > 0
    assert delayed.tearoffs == 0
    assert delayed.release_handoffs == 0

    # And IQOLB beats delayed response on locks (the point of §3.3).
    assert iqolb.lock_cycles < delayed.lock_cycles
    # QOLB-class transaction economy.  The workload's critical section
    # touches a token in a *separate* line (2 transfers per entry), so
    # the lock line itself contributes ~1 transaction per acquire —
    # versus the baseline's invalidation storm (tens per acquire).
    assert iqolb.lock_txns_per_acquire < 5.0
    assert rows["qolb"].lock_txns_per_acquire < 4.0
    assert iqolb.lock_txns_per_acquire < base.lock_txns_per_acquire / 4
