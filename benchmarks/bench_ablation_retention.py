"""Ablation A1 — queue retention vs. queue breakdown (paper §3.2/§3.3).

The paper presents both alternatives for handling a regular RFO hitting
a deferring owner: break the queue down (waiters squash and reissue,
possibly re-forming in a different order) or retain it (the owner loans
the line and takes it back).  This bench measures both on the workload
where the difference matters — a contended TTS lock, whose release store
is exactly the regular RFO that hits the queue.
"""

import functools

from conftest import once, publish
from repro.harness.sweep import sweep
from repro.harness.tables import render_table
from repro.workloads.micro import NullCriticalSection

VARIANTS = ["delayed", "delayed+retention", "iqolb", "iqolb+retention"]


def measure(n_processors: int = 16, n_jobs: int = 1, cache=None):
    grid = sweep(
        functools.partial(
            NullCriticalSection, acquires_per_proc=20, think_cycles=80
        ),
        VARIANTS, [n_processors], n_jobs=n_jobs, cache=cache,
    )
    return {primitive: grid.cell(primitive, n_processors) for primitive in VARIANTS}


def test_retention_ablation(benchmark, jobs, result_cache):
    results = once(benchmark, measure, n_jobs=jobs, cache=result_cache)
    rows = []
    for primitive, r in results.items():
        rows.append(
            (
                primitive,
                r.cycles,
                r.bus_transactions,
                r.stat("squashes"),
                r.stat("queue_breakdowns"),
                r.stat("loans"),
                r.stat("loan_returns"),
            )
        )
    publish(
        "ablation_retention",
        render_table(
            ["variant", "cycles", "bus txns", "squashes",
             "breakdowns", "loans", "returns"],
            rows,
            title="A1: queue retention vs breakdown (contended lock, 16p)",
        ),
    )

    delayed, delayed_ret = results["delayed"], results["delayed+retention"]
    iqolb, iqolb_ret = results["iqolb"], results["iqolb+retention"]

    # Without retention, the release store breaks the queue down; with
    # retention it becomes a loan instead.
    assert delayed.stat("squashes") > 0
    assert delayed_ret.stat("squashes") == 0
    assert delayed_ret.stat("loans") > 0
    assert delayed_ret.stat("loan_returns") > 0

    # Retention removes the re-request traffic, so for the delayed scheme
    # (which suffers a breakdown on every release) it is a clear win.
    assert delayed_ret.cycles < delayed.cycles
    assert delayed_ret.bus_transactions < delayed.bus_transactions

    # IQOLB rarely breaks down (the release usually happens while the
    # holder still owns the line), so the two variants are close — the
    # paper observed no breakdown at all in its runs (§4).
    ratio = iqolb_ret.cycles / iqolb.cycles
    assert 0.7 < ratio < 1.1
