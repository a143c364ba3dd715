"""Synchronization-behaviour report for a run.

Turns a :class:`~repro.harness.experiment.RunResult` (or a live
:class:`~repro.harness.system.System`) into a human-readable breakdown
of what the protocol did: traffic by transaction type, speculation
activity (deferrals, tear-offs, hand-offs by cause), failure/retry
counts, and cache behaviour.  Used by the CLI and handy in notebooks.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.harness.experiment import RunResult
from repro.harness.tables import render_table

#: (metric label, counter suffix) of the coherence fabric's traffic;
#: the bus counts under ``bus.``, the directory under ``dir.``
_TRAFFIC: List[Tuple[str, str]] = [
    ("total transactions", "transactions"),
    ("GetS (read shared)", "GetS"),
    ("GetX (RFO)", "GetX"),
    ("Upgrade", "Upgrade"),
    ("LPRFO (low-priority RFO)", "LPRFO"),
    ("QOLB enqueue", "QolbEnq"),
    ("writebacks", "WB"),
    ("NACK/retries", "retries"),
    ("memory supplies", "memory_supplies"),
]

#: (section, metric label, per-node counter suffix)
_LAYOUT: List[Tuple[str, str, str]] = [
    ("speculation", "deferrals", "deferrals"),
    ("speculation", "tear-offs sent", "tearoffs_sent"),
    ("speculation", "hand-offs (total)", "handoffs"),
    ("speculation", "  at SC (Fetch&Phi)", "handoff_sc"),
    ("speculation", "  at release store (lock)", "handoff_release"),
    ("speculation", "  at DeQOLB", "handoff_deqolb"),
    ("speculation", "  at timeout", "handoff_timeout"),
    ("speculation", "eviction hand-offs", "evict_handoffs"),
    ("speculation", "queue breakdowns", "queue_breakdowns"),
    ("speculation", "squash+reissue", "squashes"),
    ("speculation", "loans / returns", "loans"),
    ("speculation", "data pushes (gen. IQOLB)", "pushes_sent"),
    ("speculation", "releases recognized", "releases_detected"),
    ("LL/SC", "LL executed", "ll_ops"),
    ("LL/SC", "SC attempts", "sc_attempts"),
    ("LL/SC", "SC failures", "sc_fail"),
    ("caches", "L1 hits", "l1_hits"),
    ("caches", "L2 hits", "l2_hits"),
    ("caches", "misses", "misses"),
    ("caches", "L2 evictions", "l2_evictions"),
]


def report_rows(result: RunResult) -> List[Tuple[str, str, int]]:
    """(section, label, value) rows, zero rows skipped."""
    if "dir.transactions" in result.stats:
        prefix, traffic = "dir", "directory traffic"
    else:
        prefix, traffic = "bus", "bus traffic"
    rows = [
        (traffic, label, result.stats.get(f"{prefix}.{suffix}", 0))
        for label, suffix in _TRAFFIC
    ]
    rows += [
        (section, label, result.stat(suffix))
        for section, label, suffix in _LAYOUT
    ]
    return [row for row in rows if row[2]]


def histogram_rows(result: RunResult) -> List[Tuple]:
    """Percentile rows for each non-empty latency histogram."""
    rows = []
    for name, digest in sorted((result.histograms or {}).items()):
        if "count" not in digest or not digest["count"]:
            continue  # empty, or a windowed-counter digest
        rows.append(
            (
                name,
                digest["count"],
                digest["min"],
                f"{digest['mean']:.1f}",
                digest["p50"],
                digest["p90"],
                digest["p99"],
                digest["max"],
            )
        )
    return rows


def render_report(result: RunResult) -> str:
    """A full text report for one run."""
    header = (
        f"{result.workload} on {result.primitive}, "
        f"{result.n_processors} processors: {result.cycles} cycles"
    )
    table = render_table(
        ["section", "metric", "count"],
        report_rows(result),
        title=header,
    )
    lines = [table]
    latency_rows = histogram_rows(result)
    if latency_rows:
        lines.extend(
            [
                "",
                render_table(
                    ["histogram", "n", "min", "mean", "p50", "p90", "p99",
                     "max"],
                    latency_rows,
                    title="latency distributions (cycles)",
                ),
            ]
        )
    derived = _derived_metrics(result)
    lines.extend(["", "derived:"])
    lines.extend(f"  {name}: {value}" for name, value in derived)
    return "\n".join(lines)


def _derived_metrics(result: RunResult) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    attempts = result.stat("sc_attempts")
    if attempts:
        failure_rate = result.stat("sc_fail") / attempts
        out.append(("SC failure rate", f"{failure_rate:.1%}"))
    handoffs = result.stat("handoffs")
    if handoffs:
        out.append(
            ("cycles per hand-off", f"{result.cycles / handoffs:.0f}")
        )
    txns = result.bus_transactions
    if txns:
        out.append(
            ("cycles per bus transaction", f"{result.cycles / txns:.0f}")
        )
    hits = result.stat("l1_hits") + result.stat("l2_hits")
    misses = result.stat("misses")
    if hits + misses:
        out.append(("cache hit rate", f"{hits / (hits + misses):.1%}"))
    if result.wall_time_s:
        out.append(("host wall time", f"{result.wall_time_s:.3f}s"))
        out.append(
            ("simulated cycles per host second",
             f"{result.cycles / result.wall_time_s:,.0f}")
        )
    return out
