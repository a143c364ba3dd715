"""Per-layer accounting: spans, the host-time ledger and counter ratios.

Layers are the packages under ``src/repro``.  Everything here observes
the program from outside: spans wrap the benchmark's own calls into a
layer, the host ledger folds a ``cProfile`` of the traced pass by the
package each function lives in, and the simulated ledger reads the
counters and histograms a run returns.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: the packages of ``src/repro`` the host ledger attributes time to
LAYERS = (
    "check",
    "coherence",
    "core",
    "cpu",
    "engine",
    "harness",
    "interconnect",
    "mem",
    "predict",
    "sync",
    "telemetry",
    "workloads",
)
#: the bucket for everything no layer owns (the benchmark's own code)
OTHER = "other"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """An in-memory span recorder, written out as a Chrome trace at exit.

    A span is ``(name, start, end, parent)`` in raw host seconds; ``lane``
    tells the plain pass from the profiled one.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: the pass the spans belong to (the Chrome trace's thread id)
        self.lane = 0

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        record = {
            "id": len(self.records),
            "name": name,
            "cat": name.split(".", 1)[0],
            "parent": self._stack[-1] if self._stack else None,
            "lane": self.lane,
            "start": time.perf_counter(),
            "end": None,
            "args": args,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str, lane: int) -> List[float]:
        """Raw seconds of every closed ``name`` span in ``lane``."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["lane"] == lane and r["end"] is not None
        ]

    def chrome(self, lane_names: Dict[int, str]) -> Dict[str, Any]:
        """The spans as a Chrome ``trace_event`` document (microseconds)."""
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "args": {"name": label},
            }
            for lane, label in sorted(lane_names.items())
        ]
        for r in self.records:
            if r["end"] is None:
                continue
            events.append(
                {
                    "name": r["name"],
                    "cat": r["cat"],
                    "ph": "X",
                    "ts": (r["start"] - self.origin) * 1e6,
                    "dur": (r["end"] - r["start"]) * 1e6,
                    "pid": 1,
                    "tid": r["lane"],
                    "args": dict(r["args"], id=r["id"], parent=r["parent"]),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Host ledger
# ----------------------------------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, if any."""
    parts = pathlib.PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 2 < len(parts):
            return parts[i + 1] if parts[i + 1] in LAYERS else None
    return None


FuncKey = Tuple[str, int, str]


def fold_profile(
    stats: Dict[FuncKey, Tuple],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self time and calls.

    A function inside a layer keeps its own self time.  Any other
    function (a builtin, the standard library) is charged to the layers
    that called it, in proportion to the time each caller spent in it,
    walking up through callers that are themselves outside every layer.
    What reaches no layer is the benchmark's own time (``other``).
    Call counts are exact: the calls made to each layer's functions.
    """
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner(func: FuncKey) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = layer_of(func[0])
        if layer is not None:
            owners[func] = {layer: 1.0}
            return owners[func]
        # Provisional answer while the callers resolve: a cycle among
        # non-layer functions falls back to ``other``.
        owners[func] = {OTHER: 1.0}
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {
            caller: info[2] for caller, info in callers.items() if info[2] > 0
        }
        total = sum(weights.values())
        if weights:
            share: Dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                for name, part in owner(caller).items():
                    share[name] += part * weight / total
            owners[func] = dict(share)
        return owners[func]

    self_s: Dict[str, float] = {name: 0.0 for name in LAYERS + (OTHER,)}
    calls: Dict[str, int] = {name: 0 for name in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for name, part in owner(func).items():
            self_s[name] += tt * part
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += nc
    return self_s, calls


def host_ledger(stats: Dict[FuncKey, Tuple]) -> Dict[str, float]:
    """``<layer>.host_share`` and ``<layer>.calls`` metrics."""
    self_s, calls = fold_profile(stats)
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for name in LAYERS + (OTHER,):
        out[f"{name}.host_share"] = self_s[name] / total if total > 0 else 0.0
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
    return out


# ----------------------------------------------------------------------
# Simulated ledger
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bucket_upper(index: int) -> int:
    # mirrors repro.engine.stats: bucket b > 0 holds [2^(b-1), 2^b)
    if index > 0:
        return (1 << index) - 1
    if index < 0:
        return -(1 << (-index - 1))
    return 0


def merged_percentile(digests: Iterable[Dict[str, Any]], fraction: float) -> float:
    """A percentile over several log-bucketed histogram digests.

    Uses the same estimate as ``Histogram.percentile``: the upper bound
    of the bucket holding the rank, clamped to the observed range.
    """
    buckets: Dict[int, int] = defaultdict(int)
    low: Optional[int] = None
    high: Optional[int] = None
    for digest in digests:
        if not digest.get("count"):
            continue
        for index, count in digest["buckets"].items():
            buckets[int(index)] += count
        low = digest["min"] if low is None else min(low, digest["min"])
        high = digest["max"] if high is None else max(high, digest["max"])
    count = sum(buckets.values())
    if count == 0 or low is None or high is None:
        return 0.0
    rank = fraction * count
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            return float(max(low, min(high, _bucket_upper(index))))
    return float(high)


def counter_sum(stats_list: Sequence[Dict[str, int]], suffix: str) -> int:
    """Sum a counter over cells: exact names, or per-node ``.suffix``."""
    total = 0
    for stats in stats_list:
        for name, value in stats.items():
            if name == suffix or name.endswith("." + suffix):
                total += value
    return total


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_layer_metrics(
    results: Sequence[Any],
    handoffs: Sequence[int],
    events: Sequence[int],
    high_water: Sequence[int],
) -> Dict[str, float]:
    """The simulated ledger of one pass over a workload's cells.

    ``results`` are :class:`~repro.harness.experiment.RunResult` objects;
    ``handoffs`` is each cell's lock hand-off count (its signature's
    ``total_ops``).  Ratios are taken over the whole pass.
    """
    stats = [r.stats for r in results]

    def total(name: str) -> int:
        return counter_sum(stats, name)

    def hist(name: str, fraction: float) -> float:
        return merged_percentile(
            (r.histograms[name] for r in results if name in r.histograms),
            fraction,
        )

    n_handoffs = sum(handoffs)
    cycles = sum(r.cycles for r in results)
    l1_hits = total("l1_hits")
    lookups = l1_hits + total("l2_hits") + total("misses")
    txns = total("bus.transactions") + total("dir.transactions")
    return {
        "engine.events": sum(events),
        "engine.events_per_kcycle": _ratio(sum(events), cycles / 1000.0),
        "engine.queue_high_water": max(high_water),
        "coherence.sc_success_ratio": _ratio(
            total("sc_success"), total("sc_attempts")
        ),
        "coherence.misses_per_handoff": _ratio(total("misses"), n_handoffs),
        "coherence.dir_conflicts_per_txn": _ratio(
            total("dir.line_conflicts"), total("dir.transactions")
        ),
        "coherence.dir_cancelled_per_txn": _ratio(
            total("dir.cancelled"), total("dir.transactions")
        ),
        "coherence.deferrals_per_handoff": _ratio(total("deferrals"), n_handoffs),
        "coherence.defer_cycles_p50": hist("handoff.defer_cycles", 0.50),
        "coherence.defer_cycles_p99": hist("handoff.defer_cycles", 0.99),
        "core.handoff_ratio": _ratio(total("handoffs"), total("releases_detected")),
        "core.squashes_per_handoff": _ratio(total("squashes"), n_handoffs),
        "core.queue_breakdowns": total("queue_breakdowns"),
        "core.timeouts": total("timeouts"),
        "interconnect.txn_per_handoff": _ratio(txns, n_handoffs),
        "interconnect.bus_arb_wait_p50": hist("bus.arb_wait", 0.50),
        "interconnect.bus_arb_wait_p99": hist("bus.arb_wait", 0.99),
        "interconnect.net_latency_p50": hist("net.latency", 0.50),
        "interconnect.net_latency_p99": hist("net.latency", 0.99),
        "interconnect.hops_per_msg": _ratio(total("net.hops"), total("net.messages")),
        "interconnect.xbar_queueing_p99": hist("xbar.queueing", 0.99),
        "mem.l1_hit_ratio": _ratio(l1_hits, lookups),
        "mem.misses": total("misses"),
        "cpu.ops_per_handoff": _ratio(total("ops"), n_handoffs),
        "cpu.mem_op_share": _ratio(total("mem_ops"), total("ops")),
        "sync.ll_ops_per_handoff": _ratio(total("ll_ops"), n_handoffs),
        "sim.cycles_per_handoff": geomean(
            [r.cycles / h for r, h in zip(results, handoffs)]
        ),
    }
