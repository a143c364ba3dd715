"""Motivation study — the processor/communication performance gap.

The paper's abstract: "the ever increasing performance gap between
processor and interprocessor communication may further compromise the
scalability of these primitives."  This bench sweeps the data-network
latency (the crossbar's per-line transfer cost) and shows that the
baseline's contended-lock cost grows much faster than IQOLB's — i.e.,
the paper's mechanisms matter *more* as the gap widens.
"""

import functools

from conftest import once, publish
from repro.harness.sweep import sweep
from repro.harness.tables import render_table
from repro.workloads.micro import NullCriticalSection

LATENCIES = [20, 40, 80, 160]
#: per-link line serialization on the mesh (same 8x span as the bus
#: sweep; a transfer crosses several links, so the end-to-end line
#: latency sweeps a comparable range)
DIR_LATENCIES = [8, 16, 32, 64]
PRIMS = ["tts", "iqolb", "qolb"]

factory = functools.partial(
    NullCriticalSection, acquires_per_proc=15, think_cycles=60
)


def measure(n_processors: int = 16, n_jobs: int = 1, cache=None):
    def cycles(overrides):
        grid = sweep(
            factory, PRIMS, [n_processors], config_overrides=overrides,
            n_jobs=n_jobs, cache=cache,
        )
        return {prim: grid.cell(prim, n_processors).cycles for prim in PRIMS}

    bus = [cycles({"xbar_line_cycles": lat}) for lat in LATENCIES]
    # The same sweep on the directory fabric: the gap argument is
    # protocol-generic, so it must reproduce without a broadcast
    # medium (line serialization is the mesh's per-link analogue of
    # the crossbar's transfer cost).
    mesh = [
        cycles({"interconnect": "directory", "net_line_ser_cycles": lat})
        for lat in DIR_LATENCIES
    ]
    out = {}
    for primitive in PRIMS:
        out[primitive] = [point[primitive] for point in bus]
        out[f"dir/{primitive}"] = [point[primitive] for point in mesh]
    return out


def test_network_gap(benchmark, jobs, result_cache):
    results = once(benchmark, measure, n_jobs=jobs, cache=result_cache)
    rows = [
        [prim] + list(cycles) + [f"{cycles[-1] / cycles[0]:.2f}x"]
        for prim, cycles in results.items()
    ]
    publish(
        "network_gap",
        render_table(
            ["fabric/primitive"]
            + [f"L{i}" for i in range(len(LATENCIES))]
            + ["growth"],
            rows,
            title=(
                "Sensitivity to the data-network latency (contended lock, "
                f"16p; bus columns sweep {LATENCIES} cyc/line, dir columns "
                f"sweep {DIR_LATENCIES} cyc/link)"
            ),
        ),
    )

    for fabric in ("", "dir/"):
        tts = results[f"{fabric}tts"]
        iqolb = results[f"{fabric}iqolb"]
        qolb = results[f"{fabric}qolb"]
        # The queue-based schemes are network-optimal: one line transfer
        # per hand-off, so their cost tracks the transfer latency (and
        # IQOLB tracks QOLB throughout) — on either coherence fabric.
        for iq, q in zip(iqolb, qolb):
            assert iq / q < 1.2
        # TTS pays several transfers (plus invalidation storms) per
        # hand-off: it is multiples slower at *every* point of the sweep...
        for t, iq in zip(tts, iqolb):
            assert t / iq > 3
        # ...and the absolute cost of its extra traffic widens as the
        # processor/communication gap grows (the paper's motivation).
        assert (tts[-1] - iqolb[-1]) > (tts[0] - iqolb[0])
