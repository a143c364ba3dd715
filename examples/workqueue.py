#!/usr/bin/env python3
"""Producer/consumer work queue under each primitive.

The explicit version of the pattern that makes Raytrace and Radiosity
synchronization-bound in the paper: one bounded queue, producers pushing
task ids, consumers popping them, all serialized by one lock.  Prints
end-to-end completion time and a traffic summary per primitive, plus the
full protocol report for IQOLB.
"""

from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.harness.report import render_report
from repro.harness.tables import render_table
from repro.workloads.pipeline import ProducerConsumer


def run(primitive: str, n_processors: int = 8):
    config = SystemConfig(n_processors=n_processors)
    workload = ProducerConsumer(
        lock_kind=get_primitive(primitive).lock_kind,
        items_per_producer=15,
        queue_capacity=6,
        produce_cycles=80,
        consume_cycles=120,
    )
    return run_workload(workload, config, primitive=primitive)


def main() -> None:
    primitives = ["tts", "mcs", "delayed", "iqolb", "iqolb+gen", "qolb"]
    results = {prim: run(prim) for prim in primitives}
    base = results["tts"].cycles
    rows = [
        (
            prim,
            r.cycles,
            f"{base / r.cycles:.2f}x",
            r.bus_transactions,
            r.stat("tearoffs_sent"),
        )
        for prim, r in results.items()
    ]
    print(
        render_table(
            ["primitive", "cycles", "vs TTS", "bus txns", "tearoffs"],
            rows,
            title="Bounded work queue: 4 producers + 4 consumers, 60 items",
        )
    )
    print()
    print(render_report(results["iqolb"]))


if __name__ == "__main__":
    main()
