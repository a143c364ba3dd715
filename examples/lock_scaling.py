#!/usr/bin/env python3
"""Lock hand-off scaling: throughput of one contended lock, 2-32 CPUs.

Reproduces the classic synchronization-scaling experiment behind the
paper's motivation: as processors are added to a contended test&test&set
lock, invalidation storms make each hand-off *more* expensive, while the
queue-based schemes keep the hand-off cost flat (one line transfer).

Prints cycles-per-acquire for each primitive at each machine size.
"""

from repro import System, SystemConfig
from repro.harness.experiment import primitive_pair
from repro.harness.tables import render_table
from repro.workloads.micro import NullCriticalSection


def cycles_per_acquire(primitive: str, n_processors: int, acquires: int = 15):
    policy, lock_kind = primitive_pair(primitive)
    system = System(SystemConfig(n_processors=n_processors, policy=policy))
    workload = NullCriticalSection(
        lock_kind=lock_kind, acquires_per_proc=acquires, think_cycles=60
    )
    workload.build(system)
    cycles = system.run()
    workload.verify(system)
    return cycles / (n_processors * acquires)


def main() -> None:
    primitives = ["tts", "ticket", "mcs", "delayed", "iqolb", "qolb"]
    sizes = [2, 4, 8, 16, 32]
    rows = []
    for primitive in primitives:
        row = [primitive]
        for size in sizes:
            row.append(f"{cycles_per_acquire(primitive, size):.0f}")
        rows.append(row)
    print(
        render_table(
            ["primitive"] + [f"{s}p" for s in sizes],
            rows,
            title="Cycles per lock hand-off (null critical section)",
        )
    )
    print(
        "\nTTS degrades super-linearly with contention; the hardware-queue\n"
        "schemes (qolb, iqolb) stay nearly flat, as the paper argues."
    )


if __name__ == "__main__":
    main()
