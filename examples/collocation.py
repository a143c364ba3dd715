#!/usr/bin/env python3
"""Collocation: protected data in the lock's cache line (paper §2, §6).

QOLB's queue transfer carries the whole line, so collocating protected
data with the lock makes the data ride along for free — the effect the
paper's §6 proposes to generalize ("Generalized implicit QOLB").  This
example measures the same critical section with the data collocated
vs. placed in separate lines, under TTS, IQOLB and QOLB.
"""

from repro import System, SystemConfig
from repro.harness.experiment import primitive_pair
from repro.harness.tables import render_table
from repro.workloads.micro import CollocatedCriticalSection, NullCriticalSection


def run(primitive: str, collocated: bool, n_processors: int = 16) -> int:
    policy, lock_kind = primitive_pair(primitive)
    system = System(SystemConfig(n_processors=n_processors, policy=policy))
    if collocated:
        workload = CollocatedCriticalSection(
            lock_kind=lock_kind, acquires_per_proc=15, think_cycles=80
        )
    else:
        workload = NullCriticalSection(
            lock_kind=lock_kind, acquires_per_proc=15, think_cycles=80
        )
    workload.build(system)
    cycles = system.run()
    workload.verify(system)
    return cycles


def main() -> None:
    rows = []
    for primitive in ("tts", "iqolb", "qolb"):
        separate = run(primitive, collocated=False)
        collocated = run(primitive, collocated=True)
        rows.append(
            (
                primitive,
                separate,
                collocated,
                f"{separate / collocated:.2f}x",
            )
        )
    print(
        render_table(
            ["primitive", "separate-line CS", "collocated CS", "benefit"],
            rows,
            title="Collocation benefit, 16 processors (cycles, lower is better)",
        )
    )
    print(
        "\nQueue-based primitives turn collocation into a free ride for the\n"
        "protected data; TTS barely benefits because the line ping-pongs\n"
        "during the spin anyway."
    )


if __name__ == "__main__":
    main()
