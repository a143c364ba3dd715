"""repro — reproduction of Rajwar, Kägi & Goodman, "Improving the
Throughput of Synchronization by Insertion of Delays" (HPCA 2000).

The package simulates a bus-based shared-memory multiprocessor and
implements the paper's full protocol taxonomy: baseline LL/SC, aggressive
baseline (RFO on LL), delayed response (± queue retention), Implicit QOLB
(± queue retention) and explicit QOLB, together with the synchronization
library, workload models and the benchmark harness that regenerates the
paper's tables and figures.

Quick start::

    from repro import System, SystemConfig
    from repro.cpu.ops import Compute, Read, Write
    from repro.sync import TTSLock

    config = SystemConfig(n_processors=4, policy="iqolb")
    system = System(config)
    lock = TTSLock(system.layout.alloc_line())
    counter = system.layout.alloc_line()

    def worker():
        for _ in range(100):
            yield from lock.acquire()
            value = yield Read(counter)
            yield Write(counter, value + 1)
            yield from lock.release()
            yield Compute(50)

    for node in range(4):
        system.load_program(node, worker())
    cycles = system.run()
"""

from repro.harness.config import SystemConfig
from repro.harness.system import System

__version__ = "1.4.0"

__all__ = ["System", "SystemConfig", "__version__"]
