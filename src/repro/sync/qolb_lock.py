"""The explicit QOLB lock (paper §2).

Acquire enqueues with ``EnQOLB`` and spins locally on the shadow copy;
the value 0 arrives together with exclusive ownership of the lock line,
which *is* the acquisition.  The holder marks the lock taken with a local
store (the line is already exclusive, so this costs nothing on the
network), and ``DeQOLB`` releases — clearing the lock word and handing
the line to the next queued processor in a single message.

Requires a system built with the ``qolb`` policy; on other policies
EnQOLB/DeQOLB behave like their bus ops but nothing defers for them.
"""

from __future__ import annotations

from repro.cpu.ops import Compute, DeQOLB, EnQOLB, Write
from repro.sync.primitives import Lock, synthetic_pc
from repro.sync.qcore import SPIN_PAUSE


class QolbLock(Lock):
    """Queue-based lock using the EnQOLB/DeQOLB instructions."""

    name = "qolb"

    def __init__(self, addr: int) -> None:
        super().__init__(addr)
        self.pc_acquire = synthetic_pc("qolb.acquire")
        self.pc_release = synthetic_pc("qolb.release")

    def acquire(self, tid: int = 0):
        while True:
            value = yield EnQOLB(self.addr, pc=self.pc_acquire)
            if value == 0:
                # The lock arrived free, with exclusive ownership; mark it
                # held (a local write — the line is ours).
                yield Write(self.addr, 1, pc=self.pc_acquire)
                return
            yield Compute(SPIN_PAUSE)

    def release(self, tid: int = 0):
        yield DeQOLB(self.addr, pc=self.pc_release)
