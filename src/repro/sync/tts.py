"""Test&set and test&test&set locks.

:class:`TTSLock` is the paper's base case (§4): "a simple implementation
of the test&test&set algorithm using the LL/SC primitive".  The test is
the LL itself — which is exactly what lets IQOLB speculate on it: the LL
miss becomes an LPRFO, waiting processors spin on tear-off copies, and
the line travels once per acquire/release pair.

The test loop is one linked :class:`~repro.cpu.ops.Spin`: an LL per
test and ``SPIN_PAUSE`` cycles between failed tests, run by the
processor.  A waiter whose LL hits a coherent L1 copy (TTS, adaptive)
parks there until the fabric serializes a transaction that changes the
copy.  An IQOLB waiter whose LL hit its tear-off copy parks there until
its node installs a line or the MSHR holding its queue place closes.
A delayed-response waiter behind a deferred request has no copy to hit:
each LL blocks on the MSHR (see :mod:`repro.cpu.processor`).

:class:`TSLock` is the plain swap-based test&set with optional backoff,
provided for the wider primitive comparison (paper §2 related work).
"""

from __future__ import annotations

from repro.cpu.ops import SC, Compute, Spin, Swap, Write
from repro.sync.primitives import Lock, synthetic_pc
from repro.sync.qcore import SPIN_PAUSE


class TTSLock(Lock):
    """Test&test&set built on LL/SC."""

    name = "tts"

    def __init__(self, addr: int) -> None:
        super().__init__(addr)
        self.pc_acquire = synthetic_pc("tts.acquire")
        self.pc_release = synthetic_pc("tts.release")

    def acquire(self, tid: int = 0):
        while True:
            # Spin on the LL until the lock reads free (locally, when the
            # protocol gives us a cached or tear-off copy).
            yield Spin(
                self.addr, 0, pc=self.pc_acquire, pause=SPIN_PAUSE, linked=True
            )
            ok = yield SC(self.addr, 1, pc=self.pc_acquire)
            if ok:
                return
            yield Compute(SPIN_PAUSE)

    def release(self, tid: int = 0):
        yield Write(self.addr, 0, pc=self.pc_release)


class TSLock(Lock):
    """Plain test&set via atomic swap, with exponential backoff."""

    name = "ts"

    def __init__(self, addr: int, max_backoff: int = 1024) -> None:
        super().__init__(addr)
        self.max_backoff = max_backoff
        self.pc_acquire = synthetic_pc("ts.acquire")
        self.pc_release = synthetic_pc("ts.release")

    def acquire(self, tid: int = 0):
        backoff = SPIN_PAUSE
        while True:
            old = yield Swap(self.addr, 1, pc=self.pc_acquire)
            if old == 0:
                return
            yield Compute(backoff)
            backoff = min(backoff * 2, self.max_backoff)

    def release(self, tid: int = 0):
        yield Write(self.addr, 0, pc=self.pc_release)
