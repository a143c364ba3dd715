"""Implicit QOLB (paper §3.3–3.4) — the paper's primary contribution.

IQOLB extends the delayed-response scheme with speculation on *how* the
LL/SC sequence is being used:

* if the LL's PC is predicted to be a **lock acquire**, the owner holds
  the line past its SC, all the way to the **release store**, and answers
  waiting requestors with **tear-off copies** so they spin locally — a
  hardware queue-based lock with one line transfer per acquire/release
  pair, and no software or ISA change;
* otherwise the sequence is treated as a plain **Fetch&Phi** and the line
  is forwarded as soon as the SC completes (the delayed-response
  behaviour).

In the simulator a queued waiter's LL loop parks on its tear-off
(:mod:`repro.cpu.processor`): no snoop changes a tear-off, so the loop
sleeps until its node installs a line or the MSHR holding its queue
place closes, and its skipped LLs are charged on waking.

Training follows §3.4: a successful LL/SC to an address followed some
time later by a plain store to the same address marks the LL's PC as a
lock; the held-lock table recognizes the release store and keeps writes
to collocated data from being misread as releases; timeouts while holding
feed the accuracy counter that disables pathological entries.
"""

from __future__ import annotations

from typing import Optional

from repro.core.delayed import DelayedResponsePolicy
from repro.core.policy import SUPPLY_NOW, DeferDecision
from repro.core.predictor import HeldLockTable, LockPredictor
from repro.interconnect.messages import BusTransaction
from repro.mem.line import CacheLine

#: Data lines Generalized IQOLB remembers per lock; the oldest goes first.
PROTECTED_CAPACITY = 4


class IqolbPolicy(DelayedResponsePolicy):
    """Delayed response + speculation on LL/SC use (Implicit QOLB)."""

    name = "iqolb"
    #: Deferral bound while a lock is held: must comfortably cover the
    #: small, lowest-level critical sections the speculation targets.
    timeout_cycles: Optional[int] = 5_000

    def __init__(self, timeout_cycles: Optional[int] = None) -> None:
        super().__init__(timeout_cycles)
        self.predictor = LockPredictor()
        self.held: Optional[HeldLockTable] = None  # built at bind (needs amap)

    def bind(self, ctrl) -> None:  # type: ignore[override]
        super().bind(ctrl)
        self.held = HeldLockTable(ctrl.amap)

    # ------------------------------------------------------------------
    # Snoop side
    # ------------------------------------------------------------------
    def _held_lock_in_line(self, line_addr: int) -> bool:
        """A *predicted* lock in this line is currently held.

        Held-table entries whose PC has not (yet) been classified as a
        lock exist only for training — a plain Fetch&Phi must not be
        treated as held, or its line would sit waiting for a release
        store that never comes (and would only move on a timeout).
        """
        assert self.held is not None
        entry = self.held.lookup_line(line_addr)
        return entry is not None and self.predictor.predict_lock(entry.pc)

    def should_defer(self, txn: BusTransaction, line: CacheLine) -> DeferDecision:
        ctrl = self.ctrl
        assert ctrl is not None and self.held is not None
        line_addr = txn.line_addr
        if line_addr in ctrl.obligations:
            # Already deferring this line; later requestors chain behind
            # the queue but still receive a tear-off to spin on.
            return DeferDecision(
                defer=True, tearoff=self._held_lock_in_line(line_addr)
            )
        if self._held_lock_in_line(line_addr):
            # We hold a lock in this line: delay until the release store
            # and hand the requestor a tear-off copy (paper §3.3).
            return DeferDecision(defer=True, tearoff=True)
        if ctrl.link_valid and ctrl.amap.line_addr(ctrl.link_addr) == line_addr:
            # Our own LL/SC is in flight.  Predict its use: a lock acquire
            # will be held through the critical section (tear-off); a
            # Fetch&Phi forwards right after the SC (no tear-off).
            is_lock = self.predictor.predict_lock(ctrl.current_ll_pc)
            self.trace(
                "predict",
                line_addr,
                pc=ctrl.current_ll_pc,
                lock=is_lock,
                site="defer",
            )
            return DeferDecision(defer=True, tearoff=is_lock)
        return SUPPLY_NOW

    def tearoff_for_read(self, line_addr: int) -> bool:
        # Reads of a held lock are speculatively satisfied with tear-offs
        # so readers need not join the queue (paper §3.3).
        return self._held_lock_in_line(line_addr)

    # ------------------------------------------------------------------
    # Release points
    # ------------------------------------------------------------------
    def on_sc_success(self, addr: int, pc: int) -> bool:
        ctrl = self.ctrl
        assert ctrl is not None and self.held is not None
        # Track the successful RMW so a future store to the same address
        # is recognized as a release (this is also how training happens
        # on the very first encounter, paper §3.4).
        discarded = self.held.insert(addr, pc, ctrl.sim.now)
        if discarded is not None:
            ctrl.stats.counter(f"ctrl{ctrl.node_id}.held_discards").inc()
        is_lock = self.predictor.predict_lock(pc)
        self.trace(
            "predict",
            ctrl.amap.line_addr(addr),
            pc=pc,
            lock=is_lock,
            site="sc",
        )
        if is_lock:
            # Predicted lock acquire: keep the line; delay requestors
            # until the release store.
            return False
        # Predicted Fetch&Phi: forward the queue now.
        return True

    def on_store_complete(self, addr: int, pc: int) -> bool:
        assert self.held is not None and self.ctrl is not None
        entry = self.held.release(addr)
        if entry is None:
            return False
        # A store to a previously RMW-ed address: this is a lock release.
        if entry.timed_out:
            # The speculative hold expired before this release arrived; it
            # already counted as a misprediction and the late release does
            # not redeem it.
            pass
        elif self.predictor.predict_lock(entry.pc):
            self.predictor.record_correct(entry.pc)
        else:
            self.predictor.train_lock(entry.pc)
        return True

    def on_timeout(self, line_addr: int) -> None:
        # A timeout fired while we held a lock in this line: the critical
        # section outlived the deferral bound — count it against the
        # predictor entry that put us here (the pathological-case detector
        # of paper §3.4).
        assert self.held is not None
        entry = self.held.lookup_line(line_addr)
        if entry is not None:
            entry.timed_out = True
            self.predictor.record_misprediction(entry.pc)


class IqolbRetentionPolicy(IqolbPolicy):
    """IQOLB whose queue survives regular RFOs (paper §3.3)."""

    name = "iqolb+retention"
    queue_retention = True
    fifo_handoff = True


class GeneralizedIqolbPolicy(IqolbPolicy):
    """Generalized IQOLB (paper §6): learn which data lines each critical
    section writes and forward them with the lock."""

    name = "iqolb+gen"

    def __init__(self, timeout_cycles: Optional[int] = None) -> None:
        super().__init__(timeout_cycles)
        #: learned lock-word -> recently written data lines (insertion order)
        self._protected: dict = {}
        #: set during a release so the controller can ask what to push
        self._releasing_word: Optional[int] = None

    def on_store_complete(self, addr: int, pc: int) -> bool:
        released = super().on_store_complete(addr, pc)
        if released:
            self._releasing_word = addr
        else:
            self._record_protected_store(addr)
        return released

    def _record_protected_store(self, addr: int) -> None:
        """Associate a CS store with the most recently acquired lock."""
        assert self.held is not None and self.ctrl is not None
        holder = self.held.most_recent()
        if holder is None:
            return
        amap = self.ctrl.amap
        data_line = amap.line_addr(addr)
        if data_line == amap.line_addr(holder.addr):
            return  # collocated data rides the lock line anyway
        lines = self._protected.setdefault(holder.addr, {})
        lines.pop(data_line, None)
        lines[data_line] = True
        while len(lines) > PROTECTED_CAPACITY:
            oldest = next(iter(lines))
            del lines[oldest]

    def protected_lines(self, lock_line: int) -> list:
        if self._releasing_word is None:
            return []
        assert self.ctrl is not None
        if self.ctrl.amap.line_addr(self._releasing_word) != lock_line:
            return []
        lines = self._protected.get(self._releasing_word, {})
        return list(lines)
