"""Composable queue-lock core: Golab's splice / wait / signal blocks.

Golab's *Deconstructing Queue-Based Mutual Exclusion* (HPL-2012-100)
shows that the queue locks of the literature — MCS, CLH, Anderson,
ticket, and their descendants — are compositions of three reusable
building blocks:

``splice``
    Atomically join the wait queue and learn your position: either a
    pointer splice (atomic ``Swap`` on a tail pointer, returning the
    predecessor — MCS, CLH, reciprocating) or a counting splice
    (``fetch&add`` on a counter, returning a ticket — Anderson, ticket).

``wait``
    Spin on one word until it reaches an accepting value.  *Where* that
    word lives is the locks' key design split: your own node (MCS), the
    predecessor's node (CLH), a ticket-indexed slot (Anderson), or a
    global grant word (ticket) — and it decides the coherence traffic a
    waiter generates, which is exactly the axis the paper's taxonomy
    measures.  The whole loop is one :class:`~repro.cpu.ops.Spin` op
    that the processor runs: a waiter whose test fails on a quiet L1
    copy parks until the fabric serializes a write to the line or its
    own caches fill, so a local spin costs no events while it waits (paper §3.3's "no
    traffic until the hand-off", for the simulator too).

``signal``
    Publish a hand-off with a plain store: open the successor's flag,
    bump the grant word, clear your own node.

Every block is a generator over the simulated ISA (:mod:`repro.cpu.ops`)
so compositions drive them with ``yield from``, and every lock in
:mod:`repro.sync` is now a thin composition over this module — including
the modern primitives (reciprocating, fissile) the original queue-lock
authors never saw.  The compositions are *op-for-op identical* to the
hand-rolled loops they replaced: the conformance and perf suites hold
cycle counts bit-identical across the refactor.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.ops import Accept, Compute, Read, Spin, Swap, Write
from repro.sync.fetchop import compare_and_swap, fetch_and_add

#: cycles of local pause between failed lock tests (branch + loop
#: cost), shared by every lock in :mod:`repro.sync` but the barrier
SPIN_PAUSE = 24


# --------------------------------------------------------------------
# splice: atomically join the queue
# --------------------------------------------------------------------

def splice_swap(tail_addr: int, node_addr: int, pc: int = 0):
    """Pointer splice: swap ``node_addr`` into the tail, return the
    predecessor (``0`` = the queue was empty and the splice acquired)."""
    predecessor = yield Swap(tail_addr, node_addr, pc=pc)
    return predecessor


def splice_count(counter_addr: int, pc_label: str):
    """Counting splice: take the next ticket with an atomic fetch&add."""
    ticket = yield from fetch_and_add(counter_addr, 1, pc_label=pc_label)
    return ticket


def unsplice(tail_addr: int, expect: int, pc_label: str):
    """Leave the queue if still its only member: one CAS attempt moving
    the tail from ``expect`` back to empty; returns True on success."""
    swapped = yield from compare_and_swap(
        tail_addr, expect, 0, pc_label=pc_label
    )
    return swapped


# --------------------------------------------------------------------
# wait: spin on one word until it accepts
# --------------------------------------------------------------------

def wait_until(
    addr: int,
    accept: Accept,
    pc: int = 0,
    pause: int = SPIN_PAUSE,
    max_pause: Optional[int] = None,
):
    """Spin-read ``addr`` until ``accept`` holds; return the accepted
    value.  ``accept`` is a value to match or a predicate.  With
    ``max_pause`` the inter-test pause backs off exponentially
    (proportional waits — barriers); otherwise it is constant.

    One :class:`~repro.cpu.ops.Spin` op: the processor runs the loop,
    each test a ``Read`` and each failed test a ``pause``, counted as
    the ``Read``/``Compute`` pairs they are.  After a test that fails
    on an L1 hit of a quiet line (no transaction that would change the
    copy in flight on the fabric, no queue, loan or push state for it
    here) the processor parks; the fabric serializing such a
    transaction, or any fill into this node's caches, wakes it at the
    exact point the loop had reached."""
    value = yield Spin(addr, accept, pc=pc, pause=pause, max_pause=max_pause)
    return value


def nonzero(value: int) -> bool:
    """The accepting predicate of set-flag and link-arrival waits."""
    return value != 0


def read_once(addr: int, pc: int = 0):
    """One read of a queue word — the non-spinning wait degenerate case
    (e.g. MCS's successor peek before deciding how to release)."""
    value = yield Read(addr, pc=pc)
    return value


def pause(cycles: int):
    """Local pause between attempts (backoff between failed grabs)."""
    yield Compute(cycles)


def grab(addr: int, pc: int = 0):
    """One test&set attempt: swap 1 into ``addr``; returns the old value
    (``0`` = the grab won).  The degenerate no-queue splice — fissile
    locks use it as the bounded-barging fast path in front of a real
    splice-based queue."""
    old = yield Swap(addr, 1, pc=pc)
    return old


# --------------------------------------------------------------------
# signal: publish a hand-off with a plain store
# --------------------------------------------------------------------

def signal(addr: int, value: int, pc: int = 0):
    """Store ``value`` to ``addr`` — open a flag, clear a node, grant a
    ticket.  Plain store: only the holder signals, so no atomicity is
    needed (the MCS/ticket release argument)."""
    yield Write(addr, value, pc=pc)
