"""Message and transaction types for the bus and data network.

The address bus carries :class:`BusTransaction` broadcasts; the crossbar
carries :class:`DataMessage` point-to-point responses.  LPRFO — the
low-priority read-for-ownership introduced in paper §3.2 — is a first-class
bus operation: it is an RFO whose response the owner may defer for a
bounded time, and whose broadcast is what lets every controller build the
distributed queue of waiting requestors.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional


class BusOp(enum.Enum):
    """Address-bus transaction types."""

    GETS = "GetS"          # read, shared permission
    GETX = "GetX"          # read for ownership (RFO), high priority
    UPGRADE = "Upgrade"    # S -> M permission, no data needed
    LPRFO = "LPRFO"        # low-priority read-for-ownership (paper 3.2)
    QOLB_ENQ = "QolbEnq"   # explicit QOLB enqueue (EnQOLB instruction)
    WRITEBACK = "WB"       # dirty eviction to memory

    def __repr__(self) -> str:
        return self.value


#: Bus operations that move a cache line to the requester.
DATA_OPS = frozenset({BusOp.GETS, BusOp.GETX, BusOp.LPRFO, BusOp.QOLB_ENQ})

#: Bus operations whose response the owner may legally defer.
DEFERRABLE_OPS = frozenset({BusOp.LPRFO, BusOp.QOLB_ENQ})


class BusTransaction:
    """One address-bus broadcast.

    ``op`` may be rewritten by the requester while the transaction is still
    queued (an UPGRADE whose shared copy gets invalidated before issue must
    become a GETX) — the bus reads ``op`` at issue time.
    """

    _next_id = 0

    __slots__ = (
        "txn_id",
        "op",
        "line_addr",
        "requester",
        "request_time",
        "issue_time",
        "data",
        "cancelled",
        "retries",
    )

    def __init__(self, op: BusOp, line_addr: int, requester: int) -> None:
        # Provisional id; the bus re-stamps a per-run sequence number at
        # first request() so ids are deterministic run to run.
        self.txn_id = BusTransaction._next_id
        BusTransaction._next_id += 1
        self.op = op
        self.line_addr = line_addr
        self.requester = requester
        self.request_time: Optional[int] = None  # stamped at bus.request()
        self.issue_time: Optional[int] = None
        self.data: Optional[List[int]] = None  # payload for writebacks
        #: set by the requester to withdraw a queued transaction (e.g. an
        #: UPGRADE whose SC already failed); the bus drops it at issue time.
        self.cancelled = False
        #: times this transaction was NACKed and reissued
        self.retries = 0

    def trace(
        self,
        tracer: Callable[..., None],
        time: int,
        supplier: Optional[int],
        shared: bool,
        deferred: bool,
    ) -> None:
        """Emit the resolved transaction as a ``bus:<op>`` event, on the
        requester's track, whichever fabric resolved it."""
        tracer(
            f"bus:{self.op.value}",
            time,
            self.requester,
            self.line_addr,
            {
                "txn_id": self.txn_id,
                "supplier": supplier,
                "shared": shared,
                "deferred": deferred,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Txn#{self.txn_id} {self.op.value} {self.line_addr:#x} "
            f"from P{self.requester}>"
        )


class SnoopReply:
    """One controller's reaction to a snooped transaction.

    ``supply``: I own the line and will send data promptly (unique).
    ``defer``: the response is delayed — either I am the deferring owner,
    or I am a queued waiter and the distributed queue will eventually
    serve this requestor.  Multiple nodes may defer; any defer suppresses
    the memory supply.
    ``retry``: the line is in flight (hand-off, loan return); the bus must
    reissue this transaction shortly — the NACK/retry of real snooping
    buses.  Ignored when some node supplies.
    ``shared``: I retain a shared copy.
    """

    __slots__ = ("supply", "defer", "shared", "retry")

    def __init__(
        self,
        supply: bool = False,
        defer: bool = False,
        shared: bool = False,
        retry: bool = False,
    ) -> None:
        self.supply = supply
        self.defer = defer
        self.shared = shared
        self.retry = retry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [
            name
            for name in ("supply", "defer", "shared", "retry")
            if getattr(self, name)
        ]
        return f"<Snoop {' '.join(flags) or 'ignore'}>"


#: The reply of a node that holds no state at all for the line: no copy,
#: no MSHR, no obligation, nothing lent or pushed.  It reads as an empty
#: reply; the bus also takes it as the signal to stop snooping that node
#: for the line until the node registers again (``note_holder``).
NO_STATE = SnoopReply()


class DataKind(enum.Enum):
    """Kinds of crossbar messages."""

    LINE = "line"            # full line with a coherence grant
    TEAROFF = "tearoff"      # speculative value, no ownership (paper 3.3)
    LOAN_RETURN = "loanret"  # borrowed line returned (queue retention)
    PUSH = "push"            # protected-data forward (Generalized IQOLB, paper 6)
    PUSH_ACK = "pushack"     # receipt acknowledgement for a PUSH

    def __repr__(self) -> str:
        return self.value


class GrantState(enum.Enum):
    """Coherence permission carried by a LINE message."""

    SHARED = "S"
    EXCLUSIVE = "E"

    def __repr__(self) -> str:
        return self.value


class DataMessage:
    """A point-to-point response on the data network."""

    __slots__ = (
        "kind",
        "line_addr",
        "src",
        "dst",
        "data",
        "grant",
        "loan",
        "txn_id",
    )

    def __init__(
        self,
        kind: DataKind,
        line_addr: int,
        src: int,
        dst: int,
        data: Optional[List[int]] = None,
        grant: Optional[GrantState] = None,
        loan: bool = False,
        txn_id: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.line_addr = line_addr
        self.src = src
        self.dst = dst
        self.data = data
        self.grant = grant
        #: the bus transaction this message answers; None for distributed-
        #: queue chain transfers (hand-offs, eviction transfers).  The
        #: receiver drops responses whose txn_id no longer matches its
        #: MSHR — stale answers to superseded requests must not install.
        self.txn_id = txn_id
        #: queue-retention marker: receiver must return ownership to ``src``
        #: immediately after its write completes (paper 3.2/3.3).
        self.loan = loan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Data {self.kind.value} {self.line_addr:#x} "
            f"P{self.src}->P{self.dst}>"
        )


#: Pseudo node id used as the source of memory-supplied data.
MEMORY_NODE = -1
