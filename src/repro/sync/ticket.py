"""Ticket lock (paper §2 related work: Mellor-Crummey & Scott).

FIFO-fair, and in the :mod:`repro.sync.qcore` decomposition the
smallest possible queue lock: a counting splice (fetch&add on
``next_ticket``), a wait on the single global grant word
(``now_serving``), and a signal bumping that word.  The global wait
word is what separates it from Anderson/MCS/CLH — every waiter spins on
the *same* line, so each hand-off invalidates all spinners (the storm
the paper's taxonomy charges to centralized spinning).

The two words get a line each, so a ticket grab does not invalidate
every spinner.
"""

from __future__ import annotations

from repro.sync import qcore
from repro.sync.primitives import Lock, synthetic_pc

SPIN_PAUSE = qcore.SPIN_PAUSE


class TicketLock(Lock):
    """FIFO ticket lock on two words."""

    name = "ticket"

    def __init__(self, ticket_addr: int, serving_addr: int) -> None:
        super().__init__(ticket_addr)
        self.ticket_addr = ticket_addr
        self.serving_addr = serving_addr
        self.pc_read = synthetic_pc("ticket.spin")
        self.pc_release = synthetic_pc("ticket.release")

    @classmethod
    def lay_out(cls, system, n_threads: int) -> TicketLock:
        layout = system.layout
        return cls(layout.alloc_line(), layout.alloc_line())

    def acquire(self, tid: int = 0):
        my_ticket = yield from qcore.splice_count(
            self.ticket_addr, "ticket.grab"
        )
        yield from qcore.wait_until(
            self.serving_addr, my_ticket, pc=self.pc_read
        )

    def is_free(self, read_word) -> bool:
        return read_word(self.ticket_addr) == read_word(self.serving_addr)

    def release(self, tid: int = 0):
        serving = yield from qcore.read_once(self.serving_addr, pc=self.pc_release)
        yield from qcore.signal(
            self.serving_addr, serving + 1, pc=self.pc_release
        )
