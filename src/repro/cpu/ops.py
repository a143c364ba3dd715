"""The simulated instruction set.

Programs are Python generators that *yield* these operations and receive
each operation's result back from the processor::

    def program(api):
        value = yield Read(addr)            # load
        yield Write(addr, value + 1)        # store
        old = yield LL(lock, pc=ACQ_PC)     # load-linked
        ok = yield SC(lock, 1, pc=ACQ_PC)   # store-conditional -> bool
        yield Compute(25)                   # 25 cycles of local work
        value = yield Spin(flag, 1, pc=WAIT_PC)  # re-read until it reads 1
        yield Spin(lock, 0, pc=ACQ_PC, linked=True)  # LL until it reads 0

This mirrors the paper's methodology: an execution-driven simulator whose
ISA includes Swap, Load-Linked, Store-Conditional, EnQOLB and DeQOLB
(paper §4.1), with LL/SC semantics exactly as architected — an SC succeeds
only if no other processor wrote the linked location since the LL.

``pc`` is the (stable, synthetic) program counter of the instruction; the
IQOLB lock predictor indexes its table by the PC of the LL (paper §3.4).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

#: an accepting predicate or the single accepted value of a :class:`Spin`
Accept = Union[int, Callable[[int], bool]]


class Op:
    """Base class for simulated instructions."""

    __slots__ = ("addr", "value", "pc")

    kind = "op"
    is_memory = True

    def __init__(self, addr: int = 0, value: int = 0, pc: int = 0) -> None:
        self.addr = addr
        self.value = value
        self.pc = pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} addr={self.addr:#x} pc={self.pc}>"


class Read(Op):
    """Load a word; result is the loaded value."""

    kind = "read"

    def __init__(self, addr: int, pc: int = 0) -> None:
        super().__init__(addr=addr, pc=pc)


class Spin(Read):
    """Re-read a word until ``accept`` holds; result is the accepted value.

    One op for a whole spin loop: the processor runs it as a ``Read``
    per test (an ``LL`` per test when ``linked``), with ``pause`` cycles
    of local work between failed tests (doubling up to ``max_pause``
    when that is given).  Each test counts as the ``Read`` or ``LL`` and
    each pause as the ``Compute`` the loop would have yielded.  See
    :mod:`repro.cpu.processor` for how a spin on an unchanged L1 line
    parks.
    """

    __slots__ = ("accept", "pause", "max_pause", "kind")

    def __init__(
        self,
        addr: int,
        accept: Accept,
        pc: int = 0,
        pause: int = 0,
        max_pause: Optional[int] = None,
        linked: bool = False,
    ) -> None:
        super().__init__(addr=addr, pc=pc)
        self.accept = accept
        self.pause = pause
        self.max_pause = max_pause
        #: the controller runs each test as this kind of load
        self.kind = "ll" if linked else "read"

    @property
    def linked(self) -> bool:
        """Is each test a load-linked?"""
        return self.kind == "ll"

    def accepts(self, value: int) -> bool:
        accept = self.accept
        if callable(accept):
            return accept(value)
        return value == accept


class Write(Op):
    """Store a word; result is None."""

    kind = "write"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        super().__init__(addr=addr, value=value, pc=pc)


class LL(Op):
    """Load-linked: load a word and set the link flag; result is the value."""

    kind = "ll"

    def __init__(self, addr: int, pc: int = 0) -> None:
        super().__init__(addr=addr, pc=pc)


class SC(Op):
    """Store-conditional; result is True on success, False on failure."""

    kind = "sc"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        super().__init__(addr=addr, value=value, pc=pc)


class Swap(Op):
    """Atomic swap; result is the previous memory value."""

    kind = "swap"

    def __init__(self, addr: int, value: int, pc: int = 0) -> None:
        super().__init__(addr=addr, value=value, pc=pc)


class EnQOLB(Op):
    """Explicit QOLB enqueue for a lock line (paper §2, §4.1).

    Result is the current value of the lock word (possibly from the local
    shadow copy while waiting in the hardware queue).
    """

    kind = "enqolb"

    def __init__(self, addr: int, pc: int = 0) -> None:
        super().__init__(addr=addr, pc=pc)


class DeQOLB(Op):
    """Explicit QOLB dequeue/release: hand the lock line to the successor."""

    kind = "deqolb"

    def __init__(self, addr: int, pc: int = 0) -> None:
        super().__init__(addr=addr, pc=pc)


class Compute(Op):
    """Local computation for a fixed number of cycles; result is None."""

    kind = "compute"
    is_memory = False

    def __init__(self, cycles: int) -> None:
        super().__init__(value=cycles)
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")

    @property
    def cycles(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Compute {self.cycles}>"


class Fence(Op):
    """Memory fence.

    The simulated processor is in-order with blocking memory operations
    under sequential consistency, so a fence only costs issue time; it is
    provided so lock code reads like its real counterpart.
    """

    kind = "fence"
    is_memory = False

    def __init__(self) -> None:
        super().__init__()
