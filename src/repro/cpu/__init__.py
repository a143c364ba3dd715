"""Processor model and simulated instruction set."""

from repro.cpu.ops import (
    LL,
    SC,
    Compute,
    DeQOLB,
    EnQOLB,
    Fence,
    Op,
    Read,
    Spin,
    Swap,
    Write,
)
from repro.cpu.processor import Processor
from repro.cpu.thread import Program, SimThread

__all__ = [
    "Compute",
    "DeQOLB",
    "EnQOLB",
    "Fence",
    "LL",
    "Op",
    "Processor",
    "Program",
    "Read",
    "SC",
    "SimThread",
    "Spin",
    "Swap",
    "Write",
]
