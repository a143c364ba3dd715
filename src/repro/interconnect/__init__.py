"""Interconnect: snooping address bus, crossbar data network, messages."""

from repro.interconnect.bus import AddressBus, BusClient
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.messages import (
    DEFERRABLE_OPS,
    MEMORY_NODE,
    BusOp,
    BusTransaction,
    DataKind,
    DataMessage,
    GrantState,
    SnoopReply,
)

__all__ = [
    "AddressBus",
    "BusClient",
    "BusOp",
    "BusTransaction",
    "Crossbar",
    "DataKind",
    "DataMessage",
    "DEFERRABLE_OPS",
    "GrantState",
    "MEMORY_NODE",
    "SnoopReply",
]
