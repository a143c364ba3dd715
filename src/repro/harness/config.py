"""System configuration: the paper's Table 1, as a dataclass.

All latencies are in processor cycles, as in the paper.  The defaults
reproduce the baseline system: 64-KB 2-way L1s with 1-cycle hits, a
512-KB 4-way MOESI L2 with 6-cycle hits, a split-transaction broadcast
address bus (12-cycle access, ≤117 outstanding), a point-to-point
crossbar at 40 cycles per line transfer, 64-byte lines, and
40 + 7×4-cycle DRAM lines.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


@dataclasses.dataclass
class SystemConfig:
    """Parameters of the simulated multiprocessor (paper Table 1)."""

    n_processors: int = 32
    policy: str = "baseline"
    #: coherence fabric: broadcast snooping "bus" or home-node "directory"
    interconnect: str = "bus"

    # Cache subsystem
    line_bytes: int = 64
    l1_size_bytes: int = 64 * 1024
    l1_assoc: int = 2
    l1_hit_cycles: int = 1
    l2_size_bytes: int = 512 * 1024
    l2_assoc: int = 4
    l2_hit_cycles: int = 6

    # Memory bus / interconnect
    bus_addr_latency: int = 12
    bus_issue_interval: int = 2
    bus_max_outstanding: int = 117
    xbar_line_cycles: int = 40
    xbar_word_cycles: int = 10

    # Main memory: 8-byte wide, 40-cycle first chunk, 4-cycle subsequent
    mem_first_chunk_cycles: int = 40
    mem_next_chunk_cycles: int = 4
    mem_chunk_bytes: int = 8

    # Directory backend: 2-D mesh link timing and home-node lookup cost
    net_hop_cycles: int = 4
    net_line_ser_cycles: int = 16
    net_word_ser_cycles: int = 4
    dir_lookup_cycles: int = 6

    # Processor
    issue_overhead: int = 1

    # Policy knobs (None = policy default)
    timeout_cycles: Optional[int] = None

    # Runaway guard — turns livelock into a reportable outcome
    max_cycles: int = 500_000_000

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError(
                f"n_processors must be at least 1, got {self.n_processors}"
            )

    def policy_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments forwarded to the policy factory.

        ``timeout_cycles`` goes to every policy class that declares a
        timeout of its own (a default that is not ``None``).
        """
        from repro.core.registry import policy_class

        if (
            self.timeout_cycles is None
            or policy_class(self.policy).timeout_cycles is None
        ):
            return {}
        return {"timeout_cycles": self.timeout_cycles}

    def with_(self, **overrides: Any) -> "SystemConfig":
        """A copy with some fields replaced."""
        return dataclasses.replace(self, **overrides)


def table1_rows(config: Optional[SystemConfig] = None) -> list:
    """The rows of the paper's Table 1, generated from a live config."""
    cfg = config if config is not None else SystemConfig()
    mem_line = (
        cfg.mem_first_chunk_cycles
        + (cfg.line_bytes // cfg.mem_chunk_bytes - 1) * cfg.mem_next_chunk_cycles
    )
    return [
        ("Processor", "issue mechanism",
         "in-order, blocking memory ops (substitution; see DESIGN.md)"),
        ("Cache subsystem", "L1 data cache",
         f"{cfg.l1_size_bytes // 1024}-KB, {cfg.l1_assoc}-way, write-back, "
         f"{cfg.l1_hit_cycles}-cycle hit, MESI"),
        ("Cache subsystem", "L2 unified cache",
         f"{cfg.l2_size_bytes // 1024}-KB, {cfg.l2_assoc}-way, write-back, "
         f"{cfg.l2_hit_cycles}-cycle hit, MOESI"),
        ("Cache subsystem", "line size", f"{cfg.line_bytes} bytes"),
        ("Memory bus", "address bus",
         f"broadcast-based MOESI snooping, {cfg.bus_addr_latency}-cycle "
         f"access latency, <= {cfg.bus_max_outstanding} outstanding"),
        ("Memory bus", "data network",
         f"point-to-point crossbar, {cfg.xbar_line_cycles}-cycle latency "
         f"per cache-line transfer"),
        ("Memory", "DRAM",
         f"{cfg.mem_chunk_bytes}-byte wide, {cfg.mem_first_chunk_cycles}-cycle "
         f"first chunk, {cfg.mem_next_chunk_cycles}-cycle subsequent "
         f"({mem_line} cycles/line)"),
        ("Consistency model", "", "sequential consistency"),
    ]
