"""Full-system builder: wires processors, caches, bus, crossbar, memory.

This is the top-level object most users touch::

    from repro import System, SystemConfig

    system = System(SystemConfig(n_processors=8, policy="iqolb"))
    system.load_program(0, my_program())
    ...
    cycles = system.run()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.coherence.controller import CacheController
from repro.core.registry import make_interconnect, policy_class
from repro.cpu.processor import Processor
from repro.cpu.thread import Program, SimThread
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.harness.config import SystemConfig
from repro.harness.layout import MemoryLayout
from repro.interconnect.messages import MEMORY_NODE
from repro.mem.address import AddressMap
from repro.mem.cache import CacheArray
from repro.mem.hierarchy import NodeCacheHierarchy
from repro.mem.mainmemory import MainMemory
from repro.telemetry.tracer import TraceDispatcher


class System:
    """A simulated bus-based shared-memory multiprocessor."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.sim = Simulator(max_cycles=cfg.max_cycles)
        self.stats = StatsRegistry()
        self.amap = AddressMap(cfg.line_bytes)
        self.memory = MainMemory(
            self.amap,
            first_chunk_cycles=cfg.mem_first_chunk_cycles,
            next_chunk_cycles=cfg.mem_next_chunk_cycles,
            chunk_bytes=cfg.mem_chunk_bytes,
        )
        policy_cls = policy_class(cfg.policy)
        policy_kwargs = cfg.policy_kwargs()
        # ``self.bus`` is the address-side fabric (AddressBus or
        # DirectoryInterconnect) and ``self.crossbar`` the data-side one
        # (Crossbar or MeshNetwork) — the controller-facing surfaces are
        # identical, so downstream code keeps the bus-era names.
        self.bus, self.crossbar = make_interconnect(
            cfg, self.sim, self.stats, self.memory
        )
        # Memory "port" on the data fabric: deliveries to MEMORY_NODE
        # would be writeback data; our writebacks ride the address side
        # instead, so this receiver should never fire.
        self.crossbar.attach(MEMORY_NODE, self._memory_receiver)

        self.controllers: List[CacheController] = []
        self.processors: List[Processor] = []
        for node_id in range(cfg.n_processors):
            l1 = CacheArray.from_size(cfg.l1_size_bytes, cfg.l1_assoc, cfg.line_bytes)
            l2 = CacheArray.from_size(cfg.l2_size_bytes, cfg.l2_assoc, cfg.line_bytes)
            hierarchy = NodeCacheHierarchy(
                node_id, l1, l2, cfg.l1_hit_cycles, cfg.l2_hit_cycles, self.stats
            )
            policy = policy_cls(**policy_kwargs)
            controller = CacheController(
                node_id,
                self.sim,
                self.stats,
                self.amap,
                hierarchy,
                self.bus,
                self.crossbar,
                policy,
            )
            self.bus.attach(node_id, controller)
            self.crossbar.attach(node_id, controller.on_data)
            processor = Processor(
                node_id, self.sim, self.stats, issue_overhead=cfg.issue_overhead
            )
            processor.controller = controller
            processor.on_thread_done = self._thread_done
            self.controllers.append(controller)
            self.processors.append(processor)

        self.layout = MemoryLayout(self.amap)
        self._threads: Dict[int, SimThread] = {}
        self._remaining = 0
        self._next_thread_id = 0
        self.sim.diagnostic_providers.append(self._describe_stuck_state)

    # ------------------------------------------------------------------
    # Program loading and memory initialisation
    # ------------------------------------------------------------------
    def load_program(self, node_id: int, program: Program) -> SimThread:
        """Bind a generator program to a processor."""
        if node_id in self._threads:
            raise ValueError(f"processor {node_id} already has a program")
        thread = SimThread(self._next_thread_id, program)
        self._next_thread_id += 1
        self.processors[node_id].bind(thread)
        self._threads[node_id] = thread
        return thread

    def write_word(self, addr: int, value: int) -> None:
        """Initialise shared memory before the run."""
        self.memory.write_word(addr, value)

    def read_word(self, addr: int) -> int:
        """Read memory *coherently* after (or during) a run.

        Checks cache owners first so dirty data is visible.
        """
        line_addr = self.amap.line_addr(addr)
        index = self.amap.word_index(addr)
        for controller in self.controllers:
            line = controller.hierarchy.peek(line_addr)
            if line is not None and line.is_owner:
                return line.read_word(index)
        return self.memory.read_word(addr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run every loaded program to completion; return elapsed cycles."""
        if not self._threads:
            raise RuntimeError("no programs loaded")
        self._remaining = len(self._threads)
        for node_id in self._threads:
            self.processors[node_id].start()
        self.sim.run(until=lambda: self._remaining == 0)
        if self._remaining:
            raise RuntimeError(
                f"{self._remaining} threads never finished "
                f"(t={self.sim.now}); deadlock or livelock"
            )
        return self.sim.now

    def _thread_done(self, thread: SimThread) -> None:
        self._remaining -= 1

    def _describe_stuck_state(self) -> str:
        """Per-node controller/MSHR digest for the runaway diagnostic,
        then any parked spin loops, plus the bus's blocked lines and
        counts on the bus fabric."""
        lines = [c.describe_state() for c in self.controllers]
        lines += [p.describe_state() for p in self.processors]
        lines = [line for line in lines if line]
        if not lines:
            lines = ["all cache controllers quiescent"]
        describe_bus = getattr(self.bus, "describe_state", None)
        if describe_bus is not None:
            lines.append(describe_bus())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, dispatcher: Optional[TraceDispatcher]) -> None:
        """Point every emitter's ``tracer`` at a trace dispatcher.

        Given ``None``, or a dispatcher built with no sinks, every
        ``tracer`` is ``None``: an untraced run builds no trace payload
        and linked spins still park.
        """
        tracer = None
        if dispatcher is not None and dispatcher.sinks:
            tracer = dispatcher.tracer
        for emitter in (*self.controllers, self.bus):
            emitter.tracer = tracer

    def _memory_receiver(self, msg: Any) -> None:  # pragma: no cover
        raise RuntimeError(f"unexpected crossbar delivery to memory: {msg}")

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def bus_transactions(self) -> int:
        """Coherence transactions resolved, whichever fabric ran them."""
        return self.stats.value("bus.transactions") + self.stats.value(
            "dir.transactions"
        )

    def total(self, suffix: str) -> int:
        """Aggregate a per-node counter, e.g. ``total('sc_fail')``."""
        return self.stats.sum_matching(f".{suffix}")
