"""Policy, primitive, and interconnect registries: build each by name.

Policy names follow the paper's Figure 1 taxonomy::

    baseline            Conventional LL/SC
    aggressive          Baseline + RFO on LL
    delayed             Delayed response (queue breaks down on RFO)
    delayed+retention   Delayed response with queue retention
    iqolb               Implicit QOLB (queue breaks down on RFO)
    iqolb+retention     Implicit QOLB with queue retention
    iqolb+gen           Generalized implicit QOLB (forwards protected data)
    adaptive            Conservative hybrid: RFO on first LL after an SC
    qolb                Explicit QOLB (EnQOLB/DeQOLB instructions)

A *primitive* (paper §4) pairs a synchronization library implementation
(the ``lock_kind`` the workloads instantiate) with the protocol policy
it runs on.  :data:`PRIMITIVE_SPECS` is the single source of truth: the
experiment runner's primitive table, the workloads' lock-kind list, the
prediction model's taxonomy classes, and the test suites' parameter
grids are all derived from it, so registering a primitive here is the
one step that wires it through the whole stack (and through the
conformance suite, which fails loudly on unregistered kinds).

Interconnects select the coherence fabric the ladder runs on::

    bus        broadcast MOESI snooping bus + data crossbar (paper Table 1)
    directory  home-node MOESI directory over a contention-modeled 2-D mesh
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple, Type

from repro.core.baseline import (
    AdaptiveBaselinePolicy,
    AggressiveBaselinePolicy,
    BaselinePolicy,
)
from repro.core.delayed import DelayedResponsePolicy, DelayedRetentionPolicy
from repro.core.iqolb import (
    GeneralizedIqolbPolicy,
    IqolbPolicy,
    IqolbRetentionPolicy,
)
from repro.core.policy import ProtocolPolicy
from repro.core.qolb import QolbPolicy

if TYPE_CHECKING:  # pragma: no cover — type-only imports
    from repro.engine.simulator import Simulator
    from repro.engine.stats import StatsRegistry
    from repro.harness.config import SystemConfig
    from repro.mem.mainmemory import MainMemory

def unknown_choice(kind: str, value: Any, known: Iterable[str]) -> ValueError:
    """The registry rejection error: names the bad value AND the valid
    choices, so a typo'd CLI flag or spec field is self-diagnosing."""
    return ValueError(
        f"unknown {kind} {value!r}; known: {', '.join(known)}"
    )


#: policy name -> class, in taxonomy order.  Each class declares its
#: own name and protocol properties (retention, hand-off order, progress
#: promise, default timeout) as class attributes.
POLICIES: Dict[str, Type[ProtocolPolicy]] = {
    cls.name: cls
    for cls in (
        BaselinePolicy,
        AggressiveBaselinePolicy,
        DelayedResponsePolicy,
        DelayedRetentionPolicy,
        IqolbPolicy,
        IqolbRetentionPolicy,
        GeneralizedIqolbPolicy,
        AdaptiveBaselinePolicy,
        QolbPolicy,
    )
}


def policy_names() -> List[str]:
    """All registered policy names, in taxonomy order."""
    return list(POLICIES)


def policy_class(name: str) -> Type[ProtocolPolicy]:
    """The registered policy class; read its properties without
    building an instance.  Rejection lists the valid choices."""
    cls = POLICIES.get(name)
    if cls is None:
        raise unknown_choice("policy", name, POLICIES)
    return cls


def make_policy(name: str, **kwargs: Any) -> ProtocolPolicy:
    """Instantiate a fresh policy (one instance per controller)."""
    return policy_class(name)(**kwargs)


@dataclasses.dataclass(frozen=True)
class PrimitiveSpec:
    """One registered synchronization primitive.

    ``policy``
        Protocol policy name (a :data:`POLICIES` key).
    ``lock_kind``
        Software lock the workloads instantiate (a
        :data:`repro.workloads.base.LOCK_KINDS` choice).
    ``taxonomy``
        Throughput-model class: ``storm`` (centralized spinning),
        ``deferred`` (delay-bounded storm), ``queued`` (hardware
        queue), ``swqueue`` (software queue).
    ``fifo``
        Whether the primitive *claims* FIFO grant order — asserted by
        the conformance suite only where claimed (reciprocating and
        fissile trade FIFO for throughput by design).
    """

    name: str
    policy: str
    lock_kind: str
    taxonomy: str
    fifo: bool
    description: str = ""


def _spec(name, policy, lock_kind, taxonomy, fifo, description):
    return name, PrimitiveSpec(
        name, policy, lock_kind, taxonomy, fifo, description
    )


#: primitive name -> spec, in ladder order (single source of truth for
#: the experiment runner, workloads, prediction model, and test grids)
PRIMITIVE_SPECS: Dict[str, PrimitiveSpec] = dict([
    _spec("tts", "baseline", "tts", "storm", False,
          "test&test&set via LL/SC on the conventional protocol"),
    _spec("qolb", "qolb", "qolb", "queued", False,
          "explicit QOLB (EnQOLB/DeQOLB) on the QOLB protocol"),
    _spec("iqolb", "iqolb", "tts", "queued", False,
          "the TTS binary, unmodified, on the IQOLB protocol"),
    _spec("iqolb+retention", "iqolb+retention", "tts", "queued", False,
          "IQOLB with queue retention across RFOs"),
    _spec("iqolb+gen", "iqolb+gen", "tts", "queued", False,
          "generalized IQOLB forwarding protected data"),
    _spec("adaptive", "adaptive", "tts", "storm", False,
          "conservative hybrid: RFO on first LL after an SC"),
    _spec("delayed", "delayed", "tts", "deferred", False,
          "delayed-response protocol under the TTS binary"),
    _spec("delayed+retention", "delayed+retention", "tts", "deferred",
          False, "delayed response with queue retention"),
    _spec("aggressive", "aggressive", "tts", "storm", False,
          "baseline plus RFO on LL"),
    _spec("ticket", "baseline", "ticket", "swqueue", True,
          "counting-splice ticket lock on a global grant word"),
    _spec("mcs", "baseline", "mcs", "swqueue", True,
          "pointer-splice queue lock spinning on own node"),
    _spec("anderson", "baseline", "anderson", "swqueue", True,
          "counting-splice array lock spinning on a slot"),
    _spec("clh", "baseline", "clh", "swqueue", True,
          "pointer-splice queue lock spinning on predecessor node"),
    _spec("ts", "baseline", "ts", "storm", False,
          "plain test&set via LL/SC"),
    _spec("reciprocating", "baseline", "reciprocating", "swqueue", False,
          "single-word palindromic-admission stack lock "
          "(Dice & Kogan 2025)"),
    _spec("fissile", "baseline", "fissile", "swqueue", False,
          "test&set fast path behind an MCS anti-collapse queue "
          "(Dice & Kogan 2020)"),
])


def get_primitive(name: str) -> PrimitiveSpec:
    """Look up a primitive spec; rejection lists the valid choices."""
    spec = PRIMITIVE_SPECS.get(name)
    if spec is None:
        raise unknown_choice("primitive", name, PRIMITIVE_SPECS)
    return spec


INTERCONNECTS: Tuple[str, ...] = ("bus", "directory")


def interconnect_names() -> List[str]:
    """All registered interconnect backends."""
    return list(INTERCONNECTS)


def make_interconnect(
    cfg: "SystemConfig",
    sim: "Simulator",
    stats: "StatsRegistry",
    memory: "MainMemory",
) -> Tuple[Any, Any]:
    """Build the configured coherence fabric.

    Returns ``(address_fabric, data_fabric)`` — the address-side object
    controllers ``request`` transactions on (AddressBus or
    DirectoryInterconnect) and the data-side object they ``send`` lines
    on (Crossbar or MeshNetwork).  Both pairs expose the same
    controller-facing surface, so :class:`CacheController` is agnostic.

    The directory must know whether a supplied RFO dissolves the waiter
    queue (paper §3.3's breakdown-vs-retention split); it reads that off
    the ``queue_retention`` the configured policy class declares.
    """
    if cfg.interconnect == "bus":
        from repro.interconnect.bus import AddressBus
        from repro.interconnect.crossbar import Crossbar

        crossbar = Crossbar(
            sim,
            stats,
            line_transfer_cycles=cfg.xbar_line_cycles,
            word_transfer_cycles=cfg.xbar_word_cycles,
        )
        bus = AddressBus(
            sim,
            stats,
            memory,
            crossbar,
            addr_latency=cfg.bus_addr_latency,
            issue_interval=cfg.bus_issue_interval,
            max_outstanding=cfg.bus_max_outstanding,
        )
        return bus, crossbar
    if cfg.interconnect == "directory":
        from repro.coherence.directory import DirectoryInterconnect
        from repro.interconnect.network import MeshNetwork

        network = MeshNetwork(
            sim,
            stats,
            cfg.n_processors,
            hop_cycles=cfg.net_hop_cycles,
            line_ser_cycles=cfg.net_line_ser_cycles,
            word_ser_cycles=cfg.net_word_ser_cycles,
        )
        directory = DirectoryInterconnect(
            sim,
            stats,
            memory,
            network,
            n_nodes=cfg.n_processors,
            lookup_cycles=cfg.dir_lookup_cycles,
            queue_retention=policy_class(cfg.policy).queue_retention,
        )
        return directory, network
    raise unknown_choice("interconnect", cfg.interconnect, INTERCONNECTS)
