"""The shared workload signature: one description of "what a cell runs".

``repro run``, the sweep layer and the analytical prediction subsystem
(:mod:`repro.predict`) all need the same handful of facts about a cell —
processor count, primitive, fabric, critical-section shape, lock count,
inter-acquire compute — but historically each re-derived them from
config dicts and workload constructor state.  :class:`WorkloadSignature`
is the single home for that description:

* the runner extracts it from a live :class:`~repro.workloads.base.Workload`
  (:meth:`WorkloadSignature.from_workload`), so simulated cells and
  predicted cells are described by the same code path;
* the prediction layer builds signatures directly
  (:meth:`WorkloadSignature.from_app_model`, or the constructor for
  microbenchmark shapes) and never touches the simulator;
* signatures are plain frozen dataclasses: hashable, picklable, and
  JSON-encodable via :meth:`to_dict` for artifacts and manifests.

All lengths are in processor cycles, mirroring ``SystemConfig``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

#: signature kinds — the three workload shapes the model understands
KIND_LOCK = "lock"      # lock/unlock around a small critical section
KIND_RMW = "rmw"        # contended atomic fetch&op, no lock
KIND_APP = "app"        # synthetic SPLASH-2 application model


@dataclasses.dataclass(frozen=True)
class WorkloadSignature:
    """The contention parameters that determine a cell's throughput.

    ``total_ops`` is the *total* number of synchronization operations
    (lock acquires or atomic updates) across all processors, conserved
    as the machine scales — matching how the synthetic apps conserve
    ``total_work``.  ``local_compute`` is the mean per-op compute
    outside any critical section; ``cs_*`` describe the protected body.
    """

    kind: str
    workload: str
    primitive: str
    fabric: str
    n_processors: int
    total_ops: int
    n_locks: int = 1
    cs_reads: int = 0
    cs_writes: int = 0
    cs_compute: int = 0
    local_compute: int = 0
    hot_lock_fraction: float = 1.0
    phases: int = 1
    serial_compute: int = 0
    collocated: bool = False

    @property
    def cs_accesses(self) -> int:
        """Data accesses inside the critical section."""
        return self.cs_reads + self.cs_writes

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSignature":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def with_(self, **overrides: Any) -> "WorkloadSignature":
        """A copy with some fields replaced (mirrors SystemConfig)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Constructors shared by the runner and the prediction layer
    # ------------------------------------------------------------------

    @classmethod
    def from_workload(
        cls, workload: Any, config: Any, primitive: str
    ) -> Optional["WorkloadSignature"]:
        """Extract the signature of a live workload instance.

        Recognizes the micro workloads and the synthetic apps; returns
        ``None`` for shapes the model has no closed form for (trace
        scenarios, litmus programs) rather than guessing.
        """
        from repro.workloads.micro import (
            CollocatedCriticalSection,
            ContendedCounter,
            NullCriticalSection,
        )
        from repro.workloads.splash import SyntheticApp

        n = config.n_processors
        fabric = config.interconnect
        if isinstance(workload, NullCriticalSection):
            return cls.micro_lock(
                primitive, fabric, n, workload.acquires_per_proc,
                workload.think_cycles,
            )
        if isinstance(workload, CollocatedCriticalSection):
            return cls(
                kind=KIND_LOCK,
                workload=workload.name,
                primitive=primitive,
                fabric=fabric,
                n_processors=n,
                total_ops=n * workload.acquires_per_proc,
                n_locks=1,
                cs_reads=workload.data_words,
                cs_writes=1,
                local_compute=workload.think_cycles,
                collocated=True,
            )
        if isinstance(workload, ContendedCounter):
            return cls(
                kind=KIND_RMW,
                workload=workload.name,
                primitive=primitive,
                fabric=fabric,
                n_processors=n,
                total_ops=n * workload.increments_per_proc,
                n_locks=1,
                cs_writes=1,
                local_compute=workload.think_cycles,
            )
        if isinstance(workload, SyntheticApp):
            return cls.from_app_model(
                workload.model, primitive=primitive, fabric=fabric,
                n_processors=n,
            )
        return None

    @classmethod
    def from_app_model(
        cls,
        model: Any,
        primitive: str,
        fabric: str = "bus",
        n_processors: int = 32,
    ) -> "WorkloadSignature":
        """The signature of a synthetic SPLASH-2 app model (Table 2)."""
        return cls(
            kind=KIND_APP,
            workload=model.name,
            primitive=primitive,
            fabric=fabric,
            n_processors=n_processors,
            total_ops=model.total_work,
            n_locks=model.n_locks,
            cs_reads=model.cs_reads,
            cs_writes=model.cs_writes,
            cs_compute=model.cs_compute,
            local_compute=model.local_compute,
            hot_lock_fraction=model.hot_lock_fraction,
            phases=model.phases,
            serial_compute=model.serial_compute,
        )

    @classmethod
    def micro_lock(
        cls,
        primitive: str,
        fabric: str = "bus",
        n_processors: int = 16,
        acquires_per_proc: int = 20,
        think_cycles: int = 100,
    ) -> "WorkloadSignature":
        """The null critical section shape, without building a workload."""
        return cls(
            kind=KIND_LOCK,
            workload="null-cs",
            primitive=primitive,
            fabric=fabric,
            n_processors=n_processors,
            total_ops=n_processors * acquires_per_proc,
            n_locks=1,
            cs_reads=1,
            cs_writes=1,
            local_compute=think_cycles,
        )
