"""Closed-form throughput models for the synchronization taxonomy.

Following *Performance Prediction for Coarse-Grained Locking* (Aksenov,
Alistarh, Kuznetsov), a contended lock is a single-server queueing
station inside a closed system: each of ``n`` processors cycles through
*local compute* (thinking) and a *critical-section visit* (queueing +
service).  Throughput is then determined by two bounds —

* **compute-bound**: ``X = n / I`` where ``I`` is the per-item cycle
  time outside the lock, and
* **lock-bound**: ``X = 1 / (f0 * S(w))`` where ``f0`` is the fraction
  of items that visit the bottleneck lock and ``S(w)`` is the contended
  per-acquire service time with ``w`` processors competing —

with the twist that for delay-insertion protocols ``S`` depends
*strongly* on ``w``:

===========  ===============================================================
class        per-acquire overhead term
===========  ===============================================================
storm        TTS invalidation storm: every waiter's re-read and re-arm
             occupies the fabric, cost grows superlinearly in waiters
             (measured exponent ~1.3)
deferred     delayed TTS: the deferral window bounds the storm; a queue
             forms implicitly, residual growth is sublinear (~0.8)
queued       IQOLB/QOLB: one line transfer per hand-off; flat on the bus,
             mesh-distance growth on the directory (~0.85)
swqueue      MCS/ticket/CLH/Anderson: software queue hand-off, queued-like
===========  ===============================================================

Each ``(fabric, primitive, kind)`` combination carries a fitted
:class:`CostCurve` ``C(w) = c0 + a * (w - 1)**p`` — the *contended
per-operation cost* with ``w`` competitors (``C(1)`` is the uncontended
acquire+transfer cost).  The curves are calibrated from the committed
sweep artifacts by :mod:`repro.predict.calibrate`; analytically derived
defaults from :class:`~repro.harness.config.SystemConfig` latencies
cover combinations with no cached measurements.

The bus additionally carries a *saturation* term: the broadcast medium
admits at most ``bus_max_outstanding`` concurrent requestors, and past
that knee latency cliffs (the paper's 128-processor wall).  The
directory has no shared medium and no knee.

Everything here is arithmetic on a
:class:`~repro.harness.signature.WorkloadSignature` — no simulation, no
event queue.  The MVA recursion for ``n`` processors passes through
every smaller machine, so :func:`_mva` keeps each queueing network's
rows in one population-indexed trajectory that every machine size and
repeated query of that network reads (at most :data:`MVA_TABLE_CAP`
networks); every registered primitive on both fabrics at every size
from 1 to 128 evaluates in tens of milliseconds.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from typing import Any, Dict, Optional, Tuple

from repro.core.registry import INTERCONNECTS, PRIMITIVE_SPECS
from repro.harness.config import SystemConfig
from repro.harness.signature import KIND_APP, KIND_RMW, WorkloadSignature

__all__ = [
    "CostCurve",
    "CalibrationParams",
    "Prediction",
    "PRIMITIVE_CLASS",
    "default_params",
    "equilibrium",
    "predict",
]

#: primitive -> model class (see module docstring table), derived from
#: the central registry so every registered primitive gets a curve
PRIMITIVE_CLASS: Dict[str, str] = {
    name: spec.taxonomy for name, spec in PRIMITIVE_SPECS.items()
}

#: class -> default contention-growth exponent per fabric
CLASS_EXPONENT: Dict[Tuple[str, str], float] = {
    ("bus", "storm"): 1.30,
    ("bus", "deferred"): 0.80,
    ("bus", "queued"): 0.15,
    ("bus", "swqueue"): 0.30,
    ("directory", "storm"): 1.35,
    ("directory", "deferred"): 0.80,
    ("directory", "queued"): 0.85,
    ("directory", "swqueue"): 0.85,
}

#: class -> growth-coefficient multiplier relative to the fabric transfer
#: cost, used only when no calibrated curve exists for a combination
CLASS_GROWTH: Dict[str, float] = {
    "storm": 0.55,
    "deferred": 0.45,
    "queued": 0.08,
    "swqueue": 0.12,
}


def primitive_class(primitive: str) -> str:
    return PRIMITIVE_CLASS.get(primitive, "storm")


@dataclasses.dataclass(frozen=True)
class CostCurve:
    """Contended per-operation cost ``C(w) = c0 + a * (w - 1)**p``.

    ``w`` is the number of processors competing for the line (holders +
    waiters); ``C(1)`` is the uncontended cost of one acquire-transfer-
    release round trip including the critical-section body it was fitted
    with (the null critical section for lock curves).
    """

    c0: float
    a: float
    p: float

    def cost(self, waiters: float) -> float:
        return self.c0 + self.a * max(0.0, waiters - 1.0) ** self.p

    def to_dict(self) -> Dict[str, float]:
        return {"c0": self.c0, "a": self.a, "p": self.p}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "CostCurve":
        return cls(c0=float(data["c0"]), a=float(data["a"]), p=float(data["p"]))


@dataclasses.dataclass(frozen=True)
class Saturation:
    """Shared-medium saturation: multiplier ``1 + k*max(0, n/knee - 1)**q``."""

    knee: float
    k: float
    q: float = 2.0

    def multiplier(self, n: int) -> float:
        if self.k <= 0 or n <= self.knee:
            return 1.0
        return 1.0 + self.k * (n / self.knee - 1.0) ** self.q

    def to_dict(self) -> Dict[str, float]:
        return {"knee": self.knee, "k": self.k, "q": self.q}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Saturation":
        return cls(
            knee=float(data["knee"]), k=float(data["k"]), q=float(data["q"])
        )


@dataclasses.dataclass
class CalibrationParams:
    """Everything :func:`predict` needs, fitted or derived.

    ``lock_curves``/``rmw_curves`` map ``(fabric, primitive)`` to fitted
    :class:`CostCurve` objects; missing combinations fall back to
    analytically derived defaults (``derived_curve``).  The scalar
    globals calibrate the application model: ``gamma`` corrects the mean
    of the integer-truncated exponential compute distribution, ``a_unc``
    is the uncontended lock acquire+release cost, ``straggle`` scales
    the barrier-straggler term and ``barrier_per_proc`` the per-phase
    barrier episode cost.
    """

    lock_curves: Dict[Tuple[str, str], CostCurve] = dataclasses.field(
        default_factory=dict
    )
    rmw_curves: Dict[Tuple[str, str], CostCurve] = dataclasses.field(
        default_factory=dict
    )
    saturation: Dict[str, Saturation] = dataclasses.field(default_factory=dict)
    gamma: float = 1.0
    a_unc: float = 10.0
    uni_overhead: float = 0.0
    straggle: float = 0.8
    barrier_per_proc: float = 12.0
    #: how much of the *system-wide* queue a bus invalidation storm
    #: pays for (0 = own lock only, 1 = every waiter in the machine)
    storm_couple: float = 0.5
    #: fabric -> uncalibrated base transfer cost (cycles per line move)
    transfer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: provenance: which artifacts the fit consumed (informational)
    fitted_from: Tuple[str, ...] = ()
    #: derived curves already built, keyed on every input
    #: :func:`derived_curve` reads, the transfer cost included, so a
    #: ``transfer`` rewritten in place builds a fresh curve
    _derived: Dict[Tuple[str, str, str, float], CostCurve] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- lookup ---------------------------------------------------------

    def fitted_curve(self, sig: WorkloadSignature) -> Optional[CostCurve]:
        """The calibrated curve for ``sig``'s combination, if one was fitted."""
        table = self.rmw_curves if sig.kind == KIND_RMW else self.lock_curves
        return table.get((sig.fabric, sig.primitive))

    def curve_for(self, sig: WorkloadSignature) -> CostCurve:
        curve = self.fitted_curve(sig)
        if curve is not None:
            return curve
        key = (sig.fabric, sig.primitive, sig.kind, self.transfer_for(sig.fabric))
        curve = self._derived.get(key)
        if curve is None:
            curve = derived_curve(sig.fabric, sig.primitive, sig.kind, self)
            self._derived[key] = curve
        return curve

    def saturation_for(self, fabric: str) -> Optional[Saturation]:
        return self.saturation.get(fabric)

    def transfer_for(self, fabric: str) -> float:
        if fabric in self.transfer:
            return self.transfer[fabric]
        return _derived_transfer(fabric, SystemConfig())

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        def curves(table: Dict[Tuple[str, str], CostCurve]) -> Dict[str, Any]:
            return {
                f"{fabric}/{prim}": curve.to_dict()
                for (fabric, prim), curve in sorted(table.items())
            }

        return {
            "schema": "repro-predict-calibration/1",
            "lock_curves": curves(self.lock_curves),
            "rmw_curves": curves(self.rmw_curves),
            "saturation": {
                fabric: sat.to_dict()
                for fabric, sat in sorted(self.saturation.items())
            },
            "gamma": self.gamma,
            "a_unc": self.a_unc,
            "uni_overhead": self.uni_overhead,
            "straggle": self.straggle,
            "barrier_per_proc": self.barrier_per_proc,
            "storm_couple": self.storm_couple,
            "transfer": dict(self.transfer),
            "fitted_from": list(self.fitted_from),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CalibrationParams":
        def curves(table: Dict[str, Any]) -> Dict[Tuple[str, str], CostCurve]:
            out = {}
            for key, value in table.items():
                fabric, prim = key.split("/", 1)
                out[(fabric, prim)] = CostCurve.from_dict(value)
            return out

        return cls(
            lock_curves=curves(data.get("lock_curves", {})),
            rmw_curves=curves(data.get("rmw_curves", {})),
            saturation={
                fabric: Saturation.from_dict(value)
                for fabric, value in data.get("saturation", {}).items()
            },
            gamma=float(data.get("gamma", 1.0)),
            a_unc=float(data.get("a_unc", 10.0)),
            uni_overhead=float(data.get("uni_overhead", 0.0)),
            straggle=float(data.get("straggle", 0.8)),
            barrier_per_proc=float(data.get("barrier_per_proc", 12.0)),
            storm_couple=float(data.get("storm_couple", 0.5)),
            transfer={
                k: float(v) for k, v in data.get("transfer", {}).items()
            },
            fitted_from=tuple(data.get("fitted_from", ())),
        )


def _derived_transfer(fabric: str, config: SystemConfig) -> float:
    """Uncalibrated cost of moving one line between caches (Table 1)."""
    if fabric == "bus":
        # one address-bus arbitration + one crossbar line transfer
        return float(config.bus_addr_latency + config.xbar_line_cycles)
    # directory: requester -> home -> owner -> requester (3-hop forward)
    # across an average mesh distance, plus the home lookup
    hops = 3.0 * 2.0  # three messages, ~2 links each on a small mesh
    return float(
        config.dir_lookup_cycles
        + hops * config.net_hop_cycles
        + config.net_line_ser_cycles
    )


def derived_curve(
    fabric: str,
    primitive: str,
    kind: str,
    params: Optional["CalibrationParams"] = None,
) -> CostCurve:
    """An analytically derived cost curve for an uncalibrated combination.

    Base cost: two line transfers per contended acquire (lock line to the
    requester, protected data line after it) for lock shapes; one for
    plain RMW.  Growth: the class multiplier times the fabric transfer
    cost per additional competitor, raised to the class exponent.
    """
    transfer = (
        params.transfer_for(fabric)
        if params is not None
        else _derived_transfer(fabric, SystemConfig())
    )
    klass = primitive_class(primitive)
    transfers = 1.0 if kind == KIND_RMW else 2.0
    if kind == KIND_RMW and klass in ("deferred", "queued", "swqueue"):
        # deferral collapses a contended RMW to a single owned update
        return CostCurve(c0=transfer, a=0.0, p=1.0)
    exponent = CLASS_EXPONENT.get((fabric, klass), 1.0)
    growth = CLASS_GROWTH[klass] * transfer
    return CostCurve(c0=transfers * transfer, a=growth, p=exponent)


def default_params() -> CalibrationParams:
    """Purely derived parameters (no fitted curves) — the fallback when
    no calibration artifact is available."""
    config = SystemConfig()
    return CalibrationParams(
        saturation={
            "bus": Saturation(
                knee=float(config.bus_max_outstanding), k=2500.0, q=2.0
            )
        },
        transfer={
            fabric: _derived_transfer(fabric, config)
            for fabric in INTERCONNECTS
        },
    )


# ---------------------------------------------------------------------------
# The prediction itself
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Prediction:
    """What the model says about one workload signature."""

    signature: WorkloadSignature
    #: lock acquisitions (or atomic updates) completed per kilocycle
    throughput: float
    #: predicted cycles for the signature's ``total_ops``
    cycles: float
    #: contended per-operation cost at equilibrium (service + hand-off)
    per_op_cycles: float
    #: hand-off latency: per-op cost minus the critical-section body
    handoff_cycles: float
    #: equilibrium number of processors competing at the bottleneck lock
    effective_waiters: float
    #: "compute-bound" | "lock-bound"
    regime: str
    #: "fitted" if the cost curve came from the calibration's
    #: ``lock_curves``/``rmw_curves``, "derived" if from
    #: :func:`derived_curve`
    curve_source: str
    #: additive term breakdown (cycles), for tables and debugging
    terms: Dict[str, float] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["signature"] = self.signature.to_dict()
        return data


def _cs_body(sig: WorkloadSignature, params: CalibrationParams) -> float:
    """Uncontended critical-section service: body accesses + compute."""
    return float(sig.cs_compute + sig.cs_accesses + params.a_unc)


def _lock_delta(sig: WorkloadSignature) -> float:
    """Per-op cost delta of this CS body versus the null-CS the lock
    curves were fitted on (one read + one write of a bouncing line)."""
    if sig.kind == KIND_RMW:
        return 0.0
    return float(sig.cs_compute + max(0, sig.cs_accesses - 2))


@dataclasses.dataclass
class _Equilibrium:
    """Steady state of the closed queueing network (see :func:`_mva`)."""

    x_items: float      # completed items per cycle, system-wide
    q_hot: float        # mean customers at the bottleneck lock
    s_hot: float        # per-acquire service there at equilibrium
    utilization: float  # bottleneck utilization (X * f0 * s_hot)


def _think(sig: WorkloadSignature, params: CalibrationParams) -> float:
    """Per-item cycle time outside the lock: compute, body, bookkeeping."""
    return (
        params.gamma * sig.local_compute
        + _cs_body(sig, params)
        + params.uni_overhead
    )


#: networks :func:`_mva` keeps a population trajectory for; past this
#: many, the oldest entry is dropped first
MVA_TABLE_CAP = 4096


class _Trajectory:
    """One network's MVA rows for populations ``m = 0..M``.

    ``x``, ``q_hot`` and ``s_hot`` hold each population's throughput,
    hot-lock queue and hot-lock service as doubles; ``q_rest`` is the
    queue at the other locks at ``m = M``, the rest of the recursion's
    carry.
    """

    __slots__ = ("x", "q_hot", "s_hot", "q_rest")

    def __init__(self, x: float, s_hot: float) -> None:
        self.x = array("d", (x,))
        self.q_hot = array("d", (0.0,))
        self.s_hot = array("d", (s_hot,))
        self.q_rest = 0.0


#: network -> its trajectory, keyed on the numbers the recursion reads
#: (never on a ``CalibrationParams``, which the fit mutates in place);
#: insertion order makes the first key the oldest
_TRAJECTORIES: Dict[Tuple[Any, ...], _Trajectory] = {}


def _mva(
    n: int,
    think: float,
    f0: float,
    n_locks: int,
    curve: CostCurve,
    sat_mult: float,
    delta: float,
    couple: float,
) -> _Equilibrium:
    """Approximate Mean Value Analysis with state-dependent service.

    The closed network has one delay station (local compute, ``think``
    cycles, no queueing) and the locks: the *hot* lock visited by a
    fraction ``f0`` of items, and the remaining ``n_locks - 1`` locks
    sharing the rest of the traffic.  Customers are added one at a time;
    by the arrival theorem a new arrival at a queueing station sees the
    station's mean queue from the ``m - 1`` population, so its response
    time is ``S * (1 + Q)``.

    The twist over textbook MVA is that the per-acquire service ``S``
    itself depends on the queue: ``S(w) = C(w) * sat_mult + delta``,
    where ``C`` is the fitted contended hand-off ``curve`` with ``w``
    processors competing, ``sat_mult`` the fabric's saturation
    multiplier and ``delta`` this critical section's cost over the
    null one.  ``C`` is evaluated inline, with the same expression as
    :meth:`CostCurve.cost`.  For storm-class primitives on the bus,
    ``couple`` of the queue at *other* locks is added to ``w`` — an
    invalidation storm occupies the one shared broadcast medium, so
    waiters at unrelated locks still pay part of its cost.  Queued and
    deferred primitives, and everything on the directory, see only
    their own lock's queue (``couple = 0``).

    Solving for ``n`` customers solves every smaller population on the
    way, so each network keeps its rows in a shared trajectory
    (:class:`_Trajectory`, at most :data:`MVA_TABLE_CAP` networks).  A
    query inside the trajectory is a lookup; one beyond it extends the
    recursion from the last row (:func:`_extend`), so every answer is
    bit for bit the one a cold solve gives.  The key is the arguments'
    values: ``-0.0`` keys like ``0.0``, a sign :func:`equilibrium`
    never passes.
    """
    c0, a, p = curve.c0, curve.a, curve.p
    key = (think, f0, n_locks, c0, a, p, sat_mult, delta, couple)
    trajectory = _TRAJECTORIES.get(key)
    if trajectory is None:
        if len(_TRAJECTORIES) >= MVA_TABLE_CAP:
            del _TRAJECTORIES[next(iter(_TRAJECTORIES))]
        trajectory = _TRAJECTORIES[key] = _Trajectory(
            1.0 / max(1.0, think),
            (c0 + a * 0.0 ** p) * sat_mult + delta,  # S(1)
        )
    if n >= len(trajectory.x):
        _extend(trajectory, n, key)
    x = trajectory.x[n]
    s_hot = trajectory.s_hot[n]
    return _Equilibrium(
        x_items=x,
        q_hot=trajectory.q_hot[n],
        s_hot=s_hot,
        utilization=min(1.0, x * f0 * s_hot),
    )


def _extend(
    trajectory: _Trajectory, n: int, key: Tuple[Any, ...]
) -> None:
    """Add the MVA rows after ``trajectory``'s last, through ``n``."""
    think, f0, n_locks, c0, a, p, sat_mult, delta, couple = key
    think = max(1.0, think)
    rest_locks = max(0, n_locks - 1)
    f_rest = max(0.0, 1.0 - f0) if rest_locks else 0.0
    xs, q_hots, s_hots = trajectory.x, trajectory.q_hot, trajectory.s_hot
    q_hot = q_hots[-1]
    q_rest = trajectory.q_rest
    for m in range(len(xs), n + 1):
        w_hot = q_hot + 1.0 + couple * q_rest
        s_hot = (c0 + a * max(0.0, w_hot - 1.0) ** p) * sat_mult + delta
        r_hot = s_hot * (1.0 + q_hot)
        if f_rest > 0:
            per_lock = q_rest / rest_locks
            # S(per_lock + 1): (x + 1.0) - 1.0 need not round back to x
            s_rest = (
                c0 + a * max(0.0, (per_lock + 1.0) - 1.0) ** p
            ) * sat_mult + delta
            r_rest = s_rest * (1.0 + per_lock)
        else:
            r_rest = 0.0
        r_cycle = think + f0 * r_hot + f_rest * r_rest
        x = m / r_cycle
        q_hot = x * f0 * r_hot
        q_rest = x * f_rest * r_rest
        xs.append(x)
        q_hots.append(q_hot)
        s_hots.append(s_hot)
    trajectory.q_rest = q_rest


def _storm_coupled(sig: WorkloadSignature) -> bool:
    """Does this cell's hand-off cost scale with system-wide waiters?"""
    return sig.fabric == "bus" and primitive_class(sig.primitive) == "storm"


def equilibrium(
    sig: WorkloadSignature, params: CalibrationParams
) -> _Equilibrium:
    """The closed network's steady state for ``sig`` (see :func:`_mva`).

    This is the expensive half of :func:`predict` whenever ``sig``'s
    network is new to the trajectory table.  It reads the cost
    curves, the saturation, the compute globals and ``storm_couple``,
    never ``straggle`` or ``barrier_per_proc``: those enter only in
    :func:`_app_cycles`, after the equilibrium.
    """
    n = sig.n_processors
    sat = params.saturation_for(sig.fabric)
    sat_mult = sat.multiplier(n) if sat is not None else 1.0
    f0 = max(sig.hot_lock_fraction, 1.0 / max(1, sig.n_locks))
    couple = params.storm_couple if _storm_coupled(sig) else 0.0
    return _mva(
        n,
        _think(sig, params),
        f0,
        sig.n_locks,
        params.curve_for(sig),
        sat_mult,
        _lock_delta(sig),
        couple,
    )


def _app_cycles(
    sig: WorkloadSignature, params: CalibrationParams, x_items: float
) -> Tuple[float, Dict[str, float]]:
    """Cycles and term breakdown of an application at rate ``x_items``.

    Each of the ``phases`` barrier phases runs its share of the items at
    the equilibrium rate, then waits for the slowest processor: the
    expected-maximum excess of ``n`` iid sums of ``k`` exponential
    compute draws (Gumbel tail), overlapped against the serial fraction,
    plus a barrier episode per processor.
    """
    n = sig.n_processors
    ops_phase = sig.total_ops / sig.phases
    parallel = ops_phase / x_items
    k = max(1.0, ops_phase / n)
    straggle = (
        params.straggle
        * params.gamma
        * sig.local_compute
        * math.sqrt(2.0 * k * math.log(max(2, n)))
    )
    barrier = params.barrier_per_proc * n
    phase = max(sig.serial_compute + parallel, parallel + straggle) + barrier
    terms = {
        "parallel": parallel,
        "serial": float(sig.serial_compute),
        "straggle": straggle,
        "barrier": barrier,
    }
    return sig.phases * phase, terms


def predict(
    sig: WorkloadSignature, params: Optional[CalibrationParams] = None
) -> Prediction:
    """Predicted throughput/latency for one workload signature.

    Pure arithmetic — never invokes the simulator.  Raises
    :class:`ValueError` for a machine without processors or a workload
    without phases.
    """
    if sig.n_processors < 1:
        raise ValueError(
            f"n_processors must be at least 1, got {sig.n_processors}"
        )
    if sig.phases < 1:
        raise ValueError(f"phases must be at least 1, got {sig.phases}")
    if params is None:
        params = default_params()
    curve_source = "derived" if params.fitted_curve(sig) is None else "fitted"

    if sig.n_processors == 1:
        # Uncontended: every primitive converges to the same rate — the
        # critical section is private, the hand-off machinery idle.
        think = _think(sig, params)
        per_op = max(1.0, think)
        cycles = sig.total_ops * per_op + sig.phases * sig.serial_compute
        return Prediction(
            signature=sig,
            throughput=1000.0 / per_op,
            cycles=cycles,
            per_op_cycles=per_op,
            handoff_cycles=0.0,
            effective_waiters=0.0,
            regime="compute-bound",
            curve_source=curve_source,
            terms={"think": think, "serial": float(sig.serial_compute)},
        )

    eq = equilibrium(sig, params)
    x_items = eq.x_items
    per_op = 1.0 / x_items
    if sig.kind == KIND_APP:
        cycles, terms = _app_cycles(sig, params, x_items)
    else:
        cycles = sig.total_ops * per_op
        terms = {
            "parallel": sig.total_ops / sig.phases / x_items,
            "serial": float(sig.serial_compute),
        }

    return Prediction(
        signature=sig,
        throughput=1000.0 * x_items,
        cycles=cycles,
        per_op_cycles=per_op,
        handoff_cycles=max(0.0, eq.s_hot - _cs_body(sig, params)),
        effective_waiters=eq.q_hot,
        regime="lock-bound" if eq.utilization >= 0.9 else "compute-bound",
        curve_source=curve_source,
        terms=terms,
    )
