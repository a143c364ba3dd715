"""Run manifests: the provenance record attached to every result.

A :class:`RunManifest` answers "where did this number come from?" — the
exact configuration hash, package version, workload seed and signature,
host, wall time, whether the result was simulated or served from the
cache, and the simulator's self-metrics (events fired per host second,
event-queue high-water mark).  The runner aggregates manifests into the
``metrics.json`` grid summary (:mod:`repro.telemetry.export`).

This module also owns :func:`canonical` and :func:`stable_hash` — the
deterministic content-hashing used both for manifest config hashes and
the result cache's keys (:mod:`repro.harness.cache` re-exports them).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import socket
from typing import Any, Dict, FrozenSet, Optional, Tuple


#: exact types :func:`canonical` passes through unchanged
_ATOMS = frozenset((str, int, float, bool, type(None)))
#: dataclass type -> (qualname, field names), read once per class
_DATACLASS_SHAPES: Dict[type, Tuple[str, Tuple[str, ...]]] = {}
#: manifest class -> its field names, for :meth:`RunManifest.from_dict`
_FIELD_NAMES: Dict[type, FrozenSet[str]] = {}


def canonical(obj: Any) -> Any:
    """Reduce *obj* to a JSON-encodable form with deterministic ordering.

    Dataclasses become tagged dicts, mappings are key-sorted, callables
    are named by module + qualname, and anything else falls back to
    ``repr``.  The encoding only needs to be *stable*, not invertible.

    The exact built-in types are tested first and each dataclass's field
    names are read once per class; subclasses (enums included) take the
    general checks below in their original order, so every encoding, and
    every cache key and config hash built on it, is unchanged.
    """
    cls = type(obj)
    if cls in _ATOMS:
        return obj
    if cls is dict:
        return _canonical_dict(obj)
    if cls is list or cls is tuple:
        return [canonical(item) for item in obj]
    shape = _DATACLASS_SHAPES.get(cls)
    if shape is None and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(f.name for f in dataclasses.fields(obj))
        shape = _DATACLASS_SHAPES[cls] = (cls.__qualname__, names)
    if shape is not None:
        qualname, names = shape
        fields = {name: canonical(getattr(obj, name)) for name in names}
        return {"__dataclass__": qualname, **fields}
    if isinstance(obj, dict):
        return _canonical_dict(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (str, int, float)):  # subclasses, enums included
        return obj
    if callable(obj):
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", repr(obj))
        return f"{module}.{qualname}"
    return repr(obj)


def _canonical_dict(obj: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        str(key): canonical(value)
        for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
    }


def stable_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of *payload*."""
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def host_info() -> Dict[str, str]:
    """Where this run executed (folded into the manifest)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "hostname": socket.gethostname(),
    }


@dataclasses.dataclass
class RunManifest:
    """Provenance and self-metrics for one simulated run."""

    config_hash: str
    version: str
    seed: Optional[int] = None
    #: the run's :class:`~repro.harness.signature.WorkloadSignature` as a
    #: dict, or ``None`` where the model has no closed form for it
    signature: Optional[Dict[str, Any]] = None
    wall_time_s: float = 0.0
    cache_hit: bool = False
    events_fired: int = 0
    #: events parked spin loops did not fire; ``events_fired +
    #: events_skipped`` is what a run that never parks would fire
    events_skipped: int = 0
    events_per_host_s: float = 0.0
    queue_high_water: int = 0
    host: Dict[str, str] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> Optional["RunManifest"]:
        if data is None:
            return None
        known = _FIELD_NAMES.get(cls)
        if known is None:
            known = _FIELD_NAMES[cls] = frozenset(
                f.name for f in dataclasses.fields(cls)
            )
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def collect(
        cls,
        config: Any,
        version: str,
        seed: Optional[int] = None,
        signature: Optional[Dict[str, Any]] = None,
        wall_time_s: float = 0.0,
        events_fired: int = 0,
        events_skipped: int = 0,
        queue_high_water: int = 0,
    ) -> "RunManifest":
        """Build a manifest for a freshly simulated run."""
        per_s = events_fired / wall_time_s if wall_time_s > 0 else 0.0
        return cls(
            config_hash=stable_hash(config),
            version=version,
            seed=seed,
            signature=signature,
            wall_time_s=wall_time_s,
            cache_hit=False,
            events_fired=events_fired,
            events_skipped=events_skipped,
            events_per_host_s=per_s,
            queue_high_water=queue_high_water,
            host=host_info(),
        )


def workload_seed(workload: Any) -> Optional[int]:
    """Best-effort extraction of a workload's RNG seed for the manifest."""
    seed = getattr(workload, "seed", None)
    if isinstance(seed, int):
        return seed
    model = getattr(workload, "model", None)
    if isinstance(model, dict):
        seed = model.get("seed")
    else:
        seed = getattr(model, "seed", None)
    return seed if isinstance(seed, int) else None
