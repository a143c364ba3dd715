"""Signatures for the committed benchmark artifacts.

The sweep artifacts under ``results/`` record each cell's *outcome*
(cycles, bus transactions, counters) next to its
:class:`~repro.harness.signature.WorkloadSignature`, which the runner
took from the live workload through ``from_workload`` when it ran the
cell.  This module reads both back: a predicted cell and a simulated
cell are described by literally the same record, and no bench's
constants are copied here.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import pathlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.signature import WorkloadSignature

__all__ = [
    "ObservedCell",
    "ARTIFACTS",
    "ladder_envelope_signature",
    "load_observed_cells",
    "stored_signature",
]


@dataclasses.dataclass(frozen=True)
class ObservedCell:
    """One simulated cell paired with its model-facing signature."""

    artifact: str
    key: Tuple[Any, ...]
    signature: WorkloadSignature
    observed_cycles: float

    @property
    def observed_per_op(self) -> float:
        return self.observed_cycles / max(1, self.signature.total_ops)


def stored_signature(cell: Dict[str, Any]) -> Optional[WorkloadSignature]:
    """The signature the runner stored with *cell* (``None`` if it has none)."""
    data = cell["signature"]
    return None if data is None else WorkloadSignature.from_dict(data)


#: the lock-ladder cells the calibration is fitted on: the paper's
#: taxonomy on the directory, and IQOLB on both fabrics
LADDER_ENVELOPE = frozenset(
    [("directory", primitive) for primitive in ("tts", "delayed", "iqolb")]
    + [("bus", "iqolb")]
)


def ladder_envelope_signature(
    cell: Dict[str, Any],
) -> Optional[WorkloadSignature]:
    """The stored signature of a ladder cell inside the envelope.

    The other 32 cells (the software queues, and TTS and delayed
    response on the bus) are left out of the fit.  The bus saturation
    knee is one curve for every class, and those cells do not saturate
    at 128p: fitted on all 48, the model predicts ``bus/iqolb/128`` 94%
    low and the taxonomy ordering gate fails.
    """
    fabric, primitive, _n = cell["key"]
    if (fabric, primitive) not in LADDER_ENVELOPE:
        return None
    return stored_signature(cell)


@dataclasses.dataclass(frozen=True)
class ArtifactSpec:
    path: str
    build_signature: Callable[
        [Dict[str, Any]], Optional[WorkloadSignature]
    ] = stored_signature


#: artifact name -> (committed path, cell-signature reader)
ARTIFACTS: Dict[str, ArtifactSpec] = {
    "fig1_taxonomy": ArtifactSpec("results/BENCH_fig1_taxonomy.json"),
    "lock_ladder": ArtifactSpec(
        "results/BENCH_lock_ladder.summary.json", ladder_envelope_signature
    ),
    "table3": ArtifactSpec("results/BENCH_table3.json"),
}


def _read_json(path: pathlib.Path) -> Dict[str, Any]:
    if path.suffix == ".gz":
        return json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    return json.loads(path.read_text())


def load_observed_cells(
    root: pathlib.Path,
    artifacts: Optional[Dict[str, ArtifactSpec]] = None,
) -> List[ObservedCell]:
    """Load every cell of every committed artifact under *root*.

    Skips artifacts whose file is absent (e.g. a fresh checkout that has
    not regenerated optional sweeps) and cells whose workload the model
    has no signature for.  A cell written before artifacts carried
    signatures raises, naming its artifact.
    """
    if artifacts is None:
        artifacts = ARTIFACTS
    cells: List[ObservedCell] = []
    for name, spec in artifacts.items():
        path = root / spec.path
        if not path.exists():
            continue
        payload = _read_json(path)
        for cell in payload.get("cells", []):
            try:
                signature = spec.build_signature(cell)
            except KeyError as missing:
                raise ValueError(
                    f"{name} ({spec.path}): cell {cell.get('key')} has no "
                    f"{missing} field; regenerate the artifact"
                ) from None
            if signature is None:
                continue
            cells.append(
                ObservedCell(
                    artifact=name,
                    key=tuple(cell["key"]),
                    signature=signature,
                    observed_cycles=float(cell["cycles"]),
                )
            )
    return cells
