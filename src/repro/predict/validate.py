"""Prediction-vs-simulation validation over the cached sweep artifacts.

Replays every committed benchmark cell through the analytical model and
reports per-cell relative error plus whether the model preserves the
paper's taxonomy ordering (``tts`` slowest, ``delayed`` in between,
``iqolb`` fastest) wherever all three primitives were simulated under
identical conditions.  The report serializes to
``results/BENCH_predict_error.summary.json`` (schema
``repro-predict-error/1``) — a committed, CI-gated correctness artifact
alongside the perf baseline.

Ordering groups are restricted to lock-shaped cells: on the contended
RMW microbenchmark a deferred primitive and a queued one converge to
the same single-owner update cost (the simulator reports them within a
cycle of each other), so a strict ``delayed > iqolb`` comparison there
would test tie-breaking noise, not the taxonomy.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.harness.signature import KIND_RMW
from repro.predict.benches import ObservedCell, load_observed_cells
from repro.predict.calibrate import fit
from repro.predict.model import CalibrationParams, predict

__all__ = [
    "ValidationCell",
    "OrderingGroup",
    "ValidationReport",
    "validate_artifacts",
    "check_gates",
]

SCHEMA = "repro-predict-error/1"

#: the paper's taxonomy, slowest to fastest under contention
TAXONOMY_ORDER = ("tts", "delayed", "iqolb")


@dataclasses.dataclass(frozen=True)
class ValidationCell:
    """One simulated cell versus its analytical prediction."""

    artifact: str
    key: Tuple[Any, ...]
    kind: str
    workload: str
    primitive: str
    fabric: str
    n_processors: int
    observed_cycles: float
    predicted_cycles: float
    regime: str

    @property
    def rel_error(self) -> float:
        return (
            self.predicted_cycles - self.observed_cycles
        ) / self.observed_cycles

    def to_dict(self) -> Dict[str, Any]:
        return {
            "artifact": self.artifact,
            "key": list(self.key),
            "kind": self.kind,
            "workload": self.workload,
            "primitive": self.primitive,
            "fabric": self.fabric,
            "n_processors": self.n_processors,
            "observed_cycles": self.observed_cycles,
            "predicted_cycles": round(self.predicted_cycles, 2),
            "rel_error": round(self.rel_error, 4),
            "regime": self.regime,
        }


@dataclasses.dataclass(frozen=True)
class OrderingGroup:
    """One (artifact, condition) where all taxonomy primitives ran."""

    artifact: str
    group: Tuple[Any, ...]
    observed_ordered: bool
    predicted_ordered: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "artifact": self.artifact,
            "group": list(self.group),
            "observed_ordered": self.observed_ordered,
            "predicted_ordered": self.predicted_ordered,
        }


@dataclasses.dataclass
class ValidationReport:
    cells: List[ValidationCell]
    ordering: List[OrderingGroup]
    fitted_from: Tuple[str, ...] = ()

    @property
    def mean_abs_rel_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(abs(c.rel_error) for c in self.cells) / len(self.cells)

    @property
    def max_abs_rel_error(self) -> float:
        return max((abs(c.rel_error) for c in self.cells), default=0.0)

    @property
    def ordering_agreement(self) -> float:
        """Share of groups whose predicted ordering (strict taxonomy
        order or not) matches the simulated one."""
        if not self.ordering:
            return 1.0
        agree = sum(
            1 for g in self.ordering
            if g.predicted_ordered == g.observed_ordered
        )
        return agree / len(self.ordering)

    def payload(self) -> Dict[str, Any]:
        """The ``repro-predict-error/1`` artifact document."""
        return {
            "schema": SCHEMA,
            "version": __version__,
            "fitted_from": list(self.fitted_from),
            "cells": [c.to_dict() for c in sorted(
                self.cells, key=lambda c: (c.artifact, tuple(map(str, c.key)))
            )],
            "ordering": [g.to_dict() for g in sorted(
                self.ordering,
                key=lambda g: (g.artifact, tuple(map(str, g.group))),
            )],
            "summary": {
                "n_cells": len(self.cells),
                "mean_abs_rel_error": round(self.mean_abs_rel_error, 4),
                "max_abs_rel_error": round(self.max_abs_rel_error, 4),
                "n_ordering_groups": len(self.ordering),
                "ordering_agreement": round(self.ordering_agreement, 4),
            },
        }


def _ordering_groups(
    observed: Dict[Tuple[Any, ...], ObservedCell],
    predicted: Dict[Tuple[Any, ...], float],
) -> List[OrderingGroup]:
    """Group lock-shaped cells that differ only in primitive."""
    groups: Dict[
        Tuple[str, Tuple[Any, ...]], Dict[str, Tuple[float, float]]
    ] = defaultdict(dict)
    for full_key, cell in observed.items():
        sig = cell.signature
        if sig.kind == KIND_RMW or sig.primitive not in TAXONOMY_ORDER:
            continue
        condition = tuple(
            part for part in cell.key if part != sig.primitive
        )
        groups[(cell.artifact, condition)][sig.primitive] = (
            cell.observed_cycles,
            predicted[full_key],
        )
    out = []
    for (artifact, condition), members in groups.items():
        if any(prim not in members for prim in TAXONOMY_ORDER):
            continue
        obs = [members[p][0] for p in TAXONOMY_ORDER]
        pred = [members[p][1] for p in TAXONOMY_ORDER]
        out.append(
            OrderingGroup(
                artifact=artifact,
                group=condition,
                observed_ordered=obs[0] > obs[1] > obs[2],
                predicted_ordered=pred[0] > pred[1] > pred[2],
            )
        )
    return out


def validate_cells(
    cells: Sequence[ObservedCell],
    params: Optional[CalibrationParams] = None,
    fitted_from: Tuple[str, ...] = (),
) -> ValidationReport:
    """Predict every observed cell and assemble the error report.

    With ``params=None`` the model is calibrated from the *same* cells
    first — the standard self-consistency check the CI gate runs.
    """
    if params is None:
        fitted_from = tuple(sorted({c.artifact for c in cells}))
        params = fit(cells, fitted_from=fitted_from)
    observed = {(c.artifact,) + c.key: c for c in cells}
    predicted = {
        key: predict(cell.signature, params)
        for key, cell in observed.items()
    }
    report_cells = [
        ValidationCell(
            artifact=cell.artifact,
            key=cell.key,
            kind=cell.signature.kind,
            workload=cell.signature.workload,
            primitive=cell.signature.primitive,
            fabric=cell.signature.fabric,
            n_processors=cell.signature.n_processors,
            observed_cycles=cell.observed_cycles,
            predicted_cycles=predicted[key].cycles,
            regime=predicted[key].regime,
        )
        for key, cell in observed.items()
    ]
    ordering = _ordering_groups(
        observed, {key: p.cycles for key, p in predicted.items()}
    )
    return ValidationReport(
        cells=report_cells, ordering=ordering, fitted_from=fitted_from
    )


def validate_artifacts(
    root: pathlib.Path, params: Optional[CalibrationParams] = None
) -> ValidationReport:
    """Validate against every committed artifact under *root*."""
    cells = load_observed_cells(root)
    if not cells:
        raise FileNotFoundError(
            f"no benchmark artifacts found under {root}/results"
        )
    return validate_cells(cells, params=params)


def check_gates(
    report: ValidationReport,
    max_mean_error: float = 0.25,
    min_agreement: float = 0.90,
) -> List[str]:
    """The CI acceptance gates; returns human-readable failures."""
    problems = []
    if not report.cells:
        problems.append("no cells validated")
    if report.mean_abs_rel_error > max_mean_error:
        problems.append(
            f"mean |rel error| {report.mean_abs_rel_error:.1%} exceeds "
            f"{max_mean_error:.0%}"
        )
    if report.ordering_agreement < min_agreement:
        problems.append(
            f"taxonomy ordering agreement {report.ordering_agreement:.1%} "
            f"below {min_agreement:.0%}"
        )
    return problems


def write_report(report: ValidationReport, path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"
    )
