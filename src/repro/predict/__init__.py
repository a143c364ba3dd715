"""Analytical throughput prediction — the simulator-free "what if" layer.

Answers "what would lock throughput be with 128 processors on the
directory fabric under IQOLB?" in microseconds of arithmetic instead of
minutes of simulation, using closed-form queueing models calibrated
against the committed benchmark artifacts.  See ``docs/prediction.md``
for the derivation, the calibration procedure, and the validated error
bounds — and for when to stop trusting the model and simulate.
"""

from repro.predict.benches import ObservedCell, load_observed_cells
from repro.predict.calibrate import (
    fit,
    fit_from_artifacts,
    load_calibration,
    save_calibration,
)
from repro.predict.model import (
    CalibrationParams,
    CostCurve,
    Prediction,
    default_params,
    predict,
)
from repro.predict.validate import (
    ValidationReport,
    check_gates,
    validate_artifacts,
    validate_cells,
    write_report,
)

__all__ = [
    "CalibrationParams",
    "CostCurve",
    "ObservedCell",
    "Prediction",
    "ValidationReport",
    "check_gates",
    "default_params",
    "fit",
    "fit_from_artifacts",
    "load_calibration",
    "load_observed_cells",
    "predict",
    "save_calibration",
    "validate_artifacts",
    "validate_cells",
    "write_report",
]
