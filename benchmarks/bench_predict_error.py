"""Prediction-error bench: the analytical model vs. cached simulations.

Replays the committed benchmark cells (Figure 1 taxonomy, Table 3, and
the lock ladder's 16-cell calibration envelope: TTS, delayed response
and IQOLB on the directory, IQOLB on the bus) through ``repro.predict``
— calibrating from those same cells, with zero simulator invocations —
and publishes ``BENCH_predict_error.summary.json``, the one writer of
that file.  It asserts the gates CI's ``repro predict --validate`` run
applies: mean relative error <= 25%, and on >= 90% of comparable cell
groups the predicted taxonomy ordering (tts > delayed > iqolb, or not)
matches the simulated ordering.

Unlike the other benches this one needs no ``--smoke`` split: the whole
validation is closed-form arithmetic and finishes in seconds.
"""

import pathlib

from conftest import once, publish, result_path
from repro.harness.tables import render_table
from repro.predict import check_gates, validate_artifacts, write_report

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_validation():
    return validate_artifacts(ROOT)


def test_predict_error(benchmark):
    report = once(benchmark, run_validation)

    write_report(report, result_path("BENCH_predict_error.summary.json"))

    rows = [
        (
            cell.artifact,
            "/".join(str(part) for part in cell.key),
            cell.kind,
            f"{cell.observed_cycles:,.0f}",
            f"{cell.predicted_cycles:,.0f}",
            f"{cell.rel_error:+.1%}",
            cell.regime,
        )
        for cell in sorted(report.cells, key=lambda c: -abs(c.rel_error))
    ]
    summary = (
        f"mean |rel error| {report.mean_abs_rel_error:.1%} over "
        f"{len(report.cells)} cells (max {report.max_abs_rel_error:.1%}); "
        f"ordering matches the simulated ordering on "
        f"{report.ordering_agreement:.0%} of {len(report.ordering)} groups"
    )
    table = render_table(
        ["artifact", "cell", "kind", "simulated", "predicted", "error",
         "regime"],
        rows,
        title=f"Prediction vs. cached simulation — {summary}",
    )
    publish("predict_error", table)

    # the same gates predict-smoke enforces in CI
    assert check_gates(report) == [], check_gates(report)
    # simulation-free: every observation came from the committed files
    assert len(report.cells) >= 50
    # the paper's ordering claim must hold in the *simulated* data too,
    # or the model is being graded against a broken pairing
    assert all(group.observed_ordered for group in report.ordering)
