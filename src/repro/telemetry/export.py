"""Machine-readable metrics export (``metrics.json``).

Aggregates a batch of :class:`~repro.harness.experiment.RunResult`
objects — each carrying counters, log-bucketed histogram summaries and
a :class:`~repro.telemetry.manifest.RunManifest` — into one JSON
document the CI pipeline archives and downstream tooling (plots,
dashboards, regression checks) consumes.  Schema:
``tests/schemas/metrics.schema.json``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Mapping, Optional, Union

#: bump when the payload shape changes incompatibly
METRICS_SCHEMA = "repro-metrics/1"

#: the compact per-cell digest kept in version control for large benches
SUMMARY_SCHEMA = "repro-metrics-summary/1"


def _cell(key: Any, result: Any) -> Dict[str, Any]:
    manifest = getattr(result, "manifest", None)
    manifest = manifest.to_dict() if manifest is not None else None
    # The signature is the cell's own description, not provenance: lift
    # it out of the manifest so the document holds it once.
    signature = manifest.pop("signature", None) if manifest else None
    return {
        "key": list(key) if isinstance(key, (list, tuple)) else [str(key)],
        "workload": result.workload,
        "primitive": result.primitive,
        "n_processors": result.n_processors,
        "cycles": result.cycles,
        "bus_transactions": result.bus_transactions,
        "wall_time_s": result.wall_time_s,
        "counters": dict(result.stats),
        "histograms": dict(getattr(result, "histograms", {}) or {}),
        "signature": signature,
        "manifest": manifest,
    }


def metrics_payload(
    results: Union[Mapping[Any, Any], Iterable[Any]],
    runner_stats: Optional[Any] = None,
) -> Dict[str, Any]:
    """The ``metrics.json`` document for a batch of runs.

    ``results`` is either a grid (key -> RunResult, as returned by
    ``run_cells``) or a plain iterable of RunResults.
    """
    import repro

    if isinstance(results, Mapping):
        items = list(results.items())
    else:
        items = [((r.workload, r.primitive), r) for r in results]
    payload: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "version": repro.__version__,
        "cells": [_cell(key, result) for key, result in items],
    }
    if runner_stats is not None:
        payload["runner"] = {
            "total": runner_stats.total,
            "executed": runner_stats.executed,
            "cache_hits": runner_stats.cache_hits,
            "wall_time_s": runner_stats.wall_time_s,
            "n_jobs": runner_stats.n_jobs,
        }
    return payload


def summary_payload(full: Dict[str, Any]) -> Dict[str, Any]:
    """The compact digest of a full metrics payload.

    Keeps the headline numbers (cycles, bus transactions, wall time,
    provenance hash) and the workload signature per cell and drops the
    per-node counter and histogram bodies — the review-able diff for
    version control, while the full document travels as a gzipped
    sidecar.
    """
    cells = []
    for cell in full["cells"]:
        manifest = cell.get("manifest") or {}
        cells.append(
            {
                "key": cell["key"],
                "workload": cell["workload"],
                "primitive": cell["primitive"],
                "n_processors": cell["n_processors"],
                "cycles": cell["cycles"],
                "bus_transactions": cell["bus_transactions"],
                "wall_time_s": cell["wall_time_s"],
                "events_fired": manifest.get("events_fired", 0),
                "events_skipped": manifest.get("events_skipped", 0),
                "events_per_host_s": manifest.get("events_per_host_s", 0.0),
                "n_counters": len(cell.get("counters") or {}),
                "n_histograms": len(cell.get("histograms") or {}),
                "config_hash": manifest.get("config_hash"),
                "signature": cell.get("signature"),
            }
        )
    summary: Dict[str, Any] = {
        "schema": SUMMARY_SCHEMA,
        "version": full["version"],
        "cells": cells,
    }
    if "runner" in full:
        summary["runner"] = full["runner"]
    return summary


def write_metrics(
    path: Union[str, os.PathLike],
    results: Union[Mapping[Any, Any], Iterable[Any]],
    runner_stats: Optional[Any] = None,
) -> Dict[str, Any]:
    """Write ``metrics.json`` to *path*; returns the payload."""
    payload = metrics_payload(results, runner_stats)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def write_metrics_archive(
    base_path: Union[str, os.PathLike],
    results: Union[Mapping[Any, Any], Iterable[Any]],
    runner_stats: Optional[Any] = None,
) -> Dict[str, Any]:
    """Write ``<base>.summary.json`` + gzipped ``<base>.json.gz``.

    The two-file form for artifacts too large to commit raw: the compact
    summary is the committed, diffable record; the gzip carries every
    counter and histogram for CI upload and offline analysis
    (``repro validate`` reads ``.gz`` directly).  Returns the *full*
    payload.
    """
    import gzip

    base = os.fspath(base_path)
    if base.endswith(".json"):
        base = base[: -len(".json")]
    payload = metrics_payload(results, runner_stats)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # mtime=0 keeps the archive byte-identical across regenerations of
    # identical content, so reruns do not dirty the working tree.
    with open(f"{base}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(text.encode("utf-8"))
    with open(f"{base}.summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary_payload(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
