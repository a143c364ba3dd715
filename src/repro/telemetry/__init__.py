"""Unified telemetry: structured tracing, manifests, metrics export.

The paper's argument rests on *distributions* — deferral delays bounded
by timeouts, hand-off latencies per acquire/release pair, failed-SC
storms under contention — so the reproduction carries the observability
layer a serving stack would: every protocol component emits structured
:class:`~repro.telemetry.events.TelemetryEvent` records through one
:class:`~repro.telemetry.tracer.TraceDispatcher`, pluggable sinks write
them to memory, JSONL or Chrome ``trace_event`` files, and every run is
stamped with a :class:`~repro.telemetry.manifest.RunManifest` that the
harness aggregates into machine-readable ``metrics.json`` summaries.

With no dispatcher attached the hot paths see a single ``is None``
check, so an untraced run pays (near) zero overhead.

See ``docs/observability.md`` for the guided tour.
"""

from repro.telemetry.events import (
    CATEGORIES,
    TelemetryEvent,
    category_of,
)
from repro.telemetry.export import (
    metrics_payload,
    summary_payload,
    write_metrics,
    write_metrics_archive,
)
from repro.telemetry.manifest import (
    RunManifest,
    canonical,
    stable_hash,
)
from repro.telemetry.schema import (
    SchemaError,
    infer_schema_path,
    validate,
    validate_file,
)
from repro.telemetry.sinks import (
    ChromeTraceSink,
    JsonlSink,
    TraceSink,
)
from repro.telemetry.tracer import TraceDispatcher

__all__ = [
    "CATEGORIES",
    "ChromeTraceSink",
    "JsonlSink",
    "RunManifest",
    "SchemaError",
    "TelemetryEvent",
    "TraceDispatcher",
    "TraceSink",
    "canonical",
    "category_of",
    "infer_schema_path",
    "metrics_payload",
    "stable_hash",
    "validate",
    "validate_file",
    "summary_payload",
    "write_metrics",
    "write_metrics_archive",
]
