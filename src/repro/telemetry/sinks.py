"""Trace sinks: JSONL file, Chrome trace_event.

Every sink consumes :class:`~repro.telemetry.events.TelemetryEvent`
records from a :class:`~repro.telemetry.tracer.TraceDispatcher` (the
in-memory sink is :class:`~repro.harness.traces.TraceRecorder`):

* :class:`JsonlSink` — one JSON object per line, streamed to disk; the
  machine-readable archive format (schema:
  ``tests/schemas/trace_jsonl.schema.json``).
* :class:`ChromeTraceSink` — the Chrome ``trace_event`` JSON format;
  load the file in ``chrome://tracing`` or https://ui.perfetto.dev to
  inspect a run visually, one track per node, with deferral windows
  rendered as duration slices.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Tuple, Union

from repro.telemetry.events import TelemetryEvent

#: Shared encoder for the JSONL hot path: ``json.dumps(sort_keys=True)``
#: builds a fresh ``JSONEncoder`` per call, which dominates emit cost.
_JSONL_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class TraceSink:
    """Interface: receive events, flush on close."""

    def emit(self, event: TelemetryEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush buffered output; idempotent.  Default: nothing to do."""


class JsonlSink(TraceSink):
    """Streams events as JSON Lines to a path or open text file."""

    def __init__(self, target: Union[str, os.PathLike, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        self.events_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        self._file.write(_JSONL_ENCODE(event.to_json_obj()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()


class ChromeTraceSink(TraceSink):
    """Exports the run as Chrome ``trace_event`` JSON.

    Layout: one process (the simulated machine), one thread *track per
    node* (``P0`` ... ``Pn``, plus a ``bus`` track for address-bus
    broadcasts).  Most events are instants (``ph: "i"``); a ``defer``
    that later resolves in a ``handoff``/``timeout``/``queue_breakdown``
    on the same (node, line) becomes a complete slice (``ph: "X"``)
    spanning the deferral window, so the bounded delays the paper
    inserts are directly visible as bars.

    Timestamps are simulated cycles reported in the format's
    microsecond field — 1 cycle renders as 1 us.
    """

    #: synthetic thread id for the bus track (after any realistic node)
    BUS_TRACK = 10_000

    def __init__(self, target: Union[str, os.PathLike, IO[str]]) -> None:
        self._target = target
        self._events: List[Dict[str, Any]] = []
        self._nodes_seen: set = set()
        #: (node, line_addr) -> (start_time, info) of an open deferral
        self._open_defers: Dict[Tuple[int, int], Tuple[int, dict]] = {}
        self._closed = False

    def emit(self, event: TelemetryEvent) -> None:
        tid = self.BUS_TRACK if event.category == "bus" else event.node
        self._nodes_seen.add(tid)
        args = {"line": hex(event.line_addr), **event.info}
        if event.kind == "defer":
            # Open a deferral window; closed by the matching discharge.
            self._open_defers[(event.node, event.line_addr)] = (
                event.time,
                dict(args),
            )
        elif event.kind in ("handoff", "timeout", "queue_breakdown"):
            opened = self._open_defers.pop((event.node, event.line_addr), None)
            if opened is not None:
                start, open_args = opened
                self._events.append(
                    {
                        "name": "deferral",
                        "cat": "deferral",
                        "ph": "X",
                        "ts": start,
                        "dur": max(1, event.time - start),
                        "pid": 0,
                        "tid": event.node,
                        "args": {**open_args, "resolved_by": event.kind},
                    }
                )
        self._events.append(
            {
                "name": event.kind,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": event.time,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )

    def _metadata(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro simulated multiprocessor"},
            }
        ]
        for tid in sorted(self._nodes_seen):
            label = "bus" if tid == self.BUS_TRACK else f"P{tid}"
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return meta

    def payload(self) -> Dict[str, Any]:
        """The complete trace document (also what ``close`` writes)."""
        return {
            "traceEvents": self._metadata() + self._events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "simulated processor cycles"},
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        payload = self.payload()
        if hasattr(self._target, "write"):
            json.dump(payload, self._target)  # type: ignore[arg-type]
        else:
            with open(self._target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
