"""The tracing backbone: one hook, one dispatch point, fixed sinks.

Every emitter — the cache controllers (and the policies through them),
the address bus, the directory and the checker's fault injector — calls
the same hook, ``tracer(kind, time, node, line_addr, info)``.
:meth:`TraceDispatcher.tracer` is that hook: it wraps the call in a
:class:`~repro.telemetry.events.TelemetryEvent` and fans it out to the
sinks the dispatcher was built with, in order.
"""

from __future__ import annotations

from typing import Iterable

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.sinks import TraceSink


class TraceDispatcher:
    """Fans structured events out to the sinks it was built with.

    The sinks are fixed at construction, so
    :meth:`~repro.harness.system.System.attach_telemetry` decides once
    whether the emitters get :meth:`tracer` or ``None``: a dispatcher
    with no sinks costs the hot paths nothing, not even a call.
    """

    def __init__(self, sinks: Iterable[TraceSink] = ()) -> None:
        self.sinks = tuple(sinks)
        self.events_dispatched = 0

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    def tracer(
        self, kind: str, time: int, node: int, line_addr: int, info: dict
    ) -> None:
        """The emitters' hook.  ``info`` is each call's own fresh dict."""
        self.events_dispatched += 1
        event = TelemetryEvent(time, node, kind, line_addr, info)
        for sink in self.sinks:
            sink.emit(event)
