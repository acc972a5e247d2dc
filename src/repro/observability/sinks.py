"""Streaming trace sinks — public namespace.

The sink implementations live in :mod:`repro.core.tracing` (the
:class:`~repro.core.tracing.Trace` facade depends on them); this module is
their home inside the telemetry subsystem, so user code reads::

    from repro.observability.sinks import JsonlSink, EventFilter

    sink = JsonlSink("trace.jsonl", filter=EventFilter.parse("kind=send,deliver"))
    result = run_simulation(config, sink=sink)

Available sinks:

* :class:`MemorySink` — buffers in memory (default; what the validator and
  the Fig. 9 view-timeline analysis consume).
* :class:`JsonlSink` — streams newline-delimited JSON to disk with bounded
  memory; the input format of ``repro inspect``.
* :class:`NullSink` — counts and discards.

All sinks accept an :class:`EventFilter` (kind / node / time-window
clauses).  A custom sink overrides :meth:`TraceSink.record`, keeping a
record when ``super().record(...)`` (filter and count) returns True.
:func:`~repro.core.tracing.trace_rows` reads a sink's file back as rows.

Cost when disabled: every hot-path ``trace.record`` call in the kernel is
gated on ``trace.enabled``, so a run without tracing pays neither sink
dispatch nor the construction of the record's arguments (see
``docs/performance.md``).
"""

from __future__ import annotations

from ..core.tracing import (
    EventFilter,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceBufferUnavailable,
    TraceEvent,
    TraceSink,
)

__all__ = [
    "EventFilter",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "TraceBufferUnavailable",
    "TraceEvent",
    "TraceSink",
]
