"""Run telemetry: trace sinks, trace forensics, and run health.

The paper's evaluation is about simulator *efficiency* (§V: events per
second, scalability with node count); this subsystem is the measurement
substrate that makes those properties observable inside our own engine.
Three pillars:

* **streaming trace sinks** (:mod:`repro.observability.sinks`) — pluggable
  storage behind :class:`~repro.core.tracing.Trace`; ``JsonlSink`` records
  million-event traces to disk with bounded memory.
* **trace forensics** (:mod:`repro.observability.inspect`) — the streaming
  analysis behind the ``repro inspect`` CLI: message-usage accounting,
  per-view timelines, stall forensics.  It, the causality DAG, the phase
  analyzer and the health replay read ``(time, kind, node, fields)`` rows
  through one reader, :func:`~repro.core.tracing.trace_rows`.
* **streaming run health** (:mod:`repro.observability.health`) — O(1)
  rolling-window anomaly detectors fed from the dispatch loop (view
  storms, stragglers, backlog growth, fan-in spikes, client starvation),
  reported live through the store/dashboard/`repro watch` and replayable
  offline from a finished trace with identical state.

Telemetry never influences simulation behavior: with everything enabled or
everything disabled, ``result_fingerprint`` is byte-identical.
"""

from ..core.lazy import lazy_attributes
from ..core.tracing import trace_rows
from .health import (
    HealthEvent,
    HealthMonitor,
    HealthReport,
    analyze_trace_health,
    render_health,
    replay_health,
)
from .metrics import (
    Counter,
    Histogram,
    HistogramData,
    MetricsRegistry,
    RunMetrics,
)
from .sinks import (
    EventFilter,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceBufferUnavailable,
    TraceSink,
)

#: Trace forensics load on first use: a run or a sweep never reads them.
__getattr__ = lazy_attributes(__name__, {
    "causality": (
        "CausalityGraph", "CriticalPath", "QuorumTimeline", "critical_path",
        "critical_paths", "quorum_timeline", "quorum_timelines",
        "render_critical_paths", "render_quorum_timelines",
    ),
    "inspect": ("TraceReport", "analyze_trace", "render_report"),
    "phases": ("PhaseReport", "PhaseStay", "analyze_phases", "render_phase_report"),
})

__all__ = [
    "CausalityGraph",
    "Counter",
    "CriticalPath",
    "EventFilter",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "HistogramData",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PhaseReport",
    "PhaseStay",
    "QuorumTimeline",
    "RunMetrics",
    "TraceBufferUnavailable",
    "TraceReport",
    "TraceSink",
    "analyze_phases",
    "analyze_trace",
    "analyze_trace_health",
    "critical_path",
    "critical_paths",
    "quorum_timeline",
    "quorum_timelines",
    "render_critical_paths",
    "render_health",
    "replay_health",
    "render_phase_report",
    "render_quorum_timelines",
    "render_report",
    "trace_rows",
]
