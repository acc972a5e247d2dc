"""Streaming run-health: online anomaly detectors over rolling windows.

Every analyzer the repo had before this module (causality DAG, phase
breakdowns, quorum timelines) runs *post-hoc* on a finished trace; a
million-event fleet run gives no signal until it ends.  The
:class:`HealthMonitor` closes that gap: rolling-window detectors that
count nothing themselves.  The run's one counting table,
:class:`~repro.observability.signals.LiveSignals`, hears every delivery,
decision and view entry; at each window close the monitor reads the
table's deltas against the snapshot it took at the previous close, in
O(n x kinds + views entered in the window) work that does not grow with
the run.

Determinism contract
--------------------
The monitor is OBSERVE-only: it never draws randomness, never schedules
events, and never touches protocol or network state, so enabling it
leaves every golden digest byte-identical.  Its :class:`HealthReport`
lives on :class:`~repro.core.results.SimulationResult` *outside* the
deterministic field set (like ``run_metrics``), so
``result_fingerprint`` is unchanged by construction.

Online == offline
-----------------
Detector inputs split in two:

* **table counts** (deliveries per message kind, decisions per node,
  view entries) accumulate in the table from the same events that
  produce ``deliver`` / ``decide`` / ``view`` trace records;
* **engine samples** (in-flight message count, mempool depth, per-client
  fairness) are read from live engine state at each window boundary —
  state a raw trace does not contain.

At every window close the online monitor therefore records a
``health-sample`` trace event carrying exactly the engine-state values
the detectors consumed, *before* the boundary-crossing event's own trace
lines (``advance`` runs in the dispatch loop ahead of the dispatch).
:func:`replay_health` rebuilds a monitor from a finished trace by
feeding a fresh table from the raw events through the same ``on_*``
methods and closing windows from the recorded samples: the same inputs
through the same code, so table and detector state are identical by
construction (the property suite still compares them field by field).
Detection events (kind ``"health"``) are outputs, not inputs: replay
ignores them and re-derives them from the same inputs.

Detectors
---------
The thresholds are module constants; a monitor's only setting is its
window width.

``view-storm``
    honest nodes entered at least ``VIEW_STORM_THRESHOLD`` (4)
    *distinct* views within one window in which **no decision landed** —
    views are churning without progress.  Counting distinct views (not
    entries) keeps one fleet-wide view advance (n entries of the same
    view) from reading as a storm, and the no-decision gate keeps
    view-per-slot protocols (chained HotStuff) from reading their normal
    rotation as one.
``straggler``
    some node's total decision count lags the fleet maximum by at least
    ``STRAGGLER_LAG``; re-reported every window while the lag persists
    (a crashed replica *is* unhealthy for the rest of the run).
``backlog``
    in-flight messages + mempool depth strictly grew across
    ``BACKLOG_WINDOWS`` consecutive windows and ended at or above
    ``BACKLOG_MIN`` — the drain rate fell behind the offered rate.
``fanin-spike``
    one message kind's window delivery count exceeded
    ``FANIN_FACTOR`` x its EWMA baseline (smoothing ``FANIN_ALPHA``,
    warm-up guarded by ``FANIN_MIN``).
``starvation``
    Jain's fairness index over per-client decided counts fell below
    ``FAIRNESS_THRESHOLD``, or the oldest outstanding request waited
    longer than ``STARVATION_WAIT_WINDOWS`` (10) windows;
    implicates the lagging clients.  Only fires on workload runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from ..core.config import check_finite
from ..core.tracing import TraceSource, trace_rows
from .signals import LiveSignals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.controller import Controller
    from ..core.events import EventQueue
    from ..core.tracing import Trace

__all__ = [
    "DEFAULT_WINDOW_MS",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "analyze_trace_health",
    "render_health",
    "replay_health",
]

DEFAULT_WINDOW_MS = 500.0

#: Detector thresholds (see the module docstring).
VIEW_STORM_THRESHOLD = 4
STRAGGLER_LAG = 2
BACKLOG_WINDOWS = 3
BACKLOG_MIN = 8
FANIN_FACTOR = 4.0
FANIN_MIN = 16
FANIN_ALPHA = 0.25
FAIRNESS_THRESHOLD = 0.5
STARVATION_WAIT_WINDOWS = 10.0

#: Keys a ``health-sample`` trace event may carry besides time/kind/node.
SAMPLE_KEYS = (
    "queue", "mempool", "fairness", "max_wait", "wait_client",
    "lagging", "decided",
)


@dataclass(frozen=True)
class HealthEvent:
    """One anomaly detection: what fired, when, and who is implicated.

    Attributes:
        time: window-close time the detection was evaluated at (ms).
        detector: detector name (``view-storm``, ``straggler``,
            ``backlog``, ``fanin-spike``, ``starvation``).
        severity: ``"warn"`` or ``"critical"``.
        window_start: start of the evaluated window (ms).
        window_end: end of the evaluated window (== ``time``).
        nodes: implicated node ids (sorted, possibly empty).
        clients: implicated client ids (sorted, possibly empty).
        evidence: detector-specific counters behind the call.
    """

    time: float
    detector: str
    severity: str
    window_start: float
    window_end: float
    nodes: tuple[int, ...] = ()
    clients: tuple[int, ...] = ()
    evidence: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "detector": self.detector,
            "severity": self.severity,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "nodes": list(self.nodes),
            "clients": list(self.clients),
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthEvent":
        return cls(
            time=float(data["time"]),
            detector=str(data["detector"]),
            severity=str(data["severity"]),
            window_start=float(data["window_start"]),
            window_end=float(data["window_end"]),
            nodes=tuple(int(n) for n in data.get("nodes", ())),
            clients=tuple(int(c) for c in data.get("clients", ())),
            evidence=dict(data.get("evidence", {})),
        )


@dataclass
class HealthReport:
    """Everything the monitor established over one run.

    Attributes:
        window_ms: rolling-window width the detectors evaluated at.
        windows: number of windows closed (including the final partial).
        events: every detection, in evaluation order.
        anomaly_count: ``len(events)``.
        min_fairness: lowest Jain index observed at any window close
            (``None`` on runs without a workload).
        detectors: detection count per detector name.
    """

    window_ms: float
    windows: int
    events: list[HealthEvent] = field(default_factory=list)
    anomaly_count: int = 0
    min_fairness: float | None = None
    detectors: dict[str, int] = field(default_factory=dict)

    @property
    def starved_clients(self) -> tuple[int, ...]:
        """Distinct clients implicated by any starvation detection."""
        clients: set[int] = set()
        for event in self.events:
            if event.detector == "starvation":
                clients.update(event.clients)
        return tuple(sorted(clients))

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_ms": self.window_ms,
            "windows": self.windows,
            "anomaly_count": self.anomaly_count,
            "min_fairness": self.min_fairness,
            "detectors": dict(self.detectors),
            "starved_clients": list(self.starved_clients),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthReport":
        events = [HealthEvent.from_dict(e) for e in data.get("events", ())]
        return cls(
            window_ms=float(data["window_ms"]),
            windows=int(data["windows"]),
            events=events,
            anomaly_count=int(data.get("anomaly_count", len(events))),
            min_fairness=(
                float(data["min_fairness"])
                if data.get("min_fairness") is not None
                else None
            ),
            detectors={str(k): int(v) for k, v in data.get("detectors", {}).items()},
        )

    def summary(self) -> str:
        """One line for CLI output: counts per detector plus fairness."""
        if not self.events and self.min_fairness is None:
            return f"healthy ({self.windows} windows, no anomalies)"
        parts = [f"{self.anomaly_count} anomalies in {self.windows} windows"]
        if self.detectors:
            parts.append(
                ", ".join(f"{name}={count}" for name, count in sorted(self.detectors.items()))
            )
        if self.min_fairness is not None:
            parts.append(f"min fairness {self.min_fairness:.3f}")
        return "; ".join(parts)


class _Totals(NamedTuple):
    """What the counting table holds at one window close."""

    decisions: int
    views: int
    view_nodes: list[int]
    kinds: dict[str, int]


def _totals(table: LiveSignals) -> _Totals:
    return _Totals(
        table.decisions_seen, table.views_seen, list(table.views_by_node),
        {kind: sum(per_node) for kind, per_node in table.kind_fan_in.items()})


class HealthMonitor:
    """Online rolling-window anomaly detectors (see module docstring).

    Construct, then :meth:`bind_engine` (live run — the controller does
    this); :func:`replay_health` binds a monitor to a table it feeds from
    a trace.
    """

    __slots__ = (
        "window_ms", "starvation_wait_ms", "windows", "events",
        "signals", "_snapshot", "_kind_ewma", "_depths",
        "_min_fairness", "_last_fairness",
        "_window_start", "next_boundary",
        "_queue", "_workload", "_trace",
    )

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS) -> None:
        check_finite("health window_ms", window_ms, strict=True, error=ValueError)
        self.window_ms = float(window_ms)
        self.starvation_wait_ms = STARVATION_WAIT_WINDOWS * self.window_ms

        self.windows = 0
        self.events: list[HealthEvent] = []
        #: The run's counting table, and its counts at the last close.
        self.signals: LiveSignals | None = None
        self._snapshot: _Totals | None = None
        self._kind_ewma: dict[str, float] = {}
        self._depths: list[float] = []
        self._min_fairness: float | None = None
        self._last_fairness = 1.0
        self._window_start = 0.0
        #: When the open window closes; the run loop calls :meth:`advance` then.
        self.next_boundary = self.window_ms
        self._queue: "EventQueue | None" = None
        self._workload = None
        self._trace: "Trace | None" = None

    # ------------------------------------------------------------------
    # binding

    def _read(self, table: LiveSignals) -> None:
        """Read every window's counts from ``table`` from now on."""
        self.signals = table
        self._snapshot = _totals(table)

    def bind_engine(self, controller: "Controller") -> None:
        """Attach to a live controller: engine sampling + trace emission.

        When a :class:`~repro.observability.metrics.MetricsRegistry` is
        also active, registers ``health_anomalies`` and (on workload
        runs) ``workload_fairness`` gauges so anomaly and fairness
        series land in every metrics export, Prometheus included.
        """
        self._read(controller.signals)
        self._queue = controller.queue
        self._workload = controller._workload
        self._trace = controller.trace
        registry = controller.obs_metrics
        if registry is not None:
            registry.gauge("health_anomalies", lambda: float(len(self.events)))
            if self._workload is not None:
                registry.gauge("workload_fairness", lambda: self._last_fairness)

    # ------------------------------------------------------------------
    # window lifecycle

    def advance(self, now: float) -> None:
        """Close every window boundary at or before ``now`` (live path)."""
        while now >= self.next_boundary:
            self._sample_and_close(self.next_boundary)

    def finish(self, now: float) -> None:
        """End of run: flush boundaries, then close the final partial window."""
        self.advance(now)
        if now > self._window_start:
            self._sample_and_close(now)

    def _sample_and_close(self, end: float) -> None:
        """Read the engine state a raw trace cannot reconstruct, record it
        as a ``health-sample`` event, and close the window on it."""
        from ..core.events import MessageEvent

        sample: dict[str, Any] = {"queue": self._queue.live_count(MessageEvent)}
        if self._workload is not None:
            sample.update(self._workload.health_snapshot(end))
        if self._trace.enabled:
            self._trace.record(end, "health-sample", -1, **sample)
        self.close_window(end, sample)

    def close_window(self, end: float, sample: Mapping[str, Any]) -> None:
        """Evaluate every detector for the window ending at ``end``.

        The single entry point for both the live path (``sample`` freshly
        read from the engine) and offline replay (``sample`` parsed from
        the recorded ``health-sample`` event) — identical inputs through
        identical code is what makes online == offline a structural
        property rather than a testing aspiration.
        """
        start = self._window_start
        self.windows += 1
        totals = _totals(self.signals)
        self._check_view_storm(start, end, totals)
        self._check_stragglers(start, end)
        self._check_backlog(start, end, sample)
        self._check_fanin(start, end, totals.kinds)
        self._check_starvation(start, end, sample)
        self._snapshot = totals
        self._window_start = end
        self.next_boundary = end + self.window_ms

    # ------------------------------------------------------------------
    # detectors (each runs once per window close)

    def _check_view_storm(self, start: float, end: float, now: _Totals) -> None:
        before = self._snapshot
        # The table keeps views latest-entered last: the window's are a suffix.
        views = []
        for view, (_, latest) in reversed(self.signals.views.items()):
            if latest <= before.views:
                break
            views.append(view)
        distinct = len(views)
        if distinct >= VIEW_STORM_THRESHOLD and now.decisions == before.decisions:
            self._emit(
                end, "view-storm",
                "critical" if distinct >= 2 * VIEW_STORM_THRESHOLD else "warn",
                start,
                nodes=tuple(
                    node for node, (old, new) in enumerate(zip(before.view_nodes, now.view_nodes))
                    if new != old
                ),
                evidence={
                    "views": sorted(views),
                    "entries": now.views - before.views,
                    "threshold": VIEW_STORM_THRESHOLD,
                },
            )

    def _check_stragglers(self, start: float, end: float) -> None:
        decided = self.signals.decided
        top = max(decided, default=0)
        if top == 0:
            return
        lagging = tuple(
            node for node, count in enumerate(decided) if top - count >= STRAGGLER_LAG
        )
        if lagging:
            worst = top - min(decided)
            self._emit(
                end, "straggler",
                "critical" if worst >= 2 * STRAGGLER_LAG else "warn",
                start,
                nodes=lagging,
                evidence={"fleet_max": top, "max_lag": worst, "threshold": STRAGGLER_LAG},
            )

    def _check_backlog(
        self, start: float, end: float, sample: Mapping[str, Any]
    ) -> None:
        depth = float(sample.get("queue") or 0) + float(sample.get("mempool") or 0)
        depths = self._depths
        depths.append(depth)
        if len(depths) > BACKLOG_WINDOWS + 1:
            del depths[0]
        if (
            len(depths) == BACKLOG_WINDOWS + 1
            and depths[-1] >= BACKLOG_MIN
            and all(a < b for a, b in zip(depths, depths[1:]))
        ):
            self._emit(
                end, "backlog",
                "critical" if depths[-1] >= 4 * BACKLOG_MIN else "warn",
                start,
                evidence={
                    "depths": list(depths),
                    "queue": int(sample.get("queue") or 0),
                    "mempool": int(sample.get("mempool") or 0),
                },
            )

    def _check_fanin(self, start: float, end: float, kinds: dict[str, int]) -> None:
        before = self._snapshot.kinds
        ewma = self._kind_ewma
        for kind in sorted(kinds):
            count = kinds[kind] - before.get(kind, 0)
            baseline = ewma.get(kind)
            # A baseline below FANIN_MIN / FANIN_FACTOR is not yet established —
            # typically seeded from a near-empty warm-up window before the
            # first deliveries land — and would flag steady-state traffic
            # as a spike.  Keep folding such windows into the EWMA but do
            # not compare against them.
            if (
                baseline is not None
                and baseline * FANIN_FACTOR >= FANIN_MIN
                and count >= FANIN_MIN
                and count > FANIN_FACTOR * baseline
            ):
                self._emit(
                    end, "fanin-spike",
                    "critical" if count > 2 * FANIN_FACTOR * baseline else "warn",
                    start,
                    evidence={
                        "msg_type": kind, "count": count, "baseline": baseline,
                        "factor": FANIN_FACTOR,
                    },
                )
            ewma[kind] = (
                float(count)
                if baseline is None
                else FANIN_ALPHA * count + (1.0 - FANIN_ALPHA) * baseline
            )

    def _check_starvation(
        self, start: float, end: float, sample: Mapping[str, Any]
    ) -> None:
        fairness = sample.get("fairness")
        if fairness is None:
            return
        fairness = float(fairness)
        self._last_fairness = fairness
        if self._min_fairness is None or fairness < self._min_fairness:
            self._min_fairness = fairness
        decided = int(sample.get("decided") or 0)
        if decided > 0 and fairness < FAIRNESS_THRESHOLD:
            self._emit(
                end, "starvation",
                "critical" if fairness < FAIRNESS_THRESHOLD / 2 else "warn",
                start,
                clients=tuple(int(c) for c in sample.get("lagging") or ()),
                evidence={
                    "fairness": fairness, "decided": decided,
                    "threshold": FAIRNESS_THRESHOLD,
                },
            )
        max_wait = float(sample.get("max_wait") or 0.0)
        if max_wait >= self.starvation_wait_ms:
            wait_client = sample.get("wait_client")
            self._emit(
                end, "starvation",
                "critical" if max_wait >= 2 * self.starvation_wait_ms else "warn",
                start,
                clients=(int(wait_client),) if wait_client is not None else (),
                evidence={
                    "max_wait_ms": max_wait,
                    "threshold_ms": self.starvation_wait_ms,
                },
            )

    def _emit(self, time: float, detector: str, severity: str, window_start: float, *,
              nodes: tuple[int, ...] = (), clients: tuple[int, ...] = (),
              evidence: dict[str, Any] | None = None) -> None:
        self.events.append(HealthEvent(
            time, detector, severity, window_start, window_end=time,
            nodes=nodes, clients=clients, evidence=evidence or {}))
        trace = self._trace
        if trace is not None and trace.enabled:
            trace.record(
                time, "health", nodes[0] if nodes else -1,
                detector=detector, severity=severity,
                window_start=window_start,
                nodes=list(nodes), clients=list(clients),
                evidence=evidence or {},
            )

    # ------------------------------------------------------------------
    # results

    def report(self) -> HealthReport:
        return HealthReport(
            window_ms=self.window_ms,
            windows=self.windows,
            events=list(self.events),
            anomaly_count=len(self.events),
            min_fairness=self._min_fairness,
            detectors=dict(sorted(Counter(event.detector for event in self.events).items())),
        )


def _sample_fields(event: Mapping[str, Any]) -> dict[str, Any]:
    """The engine-state payload of a recorded ``health-sample`` event."""
    return {key: event[key] for key in SAMPLE_KEYS if key in event}


def replay_health(
    source: TraceSource,
    n: int,
    window_ms: float = DEFAULT_WINDOW_MS,
) -> HealthMonitor:
    """Rebuild a :class:`HealthMonitor` from a finished trace.

    A fresh :class:`~repro.observability.signals.LiveSignals` table hears
    the raw ``deliver``/``decide``/``view`` events through the same
    ``on_*`` methods the controller calls; windows close from the recorded
    ``health-sample`` events (see module docstring).  Pass the same ``n``
    and ``window_ms`` as the online monitor to get identical table and
    detector state (``monitor.signals`` is the table).  A trace recorded
    *without* health enabled has no samples, so no windows close — replay
    is only meaningful against health-enabled traces.
    """
    monitor = HealthMonitor(window_ms)
    table = LiveSignals(n)
    monitor._read(table)
    for time, kind, node, fields in trace_rows(source):
        if kind == "health-sample":
            monitor.close_window(float(time), _sample_fields(fields))
            continue
        if kind not in ("deliver", "decide", "view") or not 0 <= int(node) < n:
            continue
        node, now = int(node), float(time)
        if kind == "deliver":
            # The send time is in no deliver record; the table does not read it.
            table.on_deliver(
                node, int(fields.get("source", -1)), str(fields.get("msg_type", "")), now, now)
        elif kind == "decide":
            table.on_decide(node, now)
        elif "view" in fields:
            table.on_view(node, int(fields["view"]), now)
    return monitor


def analyze_trace_health(source: TraceSource) -> dict[str, Any]:
    """Health census of a recorded trace: what the online monitor saw.

    One streaming pass collecting the recorded ``health`` detections and
    ``health-sample`` fairness series — the analysis behind ``repro
    inspect --health``.  Unlike :func:`replay_health` this never
    re-evaluates detectors: it reports exactly what the run emitted.
    """
    detectors: Counter[str] = Counter()
    severities: Counter[str] = Counter()
    anomalies: list[dict[str, Any]] = []
    samples = 0
    min_fairness: float | None = None
    last_fairness: float | None = None
    for time, kind, node, fields in trace_rows(source):
        if kind == "health-sample":
            samples += 1
            fairness = fields.get("fairness")
            if fairness is not None:
                last_fairness = float(fairness)
                if min_fairness is None or last_fairness < min_fairness:
                    min_fairness = last_fairness
        elif kind == "health":
            anomalies.append({"time": time, "kind": kind, "node": node, **fields})
            detectors[str(fields.get("detector", "?"))] += 1
            severities[str(fields.get("severity", "?"))] += 1
    return {
        "samples": samples,
        "anomaly_count": len(anomalies),
        "detectors": dict(sorted(detectors.items())),
        "severities": dict(sorted(severities.items())),
        "min_fairness": min_fairness,
        "last_fairness": last_fairness,
        "anomalies": anomalies,
    }


def _evidence_text(evidence: Mapping[str, Any]) -> str:
    parts = []
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.1f}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_health(analysis: Mapping[str, Any], top: int = 20) -> str:
    """Human-readable health timeline + census for ``repro inspect``."""
    from ..analysis.report import render_table

    sections: list[str] = []
    anomalies = analysis.get("anomalies") or []
    summary = (
        f"health: {analysis.get('anomaly_count', 0)} anomalies over "
        f"{analysis.get('samples', 0)} window samples"
    )
    min_fairness = analysis.get("min_fairness")
    if min_fairness is not None:
        summary += f"; min fairness {min_fairness:.3f}"
    if not anomalies and not analysis.get("samples"):
        summary += " (no health telemetry recorded — run with --health)"
    sections.append(summary)

    if analysis.get("detectors"):
        rows = [
            (detector, count)
            for detector, count in sorted(analysis["detectors"].items())
        ]
        sections.append(
            render_table("anomaly census", ["detector", "count"], rows)
        )

    if anomalies:
        rows = []
        for event in anomalies[:top]:
            evidence = event.get("evidence") or {}
            who = ""
            if event.get("nodes"):
                who = "n" + ",".join(str(n) for n in event["nodes"])
            if event.get("clients"):
                who += (" " if who else "") + "c" + ",".join(
                    str(c) for c in event["clients"]
                )
            rows.append(
                (
                    f"{float(event.get('time', 0.0)):.1f}",
                    str(event.get("detector", "?")),
                    str(event.get("severity", "?")),
                    who or "—",
                    _evidence_text(evidence),
                )
            )
        note = ""
        if len(anomalies) > top:
            note = f"showing first {top} of {len(anomalies)} anomalies"
        sections.append(
            render_table(
                "anomaly timeline",
                ["time (ms)", "detector", "severity", "implicated", "evidence"],
                rows,
                note=note,
            )
        )
    return "\n\n".join(sections)
