"""Per-view time-in-phase analysis over ``"phase"`` trace events.

Protocols tag their progress through consensus with
:meth:`repro.core.node.Node.phase` (``"pre-prepare"``/``"prepare"``/
``"commit"`` for PBFT, ``"propose"``/``"prevote"``/``"precommit"`` for
Tendermint, the chain stages for HotStuff-style protocols, plus
``"view-change"``).  Each call records a ``"phase"`` trace event carrying
the phase name and the protocol's view coordinates (``view``, and
``height`` for height/round protocols).

The analyzer turns those point events into **intervals**: a replica is in
phase ``p`` from the event that announced ``p`` until its next phase event
(or the end of the trace).  Grouping the intervals by ``(node, view)``
yields per-view time-in-phase breakdowns whose durations *partition* the
node's time in the view — per-view phase durations sum to the view duration
by construction, which the observability test suite asserts for the golden
PBFT configuration.  The trace is read as rows, through
:func:`~repro.core.tracing.trace_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.tracing import TraceSource, trace_rows


def _view_key(event: Mapping[str, Any]) -> Any:
    """The view coordinate of a phase event.

    ``view`` alone for single-coordinate protocols; ``(height, view)`` for
    height/round protocols (Tendermint), where the round counter resets at
    every height.  ``None`` when the protocol tagged no coordinates.
    """
    view = event.get("view")
    height = event.get("height")
    if height is not None:
        return (height, view)
    return view


@dataclass(frozen=True)
class PhaseStay:
    """One contiguous interval a node spent in one phase."""

    node: int
    view: Any
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ViewPhaseBreakdown:
    """One node's time-in-phase partition of one view."""

    node: int
    view: Any
    first_entry: float
    last_exit: float
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Total time the node spent in this view (sum of its stays)."""
        return sum(self.phases.values())


@dataclass
class PhaseReport:
    """Everything the phase analyzer established over one trace."""

    stays: list[PhaseStay] = field(default_factory=list)
    per_view: dict[tuple[int, Any], ViewPhaseBreakdown] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)
    transition_counts: dict[str, int] = field(default_factory=dict)
    end_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (``repro inspect --phases --json``)."""
        return {
            "end_time_ms": self.end_time,
            "phase_totals_ms": {
                phase: total for phase, total in sorted(self.phase_totals.items())
            },
            "transition_counts": dict(sorted(self.transition_counts.items())),
            "per_view": [
                {
                    "node": breakdown.node,
                    "view": breakdown.view,
                    "first_entry_ms": breakdown.first_entry,
                    "last_exit_ms": breakdown.last_exit,
                    "duration_ms": breakdown.duration,
                    "phases_ms": dict(sorted(breakdown.phases.items())),
                }
                for (_node, _view), breakdown in sorted(
                    self.per_view.items(), key=lambda item: (str(item[0][1]), item[0][0])
                )
            ],
        }


def analyze_phases(source: TraceSource) -> PhaseReport:
    """Build the per-view time-in-phase report for one trace.

    A node's final open phase interval is closed at the trace's end time
    (the maximum timestamp over *all* events, not just phase events), so
    the partition property holds for the trailing view too.
    """
    report = PhaseReport()
    # Per node: ordered (time, phase, view_key) phase points.
    points: dict[int, list[tuple[float, str, Any]]] = {}
    end_time = 0.0
    for time, kind, node, fields in trace_rows(source):
        time = float(time)
        if time > end_time:
            end_time = time
        if kind != "phase":
            continue
        node = int(node)
        phase = str(fields.get("phase", "?"))
        points.setdefault(node, []).append((time, phase, _view_key(fields)))
        report.transition_counts[phase] = report.transition_counts.get(phase, 0) + 1
    report.end_time = end_time

    for node, entries in sorted(points.items()):
        for index, (start, phase, view) in enumerate(entries):
            end = entries[index + 1][0] if index + 1 < len(entries) else end_time
            stay = PhaseStay(node=node, view=view, phase=phase, start=start, end=end)
            report.stays.append(stay)
            breakdown = report.per_view.get((node, view))
            if breakdown is None:
                breakdown = report.per_view[(node, view)] = ViewPhaseBreakdown(
                    node=node, view=view, first_entry=start, last_exit=end,
                )
            else:
                breakdown.first_entry = min(breakdown.first_entry, start)
                breakdown.last_exit = max(breakdown.last_exit, end)
            breakdown.phases[phase] = breakdown.phases.get(phase, 0.0) + stay.duration
            report.phase_totals[phase] = (
                report.phase_totals.get(phase, 0.0) + stay.duration
            )
    return report


def render_phase_report(report: PhaseReport, top: int = 20) -> str:
    """Human-readable rendering: totals plus a per-view breakdown table."""
    from ..analysis.report import render_table

    if not report.stays:
        return (
            "phases: no phase events in trace (protocol not instrumented, "
            "or tracing was off)"
        )
    sections: list[str] = []
    grand_total = sum(report.phase_totals.values()) or 1.0
    total_rows = [
        (
            phase,
            f"{total:.1f}",
            report.transition_counts.get(phase, 0),
            f"{100.0 * total / grand_total:.1f}%",
        )
        for phase, total in sorted(
            report.phase_totals.items(), key=lambda item: item[1], reverse=True
        )
    ]
    sections.append(render_table(
        "time in phase (all nodes, all views)",
        ["phase", "total ms", "entries", "share"],
        total_rows[:top],
    ))

    # Per-view: aggregate nodes (sum over replicas) for a compact table.
    by_view: dict[Any, dict[str, float]] = {}
    for (_node, view), breakdown in report.per_view.items():
        bucket = by_view.setdefault(view, {})
        for phase, duration in breakdown.phases.items():
            bucket[phase] = bucket.get(phase, 0.0) + duration
    view_rows = []
    for view in sorted(by_view, key=str):
        for phase, total in sorted(by_view[view].items()):
            view_rows.append((str(view), phase, f"{total:.1f}"))
    note = None
    if len(view_rows) > top:
        note = f"+{len(view_rows) - top} more (view, phase) rows"
    sections.append(render_table(
        "per-view phase durations (summed over nodes)",
        ["view", "phase", "total ms"],
        view_rows[:top],
        note=note,
    ))
    return "\n\n".join(sections)
