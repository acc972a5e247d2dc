"""Trace forensics: the analysis engine behind ``repro inspect``.

Reads a JSONL trace (the on-disk format of
:class:`~repro.core.tracing.JsonlSink`, byte-identical to
``Trace.to_jsonl``) in **one streaming pass with bounded memory** — the
accumulators grow with the protocol vocabulary (message types, views,
nodes), never with the event count — and produces a :class:`TraceReport`:

* message-usage accounting that reproduces the run's
  :class:`~repro.core.metrics.MessageCounts` (honest sends, byzantine
  traffic, deliveries, drops, wire bytes);
* a per-view timeline (when each view was first/last entered and by how
  many nodes) — the textual counterpart of the paper's Fig. 9;
* stall forensics: the last honest progress event (decision, view advance,
  or delivery — the controller's liveness-watchdog definition) and a census
  of the silent tail after it, which is what you read when a run ends in a
  :class:`~repro.core.results.StallReport`;
* per-kind and per-timer histograms.

``repro run --trace-out trace.jsonl`` produces the input; ``repro inspect
trace.jsonl`` renders the report.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from ..core.tracing import Trace, checked_records, iter_jsonl_dicts, open_trace_text

#: Event kinds the controller counts as honest progress (liveness watchdog).
PROGRESS_KINDS = ("decide", "view", "deliver")

#: Event kinds that mean "a message was removed before protocol logic".
DROP_KINDS = ("drop", "env-drop", "env-crash-drop", "env-reject", "suppress")

#: Passive annotation kinds excluded from the silent-tail census.
PASSIVE_KINDS = ("phase", "health", "health-sample")


def iter_trace_file(path: str | os.PathLike[str]) -> Iterator[dict[str, Any]]:
    """Stream the raw event dicts of a JSONL trace file, one at a time.

    Paths ending in ``.gz`` (gzip-compressed sinks) decompress
    transparently — see :func:`~repro.core.tracing.open_trace_text`.
    A line that decodes to anything but a trace record
    (:func:`~repro.core.tracing.checked_records`) is a ``ValueError``, like
    a line that does not decode at all, and so is a compressed file cut
    short (a sink killed mid-write): the records before the cut are
    yielded first.
    """
    index = 0
    try:
        with open_trace_text(path) as handle:
            records = checked_records(iter_jsonl_dicts(handle), os.fspath(path))
            for index, event in enumerate(records, 1):
                yield event
    except (EOFError, zlib.error) as error:
        raise ValueError(
            f"{os.fspath(path)}: trace truncated after {index} records"
        ) from error


def iter_events(
    source: str | os.PathLike[str] | Trace | Iterable[Mapping[str, Any]],
) -> Iterable[Mapping[str, Any]]:
    """Event dicts from a file path, a :class:`Trace`, or an iterable.

    The shared input coercion for every trace analysis
    (:func:`analyze_trace`, the causality DAG, the phase analyzer).
    """
    if isinstance(source, Trace):
        return (
            {"time": time, "kind": kind, "node": node, **fields}
            for time, kind, node, fields in source.rows()
        )
    if isinstance(source, (str, os.PathLike)):
        return iter_trace_file(source)
    return source


@dataclass
class MessageKindStats:
    """Per-message-type traffic accumulated over one trace."""

    sends: int = 0
    delivers: int = 0
    bytes: int = 0


@dataclass
class ViewSpan:
    """When a view was active: first/last entry times and distinct nodes."""

    view: int
    first_entry: float
    last_entry: float
    nodes: int


@dataclass
class TraceReport:
    """Everything one streaming pass over a trace established.

    The traffic totals mirror :class:`~repro.core.metrics.MessageCounts`
    exactly: ``sent`` counts honest transmissions (loopback self-deliveries
    never appear as ``send`` events), ``byzantine_sent`` counts forged or
    corrupted-source transmissions, ``delivered`` counts messages actually
    dispatched to a replica.
    """

    events: int = 0
    time_start: float = 0.0
    time_end: float = 0.0
    kind_counts: dict[str, int] = field(default_factory=dict)
    # -- traffic (MessageCounts mirror) --
    sent: int = 0
    byzantine_sent: int = 0
    #: Of ``byzantine_sent``, how many were attacker-*inserted* (forged
    #: ``origin="attacker"`` sends with no honest counterpart) rather than
    #: honest-format sends from a corrupted source.
    inserted: int = 0
    delivered: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    bytes_sent: int = 0
    message_kinds: dict[str, MessageKindStats] = field(default_factory=dict)
    # -- protocol progress --
    decides: int = 0
    decisions_per_node: dict[int, int] = field(default_factory=dict)
    max_view: int = 0
    views: list[ViewSpan] = field(default_factory=list)
    timer_counts: dict[str, int] = field(default_factory=dict)
    # -- stall forensics --
    last_progress_time: float | None = None
    last_progress_kind: str | None = None
    last_progress_node: int | None = None
    tail_events: int = 0
    tail_census: dict[str, int] = field(default_factory=dict)

    @property
    def total_dropped(self) -> int:
        """Messages removed before protocol logic, all causes summed."""
        return sum(self.dropped.values())

    @property
    def tail_span_ms(self) -> float:
        """Simulated time between the last honest progress and trace end."""
        if self.last_progress_time is None:
            return self.time_end - self.time_start
        return self.time_end - self.last_progress_time

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (``repro inspect --json``)."""
        return {
            "events": self.events,
            "time_start_ms": self.time_start,
            "time_end_ms": self.time_end,
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "sent": self.sent,
            "byzantine_sent": self.byzantine_sent,
            "inserted": self.inserted,
            "delivered": self.delivered,
            "dropped": dict(sorted(self.dropped.items())),
            "bytes_sent": self.bytes_sent,
            "message_kinds": {
                kind: {"sends": s.sends, "delivers": s.delivers, "bytes": s.bytes}
                for kind, s in sorted(self.message_kinds.items())
            },
            "decides": self.decides,
            "decisions_per_node": {
                str(node): count
                for node, count in sorted(self.decisions_per_node.items())
            },
            "max_view": self.max_view,
            "views": [
                {
                    "view": span.view,
                    "first_entry_ms": span.first_entry,
                    "last_entry_ms": span.last_entry,
                    "nodes": span.nodes,
                }
                for span in self.views
            ],
            "timer_counts": dict(sorted(self.timer_counts.items())),
            "stall": {
                "last_progress_ms": self.last_progress_time,
                "last_progress_kind": self.last_progress_kind,
                "last_progress_node": self.last_progress_node,
                "tail_events": self.tail_events,
                "tail_span_ms": self.tail_span_ms,
                "tail_census": dict(sorted(self.tail_census.items())),
            },
        }


def analyze_trace(
    source: str | os.PathLike[str] | Trace | Iterable[Mapping[str, Any]],
) -> TraceReport:
    """One streaming pass over a trace, from a file path, a
    :class:`~repro.core.tracing.Trace`, or an iterable of event dicts."""
    events = iter_events(source)

    report = TraceReport()
    first = True
    # Tail tracking: census of events strictly after the last progress
    # event.  Reset whenever progress happens; by end-of-trace it holds
    # exactly the silent tail.
    tail: dict[str, int] = {}
    view_entries: dict[int, list[Any]] = {}  # view -> [first, last, node_set]

    for event in events:
        time = float(event["time"])
        kind = str(event["kind"])
        node = int(event.get("node", -1))
        report.events += 1
        if first:
            report.time_start = time
            first = False
        report.time_end = max(report.time_end, time)
        report.kind_counts[kind] = report.kind_counts.get(kind, 0) + 1

        if kind == "send":
            if event.get("forged") or event.get("byzantine"):
                report.byzantine_sent += 1
                if event.get("origin") == "attacker":
                    report.inserted += 1
            else:
                report.sent += 1
            size = int(event.get("size", 0))
            report.bytes_sent += size
            stats = report.message_kinds.setdefault(
                str(event.get("msg_type", "?")), MessageKindStats()
            )
            stats.sends += 1
            stats.bytes += size
        elif kind == "deliver":
            report.delivered += 1
            report.message_kinds.setdefault(
                str(event.get("msg_type", "?")), MessageKindStats()
            ).delivers += 1
        elif kind in DROP_KINDS:
            cause = str(event.get("fault", kind))
            report.dropped[cause] = report.dropped.get(cause, 0) + 1
        elif kind == "decide":
            report.decides += 1
            report.decisions_per_node[node] = (
                report.decisions_per_node.get(node, 0) + 1
            )
        elif kind == "view" and "view" in event:
            view = int(event["view"])
            report.max_view = max(report.max_view, view)
            entry = view_entries.get(view)
            if entry is None:
                view_entries[view] = [time, time, {node}]
            else:
                entry[0] = min(entry[0], time)
                entry[1] = max(entry[1], time)
                entry[2].add(node)
        elif kind == "timer":
            name = str(event.get("name", "?"))
            report.timer_counts[name] = report.timer_counts.get(name, 0) + 1

        if kind in PROGRESS_KINDS:
            report.last_progress_time = time
            report.last_progress_kind = kind
            report.last_progress_node = node
            tail = {}
        elif kind not in PASSIVE_KINDS:
            # Phase and health events are passive annotations (a protocol
            # tagging the stage it entered, the health monitor sampling a
            # window); counting them as silent-tail work would misreport a
            # healthy terminating run.
            label = _census_label(kind, event)
            tail[label] = tail.get(label, 0) + 1

    report.tail_census = tail
    report.tail_events = sum(tail.values())
    report.views = [
        ViewSpan(view=view, first_entry=entry[0], last_entry=entry[1],
                 nodes=len(entry[2]))
        for view, entry in sorted(view_entries.items())
    ]
    return report


def _census_label(kind: str, event: Mapping[str, Any]) -> str:
    """Histogram key for stall-tail events (mirrors StallReport's census)."""
    if kind == "timer":
        return f"timer:{event.get('name', '?')}"
    if kind == "send" or kind in DROP_KINDS:
        return f"{kind}:{event.get('msg_type', '?')}"
    return kind


def render_report(report: TraceReport, top: int = 20) -> str:
    """Human-readable rendering: summary, message-usage table, view
    timeline and stall forensics.

    Args:
        report: the analysis to render.
        top: row cap for each table (a tail line reports what was cut).
    """
    from ..analysis.report import render_table

    sections: list[str] = []
    span = report.time_end - report.time_start
    sections.append(
        f"trace: {report.events} events over {span:.1f}ms simulated "
        f"({report.time_start:.1f} .. {report.time_end:.1f})"
    )

    # -- message usage --------------------------------------------------
    ranked = sorted(
        report.message_kinds.items(),
        key=lambda item: item[1].sends + item[1].delivers,
        reverse=True,
    )
    rows = [
        (kind, stats.sends, stats.delivers, stats.bytes)
        for kind, stats in ranked[:top]
    ]
    rows.append(("TOTAL", report.sent + report.byzantine_sent,
                 report.delivered, report.bytes_sent))
    note = (
        f"honest sent={report.sent} byzantine={report.byzantine_sent} "
        f"delivered={report.delivered} dropped={report.total_dropped}"
    )
    if report.inserted:
        note += f"; {report.inserted} attacker-inserted"
    if report.dropped:
        causes = " ".join(
            f"{cause}={count}" for cause, count in sorted(report.dropped.items())
        )
        note += f" ({causes})"
    if len(ranked) > top:
        note += f"; +{len(ranked) - top} more message kinds"
    sections.append(render_table(
        "message usage by kind",
        ["msg_type", "sends", "delivers", "bytes"],
        rows,
        note=note,
    ))

    # -- view timeline --------------------------------------------------
    if report.views:
        view_rows = [
            (
                span_.view,
                f"{span_.first_entry:.1f}",
                f"{span_.last_entry:.1f}",
                span_.nodes,
            )
            for span_ in report.views[:top]
        ]
        view_note = f"max view {report.max_view}"
        if len(report.views) > top:
            view_note += f"; +{len(report.views) - top} more views"
        sections.append(render_table(
            "view timeline (per-view entry window)",
            ["view", "first entry (ms)", "last entry (ms)", "nodes"],
            view_rows,
            note=view_note,
        ))

    # -- timers ---------------------------------------------------------
    if report.timer_counts:
        timer_rows = sorted(
            report.timer_counts.items(), key=lambda item: item[1], reverse=True
        )
        sections.append(render_table(
            "timer firings",
            ["timer", "count"],
            timer_rows[:top],
        ))

    # -- stall forensics ------------------------------------------------
    lines = ["stall forensics:"]
    if report.last_progress_time is None:
        lines.append("  no honest progress event (decide/view/deliver) in trace")
    else:
        where = (
            f"node {report.last_progress_node}"
            if report.last_progress_node not in (None, -1)
            else "system"
        )
        lines.append(
            f"  last honest progress: {report.last_progress_kind} by {where} "
            f"at {report.last_progress_time:.1f}ms"
        )
    if report.tail_events:
        lines.append(
            f"  silent tail: {report.tail_events} events over "
            f"{report.tail_span_ms:.1f}ms with no honest progress"
        )
        census = sorted(
            report.tail_census.items(), key=lambda item: item[1], reverse=True
        )
        for label, count in census[:top]:
            lines.append(f"    {label:<28} x{count}")
        if len(census) > top:
            lines.append(f"    ... +{len(census) - top} more tail event labels")
    else:
        lines.append("  trace ends on honest progress (no silent tail)")
    lines.append(
        f"  decisions: {report.decides} total across "
        f"{len(report.decisions_per_node)} nodes"
    )
    sections.append("\n".join(lines))

    return "\n\n".join(sections)
