"""Causality analysis: critical paths and quorum-formation timelines.

Every message and timer carries the ``cause`` id of the event being
handled when it was created, and the trace records those ids on
``send``/``deliver``/``timer``/``decide`` events.  That
turns a trace into a **causality DAG** whose edges point from each event to
the one that caused it:

* ``"m<msg_id>"`` — a message delivery (walk to its ``deliver`` and, for
  non-loopback messages, its ``send``);
* ``"t<timer_id>"`` — a timer firing (walk to its ``timer`` record, then to
  whatever registered the timer);
* ``"s<node>"`` — the node's ``on_start`` (a root);
* ``"a"`` — the attacker's ``setup`` (a root).

Two analyses are built on the DAG:

* :func:`critical_path` — per decision, the causal chain from a root
  (usually the leader's proposal at ``on_start``) through every send,
  delivery, and timer to the decision.  This is *the* sequence of
  happened-before events whose latencies sum to the decision's latency:
  shaving any off-path message changes nothing, shaving an on-path hop
  moves the decision.
* :func:`quorum_timeline` — per decision, when each vote of the
  quorum-closing message type arrived at the deciding node: the rank ``k``
  of the arrival that closed the quorum, which node was the quorum-closing
  straggler, and how many votes arrived after the quorum was already
  complete (wasted messages, the price of broadcast-based protocols).

Both read rows through :func:`~repro.core.tracing.trace_rows`, like
:func:`~repro.observability.inspect.analyze_trace` (a JSONL file path, a
:class:`~repro.core.tracing.Trace`, or raw event dicts), but build index
maps keyed by message/timer id, so memory grows with the trace — use on
per-run forensics, not unbounded streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..core.tracing import Trace, TraceSource, trace_rows


class SendRecord(NamedTuple):
    msg_id: int
    time: float
    source: int
    dest: int
    msg_type: str
    cause: str | None
    slot: Any
    view: Any
    origin: str | None


class DeliverRecord(NamedTuple):
    msg_id: int
    time: float
    source: int
    dest: int
    msg_type: str
    cause: str | None
    slot: Any
    view: Any


class TimerRecord(NamedTuple):
    timer_id: int
    time: float
    owner: int
    name: str
    cause: str | None


class DecisionRecord(NamedTuple):
    time: float
    node: int
    slot: Any
    value: Any
    cause: str | None


@dataclass
class CausalityGraph:
    """Index maps over one trace, keyed by message/timer id."""

    sends: dict[int, SendRecord]
    delivers: dict[int, DeliverRecord]
    timers: dict[int, TimerRecord]
    decisions: list[DecisionRecord]

    @classmethod
    def build(cls, source: TraceSource) -> "CausalityGraph":
        """One pass over ``source`` building the id-keyed index maps.

        Raises:
            ValueError: a ``send`` or ``deliver`` record without a
                ``msg_id`` (it cannot be placed in the DAG), naming the
                record's number.
        """
        sends: dict[int, SendRecord] = {}
        delivers: dict[int, DeliverRecord] = {}
        timers: dict[int, TimerRecord] = {}
        decisions: list[DecisionRecord] = []
        for index, (time, kind, node, fields) in enumerate(trace_rows(source), 1):
            get = fields.get
            if kind == "send" or kind == "deliver":
                msg_id = get("msg_id")
                if msg_id is None:
                    where = (
                        os.fspath(source) if isinstance(source, (str, os.PathLike))
                        else source.name if isinstance(source, Trace) else "trace"
                    )
                    raise ValueError(
                        f"{where}: trace record {index} is a {kind!r} record without a 'msg_id'"
                    )
                msg_id = int(msg_id)
            if kind == "send":
                sends[msg_id] = SendRecord(
                    msg_id, float(time), int(node),
                    int(get("dest", -1)), str(get("msg_type", "?")), get("cause"),
                    get("slot"), get("view"), get("origin"),
                )
            elif kind == "deliver":
                delivers[msg_id] = DeliverRecord(
                    msg_id, float(time), int(get("source", -1)),
                    int(node), str(get("msg_type", "?")), get("cause"),
                    get("slot"), get("view"),
                )
            elif kind == "timer":
                timer_id = int(get("timer_id", -1))
                if timer_id >= 0:
                    timers[timer_id] = TimerRecord(
                        timer_id, float(time), int(node),
                        str(get("name", "?")), get("cause"),
                    )
            elif kind == "decide":
                decisions.append(DecisionRecord(
                    float(time), int(node), get("slot"),
                    get("value"), get("cause"),
                ))
        return cls(sends=sends, delivers=delivers, timers=timers, decisions=decisions)


@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path, in chronological order."""

    time: float
    kind: str  # "start" | "timer" | "send" | "deliver" | "decide"
    node: int
    label: str


@dataclass(frozen=True)
class CriticalPath:
    """The causal chain from a root event to one decision.

    ``complete`` is True when the backwards walk reached a root (a node's
    ``on_start``, the attacker's setup, or a pre-run scheduled event);
    False means a link was missing — the trace was filtered, or written
    without cause ids.
    """

    decision: DecisionRecord
    steps: tuple[PathStep, ...]
    complete: bool

    @property
    def duration_ms(self) -> float:
        return self.steps[-1].time - self.steps[0].time

    @property
    def hops(self) -> int:
        """Network hops on the path (its ``send`` steps)."""
        return sum(1 for step in self.steps if step.kind == "send")

    def to_dict(self) -> dict:
        """JSON-friendly form (``repro inspect --critical-path --json``)."""
        return {
            "decision": {
                "node": self.decision.node,
                "slot": self.decision.slot,
                "time_ms": self.decision.time,
            },
            "complete": self.complete,
            "duration_ms": self.duration_ms,
            "hops": self.hops,
            "steps": [
                {
                    "time_ms": step.time,
                    "kind": step.kind,
                    "node": step.node,
                    "label": step.label,
                }
                for step in self.steps
            ],
        }

    def render(self) -> str:
        header = (
            f"decision: node {self.decision.node} slot {self.decision.slot} "
            f"at {self.decision.time:.1f}ms — {len(self.steps)} steps, "
            f"{self.hops} network hops, {self.duration_ms:.1f}ms end to end"
        )
        if not self.complete:
            header += "  [incomplete: causal chain broken — was the trace filtered?]"
        lines = [header]
        for step in self.steps:
            lines.append(
                f"  {step.time:10.3f}ms  {step.kind:<8} node={step.node:<4} {step.label}"
            )
        return "\n".join(lines)


def critical_path(graph: CausalityGraph, decision: DecisionRecord) -> CriticalPath:
    """Walk the causality DAG backwards from ``decision`` to a root.

    The resulting step sequence is chronological, starts at the root, ends
    at the decision, and is non-decreasing in time (asserted by the
    observability test suite for the golden PBFT configuration).
    """
    backwards: list[PathStep] = [PathStep(
        time=decision.time,
        kind="decide",
        node=decision.node,
        label=f"slot={decision.slot} value={decision.value!r}",
    )]
    cause = decision.cause
    complete = False
    seen: set[str] = set()
    while True:
        if cause is None:
            # Reached an event created before dispatch began (a pre-run
            # root) — or the trace has no cause ids, in which case the
            # decision's own cause was already None and the path is just
            # the decision.
            complete = len(backwards) > 1
            break
        if cause in seen:  # defensive: lineage cannot cycle, ids move back in time
            break
        seen.add(cause)
        tag, body = cause[0], cause[1:]
        if cause == "a":
            backwards.append(PathStep(0.0, "start", -1, "attacker setup"))
            complete = True
            break
        if tag == "m":
            msg_id = int(body)
            deliver = graph.delivers.get(msg_id)
            send = graph.sends.get(msg_id)
            if deliver is not None:
                backwards.append(PathStep(
                    deliver.time, "deliver", deliver.dest,
                    f"{deliver.msg_type} from node {deliver.source}",
                ))
            if send is not None:
                backwards.append(PathStep(
                    send.time, "send", send.source,
                    f"{send.msg_type} -> node {send.dest}"
                    + (" [forged]" if send.origin == "attacker" else ""),
                ))
                cause = send.cause
            elif deliver is not None:
                # Loopback self-delivery: no send record exists, but the
                # deliver record carries the message's own cause.
                cause = deliver.cause
            else:
                break  # dangling id: filtered trace
        elif tag == "t":
            timer = graph.timers.get(int(body))
            if timer is None:
                break
            backwards.append(PathStep(
                timer.time, "timer", timer.owner, f"timer {timer.name!r} fired",
            ))
            cause = timer.cause
        elif tag == "s":
            backwards.append(PathStep(0.0, "start", int(body), "on_start"))
            complete = True
            break
        else:
            break
    return CriticalPath(
        decision=decision,
        steps=tuple(reversed(backwards)),
        complete=complete,
    )


@dataclass(frozen=True)
class QuorumTimeline:
    """How the quorum behind one decision formed at the deciding node.

    ``arrivals`` is every delivery of the quorum-closing message type for
    the decided slot to the deciding node, over the whole run — including
    votes that arrived after the quorum had already closed.

    Attributes:
        decision: the decision this quorum produced.
        msg_type: the vote type whose delivery closed the quorum.
        quorum_size: the rank ``k`` of the arrival that triggered the
            decision (the effective quorum size observed).
        closed_at: arrival time of that ``k``-th vote.
        straggler: source node of the quorum-closing (``k``-th) arrival —
            the slowest node the quorum had to wait for.
        arrivals: all matching arrivals as ``(time, source, msg_id)``.
    """

    decision: DecisionRecord
    msg_type: str
    quorum_size: int
    closed_at: float
    straggler: int
    arrivals: tuple[tuple[float, int, int], ...]

    @property
    def wasted(self) -> int:
        """Votes that arrived after the quorum was already complete."""
        return len(self.arrivals) - self.quorum_size

    @property
    def first_arrival(self) -> float:
        return self.arrivals[0][0]

    @property
    def formation_ms(self) -> float:
        """Time from the first vote's arrival to quorum completion."""
        return self.closed_at - self.first_arrival

    def to_dict(self) -> dict:
        """JSON-friendly form (``repro inspect --quorum --json``)."""
        return {
            "decision": {
                "node": self.decision.node,
                "slot": self.decision.slot,
                "time_ms": self.decision.time,
            },
            "msg_type": self.msg_type,
            "quorum_size": self.quorum_size,
            "closed_at_ms": self.closed_at,
            "straggler": self.straggler,
            "formation_ms": self.formation_ms,
            "wasted": self.wasted,
            "arrivals": [
                {"time_ms": time, "source": source, "msg_id": msg_id}
                for time, source, msg_id in self.arrivals
            ],
        }

    def render(self) -> str:
        lines = [
            f"decision: node {self.decision.node} slot {self.decision.slot} "
            f"at {self.decision.time:.1f}ms — quorum of {self.quorum_size} "
            f"{self.msg_type} closed at {self.closed_at:.1f}ms "
            f"(straggler: node {self.straggler}, formation "
            f"{self.formation_ms:.1f}ms, wasted post-quorum: {self.wasted})"
        ]
        for rank, (time, source, _msg_id) in enumerate(self.arrivals, start=1):
            marker = " <- quorum closed" if rank == self.quorum_size else (
                "    (post-quorum)" if rank > self.quorum_size else ""
            )
            lines.append(
                f"  #{rank:<3} {time:10.3f}ms  {self.msg_type} from node {source}{marker}"
            )
        return "\n".join(lines)


def _arrival_groups(graph: CausalityGraph) -> dict[tuple, list[tuple]]:
    """Every delivery as ``(time, source, msg_id)``, grouped by
    ``(dest, msg_type, slot)``: the arrivals each quorum counts."""
    groups: dict[tuple, list[tuple]] = {}
    for record in graph.delivers.values():
        groups.setdefault(_quorum_key(record.dest, record.msg_type, record.slot), []).append(
            (record.time, record.source, record.msg_id))
    return groups


def _quorum_key(dest: int, msg_type: str, slot: Any) -> tuple:
    try:
        hash(slot)
    except TypeError:  # a hand-written trace's list or object slot
        slot = ("unhashable", repr(slot))
    return dest, msg_type, slot


def quorum_timeline(
    graph: CausalityGraph,
    decision: DecisionRecord,
    groups: dict[tuple, list[tuple]] | None = None,
) -> QuorumTimeline | None:
    """The quorum-formation timeline behind ``decision``.

    Returns ``None`` when the decision was not directly caused by a message
    delivery (e.g. a catch-up decision triggered by a timer) or the trace
    carries no cause ids.  ``groups`` is the graph's deliveries grouped by
    quorum (:func:`quorum_timelines` builds it once for every decision);
    without it the grouping is built here.
    """
    cause = decision.cause
    if not cause or cause[0] != "m":
        return None
    msg_id = int(cause[1:])
    trigger = graph.delivers.get(msg_id)
    if trigger is None:
        return None
    if groups is None:
        groups = _arrival_groups(graph)
    arrivals = sorted(groups.get(_quorum_key(decision.node, trigger.msg_type, trigger.slot), ()))
    rank = next(
        index
        for index, (_time, _source, arrival_id) in enumerate(arrivals, start=1)
        if arrival_id == msg_id
    )
    closed = arrivals[rank - 1]
    return QuorumTimeline(
        decision=decision,
        msg_type=trigger.msg_type,
        quorum_size=rank,
        closed_at=closed[0],
        straggler=closed[1],
        arrivals=tuple(arrivals),
    )


def critical_paths(graph: CausalityGraph) -> list[CriticalPath]:
    """:func:`critical_path` for every decision in the trace."""
    return [critical_path(graph, decision) for decision in graph.decisions]


def quorum_timelines(graph: CausalityGraph) -> list[QuorumTimeline]:
    """:func:`quorum_timeline` for every decision it applies to, over one
    grouping of the deliveries."""
    groups = _arrival_groups(graph)
    out = []
    for decision in graph.decisions:
        timeline = quorum_timeline(graph, decision, groups)
        if timeline is not None:
            out.append(timeline)
    return out


def render_critical_paths(paths: list[CriticalPath], top: int = 10) -> str:
    """Human-readable rendering of (the first ``top``) critical paths."""
    if not paths:
        return (
            "critical paths: no decisions in trace (run with tracing on)"
        )
    sections = [path.render() for path in paths[:top]]
    if len(paths) > top:
        sections.append(f"... (+{len(paths) - top} more decisions)")
    return "critical paths (per decision):\n\n" + "\n\n".join(sections)


def render_quorum_timelines(timelines: list[QuorumTimeline], top: int = 10) -> str:
    """Human-readable rendering of (the first ``top``) quorum timelines."""
    if not timelines:
        return (
            "quorum timelines: no message-triggered decisions in trace "
            "(or the trace carries no cause ids)"
        )
    sections = [timeline.render() for timeline in timelines[:top]]
    if len(timelines) > top:
        sections.append(f"... (+{len(timelines) - top} more decisions)")
    return "quorum formation (per decision):\n\n" + "\n\n".join(sections)
