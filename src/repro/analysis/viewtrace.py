"""View-synchronization analysis (the paper's Fig. 9 and §IV-D).

Extracts each node's view-over-time timeline from a recorded trace,
quantifies desynchronization (how many distinct views coexist, for how
long), and renders an ASCII timeline — the textual equivalent of Fig. 9's
per-node view chart, where "each color represents a view number".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..core.tracing import Trace

#: Glyphs used to render view numbers (view mod len).
_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class ViewTimeline:
    """One node's view history: step function over time.

    Attributes:
        node: node id.
        times: times (ms) at which the node entered a new view, ascending.
        views: the view entered at each time.
    """

    node: int
    times: tuple[float, ...]
    views: tuple[int, ...]

    def view_at(self, time: float) -> int:
        """The node's view at ``time`` (0 before the first entry)."""
        index = bisect.bisect_right(self.times, time) - 1
        return self.views[index] if index >= 0 else 0


def extract_view_timelines(trace: Trace, n: int) -> list[ViewTimeline]:
    """Per-node view timelines from a trace's ``view`` report events."""
    entries: dict[int, list[tuple[float, int]]] = {node: [] for node in range(n)}
    for time, kind, node, fields in trace.rows():
        if kind == "view" and 0 <= node < n and "view" in fields:
            entries[node].append((time, int(fields["view"])))
    timelines = []
    for node in range(n):
        entries[node].sort()
        times = tuple(t for t, _ in entries[node])
        views = tuple(v for _, v in entries[node])
        timelines.append(ViewTimeline(node=node, times=times, views=views))
    return timelines


@dataclass(frozen=True)
class DesyncStats:
    """How badly views diverged during a run.

    Attributes:
        max_groups: the largest number of distinct views held simultaneously.
        desync_time: total time (ms) during which nodes held more than one
            distinct view.
        longest_desync: the longest contiguous such interval (ms) — the
            length of Fig. 9's plateau.
        horizon: total observed time (ms).
    """

    max_groups: int
    desync_time: float
    longest_desync: float
    horizon: float


def desync_statistics(
    timelines: list[ViewTimeline], horizon: float, step: float = 50.0
) -> DesyncStats:
    """Sampled desynchronization statistics over ``[0, horizon]``."""
    if not timelines:
        raise ValueError("no timelines to analyse")
    max_groups = 1
    desync_time = 0.0
    longest = 0.0
    current = 0.0
    time = 0.0
    while time <= horizon:
        groups = len({tl.view_at(time) for tl in timelines})
        max_groups = max(max_groups, groups)
        if groups > 1:
            desync_time += step
            current += step
            longest = max(longest, current)
        else:
            current = 0.0
        time += step
    return DesyncStats(
        max_groups=max_groups,
        desync_time=desync_time,
        longest_desync=longest,
        horizon=horizon,
    )


def render_view_chart(
    timelines: list[ViewTimeline],
    horizon: float,
    width: int = 100,
) -> str:
    """ASCII rendering of Fig. 9: one row per node, one column per time
    bucket, each cell the glyph of the node's view (mod 62)."""
    if not timelines:
        return "(no data)"
    step = horizon / max(1, width)
    lines = [
        f"time: 0 .. {horizon / 1000.0:.1f}s, one column = {step / 1000.0:.2f}s; "
        "glyph = view number (mod 62)"
    ]
    for tl in timelines:
        cells = []
        for col in range(width):
            view = tl.view_at(col * step)
            cells.append(_GLYPHS[view % len(_GLYPHS)])
        lines.append(f"node {tl.node:3d} |" + "".join(cells) + "|")
    return "\n".join(lines)
