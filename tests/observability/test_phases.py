"""Phase annotations: per-view time-in-phase breakdowns.

Acceptance criterion pinned here (ISSUE, PR 5): per-view phase durations
sum to the view duration — the analyzer's intervals *partition* each
node's time in a view.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_simulation
from repro.observability import (
    MemorySink,
    analyze_phases,
    render_phase_report,
)
from tests.pinned import golden_config

#: protocol -> phases its instrumentation must tag in a clean golden run.
EXPECTED_PHASES = {
    "pbft": {"pre-prepare", "prepare", "commit"},
    "tendermint": {"propose", "prevote", "precommit"},
    "hotstuff-ns": {"propose", "vote"},
    "librabft": {"propose", "vote"},
}


def _events(protocol: str):
    sink = MemorySink()
    run_simulation(golden_config(protocol), sink=sink)
    return [event.to_dict() for event in sink.events()]


class TestAnalyzePhases:
    @pytest.mark.parametrize("protocol", sorted(EXPECTED_PHASES))
    def test_expected_phases_tagged(self, protocol):
        report = analyze_phases(_events(protocol))
        assert EXPECTED_PHASES[protocol] <= set(report.phase_totals)

    def test_per_view_durations_sum_to_view_duration(self):
        """The acceptance bar: for every (node, view) breakdown, the phase
        durations sum exactly to the node's time in that view."""
        report = analyze_phases(_events("pbft"))
        assert report.per_view
        for breakdown in report.per_view.values():
            span = breakdown.last_exit - breakdown.first_entry
            assert sum(breakdown.phases.values()) == pytest.approx(span)
            assert breakdown.duration == pytest.approx(span)

    def test_stays_partition_each_nodes_timeline(self):
        """Consecutive stays of one node tile [first phase, trace end]
        without gaps or overlaps, across view boundaries too."""
        report = analyze_phases(_events("pbft"))
        by_node: dict[int, list] = {}
        for stay in report.stays:
            by_node.setdefault(stay.node, []).append(stay)
        assert by_node
        for stays in by_node.values():
            stays.sort(key=lambda s: s.start)
            for prev, cur in zip(stays, stays[1:]):
                assert prev.end == cur.start
            assert stays[-1].end == report.end_time

    def test_phase_totals_match_stays(self):
        report = analyze_phases(_events("pbft"))
        totals: dict[str, float] = {}
        for stay in report.stays:
            totals[stay.phase] = totals.get(stay.phase, 0.0) + stay.duration
        for phase, total in report.phase_totals.items():
            assert total == pytest.approx(totals[phase])

    def test_transition_counts_match_events(self):
        events = _events("pbft")
        report = analyze_phases(events)
        tagged = sum(1 for e in events if e["kind"] == "phase")
        assert sum(report.transition_counts.values()) == tagged

    def test_tendermint_views_key_on_height_and_round(self):
        report = analyze_phases(_events("tendermint"))
        views = {view for _node, view in report.per_view}
        assert views
        assert all(isinstance(view, tuple) and len(view) == 2 for view in views)

    def test_to_dict_schema(self):
        data = analyze_phases(_events("pbft")).to_dict()
        assert data["phase_totals_ms"]
        assert data["per_view"]
        entry = data["per_view"][0]
        assert entry["duration_ms"] == pytest.approx(sum(entry["phases_ms"].values()))


class TestRenderPhaseReport:
    def test_renders_tables(self):
        text = render_phase_report(analyze_phases(_events("pbft")))
        assert "time in phase" in text
        assert "per-view phase durations" in text

    def test_empty_trace_message(self):
        text = render_phase_report(analyze_phases([]))
        assert "no phase events" in text


class TestPhaseHookNeutrality:
    def test_phase_hook_is_noop_without_env_support(self):
        """Node.phase degrades to a no-op under environments that predate
        report_phase (harness doubles, third-party embeddings)."""
        from repro.protocols.pbft import PBFTNode

        class BareEnv:
            n = 4
            f = 1
            lam = 500.0

            def register_timer(self, *a, **k):
                return None

        node = PBFTNode(0, BareEnv())
        node.phase("prepare", view=0)  # must not raise
