"""Causal lineage: DAG construction, critical paths, quorum timelines.

Acceptance criteria pinned here (ISSUE, PR 5):

* golden digests are byte-identical with metrics enabled (causes are
  always tracked);
* for a pbft n=4 run the computed critical path ends at each decision and
  is chronological end to end;
* quorum-formation timelines reconcile exactly with the run's
  ``MessageCounts`` / trace message-kind totals.
"""

from __future__ import annotations

import pytest

from repro.core.results import result_fingerprint
from repro.core.runner import run_simulation
from repro.observability import (
    CausalityGraph,
    MemorySink,
    analyze_trace,
    critical_paths,
    quorum_timelines,
    render_critical_paths,
    render_quorum_timelines,
)
from tests.pinned import golden_config, golden_fingerprint, golden_protocols

PROTOCOLS = ["pbft", "hotstuff-ns", "tendermint", "add-v3"]


def _traced(protocol: str):
    """Run a golden config with a memory sink; return (result, events)."""
    sink = MemorySink()
    result = run_simulation(golden_config(protocol), sink=sink)
    return result, [event.to_dict() for event in sink.events()]


def _without_causes(events):
    """The trace as a file written before causes were recorded holds it."""
    return [{k: v for k, v in event.items() if k != "cause"} for event in events]


class TestLineageDeterminism:
    @pytest.mark.parametrize("protocol", golden_protocols())
    def test_golden_digest_with_lineage_and_metrics(self, protocol):
        """The acceptance bar: lineage + metrics leave every golden digest
        byte-identical — the whole subsystem costs zero RNG draws and zero
        extra events."""
        result = run_simulation(golden_config(protocol), metrics=True)
        assert result_fingerprint(result) == golden_fingerprint(protocol)
        assert result.run_metrics is not None


class TestCausalityGraph:
    def test_build_indexes_all_record_kinds(self):
        _, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        assert graph.sends and graph.delivers and graph.decisions
        sends = sum(1 for e in events if e["kind"] == "send")
        delivers = sum(1 for e in events if e["kind"] == "deliver")
        assert len(graph.sends) == sends
        assert len(graph.delivers) == delivers


class TestCriticalPath:
    def test_path_ends_at_each_decision(self):
        """One complete path per decision, terminating exactly at it."""
        result, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        paths = critical_paths(graph)
        assert len(paths) == len(graph.decisions)
        assert len(graph.decisions) == 4 * len(result.decided_values)
        for path in paths:
            assert path.complete, path.render()
            last = path.steps[-1]
            assert last.kind == "decide"
            assert last.time == path.decision.time
            assert last.node == path.decision.node

    def test_path_is_chronological_from_a_root(self):
        _, events = _traced("pbft")
        for path in critical_paths(CausalityGraph.build(events)):
            times = [step.time for step in path.steps]
            assert times == sorted(times), "steps must be non-decreasing"
            assert path.steps[0].kind == "start"
            assert path.duration_ms >= 0.0
            assert path.hops >= 1  # a decision needs at least one network hop

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_paths_complete_across_protocols(self, protocol):
        _, events = _traced(protocol)
        paths = critical_paths(CausalityGraph.build(events))
        assert paths
        assert all(path.complete for path in paths)

    def test_trace_without_causes_has_incomplete_paths(self):
        _, events = _traced("pbft")
        paths = critical_paths(CausalityGraph.build(_without_causes(events)))
        assert paths
        assert all(not path.complete for path in paths)
        assert all(len(path.steps) == 1 for path in paths)

    def test_render_mentions_every_step(self):
        _, events = _traced("pbft")
        paths = critical_paths(CausalityGraph.build(events))
        text = render_critical_paths(paths)
        assert "decision:" in text
        assert "network hops" in text

    def test_to_dict_schema(self):
        _, events = _traced("pbft")
        path = critical_paths(CausalityGraph.build(events))[0]
        data = path.to_dict()
        assert data["complete"] is True
        assert data["steps"][0]["kind"] == "start"
        assert data["steps"][-1]["kind"] == "decide"
        assert data["decision"]["node"] == path.decision.node


class TestQuorumTimeline:
    def test_quorum_closes_at_decision_trigger(self):
        """The k-th arrival is the delivery whose dispatch decided."""
        _, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        timelines = quorum_timelines(graph)
        assert len(timelines) == len(graph.decisions)
        for timeline in timelines:
            assert timeline.msg_type == "COMMIT"
            assert timeline.closed_at == timeline.decision.time
            assert timeline.quorum_size >= 1
            assert timeline.wasted >= 0
            ranks = [time for time, _, _ in timeline.arrivals]
            assert ranks == sorted(ranks)

    def test_timelines_reconcile_with_message_counts(self):
        """Every arrival in every quorum timeline is a real delivery the
        run counted: summed per msg_type they can never exceed the trace's
        delivery totals, and the straggler is one of the senders."""
        result, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        report = analyze_trace(events)
        assert report.delivered == result.counts.delivered
        timelines = quorum_timelines(graph)
        n = result.config.n
        for timeline in timelines:
            kind = report.message_kinds[timeline.msg_type]
            assert len(timeline.arrivals) <= kind.delivers
            assert 0 <= timeline.straggler < n
            straggler_rank = timeline.quorum_size - 1
            assert timeline.arrivals[straggler_rank][1] == timeline.straggler
        # All arrivals across all timelines of one node/slot are distinct
        # deliveries (msg_ids never repeat inside a timeline).
        for timeline in timelines:
            ids = [msg_id for _, _, msg_id in timeline.arrivals]
            assert len(ids) == len(set(ids))

    def test_exact_reconciliation_for_one_node(self):
        """For a fixed node, the COMMIT arrivals the timeline saw are
        exactly the COMMIT deliveries the trace recorded for it."""
        _, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        for timeline in quorum_timelines(graph):
            node = timeline.decision.node
            slot = timeline.decision.slot
            expected = [
                e for e in events
                if e["kind"] == "deliver" and e["node"] == node
                and e.get("msg_type") == timeline.msg_type
                and e.get("slot") == slot
            ]
            assert len(timeline.arrivals) == len(expected)

    def test_one_grouping_serves_every_decision(self):
        """``quorum_timeline`` called alone groups the deliveries itself and
        reads what ``quorum_timelines`` reads from its shared grouping; a
        hand-written trace whose slots are lists (unhashable) still groups
        them by equality."""
        from repro.observability.causality import quorum_timeline

        _, events = _traced("pbft")
        graph = CausalityGraph.build(events)
        shared = quorum_timelines(graph)
        assert [quorum_timeline(graph, t.decision) for t in shared] == shared
        listed = [
            dict(event, slot=[event["slot"]]) if event["kind"] == "deliver" else event
            for event in events
        ]
        relisted = quorum_timelines(CausalityGraph.build(listed))
        assert [t.arrivals for t in relisted] == [t.arrivals for t in shared]

    def test_render(self):
        _, events = _traced("pbft")
        timelines = quorum_timelines(CausalityGraph.build(events))
        text = render_quorum_timelines(timelines)
        assert "quorum closed" in text

    def test_to_dict_schema(self):
        _, events = _traced("pbft")
        timeline = quorum_timelines(CausalityGraph.build(events))[0]
        data = timeline.to_dict()
        assert data["quorum_size"] == timeline.quorum_size
        assert len(data["arrivals"]) == len(timeline.arrivals)
        assert data["wasted"] == timeline.wasted
