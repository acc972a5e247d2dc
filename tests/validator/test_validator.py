"""Tests for the validator module: replay and cross-checking."""

from __future__ import annotations

import pytest

from repro import run_simulation
from repro.baseline import run_baseline_simulation
from repro.core.errors import ValidationError
from repro.core.tracing import Trace
from repro.validator import (
    compare_decisions,
    compare_event_sequences,
    decisions_of,
    extract_delivery_schedule,
    replay_simulation,
)

from tests.conftest import quick_config


def traced(**kwargs):
    kwargs.setdefault("record_trace", True)
    return quick_config(**kwargs)


class TestScheduleExtraction:
    def test_delays_recovered_from_trace(self):
        result = run_simulation(traced(n=4))
        schedule = extract_delivery_schedule(result.trace)
        assert schedule, "a PBFT run must produce message streams"
        for delays in schedule.values():
            assert all(d > 0 for d in delays)

    def test_streams_keyed_by_route_and_type(self):
        result = run_simulation(traced(n=4))
        schedule = extract_delivery_schedule(result.trace)
        for (source, dest, msg_type) in schedule:
            assert source != dest
            assert isinstance(msg_type, str)


    def test_extraction_does_not_depend_on_record_order(self):
        """Ground truth from another engine need not list a send before its
        delivery; a delivery nobody sent is ignored."""
        trace = Trace()
        trace.record(9.0, "deliver", 1, source=0, msg_type="A", msg_id=5)
        trace.record(2.0, "send", 0, dest=1, msg_type="A", msg_id=5)
        trace.record(1.0, "send", 0, dest=1, msg_type="A", msg_id=4)
        trace.record(3.0, "deliver", 1, source=0, msg_type="A", msg_id=99)
        trace.record(4.5, "deliver", 1, source=0, msg_type="A", msg_id=4)
        assert extract_delivery_schedule(trace) == {(0, 1, "A"): [3.5, 7.0]}


class TestReplay:
    def test_replaying_own_trace_reproduces_decisions(self):
        config = traced(n=4, num_decisions=2)
        original = run_simulation(config)
        replayed = replay_simulation(config, original.trace)
        assert compare_decisions(original.trace, replayed.trace).matches

    def test_replay_of_baseline_ground_truth(self):
        """The paper's §III-D validation: another engine's trace replayed
        here must yield the same decisions."""
        config = traced(n=7, num_decisions=2)
        ground_truth = run_baseline_simulation(config)
        replayed = replay_simulation(config, ground_truth.trace)
        report = compare_decisions(ground_truth.trace, replayed.trace)
        assert report.matches, report.mismatches

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValidationError):
            replay_simulation(traced(), Trace(enabled=True))

    def test_replay_counts_unmatched_messages(self):
        """Replaying under a *different* protocol config drifts; the replay
        network falls back to median delays and counts the drift."""
        from repro.validator.replay import ReplayController

        ground_truth = run_simulation(traced(n=4, seed=1)).trace
        drifted_config = traced(n=4, seed=2, num_decisions=2)
        controller = ReplayController(drifted_config, ground_truth)
        controller.run()
        assert controller.recorded_delays.unmatched > 0


class TestComparison:
    def test_decisions_of(self):
        result = run_simulation(traced(n=4))
        decisions = decisions_of(result.trace)
        assert len(decisions) == 4
        assert all(slot == 0 for (_node, slot) in decisions)

    def test_missing_decision_detected(self):
        full = run_simulation(traced(n=4)).trace
        partial = Trace.from_jsonl(full.to_jsonl())
        # ground truth with an extra decision the candidate lacks
        full.record(9_999.0, "decide", 0, slot=7, value="ghost")
        report = compare_decisions(full, partial)
        assert not report.matches
        assert any("slot 7" in m for m in report.mismatches)

    def test_conflicting_decision_detected(self):
        a = Trace()
        a.record(1.0, "decide", 0, slot=0, value="x")
        b = Trace()
        b.record(1.0, "decide", 0, slot=0, value="y")
        report = compare_decisions(a, b)
        assert not report.matches

    def test_extra_candidate_decisions_allowed(self):
        truth = Trace()
        truth.record(1.0, "decide", 0, slot=0, value="x")
        candidate = Trace()
        candidate.record(1.0, "decide", 0, slot=0, value="x")
        candidate.record(2.0, "decide", 0, slot=1, value="more")
        assert compare_decisions(truth, candidate).matches

    def test_event_sequence_ignores_timestamps(self):
        a = Trace()
        a.record(1.0, "decide", 0, slot=0, value="x")
        b = Trace()
        b.record(500.0, "decide", 0, slot=0, value="x")
        assert compare_event_sequences(a, b).matches

    def test_event_sequence_length_mismatch(self):
        a = Trace()
        a.record(1.0, "decide", 0, slot=0, value="x")
        a.record(2.0, "decide", 0, slot=1, value="y")
        b = Trace()
        b.record(1.0, "decide", 0, slot=0, value="x")
        report = compare_event_sequences(a, b)
        assert not report.matches
        assert any("length differs" in m for m in report.mismatches)

    def test_summary_format(self):
        report = compare_decisions(Trace(), Trace())
        assert "MATCH" in report.summary()


class TestMismatchReporting:
    """The report must *describe* each disagreement, not just count them —
    the CLI prints these lines verbatim as the validation diagnosis."""

    def test_conflicting_values_both_named(self):
        a = Trace()
        a.record(1.0, "decide", 2, slot=3, value="x")
        b = Trace()
        b.record(1.0, "decide", 2, slot=3, value="y")
        report = compare_decisions(a, b)
        (mismatch,) = report.mismatches
        assert "node 2" in mismatch and "slot 3" in mismatch
        assert "'y'" in mismatch and "'x'" in mismatch

    def test_summary_counts_mismatches(self):
        a = Trace()
        a.record(1.0, "decide", 0, slot=0, value="x")
        a.record(1.0, "decide", 1, slot=0, value="x")
        report = compare_decisions(a, Trace())
        assert "2 MISMATCHES" in report.summary()
        assert report.checked_decisions == 2

    def test_sequence_position_mismatch_named(self):
        a = Trace()
        a.record(1.0, "decide", 0, slot=0, value="x")
        b = Trace()
        b.record(1.0, "decide", 0, slot=0, value="z")
        report = compare_event_sequences(a, b)
        assert any(m.startswith("event 0") for m in report.mismatches)
        assert report.checked_events == 1
