"""Tests for the metrics collector: counting, termination, safety."""

from __future__ import annotations

import pytest

from repro.core.errors import SafetyViolationError
from repro.core.metrics import MetricsCollector


def collector(n: int = 4, decisions: int = 1) -> MetricsCollector:
    return MetricsCollector(n=n, num_decisions=decisions)


class TestTraffic:
    def test_sent_split_by_honesty(self):
        m = collector()
        m.on_sent()
        m.on_sent(byzantine=True)
        m.on_sent()
        assert m.counts.sent == 2
        assert m.counts.byzantine == 1

    def test_dropped_and_delivered(self):
        m = collector()
        m.on_delivered()
        m.on_delivered()
        assert m.counts.dropped == 0
        assert m.counts.delivered == 2


class TestDecisions:
    def test_agreeing_decisions_accepted(self):
        m = collector()
        for node in range(4):
            m.on_decision(node, 0, "v", time=float(node))
        assert m.decided_value(0) == "v"
        assert m.terminated()

    def test_conflicting_decision_raises(self):
        m = collector()
        m.on_decision(0, 0, "a", time=1.0)
        with pytest.raises(SafetyViolationError):
            m.on_decision(1, 0, "b", time=2.0)

    @pytest.mark.parametrize(
        "history,expected",
        [
            # (node, value) decisions of slot 0, or ("faulty", node)
            ([(0, "a")], "node 0 decided 'a'"),
            ([(0, "a"), (1, "a"), (2, "a"), ("faulty", 0)], "node 1 decided 'a'"),
            ([(0, "x"), ("faulty", 0), (1, "a"), (2, "a")], "node 1 decided 'a'"),
            ([(0, "a"), (1, "a"), ("faulty", 1)], "node 0 decided 'a'"),
        ],
        ids=["plain", "first-decider-faulty", "faulty-disagreed", "latest-faulty"],
    )
    def test_conflict_names_the_first_honest_decider(self, history, expected):
        """The error names the earliest decider that is still honest, even
        when earlier or later deciders have been marked faulty since."""
        m = collector(n=5)
        for time, (node, value) in enumerate(history):
            if node == "faulty":
                m.mark_faulty(value)
            else:
                m.on_decision(node, 0, value, time=float(time))
        pattern = f"^slot 0: node 4 decided 'b' at 9.0 but {expected} "
        with pytest.raises(SafetyViolationError, match=pattern):
            m.on_decision(4, 0, "b", time=9.0)

    def test_decision_agreeing_with_the_honest_ones_passes(self):
        m = collector(n=5)
        m.on_decision(0, 0, "x", time=1.0)
        m.mark_faulty(0)
        m.on_decision(1, 0, "a", time=2.0)
        m.on_decision(4, 0, "a", time=3.0)
        assert m.decided_value(0) == "a"

    def test_node_contradicting_itself_raises(self):
        m = collector()
        m.on_decision(0, 0, "a", time=1.0)
        with pytest.raises(SafetyViolationError):
            m.on_decision(0, 0, "b", time=2.0)

    def test_duplicate_decision_is_idempotent(self):
        m = collector()
        m.on_decision(0, 0, "a", time=1.0)
        m.on_decision(0, 0, "a", time=2.0)
        assert m.decisions_of(0) == 1

    def test_different_slots_may_differ(self):
        m = collector(decisions=2)
        m.on_decision(0, 0, "a", time=1.0)
        m.on_decision(0, 1, "b", time=2.0)
        assert m.decided_value(0) == "a"
        assert m.decided_value(1) == "b"

    def test_faulty_nodes_decisions_ignored(self):
        m = collector()
        m.mark_faulty(3)
        m.on_decision(3, 0, "evil", time=1.0)
        assert m.decisions == []
        # and a conflicting honest decision is fine afterwards
        m.on_decision(0, 0, "good", time=2.0)
        assert m.decided_value(0) == "good"

    def test_decided_slots_sorted(self):
        m = collector(decisions=3)
        m.on_decision(0, 2, "c", 1.0)
        m.on_decision(0, 0, "a", 2.0)
        assert m.decided_slots() == [0, 2]

    def test_decided_value_missing_slot_raises(self):
        with pytest.raises(KeyError):
            collector().decided_value(0)


class TestTermination:
    def test_not_terminated_until_all_honest_decide(self):
        m = collector()
        for node in range(3):
            m.on_decision(node, 0, "v", time=1.0)
        assert not m.terminated()
        m.on_decision(3, 0, "v", time=2.0)
        assert m.terminated()

    def test_faulty_nodes_excluded_from_termination(self):
        m = collector()
        m.mark_faulty(3)
        for node in range(3):
            m.on_decision(node, 0, "v", time=1.0)
        assert m.terminated()

    def test_multi_decision_termination(self):
        m = collector(decisions=2)
        for node in range(4):
            m.on_decision(node, 0, "a", time=1.0)
        assert not m.terminated()
        for node in range(4):
            m.on_decision(node, 1, "b", time=2.0)
        assert m.terminated()

    def test_all_faulty_never_terminates(self):
        m = collector(n=2)
        m.mark_faulty(0)
        m.mark_faulty(1)
        assert not m.terminated()


class TestDerivedMetrics:
    def test_latency_and_per_decision(self):
        m = collector(decisions=2)
        m.finish(3000.0)
        assert m.latency() == 3000.0
        assert m.latency_per_decision() == 1500.0

    def test_messages_per_decision(self):
        m = collector(decisions=4)
        for _ in range(20):
            m.on_sent()
        assert m.messages_per_decision() == 5.0

    def test_slot_completion_times(self):
        m = collector()
        for node, t in enumerate([1.0, 4.0, 2.0, 3.0]):
            m.on_decision(node, 0, "v", time=t)
        assert m.slot_completion_times() == {0: 4.0}

    def test_slot_completion_excludes_partial_slots(self):
        m = collector(decisions=2)
        for node in range(4):
            m.on_decision(node, 0, "a", time=1.0)
        m.on_decision(0, 1, "b", time=2.0)  # only one node decided slot 1
        assert list(m.slot_completion_times()) == [0]
