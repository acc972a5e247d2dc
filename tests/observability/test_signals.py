"""Unit tests for the live run signals maintained for adaptive attackers."""

from __future__ import annotations

from repro.observability.signals import LiveSignals


def _populated() -> LiveSignals:
    s = LiveSignals(4)
    # Node 1 handles a message from node 3 and decides on it: 3 closed the
    # quorum.  Node 0 decides twice on messages from node 2.
    s.on_deliver(1, 3, None, 10.0, 0.0)
    s.on_decide(1, 11.0)
    s.on_deliver(0, 2, None, 12.0, 0.0)
    s.on_decide(0, 13.0)
    s.on_deliver(0, 2, None, 14.0, 0.0)
    s.on_decide(0, 15.0)
    s.on_deliver(2, 0, None, 16.0, 0.0)
    return s


class TestCounters:
    def test_delivery_and_decision_counts(self):
        s = _populated()
        assert s.delivered == [2, 1, 1, 0]
        assert s.decided == [2, 1, 0, 0]
        assert s.decisions_seen == 3

    def test_self_delivery_never_closes_a_quorum(self):
        s = LiveSignals(2)
        s.on_deliver(0, 0, None, 1.0, 0.0)
        s.on_decide(0, 2.0)
        assert s.closing_senders == {}

    def test_decide_without_delivery_closes_nothing(self):
        s = LiveSignals(2)
        s.on_decide(1, 1.0)
        assert s.closing_senders == {}
        assert s.decided == [0, 1]


class TestRankings:
    def test_stragglers_rank_by_decisions_then_activity_then_id(self):
        s = _populated()
        # 3 has no decisions and no activity; 2 has no decisions but was
        # active at t=16; 1 decided once; 0 decided twice.
        assert s.stragglers(4) == [3, 2, 1, 0]

    def test_stragglers_exclude(self):
        s = _populated()
        assert s.stragglers(2, exclude={3}) == [2, 1]

    def test_critical_senders_rank_by_quorums_closed(self):
        s = _populated()
        assert s.critical_senders(2) == [2, 3]
        assert s.critical_senders(2, exclude={2}) == [3]

    def test_critical_senders_never_pads(self):
        s = _populated()
        # Only two nodes ever closed a quorum; k=4 still returns two.
        assert len(s.critical_senders(4)) == 2

    def test_busiest_nodes_rank_by_deliveries(self):
        s = _populated()
        assert s.busiest_nodes(2) == [0, 1]
        assert s.busiest_nodes(1, exclude={0}) == [1]

    def test_fresh_signals_rank_by_id(self):
        s = LiveSignals(3)
        assert s.stragglers(3) == [0, 1, 2]
        assert s.busiest_nodes(3) == [0, 1, 2]
        assert s.critical_senders(3) == []

    def test_describe_mentions_counts(self):
        s = _populated()
        text = s.describe()
        assert "decisions=3" in text
        assert "delivered=4" in text


class TestKindFanIn:
    def _kinds(self) -> LiveSignals:
        s = LiveSignals(4)
        s.on_deliver(1, 0, "PREPARE", 1.0, 0.0)
        s.on_deliver(1, 2, "PREPARE", 2.0, 0.0)
        s.on_deliver(2, 0, "PREPARE", 3.0, 0.0)
        s.on_deliver(3, 0, "COMMIT", 4.0, 0.0)
        s.on_deliver(3, 1, "COMMIT", 5.0, 0.0)
        s.on_deliver(3, 2, "COMMIT", 6.0, 0.0)
        return s

    def test_fan_in_counts_per_kind(self):
        s = self._kinds()
        assert s.kind_fan_in["PREPARE"] == [0, 2, 1, 0]
        assert s.kind_fan_in["COMMIT"] == [0, 0, 0, 3]

    def test_unseen_kind_is_all_zeros(self):
        s = self._kinds()
        assert "VIEW-CHANGE" not in s.kind_fan_in

    def test_untyped_deliveries_count_only_overall(self):
        s = LiveSignals(2)
        s.on_deliver(0, 1, None, 1.0, 0.0)  # no kind: anonymous delivery
        assert s.delivered == [1, 0]
        assert s.kind_fan_in == {}

    def test_hottest_by_kind_ranks_that_kind_only(self):
        s = self._kinds()
        # Overall, node 3 is busiest; for PREPARE specifically, node 1 is.
        assert s.busiest_nodes(1) == [3]
        assert s.hottest_by_kind("PREPARE", 2) == [1, 2]
        assert s.hottest_by_kind("COMMIT", 1) == [3]

    def test_hottest_by_kind_respects_exclude(self):
        s = self._kinds()
        assert s.hottest_by_kind("PREPARE", 2, exclude={1}) == [2, 0]

    def test_hottest_falls_back_to_busiest_when_kind_unseen(self):
        s = self._kinds()
        assert s.hottest_by_kind("VIEW-CHANGE", 2) == s.busiest_nodes(2)


class TestSummaryDict:
    def test_snapshot_shape_and_values(self):
        s = _populated()
        s.on_deliver(1, 0, "PREPARE", 20.0, 0.0)
        summary = s.summary_dict()
        assert set(summary) == {
            "decisions_seen", "delivered", "decided", "closing_senders",
            "fan_in_by_kind",
        }
        assert summary["decisions_seen"] == 3
        assert summary["delivered"] == [2, 2, 1, 0]
        assert summary["closing_senders"] == {"2": 2, "3": 1}
        assert summary["fan_in_by_kind"] == {
            "PREPARE": {"total": 1, "per_node": [0, 1, 0, 0]},
        }

    def test_snapshot_is_json_serializable(self):
        import json

        s = LiveSignals(2)
        s.on_deliver(0, 1, "VOTE", 1.0, 0.0)
        round_tripped = json.loads(json.dumps(s.summary_dict()))
        assert round_tripped["fan_in_by_kind"]["VOTE"]["per_node"] == [1, 0]
