"""Tests for protocol base helpers: VoteCounter, quorum sizes, resilience."""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from repro import Controller
from repro.core.errors import ConfigurationError
from repro.protocols import VoteCounter, get_protocol

from tests.conftest import quick_config


class TestVoteCounter:
    def test_counts_distinct_voters(self):
        votes = VoteCounter()
        assert votes.add("k", 0) == 1
        assert votes.add("k", 1) == 2
        assert votes.add("k", 1) == 2  # duplicate voter ignored

    def test_keys_independent(self):
        votes = VoteCounter()
        votes.add("a", 0)
        votes.add("b", 0)
        assert votes.count("a") == 1
        assert votes.count("b") == 1

    def test_count_missing_key_is_zero(self):
        assert VoteCounter().count("nope") == 0

    def test_voters_and_has_voted(self):
        votes = VoteCounter()
        votes.add("k", 3)
        votes.add("k", 5)
        assert votes.voters("k") == frozenset({3, 5})
        assert votes.has_voted("k", 3)
        assert not votes.has_voted("k", 4)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 20)),
            max_size=100,
        )
    )
    def test_property_count_equals_distinct_voters(self, entries):
        votes = VoteCounter()
        for key, voter in entries:
            votes.add(key, voter)
        for key in ("a", "b", "c"):
            expected = len({v for k, v in entries if k == key})
            assert votes.count(key) == expected

    def test_keys_in_returns_first_vote_order(self):
        votes = VoteCounter(group=itemgetter(0))
        for key, voter in [((1, "x"), 0), ((2, "y"), 0), ((1, "z"), 1),
                           ((1, "x"), 2), ((2, "w"), 1), ((1, "a"), 3)]:
            votes.add(key, voter)
        assert votes.keys_in(1) == ((1, "x"), (1, "z"), (1, "a"))
        assert votes.keys_in(2) == ((2, "y"), (2, "w"))

    def test_keys_in_unknown_group_is_empty(self):
        votes = VoteCounter(group=itemgetter(0))
        assert votes.keys_in(7) == ()
        votes.add((1, "x"), 0)
        assert votes.keys_in(7) == ()
        assert VoteCounter().keys_in(1) == ()  # no grouping function: no groups

    def test_keys_in_is_a_snapshot(self):
        votes = VoteCounter(group=itemgetter(0))
        votes.add((1, "x"), 0)
        held = votes.keys_in(1)
        votes.add((1, "y"), 0)
        assert held == ((1, "x"),)
        assert votes.keys_in(1) == ((1, "x"), (1, "y"))

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from("abc"), st.integers(0, 6)),
            max_size=80,
        )
    )
    def test_property_grouping_changes_no_count(self, entries):
        """``count`` / ``voters`` / ``has_voted`` and ``add``'s return are the
        same with and without a grouping function, and each group holds its
        keys in the order of the global first votes."""
        plain, grouped = VoteCounter(), VoteCounter(group=itemgetter(0))
        first_seen: list[tuple[int, str]] = []
        for slot, value, voter in entries:
            key = (slot, value)
            if key not in first_seen:
                first_seen.append(key)
            assert plain.add(key, voter) == grouped.add(key, voter)
        for slot in range(4):
            for value in "abc":
                key = (slot, value)
                assert plain.count(key) == grouped.count(key)
                assert plain.voters(key) == grouped.voters(key)
                for voter in range(7):
                    assert plain.has_voted(key, voter) == grouped.has_voted(key, voter)
            assert grouped.keys_in(slot) == tuple(k for k in first_seen if k[0] == slot)


class TestQuorums:
    def test_quorum_sizes(self):
        controller = Controller(quick_config(n=16, f=5))
        node = controller.nodes[0]
        assert node.quorum("byzantine") == 11
        assert node.quorum("available") == 11
        assert node.quorum("plurality") == 6

    def test_unknown_quorum_kind(self):
        controller = Controller(quick_config(n=4))
        with pytest.raises(ValueError):
            controller.nodes[0].quorum("magic")


class TestResilience:
    @pytest.mark.parametrize(
        "protocol,n,expected",
        [
            ("pbft", 16, 5),
            ("pbft", 4, 1),
            ("hotstuff-ns", 16, 5),
            ("async-ba", 16, 5),
            ("algorand", 16, 5),  # partition resilience costs n/3
            ("add-v1", 16, 7),  # synchronous: minority
            ("add-v2", 17, 8),
            ("add-v3", 4, 1),
        ],
    )
    def test_max_resilience(self, protocol, n, expected):
        assert get_protocol(protocol).max_resilience(n) == expected

    def test_check_resilience_rejects_excess(self):
        with pytest.raises(ConfigurationError):
            get_protocol("pbft").check_resilience(16, 6)

    def test_check_resilience_accepts_bound(self):
        get_protocol("add-v1").check_resilience(16, 7)

    def test_proposal_values_distinct_per_proposer(self):
        controller = Controller(quick_config(n=4))
        a = controller.nodes[0].proposal_value(0, 1)
        b = controller.nodes[1].proposal_value(0, 1)
        assert a != b

    def test_metadata_declared(self):
        for name in ("pbft", "hotstuff-ns", "librabft"):
            cls = get_protocol(name)
            assert cls.responsive
        for name in ("add-v1", "add-v2", "add-v3", "algorand"):
            assert not get_protocol(name).responsive
        for name in ("hotstuff-ns", "librabft"):
            assert get_protocol(name).pipelined
