"""Tests for the message value object."""

from __future__ import annotations

from repro.core.message import BROADCAST, Message, payload_matches


def test_type_from_payload():
    assert Message(0, 1, {"type": "VOTE"}).type == "VOTE"


def test_type_defaults_to_question_mark():
    assert Message(0, 1, {}).type == "?"


def test_unique_ids():
    a = Message(0, 1, {})
    b = Message(0, 1, {})
    assert a.msg_id != b.msg_id


class TestCopyFor:
    def test_copy_changes_dest_and_id(self):
        original = Message(3, BROADCAST, {"type": "X"}, sent_at=2.0)
        copy = original.copy_for(7)
        assert copy.dest == 7
        assert copy.source == 3
        assert copy.sent_at == 2.0
        assert copy.msg_id != original.msg_id

    def test_copy_payload_is_independent(self):
        original = Message(0, BROADCAST, {"type": "X", "nested": {"a": 1}})
        copy = original.copy_for(1)
        copy.payload["nested"]["a"] = 99
        assert original.payload["nested"]["a"] == 1

    def test_copy_preserves_forged_flag(self):
        original = Message(0, BROADCAST, {}, forged=True)
        assert original.copy_for(1).forged is True


def test_describe_is_informative():
    text = Message(2, 5, {"type": "COMMIT"}, sent_at=1.0).describe()
    assert "COMMIT" in text and "2->5" in text


class TestPayloadMatches:
    def test_match(self):
        assert payload_matches({"type": "VOTE", "view": 3}, type="VOTE", view=3)

    def test_mismatch_value(self):
        assert not payload_matches({"type": "VOTE", "view": 3}, view=4)

    def test_missing_key(self):
        assert not payload_matches({"type": "VOTE"}, view=1)

    def test_empty_expected_matches_everything(self):
        assert payload_matches({"anything": 1})
