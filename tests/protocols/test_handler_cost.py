"""A handler's bookkeeping does not grow with the length of the run.

Counted, not timed: the work a handler does per message is read off a
wrapper around the structure it scans, at a short and a long run of the
same configuration.  A handler that rescans history (the whole chain on
every commit, every vote key since the run began on every vote) does
linearly more work per message in the long run and fails here.
"""

from __future__ import annotations

import pytest

from repro import run_simulation
from repro.protocols import VoteCounter, get_protocol
from repro.protocols.chained import BlockTree

from tests.conftest import quick_config

SHORT, LONG = 50, 400


def run(protocol: str, decisions: int):
    result = run_simulation(quick_config(protocol, n=4, num_decisions=decisions))
    assert result.terminated
    return result


@pytest.mark.parametrize("protocol", ["hotstuff-ns", "librabft"])
def test_chain_steps_per_decision_do_not_grow(protocol, monkeypatch):
    steps = [0]
    original = BlockTree.ancestors

    def ancestors(self, digest):
        for block in original(self, digest):
            steps[0] += 1
            yield block

    monkeypatch.setattr(BlockTree, "ancestors", ancestors)
    per_decision = {}
    for decisions in (SHORT, LONG):
        steps[0] = 0
        result = run(protocol, decisions)
        per_decision[decisions] = steps[0] / len(result.decisions)
    assert per_decision[LONG] <= 1.5 * per_decision[SHORT], per_decision


@pytest.mark.parametrize(
    "protocol,kinds",
    [("pbft", {"COMMIT"}), ("tendermint", {"PREVOTE", "PRECOMMIT"})],
    ids=["pbft", "tendermint"],
)
def test_vote_keys_examined_per_vote_do_not_grow(protocol, kinds, monkeypatch):
    examined = [0]
    votes = [0]

    def counting(method):
        def wrapper(self, *args):
            keys = method(self, *args)
            examined[0] += len(keys)
            return keys
        return wrapper

    # Every way a protocol can read a counter's keys is counted.
    for name in ("keys", "keys_in"):
        if hasattr(VoteCounter, name):
            monkeypatch.setattr(VoteCounter, name, counting(getattr(VoteCounter, name)))
    cls = get_protocol(protocol)
    on_message = cls.on_message

    def counted_on_message(self, message):
        if message.payload.get("type") in kinds:
            votes[0] += 1
        return on_message(self, message)

    monkeypatch.setattr(cls, "on_message", counted_on_message)
    per_vote = {}
    for decisions in (SHORT, LONG):
        examined[0] = votes[0] = 0
        run(protocol, decisions)
        per_vote[decisions] = examined[0] / votes[0]
    assert per_vote[LONG] <= 1.5 * per_vote[SHORT], per_vote
