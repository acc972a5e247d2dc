"""A handler's bookkeeping does not grow with the length of the run.

Counted, not timed: the work a handler does per message is read off a
wrapper around the structure it scans, at a short and a long run of the
same configuration.  A handler that rescans history (the whole chain on
every commit, every vote key since the run began on every vote) does
linearly more work per message in the long run and fails here.

Certificates are counted the same way: one certificate object serves every
replica of a run (it travels in the payload as itself), so nothing parses
one and a finished chained run holds little more than its blocks.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import defaultdict

import pytest

from repro import Controller, run_simulation
from repro.crypto.quorum import QuorumCertificate
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


@pytest.mark.parametrize("protocol", ["hotstuff-ns", "librabft"])
def test_one_certificate_serves_every_replica(protocol, monkeypatch):
    parsed = [0]
    from_payload = QuorumCertificate.from_payload.__func__

    def counting(cls, data):
        if isinstance(data, dict):
            parsed[0] += 1
        return from_payload(cls, data)

    monkeypatch.setattr(QuorumCertificate, "from_payload", classmethod(counting))
    controller = Controller(quick_config(protocol, n=16, num_decisions=20))
    assert controller.run().terminated
    assert parsed[0] == 0
    held: dict[str, list[QuorumCertificate]] = defaultdict(list)
    for node in controller.nodes:
        for block in node.tree.ancestors(node.high_qc.ref):
            if block.qc is not None:
                held[block.digest].append(block.qc)
    assert max(map(len, held.values())) == 16
    for digest, certificates in held.items():
        assert all(qc is certificates[0] for qc in certificates), digest


def test_a_finished_chained_run_holds_little():
    """hotstuff-ns n=128, 25 decisions: each replica used to keep its own
    parsed copy of every certificate (≈32 MiB live after the run)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        controller = Controller(quick_config("hotstuff-ns", n=128, num_decisions=25, seed=5))
        assert controller.run().terminated
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert held <= 8 * 2**20, f"{held / 2**20:.1f} MiB"
