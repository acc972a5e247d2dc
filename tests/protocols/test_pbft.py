"""Tests for PBFT: happy path, view changes, safety mechanics."""

from __future__ import annotations

import pytest

from repro import AttackConfig, run_simulation
from repro.attacks.base import Capability
from repro.crypto.quorum import QuorumCertificate

from tests.attacks.support import ScriptedAttacker, controller_with
from tests.conftest import quick_config


def pbft(**kwargs):
    kwargs.setdefault("protocol", "pbft")
    return quick_config(**kwargs)


class TestHappyPath:
    def test_single_decision(self):
        result = run_simulation(pbft())
        assert result.terminated
        assert result.decided_values[0].startswith("value(")

    def test_leader_zero_proposes_slot_zero(self):
        result = run_simulation(pbft())
        assert "proposer=0" in result.decided_values[0]

    def test_three_phase_latency(self):
        """One decision needs pre-prepare + prepare + commit: about three
        network hops, well under one timeout at mean=50ms, lam=500ms."""
        result = run_simulation(pbft(mean=50.0, std=5.0))
        assert 100.0 < result.latency < 500.0

    def test_quadratic_message_usage(self):
        """PBFT sends ~2n^2 messages per decision."""
        result = run_simulation(pbft(n=10))
        expected = 9 + 2 * 10 * 9  # pre-prepare + prepare + commit
        assert result.messages == pytest.approx(expected, rel=0.1)

    def test_multi_slot_smr(self):
        result = run_simulation(pbft(num_decisions=5))
        assert sorted(result.decided_values) == [0, 1, 2, 3, 4]

    def test_no_view_change_in_happy_path(self):
        result = run_simulation(pbft(record_trace=True))
        views = {e.fields["view"] for e in result.trace.events(kind="view")}
        assert views == {0}


class TestViewChange:
    def test_crashed_leader_triggers_view_change(self):
        config = pbft(
            n=4,
            attack=AttackConfig(name="failstop", params={"nodes": [0]}),
            record_trace=True,
        )
        result = run_simulation(config)
        assert result.terminated
        views = {e.fields["view"] for e in result.trace.events(kind="view")}
        assert 1 in views, "nodes must move to view 1"
        assert "proposer=1" in result.decided_values[0], "leader 1 re-proposes"

    def test_view_change_latency_includes_timeout(self):
        config = pbft(n=4, attack=AttackConfig(name="failstop", params={"nodes": [0]}))
        result = run_simulation(config)
        assert result.latency > config.lam  # must wait out the view timer

    def test_two_crashed_leaders(self):
        config = pbft(
            n=7,
            attack=AttackConfig(name="failstop", params={"nodes": [0, 1]}),
        )
        result = run_simulation(config)
        assert result.terminated
        assert "proposer=2" in result.decided_values[0]

    def test_mid_run_crash_after_first_decision(self):
        config = pbft(
            n=7,
            num_decisions=3,
            attack=AttackConfig(name="failstop", params={"nodes": [0], "at": 400.0}),
            max_time=60_000.0,
        )
        result = run_simulation(config)
        assert result.terminated
        assert len(result.decided_values) == 3

    def test_timeout_doubles_across_view_changes(self):
        """With two crashed leaders the second view change waits 2x lam."""
        one = run_simulation(
            pbft(n=7, attack=AttackConfig(name="failstop", params={"nodes": [0]}))
        )
        two = run_simulation(
            pbft(n=7, attack=AttackConfig(name="failstop", params={"nodes": [0, 1]}))
        )
        # view changes cost lam then 2*lam: the gap must exceed one lam.
        assert two.latency - one.latency > 500.0 * 0.9


class TestSafetyMechanics:
    def test_safety_under_equivocation(self):
        """A corrupted leader equivocates; honest nodes must still agree."""
        config = pbft(
            n=4,
            attack=AttackConfig(name="pbft-equivocation", params={"target": 0}),
            max_time=120_000.0,
        )
        result = run_simulation(config)
        assert result.terminated
        values = {d.value for d in result.decisions if d.slot == 0}
        assert len(values) == 1, "equivocation must not split honest decisions"

    def test_commit_carries_value_for_laggards(self):
        result = run_simulation(pbft(record_trace=True))
        assert result.terminated  # smoke: the value-carrying commit works

    def test_decides_under_jittery_network(self):
        result = run_simulation(pbft(mean=200.0, std=150.0, lam=1000.0, max_time=600_000.0))
        assert result.terminated

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="DECIDED certificates are trusted by signer count, not by who signed",
    )
    def test_forged_decided_certificate_is_not_adopted(self):
        """One DECIDED from a corrupted node, whose certificate names three
        honest signers over a value none of them voted for, must not make an
        honest replica decide that value.  Today node 0 decides "evil" and
        the run never terminates (decisions {0: 1, 1: 0, 2: 0, 3: 0})."""
        controller = controller_with(
            ScriptedAttacker(Capability.BYZANTINE), n=4, seed=1,
            max_time=60_000.0, allow_horizon=True,
        )
        ctx = controller.attacker_ctx
        ctx.corrupt(3)
        cert = QuorumCertificate(
            kind="qc", view=0, ref=controller.nodes[0]._digest("evil"),
            signers=frozenset({0, 1, 2}),
        )
        payload = {"type": "DECIDED", "slot": 0, "value": "evil", "cert": cert.to_payload()}
        ctx.inject(ctx.forge(3, 0, payload))
        controller.run()
        honest = controller.nodes[:3]
        proposals = {
            value
            for node in honest
            for (view, _slot), (_digest, value) in node.pre_prepares.items()
            if node.leader_of(view) < 3
        }
        decided = {value for node in honest for value, _cert in node._decision_certs.values()}
        assert decided <= proposals
