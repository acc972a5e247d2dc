"""Tests for the ``"scenario"`` composite attacker.

The misbehaving children used here are registered under underscore-prefixed
names: real attackers never start with ``_``, and the registry keeps such
test doubles out of ``available_attacks()``.
"""

from __future__ import annotations

import pytest

from repro.attacks.base import Attacker, Capability, REDACTED_PAYLOAD
from repro.attacks.registry import register_attack
from repro.core.errors import CapabilityError
from repro.core.runner import run_simulation
from repro.core.results import result_fingerprint
from repro.scenarios import ScenarioSpec, parse_scenario_spec
from repro.scenarios.spec import AttackClause

from tests.conftest import quick_config


@register_attack("_test-peeker")
class _Peeker(Attacker):
    """Records the payloads it sees; holds only NETWORK (no OBSERVE)."""

    capabilities = Capability.NETWORK
    seen_payloads: list[dict] = []

    def attack(self, message):
        type(self).seen_payloads.append(dict(message.payload))
        return None


@register_attack("_test-sneaky-dropper")
class _SneakyDropper(Attacker):
    """Declares only OBSERVE but tries to drop every message."""

    capabilities = Capability.OBSERVE

    def attack(self, message):
        return []


@register_attack("_test-sneaky-editor")
class _SneakyEditor(Attacker):
    """Declares only NETWORK but edits payloads it cannot see."""

    capabilities = Capability.NETWORK

    def attack(self, message):
        message.payload["evil"] = True
        return [message]


@register_attack("_test-quiet-retimer")
class _QuietRetimer(Attacker):
    """Doubles every delay in place behind a redacted view, returning None."""

    capabilities = Capability.NETWORK

    def attack(self, message):
        message.delay *= 2.0
        return None


@register_attack("_test-hand-forger")
class _HandForger(Attacker):
    """Holds no BYZANTINE right but hand-builds a ``forged=True`` message."""

    capabilities = Capability.OBSERVE

    def attack(self, message):
        from repro.core.message import Message

        fake = Message(source=message.source, dest=message.dest,
                       payload={"type": "FAKE"}, sent_at=message.sent_at, forged=True)
        return [message, fake]


@register_attack("_test-colliding-forger")
class _CollidingForger(Attacker):
    """Adds a forged message built with the id of the copy in hand — what
    the process-wide construction counter can produce by accident."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE
    forged = 0

    def setup(self):
        self.ctx.corrupt(0)

    def attack(self, message):
        if message.forged or message.payload.get("type") != "PREPARE":
            return None
        noise = self.ctx.forge(0, message.dest, {"type": "NOISE"})
        noise.msg_id = message.msg_id
        type(self).forged += 1
        return [noise, message]


@register_attack("_test-timer-child")
class _TimerChild(Attacker):
    """Sets a named timer at setup and records the name it fires with."""

    capabilities = Capability.NETWORK
    fired: list[str] = []

    def setup(self):
        self.ctx.set_timer(100.0, "probe", tag=7)

    def on_timer(self, timer):
        type(self).fired.append(timer.name)
        assert timer.data == {"tag": 7}

    def attack(self, message):
        return None


def _run(text_or_spec, **config_kwargs):
    spec = (
        text_or_spec
        if isinstance(text_or_spec, ScenarioSpec)
        else parse_scenario_spec(text_or_spec)
    )
    config_kwargs.setdefault("stall_timeout", 20000.0)
    config = quick_config(**config_kwargs)
    return run_simulation(spec.apply(config))


class TestComposition:
    def test_single_clause_behaves_like_the_attack_itself(self):
        from repro import AttackConfig

        direct = run_simulation(
            quick_config(
                n=4,
                seed=3,
                attack=AttackConfig(
                    name="targeted-delay", params={"factor": 4.0}
                ),
            )
        )
        composed = _run("targeted-delay=factor:4.0", n=4, seed=3)
        # Same victims, same slowdown direction; fingerprints differ only
        # because the attacker names (and RNG stream names) differ.
        assert composed.terminated and direct.terminated
        assert composed.latency > 0

    def test_in_place_retime_counts_in_a_clause_as_it_does_standalone(self):
        """An edit made in place and passed back as ``None`` is applied (and
        checked) by the network module; a clause gets the same treatment."""
        from repro import AttackConfig

        direct = run_simulation(
            quick_config(n=4, seed=3, attack=AttackConfig(name="_test-quiet-retimer"))
        )
        benign = run_simulation(quick_config(n=4, seed=3))
        composed = _run(
            ScenarioSpec(attacks=[AttackClause(attack="_test-quiet-retimer")]), n=4, seed=3
        )
        assert direct.latency > benign.latency
        assert composed.latency == direct.latency

    def test_two_network_clauses_compose(self):
        solo = _run("targeted-delay=factor:2.0", n=4, seed=3)
        both = _run(
            "targeted-delay=factor:2.0; targeted-delay=factor:3.0",
            n=4,
            seed=3,
        )
        assert both.latency > solo.latency

    def test_corruption_and_partition_compose(self):
        result = _run(
            "pbft-equivocation; partition=start:0.0,end:2000.0,mode:delay,factor:3.0",
            n=4,
            seed=9,
        )
        assert result.terminated
        assert len(result.faulty) == 1

    def test_composite_run_is_deterministic(self):
        text = "adaptive=action:delay,signal:critical,factor:4.0; loss=0.02"
        fp_a = result_fingerprint(_run(text, n=4, seed=11))
        fp_b = result_fingerprint(_run(text, n=4, seed=11))
        assert fp_a == fp_b

    def test_shared_corruption_budget_across_clauses(self):
        # Two corrupting clauses demanding 1 each under f=2 are legal and
        # draw from one shared ledger: two distinct victims overall.
        spec = parse_scenario_spec("failstop=nodes:6; pbft-equivocation")
        result = _run(spec, protocol="pbft", n=7, seed=2)
        assert result.faulty == frozenset({0, 6})


    def test_clause_contexts_are_full_contexts_on_one_ledger(self):
        """Whatever the base context carries, a clause context carries too;
        only the corruption ledger is the parent's own object."""
        from repro import Controller

        spec = parse_scenario_spec("failstop; targeted-delay=factor:2")
        controller = Controller(spec.apply(quick_config(n=4)))
        parent = controller.attacker_ctx
        for child_ctx in controller.attacker._child_ctxs:
            assert set(vars(parent)) <= set(vars(child_ctx))
            assert child_ctx._corrupted_since is parent._corrupted_since


class TestActivationWindows:
    def test_windowed_clause_only_acts_inside_window(self):
        _Peeker.seen_payloads = []
        spec = ScenarioSpec(
            attacks=[
                AttackClause(
                    attack="_test-peeker", start=50.0, end=100000.0
                )
            ]
        )
        result = _run(spec, n=4, seed=1)
        assert result.terminated
        assert _Peeker.seen_payloads, "clause never activated"

    def test_clause_after_the_run_never_activates(self):
        _Peeker.seen_payloads = []
        spec = ScenarioSpec(
            attacks=[AttackClause(attack="_test-peeker", start=10_000_000.0)]
        )
        result = _run(spec, n=4, seed=1)
        assert result.terminated
        assert _Peeker.seen_payloads == []


class TestPerChildEnforcement:
    """Whole runs under a misbehaving clause; the rule-by-rule battery, for
    clauses and the bare attacker alike, is ``tests/attacks/test_gate.py``."""

    def test_child_without_observe_sees_redacted_payloads(self):
        _Peeker.seen_payloads = []
        spec = ScenarioSpec(attacks=[AttackClause(attack="_test-peeker")])
        result = _run(spec, n=4, seed=1)
        assert result.terminated
        assert _Peeker.seen_payloads
        assert all(p == REDACTED_PAYLOAD for p in _Peeker.seen_payloads)

    def test_child_payload_edit_without_observe_raises(self):
        spec = ScenarioSpec(
            attacks=[AttackClause(attack="_test-sneaky-editor")]
        )
        with pytest.raises(CapabilityError, match="redacted payload"):
            _run(spec, n=4, seed=1)

    def test_child_hand_built_forged_message_raises(self):
        spec = ScenarioSpec(attacks=[AttackClause(attack="_test-hand-forger")])
        with pytest.raises(
            CapabilityError, match=r"clause #0 \(_test-hand-forger\) forged .* BYZANTINE"
        ):
            _run(spec, n=4, seed=1)

    def test_child_forged_insert_with_the_copys_id_is_still_an_insert(self):
        _CollidingForger.forged = 0
        spec = ScenarioSpec(attacks=[AttackClause(attack="_test-colliding-forger")])
        result = _run(spec, n=7, seed=1)
        assert result.terminated
        assert result.counts.byzantine == _CollidingForger.forged > 0
        assert result.counts.dropped == 0

    def test_observing_clauses_share_the_modules_snapshot(self, monkeypatch):
        """One payload copy per attacked send, however many clauses read it."""
        from repro.network.module import NetworkModule
        from tests.attacks.support import count_payload_copies

        submitted = []
        submit = NetworkModule.submit
        monkeypatch.setattr(
            NetworkModule, "submit",
            lambda self, message: (submitted.append(message), submit(self, message))[1],
        )
        copied = count_payload_copies(monkeypatch)
        observer = {"action": "delay", "signal": "critical", "k": 1, "factor": 2.0}
        spec = ScenarioSpec(
            attacks=[AttackClause(attack="adaptive", params=dict(observer)) for _ in range(3)]
        )
        result = _run(spec, n=7, seed=1)
        assert result.terminated
        assert 0 < len(copied) <= len(submitted)

    def test_error_names_the_offending_clause(self):
        spec = ScenarioSpec(
            attacks=[
                AttackClause(attack="targeted-delay", params={"factor": 2.0}),
                AttackClause(attack="_test-sneaky-dropper"),
            ]
        )
        with pytest.raises(CapabilityError, match=r"clause #1 \(_test-sneaky-dropper\)"):
            _run(spec, n=4, seed=1)


class TestTimerRouting:
    def test_child_timers_round_trip_through_the_prefix(self):
        _TimerChild.fired = []
        spec = ScenarioSpec(attacks=[AttackClause(attack="_test-timer-child")])
        result = _run(spec, n=4, seed=1)
        assert result.terminated
        assert _TimerChild.fired == ["probe"]

    def test_sibling_rng_streams_are_independent(self):
        # Two identical clauses must not share RNG draws: their streams are
        # namespaced by clause index.
        spec = parse_scenario_spec(
            "targeted-delay=targets:0+1,factor:2.0;"
            "targeted-delay=targets:2+3,factor:2.0"
        )
        config = quick_config(n=4, seed=6, stall_timeout=20000.0)
        applied = spec.apply(config)
        from repro import Controller

        controller = Controller(applied)
        streams = {
            controller.attacker._child_ctxs[0].rng("x"),
            controller.attacker._child_ctxs[1].rng("x"),
        }
        assert len(streams) == 2
