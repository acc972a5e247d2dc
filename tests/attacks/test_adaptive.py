"""Tests for the adaptive signal-driven attacker and its OBSERVE gating."""

from __future__ import annotations

import pytest

from repro import AttackConfig, Controller
from repro.attacks.base import Capability
from repro.core.errors import CapabilityError, ConfigurationError
from repro.core.runner import run_simulation
from repro.core.results import result_fingerprint

from tests.attacks.support import ScriptedAttacker, controller_with
from tests.conftest import quick_config


def _run(params, **config_kwargs):
    config_kwargs.setdefault("n", 4)
    config_kwargs.setdefault("seed", 7)
    config_kwargs.setdefault("num_decisions", 5)
    config_kwargs.setdefault("stall_timeout", 20000.0)
    config = quick_config(
        attack=AttackConfig(name="adaptive", params=params), **config_kwargs
    )
    return run_simulation(config)


class TestDelayAction:
    def test_delay_action_slows_the_run(self):
        baseline = run_simulation(
            quick_config(n=4, seed=7, num_decisions=5, stall_timeout=20000.0)
        )
        attacked = _run({"action": "delay", "signal": "critical",
                         "k": 2, "factor": 8.0})
        assert attacked.terminated
        assert attacked.latency > baseline.latency

    def test_no_corruption_under_delay_action(self):
        result = _run({"action": "delay", "factor": 4.0})
        assert result.faulty == frozenset()

    def test_deterministic(self):
        params = {"action": "delay", "signal": "busiest", "factor": 6.0}
        fp_a = result_fingerprint(_run(params))
        fp_b = result_fingerprint(_run(params))
        assert fp_a == fp_b

    @pytest.mark.parametrize("signal", ["critical", "stragglers", "busiest"])
    def test_all_signals_run(self, signal):
        result = _run({"action": "delay", "signal": signal, "factor": 3.0})
        assert result.terminated

    def test_fan_in_signal_runs_and_slows(self):
        baseline = run_simulation(
            quick_config(n=4, seed=7, num_decisions=5, stall_timeout=20000.0)
        )
        attacked = _run({"action": "delay", "signal": "fan-in",
                         "kind": "PREPARE", "k": 2, "factor": 8.0})
        assert attacked.terminated
        assert attacked.latency > baseline.latency

    def test_fan_in_signal_requires_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            _run({"action": "delay", "signal": "fan-in"})

    def test_fan_in_signal_is_deterministic(self):
        params = {"action": "delay", "signal": "fan-in", "kind": "PREPARE",
                  "factor": 6.0}
        assert result_fingerprint(_run(params)) \
            == result_fingerprint(_run(params))


class TestCorruptAction:
    def test_corrupts_within_budget(self):
        result = _run({"action": "corrupt", "budget": 1, "period": 100.0},
                      protocol="pbft", n=7)
        assert len(result.faulty) == 1

    def test_budget_defaults_to_f(self):
        result = _run({"action": "corrupt", "period": 100.0},
                      protocol="pbft", n=7)
        assert len(result.faulty) <= 2  # f = 2 at n = 7

    def test_corrupt_action_swaps_network_for_byzantine(self):
        from repro.attacks.adaptive import AdaptiveAttacker

        delay = AdaptiveAttacker({"action": "delay"})
        corrupt = AdaptiveAttacker({"action": "corrupt"})
        assert Capability.NETWORK in delay.capabilities
        assert Capability.BYZANTINE not in delay.capabilities
        assert Capability.BYZANTINE in corrupt.capabilities
        assert Capability.NETWORK not in corrupt.capabilities

    def test_corruption_demand_mirrors_params(self):
        from repro.attacks.adaptive import AdaptiveAttacker

        assert AdaptiveAttacker.corruption_demand({"action": "delay"}, 3) == 0
        assert AdaptiveAttacker.corruption_demand({"action": "corrupt"}, 3) == 3
        assert AdaptiveAttacker.corruption_demand(
            {"action": "corrupt", "budget": 1}, 3
        ) == 1


class TestValidation:
    def test_bad_action_rejected(self):
        with pytest.raises(ConfigurationError, match="action"):
            _run({"action": "teleport"})

    def test_bad_signal_rejected(self):
        with pytest.raises(ConfigurationError, match="signal"):
            _run({"signal": "vibes"})

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigurationError, match="period"):
            _run({"period": 0})


class TestSignalsGating:
    def test_signals_require_observe(self):
        attacker = ScriptedAttacker(Capability.NETWORK)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="OBSERVE"):
            attacker.ctx.signals

    def test_signals_require_wants_signals_declaration(self):
        # OBSERVE alone is not enough: without wants_signals the controller
        # collected nothing, and pretending otherwise would be lying.
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker)
        assert controller.signals is None
        with pytest.raises(CapabilityError, match="wants_signals"):
            attacker.ctx.signals

    def test_benign_runs_never_allocate_signals(self):
        controller = Controller(quick_config())
        assert controller.signals is None

    def test_a_table_built_for_health_is_not_the_attackers_to_read(self):
        from repro.attacks.base import AttackerContext
        from repro.observability.health import HealthMonitor

        controller = Controller(quick_config(), health=HealthMonitor())
        assert controller.signals is not None
        with pytest.raises(CapabilityError, match="wants_signals"):
            AttackerContext(controller, Capability.OBSERVE).signals

    def test_adaptive_runs_allocate_signals(self):
        config = quick_config(
            attack=AttackConfig(name="adaptive", params={"action": "delay"})
        )
        controller = Controller(config)
        assert controller.signals is not None
        assert controller.signals.n == config.n


class TestOverlayRelays:
    def test_relays_require_network_capability(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller_with(attacker)
        with pytest.raises(CapabilityError, match="NETWORK"):
            attacker.ctx.overlay_relays(0)

    def test_tree_relays_are_nonempty_and_exclude_root(self):
        attacker = ScriptedAttacker(Capability.NETWORK)
        controller_with(attacker, n=16, dissemination="tree")
        relays = attacker.ctx.overlay_relays(0)
        assert relays
        assert 0 not in relays
        assert all(0 <= r < 16 for r in relays)
        assert list(relays) == sorted(relays)

    @pytest.mark.parametrize("dissemination", ["full", "gossip"])
    def test_non_tree_overlays_have_no_static_relays(self, dissemination):
        attacker = ScriptedAttacker(Capability.NETWORK)
        controller_with(attacker, n=16, dissemination=dissemination, fanout=4)
        assert attacker.ctx.overlay_relays(0) == ()
