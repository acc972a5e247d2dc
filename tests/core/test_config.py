"""Tests for configuration validation and serialization."""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro import AttackConfig, NetworkConfig, SimulationConfig, WorkloadConfig
from repro.core.config import FaultSpec
from repro.core.errors import ConfigurationError
from repro.observability.health import HealthMonitor
from repro.observability.metrics import MetricsRegistry

_config = partial(SimulationConfig, protocol="pbft", n=4)
_loss = partial(FaultSpec, "loss", rate=0.1)

#: Every float option with a range, as (constructor, field).
NUMERIC_FIELDS = [
    (NetworkConfig, "mean"), (NetworkConfig, "std"), (NetworkConfig, "min_delay"),
    (NetworkConfig, "max_delay"), (NetworkConfig, "gst"), (NetworkConfig, "pre_gst_factor"),
    (partial(FaultSpec, "delay", rate=0.2), "factor"), (_loss, "start"), (_loss, "end"),
    (WorkloadConfig, "rate"), (WorkloadConfig, "duration"), (WorkloadConfig, "batch_timeout"),
    (_config, "lam"), (_config, "max_time"), (_config, "stall_timeout"),
    (MetricsRegistry, "interval"), (HealthMonitor, "window_ms"),
]


class TestValidation:
    def test_minimal_valid(self):
        config = SimulationConfig(protocol="pbft")
        assert config.n == 16
        assert config.f is None

    def test_empty_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="")

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="pbft", n=n)

    @pytest.mark.parametrize("f", [-1, 16, 20])
    def test_bad_f_rejected(self, f):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="pbft", n=16, f=f)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="pbft", lam=0.0)

    def test_bad_decisions_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="pbft", num_decisions=0)

    def test_network_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(protocol="pbft", network=NetworkConfig(mean=-5.0))

    def test_min_delay_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(min_delay=0.0).validate()

    def test_max_delay_below_min_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(min_delay=10.0, max_delay=5.0).validate()

    def test_pre_gst_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(gst=100.0, pre_gst_factor=0.5).validate()


class TestNonFiniteRejected:
    @pytest.mark.parametrize("build, field, value", [
        pytest.param(build, field, value, id=f"{field}-{value}")
        for build, field in NUMERIC_FIELDS for value in (math.nan, math.inf)
        if (field, value) != ("max_time", math.inf)  # "no horizon" is a valid setting
    ])
    def test_field_names_itself(self, build, field, value):
        # NaN compares false both ways, so it passes any ``x <= 0`` rejection.
        # ConfigurationError from the config classes, ValueError from the two
        # telemetry constructors; the CLI reports both as ``error:``.
        with pytest.raises((ConfigurationError, ValueError), match=field):
            build(**{field: value}).validate()

    def test_max_time_may_be_infinite(self):
        assert _config(max_time=math.inf).max_time == math.inf

    def test_nan_from_json_is_rejected(self):
        # json.loads accepts NaN / Infinity, so --config reaches validate too.
        with pytest.raises(ConfigurationError, match="lam"):
            SimulationConfig.from_json('{"protocol": "pbft", "lam": NaN}')
        with pytest.raises(ConfigurationError, match="mean"):
            SimulationConfig.from_json(
                '{"protocol": "pbft", "network": {"mean": Infinity}}')

    def test_non_number_is_rejected(self):
        with pytest.raises(ConfigurationError, match="lam"):
            SimulationConfig.from_dict({"protocol": "pbft", "lam": "fast"})

    def test_attack_params_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="attack params"):
            _config(attack=AttackConfig(name="failstop", params=[1]))


class TestSerialization:
    def test_dict_roundtrip(self):
        config = SimulationConfig(
            protocol="hotstuff-ns",
            n=8,
            f=2,
            lam=750.0,
            network=NetworkConfig(mean=100.0, std=20.0, max_delay=500.0),
            attack=AttackConfig(name="failstop", params={"count": 2}),
            num_decisions=10,
            seed=99,
            protocol_params={"synchronizer": "view-indexed"},
        )
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_json_roundtrip(self):
        config = SimulationConfig(protocol="pbft", seed=5)
        assert SimulationConfig.from_json(config.to_json()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig.from_dict({"protocol": "pbft", "bogus": 1})

    def test_replace_shallow(self):
        config = SimulationConfig(protocol="pbft", seed=1)
        changed = config.replace(seed=2)
        assert changed.seed == 2
        assert config.seed == 1  # original untouched

    def test_replace_nested_network(self):
        config = SimulationConfig(protocol="pbft")
        changed = config.replace(network={"mean": 777.0})
        assert changed.network.mean == 777.0
        assert changed.network.std == config.network.std  # merged, not replaced

    def test_replace_nested_attack(self):
        config = SimulationConfig(protocol="pbft")
        changed = config.replace(attack={"name": "partition"})
        assert changed.attack.name == "partition"

    def test_replace_with_config_objects(self):
        config = SimulationConfig(protocol="pbft")
        changed = config.replace(network=NetworkConfig(mean=1.0, std=0.0))
        assert changed.network.mean == 1.0


@given(
    n=st.integers(min_value=1, max_value=100),
    lam=st.floats(min_value=1.0, max_value=1e5),
    seed=st.integers(min_value=0, max_value=2**31),
    decisions=st.integers(min_value=1, max_value=50),
)
def test_property_roundtrip(n, lam, seed, decisions):
    config = SimulationConfig(
        protocol="pbft", n=n, lam=lam, seed=seed, num_decisions=decisions
    )
    assert SimulationConfig.from_json(config.to_json()) == config
