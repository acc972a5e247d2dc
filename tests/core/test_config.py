"""Tests for configuration validation and serialization."""

from __future__ import annotations

import copy
import math
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AttackConfig, NetworkConfig, SimulationConfig, WorkloadConfig
from repro.core.config import FaultScheduleConfig, FaultSpec
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


#: Config documents that used to load: a traceback, a silent coercion
#: (seed 1.5 ran as seed 1), or a string flag counted as true.
MALFORMED = [
    ({"seed": None}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"),
    ({"seed": "abc"}, "seed"),
    ({"allow_horizon": "no"}, "allow_horizon"), ({"record_trace": "no"}, "record_trace"),
    ({"lam": True}, "lam"), ({"n": True}, "n"), ({"stall_timeout": True}, "stall_timeout"),
    ({"network": {"fanout": True}}, "fanout"),
    ({"faults": {"specs": [{"kind": "crash", "node": "a"}]}}, "fault node"),
    ({"faults": {"specs": [{"kind": "loss", "rate": 0.1, "src": 1}]}}, "fault src"),
    ({"network": {"distribution": 5}}, "distribution"),
    ({"attack": {"name": None}}, "attack name"),
    ({"workload": {"clients": "a"}}, "clients"),
    ({"workload": {"arrival": "trace", "trace_times": 5}}, "trace_times"),
    ({"protocol": 5}, "protocol"),
]


class TestScalarTypes:
    @pytest.mark.parametrize("fields,name", MALFORMED, ids=[n for _, n in MALFORMED])
    def test_malformed_scalar_is_a_configuration_error(self, fields, name):
        with pytest.raises(ConfigurationError, match=name):
            SimulationConfig.from_dict({"protocol": "pbft", **fields})

    def test_a_config_needs_a_protocol(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            SimulationConfig.from_dict({"n": 4})

    def test_negative_seed_still_loads(self):
        assert SimulationConfig.from_dict({"protocol": "pbft", "seed": -3}).seed == -3


#: JSON-ish values, hostile and plain: what a --config file can hold.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=2**64),
    st.floats(), st.sampled_from([1e999, -1e999, 0.5, 4, 100.0]),
    st.sampled_from(["pbft", "normal", "tree", "crash", "loss", "trace", "null", ""]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _document(cls, **deeper):
    """Dicts over ``cls``'s keys; a ``deeper`` key may hold a nested document."""
    return st.fixed_dictionaries({}, optional={
        name: st.one_of(VALUES, deeper[name]) if name in deeper else VALUES
        for name in cls.__dataclass_fields__
    })


FAULT = _document(FaultSpec, kind=st.sampled_from(["crash", "loss", "delay", "link-down"]))
DOCUMENTS = _document(
    SimulationConfig,
    protocol=st.just("pbft"),
    network=_document(NetworkConfig),
    attack=_document(AttackConfig),
    faults=_document(FaultScheduleConfig, specs=st.lists(FAULT, max_size=3)),
    workload=_document(WorkloadConfig, arrival=st.sampled_from(["poisson", "trace"])),
)

#: A valid document touching every section; most random documents fail at
#: their first bad key, so the fuzz also plants one hostile value in this.
VALID = SimulationConfig(
    protocol="pbft", n=4, f=1, lam=500.0, stall_timeout=5000.0,
    network=NetworkConfig(max_delay=900.0, dissemination="tree", fanout=2),
    attack=AttackConfig("failstop", {"count": 1}),
    faults=FaultScheduleConfig([
        FaultSpec("crash", node=1, start=10.0, end=50.0),
        FaultSpec("loss", rate=0.1, src=[0], dst=[1, 2]),
    ]),
    workload=WorkloadConfig(arrival="trace", trace_times=[1.0, 2.0]),
).to_dict()


def _paths(document, prefix=()):
    """The key path of every slot of a document, lists included."""
    for key, value in (
        document.items() if isinstance(document, dict) else enumerate(document)
    ):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


#: Walked once, not on every draw: the walk, its deep copy and a fresh
#: ``sampled_from`` were ~40 % of a planted draw's time.
_PATHS = st.sampled_from(list(_paths(VALID)))


@st.composite
def _planted(draw):
    document = copy.deepcopy(VALID)
    *parents, key = draw(_PATHS)
    container = document
    for step in parents:
        container = container[step]
    container[key] = draw(VALUES)
    return document


# too_slow: the first input a process draws here can wait ~3 s while
# hypothesis scans every imported project module for literal constants
# (cached under .hypothesis/constants, so only a fresh checkout or an edit
# pays it); that is no property of these strategies.
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(DOCUMENTS, _planted()))
def test_loaded_config_round_trips_or_is_a_configuration_error(data):
    try:
        config = SimulationConfig.from_dict(data)
    except ConfigurationError:
        return
    assert SimulationConfig.from_dict(config.to_dict()) == config


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
