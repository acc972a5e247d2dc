"""Workload config surface: spec grammar, validation, serialization.

The serialization tests double as the opt-in contract: a config without a
workload must serialize byte-identically to what pre-workload versions
produced (no ``workload`` key at all), and a config with one must
round-trip through JSON without drift.
"""

from __future__ import annotations

import pytest

from repro import SimulationConfig, WorkloadConfig, parse_workload_spec
from repro.core.errors import ConfigurationError

from tests.conftest import quick_config


# -- spec grammar ------------------------------------------------------------


def test_parse_full_spec():
    config = parse_workload_spec("rate:500,clients:100,batch:64")
    assert config.rate == 500.0
    assert config.clients == 100
    assert config.batch == 64
    assert config.arrival == "poisson"


def test_parse_all_keys():
    config = parse_workload_spec(
        "rate:20, clients:10, batch:16, timeout:500, duration:3000"
    )
    assert config.batch_timeout == 500.0
    assert config.duration == 3000.0


def test_parse_defaults_fill_in():
    config = parse_workload_spec("rate:200")
    assert config.clients == WorkloadConfig().clients
    assert config.batch == WorkloadConfig().batch


@pytest.mark.parametrize(
    "spec",
    ["", "   ", "rate", "rate=500", "tempo:99", "rate:fast", "rate:0", "clients:0"],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        parse_workload_spec(spec)


# -- validation --------------------------------------------------------------


def test_validate_rejects_unknown_arrival():
    with pytest.raises(ConfigurationError, match="arrival"):
        WorkloadConfig(arrival="uniform").validate()


def test_validate_trace_requires_times():
    with pytest.raises(ConfigurationError, match="trace_times"):
        WorkloadConfig(arrival="trace").validate()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match=">= 0"):
            WorkloadConfig(arrival="trace", trace_times=[10.0, bad]).validate()
    WorkloadConfig(arrival="trace", trace_times=[10.0, 20.0]).validate()


def test_simulation_config_validates_workload():
    with pytest.raises(ConfigurationError, match="batch"):
        quick_config(workload=WorkloadConfig(batch=0))


# -- serialization -----------------------------------------------------------


def test_no_workload_serializes_without_key():
    data = quick_config().to_dict()
    assert "workload" not in data


def test_workload_round_trips_through_dict():
    config = quick_config(
        workload=WorkloadConfig(rate=20.0, clients=10, duration=3000.0, batch=16)
    )
    data = config.to_dict()
    assert "trace_times" not in data["workload"]
    restored = SimulationConfig.from_dict(data)
    assert restored == config
    assert restored.to_dict() == data


def test_trace_workload_round_trips():
    config = quick_config(
        workload=WorkloadConfig(arrival="trace", trace_times=[5.0, 10.0, 15.0])
    )
    restored = SimulationConfig.from_dict(config.to_dict())
    assert restored.workload == config.workload


def test_from_dict_rejects_unknown_workload_keys():
    data = quick_config(workload=WorkloadConfig()).to_dict()
    data["workload"]["tempo"] = 1
    with pytest.raises(ConfigurationError, match="tempo"):
        SimulationConfig.from_dict(data)


def test_replace_merges_workload_fields():
    config = quick_config(
        workload=WorkloadConfig(rate=20.0, clients=10, batch=16)
    )
    bumped = config.replace(workload={"rate": 80.0})
    assert bumped.workload.rate == 80.0
    assert bumped.workload.clients == 10
    assert bumped.workload.batch == 16
    # The original is untouched and a workload can be removed outright.
    assert config.workload.rate == 20.0
    assert config.replace(workload=None).workload is None


def test_describe_mentions_process():
    assert "poisson" in WorkloadConfig().describe()
    assert "trace" in WorkloadConfig(
        arrival="trace", trace_times=[1.0]
    ).describe()
