"""Crash + recovery lifecycle: rejoin round-trips, rejection, accounting."""

import pytest

from repro import run_simulation
from repro.core.config import NetworkConfig, SimulationConfig
from repro.core.errors import ConfigurationError
from repro.faults import parse_faults_spec
from repro.protocols.registry import available_protocols, get_protocol

RECOVERY_PROTOCOLS = [
    name for name in available_protocols() if get_protocol(name).supports_recovery
]
NO_RECOVERY_PROTOCOLS = [
    name for name in available_protocols() if not get_protocol(name).supports_recovery
]


def crash_config(protocol, spec="crash=1@200:2000", seed=7, **overrides):
    cls = get_protocol(protocol)
    defaults = dict(
        protocol=protocol,
        n=4,
        lam=300.0,
        network=NetworkConfig(mean=50.0, std=15.0),
        faults=parse_faults_spec(spec),
        num_decisions=5 if cls.pipelined else 3,
        seed=seed,
        max_time=600_000.0,
        allow_horizon=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_recovery_support_is_declared_where_expected():
    assert RECOVERY_PROTOCOLS == ["hotstuff-ns", "librabft", "pbft", "tendermint"]


@pytest.mark.parametrize("protocol", RECOVERY_PROTOCOLS)
def test_crash_recovery_round_trip(protocol):
    """A temporarily crashed replica rejoins, catches up on every decision
    it slept through, and the run terminates with safety intact."""
    result = run_simulation(crash_config(protocol))
    assert result.terminated
    assert result.fault_counts.crashes == 1
    assert result.fault_counts.recoveries == 1
    # A temporary crash is environmental downtime, not a Byzantine fault.
    assert 1 not in result.faulty
    per_node = {}
    per_slot = {}
    for decision in result.decisions:
        per_node.setdefault(decision.node, set()).add(decision.slot)
        per_slot.setdefault(decision.slot, set()).add(decision.value)
    required = set(range(result.config.num_decisions))
    assert required <= per_node[1], f"recovered node missed slots {required - per_node[1]}"
    for slot, values in per_slot.items():
        assert len(values) == 1, f"slot {slot} split: {values}"


@pytest.mark.xfail(
    strict=True,
    reason="known bug: a leader proposing on a QC whose block it never "
    "received gives the proposal height 1, and every replica holding the "
    "parent drops it as malformed (ChainedHotStuffBase._try_propose)",
)
@pytest.mark.parametrize("protocol", ["hotstuff-ns", "librabft"])
def test_leader_recovering_without_the_qc_block_rejoins(protocol):
    """n=16, default network: node 3 recovers at t=900 and, as leader of
    view 3, proposes at t≈1085 on the view-2 QC without holding its block.
    Today it never decides and the run does not terminate; fixing the bug
    flips this test."""
    result = run_simulation(
        SimulationConfig(
            protocol=protocol,
            n=16,
            num_decisions=20,
            seed=4,
            faults=parse_faults_spec("crash=3@200:900"),
            max_time=60_000.0,
            allow_horizon=True,
        )
    )
    decided_by_3 = {d.slot for d in result.decisions if d.node == 3}
    assert set(range(20)) <= decided_by_3
    assert result.terminated


@pytest.mark.parametrize("protocol", RECOVERY_PROTOCOLS)
def test_crash_drops_inflight_messages(protocol):
    result = run_simulation(crash_config(protocol))
    assert result.fault_counts.crash_dropped > 0


@pytest.mark.parametrize("protocol", NO_RECOVERY_PROTOCOLS)
def test_recovery_schedule_rejected_without_support(protocol):
    with pytest.raises(ConfigurationError, match="does not support crash recovery"):
        run_simulation(crash_config(protocol))


def test_permanent_crash_allowed_without_recovery_support():
    """A crash with no recovery time is a fail-stop any protocol tolerates;
    the victim is charged to the fault budget like an attacker corruption."""
    result = run_simulation(
        crash_config("algorand", spec="crash=1@200", num_decisions=1)
    )
    assert result.terminated
    assert result.fault_counts.crashes == 1
    assert result.fault_counts.recoveries == 0
    assert 1 in result.faulty


def test_crash_events_appear_in_trace():
    config = crash_config("pbft").replace(record_trace=True)
    result = run_simulation(config)
    kinds = [event.kind for event in result.trace.events()]
    assert "env-crash" in kinds
    assert "env-recover" in kinds
    crash = next(e for e in result.trace.events(kind="env-crash"))
    assert crash.time == 200.0


def test_multiple_staggered_crashes():
    """Two replicas crash in overlapping windows; both rejoin and the run
    completes.  While both are down the survivors cannot form a quorum —
    progress legitimately waits for the recoveries."""
    result = run_simulation(
        crash_config("pbft", spec="crash=1@200:900; crash=2@300:1100")
    )
    assert result.terminated
    assert result.fault_counts.crashes == 2
    assert result.fault_counts.recoveries == 2
    assert not result.faulty
