"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import AttackConfig, NetworkConfig, SimulationConfig

try:
    from hypothesis import HealthCheck, settings

    # Pinned deterministic profile for CI: derandomized example generation
    # and no deadline/health-check flakiness from loaded shared runners.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    if os.environ.get("HYPOTHESIS_PROFILE"):
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


def quick_config(
    protocol: str = "pbft",
    n: int = 4,
    seed: int = 1,
    mean: float = 50.0,
    std: float = 10.0,
    lam: float = 500.0,
    num_decisions: int = 1,
    attack: AttackConfig | None = None,
    max_delay: float | None = None,
    dissemination: str = "full",
    fanout: int = 0,
    **kwargs,
) -> SimulationConfig:
    """A small, fast simulation configuration for unit tests."""
    return SimulationConfig(
        protocol=protocol,
        n=n,
        lam=lam,
        network=NetworkConfig(
            mean=mean,
            std=std,
            max_delay=max_delay,
            dissemination=dissemination,
            fanout=fanout,
        ),
        attack=attack or AttackConfig(),
        num_decisions=num_decisions,
        seed=seed,
        **kwargs,
    )


@pytest.fixture
def pbft_config() -> SimulationConfig:
    return quick_config()


def sync_config(protocol: str, **kwargs) -> SimulationConfig:
    """Config for synchronous protocols: delays bounded below lambda."""
    kwargs.setdefault("max_delay", 0.99 * kwargs.get("lam", 500.0))
    return quick_config(protocol=protocol, **kwargs)


def health_state(monitor) -> tuple:
    """Everything a :class:`~repro.observability.health.HealthMonitor` and
    its counting table hold: the table's every slot, the window state the
    next close reads (snapshot, EWMA, depths, window bounds) and the
    report — the online == offline comparison."""
    from repro.observability.signals import LiveSignals

    table = monitor.signals
    return (
        {slot: getattr(table, slot) for slot in LiveSignals.__slots__},
        monitor._snapshot, monitor._kind_ewma, monitor._depths,
        monitor._window_start, monitor.next_boundary,
        monitor.report().to_dict(),
    )
