"""Health-monitor overhead — what streaming anomaly detection costs.

The run-health monitor hangs five rolling-window detectors off the
controller dispatch loop.  Per dispatched event it costs one float compare
(the window-boundary check); per delivered message, one dict increment;
detector evaluation runs only at window closes (a handful per run).  It
draws nothing from the RNG and schedules nothing, so it must be both
fingerprint-invariant and near-free.

This bench runs one PBFT workload (n=16,
lambda=1000, N(250, 50), 20 decisions) under three configurations:

* ``health-off``    — the default, no monitor attached;
* ``health-on``     — the default 500 ms window;
* ``health-narrow`` — a 50 ms window (10x the window closes, stressing
  the detector-evaluation path rather than the per-event path).

The acceptance bar (ISSUE, PR 10): health-on stays within a few percent
of health-off, and every configuration is fingerprint-identical.
"""

from __future__ import annotations

import os
import time

from repro import (
    NetworkConfig,
    SimulationConfig,
    result_fingerprint,
    run_simulation,
)
from repro.analysis import render_table

from _common import run_once, save_artifact

REPETITIONS = 5

#: Maximum tolerated health-on / health-off slowdown.  The monitor's true
#: cost is ~1-2%; the guard is looser because best-of-N on shared CI hosts
#: still jitters.  Override with REPRO_HEALTH_MAX_OVERHEAD.
MAX_HEALTH_OVERHEAD = float(os.environ.get("REPRO_HEALTH_MAX_OVERHEAD", "1.05"))


def _config() -> SimulationConfig:
    return SimulationConfig(
        protocol="pbft",
        n=16,
        lam=1000.0,
        network=NetworkConfig(mean=250.0, std=50.0),
        num_decisions=20,
        seed=1,
    )


def _time_variants(variants) -> list[tuple[float, object]]:
    """Best-of-``REPETITIONS`` wall-clock per configuration, interleaved.

    Round-robin rather than block-per-variant: host-load drift over the
    measurement then hits every configuration in each round equally
    instead of biasing whichever variant ran last.
    """
    best = [float("inf")] * len(variants)
    results: list[object] = [None] * len(variants)
    for _ in range(REPETITIONS):
        for i, (_, make_kwargs) in enumerate(variants):
            kwargs = make_kwargs()
            t0 = time.perf_counter()
            results[i] = run_simulation(_config(), **kwargs)
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))


def test_health_overhead(benchmark) -> None:
    variants = [
        ("health-off", lambda: {}),
        ("health-on", lambda: {"health": True}),
        ("health-narrow", lambda: {"health": 50.0}),
    ]

    def experiment():
        timed = _time_variants(variants)
        return [(name, *entry) for (name, _), entry in zip(variants, timed)]

    timings = run_once(benchmark, experiment)

    t_off = timings[0][1]
    t_on = timings[1][1]
    events = timings[0][2].events_processed
    rows = [
        (
            name,
            f"{seconds * 1e3:.1f}",
            f"{events / seconds:,.0f}",
            "—" if name == "health-off" else f"{(seconds / t_off - 1) * 100:+.1f}%",
        )
        for name, seconds, _ in timings
    ]

    save_artifact(
        "health_overhead",
        render_table(
            f"Run-health overhead: PBFT (n=16, lambda=1000, N(250,50), "
            f"20 decisions, {events} events), best of {REPETITIONS}",
            ["configuration", "wall-clock (ms)", "events/s", "overhead"],
            rows,
            note="overhead is relative to health-off on the same host; all "
            "three configurations are fingerprint-identical.",
        ),
    )

    # The determinism contract: monitoring never changes results, and the
    # benign benchmark workload is anomaly-free.
    fingerprints = {name: result_fingerprint(res) for name, _, res in timings}
    assert len(set(fingerprints.values())) == 1, (
        f"health monitoring changed deterministic results: {fingerprints}"
    )
    monitored = timings[1][2]
    assert monitored.health is not None
    assert monitored.health.anomaly_count == 0

    # The efficiency contract: the detectors are hot-path-cheap.
    assert t_on <= t_off * MAX_HEALTH_OVERHEAD, (
        f"health-on is {t_on / t_off:.3f}x health-off "
        f"(allowed {MAX_HEALTH_OVERHEAD}x); the monitor's per-event path regressed"
    )
