"""The throughput–latency curve saturates, live.

Below the knee committed tx/s tracks the offered rate; past it the
protocol's pipeline capacity caps committed tx/s while requests queue.
Each protocol runs the same open-loop workload at three offered rates
that straddle its knee (the table in EXPERIMENTS.md, "throughput
saturation"); the assertions are about the curve's shape, so an
intentional protocol or mempool change moves the numbers without
touching this test.
"""

from __future__ import annotations

import pytest

from repro import SimulationConfig, WorkloadConfig, run_simulation

RATES = (10.0, 40.0, 160.0)


@pytest.mark.parametrize("protocol", ["pbft", "tendermint", "hotstuff-ns"])
def test_committed_throughput_saturates_with_offered_rate(protocol):
    curve = []
    for rate in RATES:
        result = run_simulation(SimulationConfig(
            protocol=protocol,
            n=4,
            lam=1000.0,
            seed=3,
            workload=WorkloadConfig(
                rate=rate, clients=10, duration=3000.0, batch=16, batch_timeout=500.0,
            ),
        ))
        assert result.terminated
        wl = result.workload
        assert wl.decided == wl.submitted > 0, f"rate {rate:g}: requests lost"
        curve.append(wl)

    assert not curve[0].saturated, f"already saturated at {RATES[0]:g} req/s"
    assert curve[-1].saturated, f"not saturated at {RATES[-1]:g} req/s"
    tx = [wl.committed_tx_s for wl in curve]
    assert tx == sorted(tx), f"committed tx/s not monotone in the offered rate: {tx}"
    assert tx[-1] < RATES[-1], f"no plateau: {tx[-1]:.1f} tx/s at {RATES[-1]:g} offered"
