"""The workload layer is strictly opt-in: benign fingerprints are untouched.

The golden cases of the pinned-run table (``tests/pinned.json``) already
pins the 9 seed digests; these tests make the opt-in contract explicit
from the workload side — a config without a workload produces a result
with no workload metrics, no ``workload`` fingerprint field, and the
exact pre-workload golden digest, while attaching a workload changes the
digest through a dedicated fingerprint field.
"""

from __future__ import annotations

import pytest

from repro import WorkloadConfig, result_fingerprint, run_simulation
from repro.core.results import deterministic_dict

from tests.pinned import golden_config, golden_fingerprint, golden_protocols


@pytest.mark.parametrize("protocol", golden_protocols())
def test_no_workload_digests_match_seed_golden(protocol):
    """All 9 seed digests stay byte-identical when no workload is
    configured — the workload layer must not consume RNG, schedule events,
    or add fingerprint fields unless asked for."""
    result = run_simulation(golden_config(protocol))
    assert result.workload is None
    assert "workload" not in deterministic_dict(result)
    assert result_fingerprint(result) == golden_fingerprint(protocol)


def test_workload_adds_a_fingerprint_field():
    config = golden_config("pbft").replace(
        lam=1000.0,
        network={"mean": 250.0, "std": 50.0},
        num_decisions=1,
        workload=WorkloadConfig(rate=20.0, clients=4, duration=1000.0, batch=8),
    )
    result = run_simulation(config)
    data = deterministic_dict(result)
    assert data["workload"]["decided"] == data["workload"]["submitted"] > 0
    assert "requests" not in data["workload"]
