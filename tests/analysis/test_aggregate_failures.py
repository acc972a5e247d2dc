"""Aggregation over batches that contain :class:`RunFailure` entries."""

from __future__ import annotations

import pytest

from repro import RunFailure, WorkloadConfig, repeat_simulation, run_simulation
from repro.analysis.aggregate import partition_results, summarize
from repro.faults import parse_faults_spec

from tests.conftest import quick_config


def _failure(seed: int = 1, index: int = 0) -> RunFailure:
    return RunFailure(
        config=quick_config(seed=seed),
        kind="error",
        error_type="RuntimeError",
        message="boom",
        run_index=index,
    )


class TestPartition:
    def test_partition_splits_and_preserves_order(self):
        results = repeat_simulation(quick_config(), 2)
        mixed = [results[0], _failure(index=1), results[1], _failure(index=3)]
        ok, failed = partition_results(mixed)
        assert ok == [results[0], results[1]]
        assert [f.run_index for f in failed] == [1, 3]


class TestSummarizeWithFailures:
    def test_failures_excluded_and_counted(self):
        results = repeat_simulation(quick_config(seed=5), 3)
        mixed = list(results) + [_failure(index=3), _failure(seed=9, index=4)]
        summary = summarize(mixed)
        clean = summarize(results)
        assert summary.failures == 2
        assert clean.failures == 0
        # Statistics come from the successful runs only.
        assert summary.latency == clean.latency
        assert summary.messages == clean.messages
        assert summary.terminated_fraction == clean.terminated_fraction

    def test_all_failed_raises(self):
        with pytest.raises(ValueError, match="all 2 runs failed"):
            summarize([_failure(index=0), _failure(index=1)])

    def test_empty_still_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestMixedFleet:
    """One fleet mixing workload successes, a bare success, a stalled run,
    and hard failures — the shape a real ``--store`` sweep batch can take.
    Failure rows must never leak into any statistic, latency percentiles
    included; workload statistics aggregate only the runs that carried
    workload metrics."""

    @pytest.fixture(scope="class")
    def fleet(self):
        workload = WorkloadConfig(
            rate=20.0, clients=4, duration=1000.0, batch=8, batch_timeout=300.0
        )
        successes = [
            run_simulation(
                quick_config(
                    seed=seed, lam=1000.0, mean=250.0, std=50.0,
                    workload=workload,
                )
            )
            for seed in (1, 2)
        ]
        bare = run_simulation(quick_config(seed=3))
        stalled = run_simulation(
            quick_config(
                seed=4,
                faults=parse_faults_spec("loss=1.0"),
                stall_timeout=20_000.0,
                max_time=600_000.0,
                allow_horizon=True,
            )
        )
        assert stalled.stalled and not stalled.terminated
        return successes, bare, stalled

    def test_failures_never_reach_latency_percentiles(self, fleet):
        successes, bare, stalled = fleet
        mixed = [successes[0], _failure(index=1), bare, stalled,
                 successes[1], _failure(seed=9, index=5)]
        summary = summarize(mixed)
        clean = summarize([successes[0], bare, stalled, successes[1]])
        assert summary.failures == 2
        # Every statistic — aggregate and per-request percentiles alike —
        # is identical with the failure rows removed.
        assert summary.latency == clean.latency
        assert summary.latency_per_decision == clean.latency_per_decision
        assert summary.throughput == clean.throughput
        assert summary.request_latency_p50 == clean.request_latency_p50
        assert summary.request_latency_p99 == clean.request_latency_p99
        assert summary.latency.count == 4  # successes + bare + stalled

    def test_workload_stats_cover_only_workload_runs(self, fleet):
        successes, bare, stalled = fleet
        summary = summarize([successes[0], _failure(index=1), bare, stalled,
                             successes[1]])
        assert summary.throughput is not None
        assert summary.throughput.count == 2
        assert summary.request_latency_p50.count == 2
        assert summary.request_latency_p99.count == 2
        expected = {w.latency_p50_ms for w in
                    (successes[0].workload, successes[1].workload)}
        assert {summary.request_latency_p50.min,
                summary.request_latency_p50.max} == expected

    def test_stall_and_termination_accounting(self, fleet):
        successes, bare, stalled = fleet
        summary = summarize([successes[0], _failure(index=1), bare, stalled,
                             successes[1]])
        # Fractions are over successful rows only — failures are neither
        # terminated nor stalled, they are absent.
        assert summary.stalled_fraction == 0.25
        assert summary.terminated_fraction == 0.75

    def test_no_workload_runs_leave_throughput_unset(self, fleet):
        _successes, bare, stalled = fleet
        summary = summarize([bare, _failure(index=1), stalled])
        assert summary.throughput is None
        assert summary.request_latency_p50 is None
        assert summary.request_latency_p99 is None
        assert summary.saturated_fraction == 0.0


class TestHealthAggregation:
    """Fleet fairness summary over health-monitored batches."""

    def _workload_config(self, *, attacked: bool):
        from repro.workload import parse_workload_spec

        config = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            allow_horizon=True,
        )
        if attacked:
            config = config.replace(faults=parse_faults_spec("delay=0.7x6"))
        return config

    def test_unmonitored_batch_has_empty_health_summary(self):
        summary = summarize(repeat_simulation(quick_config(), 2))
        assert summary.anomaly_total == 0
        assert summary.min_fairness is None
        assert summary.mean_fairness is None
        assert summary.starved_clients == 0

    def test_fleet_fairness_rollup(self):
        results = repeat_simulation(
            self._workload_config(attacked=True), 3, health=250.0
        )
        summary = summarize(results)
        assert summary.anomaly_total == sum(r.health.anomaly_count for r in results)
        assert summary.min_fairness == min(r.health.min_fairness for r in results)
        assert summary.mean_fairness == pytest.approx(
            sum(r.health.min_fairness for r in results) / 3
        )
        assert summary.starved_clients == sum(
            len(r.health.starved_clients) for r in results
        )
        assert summary.starved_clients > 0

    def test_healthy_monitored_batch(self):
        summary = summarize(
            repeat_simulation(self._workload_config(attacked=False), 2, health=250.0)
        )
        assert summary.anomaly_total == 0
        assert summary.starved_clients == 0
        assert summary.min_fairness is not None
        assert summary.min_fairness <= summary.mean_fairness

    def test_failures_excluded_from_health_stats(self):
        monitored = repeat_simulation(
            self._workload_config(attacked=True), 2, health=250.0
        )
        mixed = [monitored[0], _failure(index=1), monitored[1]]
        summary = summarize(mixed)
        assert summary.failures == 1
        assert summary.anomaly_total == summarize(monitored).anomaly_total
