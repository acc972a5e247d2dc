"""Aggregation of repeated simulation runs.

The paper reports the mean and standard deviation of each metric over 100
repetitions (§IV); this module computes those summaries from
:class:`~repro.core.results.SimulationResult` lists.

Batches produced by the parallel engine (or ``on_error="record"``) may
contain :class:`~repro.core.results.RunFailure` entries alongside results;
:func:`summarize` aggregates over the successful runs and reports the
failure count explicitly instead of silently dropping or crashing on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.results import RunFailure, SimulationResult


@dataclass(frozen=True)
class SummaryStats:
    """Mean / standard deviation / extrema of one metric across runs."""

    mean: float
    std: float
    min: float
    max: float
    count: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SummaryStats":
        if not values:
            raise ValueError("cannot summarize zero values")
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return cls(
            mean=mean,
            std=math.sqrt(variance),
            min=min(values),
            max=max(values),
            count=len(values),
        )

    def format(self, scale: float = 1.0, unit: str = "") -> str:
        """``"mean +- std unit"`` with the given scaling (e.g. 1/1000 for
        seconds)."""
        return f"{self.mean * scale:.2f} +- {self.std * scale:.2f}{unit}"


@dataclass(frozen=True)
class RunSummary:
    """Aggregated metrics of one experimental cell.

    Attributes:
        latency: total time usage (ms) across runs.
        latency_per_decision: per-decision time usage (ms).
        messages: honest message usage across runs.
        messages_per_decision: per-decision message usage.
        terminated_fraction: fraction of runs that terminated before the
            horizon (1.0 in healthy regimes; below 1.0 flags a liveness
            pathology, reported explicitly rather than hidden).
        failures: number of :class:`~repro.core.results.RunFailure` entries
            excluded from the statistics (0 for fully-successful batches).
        stalled_fraction: fraction of runs the liveness watchdog stopped
            with a :class:`~repro.core.results.StallReport` (0.0 when the
            watchdog is disabled or never fired).
        fault_events: mean number of environmental fault events per run
            (``FaultCounts.total()``; 0.0 for fault-free runs).
        throughput: committed tx/s across workload runs, or ``None`` when
            no successful run carried workload metrics (the pre-workload
            summary shape is unchanged).
        request_latency_p50 / request_latency_p99: per-request latency
            percentiles (ms) across workload runs, or ``None`` likewise.
        saturated_fraction: fraction of workload runs that ended with
            undecided requests (offered load above the protocol's
            capacity) — the saturation axis of a throughput-latency curve.
        anomaly_total: total streaming-health anomalies across runs that
            carried a :class:`~repro.observability.health.HealthReport`
            (0 when health monitoring was off).
        min_fairness / mean_fairness: extremum and mean of the per-run
            minimum Jain fairness index across health-monitored workload
            runs, or ``None`` when no run recorded a fairness series.
        starved_clients: count of distinct (run, client) starvation
            implications across health-monitored runs.
    """

    latency: SummaryStats
    latency_per_decision: SummaryStats
    messages: SummaryStats
    messages_per_decision: SummaryStats
    terminated_fraction: float
    failures: int = 0
    stalled_fraction: float = 0.0
    fault_events: float = 0.0
    throughput: SummaryStats | None = None
    request_latency_p50: SummaryStats | None = None
    request_latency_p99: SummaryStats | None = None
    saturated_fraction: float = 0.0
    anomaly_total: int = 0
    min_fairness: float | None = None
    mean_fairness: float | None = None
    starved_clients: int = 0


def partition_results(
    entries: Iterable[SimulationResult | RunFailure],
) -> tuple[list[SimulationResult], list[RunFailure]]:
    """Split a mixed batch into (successful results, failure records)."""
    results: list[SimulationResult] = []
    failures: list[RunFailure] = []
    for entry in entries:
        (failures if isinstance(entry, RunFailure) else results).append(entry)
    return results, failures


def summarize(entries: Iterable[SimulationResult | RunFailure]) -> RunSummary:
    """Aggregate a batch into a :class:`RunSummary`.

    ``RunFailure`` entries are excluded from every statistic and surfaced
    via :attr:`RunSummary.failures`; a batch with no successful run at all
    cannot be summarized and raises ``ValueError``.
    """
    results, failures = partition_results(entries)
    if not results and failures:
        raise ValueError(f"cannot summarize: all {len(failures)} runs failed")
    if not results:
        raise ValueError("cannot summarize zero results")
    # Workload (throughput) statistics exist only for runs that carried an
    # open-loop client workload; mixed batches aggregate over that subset.
    workload = [r.workload for r in results if r.workload is not None]
    # Health statistics likewise aggregate over the health-monitored subset.
    health = [r.health for r in results if r.health is not None]
    fairness = [h.min_fairness for h in health if h.min_fairness is not None]
    return RunSummary(
        latency=SummaryStats.of([r.latency for r in results]),
        latency_per_decision=SummaryStats.of([r.latency_per_decision for r in results]),
        messages=SummaryStats.of([float(r.messages) for r in results]),
        messages_per_decision=SummaryStats.of([r.messages_per_decision for r in results]),
        terminated_fraction=sum(r.terminated for r in results) / len(results),
        failures=len(failures),
        stalled_fraction=sum(r.stalled for r in results) / len(results),
        fault_events=sum(r.fault_counts.total() for r in results) / len(results),
        throughput=(
            SummaryStats.of([w.committed_tx_s for w in workload]) if workload else None
        ),
        request_latency_p50=(
            SummaryStats.of([w.latency_p50_ms for w in workload]) if workload else None
        ),
        request_latency_p99=(
            SummaryStats.of([w.latency_p99_ms for w in workload]) if workload else None
        ),
        saturated_fraction=(
            sum(w.saturated for w in workload) / len(workload) if workload else 0.0
        ),
        anomaly_total=sum(h.anomaly_count for h in health),
        min_fairness=min(fairness) if fairness else None,
        mean_fairness=sum(fairness) / len(fairness) if fairness else None,
        starved_clients=sum(len(h.starved_clients) for h in health),
    )
