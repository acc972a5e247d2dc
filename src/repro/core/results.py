"""Result objects returned by a simulation run.

Everything here is part of the **picklable result contract**: results and
failure records cross process boundaries (the :mod:`repro.parallel` engine
runs simulations in worker processes and ships results back over pipes), so
every field must survive a pickle round-trip.  A dedicated test guards this.

:func:`result_fingerprint` digests the deterministic fields of a result.
Two runs of the same configuration — serial or parallel, today or on a
future version — must produce the same fingerprint; the golden determinism
tests and the serial/parallel equivalence tests are built on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from .config import SimulationConfig
from .metrics import Decision, FaultCounts, MessageCounts
from .tracing import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..observability.health import HealthReport
    from ..observability.metrics import RunMetrics


@dataclass(frozen=True)
class StallReport:
    """Structured diagnosis of a run the liveness watchdog stopped.

    Produced when ``SimulationConfig.stall_timeout`` is set and no honest
    node made progress (decision, view advance, or delivered message) for
    that long: the run degrades into a result carrying this report instead
    of spinning to the horizon and raising an opaque
    :class:`~repro.core.errors.LivenessTimeoutError`.

    Like ``wall_clock_seconds`` and :class:`~repro.core.metrics.FaultCounts`,
    stall reports are excluded from :func:`result_fingerprint`.

    Attributes:
        detected_at: simulation time (ms) at which the stall was declared.
        last_progress: time of the last honest progress event.
        stall_timeout: the configured watchdog window (ms).
        reason: human-readable cause (watchdog window exceeded, event queue
            drained, ...).
        node_last_activity: per-node time of last observed activity.
        pending_events: census of the live event queue at detection, keyed
            by event label (``"message:<type>"`` / ``"timer:<name>"``).
        fault_counts: environmental fault counters at detection.
        down_nodes: nodes crashed (environment) at detection.
        halted_nodes: nodes corrupted (attacker) at detection.
    """

    detected_at: float
    last_progress: float
    stall_timeout: float
    reason: str
    node_last_activity: dict[int, float]
    pending_events: dict[str, int]
    fault_counts: FaultCounts
    down_nodes: tuple[int, ...] = ()
    halted_nodes: tuple[int, ...] = ()

    def summary(self) -> str:
        """One-line human-readable summary."""
        pending = sum(self.pending_events.values())
        return (
            f"STALLED at {self.detected_at:.1f}ms ({self.reason}); "
            f"last progress at {self.last_progress:.1f}ms, "
            f"{pending} pending events, "
            f"{len(self.down_nodes)} down / {len(self.halted_nodes)} halted nodes"
        )


@dataclass(frozen=True)
class RequestRecord:
    """Final outcome of one client request in a workload run.

    Part of the picklable result contract; carried on
    ``SimulationResult.workload.requests`` as per-request detail for the
    conservation tests and the analysis layer, but excluded from
    :meth:`ThroughputMetrics.to_dict` (and therefore the fingerprint) the
    same way the trace is — bulky determinism, guarded by the aggregate
    counts instead.

    Attributes:
        id: stable request identifier (``"req{client}.{index}"``).
        client: submitting client.
        submitted_at: submission time (simulated ms).
        decided_at: time the first honest node decided the slot carrying
            this request, or ``None`` when the run ended with the request
            still outstanding.
        slot: the decided slot carrying the request (``None`` while
            outstanding).
        batch: tag of the decided batch carrying the request (``None``
            while outstanding).
        requeues: how many times the request was cut into a batch whose
            slot decided a different value (view-change casualties that
            went back to the mempool).
    """

    id: str
    client: int
    submitted_at: float
    decided_at: float | None = None
    slot: int | None = None
    batch: str | None = None
    requeues: int = 0

    @property
    def decided(self) -> bool:
        return self.decided_at is not None

    @property
    def latency(self) -> float | None:
        """Client-perceived latency (decide - submit), or ``None``."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.submitted_at


@dataclass
class ThroughputMetrics:
    """Throughput/latency outcome of a workload run.

    The aggregate fields (everything :meth:`to_dict` returns) are
    deterministic functions of the configuration and participate in
    :func:`result_fingerprint` for workload runs — the request counts are
    the determinism guard the throughput benchmarks assert on.  Runs
    without a workload carry ``SimulationResult.workload = None`` and
    their fingerprints are byte-identical to older versions.

    Attributes:
        submitted: requests submitted by the arrival processes.
        decided: requests carried by a decided batch at run end.
        committed_tx_s: decided requests per second of simulated time.
        latency_mean_ms / latency_p50_ms / latency_p90_ms /
            latency_p99_ms / latency_max_ms: per-request latency
            distribution (decide time minus submit time) over the decided
            requests; all 0.0 when nothing was decided.
        per_client: client id -> ``[submitted, decided, mean latency ms]``.
        batches: decided batches.
        max_batch: largest decided batch.
        max_queue_depth: high-water mark of the mempool.
        requeues: batch-cut casualties (requests returned to the mempool
            because their slot decided a different value).
        backlog_at_arrival_end: requests not yet decided when the arrival
            window closed (the queue the protocol was left to drain).
        saturated: the saturation flag of a throughput-latency curve —
            True when the run ended with undecided requests, or when more
            than half the load was still backlogged at the end of the
            arrival window (drain rate below offered rate throughout).
        requests: per-request detail (excluded from :meth:`to_dict`).
    """

    submitted: int
    decided: int
    committed_tx_s: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    per_client: dict[int, list[float]]
    batches: int
    max_batch: int
    max_queue_depth: int
    requeues: int
    backlog_at_arrival_end: int
    saturated: bool
    requests: list[RequestRecord] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Deterministic aggregate form (per-request detail excluded)."""
        data = asdict(self)
        data.pop("requests")
        data["per_client"] = {
            str(client): stats for client, stats in self.per_client.items()
        }
        return data

    def summary(self) -> str:
        """One-line human-readable summary."""
        flag = " SATURATED" if self.saturated else ""
        return (
            f"workload: {self.decided}/{self.submitted} requests decided "
            f"({self.committed_tx_s:.1f} tx/s), latency p50="
            f"{self.latency_p50_ms:.1f}ms p99={self.latency_p99_ms:.1f}ms "
            f"over {self.batches} batches (max {self.max_batch}, "
            f"queue<= {self.max_queue_depth}){flag}"
        )


@dataclass
class SimulationResult:
    """Everything a run produced.

    Attributes:
        config: the configuration that produced this result.
        terminated: True if every honest node decided the configured number
            of values before the horizon; False means the run was cut off at
            ``max_time`` (only possible with ``allow_horizon=True``).
        latency: total simulated time usage in ms (start to termination, or
            to the horizon when not terminated).
        latency_per_decision: ``latency / num_decisions`` — the per-decision
            metric the paper reports for pipelined protocols.
        messages: honest message usage (network transmissions).
        messages_per_decision: ``messages / num_decisions``.
        counts: full traffic breakdown (honest/byzantine/dropped/delivered).
        decisions: every recorded honest decision, in report order.
        decided_values: slot -> agreed value.
        faulty: nodes that ended the run crashed or corrupted.
        events_processed: number of events the controller dispatched.
        max_view: the highest view/round/iteration any honest node reported
            entering — the run's round complexity (§II-C).
        wall_clock_seconds: real time the run took — the quantity compared
            against the baseline simulator in the paper's Fig. 2.
        trace: full event trace when ``record_trace`` was enabled, else an
            empty disabled trace.
        fault_counts: environmental fault counters (:mod:`repro.faults`);
            all zeros for fault-free runs.  Excluded from the fingerprint.
        stall: the liveness watchdog's :class:`StallReport` when the run was
            stopped as stalled, else ``None``.  Excluded from the
            fingerprint.
        stop_reason: why a run that did not terminate stopped
            (``"horizon max_time=200.0 reached"``, ``"max_events=… reached"``,
            ``"event queue empty before termination"`` or a ``"stalled: …"``
            cause), else ``None``.  :meth:`summary` prints it for a horizon
            run.  Excluded from the fingerprint and from
            :func:`result_attachments`, like ``wall_clock_seconds``.
        run_metrics: simulated-time metrics
            (:class:`~repro.observability.metrics.RunMetrics`) when the run
            carried a metrics registry, else ``None``.  Observability
            output — excluded from the fingerprint like
            ``wall_clock_seconds``.
        signals_summary: final :meth:`~repro.observability.signals.
            LiveSignals.summary_dict` snapshot (fan-in by message kind,
            per-view phase timings, closing senders) when the run's attacker
            requested live signals, else ``None``.  What the adversary saw —
            persisted by the experiment store, excluded from the fingerprint
            like the other observability fields.
        workload: :class:`ThroughputMetrics` when the run drove an open-loop
            client workload, else ``None``.  The aggregate part participates
            in the fingerprint (see :func:`deterministic_dict`); runs
            without a workload are byte-identical to older versions.
        health: :class:`~repro.observability.health.HealthReport` when the
            run carried a health monitor, else ``None``.  Observability
            output — excluded from the fingerprint like ``run_metrics``.
    """

    config: SimulationConfig
    terminated: bool
    latency: float
    latency_per_decision: float
    messages: int
    messages_per_decision: float
    counts: MessageCounts
    decisions: list[Decision]
    decided_values: dict[int, Any]
    faulty: frozenset[int]
    events_processed: int
    max_view: int
    wall_clock_seconds: float
    trace: Trace = field(default_factory=lambda: Trace(enabled=False))
    fault_counts: FaultCounts = field(default_factory=FaultCounts)
    stall: StallReport | None = None
    stop_reason: str | None = None
    run_metrics: "RunMetrics | None" = None
    signals_summary: dict | None = None
    workload: ThroughputMetrics | None = None
    health: "HealthReport | None" = None

    @property
    def stalled(self) -> bool:
        """True when the liveness watchdog stopped this run."""
        return self.stall is not None

    @property
    def bytes_sent(self) -> int:
        """Estimated honest wire bytes (reconstructed per §II-C)."""
        return self.counts.bytes_sent

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.terminated:
            status = "terminated"
        elif self.stalled:
            status = "STALLED"
        else:
            status = f"HORIZON ({self.stop_reason})" if self.stop_reason else "HORIZON"
        return (
            f"{self.config.protocol}: {status} latency={self.latency:.1f}ms "
            f"({self.latency_per_decision:.1f}ms/decision) "
            f"msgs={self.messages} ({self.messages_per_decision:.1f}/decision) "
            f"events={self.events_processed}"
        )


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that did not produce a result.

    The parallel engine (and ``repeat_simulation(..., on_error="record")``)
    puts a ``RunFailure`` in the failed run's output slot instead of raising
    a batch-wide exception, so a single bad run never discards the rest of
    an experiment.  :func:`repro.analysis.aggregate.summarize` excludes
    failures from the statistics and reports their count.

    Attributes:
        config: the configuration whose run failed (seed already resolved).
        kind: ``"error"`` for an exception raised by the simulation itself
            (deterministic — never retried), ``"crash"`` for a worker
            process that died without replying, ``"timeout"`` for a run
            that exceeded the per-run wall-clock deadline.
        error_type: exception class name for ``"error"`` failures, else the
            kind itself.
        message: human-readable failure description.
        run_index: the run's slot in its batch (seed order).
        attempts: how many times the run was attempted in total.
        traceback: formatted traceback text for ``"error"`` failures
            (empty for crashes and timeouts — the worker could not report).
    """

    config: SimulationConfig
    kind: str
    error_type: str
    message: str
    run_index: int
    attempts: int = 1
    traceback: str = ""

    def summary(self) -> str:
        """One-line human-readable summary, mirroring the result form."""
        return (
            f"{self.config.protocol}: FAILED ({self.kind}) run={self.run_index} "
            f"seed={self.config.seed} attempts={self.attempts}: "
            f"{self.error_type}: {self.message}"
        )


def deterministic_dict(result: SimulationResult, include_trace: bool = False) -> dict:
    """The deterministic fields of ``result`` as a JSON-friendly dict.

    Excludes ``wall_clock_seconds`` (host time, varies between otherwise
    identical runs), the fault/stall diagnostics (``fault_counts`` and
    ``stall`` — diagnostic observability, kept out of the fingerprint by
    the same policy as wall-clock time) and, unless
    requested, the trace
    (deterministic but bulky, and only recorded when ``record_trace`` is
    set).

    Workload runs contribute their :meth:`ThroughputMetrics.to_dict`
    aggregates under a ``"workload"`` key; runs without a workload omit the
    key entirely so their fingerprints are unchanged from older versions.
    """
    data = {
        "config": result.config.to_dict(),
        "terminated": result.terminated,
        "latency": result.latency,
        "latency_per_decision": result.latency_per_decision,
        "messages": result.messages,
        "messages_per_decision": result.messages_per_decision,
        "counts": asdict(result.counts),
        "decisions": [
            [d.node, d.slot, d.value, d.time] for d in result.decisions
        ],
        "decided_values": {str(k): v for k, v in result.decided_values.items()},
        "faulty": sorted(result.faulty),
        "events_processed": result.events_processed,
        "max_view": result.max_view,
    }
    if result.workload is not None:
        data["workload"] = result.workload.to_dict()
    if include_trace:
        data["trace"] = result.trace.to_jsonl()
    return data


def result_attachments(result: SimulationResult) -> dict[str, dict]:
    """The per-layer outputs of ``result`` as JSON-friendly dicts.

    The one place a result's optional layers become JSON: ``repro run
    --json`` prints this map beside the core fields, and the experiment
    store keeps it in one column.  Keys are layer names — ``fault_counts``
    (only when a fault fired), ``stall``, ``metrics``, ``signals``,
    ``workload`` and ``health`` — and a layer the run did not carry is
    absent, so a bare run maps to ``{}``.  A new layer is one more key here.
    """
    stall = None
    if result.stall is not None:
        stall = asdict(result.stall)
        stall["node_last_activity"] = {
            str(node): when for node, when in stall["node_last_activity"].items()
        }
    layers = {
        "fault_counts": (
            asdict(result.fault_counts) if result.fault_counts.any() else None
        ),
        "stall": stall,
        "metrics": (
            result.run_metrics.to_dict() if result.run_metrics is not None else None
        ),
        "signals": result.signals_summary or None,
        "workload": result.workload.to_dict() if result.workload is not None else None,
        "health": result.health.to_dict() if result.health is not None else None,
    }
    return {name: data for name, data in layers.items() if data is not None}


def result_fingerprint(result: SimulationResult, include_trace: bool = False) -> str:
    """Stable hex digest of every deterministic field of ``result``.

    Two runs of an equal configuration must yield equal fingerprints,
    whether executed serially or by the parallel engine — this is the
    determinism contract the golden-digest and serial/parallel-equivalence
    tests enforce.
    """
    payload = json.dumps(
        deterministic_dict(result, include_trace=include_trace),
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()
