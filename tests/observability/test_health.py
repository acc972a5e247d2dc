"""Streaming run-health monitor: detectors, determinism, online == offline.

Three layers of coverage:

* **detector units** — each detector driven directly through the monitor's
  counting table and ``close_window`` with synthetic inputs, pinning
  fire/no-fire semantics and severity escalation;
* **determinism** — every golden digest is byte-identical with health
  monitoring enabled, and benign golden runs report zero anomalies;
* **online == offline** — :func:`replay_health` over a recorded trace
  rebuilds table and detector state identical to what the live run
  produced, both for fixed cases and as a hypothesis property over seeds
  and windows.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import Controller
from repro.core.results import deterministic_dict, result_fingerprint
from repro.core.runner import run_simulation
from repro.faults import parse_faults_spec
from repro.observability import MemorySink
from repro.observability.health import (
    HealthEvent,
    HealthMonitor,
    HealthReport,
    analyze_trace_health,
    render_health,
    replay_health,
)
from repro.workload import parse_workload_spec
from tests.conftest import health_state, quick_config
from tests.pinned import golden_config, golden_fingerprint, golden_protocols

#: Minimal engine sample for windows of a run without a workload.
SAMPLE = {"queue": 0}


def _monitor(n: int = 4) -> HealthMonitor:
    """A monitor over a fresh table: the replay of an empty trace."""
    return replay_health([], n=n)


class TestViewStormDetector:
    def test_fires_on_view_churn_without_progress(self):
        m = _monitor()
        for view in range(5):
            m.signals.on_view(0, view, 10.0 * view)
        m.close_window(500.0, SAMPLE)
        assert [e.detector for e in m.events] == ["view-storm"]
        event = m.events[0]
        assert event.nodes == (0,)
        assert event.evidence["views"] == [0, 1, 2, 3, 4]
        assert event.window_start == 0.0 and event.window_end == 500.0

    def test_gated_by_decisions_in_window(self):
        """Chained protocols rotate views per slot; churn WITH progress
        is normal operation, not a storm."""
        m = _monitor()
        for view in range(5):
            m.signals.on_view(0, view, 10.0 * view)
        m.signals.on_decide(1, 400.0)
        m.close_window(500.0, SAMPLE)
        assert m.events == []

    def test_fleetwide_entry_of_one_view_is_not_a_storm(self):
        """n nodes entering the SAME view is one view change, not n."""
        m = _monitor()
        for node in range(4):
            m.signals.on_view(node, 1, 100.0)
        m.close_window(500.0, SAMPLE)
        assert m.events == []

    def test_critical_at_double_threshold(self):
        m = _monitor()
        for view in range(8):
            m.signals.on_view(0, view, 10.0 * view)
        m.close_window(500.0, SAMPLE)
        assert m.events[0].severity == "critical"


class TestStragglerDetector:
    def test_flags_the_lagging_node(self):
        m = _monitor(n=4)
        for _ in range(3):
            for node in (0, 1, 2):
                m.signals.on_decide(node, 100.0)
        m.close_window(500.0, SAMPLE)
        events = [e for e in m.events if e.detector == "straggler"]
        assert len(events) == 1
        assert events[0].nodes == (3,)
        assert events[0].severity == "warn"
        assert events[0].evidence["max_lag"] == 3

    def test_critical_at_double_lag(self):
        m = _monitor(n=4)
        for _ in range(4):
            for node in (0, 1, 2):
                m.signals.on_decide(node, 100.0)
        m.close_window(500.0, SAMPLE)
        assert m.events[0].severity == "critical"

    def test_silent_while_fleet_is_in_sync(self):
        m = _monitor(n=4)
        for node in range(4):
            m.signals.on_decide(node, 100.0)
        m.close_window(500.0, SAMPLE)
        assert m.events == []

    def test_silent_before_any_decision(self):
        m = _monitor(n=4)
        m.close_window(500.0, SAMPLE)
        assert m.events == []


class TestBacklogDetector:
    def test_fires_after_sustained_strict_growth(self):
        m = _monitor()
        for end, queue in ((500.0, 2), (1000.0, 4), (1500.0, 6), (2000.0, 9)):
            m.close_window(end, {"queue": queue})
        events = [e for e in m.events if e.detector == "backlog"]
        assert len(events) == 1
        assert events[0].evidence["depths"] == [2.0, 4.0, 6.0, 9.0]

    def test_mempool_counts_toward_depth(self):
        m = _monitor()
        for end, depth in ((500.0, 2), (1000.0, 4), (1500.0, 6), (2000.0, 5)):
            m.close_window(end, {"queue": depth, "mempool": depth})
        # Final combined depth 10 >= backlog_min with strict growth 4<8<12... no:
        # depths are 4, 8, 12, 10 -> growth broken in the last window.
        assert [e for e in m.events if e.detector == "backlog"] == []

    def test_silent_when_draining(self):
        m = _monitor()
        for end, queue in ((500.0, 9), (1000.0, 6), (1500.0, 12), (2000.0, 9)):
            m.close_window(end, {"queue": queue})
        assert [e for e in m.events if e.detector == "backlog"] == []

    def test_silent_below_minimum_depth(self):
        m = _monitor()
        for end, queue in ((500.0, 1), (1000.0, 2), (1500.0, 3), (2000.0, 4)):
            m.close_window(end, {"queue": queue})
        assert [e for e in m.events if e.detector == "backlog"] == []


class TestFaninDetector:
    def test_spike_against_ewma_baseline(self):
        m = _monitor()
        for _ in range(8):  # window 1 establishes the baseline
            m.signals.on_deliver(0, 1, "VOTE", 10.0, 0.0)
        m.close_window(500.0, SAMPLE)
        for _ in range(40):  # 5x the baseline of 8, above fanin_min
            m.signals.on_deliver(0, 1, "VOTE", 600.0, 0.0)
        m.close_window(1000.0, SAMPLE)
        events = [e for e in m.events if e.detector == "fanin-spike"]
        assert len(events) == 1
        assert events[0].evidence["msg_type"] == "VOTE"
        assert events[0].evidence["baseline"] == 8.0

    def test_warmup_guard_suppresses_small_counts(self):
        m = _monitor()
        for _ in range(2):
            m.signals.on_deliver(0, 1, "VOTE", 10.0, 0.0)
        m.close_window(500.0, SAMPLE)
        for _ in range(12):  # 6x baseline but under fanin_min
            m.signals.on_deliver(0, 1, "VOTE", 600.0, 0.0)
        m.close_window(1000.0, SAMPLE)
        assert [e for e in m.events if e.detector == "fanin-spike"] == []

    def test_first_window_never_spikes(self):
        m = _monitor()
        for _ in range(100):
            m.signals.on_deliver(0, 1, "VOTE", 10.0, 0.0)
        m.close_window(500.0, SAMPLE)
        assert m.events == []


class TestStarvationDetector:
    def test_low_jain_index_implicates_lagging_clients(self):
        m = _monitor()
        m.close_window(500.0, {
            "queue": 0, "mempool": 0, "fairness": 0.3, "max_wait": 0.0,
            "wait_client": None, "lagging": [2, 3], "decided": 10,
        })
        events = [e for e in m.events if e.detector == "starvation"]
        assert len(events) == 1
        assert events[0].clients == (2, 3)
        assert events[0].severity == "warn"
        assert m.report().min_fairness == 0.3

    def test_critical_below_half_threshold(self):
        m = _monitor()
        m.close_window(500.0, {"fairness": 0.2, "decided": 10, "queue": 0})
        assert m.events[0].severity == "critical"

    def test_silent_before_first_decision(self):
        """A perfectly idle window (nothing decided yet) is not unfair."""
        m = _monitor()
        m.close_window(500.0, {"fairness": 0.1, "decided": 0, "queue": 0})
        assert m.events == []

    def test_max_wait_implicates_the_oldest_client(self):
        m = _monitor()  # starvation_wait_ms defaults to 10 x 500ms
        m.close_window(500.0, {
            "queue": 0, "fairness": 1.0, "max_wait": 6000.0,
            "wait_client": 7, "lagging": [], "decided": 5,
        })
        events = [e for e in m.events if e.detector == "starvation"]
        assert len(events) == 1
        assert events[0].clients == (7,)
        assert events[0].evidence["max_wait_ms"] == 6000.0

    def test_absent_workload_never_starves(self):
        m = _monitor()
        m.close_window(500.0, SAMPLE)  # no fairness key: not a workload run
        assert m.events == []
        assert m.report().min_fairness is None


class TestReportShape:
    def test_report_round_trips_through_json(self):
        m = _monitor()
        for view in range(5):
            m.signals.on_view(0, view, 10.0 * view)
        m.close_window(500.0, SAMPLE)
        report = m.report()
        encoded = json.dumps(report.to_dict(), sort_keys=True)
        assert HealthReport.from_dict(json.loads(encoded)).to_dict() == report.to_dict()

    def test_event_round_trip(self):
        event = HealthEvent(
            time=500.0, detector="straggler", severity="warn",
            window_start=0.0, window_end=500.0, nodes=(3,), clients=(),
            evidence={"max_lag": 3},
        )
        assert HealthEvent.from_dict(event.to_dict()) == event

    def test_starved_clients_census(self):
        m = _monitor()
        m.close_window(500.0, {"fairness": 0.3, "decided": 5, "lagging": [4, 1]})
        m.close_window(1000.0, {"fairness": 0.3, "decided": 9, "lagging": [1, 2]})
        assert m.report().starved_clients == (1, 2, 4)

    def test_summary_reads_healthy_or_anomalous(self):
        m = _monitor()
        m.close_window(500.0, SAMPLE)
        assert "healthy" in m.report().summary()
        m.close_window(1000.0, {"fairness": 0.1, "decided": 5})
        assert "starvation" in m.report().summary()

    def test_window_ms_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthMonitor(window_ms=0.0)


class TestGoldenDeterminism:
    @pytest.mark.parametrize("protocol", golden_protocols())
    def test_golden_digest_unchanged_with_health_enabled(self, protocol):
        """Health monitoring is OBSERVE-only: all nine golden digests are
        byte-identical with it on, and the benign runs are all healthy."""
        result = run_simulation(golden_config(protocol), health=True)
        assert result_fingerprint(result) == golden_fingerprint(protocol)
        assert result.health is not None
        assert result.health.anomaly_count == 0
        # A 50 ms window closes ten times as often: the detector-evaluation
        # path rather than the per-event one, and just as invisible.
        narrow = run_simulation(golden_config(protocol), health=50.0)
        assert result_fingerprint(narrow) == golden_fingerprint(protocol)
        assert narrow.health.windows > result.health.windows

    def test_health_report_is_outside_the_fingerprint(self):
        result = run_simulation(golden_config("pbft"), health=True)
        assert "health" not in deterministic_dict(result)

    def test_workload_fingerprint_unchanged_by_health(self):
        config = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            allow_horizon=True,
        )
        plain = run_simulation(config)
        monitored = run_simulation(config, health=True)
        assert result_fingerprint(plain) == result_fingerprint(monitored)


def _traced_run(config, window_ms: float):
    """Run with a live monitor + memory sink; returns (monitor, events)."""
    sink = MemorySink()
    monitor = HealthMonitor(window_ms=window_ms)
    Controller(config, sink=sink, health=monitor).run()
    return monitor, [event.to_dict() for event in sink.events()]


class TestOnlineEqualsOffline:
    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns", "algorand"])
    def test_replay_rebuilds_identical_state(self, protocol):
        config = golden_config(protocol)
        monitor, events = _traced_run(config, window_ms=100.0)
        replayed = replay_health(events, n=config.n, window_ms=100.0)
        assert health_state(replayed) == health_state(monitor)

    def test_replay_matches_on_an_anomalous_workload_run(self):
        config = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            faults=parse_faults_spec("delay=0.7x6"),
            allow_horizon=True,
        )
        monitor, events = _traced_run(config, window_ms=250.0)
        assert monitor.events  # the adversarial run actually anomalous
        replayed = replay_health(events, n=config.n, window_ms=250.0)
        assert health_state(replayed) == health_state(monitor)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        window_ms=st.sampled_from([50.0, 120.0, 500.0, 1300.0]),
        protocol=st.sampled_from(["pbft", "hotstuff-ns"]),
    )
    def test_replay_identity_property(self, seed, window_ms, protocol):
        """Online == offline over arbitrary seeds and window widths."""
        config = golden_config(protocol).replace(seed=seed)
        monitor, events = _traced_run(config, window_ms=window_ms)
        replayed = replay_health(events, n=config.n, window_ms=window_ms)
        assert health_state(replayed) == health_state(monitor)

    def test_one_changed_view_entry_breaks_the_identity(self):
        """The comparison sees a single view entry: moving one ``view``
        record to another view makes the replayed state differ."""
        config = golden_config("hotstuff-ns")
        monitor, events = _traced_run(config, window_ms=100.0)
        views = [i for i, event in enumerate(events) if event["kind"] == "view"]
        assert views, "the run entered no view"
        unchanged = replay_health(events, n=config.n, window_ms=100.0)
        assert health_state(unchanged) == health_state(monitor)
        changed = [dict(event) for event in events]
        changed[views[-1]]["view"] += 1000
        replayed = replay_health(changed, n=config.n, window_ms=100.0)
        assert health_state(replayed) != health_state(monitor)


class TestStarvationIntegration:
    def test_delaying_adversary_trips_the_starvation_detector(self):
        """An environmental adversary that delays traffic under an open-loop
        workload must surface as starvation (and backlog) anomalies, while
        the same workload without the adversary stays clean."""
        base = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            allow_horizon=True,
        )
        calm = run_simulation(base, health=250.0)
        assert calm.health.anomaly_count == 0
        assert calm.health.min_fairness is not None

        attacked = base.replace(faults=parse_faults_spec("delay=0.7x6"))
        result = run_simulation(attacked, health=250.0)
        assert result.health.detectors.get("starvation", 0) > 0
        assert result.health.starved_clients  # specific clients implicated
        assert result.health.min_fairness < calm.health.min_fairness


class TestTraceAnalysis:
    def test_analysis_matches_the_live_report(self):
        config = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            faults=parse_faults_spec("delay=0.7x6"),
            allow_horizon=True,
        )
        sink = MemorySink()
        result = run_simulation(config, sink=sink, health=250.0)
        analysis = analyze_trace_health([e.to_dict() for e in sink.events()])
        assert analysis["anomaly_count"] == result.health.anomaly_count
        assert analysis["samples"] == result.health.windows
        assert analysis["min_fairness"] == pytest.approx(result.health.min_fairness)
        assert analysis["detectors"] == result.health.detectors

    def test_render_health_mentions_every_detector(self):
        analysis = {
            "samples": 4, "anomaly_count": 2,
            "detectors": {"backlog": 1, "starvation": 1},
            "severities": {"warn": 2}, "min_fairness": 0.4,
            "last_fairness": 0.4,
            "anomalies": [
                {"time": 500.0, "detector": "backlog", "severity": "warn",
                 "nodes": [], "clients": [], "evidence": {"queue": 9}},
                {"time": 750.0, "detector": "starvation", "severity": "warn",
                 "nodes": [], "clients": [2], "evidence": {"fairness": 0.4}},
            ],
        }
        text = render_health(analysis)
        assert "backlog" in text and "starvation" in text
        assert "min fairness 0.400" in text

    def test_render_health_on_an_unmonitored_trace(self):
        text = render_health(analyze_trace_health([]))
        assert "run with --health" in text
