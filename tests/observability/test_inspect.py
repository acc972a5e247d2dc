"""Tests for trace forensics (the engine behind ``repro inspect``)."""

from __future__ import annotations

from repro.core.config import AttackConfig, SimulationConfig
from repro.core.runner import run_simulation
from repro.core.tracing import JsonlSink, trace_rows
from repro.observability.inspect import analyze_trace, render_report


def _traced(config: SimulationConfig):
    return run_simulation(config.replace(record_trace=True))


class TestTrafficAccounting:
    def test_totals_match_message_counts_benign(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        assert report.sent == result.counts.sent
        assert report.byzantine_sent == result.counts.byzantine
        assert report.delivered == result.counts.delivered
        assert report.bytes_sent == result.counts.bytes_sent

    def test_totals_match_under_byzantine_attack(self):
        # Corrupted-source traffic must land in the byzantine column, not
        # the honest one — the trace tags controlled sends.
        config = SimulationConfig(
            protocol="pbft", n=7, seed=11,
            attack=AttackConfig(name="pbft-equivocation", params={"target": 0}),
            stall_timeout=120_000.0,
        )
        result = _traced(config)
        report = analyze_trace(result.trace)
        assert report.byzantine_sent == result.counts.byzantine
        assert report.sent == result.counts.sent
        assert report.delivered == result.counts.delivered
        assert report.bytes_sent == result.counts.bytes_sent

    def test_attacker_drops_are_counted(self):
        config = SimulationConfig(
            protocol="pbft", n=4, seed=2,
            attack=AttackConfig(name="partition", params={
                "groups": [[0, 1], [2, 3]], "end": 2000.0,
            }),
            stall_timeout=120_000.0,
        )
        result = _traced(config)
        report = analyze_trace(result.trace)
        assert report.dropped.get("drop", 0) == result.counts.dropped

    def test_environmental_drops_keyed_by_cause(self):
        from repro.faults import parse_faults_spec

        config = SimulationConfig(
            protocol="pbft", n=4, seed=4,
            faults=parse_faults_spec("loss=0.2"),
            stall_timeout=120_000.0,
        )
        result = _traced(config)
        report = analyze_trace(result.trace)
        assert report.dropped.get("loss", 0) == result.fault_counts.lost


class TestDisseminationReconciliation:
    """Accounting must stay exact when broadcasts are relayed: a traced
    broadcast emits one ``send`` event per physical transmission (tagged
    ``relay=`` on non-origin hops), so the report totals reconcile against
    :class:`MessageCounts` with no slack."""

    def _run(self, mode: str, *, protocol: str = "pbft", n: int = 16,
             seed: int = 11, **kwargs):
        from repro.core.config import NetworkConfig

        return _traced(SimulationConfig(
            protocol=protocol, n=n, seed=seed,
            network=NetworkConfig(mean=50.0, std=10.0, dissemination=mode),
            **kwargs,
        ))

    def test_totals_exact_for_tree_and_gossip(self):
        for mode in ("tree", "gossip"):
            result = self._run(mode)
            report = analyze_trace(result.trace)
            assert report.sent == result.counts.sent
            assert report.byzantine_sent == result.counts.byzantine
            assert report.delivered == result.counts.delivered
            assert report.bytes_sent == result.counts.bytes_sent

    def test_relayed_sends_tag_the_physical_transmitter(self):
        result = self._run("tree")
        sends = [e.to_dict() for e in result.trace.events(kind="send")]
        relayed = [e for e in sends if "relay" in e]
        assert relayed, "a relayed n=16 run must contain overlay hops"
        n = 16
        for event in relayed:
            assert 0 <= event["relay"] < n
            # ``node`` stays the protocol-level origin; the relay field is
            # the physical transmitter of this hop.
            assert "node" in event
        # A depth >= 2 tree forwards some hops through an intermediate
        # relay distinct from the origin.
        assert any(e["relay"] != e["node"] for e in relayed)

    def test_drops_reconcile_under_loss_with_relaying(self):
        from repro.faults import parse_faults_spec

        for mode in ("tree", "gossip"):
            result = self._run(
                mode, seed=4,
                faults=parse_faults_spec("loss=0.15"),
                stall_timeout=240_000.0,
            )
            report = analyze_trace(result.trace)
            assert report.dropped.get("loss", 0) == result.fault_counts.lost
            assert report.sent == result.counts.sent
            assert report.delivered == result.counts.delivered

    def test_file_roundtrip_matches_in_memory_for_gossip(self, tmp_path):
        from repro.core.config import NetworkConfig

        path = tmp_path / "gossip.jsonl"
        config = SimulationConfig(
            protocol="pbft", n=16, seed=11,
            network=NetworkConfig(mean=50.0, std=10.0, dissemination="gossip"),
        )
        run_simulation(config, sink=JsonlSink(path))
        assert analyze_trace(path).to_dict() == analyze_trace(
            _traced(config).trace
        ).to_dict()


class TestProtocolProgress:
    def test_decisions_per_node(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        assert report.decides == len(result.decisions)
        assert sum(report.decisions_per_node.values()) == report.decides
        assert set(report.decisions_per_node) == set(range(4))

    def test_view_timeline(self):
        # A partition forces view changes before healing.
        config = SimulationConfig(
            protocol="pbft", n=4, seed=2, lam=500.0,
            attack=AttackConfig(name="partition", params={
                "groups": [[0, 1], [2, 3]], "end": 2000.0,
            }),
            stall_timeout=120_000.0,
        )
        result = _traced(config)
        report = analyze_trace(result.trace)
        assert report.max_view == result.max_view
        if report.views:
            views = [span.view for span in report.views]
            assert views == sorted(views)
            for span in report.views:
                assert span.first_entry <= span.last_entry
                assert 1 <= span.nodes <= 4

    def test_timer_histogram(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        expected = len(result.trace.events(kind="timer"))
        assert sum(report.timer_counts.values()) == expected


class TestStallForensics:
    def test_terminated_run_ends_on_progress(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        assert report.last_progress_kind == "decide"
        assert report.tail_events == 0

    def test_stalled_run_has_silent_tail(self):
        # An unhealed partition of a 4-node pbft cluster cannot decide.
        config = SimulationConfig(
            protocol="pbft", n=4, seed=2, lam=500.0,
            attack=AttackConfig(name="partition", params={
                "groups": [[0, 1], [2, 3]], "end": 10_000_000.0,
            }),
            stall_timeout=10_000.0,
        )
        result = _traced(config)
        assert result.stalled
        report = analyze_trace(result.trace)
        assert report.decides == 0
        # The watchdog fired stall_timeout ms after the last progress event,
        # which is exactly where the trace's progress tracking ends up.
        assert report.last_progress_time == result.stall.last_progress

    def test_tail_census_of_synthetic_trace(self):
        events = [
            {"time": 1.0, "kind": "deliver", "node": 0, "msg_type": "VOTE"},
            {"time": 2.0, "kind": "timer", "node": 1, "name": "view-change"},
            {"time": 3.0, "kind": "timer", "node": 2, "name": "view-change"},
            {"time": 4.0, "kind": "send", "node": 1, "msg_type": "VIEW-CHANGE"},
            {"time": 5.0, "kind": "drop", "node": 1, "msg_type": "VIEW-CHANGE"},
        ]
        report = analyze_trace(events)
        assert report.last_progress_kind == "deliver"
        assert report.tail_events == 4
        assert report.tail_census == {
            "timer:view-change": 2,
            "send:VIEW-CHANGE": 1,
            "drop:VIEW-CHANGE": 1,
        }
        assert report.tail_span_ms == 4.0

    def test_progress_resets_tail(self):
        events = [
            {"time": 1.0, "kind": "timer", "node": 0, "name": "t"},
            {"time": 2.0, "kind": "decide", "node": 0, "slot": 0, "value": "v"},
        ]
        report = analyze_trace(events)
        assert report.tail_events == 0
        assert report.tail_census == {}

    def test_empty_trace(self):
        report = analyze_trace([])
        assert report.events == 0
        assert report.last_progress_time is None
        assert report.tail_span_ms == 0.0


class TestFileInput:
    def test_analyze_from_jsonl_file_matches_in_memory(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = SimulationConfig(protocol="pbft", n=4, seed=11)
        result = run_simulation(config, sink=JsonlSink(path))
        from_file = analyze_trace(path)
        in_memory = analyze_trace(_traced(config).trace)
        assert from_file.to_dict() == in_memory.to_dict()
        assert from_file.events == len(result.trace)

    def test_trace_rows_streams_rows_of_a_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_simulation(
            SimulationConfig(protocol="pbft", n=4, seed=11), sink=JsonlSink(path)
        )
        rows = list(trace_rows(path))
        assert len(rows) == len(result.trace)
        assert all(len(row) == 4 and "time" not in row[3] for row in rows)


class TestRendering:
    def test_render_report_sections(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        text = render_report(report)
        assert "message usage by kind" in text
        assert "TOTAL" in text
        assert "stall forensics:" in text
        assert "decisions:" in text

    def test_top_caps_tables(self):
        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        text = render_report(report, top=1)
        assert "more message kinds" in text

    def test_to_dict_is_json_friendly(self):
        import json

        result = _traced(SimulationConfig(protocol="pbft", n=4, seed=11))
        report = analyze_trace(result.trace)
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
