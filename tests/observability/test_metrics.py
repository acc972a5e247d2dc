"""Simulated-time metrics registry, exporters, and fleet merge."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.results import deterministic_dict, result_fingerprint
from repro.core.runner import run_simulation, seed_window
from repro.observability.metrics import (
    DEFAULT_INTERVAL_MS,
    Histogram,
    HistogramData,
    MetricsRegistry,
    RunMetrics,
    series_name,
)
from tests.pinned import golden_config


def _metered(protocol: str = "pbft", **kwargs) -> RunMetrics:
    result = run_simulation(golden_config(protocol), metrics=True, **kwargs)
    assert result.run_metrics is not None
    return result.run_metrics


class TestInstruments:
    def test_series_name_sorts_labels(self):
        assert series_name("m", {}) == "m"
        assert series_name("m", {"b": 1, "a": "x"}) == 'm{a="x",b="1"}'

    def test_histogram_le_semantics(self):
        hist = Histogram(bounds=(10.0, 20.0))
        for value in (5.0, 10.0, 15.0, 25.0):
            hist.observe(value)
        # le-style: a value equal to a bound lands in that bound's bucket.
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.total == 55.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 5.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(5.0, 5.0))

    def test_registry_reregistration_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x", node=1) is not registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_registry_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsRegistry(interval=0.0)


class TestSampling:
    def test_advance_samples_at_boundaries(self):
        registry = MetricsRegistry(interval=10.0)
        counter = registry.counter("c")
        registry.advance(5.0)  # before the first boundary: nothing
        assert not registry._samples
        counter.value += 1
        registry.advance(25.0)  # crosses 10 and 20
        times = sorted({t for t, _, _ in registry._samples})
        assert times == [10.0, 20.0]

    def test_finish_appends_final_sample(self):
        registry = MetricsRegistry(interval=10.0)
        registry.counter("c")
        registry.finish(25.0)
        times = sorted({t for t, _, _ in registry._samples})
        assert times == [10.0, 20.0, 25.0]

    def test_run_samples_cover_the_run(self):
        metrics = _metered()
        assert metrics.samples
        last_time = metrics.samples[-1][0]
        assert last_time == pytest.approx(metrics.sim_time_ms)
        assert metrics.interval_ms == DEFAULT_INTERVAL_MS

    def test_engine_counters_match_result(self):
        result = run_simulation(golden_config("pbft"), metrics=True)
        metrics = result.run_metrics
        assert metrics.counters["messages_sent"] == result.counts.sent
        assert metrics.counters["messages_delivered"] == result.counts.delivered
        assert metrics.counters["wire_bytes"] == result.counts.bytes_sent
        assert metrics.counters["decisions"] == 4 * len(result.decided_values)
        latency = metrics.histograms["delivery_latency_ms"]
        assert latency.count == result.counts.delivered
        per_node = sum(
            value for series, value in metrics.counters.items()
            if series.startswith("node_wire_bytes{")
        )
        assert per_node == result.counts.bytes_sent

    def test_send_hook_runs_once_per_message_and_transmitter(self, monkeypatch):
        """A pbft n=32 ``full`` run charges each broadcast's wire copies to
        its one transmitter in one ``on_send`` call, not one per hop."""
        from repro import NetworkConfig, SimulationConfig
        from repro.core.message import BROADCAST
        from repro.network.module import NetworkModule

        calls, messages = [], []
        on_send, submit = MetricsRegistry.on_send, NetworkModule.submit

        def counting_send(registry, node, wire_bytes, copies):
            calls.append(copies)
            on_send(registry, node, wire_bytes, copies)

        def counting_submit(network, message):
            if message.dest != message.source:  # a loopback is not on the wire
                messages.append(message.dest == BROADCAST)
            submit(network, message)

        monkeypatch.setattr(MetricsRegistry, "on_send", counting_send)
        monkeypatch.setattr(NetworkModule, "submit", counting_submit)
        config = SimulationConfig(
            protocol="pbft", n=32, num_decisions=2, seed=1,
            network=NetworkConfig(dissemination="full"))
        result = run_simulation(config, metrics=True)
        assert any(messages), "the run broadcast nothing"
        assert len(calls) == len(messages)
        assert sum(calls) == result.counts.sent
        assert result.run_metrics.counters["messages_sent"] == result.counts.sent

    def test_gauges_snapshot_final_queue_state(self):
        """The run stops as soon as the decision target is met, so the
        final gauges reflect whatever was still queued — in particular,
        in-flight messages can never exceed total queue depth."""
        metrics = _metered()
        depth = metrics.gauges["queue_depth"]
        in_flight = metrics.gauges["in_flight_messages"]
        assert depth >= in_flight >= 0.0


class TestDeterminismContract:
    def test_run_metrics_outside_the_fingerprint(self):
        config = golden_config("pbft")
        result = run_simulation(config, metrics=True)
        assert "run_metrics" not in deterministic_dict(result)
        assert result_fingerprint(result) == result_fingerprint(
            run_simulation(config)
        )

    def test_metrics_interval_does_not_change_results(self):
        config = golden_config("pbft")
        coarse = run_simulation(config, metrics=1000.0)
        fine = run_simulation(config, metrics=1.0)
        assert result_fingerprint(coarse) == result_fingerprint(fine)
        assert len(fine.run_metrics.samples) > len(coarse.run_metrics.samples)


class TestMergeAndTransport:
    def test_merge_sums_counters_and_histograms(self):
        one = _metered()
        merged = RunMetrics.merge([one, one])
        assert merged.runs == 2
        assert merged.counters["messages_sent"] == 2 * one.counters["messages_sent"]
        hist = merged.histograms["delivery_latency_ms"]
        assert hist.count == 2 * one.histograms["delivery_latency_ms"].count

    def test_merge_sums_timeseries_pointwise(self):
        one = _metered()
        merged = RunMetrics.merge([one, one])
        one_points = {(t, s): v for t, s, v in one.samples}
        for time, series, value in merged.samples:
            assert value == pytest.approx(2 * one_points[(time, series)])

    def test_merge_rejects_mixed_intervals(self):
        a = run_simulation(golden_config("pbft"), metrics=10.0).run_metrics
        b = run_simulation(golden_config("pbft"), metrics=20.0).run_metrics
        with pytest.raises(ValueError):
            RunMetrics.merge([a, b])

    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            RunMetrics.merge([])

    def test_pickle_roundtrip(self):
        metrics = _metered()
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone == metrics

    def test_dict_roundtrip(self):
        metrics = _metered()
        clone = RunMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))
        )
        assert clone == metrics

    def test_parallel_fleet_metrics(self):
        from repro.parallel import ParallelRunner

        config = golden_config("pbft")
        runner = ParallelRunner(jobs=2, metrics=True)
        results = runner.map(seed_window(config, 3))
        assert all(r.run_metrics is not None for r in results)
        fleet = runner.fleet_metrics
        assert fleet is not None
        assert fleet.runs == 3
        assert fleet.counters["messages_sent"] == sum(
            r.run_metrics.counters["messages_sent"] for r in results
        )


class TestExporters:
    def test_jsonl(self):
        metrics = _metered()
        lines = metrics.to_jsonl().splitlines()
        assert len(lines) == len(metrics.samples)
        record = json.loads(lines[0])
        assert set(record) == {"time", "metric", "value"}

    def test_csv(self):
        metrics = _metered()
        lines = metrics.to_csv().splitlines()
        assert lines[0] == "time,metric,value"
        assert len(lines) == len(metrics.samples) + 1

    def test_prometheus_snapshot(self):
        text = _metered().prometheus_text()
        assert "# TYPE repro_messages_sent counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_delivery_latency_ms histogram" in text
        assert 'repro_delivery_latency_ms_bucket{le="' in text
        assert 'le="+Inf"' in text
        assert "repro_delivery_latency_ms_sum" in text
        assert "repro_delivery_latency_ms_count" in text

    def test_prometheus_buckets_are_cumulative(self):
        metrics = _metered()
        data = metrics.histograms["delivery_latency_ms"]
        counts = []
        for line in metrics.prometheus_text().splitlines():
            if line.startswith('repro_delivery_latency_ms_bucket{le="'):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == data.count

    def test_summary_and_table(self):
        metrics = _metered()
        assert "series" in metrics.summary()
        table = metrics.format_table()
        assert "final metric values" in table
        assert "histograms (end of run)" in table


class TestHistogramData:
    def test_dict_roundtrip(self):
        data = HistogramData(bounds=(1.0, 2.0), bucket_counts=(1, 2, 3),
                             total=9.0, count=6)
        assert HistogramData.from_dict(data.to_dict()) == data


class TestLabelEscaping:
    """Prometheus exposition-format escaping of label values."""

    def test_series_name_escapes_specials(self):
        name = series_name("m", {"path": 'a"b\\c\nd'})
        assert name == 'm{path="a\\"b\\\\c\\nd"}'

    def test_escaped_series_survive_prometheus_export(self):
        registry = MetricsRegistry(interval=100.0)
        registry.counter("odd", label='quote " back \\ slash').value += 1
        registry.finish(100.0)
        text = registry.build(sim_time_ms=100.0).prometheus_text()
        line = next(l for l in text.splitlines() if l.startswith("repro_odd{"))
        assert '\\"' in line and "\\\\" in line
        assert "\n" not in line[:-1].replace("\\n", "")  # no raw newlines

    def test_health_gauges_reach_the_export(self):
        result = run_simulation(golden_config("pbft"), metrics=True, health=True)
        text = result.run_metrics.prometheus_text()
        assert "repro_health_anomalies" in text
