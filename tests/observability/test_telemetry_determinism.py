"""Telemetry must never change what a run computes.

The acceptance bar for the whole observability subsystem: under every
subset of the three telemetry options (``sink``, ``metrics``, ``health``),
``result_fingerprint`` is byte-identical.
The golden cases of the pinned-run table (``tests/pinned.json``)
separately pin the digests themselves; these tests pin the *invariance*.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.config import SimulationConfig
from repro.core.results import result_fingerprint
from repro.core.runner import run_simulation
from repro.core.tracing import EventFilter
from repro.observability import JsonlSink, NullSink
from repro.scenarios import load_scenario
from tests.pinned import golden_config, golden_fingerprint

PROTOCOLS = ["pbft", "hotstuff-ns", "tendermint", "add-v3"]

#: Every subset of the run's telemetry options, as sorted name tuples.
OPTION_SUBSETS = [
    subset
    for size in range(4)
    for subset in combinations(("health", "metrics", "sink"), size)
]


def _config(protocol: str) -> SimulationConfig:
    return golden_config(protocol)


def _chased(protocol: str) -> SimulationConfig:
    """A run whose attacker asks for ``LiveSignals``: a third observer
    beside the two the options switch on."""
    return load_scenario("adaptive-chaser").apply(_config(protocol).replace(n=8))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_digest_invariant_under_full_telemetry(protocol, tmp_path):
    """The checked-in golden digests hold with every telemetry feature on."""
    telemetry = run_simulation(
        _config(protocol),
        sink=JsonlSink(tmp_path / f"{protocol}.jsonl"),
        metrics=True,
        health=True,
    )
    assert result_fingerprint(telemetry) == golden_fingerprint(protocol)
    assert telemetry.run_metrics is not None  # telemetry actually ran
    assert telemetry.health is not None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fingerprint_invariant_under_null_sink(protocol):
    config = _config(protocol)
    assert result_fingerprint(run_simulation(config)) == result_fingerprint(
        run_simulation(config, sink=NullSink())
    )


def test_filtered_sink_does_not_change_results(tmp_path):
    config = _config("pbft")
    sink = JsonlSink(
        tmp_path / "filtered.jsonl",
        filter=EventFilter.parse("kind=decide"),
    )
    assert result_fingerprint(run_simulation(config)) == result_fingerprint(
        run_simulation(config, sink=sink)
    )


def test_traced_fingerprint_matches_record_trace_runs(tmp_path):
    """A sink-backed trace is the same trace record_trace produces."""
    config = _config("pbft").replace(record_trace=True)
    in_memory = run_simulation(config)
    streamed = run_simulation(config, sink=JsonlSink(tmp_path / "t.jsonl"))
    assert result_fingerprint(
        in_memory, include_trace=True
    ) == result_fingerprint(streamed, include_trace=True)


@pytest.mark.parametrize("options", OPTION_SUBSETS, ids="+".join)
@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns", "add-v3", "pbft+signals"])
def test_every_option_subset_gives_the_golden_digest(protocol, options, tmp_path):
    if protocol.endswith("+signals"):
        config = _chased(protocol.removesuffix("+signals"))
        expected = result_fingerprint(run_simulation(config))
    else:
        config, expected = _config(protocol), golden_fingerprint(protocol)
    kwargs = {name: True for name in options}
    if "sink" in options:
        kwargs["sink"] = JsonlSink(tmp_path / "trace.jsonl")
    result = run_simulation(config, **kwargs)
    assert result_fingerprint(result) == expected
    # Each option switched on exactly its own output.
    assert (result.run_metrics is not None) == ("metrics" in options)
    assert (result.health is not None) == ("health" in options)
    assert result.trace.enabled == ("sink" in options)


@pytest.mark.parametrize(
    "options", [s for s in OPTION_SUBSETS if "sink" not in s], ids="+".join
)
def test_every_picklable_option_subset_gives_the_golden_digest_in_workers(options):
    from repro.parallel import ParallelRunner

    protocols = ["pbft", "hotstuff-ns", "add-v3"]
    runner = ParallelRunner(jobs=2, **{name: True for name in options})
    results = runner.map([_config(protocol) for protocol in protocols])
    assert [result_fingerprint(r) for r in results] == [golden_fingerprint(p) for p in protocols]
    for result in results:
        assert (result.run_metrics is not None) == ("metrics" in options)
        assert (result.health is not None) == ("health" in options)


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns"])
def test_every_listener_hears_every_occurrence_once(protocol):
    """Registry, monitor and live signals on one run: three counts of the
    same occurrences agree with the engine's own (a hook dropped from a
    tuple, or bound twice, breaks an identity)."""
    result = run_simulation(_chased(protocol), metrics=True, health=True)
    counters = result.run_metrics.counters
    signals = result.signals_summary
    counts = result.counts
    assert counts.delivered > 0 and result.health.windows > 0
    assert (
        counters["messages_delivered"] == sum(signals["delivered"]) == counts.delivered
    )
    assert counters["decisions"] == signals["decisions_seen"] == len(result.decisions)
    assert counters["messages_sent"] == counts.sent + counts.byzantine


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns"])
def test_one_clock_skips_no_boundary(protocol):
    """The run loop compares against the earliest boundary of two clocks
    (250 ms windows, 100 ms samples, coinciding every 500 ms): each observer
    closes exactly the windows it closes when it runs alone."""
    config = _config(protocol).replace(num_decisions=10)
    health_alone = run_simulation(config, health=250.0)
    metrics_alone = run_simulation(config, metrics=100.0)
    both = run_simulation(config, health=250.0, metrics=100.0)
    assert health_alone.health.windows > 2
    assert both.health == health_alone.health

    def by_series(metrics):
        series: dict[str, list] = {}
        for time, name, value in metrics.samples:
            series.setdefault(name, []).append((time, value))
        return series

    alone, beside = by_series(metrics_alone.run_metrics), by_series(both.run_metrics)
    assert len(alone["messages_delivered"]) > 5
    assert set(alone) < set(beside)  # the monitor adds its gauges, drops nothing
    for name, samples in alone.items():
        assert beside[name] == samples, name
