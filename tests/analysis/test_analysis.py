"""Tests for aggregation, the experiment harness, and reporting."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentCell,
    SummaryStats,
    attack_loc_table,
    bench_repetitions,
    count_code_lines,
    decisions_for,
    network_for,
    protocol_loc_table,
    render_series,
    render_table,
    run_cell,
    run_cell_raw,
    summarize,
)
from repro.core.runner import run_simulation

from tests.conftest import quick_config


class TestSummaryStats:
    def test_basic_statistics(self):
        stats = SummaryStats.of([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == 2.5
        assert stats.min == 1.0
        assert stats.max == 4.0
        assert stats.count == 4
        assert stats.std == pytest.approx(1.118, rel=0.01)

    def test_single_value(self):
        stats = SummaryStats.of([7.0])
        assert stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SummaryStats.of([])

    def test_format(self):
        stats = SummaryStats.of([1000.0, 3000.0])
        assert stats.format(1 / 1000, "s") == "2.00 +- 1.00s"


class TestSummarize:
    def test_aggregates_results(self):
        results = [run_simulation(quick_config(seed=s)) for s in (1, 2, 3)]
        summary = summarize(results)
        assert summary.latency.count == 3
        assert summary.terminated_fraction == 1.0
        assert summary.messages.mean > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestExperimentHarness:
    def test_decisions_for_pipelined(self):
        assert decisions_for("hotstuff-ns") == 10
        assert decisions_for("librabft") == 10
        assert decisions_for("pbft") == 1

    def test_network_for_clips_synchronous(self):
        network = network_for("add-v1", mean=1000.0, std=300.0, lam=800.0)
        assert network.max_delay == pytest.approx(0.99 * 800.0)

    def test_network_for_leaves_psync_unbounded(self):
        network = network_for("pbft", mean=1000.0, std=300.0, lam=800.0)
        assert network.max_delay is None

    def test_explicit_bound_respected(self):
        network = network_for("pbft", mean=100.0, std=10.0, lam=800.0, max_delay=50.0)
        assert network.max_delay == 50.0

    def test_cell_config_follows_conventions(self):
        cell = ExperimentCell(protocol="hotstuff-ns", lam=700.0)
        config = cell.config()
        assert config.num_decisions == 10
        assert config.allow_horizon
        assert config.lam == 700.0

    def test_run_cell(self):
        cell = ExperimentCell(protocol="pbft", lam=500.0, mean=50.0, std=10.0)
        summary = run_cell(cell, repetitions=2)
        assert summary.latency.count == 2

    def test_run_cell_raw(self):
        cell = ExperimentCell(protocol="pbft", lam=500.0, mean=50.0, std=10.0)
        results = run_cell_raw(cell, 2)
        assert [r.config.seed for r in results] == [0, 1]

    def test_bench_repetitions_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPS", "17")
        assert bench_repetitions() == 17
        monkeypatch.delenv("REPRO_BENCH_REPS")
        assert bench_repetitions(default=4) == 4


class TestLoc:
    def test_count_excludes_noise(self):
        source = '"""Docstring."""\n\n# comment\nx = 1\n\ndef f():\n    """Doc."""\n    return x\n'
        assert count_code_lines(source) == 3  # x=1, def, return

    def test_protocol_table_covers_all(self):
        names = {entry.name for entry in protocol_loc_table()}
        assert len(names) == 9  # the paper's eight + the tendermint extension

    def test_attack_table_has_papers_three(self):
        names = {entry.name for entry in attack_loc_table()}
        assert {"partition", "add-static", "add-adaptive"} <= names

    def test_totals_positive(self):
        for entry in protocol_loc_table():
            assert entry.total > 0


class TestReport:
    def test_render_table_aligns(self):
        text = render_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_render_table_note(self):
        text = render_table("T", ["a"], [["1"]], note="hello")
        assert "Note: hello" in text

    def test_render_series(self):
        text = render_series("S", "x", [1, 2], {"proto": ["a", "b"]})
        assert "proto" in text and "a" in text
