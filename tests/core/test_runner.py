"""Tests for the high-level runners: determinism, repetition, sweeps."""

from __future__ import annotations

import gc

import pytest

from repro import run_simulation, repeat_simulation
from repro.core.runner import seed_window, sweep

from tests.conftest import quick_config


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        a = run_simulation(quick_config(seed=5, record_trace=True))
        b = run_simulation(quick_config(seed=5, record_trace=True))
        assert a.latency == b.latency
        assert a.messages == b.messages
        assert a.events_processed == b.events_processed
        assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_different_seeds_differ(self):
        a = run_simulation(quick_config(seed=1))
        b = run_simulation(quick_config(seed=2))
        assert a.latency != b.latency

    @pytest.mark.parametrize(
        "protocol", ["pbft", "hotstuff-ns", "librabft", "async-ba"]
    )
    def test_determinism_across_protocols(self, protocol):
        config = quick_config(protocol=protocol, seed=3)
        assert run_simulation(config).latency == run_simulation(config).latency


class TestRepeat:
    def test_consecutive_seeds(self):
        results = repeat_simulation(quick_config(seed=10), repetitions=3)
        assert [r.config.seed for r in results] == [10, 11, 12]

    def test_seed_offset(self):
        results = repeat_simulation(quick_config(seed=10), repetitions=2, seed_offset=5)
        assert [r.config.seed for r in results] == [15, 16]

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            repeat_simulation(quick_config(), repetitions=0)

    def test_negative_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            repeat_simulation(quick_config(), repetitions=-3)

    def test_negative_seed_offset_rejected(self):
        """A negative offset shifts the window below the base seed and
        silently collides with other windows — now a ValueError."""
        with pytest.raises(ValueError, match="seed_offset must be >= 0"):
            repeat_simulation(quick_config(seed=10), repetitions=2, seed_offset=-1)

    def test_seed_window_contract(self):
        """Disjoint windows for work-splitting: offsets 0, k, 2k...
        partition the seed space with no overlap and no gaps."""
        base = quick_config(seed=100)
        first = seed_window(base, repetitions=3, seed_offset=0)
        second = seed_window(base, repetitions=3, seed_offset=3)
        seeds = [c.seed for c in first + second]
        assert seeds == [100, 101, 102, 103, 104, 105]
        assert len(set(seeds)) == len(seeds)

    def test_seed_window_validation(self):
        with pytest.raises(ValueError):
            seed_window(quick_config(), repetitions=0)
        with pytest.raises(ValueError):
            seed_window(quick_config(), repetitions=1, seed_offset=-5)

    def test_split_windows_match_one_big_window(self):
        """Splitting N reps into disjoint offset windows reproduces the
        single-call results exactly."""
        base = quick_config(seed=30)
        whole = repeat_simulation(base, repetitions=4)
        halves = repeat_simulation(base, 2, seed_offset=0) + repeat_simulation(
            base, 2, seed_offset=2
        )
        assert [r.latency for r in whole] == [r.latency for r in halves]
        assert [r.config.seed for r in whole] == [r.config.seed for r in halves]

    def test_repeat_matches_individual_runs(self):
        base = quick_config(seed=20)
        batch = repeat_simulation(base, repetitions=2)
        solo = run_simulation(base.replace(seed=21))
        assert batch[1].latency == solo.latency


class TestSweep:
    def test_sweep_applies_variations(self):
        results = sweep(
            quick_config(),
            variations=[{"n": 4}, {"n": 7}],
            repetitions=2,
        )
        assert len(results) == 2
        assert all(len(group) == 2 for group in results)
        assert results[0][0].config.n == 4
        assert results[1][0].config.n == 7


class TestFinishedRunIsFreed:
    """``run_simulation`` and the baseline/replay wrappers keep only the
    result: the controller ↔ nodes ↔ network ↔ attacker-context cycles are
    broken before returning, so a finished run (its queue, every in-flight
    message) is freed by reference counting, not whenever the cycle
    collector next runs."""

    @staticmethod
    def cyclic_garbage(run) -> list[str]:
        """Type names the cycle collector finds after ``run()``; the
        result stays alive meanwhile."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run()
            gc.collect()
            found = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert result.terminated
        return found

    @pytest.mark.parametrize("mode", ["full", "tree"])
    def test_run_simulation_leaves_no_cyclic_garbage(self, mode):
        config = quick_config(n=8, num_decisions=2, dissemination=mode)
        assert self.cyclic_garbage(lambda: run_simulation(config)) == []
        assert self.cyclic_garbage(
            lambda: run_simulation(config, metrics=True, health=True)
        ) == []

    def test_attacked_and_faulted_runs_leave_no_cyclic_garbage(self):
        from repro import parse_faults_spec
        from repro.scenarios.spec import load_scenario

        chased = load_scenario("adaptive-chaser").apply(quick_config(n=16, num_decisions=2))
        assert self.cyclic_garbage(lambda: run_simulation(chased)) == []
        faulted = quick_config(n=8, faults=parse_faults_spec("duplicate=0.05; delay=0.1x3"))
        assert self.cyclic_garbage(lambda: run_simulation(faulted)) == []

    def test_baseline_and_replay_wrappers_leave_no_cyclic_garbage(self):
        from repro.baseline.packetsim import run_baseline_simulation
        from repro.validator.replay import replay_simulation

        config = quick_config(n=4, record_trace=True)
        assert self.cyclic_garbage(lambda: run_baseline_simulation(config)) == []
        recorded = run_simulation(config)
        assert self.cyclic_garbage(
            lambda: replay_simulation(config, recorded.trace)
        ) == []

    def test_direct_controller_stays_inspectable(self):
        from repro import Controller

        controller = Controller(quick_config())
        result = controller.run()
        assert result.terminated
        assert len(controller.nodes) == controller.n
        assert controller.network.delay_model is not None
