"""Tests for the controller: dispatch, termination, failure modes."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import Controller, SimulationConfig, run_simulation
from repro.core.errors import ConfigurationError, LivenessTimeoutError, SchedulingError
from repro.core.events import TimeEvent
from repro.core.results import result_attachments, result_fingerprint

from tests.conftest import quick_config
from tests.faults.test_stall import stalling_config


def dispatched_times(config: SimulationConfig) -> list[float]:
    """The firing time of every event one run dispatches, in order."""
    controller = Controller(config)
    dispatch = controller._dispatch
    times = []

    def recording(entry):
        times.append(entry[0])
        dispatch(entry)

    controller._dispatch = recording
    controller.run()
    return times


class TestConstruction:
    def test_resolves_default_f(self):
        controller = Controller(quick_config(n=16))
        assert controller.f == 5  # pbft: floor((16-1)/3)

    def test_explicit_f_respected(self):
        controller = Controller(quick_config(n=16, f=2))
        assert controller.f == 2

    def test_excessive_f_rejected(self):
        with pytest.raises(ConfigurationError):
            Controller(quick_config(n=16, f=6))  # pbft tolerates at most 5

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Controller(quick_config(protocol="no-such-protocol"))

    def test_nodes_created(self):
        controller = Controller(quick_config(n=7))
        assert len(controller.nodes) == 7
        assert [node.id for node in controller.nodes] == list(range(7))


class TestRun:
    def test_happy_path_terminates(self):
        result = Controller(quick_config()).run()
        assert result.terminated
        assert result.latency > 0
        assert result.decided_values.keys() == {0}

    def test_all_honest_nodes_decide_before_termination(self):
        result = run_simulation(quick_config(n=7))
        deciders = {d.node for d in result.decisions}
        assert deciders == set(range(7))

    def test_horizon_raises_without_allow(self):
        # An impossible deadline: the first message cannot even arrive.
        config = quick_config(max_time=0.5)
        with pytest.raises(LivenessTimeoutError):
            Controller(config).run()

    def test_horizon_allowed_returns_unterminated(self):
        config = quick_config(max_time=0.5, allow_horizon=True)
        result = Controller(config).run()
        assert not result.terminated
        assert result.latency == 0.5

    def test_max_events_guard(self):
        config = quick_config(max_events=10, allow_horizon=True)
        result = Controller(config).run()
        assert not result.terminated
        assert result.events_processed == 10

    @pytest.mark.parametrize("cap", [1, 2, 37])
    def test_max_events_stops_at_exactly_that_many(self, cap):
        config = quick_config(n=7, max_events=cap, allow_horizon=True)
        result = Controller(config).run()
        assert result.events_processed == cap
        assert result.stop_reason == f"max_events={cap} reached"

    @pytest.mark.parametrize("index", [7, 40, -1])
    def test_an_event_at_exactly_max_time_is_dispatched(self, index):
        """The horizon is inclusive: every event at or before ``max_time``
        runs, the first one past it does not."""
        times = dispatched_times(quick_config(n=7))
        at = times[index]
        assert at > 0
        before = sum(time < at for time in times)
        through = sum(time <= at for time in times)
        assert before < through
        for horizon, count in ((at, through), (math.nextafter(at, -math.inf), before)):
            config = quick_config(n=7, max_time=horizon, allow_horizon=True)
            assert dispatched_times(config) == times[:count]

    def test_a_push_before_now_is_refused_at_the_push(self):
        controller = Controller(quick_config(max_events=30, allow_horizon=True))
        controller.run()
        assert controller.now > 0
        with pytest.raises(SchedulingError, match="before the current time"):
            controller.queue.push(TimeEvent(time=controller.now - 1.0))
        controller.queue.push(TimeEvent(time=controller.now))

    @pytest.mark.parametrize("limit,reason", [
        ({"max_time": 0.5}, "horizon max_time=0.5 reached"),
        ({"max_events": 10}, "max_events=10 reached"),
    ])
    def test_stop_reason_names_the_limit(self, limit, reason):
        result = Controller(quick_config(allow_horizon=True, **limit)).run()
        assert result.stop_reason == reason
        assert result.summary().startswith(f"pbft: HORIZON ({reason}) latency=")

    def test_stop_reason_of_a_drained_queue(self):
        config = stalling_config(protocol="_inert", spec="", stall_timeout=None)
        result = run_simulation(config)
        assert result.stop_reason == "event queue empty before termination"

    def test_terminated_run_has_no_stop_reason(self):
        result = Controller(quick_config()).run()
        assert result.stop_reason is None
        assert "HORIZON" not in result.summary()

    def test_stop_reason_is_outside_the_fingerprint(self):
        result = Controller(quick_config(max_time=0.5, allow_horizon=True)).run()
        bare = replace(result, stop_reason=None)
        assert result_fingerprint(result) == result_fingerprint(bare)
        assert result_attachments(result) == result_attachments(bare)

    def test_wall_clock_measured(self):
        result = Controller(quick_config()).run()
        assert result.wall_clock_seconds > 0

    def test_trace_disabled_by_default(self):
        result = Controller(quick_config()).run()
        assert len(result.trace) == 0

    def test_trace_enabled_records(self):
        result = Controller(quick_config(record_trace=True)).run()
        assert len(result.trace.events(kind="decide")) > 0
        assert len(result.trace.events(kind="send")) > 0
        assert len(result.trace.events(kind="deliver")) > 0


class TestEnvironmentFacade:
    def test_protocol_params_exposed(self):
        config = quick_config(protocol_params={"key": 42})
        controller = Controller(config)
        assert controller.protocol_param("key") == 42
        assert controller.protocol_param("missing", "default") == "default"

    def test_seed_exposed(self):
        assert Controller(quick_config(seed=123)).seed == 123

    def test_shared_rng_cached(self):
        controller = Controller(quick_config())
        assert controller.shared_rng("x") is controller.shared_rng("x")

    def test_negative_timer_rejected(self):
        controller = Controller(quick_config())
        with pytest.raises(ConfigurationError):
            controller.register_timer(0, -1.0, "bad", None)

    def test_timer_cancellation(self):
        controller = Controller(quick_config())
        before = len(controller.queue)
        handle = controller.register_timer(0, 10.0, "t", None)
        controller.cancel_timer(handle)
        assert len(controller.queue) == before


class TestHaltedNodes:
    def test_result_summary_mentions_protocol(self):
        result = Controller(quick_config()).run()
        assert "pbft" in result.summary()

    def test_message_usage_excludes_loopback(self):
        """A broadcast from one of n nodes transmits n-1 messages."""
        result = Controller(quick_config(n=4, record_trace=True)).run()
        sends = result.trace.events(kind="send")
        # No send event may target its own source (loopbacks bypass the wire).
        assert all(e.fields["dest"] != e.node for e in sends)
        assert result.messages == len(sends)


class TestStopReasons:
    """LivenessTimeoutError must say *why* the run stopped — the error is
    the only diagnostic a caller gets when the watchdog is disabled."""

    def test_horizon_reason_in_error(self):
        config = quick_config(max_time=0.5)
        with pytest.raises(LivenessTimeoutError, match=r"horizon max_time=0\.5"):
            Controller(config).run()

    def test_max_events_reason_in_error(self):
        config = quick_config(max_events=10)
        with pytest.raises(LivenessTimeoutError, match="max_events=10 reached"):
            Controller(config).run()

    def test_error_reports_per_node_decision_counts(self):
        config = quick_config(max_time=0.5)
        with pytest.raises(LivenessTimeoutError, match="decisions"):
            Controller(config).run()
