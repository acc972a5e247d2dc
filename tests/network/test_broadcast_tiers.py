"""The one broadcast routine: shared tier ≡ instrumented tier, in every mode.

A benign broadcast rides the shared tier (one message, one delivery event,
one cursor entry in the queue, one batched delay draw), traced or not;
an attacker or fault schedule that may only re-time or drop copies keeps
it too, as rows; anything that can rewrite a copy or insert beside one
forces the instrumented tier (one copy per recipient through the
attacker/fault path).  Byte-identity between the two is the contract: same delays, same
queue handles, same message ids, same trace file, so a run may change tier
at any broadcast.  A delay override (the validator's replay) prices single
copies on either tier, so it does not change the tier either.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import (
    Controller,
    JsonlSink,
    Message,
    get_protocol,
    result_fingerprint,
    run_simulation,
)
from repro.core.events import EventQueue, TimeEvent
from repro.core.message import BROADCAST
from repro.faults.spec import parse_faults_spec
from repro.observability.health import HealthMonitor, replay_health
from repro.observability.metrics import MetricsRegistry
from repro.validator.replay import RecordedDelays, replay_simulation

from tests.conftest import health_state, quick_config
from tests.pinned import (
    MODES,
    TIER_SWITCH_PROTOCOLS,
    TIER_SWITCHES,
    _override_odd_destinations,
    expected,
    golden_config,
    golden_protocols,
    observe,
    run_switching,
    switching_config,
    trace_digest,
)


def force_instrumented(controller: Controller) -> Controller:
    """Every message of ``controller`` takes the per-copy tier: the shared
    tier's predicates answer "observed" and "not as rows" whatever the run
    holds."""
    controller.network._unobserved = lambda: False
    controller.network._rides_cursor = lambda message: False
    return controller


def queue_entries(controller: Controller) -> list[tuple]:
    """Pending entries as ``(time, handle, dest, message)`` in firing order."""
    out = []
    while controller.queue:
        time, handle, event, dest = controller.queue.pop_entry()[:4]
        out.append((time, handle, event.message.dest if dest is None else dest,
                    event.message))
    return out


# -- whole runs ---------------------------------------------------------------


#: ``block_txns`` turns proposal values from tag strings into structured
#: blocks (a dict holding a transaction list): the payload the shared tier
#: hands to every recipient as one object and the per-copy tier deep-copies.
BLOCK_PROTOCOLS = ["pbft", "hotstuff-ns"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "protocol, block_txns",
    [pytest.param(protocol, 0, id=protocol) for protocol in golden_protocols()]
    + [pytest.param(protocol, 8, id=f"{protocol}+blocks") for protocol in BLOCK_PROTOCOLS],
)
def test_shared_tier_equals_forced_instrumented_tier(protocol, block_txns, mode):
    config = golden_config(protocol, mode).replace(n=7)
    if block_txns:
        config = config.replace(protocol_params={"block_txns": block_txns})
    result = run_simulation(config)
    overridden = result_fingerprint(force_instrumented(Controller(config)).run())
    assert result_fingerprint(result) == overridden
    if block_txns:
        assert all(len(v["txns"]) == block_txns for v in result.decided_values.values())


# -- what a traced run writes ---------------------------------------------------

#: A crash-only schedule has no link faults, so the environment stays benign
#: and broadcasts stay shared — while ``_dispatch`` drops deliveries to the
#: crashed node and must name each dropped *copy* in its record.
SCHEDULES = {"benign": None, "crash-window": "crash=3@60:250", "crash-forever": "crash=2@60"}


@pytest.mark.parametrize(
    "protocol, mode, schedule",
    [
        (protocol, mode, schedule)
        for protocol in golden_protocols()
        for mode in MODES
        for schedule in sorted(SCHEDULES)
        # A crash window ends in a recovery, which not every protocol has.
        if schedule != "crash-window" or get_protocol(protocol).supports_recovery
    ],
)
def test_a_traced_run_stays_shared_and_writes_the_per_copy_tiers_bytes(
    protocol, mode, schedule, tmp_path, monkeypatch
):
    """Tracing (with metrics and health on) does not change the tier, and
    the JSONL file is byte-for-byte that of a forced per-copy run: same
    ``send`` lines in the same order, per-copy ids on every ``deliver``,
    drop record and lineage cause."""
    config = golden_config(protocol, mode).replace(n=7, allow_horizon=True)
    if SCHEDULES[schedule] is not None:
        config = config.replace(faults=parse_faults_spec(SCHEDULES[schedule]))

    shared_broadcasts = []
    push_deliveries = EventQueue.push_deliveries

    def counting(queue, event, times, dests):
        shared_broadcasts.append(len(dests))
        push_deliveries(queue, event, times, dests)

    monkeypatch.setattr(EventQueue, "push_deliveries", counting)

    def traced(name, prepare):
        monitor = HealthMonitor(window_ms=50.0)
        path = tmp_path / name
        prepare(Controller(
            config, sink=JsonlSink(path), metrics=MetricsRegistry(interval=10.0), health=monitor,
        )).run()
        return path, monitor, len(shared_broadcasts)

    shared_path, monitor, shared_count = traced("shared.jsonl", lambda c: c)
    copies_path, _, total_count = traced("copies.jsonl", force_instrumented)

    assert shared_count > 0, "the traced run left the shared tier"
    assert total_count == shared_count, "the reference run was not per-copy"
    assert shared_path.read_bytes() == copies_path.read_bytes()
    if SCHEDULES[schedule] is not None:
        assert b'"kind": "env-crash-drop"' in shared_path.read_bytes()
    replayed = replay_health(shared_path, n=config.n, window_ms=50.0)
    assert health_state(replayed) == health_state(monitor)


# -- one broadcast ------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_one_broadcast_takes_the_same_ids_handles_and_times_in_both_tiers(mode):
    n, source, now = 9, 4, 5.0
    tiers = []
    for prepare in (lambda c: c, force_instrumented):
        controller = prepare(Controller(quick_config(n=n, dissemination=mode)))
        controller.clock.advance_to(now)
        controller.network.submit(Message(source=source, dest=BROADCAST, payload={"type": "B"}))
        entries = queue_entries(controller)
        next_handle = controller.queue.push(TimeEvent(time=controller.now))
        tiers.append((controller.next_message_id(), next_handle, entries))
    (shared_id, shared_handle, shared), (copy_id, copy_handle, copies) = tiers

    assert shared_id == copy_id == n + 1
    assert shared_handle == copy_handle == n
    assert [e[:3] for e in shared] == [e[:3] for e in copies]
    assert len({id(e[3]) for e in shared}) == 1, "shared tier: one message object"
    assert len({id(e[3]) for e in copies}) == n, "instrumented tier: one per copy"

    loopback = next(e for e in shared if e[2] == source)
    assert loopback[0] == now
    # Handle order: destination order in full, loopback first on an overlay.
    assert loopback[1] == (source if mode == "full" else 0)
    assert controller.metrics.counts.sent == n - 1  # the loopback is not traffic


# -- what telemetry sees of the queue -----------------------------------------


class SampleRecorder(HealthMonitor):
    """A monitor that keeps the engine samples it closes its windows with."""

    def __init__(self, window_ms):
        super().__init__(window_ms=window_ms)
        self.samples = []

    def close_window(self, end, sample):
        self.samples.append((end, dict(sample)))
        super().close_window(end, sample)


@pytest.mark.parametrize("mode", ["full", "tree"])
@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns"])
def test_queue_gauges_and_health_samples_are_equal_in_both_tiers(protocol, mode):
    """A shared broadcast is one heap entry but n pending deliveries: the
    ``queue_depth`` / ``in_flight_messages`` series and the health monitor's
    ``queue`` sample must count recipients, as the per-copy tier does."""
    config = quick_config(protocol=protocol, n=7, num_decisions=3, seed=11, dissemination=mode)
    tiers = []
    for prepare in (lambda c: c, force_instrumented):
        monitor = SampleRecorder(window_ms=20.0)
        controller = prepare(
            Controller(config, metrics=MetricsRegistry(interval=10.0), health=monitor)
        )
        result = controller.run()
        gauges = [
            row for row in result.run_metrics.samples
            if row[1] in ("queue_depth", "in_flight_messages")
        ]
        tiers.append((gauges, monitor.samples, result.health.to_dict()))
    shared, copies = tiers
    assert shared == copies
    assert max(value for _, name, value in shared[0] if name == "in_flight_messages") >= 6
    assert max(sample["queue"] for _, sample in shared[1]) >= 6


@pytest.mark.parametrize("mode", ["full", "tree"])
@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns"])
def test_a_stall_report_counts_pending_deliveries_in_both_tiers(protocol, mode):
    """The watchdog fires while the first broadcasts are in flight (delays
    are ~50 ms, the window 5 ms): the census lists one ``message:<type>``
    per pending recipient on either tier."""
    config = quick_config(protocol=protocol, n=7, dissemination=mode, stall_timeout=5.0)
    shared = Controller(config).run().stall
    copies = force_instrumented(Controller(config)).run().stall
    assert shared is not None and shared.reason == copies.reason
    assert shared.pending_events == copies.pending_events
    assert list(shared.pending_events) == list(copies.pending_events)  # firing order
    assert sum(v for k, v in shared.pending_events.items() if k.startswith("message:")) >= 6


def test_a_phase_of_n_broadcasts_holds_o_n_heap_entries():
    """pbft's prepare phase: every node broadcasts to every node.  With one
    cursor per in-flight broadcast the heap stays O(n) while O(n²)
    deliveries are pending (per-recipient entries held > n²/2 here)."""
    n = 256
    controller = Controller(quick_config(n=n, mean=250.0, std=50.0, lam=1000.0))
    queue = controller.queue
    dispatch = controller._dispatch
    peak = {"heap": 0, "pending": 0}

    def watching_dispatch(*args):
        peak["heap"] = max(peak["heap"], len(queue._heap))
        peak["pending"] = max(peak["pending"], len(queue))
        dispatch(*args)

    controller._dispatch = watching_dispatch
    assert controller.run().terminated
    assert peak["pending"] > n * n // 2
    assert peak["heap"] <= 4 * n


# -- a run that changes tier mid-way ------------------------------------------


@pytest.mark.parametrize("protocol", TIER_SWITCH_PROTOCOLS)
def test_full_mode_tier_switch_matches_the_per_copy_fan_out(protocol):
    """The ``tier-switch`` cases were pinned while every broadcast fanned
    out per copy: a run that leaves the shared tier mid-way reproduces it."""
    for switch in TIER_SWITCHES:
        case = f"tier-switch/{protocol}/{switch}"
        assert observe(case) == expected(case)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("protocol", TIER_SWITCH_PROTOCOLS)
@pytest.mark.parametrize("switch", list(TIER_SWITCHES.values()))
def test_tier_switch_equals_a_run_instrumented_from_the_start(protocol, mode, switch):
    config = switching_config(protocol, mode)
    switched = Controller(config)
    result = run_switching(switched, switch)
    reference = force_instrumented(Controller(config))
    instrumented = run_switching(reference, switch)

    assert result_fingerprint(result) == result_fingerprint(instrumented)
    assert trace_digest(result.trace) == trace_digest(instrumented.trace)
    # Every id and lineage cause too: a delivery still in flight from a
    # shared broadcast is recorded under its own copy's id.
    assert [e.to_dict() for e in result.trace] == [e.to_dict() for e in instrumented.trace]
    assert switched.next_message_id() == reference.next_message_id()


# -- the validator's replay rides the shared tier -----------------------------


def counting_shared_broadcasts(monkeypatch) -> list[int]:
    """Recipient counts of the broadcasts pushed as one shared entry."""
    shared = []
    push_deliveries = EventQueue.push_deliveries

    def counting(queue, event, times, dests):
        shared.append(len(dests))
        push_deliveries(queue, event, times, dests)

    monkeypatch.setattr(EventQueue, "push_deliveries", counting)
    return shared


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns", "algorand"])
def test_a_replay_stays_shared_and_equals_the_forced_per_copy_replay(
    protocol, mode, tmp_path, monkeypatch
):
    """The replay hook prices each copy of a shared broadcast exactly as
    the per-copy tier does: same result, same trace file, byte for byte.
    The ground truth is another seed's run, so the recorded delays are not
    the ones the replay's own stream would draw."""
    config = golden_config(protocol, mode).replace(n=7)
    ground_truth = run_simulation(config.replace(seed=7, record_trace=True)).trace
    shared_broadcasts = counting_shared_broadcasts(monkeypatch)

    def replayed(name, prepare):
        path = tmp_path / name
        controller = prepare(Controller(config, sink=JsonlSink(path)))
        controller.network.set_delay_override(RecordedDelays(ground_truth))
        result = controller.run()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return result_fingerprint(result), digest, len(shared_broadcasts)

    *shared, shared_count = replayed("shared.jsonl", lambda c: c)
    *copies, total_count = replayed("copies.jsonl", force_instrumented)
    assert shared_count > 0, "the replay left the shared tier"
    assert total_count == shared_count, "the reference replay was not per-copy"
    assert shared == copies
    if mode == "full":
        assert shared[0] != result_fingerprint(run_simulation(config)), "the hook was not used"


def test_replay_simulation_takes_the_shared_tier(monkeypatch):
    config = golden_config("pbft").replace(n=7, num_decisions=2)
    original = run_simulation(config.replace(record_trace=True))
    shared_broadcasts = counting_shared_broadcasts(monkeypatch)
    replayed = replay_simulation(config, original.trace)
    assert shared_broadcasts, "every broadcast of the replay went per-copy"
    assert replayed.decided_values == original.decided_values


def test_an_unattacked_override_gives_the_per_copy_result_on_the_shared_tier(
    tmp_path, monkeypatch
):
    config = quick_config(n=7, num_decisions=2)
    shared_broadcasts = counting_shared_broadcasts(monkeypatch)
    runs = []
    for name, prepare in (("shared", lambda c: c), ("copies", force_instrumented)):
        path = tmp_path / f"{name}.jsonl"
        controller = prepare(Controller(config, sink=JsonlSink(path)))
        _override_odd_destinations(controller)
        result = controller.run()
        runs.append((result_fingerprint(result), path.read_bytes(), len(shared_broadcasts)))
    (shared_print, shared_bytes, shared_count), (copy_print, copy_bytes, total) = runs
    assert shared_count > 0 and total == shared_count
    assert shared_print == copy_print
    assert shared_bytes == copy_bytes
    assert shared_print != result_fingerprint(run_simulation(config))
