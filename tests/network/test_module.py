"""Tests for the network module: broadcast expansion, loopback, metrics."""

from __future__ import annotations

import hashlib

import pytest

from repro import AttackConfig, Controller, JsonlSink, Message, result_fingerprint
from repro.attacks.base import Attacker, Capability
from repro.attacks.registry import register_attack
from repro.core.message import BROADCAST
from repro.faults.spec import parse_faults_spec
from repro.scenarios.spec import load_scenario

from tests.attacks.support import (
    ScriptedAttacker,
    controller_with,
    count_payload_copies,
    pending_deliveries,
    submit,
)
from tests.conftest import quick_config


class TestBroadcast:
    def test_broadcast_expands_to_all_nodes(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=5)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        deliveries = pending_deliveries(controller)
        assert sorted(m.dest for m in deliveries) == [0, 1, 2, 3, 4]

    def test_broadcast_counts_exclude_loopback(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=5)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        assert controller.metrics.counts.sent == 4

    def test_broadcast_copies_are_independent(self):
        tampered = []

        def tamper(self, message):
            if self.ctx.controls_message(message) and message.dest == 1:
                message.payload["evil"] = True
                tampered.append(message.dest)
            return [message]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, tamper
        )
        controller = controller_with(attacker, n=4)
        controller.attacker_ctx.corrupt(2)
        controller.clock.advance_to(1.0)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        deliveries = {m.dest: m for m in pending_deliveries(controller)}
        assert deliveries[1].payload.get("evil") is True
        # Every other recipient, the sender included, gets the original.
        assert all(deliveries[dest].payload == {"type": "B"} for dest in (0, 2, 3))


class TestLoopback:
    def test_loopback_delivered_instantly(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        controller.clock.advance_to(10.0)
        submit(controller, source=3, dest=3)
        deliveries = pending_deliveries(controller)
        assert len(deliveries) == 1
        assert deliveries[0].deliver_at == 10.0

    def test_loopback_invisible_to_attacker(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker, n=4)
        submit(controller, source=3, dest=3)
        assert attacker.seen == []

    def test_loopback_not_counted_as_traffic(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        submit(controller, source=3, dest=3)
        assert controller.metrics.counts.sent == 0


class TestDelayAssignment:
    def test_delay_sampled_from_configured_distribution(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=4, mean=100.0, std=0.0
        )
        message = submit(controller)
        assert message.delay == 100.0

    def test_delays_vary_with_distribution(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=4, mean=100.0, std=30.0
        )
        delays = {submit(controller).delay for _ in range(10)}
        assert len(delays) > 1

    def test_trace_records_send(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=4)
        controller.trace.enabled = True
        submit(controller, source=0, dest=2, type="PING")
        sends = controller.trace.events(kind="send")
        assert len(sends) == 1
        assert sends[0].fields["msg_type"] == "PING"
        assert sends[0].fields["dest"] == 2


class TestAttackerPassthrough:
    def test_none_return_means_unchanged(self):
        attacker = ScriptedAttacker(Capability.OBSERVE, lambda self, m: None)
        controller = controller_with(attacker, n=4)
        message = submit(controller)
        deliveries = pending_deliveries(controller)
        assert deliveries[0].msg_id == message.msg_id

    def test_every_wire_message_passes_attacker(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker, n=4)
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        assert len(attacker.seen) == 3  # n-1 wire copies; loopback excluded

    def test_genuine_null_attacker_is_not_consulted_when_instrumented(self, monkeypatch):
        """Trace-only and fault-only runs keep the genuine
        NullAttacker: its ``attack`` returns None, so the instrumented tier
        builds no gate around it, and takes no payload snapshot for it."""
        from repro import Controller
        from repro.attacks.null import NullAttacker
        from repro.network import module as network_module
        from tests.conftest import quick_config

        def unexpected(*_args, **_kwargs):
            raise AssertionError("the NullAttacker hand-off must be skipped")

        controller = Controller(quick_config(n=4, record_trace=True))
        # Tracing alone keeps the shared tier; force the per-copy tier.
        controller.network._unobserved = lambda: False
        monkeypatch.setattr(NullAttacker, "attack", unexpected)
        monkeypatch.setattr(network_module, "capability_gate", unexpected)
        monkeypatch.setattr(network_module, "deep_copy_payload", unexpected)
        message = submit(controller)
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        assert any(m is message for m in pending_deliveries(controller))
        assert len(controller.trace.events(kind="send")) == 4

    def test_null_attacker_subclass_is_still_consulted(self):
        """Only the exact class is trusted: a subclass may override ``attack``."""
        from repro.attacks.null import NullAttacker

        seen = []

        class Watching(NullAttacker):
            def attack(self, message):
                seen.append(message.msg_id)
                return None

        controller = controller_with(Watching({}), n=4)
        message = submit(controller)
        assert seen == [message.msg_id]


def _broadcast(controller, source=0):
    message = Message(source=source, dest=BROADCAST, payload={"type": "B", "body": {"k": [1, 2]}})
    controller.network.submit(message)
    return message


class TestCopyOnWriteUnderAttack:
    """The recipients of a broadcast share one payload under attack too:
    one snapshot per broadcast, private copies only for what the attacker
    controls (a write to anything else is a ``CapabilityError``: see
    ``tests/attacks/test_gate.py``)."""

    def test_honest_copies_share_one_payload_and_one_snapshot(self, monkeypatch):
        controller = controller_with(ScriptedAttacker(Capability.OBSERVE), n=8)
        copied = count_payload_copies(monkeypatch)
        message = _broadcast(controller)
        assert copied == [message.payload]
        assert all(m.payload is message.payload for m in pending_deliveries(controller))

    def test_only_controlled_copies_are_unshared(self, monkeypatch):
        attacker = ScriptedAttacker(Capability.OBSERVE | Capability.BYZANTINE)
        controller = controller_with(attacker, n=8)
        controller.attacker_ctx.corrupt(2)
        controller.clock.advance_to(1.0)
        copied = count_payload_copies(monkeypatch)
        _broadcast(controller, source=2)  # controlled: one private copy per wire copy
        assert len(copied) == 7
        _broadcast(controller, source=3)  # honest: the snapshot alone
        assert len(copied) == 8

    def test_a_redacted_view_needs_no_copy_at_all(self, monkeypatch):
        from repro import run_simulation

        copied = count_payload_copies(monkeypatch)
        result = run_simulation(quick_config(
            n=7, num_decisions=2,
            attack=AttackConfig(name="targeted-delay", params={"factor": 2.0}),
        ))
        assert result.terminated
        assert copied == []


@register_attack("_test-mid-broadcast-forger")
class _MidBroadcastForger(Attacker):
    """Adds a forged message with no delay beside some copies of a
    broadcast, so ``network.delay`` is drawn from in the middle of it."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE

    def setup(self):
        self.ctx.corrupt(0)

    def attack(self, message):
        if message.dest % 3 == 1 and message.payload.get("type") == "PREPARE":
            noise = self.ctx.forge(0, message.dest, {"type": "NOISE", "n": message.dest})
            return [message, noise]
        return None


def _pbft_n32(decisions, seed, **changes):
    from repro import NetworkConfig, SimulationConfig

    return SimulationConfig(
        protocol="pbft", n=32, num_decisions=decisions, seed=seed,
        network=NetworkConfig(), **changes,
    )


def _override_odd_destinations(controller):
    controller.network.set_delay_override(
        lambda message, dest: 40.0 + dest if dest % 2 else None
    )


def _replay_seed_16(controller):
    from repro import run_simulation
    from repro.validator.replay import RecordedDelays

    ground_truth = run_simulation(_pbft_n32(5, 16, record_trace=True)).trace
    controller.network.set_delay_override(RecordedDelays(ground_truth))


#: ``(config, prepare)`` -> (result fingerprint, sha256 of the JSONL trace),
#: recorded on the commit before the instrumented tier went copy-on-write
#: with a batched star draw.  Each case moves if a delay is drawn in another
#: order, a copy gets another id or handle, or a record changes.
PINNED_RUNS = {
    "forged-insert-mid-broadcast": (
        lambda: quick_config(
            n=7, num_decisions=2, attack=AttackConfig(name="_test-mid-broadcast-forger")),
        None,
        "9034247b9e3799858be4d09d2000a10260d163cf882017c8b3c26a5d152ee079",
        # Recorded once forged inserts were re-keyed with per-run ids (the
        # process-wide id they are constructed with never reaches a record).
        "24b05cb39b2a08fc76f32b916ba33490f82357a7d3507052abd4670cbb958b40",
    ),
    "delay-override": (
        lambda: quick_config(
            n=7, num_decisions=2,
            attack=AttackConfig(name="targeted-delay", params={"factor": 3.0})),
        _override_odd_destinations,
        "b0ad2de98fd1275a7d55dd7f7e95cd37c97e825d0569d0c63c1629c70b1b0e49",
        "b70a9b6389825505c9dbffd84cb11466c6a51853b84247d3922200ef45eed11c",
    ),
    "adaptive-chaser": (
        lambda: load_scenario("adaptive-chaser").apply(_pbft_n32(5, 11)),
        None,
        "3b9dc4f0e4216a84f61e561b5afd01ce3d1a45c3692a42931e65c281c7464b8b",
        "c6025ba428f8e4be24216390c20c2e964a537a309b4a88976024aa39e518e5b4",
    ),
    "worst-case-pbft-n32": (
        lambda: load_scenario("worst-case-pbft-n32").apply(_pbft_n32(2, 12)),
        None,
        "97998171f743ef73133bcd6abaf1ad01864b5740c2efe16c811f65a66e9ec1a9",
        "5d20173b65cbc29dc7ece8ad0c0817cbdf1ba4d0c4891a7b57f0975750cec70e",
    ),
    "link-faults": (
        lambda: _pbft_n32(5, 13, faults=parse_faults_spec("duplicate=0.05; delay=0.1x3")),
        None,
        "87c3539b519cd01d44eb48c8a0bb97c3deceed3fdcb7856b611cf742b560aa73",
        "af7a693e0095154874ec0fbaafc529e7e23bf73d6c3d29767047ec6899574a36",
    ),
    # Recorded before a delay override stopped forcing the per-copy tier:
    # the replay of another seed's pbft n=32 run, with 262 copies the
    # ground truth never sent priced at its median delay.
    "replay-pbft-n32": (
        lambda: _pbft_n32(5, 15),
        _replay_seed_16,
        "7241974831851d103d1c4611844f7b5fe30d69cad8482276e55ced9e6d818611",
        "5205df77ac37993eaeb0336ad7367847bf1dcdcbc4dfb526329e1cd987157af2",
    ),
    # Recorded before delays were drawn in blocks: ~8k per-copy draws of
    # ``network.delay`` and ~1.6k of ``faults.delay`` cross many block
    # boundaries, before GST (inflated, uncapped) and after it (capped).
    "partial-sync-link-faults": (
        lambda: _pbft_n32(
            4, 14, faults=parse_faults_spec("duplicate=0.2; delay=0.1x3"),
        ).replace(network={"gst": 800.0, "pre_gst_factor": 3.0, "max_delay": 400.0}),
        None,
        "e166ade1718c1198ca1713d4df51a6b11d7d3a577e14a210e89735d0e6d5b883",
        "35060dcf6887c79aef35c4ded479073d7e38b40b3dfe44ff3058456993695442",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_instrumented_runs_keep_their_pinned_result_and_trace(case, tmp_path):
    make_config, prepare, fingerprint, trace_sha256 = PINNED_RUNS[case]
    path = tmp_path / "trace.jsonl"
    controller = Controller(make_config(), sink=JsonlSink(path))
    if prepare is not None:
        prepare(controller)
    assert result_fingerprint(controller.run()) == fingerprint
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha256


def test_a_forging_run_writes_the_same_trace_twice_in_one_process(tmp_path):
    make_config, _, _, trace_sha256 = PINNED_RUNS["forged-insert-mid-broadcast"]
    for attempt in range(2):
        path = tmp_path / f"trace-{attempt}.jsonl"
        Controller(make_config(), sink=JsonlSink(path)).run()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha256
