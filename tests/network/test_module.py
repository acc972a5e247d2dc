"""Tests for the network module: broadcast expansion, loopback, metrics."""

from __future__ import annotations

from repro import Message
from repro.attacks.base import Capability
from repro.core.message import BROADCAST

from tests.attacks.support import ScriptedAttacker, controller_with, pending_deliveries, submit


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
        assert "evil" not in deliveries[3].payload  # other copies untouched


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
        """Trace-only, fault-only and profile-only runs keep the genuine
        NullAttacker: its ``attack`` returns None, so the instrumented tier
        builds no redacted proxy and no payload snapshot for it."""
        from repro import Controller
        from repro.network import module as network_module
        from tests.conftest import quick_config

        def unexpected(*_args, **_kwargs):
            raise AssertionError("the NullAttacker hand-off must be skipped")

        controller = Controller(quick_config(n=4, record_trace=True))
        monkeypatch.setattr(network_module.NetworkModule, "_run_attacker", unexpected)
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
