"""Tests for the network module: broadcast expansion, loopback, metrics."""

from __future__ import annotations

import pytest

from repro import AttackConfig, Message
from repro.attacks.base import Capability
from repro.core.message import BROADCAST

from tests.attacks.support import (
    ScriptedAttacker,
    controller_with,
    count_payload_copies,
    pending_deliveries,
    submit,
)
from tests.conftest import quick_config
from tests.pinned import INSTRUMENTED_RUNS, expected, observe


class TestBroadcast:
    def test_broadcast_expands_to_all_nodes(self):
        controller = controller_with(ScriptedAttacker(Capability.NONE), n=5)
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        deliveries = pending_deliveries(controller)
        assert sorted(dest for _, dest, _, _ in deliveries) == [0, 1, 2, 3, 4]

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
        deliveries = {dest: m for _, dest, _, m in pending_deliveries(controller)}
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
        assert deliveries[0][0] == 10.0

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
        assert deliveries[0][2] == message.msg_id

    def test_every_wire_message_passes_attacker(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker, n=4)
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        assert len(attacker.seen) == 3  # n-1 wire copies; loopback excluded

    def test_genuine_null_attacker_is_not_consulted_when_instrumented(self, monkeypatch):
        """Trace-only and fault-only runs keep the genuine NullAttacker:
        its ``attack`` returns None, so a message on its rows gets no gate
        around it, and no payload snapshot for it."""
        from repro import Controller
        from repro.attacks import base as attacks_base
        from repro.attacks.null import NullAttacker
        from repro.network import module as network_module
        from tests.conftest import quick_config

        def unexpected(*_args, **_kwargs):
            raise AssertionError("the NullAttacker hand-off must be skipped")

        controller = Controller(quick_config(n=4, record_trace=True))
        # Tracing alone skips the rows; force them.
        controller.network._unobserved = lambda: False
        monkeypatch.setattr(NullAttacker, "attack", unexpected)
        monkeypatch.setattr(network_module, "row_gate", unexpected)
        monkeypatch.setattr(attacks_base, "deep_copy_payload", unexpected)
        message = submit(controller)
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        assert any(m is message for *_, m in pending_deliveries(controller))
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
        assert all(m.payload is message.payload for *_, m in pending_deliveries(controller))

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


@pytest.mark.parametrize("case", sorted(INSTRUMENTED_RUNS))
def test_instrumented_runs_keep_their_pinned_result_and_trace(case):
    case = f"instrumented/{case}"
    assert observe(case) == expected(case)


def test_a_forging_run_writes_the_same_trace_twice_in_one_process():
    case = "instrumented/forged-insert-mid-broadcast"
    for _ in range(2):
        assert observe(case)["trace_sha256"] == expected(case)["trace_sha256"]
