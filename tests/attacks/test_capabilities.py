"""Tests for the capability-enforced threat model.

These are the load-bearing tests of the attacker framework: every rule in
DESIGN.md's threat model (observation, dropping, modification, forgery,
corruption budget, static-vs-adaptive, no-after-the-fact retraction) is
checked against a scripted attacker that tries to overstep it.  The
per-message rules are run again, for the attacker and for scenario clauses
alike, by the battery in ``test_gate.py``.
"""

from __future__ import annotations

import pytest

from repro.attacks.base import Capability, REDACTED_PAYLOAD
from repro.core.errors import CapabilityError, CorruptionBudgetError

from tests.attacks.support import (
    ScriptedAttacker,
    controller_with,
    pending_deliveries,
    submit,
)


class TestObservation:
    def test_non_observer_sees_redacted_payload(self):
        attacker = ScriptedAttacker(Capability.NETWORK)
        controller = controller_with(attacker)
        submit(controller, payload_secret="s3cret")
        assert attacker.seen[0].payload == REDACTED_PAYLOAD

    def test_observer_sees_real_payload(self):
        attacker = ScriptedAttacker(Capability.OBSERVE)
        controller = controller_with(attacker)
        submit(controller, payload_secret="s3cret")
        assert attacker.seen[0].payload["payload_secret"] == "s3cret"

    def test_controlled_source_visible_without_observe(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(1.0)
        submit(controller, source=0, mark="from-corrupted")
        assert attacker.seen[-1].payload.get("mark") == "from-corrupted"


class TestDropping:
    def test_network_attacker_may_drop(self):
        attacker = ScriptedAttacker(Capability.NETWORK, lambda self, m: [])
        controller = controller_with(attacker)
        submit(controller)
        assert pending_deliveries(controller) == []
        assert controller.metrics.counts.dropped == 1

    def test_capabilityless_drop_rejected(self):
        attacker = ScriptedAttacker(Capability.OBSERVE, lambda self, m: [])
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="dropped honest message"):
            submit(controller)

    def test_byzantine_may_drop_controlled_messages_only(self):
        attacker = ScriptedAttacker(
            Capability.BYZANTINE | Capability.ADAPTIVE,
            lambda self, m: [] if self.ctx.controls_message(m) else None,
        )
        controller = controller_with(attacker)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(1.0)
        submit(controller, source=0)  # corrupted earlier: droppable
        submit(controller, source=1)  # honest: passes through
        deliveries = pending_deliveries(controller)
        assert [m.source for *_, m in deliveries] == [1]


class TestNoRetraction:
    """Corruption at time t controls only messages sent strictly after t —
    the rule separating ADD+v2 from ADD+v3 (paper Fig. 8)."""

    def test_message_sent_at_corruption_instant_not_controlled(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE | Capability.ADAPTIVE)
        controller = controller_with(attacker)
        controller.clock.advance_to(5.0)
        controller.attacker_ctx.corrupt(0)
        message = submit(controller, source=0)  # sent_at == corruption time
        assert not controller.attacker_ctx.controls_message(message)

    def test_message_sent_after_corruption_controlled(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE | Capability.ADAPTIVE)
        controller = controller_with(attacker)
        controller.clock.advance_to(5.0)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(5.001)
        message = submit(controller, source=0)
        assert controller.attacker_ctx.controls_message(message)

    def test_dropping_at_instant_message_rejected(self):
        attacker = ScriptedAttacker(
            Capability.BYZANTINE | Capability.ADAPTIVE, lambda self, m: []
        )
        controller = controller_with(attacker)
        controller.clock.advance_to(5.0)
        controller.attacker_ctx.corrupt(0)
        with pytest.raises(CapabilityError):
            submit(controller, source=0)


class TestModification:
    def test_honest_payload_modification_rejected(self):
        def tamper(self, message):
            message.payload["injected"] = True
            return [message]

        attacker = ScriptedAttacker(Capability.OBSERVE, tamper)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="modified the payload"):
            submit(controller)

    def test_controlled_payload_modification_allowed(self):
        def tamper(self, message):
            if self.ctx.controls_message(message):
                message.payload["injected"] = True
            return [message]

        attacker = ScriptedAttacker(
            Capability.BYZANTINE | Capability.ADAPTIVE | Capability.OBSERVE, tamper
        )
        controller = controller_with(attacker)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(1.0)
        submit(controller, source=0)
        delivered = pending_deliveries(controller)
        assert delivered[0][3].payload["injected"] is True

    def test_delay_modification_needs_network(self):
        def slow_down(self, message):
            message.delay = (message.delay or 0) + 1_000.0
            return [message]

        attacker = ScriptedAttacker(Capability.OBSERVE, slow_down)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="re-timed"):
            submit(controller)

    def test_delay_modification_with_network_allowed(self):
        def slow_down(self, message):
            message.delay = (message.delay or 0) + 1_000.0
            return [message]

        attacker = ScriptedAttacker(Capability.NETWORK, slow_down)
        controller = controller_with(attacker)
        submit(controller)
        delivered = pending_deliveries(controller)
        assert delivered[0][3].delay >= 1_000.0

    def test_redacted_payload_modification_rejected(self):
        def tamper(self, message):
            message.payload["x"] = 1
            return [message]

        attacker = ScriptedAttacker(Capability.NETWORK, tamper)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="redacted"):
            submit(controller)

    def test_negative_delay_rejected(self):
        def corrupt_delay(self, message):
            message.delay = -1.0
            return [message]

        attacker = ScriptedAttacker(Capability.NETWORK, corrupt_delay)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="invalid delay"):
            submit(controller)


class TestForgery:
    def test_forging_for_corrupted_source_allowed(self):
        def inject(self, message):
            forged = self.ctx.forge(source=0, dest=2, payload={"type": "FAKE"})
            return [message, forged]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, inject
        )
        controller = controller_with(attacker)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(1.0)
        submit(controller, source=1)
        delivered = pending_deliveries(controller)
        assert any(m.forged and m.type == "FAKE" for *_, m in delivered)
        assert controller.metrics.counts.byzantine == 1

    def test_forged_insert_with_the_hops_id_is_still_an_insert(self):
        """A forged message is built with a process-wide id that may equal
        the per-run id of the copy in hand; it is an insert all the same,
        and enters the network under a per-run id of its own."""
        def inject(self, message):
            forged = self.ctx.forge(source=0, dest=2, payload={"type": "FAKE"})
            forged.msg_id = message.msg_id
            return [forged, message]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, inject
        )
        controller = controller_with(attacker)
        controller.attacker_ctx.corrupt(0)
        controller.clock.advance_to(1.0)
        honest = submit(controller, source=1)
        delivered = pending_deliveries(controller)
        assert sorted(m.type for *_, m in delivered) == sorted(["FAKE", honest.type])
        assert len({copy_id for _, _, copy_id, _ in delivered}) == 2
        assert controller.metrics.counts.byzantine == 1
        assert controller.metrics.counts.dropped == 0

    def test_forging_honest_source_rejected(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="unforgeable"):
            controller.attacker_ctx.forge(source=1, dest=2, payload={"type": "FAKE"})

    def test_forging_without_byzantine_rejected(self):
        attacker = ScriptedAttacker(Capability.NETWORK)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError):
            controller.attacker_ctx.forge(source=0, dest=1, payload={})

    def test_returning_alien_message_rejected(self):
        from repro.core.message import Message

        def smuggle(self, message):
            return [message, Message(source=2, dest=3, payload={"type": "ALIEN"})]

        attacker = ScriptedAttacker(Capability.OBSERVE, smuggle)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="neither received nor forged"):
            submit(controller)

    @pytest.mark.parametrize(
        "capabilities, match",
        [
            (Capability.NONE, "requires the BYZANTINE capability"),
            (Capability.OBSERVE | Capability.NETWORK, "requires the BYZANTINE capability"),
            # BYZANTINE, but the impersonated node was never corrupted.
            (Capability.BYZANTINE, "unforgeable"),
        ],
    )
    def test_hand_built_forged_message_gets_no_further_than_forge(self, capabilities, match):
        """``forged=True`` is not a licence: a forged message is held to the
        ``forge()`` rule wherever it enters the network."""
        from repro.core.message import Message

        def hand_built(controller):
            return Message(source=2, dest=3, payload={"type": "FAKE"},
                           sent_at=controller.clock.now, forged=True)

        attacker = ScriptedAttacker(
            capabilities, lambda self, m: [m, hand_built(self.ctx._controller)]
        )
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match=match):
            submit(controller)
        with pytest.raises(CapabilityError, match=match):
            controller.attacker_ctx.inject(hand_built(controller))
        assert controller.metrics.counts.byzantine == 0
        assert pending_deliveries(controller) == []

    def test_inject_requires_forged_message(self):
        from repro.core.message import Message

        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError):
            controller.attacker_ctx.inject(Message(source=0, dest=1, payload={}))


class TestCorruption:
    def test_budget_enforced(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker, n=4)  # f = 1
        controller.attacker_ctx.corrupt(0)
        with pytest.raises(CorruptionBudgetError):
            controller.attacker_ctx.corrupt(1)

    def test_corrupt_is_idempotent(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker, n=4)
        controller.attacker_ctx.corrupt(0)
        controller.attacker_ctx.corrupt(0)  # no budget burned
        assert controller.attacker_ctx.budget_remaining == 0

    def test_static_attacker_cannot_corrupt_mid_run(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker)
        controller.clock.advance_to(1.0)
        with pytest.raises(CapabilityError, match="ADAPTIVE"):
            controller.attacker_ctx.corrupt(0)

    def test_corruption_requires_byzantine(self):
        attacker = ScriptedAttacker(Capability.NETWORK | Capability.ADAPTIVE)
        controller = controller_with(attacker)
        with pytest.raises(CapabilityError, match="BYZANTINE"):
            controller.attacker_ctx.corrupt(0)

    def test_unknown_node_rejected(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker, n=4)
        with pytest.raises(CapabilityError, match="no such node"):
            controller.attacker_ctx.corrupt(99)

    def test_corruption_halts_replica_and_marks_faulty(self):
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(attacker, n=4)
        controller.attacker_ctx.corrupt(2)
        assert 2 in controller.metrics.faulty
        assert 2 in controller._halted
