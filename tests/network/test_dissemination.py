"""Tests for broadcast dissemination (full / tree / gossip).

Covers the plan layer (shapes, arrival accumulation, restricted BFS) and
the network-module integration (coverage, counts, copy-on-write isolation,
relay attribution, RNG substream isolation).  The contract that a
broadcast gives the same run with its rows or without is in
``test_broadcast_tiers.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Message
from repro.attacks.base import Capability
from repro.core.events import MessageEvent
from repro.core.message import BROADCAST
from repro.network.dissemination import (
    TreeShape,
    gossip_labels,
    resolve_fanout,
    restricted_plan,
)

from tests.attacks.support import ScriptedAttacker, controller_with, submit


def drain_deliveries(controller):
    """Every pending delivery as ``(time, dest, message)``, in firing order.

    Entry-aware variant of ``pending_deliveries``: the shared broadcast
    tier schedules one shared event for many recipients, so the recipient
    and firing time must be read from the queue entry.
    """
    out = []
    queue = controller.queue
    while queue:
        entry = queue.pop_entry()
        event = entry[2]
        if type(event) is MessageEvent:
            dest = entry[3]
            if dest is None:
                dest = event.message.dest
            out.append((entry[0], dest, event.message))
    return out


# ---------------------------------------------------------------------------
# plan layer
# ---------------------------------------------------------------------------


class TestResolveFanout:
    def test_explicit_fanout_passes_through(self):
        assert resolve_fanout(7, 1000) == 7

    def test_auto_fanout_is_sqrt_n(self):
        assert resolve_fanout(0, 1000) == 32  # ceil(sqrt(1000))
        assert resolve_fanout(0, 64) == 8

    def test_auto_fanout_floor_is_two(self):
        assert resolve_fanout(0, 2) == 2
        assert resolve_fanout(0, 4) == 2


class TestTreeShape:
    @pytest.mark.parametrize("n,k,root", [(7, 2, 0), (7, 2, 3), (16, 4, 5), (33, 3, 32)])
    def test_covers_every_node_except_root_once(self, n, k, root):
        plan = TreeShape(n, k).plan(root)
        assert sorted(plan.dests.tolist()) == [i for i in range(n) if i != root]

    def test_deterministic_in_root_n_k(self):
        a = TreeShape(16, 4).plan(5)
        b = TreeShape(16, 4).plan(5)
        assert a.dests.tolist() == b.dests.tolist()
        assert a.relays.tolist() == b.relays.tolist()

    @pytest.mark.parametrize("n,k,root", [(7, 2, 0), (16, 4, 5), (33, 3, 32)])
    def test_relays_transmit_only_after_receiving(self, n, k, root):
        """Every hop's relay is the root or an earlier hop's recipient."""
        plan = TreeShape(n, k).plan(root)
        received = {root}
        for relay, dest in zip(plan.relays.tolist(), plan.dests.tolist()):
            assert relay in received
            received.add(dest)

    def test_fanout_cap_respected(self):
        plan = TreeShape(40, 3).plan(0)
        relays = plan.relays.tolist()
        assert all(relays.count(r) <= 3 for r in set(relays))

    def test_arrivals_accumulate_along_paths(self):
        """With unit hop delays, a hop's arrival offset equals its depth."""
        n, k = 16, 2
        plan = TreeShape(n, k).plan(0)
        arrivals = plan.arrivals(np.ones(plan.size))
        depth = {0: 0}
        for i, (relay, dest) in enumerate(zip(plan.relays.tolist(), plan.dests.tolist())):
            depth[dest] = depth[relay] + 1
            assert arrivals[i] == pytest.approx(depth[dest])


class TestGossipLabels:
    def test_root_leads_and_labels_are_a_permutation(self):
        rng = np.random.default_rng(7)
        labels = gossip_labels(rng, 20, root=13)
        assert labels[0] == 13
        assert sorted(labels.tolist()) == list(range(20))

    def test_deterministic_for_equal_streams(self):
        a = gossip_labels(np.random.default_rng(7), 20, root=3)
        b = gossip_labels(np.random.default_rng(7), 20, root=3)
        assert a.tolist() == b.tolist()

    def test_distinct_draws_differ(self):
        rng = np.random.default_rng(7)
        first = gossip_labels(rng, 50, root=0)
        second = gossip_labels(rng, 50, root=0)
        assert first.tolist() != second.tolist()


class TestRestrictedPlan:
    def test_covers_exactly_the_reachable_component(self):
        # 0 -> 1 -> 2, node 3 unreachable (all its inbound links down).
        links = {(0, 1), (1, 2), (2, 0)}
        plan = restricted_plan(0, 4, lambda a, b: (a, b) in links)
        assert sorted(plan.dests.tolist()) == [1, 2]

    def test_directed_links_respected(self):
        # 1 -> 0 exists but 0 -> 1 does not: 1 is unreachable from 0.
        links = {(1, 0), (0, 2), (2, 3)}
        plan = restricted_plan(0, 4, lambda a, b: (a, b) in links)
        assert sorted(plan.dests.tolist()) == [2, 3]

    def test_priority_reorders_visits(self):
        plan = restricted_plan(0, 4, lambda a, b: True, priority=[0, 3, 2, 1])
        assert plan.dests.tolist() == [3, 2, 1]

    def test_empty_component(self):
        plan = restricted_plan(0, 4, lambda a, b: False)
        assert plan.size == 0


# ---------------------------------------------------------------------------
# network-module integration
# ---------------------------------------------------------------------------


class TestDisseminatedBroadcast:
    @pytest.mark.parametrize("mode", ["full", "tree", "gossip"])
    def test_broadcast_reaches_every_node_exactly_once(self, mode):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination=mode
        )
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        dests = [dest for _, dest, _ in drain_deliveries(controller)]
        assert sorted(dests) == list(range(9))

    @pytest.mark.parametrize("mode", ["full", "tree", "gossip"])
    def test_message_complexity_identical_across_modes(self, mode):
        """Relaying reshapes the overlay, never the message count."""
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination=mode
        )
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        assert controller.metrics.counts.sent == 8  # loopback excluded

    def test_loopback_copy_delivered_at_send_time(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="tree"
        )
        controller.clock.advance_to(5.0)
        controller.network.submit(Message(source=4, dest=BROADCAST, payload={"type": "B"}))
        times = {dest: time for time, dest, _ in drain_deliveries(controller)}
        assert times[4] == 5.0
        assert all(t > 5.0 for dest, t in times.items() if dest != 4)

    def test_relayed_arrivals_accumulate(self):
        """With a constant per-hop delay, depth-2 recipients arrive one hop
        later than the relay's own copy — hops chain, they don't flatten."""
        controller = controller_with(
            ScriptedAttacker(Capability.NONE),
            n=9,
            dissemination="tree",
            fanout=2,
            mean=100.0,
            std=0.0,
        )
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        offsets = sorted(time for time, dest, _ in drain_deliveries(controller) if dest != 0)
        # k=2 tree over 9 nodes: 2 hops at depth 1, 4 at depth 2, 2 at depth 3.
        assert offsets == [100.0, 100.0, 200.0, 200.0, 200.0, 200.0, 300.0, 300.0]

    def test_forged_broadcast_uses_full_fanout(self):
        """The adversary injects at each victim directly; the honest relay
        discipline does not apply to forged traffic."""

        def forge(self, message):
            if message.type == "TRIGGER":
                self.ctx.inject(self.ctx.forge(2, BROADCAST, {"type": "EVIL"}))
            return [message]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, forge
        )
        controller = controller_with(attacker, n=6, dissemination="tree")
        controller.attacker_ctx.corrupt(2)
        submit(controller, source=0, dest=1, type="TRIGGER")
        forged = [
            (dest, m)
            for _, dest, m in drain_deliveries(controller)
            if m.type == "EVIL"
        ]
        assert sorted(dest for dest, _ in forged) == list(range(6))
        assert all(m.relay_from is None for _, m in forged)


class TestCopyOnWrite:
    @pytest.mark.parametrize("mode", ["full", "tree", "gossip"])
    def test_tampered_copy_does_not_leak_into_siblings(self, mode):
        """The copies of a broadcast share one payload copy-on-write in
        every mode; an attacker that controls the source is handed a
        private copy (own_payload)."""
        def tamper(self, message):
            if self.ctx.controls_message(message) and message.dest == 1:
                message.payload["evil"] = True
            return [message]

        attacker = ScriptedAttacker(
            Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE, tamper
        )
        controller = controller_with(attacker, n=6, dissemination=mode)
        controller.attacker_ctx.corrupt(2)
        controller.clock.advance_to(1.0)  # corruption must precede the send
        controller.network.submit(Message(source=2, dest=BROADCAST, payload={"type": "B"}))
        by_dest = {dest: m for _, dest, m in drain_deliveries(controller)}
        assert by_dest[1].payload.get("evil") is True
        assert all(
            "evil" not in by_dest[d].payload for d in range(6) if d != 1
        ), "shared payload leaked a per-copy mutation"

    @pytest.mark.parametrize("mode", ["full", "tree", "gossip"])
    def test_shared_tier_shares_one_payload_object(self, mode):
        """Benign broadcasts share a single payload (and message) across all
        recipients, the sender included — the memory contract behind n=1000
        comfort, and why received payloads are read-only in every mode.
        Every recipient shares it on the rows too, unless an attacker that
        controls the message rewrites a copy."""
        from repro import Controller
        from tests.conftest import quick_config

        controller = Controller(quick_config(n=9, dissemination=mode))
        payload = {"type": "B"}
        controller.network.submit(Message(source=0, dest=BROADCAST, payload=payload))
        deliveries = drain_deliveries(controller)
        assert sorted(dest for _, dest, _ in deliveries) == list(range(9))
        assert all(m.payload is payload for _, _, m in deliveries)
        assert len({id(m) for _, _, m in deliveries}) == 1
        assert all(m.dest == BROADCAST for _, _, m in deliveries)


class TestRelayAttribution:
    def test_trace_records_relay_on_dissemination_hops(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="tree", fanout=2
        )
        controller.trace.enabled = True
        controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        sends = controller.trace.events(kind="send")
        assert len(sends) == 8
        relayed = [e for e in sends if e.fields.get("relay") not in (None, 0)]
        assert relayed, "depth>=2 hops must name their relaying node"
        for event in sends:
            assert event.node == 0  # protocol-level source on every hop

    def test_source_stays_protocol_originator(self):
        controller = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="gossip"
        )
        controller.network.submit(Message(source=3, dest=BROADCAST, payload={"type": "B"}))
        assert all(m.source == 3 for _, _, m in drain_deliveries(controller))


class TestSubstreamIsolation:
    def test_gossip_broadcasts_do_not_perturb_unicast_delays(self):
        """Overlay RNG lives on dedicated substreams: interleaving a
        broadcast must not shift the transit-delay stream unicasts draw
        from."""
        plain = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="gossip"
        )
        mixed = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="gossip"
        )
        mixed.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
        a = submit(plain, source=0, dest=1)
        b = submit(mixed, source=0, dest=1)
        assert a.delay == b.delay

    def test_tree_and_gossip_consume_identical_dissemination_draws(self):
        """Both overlays draw the same per-hop delay batch from the same
        substream and attach it to the same heap shape — only the node
        labelling differs (gossip's permutation comes from its own
        substream), so the arrival-time multiset is identical."""
        tree = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="tree"
        )
        gossip = controller_with(
            ScriptedAttacker(Capability.NONE), n=9, dissemination="gossip"
        )
        for controller in (tree, gossip):
            controller.network.submit(
                Message(source=0, dest=BROADCAST, payload={"type": "B"})
            )
        t = sorted(time for time, d, _ in drain_deliveries(tree) if d != 0)
        g = sorted(time for time, d, _ in drain_deliveries(gossip) if d != 0)
        assert len(t) == 8
        assert t == g
