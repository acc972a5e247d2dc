"""The network module: delay assignment, attacker hand-off, delivery.

Mirrors the paper's §III-A4 flow precisely: a sender hands the network a
message with ``source``/``dest`` set; the network assigns the ``delay``
variable from the configured distribution; the message then passes through
the attacker module, which may tamper with it subject to its capabilities;
surviving messages are registered as message events and dispatched at
``sent_at + delay``.

The hand-off itself is :func:`repro.attacks.base.capability_gate`: it calls
``attack`` and holds what comes back to the declared capabilities, so an
attack implementation that oversteps its threat model fails the run with
:class:`~repro.core.errors.CapabilityError` instead of silently producing
results under a stronger adversary than advertised.  This module does the
network's part around it: ids, delays, accounting, and the queue.

The recipients of a broadcast share one payload, under attack too: an
attacker may only write to a message it controls, so the snapshot the gate
diffs against is taken once per broadcast and only controlled copies are
un-shared (:meth:`NetworkModule._instrumented`).
"""

from __future__ import annotations

from itertools import chain, count, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from ..attacks.base import Attacker, AttackerContext, Capability, capability_gate
from ..attacks.null import NullAttacker
from ..core.config import NetworkConfig
from ..core.events import MessageEvent
from ..core.message import (
    BROADCAST,
    Message,
    deep_copy_payload,
    estimate_message_bytes,
)
from .delays import DelayModel
from .dissemination import (
    DisseminationPlan,
    TreeShape,
    gossip_labels,
    resolve_fanout,
    restricted_plan,
)
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller
    from ..faults.engine import FaultInjector


def _hops(message: Message, copies: Iterable[tuple]) -> Iterator[Message]:
    """One payload-sharing copy of ``message`` per ``(dest, relay, delay)``."""
    for dest, relay, delay in copies:
        hop = message.copy_for(dest, share_payload=True)
        hop.relay_from = relay
        hop.delay = delay
        yield hop


class NetworkModule:
    """Simulates the peer-to-peer network between nodes.

    Args:
        controller: owning controller (for scheduling and metrics).
        config: network parameters (distribution, bounds, GST).
        rng: dedicated numpy generator for delay sampling.
        attacker: the attack scenario; a pass-through ``NullAttacker`` in
            benign runs.
        faults: the run's environmental fault injector, or ``None`` for a
            fault-free environment.  Applied *after* the attacker, so the
            adversary never observes or controls environment effects.
    """

    def __init__(
        self,
        controller: "Controller",
        config: NetworkConfig,
        rng: np.random.Generator,
        attacker: Attacker,
        attacker_ctx: AttackerContext,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self._controller = controller
        self.config = config
        self.delay_model = DelayModel(config, rng)
        self.topology = Topology(controller.n)
        self.attacker = attacker
        self._attacker_ctx = attacker_ctx
        self.faults = faults
        self._delay_override: Callable[[Message], float | None] | None = None
        # "Benign environment": no environmental fault schedule — fixed at
        # construction.  The rest of the shared-tier predicate
        # (``_unobserved``) is re-checked per submission because tests swap
        # the attacker and set overrides after construction.
        self._benign_env = faults is None
        # Hot-path bindings: one delay draw and one queue push per unicast.
        self._sample_delay = self.delay_model.sample_delay
        self._counts = controller.metrics.counts
        self._push_event = controller.queue.push
        #: Recipients of a full-mode star, shared by every such broadcast.
        self._star_dests = list(range(controller.n))
        # Who hears a wire transmission (the controller's observer seam):
        # ``hook(transmitter, wire_bytes)``; empty in a bare run.
        self._on_send = controller._on_send
        # Overlay state (tree/gossip only).  The shape cache and the two
        # dedicated RNG substreams are created lazily on the first relayed
        # broadcast; ``mode="full"`` never creates them — its star draws
        # from ``network.delay`` like every unicast.
        self._mode = config.dissemination
        self._shape_obj: TreeShape | None = None
        self._diss_model: DelayModel | None = None
        self._gossip_rng: np.random.Generator | None = None
        self._linkdown_specs = (
            [s for s in faults.schedule.specs if s.kind == "link-down"]
            if faults is not None
            else []
        )

    def set_delay_override(self, hook: Callable[[Message], float | None] | None) -> None:
        """Install (or clear) a delay-override hook.

        When set, the hook is consulted before the delay model for every
        message that still needs a delay; returning a value in ms uses it
        verbatim, returning ``None`` falls through to the configured
        distribution.  This is the supported way to pin transit delays from
        outside — the replay validator uses it to impose recorded delays —
        replacing ad-hoc monkey-patching of internals.
        """
        self._delay_override = hook

    # -- public entry point -------------------------------------------------

    def submit(self, message: Message) -> None:
        """Accept a message from a node (or a forged one from the attacker).

        A broadcast reaches every node once; the sender's own copy is
        delivered loopback (zero network delay, invisible to the attacker,
        excluded from message usage, as it never crosses the wire).
        """
        controller = self._controller
        message.sent_at = controller.clock.now
        # Causal lineage: stamp the message with the id of the event being
        # handled right now (one attribute store per logical message; the
        # per-recipient copies of a broadcast inherit it via ``copy_for``).
        message.cause = controller._current_cause
        if message.dest == BROADCAST:
            self._broadcast(message)
        else:
            self._submit_single(message)

    def _unobserved(self) -> bool:
        """True when nothing can re-time, drop or mutate a single copy.

        Benign environment, a pass-through NullAttacker (exact class:
        subclasses may override ``attack``), no corrupted node and no delay
        override.  Then the attacker proxy, the fault engine and the
        capability diffing cannot have any effect, and none of them
        consumes RNG, so skipping them leaves delay draws, event order and
        every metric byte-identical.  Tracing is not in the predicate: the
        shared tier writes the records the per-copy tier would.
        """
        return (
            self._benign_env
            and self._delay_override is None
            and type(self.attacker) is NullAttacker
            and not self._attacker_ctx._corrupted_since
        )

    # -- broadcasts -----------------------------------------------------------

    def _broadcast(self, message: Message) -> None:
        """Deliver one broadcast to every node: the only broadcast routine.

        ``full`` is a depth-1 star priced from ``network.delay`` in
        destination order, with the loopback at index ``source``;
        ``tree``/``gossip`` follow their plan (loopback first, then hops in
        BFS order) priced by one batch from ``network.dissemination``.
        Attacker-forged broadcasts always take the star and have no
        loopback (the copy to the impersonated node crosses the wire too):
        the adversary injects at each victim and is not bound by the honest
        relay discipline.  Every hop is charged at *origination* — its
        ``sent_at`` is the broadcast time and its ``delay`` the cumulative
        path offset (cut-through, see :mod:`repro.network.dissemination`).

        Both tiers reserve the same message ids and queue handles in the
        same order and draw the same delays, so a run may change tier at
        any broadcast without moving an id, a handle or a draw.
        """
        controller = self._controller
        n = controller.n
        now = message.sent_at
        source = message.source
        # Every copy carries an equal payload: the wire size (canonical JSON
        # length) is computed once per broadcast.
        wire_bytes = estimate_message_bytes(message)
        if self._mode == "full" or message.forged:
            plan = None
            model = self.delay_model
            hops = n - 1
        else:
            plan = self._broadcast_plan(source, now)
            model = self._dissemination_delays()
            hops = plan.size

        if not message.forged and self._unobserved():
            # Shared tier: ONE message and ONE delivery event serve every
            # recipient — the queue entry carries each firing time and
            # destination — and counts are bulk-incremented.  The message
            # keeps the first of the ids the per-copy tier would assign.
            delays = model.sample_delays(now, hops)
            times = np.empty(hops + 1)
            if plan is None:
                times[:source] = delays[:source]
                times[source] = 0.0
                times[source + 1:] = delays[source:]
                dests = self._star_dests
            else:
                times[0] = 0.0
                times[1:] = plan.arrivals(delays)
                dests = [source, *plan.dests.tolist()]
            times += now
            first = message.msg_id = controller.next_message_id(hops + 1)
            counts = self._counts
            counts.sent += hops
            counts.bytes_sent += hops * wire_bytes
            for hook in self._on_send:
                # Wire accounting is charged to the physical transmitter.
                for relay in repeat(source, hops) if plan is None else plan.relays.tolist():
                    hook(relay, wire_bytes)
            if controller.trace.enabled:
                # Copy i of the broadcast has id first + i; the loopback
                # (index ``source`` of a star, 0 of an overlay) is not sent.
                if plan is None:
                    sends: Iterable[tuple] = (
                        (dest, first + dest, None) for dest in range(n) if dest != source
                    )
                else:
                    sends = zip(plan.dests.tolist(), count(first + 1), plan.relays.tolist())
                self._record_sends(message, {"size": wire_bytes}, sends)
            controller.queue.push_deliveries(
                MessageEvent(time=now, message=message), times, dests
            )
            return

        # Instrumented tier: one payload-sharing copy per recipient through
        # the attacker and the fault engine.  Overlay hops are priced up
        # front, exactly as in the shared tier; a star copy takes the next
        # ``network.delay`` draw in its turn in the copy loop, so an override
        # or a forged insert that skips or takes a draw mid-broadcast keeps
        # the one stream order.
        if plan is None:
            copies: Iterable[tuple] = zip(range(n), repeat(None), repeat(None))
        else:
            offsets = plan.arrivals(model.sample_delays(now, hops))
            copies = chain(
                [(source, None, None)],
                zip(plan.dests.tolist(), plan.relays.tolist(), offsets.tolist()),
            )
        self._instrumented(
            message,
            _hops(message, copies),
            n if message.forged else hops,
            wire_bytes,
        )

    def _broadcast_plan(self, source: int, now: float) -> DisseminationPlan:
        """The overlay for one broadcast rooted at ``source`` at time ``now``.

        On the pristine complete graph with no active ``link-down`` window
        this is the cached k-ary shape (tree) or a fresh heap attachment of
        one drawn permutation (gossip).  Otherwise it falls back to a
        breadth-first spanning of the reachable component over currently
        usable links — gossip's permutation becomes the visit priority, so
        both branches consume identical RNG.
        """
        n = self._controller.n
        topology = self.topology
        restricted = not topology.is_complete()
        if not restricted:
            for spec in self._linkdown_specs:
                if spec.in_window(now):
                    restricted = True
                    break
        if self._mode == "gossip":
            labels = gossip_labels(self._gossip_generator(), n, source)
            if restricted:
                return restricted_plan(source, n, self._usable_at(now), labels)
            return self._shape().plan_from_labels(labels)
        if restricted:
            return restricted_plan(source, n, self._usable_at(now))
        return self._shape().plan(source)

    def _usable_at(self, now: float) -> Callable[[int, int], bool]:
        """Directed-link usability predicate at origination time ``now``."""
        topology = self.topology
        active = [s for s in self._linkdown_specs if s.in_window(now)]

        def usable(a: int, b: int) -> bool:
            if not topology.connected(a, b):
                return False
            for spec in active:
                if spec.matches_link(a, b):
                    return False
            return True

        return usable

    def overlay_relays(self, source: int) -> tuple[int, ...]:
        """Sorted relay (internal) nodes of a ``tree`` broadcast from ``source``.

        Structural overlay introspection for overlay-aware attacks: the
        non-root nodes that forward a tree broadcast rooted at ``source``.
        The tree shape is deterministic and RNG-free, so calling this never
        perturbs delay draws or fingerprints.  ``full`` dissemination has no
        relays and ``gossip`` draws a fresh overlay per broadcast (no static
        choke point), so both return an empty tuple.
        """
        if self._mode != "tree" or self._controller.n <= 1:
            return ()
        plan = self._shape().plan(source)
        return tuple(sorted(set(plan.relays.tolist()) - {source}))

    def _shape(self) -> TreeShape:
        shape = self._shape_obj
        if shape is None:
            n = self._controller.n
            shape = self._shape_obj = TreeShape(
                n, resolve_fanout(self.config.fanout, n)
            )
        return shape

    def _gossip_generator(self) -> np.random.Generator:
        rng = self._gossip_rng
        if rng is None:
            rng = self._gossip_rng = self._controller.random_source.numpy(
                "network.gossip"
            )
        return rng

    def _dissemination_delays(self) -> DelayModel:
        model = self._diss_model
        if model is None:
            model = self._diss_model = DelayModel(
                self.config,
                self._controller.random_source.numpy("network.dissemination"),
            )
        return model

    # -- internals ----------------------------------------------------------

    def _submit_single(self, message: Message) -> None:
        if message.forged or not self._unobserved():
            # An honest message to oneself is a loopback: not on the wire.
            wire = int(message.forged or message.dest != message.source)
            self._instrumented(message, (message,), wire, estimate_message_bytes(message))
            return
        # Unicast on the shared tier's terms: the send is honest, the delay
        # draw is the only RNG consumption, and the delivery event is
        # pushed directly.
        controller = self._controller
        # Re-key the message with a per-run id: global construction counters
        # would leak across runs and break trace-level determinism.
        message.msg_id = controller.next_message_id()
        if message.dest == message.source:
            message.delay = 0.0
            self._push_event(MessageEvent(time=message.sent_at, message=message))
            return
        wire_bytes = estimate_message_bytes(message)
        counts = self._counts
        counts.sent += 1
        counts.bytes_sent += wire_bytes
        for hook in self._on_send:
            hook(message.source, wire_bytes)
        if controller.trace.enabled:
            self._record_sends(message, {"size": wire_bytes})
        delay = message.delay
        if delay is None:
            delay = message.delay = self._sample_delay(message.sent_at)
        self._push_event(
            MessageEvent(time=message.sent_at + delay, message=message)
        )

    def _instrumented(
        self, message: Message, copies: Iterable[Message], wire: int, wire_bytes: int
    ) -> None:
        """The instrumented tier: every copy of one logical message — the
        hops of a broadcast, or one unicast — through the attacker, the
        fault engine and onto the queue.

        ``wire`` of the ``copies`` cross the wire (a loopback does not).
        Whatever is the same for every copy is decided once, before the
        loop: source and send time are shared, and corruption only counts
        strictly before the send, so a node corrupted mid-broadcast never
        changes who controls it.  Payloads stay shared copy-on-write: an
        uncontrolled payload is read-only for the attacker, so one pristine
        snapshot (also handed to a composite's clauses through the context)
        serves the diff of every copy, and only copies the attacker
        controls — and may therefore mutate — are un-shared.
        """
        controller = self._controller
        ctx = self._attacker_ctx
        source = message.source
        now = message.sent_at
        honest = not message.forged
        controls = ctx.controls_message(message)
        counts = self._counts
        if controls:
            counts.byzantine += wire
        else:
            counts.sent += wire
        counts.bytes_sent += wire * wire_bytes
        on_send = self._on_send
        tags: dict[str, Any] | None = None
        if controller.trace.enabled:
            # ``byzantine`` lets trace consumers (``repro inspect``)
            # reproduce the honest/byzantine split of MessageCounts.
            # Attacker-*inserted* messages additionally carry
            # origin="attacker": a forged send has no honest counterpart, so
            # lineage and message-usage reconciliation must be able to tell
            # insertion from corruption of an honest sender.
            tags = {"size": wire_bytes}
            if controls:
                tags["byzantine"] = True
            if not honest:
                tags["origin"] = "attacker"
        override = self._delay_override
        sample = self.delay_model.sample_delay
        # ``NullAttacker.attack`` returns None: it cannot drop, re-time or
        # mutate, so there is no gate to pass and nothing to diff.  The gate
        # is built per logical message: tests swap attacker and context
        # after construction.
        gate = snapshot = None
        if type(self.attacker) is not NullAttacker:
            gate = capability_gate(self.attacker.attack, ctx)
            if not controls and Capability.OBSERVE in ctx.capabilities:
                snapshot = deep_copy_payload(message.payload)
        # Environmental faults act after the adversary: the attacker has no
        # visibility into (or control over) what the benign environment then
        # loses, duplicates, corrupts, or re-times.
        apply_faults = None if self.faults is None else self.faults.apply
        next_id = controller.next_message_id
        push = self._push_event
        # An ``inject`` from inside ``attack`` re-enters: put back what the
        # outer hand-off published.
        outer = ctx.pristine_payload
        try:
            for hop in copies:
                hop.msg_id = next_id()  # per-run id, as in ``_submit_single``
                if hop.dest == source and honest:
                    hop.delay = 0.0
                    push(MessageEvent(time=now, message=hop))
                    continue
                for hook in on_send:
                    # Charged to the physical transmitter: the relay for
                    # dissemination hops, the origin otherwise.
                    relay = hop.relay_from
                    hook(source if relay is None else relay, wire_bytes)
                if tags is not None:
                    self._record_sends(hop, tags)
                delay = hop.delay
                if delay is None:
                    if override is not None:
                        delay = override(hop)
                    if delay is None:
                        delay = sample(now)
                    hop.delay = delay
                survivors: Iterable[Message] = (hop,)
                if gate is not None:
                    if controls:
                        hop.own_payload()
                    returned = gate(hop, controls, snapshot)
                    if returned is not None:
                        self._book(hop, returned)
                        survivors = returned
                for survivor in survivors:
                    if apply_faults is None:
                        push(MessageEvent(
                            time=survivor.sent_at + survivor.delay, message=survivor
                        ))
                    else:
                        for delivered in apply_faults(survivor):
                            push(MessageEvent(
                                time=delivered.sent_at + delivered.delay,
                                message=delivered,
                            ))
        finally:
            ctx.pristine_payload = outer

    def _record_sends(
        self,
        message: Message,
        tags: dict[str, Any],
        copies: Iterable[tuple] | None = None,
    ) -> None:
        """The one ``send`` trace record, once per ``(dest, msg_id, relay)``
        in ``copies`` (default: ``message`` itself, one copy).

        ``tags`` are the fields that vary by origin; the relaying node is
        named on dissemination hops only, so direct sends keep the records
        older traces have."""
        if copies is None:
            copies = ((message.dest, message.msg_id, message.relay_from),)
        record = self._controller.trace.record
        now = self._controller.clock.now
        source = message.source
        msg_type = message.type
        cause = message.cause
        payload = message.payload
        slot = payload.get("slot", payload.get("height"))
        view = payload.get("view", payload.get("round"))
        for dest, msg_id, relay in copies:
            record(
                now, "send", source,
                dest=dest, msg_type=msg_type, msg_id=msg_id,
                **tags, cause=cause, slot=slot, view=view,
                **({} if relay is None else {"relay": relay}),
            )

    def _book(self, hop: Message, delivered: list[Message]) -> None:
        """Account for an explicit ``attack`` return: every forged insert
        enters the network as a message of its own, in the attacker's
        order, and a ``hop`` that is not among ``delivered`` was dropped."""
        controller = self._controller
        dropped = True
        for item in delivered:
            if item is hop:
                dropped = False
                continue
            # Per-run id, as for every other message: the one it was
            # constructed with comes from a process-wide counter.
            item.msg_id = controller.next_message_id()
            if item.delay is None:
                item.delay = self.delay_model.sample_delay(item.sent_at)
            self._counts.byzantine += 1
            for hook in self._on_send:
                hook(item.source, 0)
            if controller.trace.enabled:
                if item.cause is None:
                    item.cause = controller._current_cause
                self._record_sends(item, {"forged": True, "origin": "attacker"})
        if dropped:
            self._counts.dropped += 1
            controller.trace.record(
                controller.clock.now, "drop", hop.source,
                dest=hop.dest, msg_type=hop.type, msg_id=hop.msg_id,
            )
