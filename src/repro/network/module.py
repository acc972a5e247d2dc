"""The network module: delay assignment, attacker hand-off, delivery.

Mirrors the paper's §III-A4 flow precisely: a sender hands the network a
message with ``source``/``dest`` set; the network assigns the ``delay``
variable from the configured distribution; the message then passes through
the attacker module, which may tamper with it subject to its capabilities;
surviving messages are registered as message events and dispatched at
``sent_at + delay``.

The capability rules declared in :mod:`repro.attacks.base` are *enforced*
here, by diffing what the attacker returns against a snapshot of what it was
given.  An attack implementation that oversteps its declared threat model
fails the run with :class:`~repro.core.errors.CapabilityError` instead of
silently producing results under a stronger adversary than advertised.
"""

from __future__ import annotations

import time as _time
from itertools import chain, count, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from ..attacks.base import Attacker, AttackerContext, Capability, REDACTED_PAYLOAD
from ..attacks.null import NullAttacker
from ..core.config import NetworkConfig
from ..core.errors import CapabilityError
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
        self._profiler = controller.profiler
        # "Benign environment": no environmental fault schedule and no
        # profiler — both fixed at construction.  The rest of the shared-tier
        # predicate (``_unobserved``) is re-checked per submission because
        # tests swap the attacker and set overrides after construction.
        self._benign_env = faults is None and controller.profiler is None
        # Hot-path bindings: one delay draw and one queue push per unicast.
        self._sample_delay = self.delay_model.sample_delay
        self._counts = controller.metrics.counts
        self._push_event = controller.queue.push
        #: Recipients of a full-mode star, shared by every such broadcast.
        self._star_dests = list(range(controller.n))
        # Simulated-time metrics registry (or None), bound once: like the
        # profiler it is fixed for the controller's lifetime.
        self._obs = controller.obs_metrics
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
            obs = self._obs
            if obs is not None:
                # Wire accounting is charged to the physical transmitter.
                for relay in repeat(source, hops) if plan is None else plan.relays.tolist():
                    obs.on_send(relay, wire_bytes)
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

        # Instrumented tier: one copy per recipient through the single-
        # message path (attacker proxying, fault engine, tracing).  Payloads
        # are shared copy-on-write; ``_run_attacker`` un-shares before any
        # non-null attacker can mutate.  The star draws per copy, because a
        # forged insert or a delay override consumes or skips
        # ``network.delay`` draws mid-broadcast; overlay hops are priced up
        # front, exactly as in the shared tier.
        if plan is None:
            copies: Iterable[tuple] = ((dest, None, None) for dest in range(n))
        else:
            offsets = plan.arrivals(model.sample_delays(now, hops))
            copies = chain(
                [(source, None, None)],
                zip(plan.dests.tolist(), plan.relays.tolist(), offsets.tolist()),
            )
        for dest, relay, delay in copies:
            hop = message.copy_for(dest, share_payload=True)
            hop.relay_from = relay
            hop.delay = delay
            self._submit_single(hop, wire_bytes)

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

    def _submit_single(self, message: Message, wire_bytes: int | None = None) -> None:
        controller = self._controller
        # Re-key the message with a per-run id: global construction counters
        # would leak across runs and break trace-level determinism.
        message.msg_id = controller.next_message_id()
        if message.dest == message.source and not message.forged:
            message.delay = 0.0
            controller.schedule_delivery(message)
            return

        if wire_bytes is None:
            wire_bytes = estimate_message_bytes(message)

        if not message.forged and self._unobserved():
            # Unicast on the shared tier's terms: the send is honest, the
            # delay draw is the only RNG consumption, and the delivery event
            # is pushed directly.
            counts = self._counts
            counts.sent += 1
            counts.bytes_sent += wire_bytes
            obs = self._obs
            if obs is not None:
                obs.on_send(message.source, wire_bytes)
            if controller.trace.enabled:
                self._record_sends(message, {"size": wire_bytes})
            delay = message.delay
            if delay is None:
                delay = message.delay = self._sample_delay(message.sent_at)
            self._push_event(
                MessageEvent(time=message.sent_at + delay, message=message)
            )
            return

        byzantine = message.forged or self._attacker_ctx.controls_message(message)
        controller.metrics.on_sent(byzantine=byzantine)
        controller.metrics.on_bytes(wire_bytes)
        # Wire accounting is charged to the physical transmitter: the relay
        # for dissemination hops, the protocol-level source otherwise.
        relay = message.relay_from
        if self._obs is not None:
            self._obs.on_send(relay if relay is not None else message.source, wire_bytes)
        if controller.trace.enabled:
            # ``byzantine`` lets trace consumers (``repro inspect``)
            # reproduce the honest/byzantine split of MessageCounts.
            # Attacker-*inserted* messages additionally carry
            # origin="attacker": a forged send has no honest counterpart, so
            # lineage and message-usage reconciliation must be able to tell
            # insertion from corruption of an honest sender.
            tags: dict[str, Any] = {"size": wire_bytes}
            if byzantine:
                tags["byzantine"] = True
            if message.forged:
                tags["origin"] = "attacker"
            self._record_sends(message, tags)
        prof = self._profiler
        if message.delay is None:
            if self._delay_override is not None:
                message.delay = self._delay_override(message)
            if message.delay is None:
                if prof is None:
                    message.delay = self.delay_model.sample_delay(message.sent_at)
                else:
                    t0 = _time.perf_counter()
                    message.delay = self.delay_model.sample_delay(message.sent_at)
                    prof.add("network.delay", t0)
        if type(self.attacker) is NullAttacker:
            # ``NullAttacker.attack`` returns None: it cannot drop, re-time
            # or mutate, so the proxy, the snapshot and the diffing of
            # ``_run_attacker`` have nothing to check.
            survivors: Iterable[Message] = (message,)
        elif prof is None:
            survivors = self._run_attacker(message)
        else:
            t0 = _time.perf_counter()
            survivors = self._run_attacker(message)
            prof.add("attacker.attack", t0)
        for survivor in survivors:
            if self.faults is None:
                controller.schedule_delivery(survivor)
            else:
                # Environmental faults act after the adversary: the attacker
                # has no visibility into (or control over) what the benign
                # environment then loses, duplicates, corrupts, or re-times.
                if prof is None:
                    delivered_batch = self.faults.apply(survivor)
                else:
                    t0 = _time.perf_counter()
                    delivered_batch = self.faults.apply(survivor)
                    prof.add("faults.apply", t0)
                for delivered in delivered_batch:
                    controller.schedule_delivery(delivered)

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

    def _run_attacker(self, message: Message) -> Iterable[Message]:
        """Pass one message through the attacker and enforce capabilities."""
        ctx = self._attacker_ctx
        # Copy-on-write boundary: the copies of a broadcast share one
        # payload object.  The attacker may legitimately mutate a controlled
        # message in place, which must never leak into sibling copies —
        # un-share first.  (The genuine NullAttacker never gets here, so
        # trace-only runs keep sharing.)
        message.own_payload()
        observable = (
            Capability.OBSERVE in ctx.capabilities or ctx.controls_message(message)
        )
        if observable:
            proxy = message
        else:
            proxy = Message(
                source=message.source,
                dest=message.dest,
                payload=dict(REDACTED_PAYLOAD),
                sent_at=message.sent_at,
                delay=message.delay,
                msg_id=message.msg_id,
            )
        snapshot_payload = deep_copy_payload(message.payload)
        snapshot_delay = message.delay

        returned = self.attacker.attack(proxy)
        if returned is None:
            returned = [proxy]
        returned = list(returned)

        survivors: list[Message] = []
        kept = False
        for item in returned:
            if item.msg_id == message.msg_id:
                kept = True
                survivors.append(
                    self._apply_kept(message, proxy, item, snapshot_payload, snapshot_delay)
                )
            elif item.forged:
                if item.delay is None:
                    item.delay = self.delay_model.sample_delay(item.sent_at)
                survivors.append(item)
                self._controller.metrics.on_sent(byzantine=True)
                if self._obs is not None:
                    self._obs.on_send(item.source, 0)
                if self._controller.trace.enabled:
                    if item.cause is None:
                        item.cause = self._controller._current_cause
                    self._record_sends(item, {"forged": True, "origin": "attacker"})
            else:
                raise CapabilityError(
                    "attacker returned a message it neither received nor forged: "
                    f"{item.describe()}"
                )
        if not kept:
            self._require_drop_rights(message)
            self._controller.metrics.on_dropped()
            self._controller.trace.record(
                self._controller.clock.now, "drop", message.source,
                dest=message.dest, msg_type=message.type, msg_id=message.msg_id,
            )
        return survivors

    def _apply_kept(
        self,
        message: Message,
        proxy: Message,
        item: Message,
        snapshot_payload: dict,
        snapshot_delay: float | None,
    ) -> Message:
        """Validate and apply the attacker's changes to a kept message."""
        ctx = self._attacker_ctx
        if item.payload != snapshot_payload and proxy is message:
            if not ctx.controls_message(message):
                raise CapabilityError(
                    f"attacker modified payload of honest message {message.describe()}; "
                    "modification requires control of the source "
                    "(corruption strictly before the send)"
                )
        if proxy is not message:
            # Redacted view: only the delay may carry information back.
            if item.payload != REDACTED_PAYLOAD:
                raise CapabilityError(
                    "attacker without OBSERVE modified a redacted payload"
                )
            message.delay = item.delay
        if message.delay != snapshot_delay:
            if (
                Capability.NETWORK not in ctx.capabilities
                and not ctx.controls_message(message)
            ):
                raise CapabilityError(
                    f"attacker re-timed message {message.describe()} without the "
                    "NETWORK capability"
                )
            if message.delay is None or message.delay < 0:
                raise CapabilityError("attacker assigned an invalid delay")
        return message

    def _require_drop_rights(self, message: Message) -> None:
        ctx = self._attacker_ctx
        if Capability.NETWORK in ctx.capabilities:
            return
        if ctx.controls_message(message):
            return
        raise CapabilityError(
            f"attacker dropped honest message {message.describe()} without the "
            "NETWORK capability"
        )
