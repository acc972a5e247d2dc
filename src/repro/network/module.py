"""The network module: delay assignment, attacker hand-off, delivery.

Mirrors the paper's §III-A4 flow precisely: a sender hands the network a
message with ``source``/``dest`` set; the network assigns the ``delay``
variable from the configured distribution; the message then passes through
the attacker module, which may tamper with it subject to its capabilities;
surviving messages are registered as message events and dispatched at
``sent_at + delay``.

Every message takes one routine, whatever sent it and whoever acts on it.
Its wire copies are *rows* (one for a unicast, one per recipient for a
broadcast, the sender's loopback aside): the attacker acts on them behind
:func:`repro.attacks.base.row_gate`, which holds it to its declared
capabilities, so an attack implementation that oversteps its threat model
fails the run with :class:`~repro.core.errors.CapabilityError` instead of
silently producing results under a stronger adversary than advertised; the
fault engine's :meth:`~repro.faults.engine.FaultInjector.apply` then edits
the same rows.  One message and one queue cursor serve every row that
shares its payload; a row carries a message of its own only when a
controlling attacker rewrote its payload or the ``corrupt`` fault flagged
it, and forged inserts and duplicates are numbered and queued after their
row (:meth:`NetworkModule._send`).  When nothing can act on a message, the
rows are skipped altogether and the copies go straight to the queue.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..attacks.base import Attacker, AttackerContext, Rows, row_gate
from ..attacks.null import NullAttacker
from ..core.config import NetworkConfig
from ..core.events import MessageEvent
from ..core.message import BROADCAST, Message, estimate_message_bytes
from .delays import DelayModel
from .dissemination import Overlay
from .dissemination import restricted_plan  # noqa: F401 - bench/tracing.py wraps it by name
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller
    from ..faults.engine import FaultInjector


#: The fields that vary between the ``send`` records of one logical message:
#: a direct copy's, and a dissemination hop's.
_DIRECT = ("dest", "msg_id")
_RELAYED = ("dest", "msg_id", "relay")


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

    def __init__(self, controller: "Controller", config: NetworkConfig, rng: np.random.Generator,
                 attacker: Attacker, attacker_ctx: AttackerContext,
                 faults: "FaultInjector | None" = None) -> None:
        self._controller = controller
        self.config = config
        self.delay_model = DelayModel(config, rng)
        self.topology = Topology(controller.n)
        self.attacker = attacker
        self._attacker_ctx = attacker_ctx
        self.faults = faults
        self._delay_override: Callable[[Message, int], float | None] | None = None
        #: ``((attacker, context), row_gate(attacker, context))``.
        self._gate: tuple[tuple, Callable[[Rows, Message], None] | None] = ((), None)
        # "Benign environment": no environmental fault schedule — fixed at
        # construction.  The rest of the shared-tier predicate
        # (``_unobserved``) is re-checked per submission because tests swap
        # the attacker after construction.
        self._benign_env = faults is None
        # Hot-path bindings: one delay draw and one queue push per unicast.
        self._sample_delay = self.delay_model.sample_delay
        self._counts = controller.metrics.counts
        self._push_event = controller.queue.push
        #: Recipients of a full-mode star, shared by every such broadcast.
        self._star_dests = list(range(controller.n))
        # Who hears a wire transmission (the controller's observer seam):
        # ``hook(transmitter, wire_bytes, copies)``; empty in a bare run.
        self._on_send = controller._on_send
        # ``mode="full"`` draws its star from ``network.delay`` like every
        # unicast and never touches the overlay's state.
        self._mode = config.dissemination
        self._overlay = Overlay(
            config, controller.n, self.topology, controller.random_source,
            [] if faults is None else faults.schedule.specs,
        )

    def set_delay_override(
        self, hook: Callable[[Message, int], float | None] | None
    ) -> None:
        """Install (or clear) a delay-override hook.

        When set, ``hook(message, dest)`` prices the copy of ``message`` to
        ``dest`` before the delay model, for every unicast and every copy of
        a ``full`` star that still needs a delay (overlay hops are priced by
        their plan, loopbacks are zero); returning a value in ms uses it
        verbatim, returning ``None`` takes the next ``network.delay`` draw.
        A star asks it for every recipient in destination order and draws
        one block for the copies it left.  This is the supported way to pin
        transit delays from outside — the replay validator uses it to impose
        recorded delays.
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
        # handled right now (one attribute store per logical message).
        message.cause = controller._current_cause
        if message.dest == BROADCAST:
            self._broadcast(message)
        else:
            self._unicast(message)

    def _unobserved(self) -> bool:
        """True when nothing can re-time, drop or mutate a copy.

        Benign environment, a pass-through NullAttacker (exact class:
        subclasses may override ``attack``) and no corrupted node.  Then the
        attacker, the fault engine and the capability checks cannot have
        any effect, and none of them consumes RNG, so skipping the rows
        leaves delay draws, event order and every metric byte-identical.
        Tracing and a delay override are not in the predicate.
        """
        return (
            self._benign_env
            and type(self.attacker) is NullAttacker
            and not self._attacker_ctx._corrupted_since
        )

    # -- sending ----------------------------------------------------------------

    def _broadcast(self, message: Message) -> None:
        """Deliver one broadcast to every node.

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
        """
        controller = self._controller
        now = message.sent_at
        source = message.source
        # Every copy carries an equal payload: the wire size (canonical JSON
        # length) is computed once per broadcast.
        wire_bytes = estimate_message_bytes(message)
        if self._mode == "full" or message.forged:
            plan, relays, dests = None, None, self._star_dests
            loop = None if message.forged else source
            model = self.delay_model
            hops = controller.n - (loop is not None)
        else:
            plan = self._overlay.plan(source, now)
            loop, dests, relays = 0, [source, *plan.dests.tolist()], plan.relays
            model = self._overlay.delays()
            hops = plan.size
        if plan is None and self._delay_override is not None:
            delays = self._star_delays(message, now, loop)
        else:
            delays = model.sample_delays(now, hops)
        if plan is not None:
            delays = plan.arrivals(delays)
        self._send(message, loop, dests, delays, wire_bytes, relays)

    def _unicast(self, message: Message) -> None:
        controller = self._controller
        if message.dest == message.source and not message.forged:
            # An honest message to oneself is a loopback: not on the wire.
            message.msg_id = controller.next_message_id()
            message.delay = 0.0
            self._push_event(MessageEvent(time=message.sent_at, message=message))
            return
        delay = message.delay
        if delay is None:
            override = self._delay_override
            if override is not None:
                delay = override(message, message.dest)
            if delay is None:
                delay = self._sample_delay(message.sent_at)
        wire_bytes = estimate_message_bytes(message)
        if message.forged or not self._unobserved():
            self._send(message, None, [message.dest], [delay], wire_bytes, None)
            return
        # Nothing can act on it: the delivery event is pushed directly, as
        # :meth:`_send` would, without its rows.  A per-run id: global
        # construction counters would leak across runs and break trace-level
        # determinism.
        message.msg_id = controller.next_message_id()
        message.delay = delay
        counts = self._counts
        counts.sent += 1
        counts.bytes_sent += wire_bytes
        if self._on_send:
            self._charge(message.source, wire_bytes, 1)
        if controller.trace.enabled:
            self._record_sends(message, {"size": wire_bytes}, _DIRECT,
                               [(message.dest, message.msg_id)])
        self._push_event(MessageEvent(time=message.sent_at + delay, message=message))

    def _send(self, message: Message, loop: int | None, slots: list[int], delays: Any,
              wire_bytes: int, relays: np.ndarray | None) -> None:
        """The one send routine: the attacker, then the environment, over
        the rows of one message, then its ids, records and queue entries.

        ``slots`` are the recipients in copy order, priced by ``delays``
        (one per row), and ``loop`` is the slot of the sender's loopback
        (``None``: every slot crosses the wire); each other slot is a row,
        relayed by ``relays[row]`` on a dissemination hop.  Slot by slot,
        the copy takes an id, then each insert of its row and each
        duplicate one, and every delivery the next queue handle, a
        duplicate before what it duplicates: the order a copy-by-copy
        network gives them.  A dropped copy leaves its id and handle
        unused.  When nothing can act on the message the rows are skipped:
        one message and one queue entry serve every copy.
        """
        controller = self._controller
        now = message.sent_at
        source = message.source
        hops = len(slots) - (loop is not None)
        controls = False
        dropped = 0
        happened: list[tuple[int, str, float]] = []
        inserted: list[Message] = []
        rows = None
        if message.forged or not self._unobserved():
            ctx = self._attacker_ctx
            controls = ctx.controls_message(message)
            dests = slots if loop is None else slots[:loop] + slots[loop + 1:]
            rows = Rows(message, controls, dests,
                        delays if isinstance(delays, list) else delays.tolist(),
                        controller.next_message_id(0), loop)
            if type(self.attacker) is not NullAttacker and dests:
                # Built again only when a test swaps the attacker or its context.
                if self._gate[0] != (self.attacker, ctx):
                    self._gate = (self.attacker, ctx), row_gate(self.attacker, ctx)
                self._gate[1](rows, message)
            dropped = rows.keep.count(False)
            links = [source] * hops if relays is None else relays.tolist()
            carried, starts, links, dests, delays, keep = self._wire_copies(rows, links)
            inserted = [item for item in carried if item is not None]
            if self.faults is not None:
                happened = self.faults.apply(message, links, dests, delays, keep)
        counts = self._counts
        if controls:
            counts.byzantine += hops
        else:
            counts.sent += hops
        counts.byzantine += len(inserted)
        counts.bytes_sent += hops * wire_bytes
        counts.dropped += dropped
        if self._on_send:
            self._charge(source, wire_bytes, hops, relays)
            for item in inserted:
                self._charge(item.source, 0, 1)
        trace = controller.trace
        if trace.enabled:
            tags: dict[str, Any] = {"size": wire_bytes}
            if controls:
                # ``byzantine`` lets trace consumers (``repro inspect``)
                # reproduce the honest/byzantine split of MessageCounts; a
                # forged send has no honest counterpart, so it also carries
                # origin="attacker".
                tags["byzantine"] = True
            if message.forged:
                tags["origin"] = "attacker"
        queue = controller.queue
        if rows is None or not (dropped or happened or inserted or rows.payloads):
            # Every copy as sent: one message and one cursor serve them all.
            # Copy i has id first + i.
            first = message.msg_id = controller.next_message_id(len(slots))
            if trace.enabled:
                self._record_sends(message, tags, *self._sends(first, loop, slots, relays))
            if message.dest != BROADCAST:
                message.delay = delays[0]
                self._push_event(MessageEvent(time=now + delays[0], message=message))
                return
            queue.push_deliveries(MessageEvent(time=now, message=message),
                                  _times(now, loop, delays), slots)
            return

        events: dict[int, list[tuple[str, float]]] = {}
        for index, kind, value in happened:
            events.setdefault(index, []).append((kind, value))
        first = message.msg_id = controller.next_message_id(
            len(slots) + len(inserted) + sum(kind == "duplicate" for _, kind, _ in happened))
        payloads = rows.payloads or [None] * hops
        record = trace.record if trace.enabled else None
        at: list[int] = []  # the recipient of each handle offset
        # Deliveries of ``message`` by id step (id offset minus handle
        # offset), as handle offsets and times: each step is one cursor.
        steps: dict[int, tuple[list[int], list[float]]] = {}
        # Deliveries with a message of their own: handle offset, time, message.
        own: list[tuple[int, float, Message]] = []

        def deliver(index: int, delay: float, dest: int, sent: Message, corrupted: bool,
                    kept: bool = True) -> None:
            # A dropped copy leaves its handle unused too, so the deliveries
            # after it keep their id step.
            handle = len(at)
            at.append(dest)
            if not kept:
                return
            if sent is message and not corrupted:
                handles, times = steps.setdefault(index - handle, ([], []))
                handles.append(handle)
                times.append(now + delay)
            else:
                own.append((handle, now + delay, Message(
                    sent.source, dest, sent.payload, now, delay, first + index, sent.forged,
                    corrupted, sent.cause)))

        index = 0
        row = -1
        for slot, dest in enumerate(slots):
            slot_id = index
            index += 1
            if slot == loop:
                deliver(slot_id, 0.0, dest, message, False)
                continue
            row += 1
            copies = range(starts[row], starts[row + 1])
            ids = {}
            for item_index in copies:
                if carried[item_index] is None:
                    ids[item_index] = slot_id
                else:
                    ids[item_index] = index
                    index += 1
            sent = message
            if payloads[row] is not None:
                sent = Message(source, dest, payloads[row], now, None, 0, message.forged,
                               cause=message.cause)
            if record is not None:
                send = (dest, first + slot_id) if relays is None else (
                    dest, first + slot_id, int(relays[row]))
                self._record_sends(message, tags, _DIRECT if relays is None else _RELAYED, [send])
                for item_index in copies:
                    item = carried[item_index]
                    if item is not None:
                        self._record_sends(item, {"forged": True, "origin": "attacker"}, _DIRECT,
                                           [(item.dest, first + ids[item_index])])
                if not rows.keep[row]:
                    record(now, "drop", source, dest=dest, msg_type=sent.type,
                           msg_id=first + slot_id)
            for item_index in copies:
                copy = sent if carried[item_index] is None else carried[item_index]
                copy_id = ids[item_index]
                corrupted = copy.corrupted
                notes = []
                for kind, value in events.get(item_index, ()):
                    if kind == "duplicate":
                        deliver(index, value, dests[item_index], copy, corrupted)
                        notes.append(("env-dup", index, {"original": first + copy_id}))
                        index += 1
                    elif kind == "corrupt":
                        if not corrupted:
                            corrupted = True
                            controller.metrics.faults.corrupted += 1
                            notes.append(("env-corrupt", copy_id, {}))
                    elif kind == "delay":
                        notes.append(("env-delay", copy_id, {"factor": value}))
                    else:
                        notes.append(("env-drop", copy_id, {"fault": kind}))
                if record is not None:
                    for kind, note_id, fields in notes:
                        record(now, kind, copy.source, dest=dests[item_index], msg_type=copy.type,
                               msg_id=first + note_id, **fields)
                deliver(copy_id, delays[item_index], dests[item_index], copy, corrupted,
                        keep[item_index])
                if carried[item_index] is None and message.dest != BROADCAST:
                    message.delay = delays[item_index]

        base = queue.reserve(len(at))
        for step, (handles, times) in steps.items():
            shifted = message
            if step:
                # Deliveries whose id is their handle's plus ``step`` share
                # a message numbered to match.
                shifted = message.copy_for(message.dest, share_payload=True)
                shifted.msg_id = first + step
            queue.push_deliveries(MessageEvent(time=now, message=shifted), times, at, handles, base)
        for handle, time, copy in own:
            queue.push_deliveries(MessageEvent(time=now, message=copy), [time], [copy.dest], [0],
                                  base + handle)

    def _wire_copies(self, rows: Rows, links: list[int]) -> tuple:
        """The wire copies the environment meets once the attacker is done:
        row by row, the row's copy, kept or not, then its inserts.

        Returns the insert each copy is (``None``: its row's copy), where
        row ``i``'s copies start (``starts[i]``, up to ``starts[i + 1]``),
        and the links, recipients, delays and keep flags of the copies.  A
        forged insert enters the network now, as a message of its own; a
        ``None`` delay takes the next ``network.delay`` draw."""
        hops = len(rows.dests)
        if rows.inserts is None:
            return [None] * hops, range(hops + 1), links, rows.dests, rows.delays, rows.keep.copy()
        now = rows.message.sent_at
        carried: list[Message | None] = []
        starts = [0]
        columns: tuple[list, ...] = ([], [], [], [])
        for row, dest in enumerate(rows.dests):
            copies = [(links[row], dest, rows.delays[row], rows.keep[row])]
            for item in rows.inserts.get(row, ()):
                item.sent_at = now
                if item.delay is None:
                    item.delay = self.delay_model.sample_delay(now)
                if item.cause is None:
                    item.cause = rows.message.cause
                copies.append((item.source, item.dest, item.delay, True))
            carried += [None, *rows.inserts.get(row, ())]
            for copy in copies:
                for column, value in zip(columns, copy):
                    column.append(value)
            starts.append(len(carried))
        return (carried, starts, *columns)

    def _sends(self, first: int, loop: int | None, slots: list[int],
               relays: np.ndarray | None) -> tuple[tuple[str, ...], list[tuple]]:
        """The ``send`` record keys and rows of a message whose copy in slot
        ``i`` has id ``first + i``."""
        if relays is None:
            return _DIRECT, [(dest, first + slot) for slot, dest in enumerate(slots) if slot != loop]
        return _RELAYED, list(zip(slots[1:], range(first + 1, first + len(slots)), relays.tolist()))

    def _star_delays(self, message: Message, now: float, loop: int | None) -> list[float]:
        """A star's delays under the override, in destination order: the
        hook's value per recipient, and one ``network.delay`` block for the
        copies it leaves at ``None``."""
        override = self._delay_override
        delays = [override(message, dest) for dest in self._star_dests if dest != loop]
        missing = [i for i, delay in enumerate(delays) if delay is None]
        for i, delay in zip(missing, self.delay_model.sample_delays(now, len(missing)).tolist()):
            delays[i] = delay
        return delays

    def _charge(self, source: int, wire_bytes: int, copies: int,
                relays: np.ndarray | None = None) -> None:
        """Tell the send hooks of ``copies`` wire copies of one message, once
        per physical transmitter: all from ``source``, or one from each of
        ``relays`` (a dissemination plan's hops)."""
        charges = ((source, copies),) if relays is None else Counter(relays.tolist()).items()
        for hook in self._on_send:
            for transmitter, sent in charges:
                hook(transmitter, wire_bytes, sent)

    def overlay_relays(self, source: int) -> tuple[int, ...]:
        """Sorted relay (internal) nodes of a ``tree`` broadcast from ``source``
        (see :meth:`Overlay.relays`): what an overlay-aware attack targets."""
        return self._overlay.relays(source)

    def _record_sends(self, message: Message, tags: dict[str, Any], keys: tuple[str, ...],
                      rows: list[tuple]) -> None:
        """The one ``send`` trace record routine: one sink call writes a
        record per row of ``rows``, the ``keys`` values of each copy of
        ``message``.

        ``tags`` are the fields that vary by origin; the relaying node is
        named on dissemination hops only, so direct sends keep the records
        older traces have."""
        controller = self._controller
        payload = message.payload
        fields = {
            "msg_type": message.type,
            **tags,
            "cause": message.cause,
            "slot": payload.get("slot", payload.get("height")),
            "view": payload.get("view", payload.get("round")),
        }
        controller.trace.sink.record_copies(
            controller.clock.now, "send", message.source, fields, keys, rows
        )


def _times(now: float, loop: int | None, delays: Any) -> np.ndarray:
    """The firing time of each slot: ``now`` plus its delay, and ``now``
    itself at the loopback slot ``loop``."""
    if loop is None:
        return np.asarray(delays, dtype=np.float64) + now
    times = np.empty(len(delays) + 1)
    times[:loop] = delays[:loop]
    times[loop] = 0.0
    times[loop + 1:] = delays[loop:]
    return times + now
