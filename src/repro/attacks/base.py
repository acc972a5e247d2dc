"""The abstracted global attacker framework.

This is the paper's central design departure from prior simulators
(§I, §III-A5): instead of instantiating individual Byzantine nodes, a single
*global attacker* sits between the network module and delivery.  Every
message passes through it, so rushing behaviour (acting after seeing honest
messages) comes for free, and adaptive corruption is a first-class operation
rather than a pre-simulation configuration.

The threat model is enforced centrally and explicitly through
*capabilities*:

``OBSERVE``
    read the contents of honest messages in flight (rushing attackers);
    without it the attacker sees only redacted envelopes (source,
    destination, timing).
``NETWORK``
    manipulate the network itself: delay or drop arbitrary messages
    (partition attacks, targeted delay injection).
``BYZANTINE``
    corrupt up to ``f`` nodes and fully control them afterwards: drop or
    rewrite their outgoing messages and forge new ones in their name.
``ADAPTIVE``
    corrupt nodes *during* execution.  Without it corruption is only legal
    at simulation time zero (a static attacker).

Two rules are load-bearing for the paper's Fig. 8 result and are enforced
here rather than in any protocol:

1. **Corruption budget** — at most ``f`` nodes may ever be corrupted.
2. **No after-the-fact retraction** — corrupting a node at time *t* gives
   control only over messages *sent strictly after t*.  Messages already in
   flight are delivered untouched.  This is exactly what separates ADD+v2
   (credential revealed one step before the proposal: the adaptive attacker
   wins the race) from ADD+v3 (credential and proposal bound in the same
   send: too late to retract).

What an attacker does *to a message* — the view it is shown, and what it
may hand back — is checked by :func:`row_gate`, which both the network
module (for the attacker as a whole) and the scenario composite (for each
clause) call once per message.  Every message reaches it as
:class:`Rows`, one per wire copy: the attacker acts on all of them at once
through :meth:`Attacker.attack_broadcast`, or, when its class overrides
:meth:`Attacker.attack` instead, on each row's copy in turn.
"""

from __future__ import annotations

import enum
import random
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..core.errors import CapabilityError, CorruptionBudgetError
from ..core.events import ATTACKER_OWNER, TimeEvent
from ..core.message import Message, deep_copy_payload
from ..core.node import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.config import SimulationConfig
    from ..core.controller import Controller
    from ..network.topology import Topology
    from ..observability.signals import LiveSignals


class Capability(enum.Flag):
    """Attacker capabilities; combine with ``|``."""

    NONE = 0
    OBSERVE = enum.auto()
    NETWORK = enum.auto()
    BYZANTINE = enum.auto()
    ADAPTIVE = enum.auto()


#: Payload substituted when a non-observing attacker inspects honest traffic.
REDACTED_PAYLOAD: dict[str, Any] = {"type": "<redacted>"}

#: What the two gates say when a party oversteps, after its name.
_EDITED = ("modified the payload of honest message {}; modification requires "
           "control of the source (corruption strictly before the send)")
_DROPPED = "dropped honest message {} without the NETWORK capability"
_RETIMED = "re-timed message {} without the NETWORK capability"
_REDACTED = "modified a redacted payload without OBSERVE"


class AttackerContext:
    """The attacker's handle on the simulation, provided by the controller.

    All attacker-side effects (corruption, forgery, timers) go through this
    object so the capability and budget rules live in exactly one place.
    """

    def __init__(self, controller: "Controller", capabilities: Capability,
                 who: str = "attacker") -> None:
        self._controller = controller
        self.capabilities = capabilities
        #: The party acting through this context, as per-message capability
        #: errors name it: the attacker, or one clause of a scenario.
        self.who = who
        self._corrupted_since: dict[int, float] = {}
        #: Published by :func:`row_gate` while it calls this party: the
        #: :class:`Rows` of the message in hand, ``None`` between messages.
        self.rows: Rows | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self._controller.clock.now

    @property
    def n(self) -> int:
        return self._controller.n

    @property
    def f(self) -> int:
        return self._controller.f

    @property
    def lam(self) -> float:
        return self._controller.config.lam

    @property
    def config(self) -> "SimulationConfig":
        return self._controller.config

    @property
    def topology(self) -> "Topology":
        return self._controller.network.topology

    def rng(self, name: str = "attacker") -> random.Random:
        """Deterministic random stream for attacker decisions."""
        return self._controller.shared_rng(f"attack.{name}")

    @property
    def signals(self) -> "LiveSignals":
        """Live run-progress signals (see :mod:`repro.observability.signals`).

        Available only to attackers that declare ``wants_signals = True``
        (the controller then maintains the counters) **and** hold the
        ``OBSERVE`` capability: the run's own progress telemetry — who is
        straggling, who keeps closing quorums — is rushing-adversary
        knowledge, reserved for observing attackers.

        Raises:
            CapabilityError: without ``OBSERVE``, or when the run's attacker
                did not declare ``wants_signals`` (the table may still exist
                for health or metrics; it is not the attacker's to read).
        """
        if Capability.OBSERVE not in self.capabilities:
            raise CapabilityError(
                "reading live run signals requires the OBSERVE capability"
            )
        signals = self._controller.signals
        if signals is None or not self._controller.attacker.wants_signals:
            raise CapabilityError(
                "live signals are read only by an attacker class that "
                "declares wants_signals = True"
            )
        return signals

    def overlay_relays(self, root: int) -> tuple[int, ...]:
        """The relay nodes a ``tree`` broadcast from ``root`` routes through.

        Structural knowledge of the dissemination overlay — the set of
        internal (non-root) nodes of the spanning tree every broadcast from
        ``root`` rides.  Delaying exactly these nodes chokes the overlay
        without touching the root itself.  Requires the ``NETWORK``
        capability (it is network-topology knowledge, not message content).

        Returns an empty tuple for ``full`` dissemination (no relays) and
        for ``gossip`` (the relay set is drawn per broadcast — there is no
        static choke point to target).

        Raises:
            CapabilityError: without ``NETWORK``.
        """
        if Capability.NETWORK not in self.capabilities:
            raise CapabilityError(
                "overlay introspection requires the NETWORK capability"
            )
        return self._controller.network.overlay_relays(root)

    # -- corruption ---------------------------------------------------------

    @property
    def corrupted(self) -> frozenset[int]:
        """Nodes corrupted so far (at any time)."""
        return frozenset(self._corrupted_since)

    @property
    def budget_remaining(self) -> int:
        return self.f - len(self._corrupted_since)

    def controls_message(self, message: Message) -> bool:
        """True when the attacker legitimately controls ``message``:
        forged by it, or sent by a node corrupted strictly before the send.
        """
        if message.forged:
            return True
        since = self._corrupted_since.get(message.source)
        return since is not None and since < message.sent_at

    def corrupt(self, node: int) -> None:
        """Corrupt ``node`` from the current instant onward.

        Raises:
            CapabilityError: without ``BYZANTINE``; or when corrupting after
                time zero without ``ADAPTIVE``.
            CorruptionBudgetError: when more than ``f`` nodes would be
                corrupted.
        """
        if Capability.BYZANTINE not in self.capabilities:
            raise CapabilityError("corrupting nodes requires the BYZANTINE capability")
        if node in self._corrupted_since:
            return
        if self.now > 0 and Capability.ADAPTIVE not in self.capabilities:
            raise CapabilityError(
                f"static attacker tried to corrupt node {node} at t={self.now:.1f}; "
                "corruption after start requires the ADAPTIVE capability"
            )
        if len(self._corrupted_since) >= self.f:
            raise CorruptionBudgetError(
                f"corruption budget exhausted (f={self.f}); cannot corrupt node {node}"
            )
        if not 0 <= node < self.n:
            raise CapabilityError(f"no such node: {node}")
        self._corrupted_since[node] = self.now
        self._controller.on_node_corrupted(node)

    def crash(self, node: int) -> None:
        """Fail-stop ``node``: corrupt it and never speak for it.

        Provided for readability in fail-stop attacks; identical to
        :meth:`corrupt` at the framework level (the paper models fail-stop
        as the weakest Byzantine behaviour, §III-C).
        """
        self.corrupt(node)

    # -- forgery ---------------------------------------------------------

    def forge(self, source: int, dest: int, payload: dict[str, Any],
              delay: float | None = None) -> Message:
        """Create a message in a corrupted node's name.

        The message is *not* sent automatically; return it from
        ``Attacker.attack`` or pass it to :meth:`inject`.

        Raises:
            CapabilityError: if ``source`` is not currently corrupted (the
                crypto layer's unforgeability stand-in) or the attacker lacks
                ``BYZANTINE``.
        """
        self.require_forge_rights(source)
        return Message(
            source=source,
            dest=dest,
            payload=deep_copy_payload(payload),
            sent_at=self.now,
            delay=delay,
            forged=True,
        )

    def require_forge_rights(self, source: int) -> None:
        """Raise unless this attacker may speak in ``source``'s name.

        The one forgery rule, applied by :meth:`forge` and again to every
        forged message that enters the network (:meth:`inject`, or returned
        from ``attack``) — a hand-built ``Message(forged=True)`` gets no
        further than one made by :meth:`forge`.
        """
        if Capability.BYZANTINE not in self.capabilities:
            raise CapabilityError("forging messages requires the BYZANTINE capability")
        if source not in self._corrupted_since:
            raise CapabilityError(
                f"cannot forge a message from honest node {source}: "
                "signatures of honest nodes are unforgeable"
            )

    def require_valid_delay(self, delay: float | None) -> None:
        """Raise unless ``delay`` can schedule a delivery: a finite number
        of milliseconds, not negative.  Anything else (NaN included) would
        break the queue's ``(time, handle)`` order or move the clock back."""
        if delay is None or not 0 <= delay < inf:
            raise CapabilityError(f"{self.who} assigned an invalid delay: {delay!r}")

    def inject(self, message: Message) -> None:
        """Send a forged message outside of an ``attack`` callback
        (e.g. from an attacker timer).  A ``None`` delay is sampled."""
        if not message.forged:
            raise CapabilityError("inject() only accepts messages created by forge()")
        self.require_forge_rights(message.source)
        if message.delay is not None:
            self.require_valid_delay(message.delay)
        self._controller.network.submit(message)

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, name: str, **data: Any) -> TimerHandle:
        """Register an attacker time event ``delay`` ms from now."""
        return self._controller.register_timer(ATTACKER_OWNER, delay, name, data)

    def cancel_timer(self, handle: TimerHandle) -> None:
        self._controller.cancel_timer(handle)


class Rows:
    """The wire copies of one message, as the attacker acts on them.

    Row ``i`` is the copy for ``dests[i]`` with transit delay ``delays[i]``,
    delivered while ``keep[i]``: a unicast is one row, a broadcast one per
    recipient but its sender's loopback.  Two more columns hold what a
    row's flags cannot, and stay ``None`` until a row needs them:
    ``payloads[i]``, the payload of its own a row of a controlled message
    takes when it is shown alone (``None`` while it shares
    ``message.payload``), and ``inserts[i]``, the forged messages queued
    after the row's copy, in the attacker's order.

    ``snapshot`` is the payload as it was before any attacker saw it, taken
    by the first gate that shows an uncontrolled message's payload; every
    party's diff compares against that one copy.
    """

    __slots__ = ("message", "controls", "dests", "delays", "keep", "payloads", "inserts",
                 "snapshot", "_first_id", "_loop")

    def __init__(self, message: Message, controls: bool, dests: list[int],
                 delays: list[float], first_id: int, loop: int | None = None) -> None:
        self.message = message
        #: The attacker as a whole controls ``message``: every restriction
        #: of the gate below is lifted.
        self.controls = controls
        self.dests = dests
        self.delays = delays
        self.keep = [True] * len(dests)
        self.payloads: list[dict[str, Any] | None] | None = None
        self.inserts: dict[int, list[Message]] | None = None
        self.snapshot: dict[str, Any] | None = None
        self._first_id = first_id
        self._loop = loop

    def view_id(self, row: int) -> int:
        """The id a view of row ``row`` shows: its copy's own when no row
        before it delivers an insert or a duplicate (always, for a
        unicast).  The copies take ids from ``first_id`` up, the sender's
        loopback (at slot ``loop``) included."""
        return self._first_id + row + (self._loop is not None and row >= self._loop)


def row_gate(
    attacker: "Attacker", ctx: AttackerContext
) -> Callable[[Rows, Message], None]:
    """The one place an attacker is called, and held to ``ctx``'s capabilities.

    Built by the network module for the attacker as a whole and by a
    scenario composite for each of its clauses, then called once per
    message as ``gate(rows, message)``: ``message`` is what the caller was
    handed (the message, or a composite's redacted envelope), and the gate
    acts on the rows still kept.  It publishes ``rows`` as ``ctx.rows``
    while it calls the attacker, which is how a composite reaches them.

    A class whose nearest hook is :meth:`Attacker.attack` is called once
    per row, on a view of that row's copy: the message, a redacted
    envelope without ``OBSERVE``, or under control a private copy of the
    row's payload.  What it returns folds into the row's delay, keep flag,
    payload and inserts.  Any other class is called once, through
    :meth:`Attacker.attack_broadcast`, over the kept rows; the message it
    is shown is the one every row carries.

    Either way the rules are the threat model's: an uncontrolled payload
    must still equal ``rows.snapshot`` afterwards, and a redacted one comes
    back untouched; a copy is kept at most once, and whatever else comes
    back is a forgery ``ctx`` may make; then, row by row, a dropped or
    re-timed copy needs ``NETWORK`` (or control) and a re-timed one a valid
    delay.  A :class:`CapabilityError` starts with ``ctx.who`` and names the
    copy of the first row that oversteps.
    """
    # Bound once: an ``enum.Flag`` test costs as much as a small call.
    observe = Capability.OBSERVE in ctx.capabilities
    network = Capability.NETWORK in ctx.capabilities
    who = ctx.who
    # The hook the attacker's class defines nearest to itself (``Attacker``
    # defines both, and a class defining both acts on broadcasts).
    per_row = next(
        "attack_broadcast" not in vars(klass) for klass in type(attacker).__mro__
        if "attack" in vars(klass) or "attack_broadcast" in vars(klass)
    )

    def name(message: Message, dest: int, payload: dict[str, Any] | None = None) -> str:
        """How an error names the copy of ``message`` for ``dest``."""
        if payload is None:
            payload = message.payload
        return Message(message.source, dest, payload, message.sent_at, None,
                       message.msg_id).describe()

    def each_row(rows: Rows, message: Message, live: list[int]) -> None:
        controls = rows.controls
        readable = controls or observe
        # Shared by the recipients of the message: read-only.
        pristine = rows.snapshot if observe and not controls else None
        if controls and rows.payloads is None:
            rows.payloads = [None] * len(rows.dests)
        for row in live:
            dest = rows.dests[row]
            if readable:
                payload = message.payload
                if controls:
                    own = rows.payloads[row]
                    payload = deep_copy_payload(payload if own is None else own)
                view = Message(message.source, dest, payload, message.sent_at, rows.delays[row],
                               rows.view_id(row), message.forged, cause=message.cause)
            else:
                # Envelope only: source, dest, payload, sent_at, delay, msg_id.
                view = Message(message.source, dest, dict(REDACTED_PAYLOAD), message.sent_at,
                               rows.delays[row], rows.view_id(row))
            returned = attacker.attack(view)
            kept: Message | None = view
            forged: list[Message] = []
            if returned is not None:
                kept = None
                for item in returned:
                    # A fresh forged insert is never the kept copy, whatever
                    # id it was built with; a forged copy comes back as itself.
                    if item is view or (not item.forged and item.msg_id == view.msg_id):
                        if kept is not None:
                            raise CapabilityError(
                                f"{who} returned message {name(message, dest)} twice: "
                                "a kept copy is delivered once"
                            )
                        kept = item
                    elif item.forged:
                        try:
                            ctx.require_forge_rights(item.source)
                        except CapabilityError as error:
                            raise CapabilityError(
                                f"{who} forged {item.describe()}: {error}"
                            ) from None
                        if item.delay is not None:  # None: the network samples it
                            ctx.require_valid_delay(item.delay)
                        forged.append(item)
                    else:
                        raise CapabilityError(
                            f"{who} returned a message it neither received nor "
                            f"forged: {item.describe()}"
                        )
            # Kept or dropped, an uncontrolled payload is still its siblings'.
            if pristine is not None and (
                view.payload != pristine
                or message.payload != pristine
                or (kept is not None and kept is not view and kept.payload != pristine)
            ):
                raise CapabilityError(
                    f"{who} {_EDITED.format(name(message, dest, view.payload))}")
            if controls:
                rows.payloads[row] = view.payload
            if forged:
                if rows.inserts is None:
                    rows.inserts = {}
                rows.inserts.setdefault(row, []).extend(forged)
            if kept is None:
                rows.keep[row] = False
            elif not readable:
                # Redacted view: only the delay may carry information back.
                if kept.payload != REDACTED_PAYLOAD:
                    raise CapabilityError(f"{who} {_REDACTED}")
                rows.delays[row] = kept.delay
            else:
                rows.delays[row] = view.delay

    def all_rows(rows: Rows, message: Message, live: list[int]) -> None:
        every = len(live) == len(rows.dests)
        dests = rows.dests if every else [rows.dests[row] for row in live]
        delays = rows.delays if every else [rows.delays[row] for row in live]
        keep = rows.keep if every else [True] * len(live)
        view = message
        if not (rows.controls or observe):
            view = Message(message.source, message.dest, dict(REDACTED_PAYLOAD),
                           message.sent_at, None, message.msg_id)
        attacker.attack_broadcast(view, dests, delays, keep)
        if observe and not rows.controls and message.payload != rows.snapshot:
            raise CapabilityError(f"{who} {_EDITED.format(name(message, dests[0]))}")
        if view is not message and view.payload != REDACTED_PAYLOAD:
            raise CapabilityError(f"{who} {_REDACTED}")
        if len(delays) != len(live) or len(keep) != len(live):
            raise CapabilityError(f"{who} added or removed copies of {name(message, dests[0])}")
        if not every:
            for row, delay, kept in zip(live, delays, keep):
                rows.delays[row], rows.keep[row] = delay, kept

    act = each_row if per_row else all_rows

    def gate(rows: Rows, message: Message) -> None:
        controls = rows.controls
        if observe and not controls and rows.snapshot is None:
            rows.snapshot = deep_copy_payload(message.payload)
        keep, delays = rows.keep, rows.delays
        live = range(len(keep)) if all(keep) else [row for row, kept in enumerate(keep) if kept]
        if not live:
            return
        before = delays.copy()
        # An ``inject`` from inside the hook re-enters: put back what the
        # outer hand-off published.
        outer, ctx.rows = ctx.rows, rows
        try:
            act(rows, message, live)
        finally:
            ctx.rows = outer
        if delays == before and all(keep):
            return
        for row in live:
            if not keep[row]:
                if not (network or controls):
                    raise CapabilityError(
                        f"{who} {_DROPPED.format(name(message, rows.dests[row]))}")
            elif delays[row] != before[row]:
                if not (network or controls):
                    raise CapabilityError(
                        f"{who} {_RETIMED.format(name(message, rows.dests[row]))}")
                ctx.require_valid_delay(delays[row])

    return gate


class Attacker:
    """Base class for attack scenarios.

    Subclasses declare :attr:`capabilities` and override :meth:`attack`
    (per-message interception) and optionally :meth:`setup` (static
    corruption, scheduling timers) and :meth:`on_timer`.  They read their
    parameters in ``__init__``: validation constructs the attacker, so a
    parameter of the wrong type is a configuration error before the run
    rather than a traceback at set-up.  Only defaults that need the run
    (``f``, ``n``, ``lambda``) are resolved in :meth:`setup`.

    The paper's customization interface is exactly these two callbacks
    (§III-A5: ``attack`` and ``onTimeEvent``).  The network hands every
    message to the attacker as rows, one per wire copy (:class:`Rows`):
    a class whose nearest hook is :meth:`attack` is called once per row,
    on that row's copy, and any other class once per message through
    :meth:`attack_broadcast`.  Either way :func:`row_gate` holds what it
    does to the capabilities.
    """

    #: Override in subclasses.
    capabilities: Capability = Capability.NONE
    #: Registry name; set by the registry decorator.
    name: str = "abstract"
    #: Declare True to make the controller maintain
    #: :class:`~repro.observability.signals.LiveSignals` for this run
    #: (read them via ``ctx.signals``, which additionally requires
    #: ``OBSERVE``).  Off by default: benign runs collect nothing.
    wants_signals: bool = False

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        self.params = dict(params or {})
        self.ctx: AttackerContext = None  # type: ignore[assignment]

    @classmethod
    def corruption_demand(cls, params: dict[str, Any], f: int) -> int:
        """Upper bound on nodes this attacker will corrupt under ``params``.

        Used by the scenario validator to reject budget overruns at config
        time (the sum of demands across a composed scenario must stay
        within ``f``) instead of mid-run.  Pure-network attackers keep the
        default of ``0``; corrupting attackers override it to mirror how
        they read their parameters.
        """
        return 0

    def bind(self, ctx: AttackerContext) -> None:
        """Called by the controller before the run starts."""
        self.ctx = ctx

    def setup(self) -> None:
        """Called once at time zero, after binding, before any event."""

    def attack_broadcast(
        self, view: Message, dests: list[int], delays: list[float], keep: list[bool]
    ) -> None:
        """Act on the wire copies of one message at once.

        Row ``i`` is the copy for ``dests[i]`` with transit delay
        ``delays[i]``; every row arrives kept, and a unicast is one row.
        Re-time a copy by writing ``delays[i]`` and drop it by setting
        ``keep[i] = False``; :func:`row_gate` holds both to the
        capabilities.  ``view`` is the message (``dest`` aside: read
        ``dests``), or a redacted envelope without ``OBSERVE``; its payload
        is read-only unless the attacker controls the message, when a
        rewrite reaches every wire copy.  To rewrite single copies or insert
        forgeries beside them, override :meth:`attack` instead.  The
        default does nothing.
        """

    def attack(self, message: Message) -> Iterable[Message] | None:
        """Intercept one in-flight copy: the network calls this once per
        row when it is the nearest of the two hooks to the class.

        Args:
            message: the copy, with its network delay already assigned.
                If the attacker lacks ``OBSERVE`` and does not control the
                message, the payload is redacted.  The payload of a message
                the attacker does not control is **read-only**: it is the
                very object the other recipients receive, and writing to
                it is a ``CapabilityError`` whether the copy is then kept
                or dropped.  A controlled copy holds a private payload,
                which may be rewritten.  ``msg_id`` is the id the copy
                takes unless a row before it delivers an insert or a
                duplicate.

        Returns:
            ``None`` to pass the copy through (re-timed if its ``delay``
            was written), or an iterable of messages to deliver instead:
            include ``message`` to keep it, omit it to drop it, and add
            forged messages — made by ``ctx.forge()``, which is the only
            way to make one — to insert them: they are queued after the
            copy, in the order returned.  Every modification is checked
            against the capability rules by :func:`row_gate`.

        The default hands ``message`` to :meth:`attack_broadcast` as a
        message of one row.
        """
        delays, keep = [message.delay], [True]
        self.attack_broadcast(message, [message.dest], delays, keep)
        message.delay = delays[0]
        return None if keep[0] else []

    def on_timer(self, timer: TimeEvent) -> None:
        """Called when an attacker timer fires."""

    def describe(self) -> str:
        return f"{type(self).__name__}({self.params})"
