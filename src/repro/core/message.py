"""Protocol messages exchanged between nodes.

A :class:`Message` is the unit the network module transports and the unit the
attacker module can observe, drop, delay, modify, or forge.  The payload is a
plain ``dict`` so protocols stay serialization-agnostic; by convention every
payload carries a ``"type"`` key naming the protocol message kind (e.g.
``"PRE-PREPARE"``, ``"VOTE"``).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..crypto.quorum import QuorumCertificate
from ..crypto.signatures import canonical

#: Sentinel destination meaning "every node, including the sender".
BROADCAST: int = -1

_message_ids = itertools.count()


def _next_message_id() -> int:
    return next(_message_ids)


#: Immutable leaf types a payload deep copy may share between copies.
#: ``copy.deepcopy`` returns the atomic ones unchanged too, and a frozen
#: certificate cannot be told from its copy, so sharing them is
#: observationally identical — and skips the deepcopy machinery.
_ATOMIC_TYPES = frozenset(
    {int, float, str, bool, bytes, complex, type(None), QuorumCertificate}
)


def deep_copy_payload(value: Any) -> Any:
    """Structurally copy a payload value.

    Semantically equivalent to ``copy.deepcopy`` for the JSON-ish values
    protocol payloads are made of (nested dicts / lists / tuples over
    scalars), but an order of magnitude faster because it dispatches on the
    exact container type instead of walking deepcopy's general machinery.
    Unrecognised objects (custom classes, sets of mutables...) fall back to
    ``copy.deepcopy``, so arbitrary payload values remain supported.
    """
    cls = type(value)
    if cls in _ATOMIC_TYPES:
        return value
    if cls is dict:
        return {key: deep_copy_payload(item) for key, item in value.items()}
    if cls is list:
        return [deep_copy_payload(item) for item in value]
    if cls is tuple:
        return tuple(deep_copy_payload(item) for item in value)
    return copy.deepcopy(value)


@dataclass(slots=True)
class Message:
    """A single protocol message in flight.

    Attributes:
        source: id of the sending node.  For attacker-forged messages this is
            the id being *impersonated*; the crypto layer restricts forgery
            to corrupted signers.
        dest: id of the receiving node, or :data:`BROADCAST`.  A delivered
            broadcast may still read ``BROADCAST`` here: on the shared
            delivery tier one message serves every recipient and the
            recipient travels in the queue entry, so handlers identify
            themselves by ``self.id``, never by ``message.dest``.
        payload: protocol-defined content; ``payload["type"]`` names the
            kind.  Values are JSON-ish data or frozen value objects that
            :func:`~repro.crypto.signatures.canonical` encodes — a
            :class:`~repro.crypto.quorum.QuorumCertificate` travels as
            itself and is sized as its wire dict.  **Read-only once
            received, in every dissemination mode**: the recipients of a
            broadcast share one payload object (and on the shared tier one
            message), so a handler that wants to change what it received
            copies it first.
        sent_at: simulation time (ms) at which the message entered the
            network module.
        delay: transit delay (ms) assigned by the network module and possibly
            altered by the attacker.  ``None`` until assigned.
        msg_id: unique id, used for tracing and deterministic tie-breaking.
        forged: True when the attacker inserted this message rather than an
            honest node sending it.
        corrupted: True when an environmental ``corrupt`` fault tampered the
            payload in flight.  Receivers reject corrupted messages at
            delivery (the signature/checksum verification stand-in); they
            are never dispatched to protocol logic.
        cause: causal-lineage id of the event being handled when this
            message was submitted (``"m<msg_id>"`` for a message delivery,
            ``"t<timer_id>"`` for a timer, ``"s<node>"`` for ``on_start``,
            ``"a"`` for attacker setup).  Pure observability metadata: it is
            assigned by the network module outside the RNG path, recorded
            into trace events, and never read by protocol or engine logic.
        relay_from: the node that physically transmitted this copy when a
            ``tree``/``gossip`` dissemination overlay relayed the broadcast
            (``None`` for direct sends).  :attr:`source` always stays the
            protocol-level originator — signatures, vote counting, and the
            attacker's corruption accounting key on the origin — while link
            scoped environmental faults match on the physical hop.
        payload_shared: True while :attr:`payload` is aliased between the
            copies of one broadcast (copy-on-write).  Receivers treat
            payloads as read-only by contract, and so must an attacker that
            does not control the message; the one legal writer (an attacker
            that does) is handed the copy after :meth:`own_payload`.
    """

    source: int
    dest: int
    payload: dict[str, Any]
    sent_at: float = 0.0
    delay: float | None = None
    msg_id: int = field(default_factory=_next_message_id)
    forged: bool = False
    corrupted: bool = False
    cause: str | None = None
    relay_from: int | None = None
    payload_shared: bool = False

    @property
    def type(self) -> str:
        """The protocol message kind, taken from ``payload["type"]``."""
        return str(self.payload.get("type", "?"))

    def copy_for(self, dest: int, *, share_payload: bool = False) -> "Message":
        """Return an independent copy addressed to ``dest``.

        Each copy gets its own id and — by default — an independent
        (deep-copied) payload.

        With ``share_payload=True`` the copy aliases this message's payload
        and is flagged :attr:`payload_shared` (copy-on-write): the network
        module's instrumented tier expands every broadcast this way, so a
        broadcast never materializes n structural payload copies.  The one
        path that may mutate the payload (the hand-off of a message the
        attacker controls) un-shares via :meth:`own_payload` first, so
        tampering with one recipient's copy cannot reach the others.
        """
        if share_payload:
            payload = self.payload
            self.payload_shared = True
        else:
            payload = deep_copy_payload(self.payload)
        return Message(
            source=self.source,
            dest=dest,
            payload=payload,
            sent_at=self.sent_at,
            forged=self.forged,
            cause=self.cause,
            payload_shared=share_payload,
        )

    def own_payload(self) -> None:
        """Replace a shared payload with a private structural copy.

        No-op for already-private payloads.  Call before any in-place
        payload mutation of a broadcast copy (copy-on-write discipline).
        """
        if self.payload_shared:
            self.payload = deep_copy_payload(self.payload)
            self.payload_shared = False

    def describe(self) -> str:
        """Short human-readable summary used in traces and logs."""
        return f"{self.type} {self.source}->{self.dest} @{self.sent_at:.1f}"


#: Fixed per-message envelope overhead (headers, routing, signature tag).
MESSAGE_OVERHEAD_BYTES: int = 96


def estimate_message_bytes(message: "Message") -> int:
    """Estimated wire size of ``message`` in bytes.

    The paper measures communication cost in message *counts* but notes the
    total bytes "can be reconstructed via estimating the size of each
    message and calculating the sum" (§II-C).  The estimate here is the
    canonical JSON length of the payload plus a fixed envelope overhead —
    deterministic, so byte totals are reproducible.
    """
    return MESSAGE_OVERHEAD_BYTES + len(canonical(message.payload))


def payload_matches(payload: Mapping[str, Any], **expected: Any) -> bool:
    """True when every key in ``expected`` is present and equal in ``payload``.

    A small helper protocols use to filter message logs, e.g.
    ``payload_matches(m.payload, type="VOTE", view=3)``.
    """
    return all(payload.get(key) == value for key, value in expected.items())
