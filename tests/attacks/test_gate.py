"""One rule battery for the capability gates, over everyone who holds one.

The per-message rules of the threat model are enforced by
:func:`repro.attacks.base.capability_gate` around ``attack``, and by its
vector form :func:`repro.attacks.base.broadcast_gate` around
``attack_broadcast``, for three kinds of party: the attacker as a whole
(held by the network module), the sole clause of a scenario, and a clause
that acts behind another one.  Every rule below is run against each holder
and must come out the same: the same error text after the name of the
party, or the same deliveries and counts.  The ``vector`` holders' party
acts through ``attack_broadcast``, so an honest broadcast reaches it once,
as rows; a rule it cannot express (a payload rewrite, or handing back other
messages than the copy) is held by a subclass that overrides ``attack``,
which the network must consult per copy.

The stimulus is always one broadcast at t=20 over n=4 with a constant 50 ms
delay; the attacker under test acts on the copy for node 2 only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import inf, nan
from typing import Any, Callable

import pytest

from repro import Controller, Message
from repro.attacks.base import Attacker, Capability, REDACTED_PAYLOAD
from repro.attacks.registry import get_attack, register_attack
from repro.core.errors import CapabilityError
from repro.core.message import BROADCAST
from repro.scenarios.spec import AttackClause, ScenarioSpec

from tests.attacks.support import controller_with, pending_deliveries
from tests.conftest import quick_config

OBSERVE, NETWORK, BYZANTINE = Capability.OBSERVE, Capability.NETWORK, Capability.BYZANTINE

PAYLOAD = {"type": "TEST", "body": {"k": [1]}}
EDITED = {"type": "TEST", "body": {"k": [1, 3]}}
FAKE = {"type": "FAKE"}
#: The copy for node 2 as it is queued when nobody touches it.
COPY = (70.0, 2, False, PAYLOAD)
INSERT = (70.0, 3, True, FAKE)


@dataclass(frozen=True)
class Rule:
    """One thing an attacker may try, and what must come of it."""

    capabilities: Capability
    #: What the attacker does with the copy for node 2 (``None``: nothing).
    act: Callable[[Attacker, Message], Any] | None = None
    #: Node corrupted at time zero, and the sender of the broadcast: the
    #: attacker controls the message when they are the same.
    corrupt: int | None = None
    source: int = 1
    #: Expected error after the party's name; ``{copy}`` is the copy for
    #: node 2 as that party can name it.  ``None``: the action is allowed.
    error: str | None = None
    #: Allowed actions: what the attacker was shown, what is queued in
    #: place of the copy for node 2, and ``(sent, byzantine, dropped)``.
    shows: dict = field(default_factory=lambda: PAYLOAD)
    delivers: tuple = (COPY,)
    counts: tuple = (3, 0, 0)


def _do(*steps):
    """An action: apply ``steps`` to the copy, hand back what the last returns."""
    def act(self, message):
        for step in steps:
            result = step(message)
        return result
    return act


def _scribble(message):
    message.payload["body"]["k"].append(3)


def _scribble_redacted(message):
    message.payload["x"] = 1


def _slow(message):
    message.delay += 1000.0


def _retime_to(delay):
    def retime(message):
        message.delay = delay
    return retime


def _kept(message):
    return [message]


def _dropped(message):
    return []


def _stand_in(self, message):
    """Hand back an edited payload on a fresh object with the copy's id."""
    return [Message(source=message.source, dest=message.dest, payload=copy.deepcopy(EDITED),
                    sent_at=message.sent_at, delay=message.delay, msg_id=message.msg_id)]


def _hand_built(self, message):
    return [message, Message(source=3, dest=2, payload=dict(FAKE),
                             sent_at=message.sent_at, forged=True)]


def _foreign(self, message):
    return [message, Message(source=2, dest=3, payload={"type": "ALIEN"})]


def _insert(delay=None, colliding=False):
    def act(self, message):
        forged = self.ctx.forge(0, 3, FAKE, delay=delay)
        if colliding:
            # What the process-wide construction counter can do by accident;
            # ahead of the copy, so a kept-copy test by id alone would take it.
            forged.msg_id = message.msg_id
            return [forged, message]
        return [message, forged]
    return act


def _inject(delay):
    def act(self, message):
        self.ctx.inject(self.ctx.forge(0, 3, FAKE, delay=delay))
        return None
    return act


_EDIT = ("modified the payload of honest message {copy}; modification requires "
         "control of the source (corruption strictly before the send)")
_DROP = "dropped honest message {copy} without the NETWORK capability"
_RETIME = "re-timed message {copy} without the NETWORK capability"
_REDACTED_EDIT = "modified a redacted payload without OBSERVE"
_SLOWED = ((1070.0, 2, False, PAYLOAD),)
#: The attacker controls the broadcast: node 0 is corrupted and sends it.
_OWN = {"corrupt": 0, "source": 0}

RULES: dict[str, Rule] = {
    # -- what the attacker is shown ------------------------------------------
    "redacted-view-without-OBSERVE": Rule(NETWORK, shows=REDACTED_PAYLOAD),
    "OBSERVE-reads-the-payload": Rule(OBSERVE),
    "control-reads-the-payload": Rule(BYZANTINE, **_OWN, counts=(0, 3, 0)),
    # -- an uncontrolled payload is read-only, kept or dropped ---------------
    "payload-edit-in-place": Rule(OBSERVE | NETWORK, _do(_scribble), error=_EDIT),
    "payload-edit-kept": Rule(OBSERVE | NETWORK, _do(_scribble, _kept), error=_EDIT),
    "payload-edit-dropped": Rule(OBSERVE | NETWORK, _do(_scribble, _dropped), error=_EDIT),
    "payload-edit-on-a-stand-in": Rule(OBSERVE | NETWORK, _stand_in, error=_EDIT),
    "payload-edit-under-control": Rule(
        BYZANTINE, _do(_scribble, _kept), **_OWN,
        delivers=((70.0, 2, False, EDITED),), counts=(0, 3, 0)),
    # -- drop ------------------------------------------------------------------
    "drop-without-NETWORK": Rule(OBSERVE, _do(_dropped), error=_DROP),
    "honest-drop-with-BYZANTINE-alone": Rule(BYZANTINE, _do(_dropped), corrupt=0, error=_DROP),
    "drop-with-NETWORK": Rule(
        NETWORK, _do(_dropped), shows=REDACTED_PAYLOAD, delivers=(), counts=(3, 0, 1)),
    "drop-under-control": Rule(
        BYZANTINE, _do(_dropped), **_OWN, delivers=(), counts=(0, 3, 1)),
    # -- re-time ---------------------------------------------------------------
    "retime-without-NETWORK": Rule(OBSERVE, _do(_slow, _kept), error=_RETIME),
    "in-place-retime-without-NETWORK": Rule(OBSERVE, _do(_slow), error=_RETIME),
    "redacted-in-place-retime-without-NETWORK": Rule(
        Capability.NONE, _do(_slow), error=_RETIME),
    "retime-with-NETWORK": Rule(
        NETWORK, _do(_slow, _kept), shows=REDACTED_PAYLOAD, delivers=_SLOWED),
    "redacted-in-place-retime": Rule(
        NETWORK, _do(_slow), shows=REDACTED_PAYLOAD, delivers=_SLOWED),
    "retime-under-control": Rule(
        BYZANTINE, _do(_slow, _kept), **_OWN, delivers=_SLOWED, counts=(0, 3, 0)),
    # -- a redacted payload comes back untouched -------------------------------
    "redacted-payload-edit": Rule(
        NETWORK, _do(_scribble_redacted, _kept), error=_REDACTED_EDIT),
    "redacted-payload-edit-in-place": Rule(
        NETWORK, _do(_scribble_redacted), error=_REDACTED_EDIT),
    # -- what comes back is the copy, or a forgery the attacker may make -------
    "foreign-message-returned": Rule(
        OBSERVE, _foreign,
        error="returned a message it neither received nor forged: ALIEN 2->3 @0.0"),
    "hand-built-forgery-without-BYZANTINE": Rule(
        OBSERVE | NETWORK, _hand_built,
        error="forged FAKE 3->2 @20.0: forging messages requires the BYZANTINE capability"),
    "forgery-in-an-honest-name": Rule(
        OBSERVE | BYZANTINE, _hand_built, corrupt=0,
        error="forged FAKE 3->2 @20.0: cannot forge a message from honest node 3: "
              "signatures of honest nodes are unforgeable"),
    "insert-returned": Rule(
        OBSERVE | BYZANTINE, _insert(), corrupt=0,
        delivers=(COPY, INSERT), counts=(3, 1, 0)),
    "insert-carrying-the-copys-id": Rule(
        OBSERVE | BYZANTINE, _insert(colliding=True), corrupt=0,
        delivers=(COPY, INSERT), counts=(3, 1, 0)),
    "insert-injected": Rule(
        OBSERVE | BYZANTINE, _inject(5.0), corrupt=0,
        delivers=(COPY, (25.0, 3, True, FAKE)), counts=(3, 1, 0)),
    "kept-copy-returned-twice": Rule(
        Capability.NONE, lambda self, message: [message, message],
        error="returned message {copy} twice: a kept copy is delivered once"),
    # -- nothing leaves with a delay that is not a finite number >= 0 ----------
    "kept-without-a-delay": Rule(
        NETWORK, _do(_retime_to(None), _kept), error="assigned an invalid delay: None"),
}
for _label, _bad in (("negative", -5.0), ("nan", nan), ("inf", inf)):
    _invalid = f"assigned an invalid delay: {_bad!r}"
    RULES[f"kept-with-{_label}-delay"] = Rule(
        NETWORK, _do(_retime_to(_bad), _kept), error=_invalid)
    RULES[f"insert-returned-with-{_label}-delay"] = Rule(
        OBSERVE | BYZANTINE, _insert(_bad), corrupt=0, error=_invalid)
    RULES[f"insert-injected-with-{_label}-delay"] = Rule(
        OBSERVE | BYZANTINE, _inject(_bad), corrupt=0, error=_invalid)

#: Rules a vector hook cannot express: the act rewrites a payload, or hands
#: back messages other than the copy.
PER_COPY = {
    name for name in RULES if name.startswith(("payload-edit", "redacted-payload-edit", "insert-"))
} | {"foreign-message-returned", "hand-built-forgery-without-BYZANTINE",
     "forgery-in-an-honest-name", "kept-copy-returned-twice"}

_PASS_THROUGH = "redacted-view-without-OBSERVE"


class _Party(Attacker):
    """Applies ``RULES[params["rule"]]`` to the copy for node 2 and records
    every payload it is shown."""

    def __init__(self, params=None):
        super().__init__(params)
        self.rule = RULES[self.params["rule"]]
        self.capabilities = self.rule.capabilities
        self.shown: list[dict] = []
        #: Rows per ``attack_broadcast`` call.
        self.calls: list[int] = []


@register_attack("_test-held-vector")
class _VectorHeld(_Party):
    """The party under test, acting through ``attack_broadcast``: the rule
    acts on a stand-in for the row of node 2, whose delay and fate are
    copied back."""

    def attack_broadcast(self, view, dests, delays, keep):
        self.calls.append(len(dests))
        for row, dest in enumerate(dests):
            self.shown.append(copy.deepcopy(view.payload))
            if dest != 2 or self.rule.act is None:
                continue
            stand_in = Message(view.source, dest, view.payload, view.sent_at, delays[row])
            returned = self.rule.act(self, stand_in)
            delays[row] = stand_in.delay
            keep[row] = returned is None or any(item is stand_in for item in returned)


@register_attack("_test-held")
class _Held(_Party):
    """The party under test, acting through ``attack``."""

    def attack(self, message):
        if message.forged:
            return None  # our own injected insert, passing back through
        self.shown.append(copy.deepcopy(message.payload))
        if message.dest != 2 or self.rule.act is None:
            return None
        return self.rule.act(self, message)


@register_attack("_test-held-rewriting")
class _Rewriting(_VectorHeld):
    """A vector party's subclass that rewrites or inserts: it overrides
    ``attack``, so the network hands it every copy, never the rows."""

    attack = _Held.attack


def _party(name, vector):
    if not vector:
        return "_test-held"
    return "_test-held-rewriting" if name in PER_COPY else "_test-held-vector"


def _bare(name, vector=False):
    held = get_attack(_party(name, vector))({"rule": name})
    return controller_with(held, std=0.0), held, "attacker"


def _clauses(*names, vector=False):
    spec = ScenarioSpec(attacks=[
        AttackClause(_party(name, vector), {"rule": name}) for name in names])
    controller = Controller(spec.apply(quick_config(std=0.0)))
    controller.attacker.setup()
    index = len(names) - 1
    return controller, controller.attacker._children[index], f"scenario clause #{index} ({_party(names[-1], vector)})"


#: holder -> (controller, the party under test, its name in errors)
HOLDERS = {
    "module": _bare,
    "sole-clause": _clauses,
    "second-clause": lambda name: _clauses(_PASS_THROUGH, name),
    "vector": lambda name: _bare(name, vector=True),
    "vector-second-clause": lambda name: _clauses(_PASS_THROUGH, name, vector=True),
}


@pytest.mark.parametrize("name", RULES)
@pytest.mark.parametrize("holder", HOLDERS)
def test_rule(holder, name):
    rule = RULES[name]
    controller, held, who = HOLDERS[holder](name)
    if rule.corrupt is not None:
        held.ctx.corrupt(rule.corrupt)
    controller.clock.advance_to(20.0)
    broadcast = Message(source=rule.source, dest=BROADCAST, payload=copy.deepcopy(PAYLOAD))

    if rule.error is not None:
        # A composite without OBSERVE is itself shown a redacted envelope,
        # and that is all its clauses' errors can name.
        reads = holder in ("module", "vector") or OBSERVE in rule.capabilities
        named = f"{'TEST' if reads else '<redacted>'} {rule.source}->2 @20.0"
        with pytest.raises(CapabilityError) as raised:
            controller.network.submit(broadcast)
        assert str(raised.value) == f"{who} {rule.error.format(copy=named)}"
        if holder.startswith("vector") and name in PER_COPY:
            assert held.calls == []
        return

    controller.network.submit(broadcast)
    assert held.shown == [rule.shows] * 3
    delivered = pending_deliveries(controller)
    untouched = [(20.0, rule.source, False, PAYLOAD)] + [
        (70.0, dest, False, PAYLOAD) for dest in range(4) if dest not in (rule.source, 2)
    ]
    assert sorted(
        ((time, dest, m.forged, m.payload) for time, dest, _, m in delivered), key=lambda e: e[:3]
    ) == sorted([*untouched, *rule.delivers], key=lambda e: e[:3])
    assert len({copy_id for _, _, copy_id, _ in delivered}) == len(delivered)
    counts = controller.metrics.counts
    assert (counts.sent, counts.byzantine, counts.dropped) == rule.counts
    if holder.startswith("vector"):
        # The rows of an honest broadcast arrive at once; a controlled
        # broadcast, and a party that overrides ``attack``, go per copy.
        per_copy = name in PER_COPY or rule.corrupt == rule.source
        assert held.calls == ([] if name in PER_COPY else [1, 1, 1] if per_copy else [3])
