"""Helpers for attack-framework tests: scripted attackers wired by hand."""

from __future__ import annotations

from typing import Callable, Iterable

from repro import Controller, Message
from repro.attacks.base import Attacker, AttackerContext, Capability

from tests.conftest import quick_config


class ScriptedAttacker(Attacker):
    """An attacker whose behaviour is a lambda supplied by the test."""

    def __init__(
        self,
        capabilities: Capability,
        on_attack: Callable[["ScriptedAttacker", Message], Iterable[Message] | None]
        | None = None,
    ) -> None:
        super().__init__({})
        self.capabilities = capabilities
        self._on_attack = on_attack
        self.seen: list[Message] = []

    def attack(self, message: Message):
        self.seen.append(message)
        if self._on_attack is None:
            return None
        return self._on_attack(self, message)


def controller_with(attacker: Attacker, **config_kwargs) -> Controller:
    """A controller whose attacker module is replaced by ``attacker``."""
    controller = Controller(quick_config(**config_kwargs))
    ctx = AttackerContext(controller, attacker.capabilities)
    attacker.bind(ctx)
    controller.attacker = attacker
    controller.attacker_ctx = ctx
    controller.network.attacker = attacker
    controller.network._attacker_ctx = ctx
    return controller


def submit(
    controller: Controller, source: int = 0, dest: int | None = None, **payload
) -> Message:
    """Push one message into the network module; returns it.

    The default destination is the source's neighbour, so the message
    always crosses the wire (loopbacks bypass the attacker by design).
    """
    if dest is None:
        dest = (source + 1) % controller.n
    payload.setdefault("type", "TEST")
    message = Message(source=source, dest=dest, payload=payload)
    controller.network.submit(message)
    return message


def pending_deliveries(controller: Controller) -> list[tuple[float, int, int, Message]]:
    """Every delivery scheduled so far as ``(time, dest, copy id, message)``,
    in firing order (drains the queue).

    Read from the queue entries: a broadcast is one message for many
    recipients, and each delivery's time, recipient and copy id live in its
    entry, not in the message.
    """
    from repro.core.controller import _copy_id
    from repro.core.events import MessageEvent

    out = []
    queue = controller.queue
    while queue:
        entry = queue.pop_entry()
        time, _handle, event, dest = entry[:4]
        if type(event) is MessageEvent:
            message = event.message
            out.append((time, message.dest if dest is None else dest, _copy_id(entry), message))
    return out


def count_payload_copies(monkeypatch) -> list[object]:
    """Record every top-level ``deep_copy_payload`` call from now on.

    Returns the list the copied values are appended to.  The function is
    imported by name where it is used and recurses through its own module
    global, so each namespace is patched and nested calls are not counted.
    """
    from repro.attacks import base as attacks_base
    from repro.core import message as message_module

    original = message_module.deep_copy_payload
    copied: list[object] = []
    depth = [0]

    def counting(value):
        if depth[0]:
            return original(value)
        copied.append(value)
        depth[0] = 1
        try:
            return original(value)
        finally:
            depth[0] = 0

    for owner in (message_module, attacks_base):
        monkeypatch.setattr(owner, "deep_copy_payload", counting)
    return copied
