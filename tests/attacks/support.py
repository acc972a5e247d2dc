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


def pending_deliveries(controller: Controller) -> list[Message]:
    """Messages currently scheduled for delivery (drains the queue)."""
    from repro.core.events import MessageEvent

    return [
        event.message
        for event in controller.queue.drain()
        if isinstance(event, MessageEvent)
    ]


def count_payload_copies(monkeypatch) -> list[object]:
    """Record every top-level ``deep_copy_payload`` call from now on.

    Returns the list the copied values are appended to.  The function is
    imported by name where it is used and recurses through its own module
    global, so each namespace is patched and nested calls are not counted.
    """
    from repro.attacks import base as attacks_base
    from repro.core import message as message_module
    from repro.network import module as network_module

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

    for owner in (message_module, network_module, attacks_base):
        monkeypatch.setattr(owner, "deep_copy_payload", counting)
    return copied
