"""Equivocation attack (extension beyond the paper's three attacks).

Corrupts a view's leader at time zero and has it *equivocate*: different
halves of the network receive conflicting proposals for the same slot.
Quorum intersection must prevent both values from being decided; honest
replicas eventually give up on the equivocating leader, change views, and
decide safely — making this the canonical safety stress-test for
quorum-based protocols (we run it against PBFT in tests and benchmarks).

The attacker demonstrates the *insert* capability of the global attacker
model: the corrupted leader's behaviour is synthesized entirely through
``forge`` + ``inject``, exactly as §III-C describes ("controlling a node's
messages is equivalent to controlling its behavior observed by other
nodes").

Parameters (``AttackConfig.params``):
    target: node to corrupt (default 0 — PBFT's view-0 leader).
    slot: consensus slot to attack (default 0).
    view: view to attack (default 0).
    at: injection time in ms (default 1.0).
"""

from __future__ import annotations

from typing import Any

from ..core.events import TimeEvent
from .base import Attacker, Capability
from .registry import register_attack


@register_attack("pbft-equivocation")
class EquivocationAttacker(Attacker):
    """A corrupted PBFT leader pre-prepares two conflicting values."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE

    @classmethod
    def corruption_demand(cls, params, f):
        return 1

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        self.target = int(self.params.get("target", 0))
        self.slot = int(self.params.get("slot", 0))
        self.view = int(self.params.get("view", 0))
        self.at = float(self.params.get("at", 1.0))

    def setup(self) -> None:
        self.ctx.corrupt(self.target)
        self.ctx.set_timer(self.at, "equivocate")

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name != "equivocate":
            return
        ctx = self.ctx
        for dest in range(ctx.n):
            if dest == self.target:
                continue
            value = f"evil-{'A' if dest % 2 == 0 else 'B'}"
            ctx.inject(
                ctx.forge(
                    source=self.target,
                    dest=dest,
                    payload={
                        "type": "PRE-PREPARE",
                        "view": self.view,
                        "slot": self.slot,
                        "value": value,
                        "digest": f"d({value})",
                    },
                )
            )
