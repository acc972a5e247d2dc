"""Rushing adaptive attack on ADD+ (paper §IV-C4, Fig. 8 right).

The strongest attacker the paper models: *rushing* (observes every honest
message the moment it enters the network) and *adaptive* (may corrupt nodes
mid-run, within the budget ``f``).

Strategy: watch the leader-election messages of each iteration.  As soon as
every live node's credential for iteration ``k`` has been observed, compute
the winner — the would-be leader — and corrupt it on the spot.  All
messages a corrupted node sends from then on are dropped (the node is
effectively fail-stopped at the worst possible moment).

Outcome, enforced end-to-end by the framework's no-retraction rule:

* **ADD+v2** reveals credentials one phase *before* the proposal.  The
  attacker corrupts the winner in the credential phase; the winner's
  proposal — sent a full ``lambda`` later — is controlled and dropped.
  Every iteration burns one corruption until the budget runs out:
  termination is delayed ~``f`` iterations.
* **ADD+v3** binds credential and proposal in one send.  The attacker still
  corrupts the winner the instant it sees the credential, but the proposal
  was in the very messages it observed — sent at, not after, the corruption
  time — so the drop is illegal and the iteration completes.  Expected
  constant rounds survive the attack.

Parameters (``AttackConfig.params``):
    budget: corruptions to spend (default ``f``).
"""

from __future__ import annotations

from typing import Any

from ..core.message import Message
from .base import Attacker, Capability
from .registry import register_attack

#: Message kinds that reveal an ADD+ iteration's leader credential.
_CREDENTIAL_KINDS = ("CREDENTIAL", "PREPARE")


@register_attack("add-adaptive")
class ADDAdaptiveAttacker(Attacker):
    """Corrupts each iteration's VRF winner the moment it is revealed."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE

    @classmethod
    def corruption_demand(cls, params, f):
        return int(params.get("budget", f))

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        budget = self.params.get("budget")
        self.budget = None if budget is None else int(budget)

    def setup(self) -> None:
        if self.budget is None:
            self.budget = self.ctx.f
        self._spent = 0
        # iteration -> {node: credential value}
        self._credentials: dict[int, dict[int, int]] = {}
        self._acted: set[int] = set()

    def attack_broadcast(self, view, dests, delays, keep):
        # Total control over corrupted senders: silence them entirely.
        if self.ctx.controls_message(view):
            keep[:] = [False] * len(keep)
        elif view.payload.get("type") in _CREDENTIAL_KINDS:
            # Corrupting this very sender now changes nothing for this
            # message: the no-retraction rule gives control only over what
            # it sends strictly later.
            self._observe_credential(view)

    def _observe_credential(self, message: Message) -> None:
        payload = message.payload
        credential = payload.get("credential")
        if not isinstance(credential, dict):
            return
        iteration = int(payload.get("iteration", -1))
        if iteration < 0 or iteration in self._acted:
            return
        bucket = self._credentials.setdefault(iteration, {})
        bucket[message.source] = int(credential.get("value", 0))
        live = self.ctx.n - len(self.ctx.corrupted)
        if len(bucket) < live:
            return  # rushing: wait until the full phase is on the wire
        self._acted.add(iteration)
        if self._spent >= self.budget or self.ctx.budget_remaining <= 0:
            return
        winner = min(bucket.items(), key=lambda item: (item[1], item[0]))[0]
        if winner in self.ctx.corrupted:
            return
        self.ctx.corrupt(winner)
        self._spent += 1
