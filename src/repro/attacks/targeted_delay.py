"""Targeted delay-injection attack (extension beyond the paper's three).

A pure network-level adversary that slows traffic involving chosen victims
(or chosen message kinds) by a constant or a multiplier.  Useful for
studying responsiveness claims: a responsive protocol's latency should
track the inflated delays smoothly, while timeout-bound protocols fall off
a cliff once the injected delay crosses ``lambda``.

Reading message *types* requires the ``OBSERVE`` capability, which this
attacker declares only when a type filter is configured — a worked example
of least-privilege attack modelling.

Parameters (``AttackConfig.params``):
    targets: node ids whose traffic (either direction) is slowed
        (default: all nodes), or the string ``"relays"`` to target the
        relay nodes of the tree dissemination overlay rooted at
        ``relay_root`` (overlay-aware targeting; tree mode only — the
        scenario validator rejects it under ``full``/``gossip``).
    relay_root: root whose broadcast tree defines the relay set when
        ``targets="relays"`` (default 0, the usual initial leader).
    extra_delay: milliseconds added to each matching message (default 0).
    factor: multiplier applied to each matching message's delay
        (default 1.0).
    match_type: only slow messages of this payload type (requires
        observation; enabled automatically when set).
"""

from __future__ import annotations

from typing import Any

from .base import Attacker, Capability
from .registry import register_attack


@register_attack("targeted-delay")
class TargetedDelayAttacker(Attacker):
    """Inflates the delay of matching messages."""

    capabilities = Capability.NETWORK

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        params = self.params
        self.match_type = params.get("match_type")
        if self.match_type is not None:
            # Filtering on contents needs eyes; declare them up front.
            self.capabilities = Capability.NETWORK | Capability.OBSERVE
        targets = params.get("targets")
        self.relay_root = int(params.get("relay_root", 0))
        self.targets: set[int] | None = (
            None if targets is None or targets == "relays" else {int(t) for t in targets}
        )
        self.extra_delay = float(params.get("extra_delay", 0.0))
        self.factor = float(params.get("factor", 1.0))

    def setup(self) -> None:
        if self.params.get("targets") == "relays":
            # Overlay-aware targeting: resolve the relay set of the tree
            # broadcast overlay at setup time (the shape is static and
            # RNG-free).  Empty under full/gossip — the validator rejects
            # the configuration before a run gets here.
            self.targets = set(self.ctx.overlay_relays(self.relay_root))

    def attack_broadcast(self, view, dests, delays, keep):
        if self.match_type is not None and view.type != self.match_type:
            return
        targets = self.targets
        every = targets is None or view.source in targets
        factor, extra = self.factor, self.extra_delay
        for row, dest in enumerate(dests):
            if every or dest in targets:
                delays[row] = delays[row] * factor + extra
