"""Network partition attack (paper §III-C, Fig. 6).

Splits the network into subnets for a time window.  Because every message
passes through the attacker module, the partition is a pure packet-filter
rule: cross-subnet messages are dropped — or, in ``delay`` mode, held back
and delivered just after the partition heals (both behaviours the paper
grants its partition attacker).

This attacker needs only the ``NETWORK`` capability: it routes on source,
destination, and time, never on message contents, so it operates on
redacted envelopes.

Parameters (``AttackConfig.params``):
    groups: list of node-id lists defining the subnets (default: even/odd
        halves).
    start: partition start time in ms (default 0).
    end: healing time in ms (default 60000, the paper's Fig. 6 setting).
    mode: ``"drop"`` (default) or ``"delay"``.
    heal_slack: extra ms added when re-timing held messages in ``delay``
        mode (default 10).
"""

from __future__ import annotations

from typing import Any

from ..network.partition import PartitionSpec
from .base import Attacker, Capability
from .registry import register_attack


@register_attack("partition")
class PartitionAttacker(Attacker):
    """Drops or delays cross-subnet traffic during a time window."""

    capabilities = Capability.NETWORK

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        params = self.params
        groups = params.get("groups")
        self.groups = None if groups is None else [list(g) for g in groups]
        self.start = float(params.get("start", 0.0))
        self.end = float(params.get("end", 60_000.0))
        self.mode = str(params.get("mode", "drop"))
        self.heal_slack = float(params.get("heal_slack", 10.0))

    def setup(self) -> None:
        start, end, mode = self.start, self.end, self.mode
        if self.groups is None:
            self.spec = PartitionSpec.halves(self.ctx.n, start=start, end=end, mode=mode)
        else:
            self.spec = PartitionSpec.split(self.groups, start=start, end=end, mode=mode)

    def attack_broadcast(self, view, dests, delays, keep):
        spec = self.spec
        sent_at = view.sent_at
        if not spec.active_at(sent_at):
            return
        source = view.source
        drop = spec.mode == "drop"
        # A held copy is delivered just after the partition heals, keeping
        # its original transit delay on top of the outage.
        hold = (spec.end - sent_at) + self.heal_slack
        for row, dest in enumerate(dests):
            if spec.separated(source, dest):
                if drop:
                    keep[row] = False
                else:
                    delays[row] = hold + delays[row]
