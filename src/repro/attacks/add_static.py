"""Static fail-stop attack on ADD+ (paper §IV-C3, Fig. 8 left).

A *static* attacker must pick its victims before the protocol starts.
Against ADD+v1 the leader schedule is public (``k mod n``), so the optimal
static strategy is to fail-stop the first ``f`` scheduled leaders — every
one of their iterations is wasted and termination is delayed by ``f`` full
iterations.

Against ADD+v2/v3 the same attacker is toothless: leaders are drawn by VRF,
whose outputs the attacker cannot evaluate for honest nodes, so each
corrupted node leads only with probability ``f/n`` per iteration and the
protocols keep their expected-constant-round termination.

Note the capability declaration: ``BYZANTINE`` only.  Corrupting a node
after time zero would raise — the framework is what *makes* this attacker
static.

Parameters (``AttackConfig.params``):
    count: how many nodes to corrupt (default ``f``).
    victims: explicit node ids (default ``0..count-1``, which for ADD+v1 is
        exactly the first ``count`` scheduled leaders).
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError
from .base import Attacker, Capability
from .registry import register_attack


@register_attack("add-static")
class ADDStaticAttacker(Attacker):
    """Fail-stops a pre-selected set of nodes at time zero."""

    capabilities = Capability.BYZANTINE

    @classmethod
    def corruption_demand(cls, params, f):
        victims = params.get("victims")
        if victims is not None:
            return len(victims)
        return int(params.get("count", f))

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        victims = self.params.get("victims")
        if victims is None and "count" in self.params:
            victims = range(int(self.params["count"]))
        self.victims = None if victims is None else [int(node) for node in victims]

    def setup(self) -> None:
        ctx = self.ctx
        victims = list(range(ctx.f)) if self.victims is None else self.victims
        if len(victims) > ctx.f:
            raise ConfigurationError(
                f"static attack on {len(victims)} nodes exceeds the budget f={ctx.f}"
            )
        for node in victims:
            ctx.crash(node)
