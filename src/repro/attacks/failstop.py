"""Fail-stop attack: a set of nodes silently stops participating.

The paper calls this "the weakest form of Byzantine behavior" (§III-C) and
models it by running ``n - f`` honest nodes out of ``n``.  We express it
through the global attacker: the chosen nodes are corrupted at configurable
times and the attacker never speaks for them, so they simply go dark.

Parameters (``AttackConfig.params``):
    count: number of nodes to fail (default: the configured ``f``).
    nodes: explicit list of node ids to fail (overrides ``count``); a bare
        int is accepted as a one-element list, matching the scenario
        grammar's scalar form (``failstop=nodes:6``).
    at: simulation time (ms) at which the nodes crash.  ``0`` (default)
        crashes them before the protocol starts — the paper's setting for
        Fig. 7.  Non-zero values require no extra configuration: the
        attacker declares the ADAPTIVE capability so mid-run crashes are
        legal under the enforcement rules.
"""

from __future__ import annotations

from typing import Any

from ..core.events import TimeEvent
from ..core.errors import ConfigurationError
from .base import Attacker, Capability
from .registry import register_attack


@register_attack("failstop")
class FailStopAttacker(Attacker):
    """Crashes a fixed set of nodes at a fixed time."""

    capabilities = Capability.BYZANTINE | Capability.ADAPTIVE

    @classmethod
    def corruption_demand(cls, params, f):
        nodes = params.get("nodes")
        if nodes is not None:
            return 1 if isinstance(nodes, int) else len(nodes)
        return int(params.get("count", f))

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        nodes = self.params.get("nodes")
        if isinstance(nodes, int):
            nodes = [nodes]
        if nodes is None and "count" in self.params:
            nodes = range(int(self.params["count"]))
        self._victims = None if nodes is None else [int(node) for node in nodes]
        self.at = float(self.params.get("at", 0.0))

    def setup(self) -> None:
        ctx = self.ctx
        if self._victims is None:
            self._victims = list(range(ctx.f))
        if len(self._victims) > ctx.f:
            raise ConfigurationError(
                f"failstop attack on {len(self._victims)} nodes exceeds f={ctx.f}"
            )
        if self.at <= 0:
            for node in self._victims:
                ctx.crash(node)
        else:
            ctx.set_timer(self.at, "failstop-crash")

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name == "failstop-crash":
            for node in self._victims:
                self.ctx.crash(node)
