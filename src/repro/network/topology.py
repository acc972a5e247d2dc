"""Network topology.

The paper's simulator models a fully connected peer-to-peer overlay; the
partition machinery additionally needs links that can be cut.
:class:`Topology` is the complete graph over ``0..n-1`` minus a set of cut
links, and answers the two questions the simulator asks: *can A currently
reach B?* and *which subnets does the cut leave?*

Scale note: only the cut links are stored, so the benign complete graph
costs nothing at any n and ``is_complete`` is one truth test — the network
module's restricted-broadcast path keys on it.
"""

from __future__ import annotations

from typing import Iterable

from ..core.errors import ConfigurationError


def _link(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class Topology:
    """A reachability graph over node ids ``0..n-1``.

    The default is a complete graph (every pair connected by one logical
    link).  Links can be cut at runtime.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | None = None) -> None:
        if n < 1:
            raise ConfigurationError("topology needs at least one node")
        self.n = n
        self._cut: set[tuple[int, int]] = set()
        if edges is not None:
            self._cut = {(i, j) for i in range(n) for j in range(i + 1, n)}
            for a, b in edges:
                self._check(a)
                self._check(b)
                self._cut.discard(_link(a, b))

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ConfigurationError(f"node {node} outside 0..{self.n - 1}")

    # -- queries ---------------------------------------------------------------

    def is_complete(self) -> bool:
        """True when no link is cut (every pair connected).  O(1)."""
        return not self._cut

    def connected(self, a: int, b: int) -> bool:
        """True when a direct link ``a -- b`` currently exists."""
        self._check(a)
        self._check(b)
        return _link(a, b) not in self._cut

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        return [
            peer for peer in range(self.n)
            if peer != node and _link(node, peer) not in self._cut
        ]

    def components(self) -> list[set[int]]:
        """Connected components, largest first — the "subnets" of §III-C."""
        components: list[set[int]] = []
        seen: set[int] = set()
        for root in range(self.n):
            if root in seen:
                continue
            component = {root}
            frontier = [root]
            while frontier:
                for peer in self.neighbors(frontier.pop()):
                    if peer not in component:
                        component.add(peer)
                        frontier.append(peer)
            seen |= component
            components.append(component)
        return sorted(components, key=len, reverse=True)

    # -- mutation ---------------------------------------------------------------

    def cut(self, a: int, b: int) -> None:
        """Remove the link between ``a`` and ``b`` (idempotent)."""
        self._check(a)
        self._check(b)
        if a != b:
            self._cut.add(_link(a, b))

    def __repr__(self) -> str:
        edges = self.n * (self.n - 1) // 2 - len(self._cut)
        suffix = ", complete" if not self._cut else ""
        return f"Topology(n={self.n}, edges={edges}{suffix})"
