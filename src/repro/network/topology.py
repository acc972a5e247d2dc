"""Network topology.

The paper's simulator models a fully connected peer-to-peer overlay; the
baseline packet simulator and the partition machinery additionally need an
explicit graph view.  :class:`Topology` wraps a :mod:`networkx` graph and
answers the two questions the simulator asks: *can A currently reach B?* and
*what does the route look like?* (the latter only matters to the baseline's
hop-by-hop model).

Scale note: the default complete graph is represented *implicitly* until the
first mutation.  Materializing ``n*(n-1)/2`` networkx edges at n = 1000
costs hundreds of megabytes and seconds of setup that the simulator never
uses on the benign path — every query over a pristine complete graph has a
closed-form answer.  The first ``cut`` (or an explicit edge list) builds the
real graph; from then on behaviour is exactly the networkx-backed one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


class Topology:
    """A reachability graph over node ids ``0..n-1``.

    The default is a complete graph (every pair connected by one logical
    link).  Links can be cut and restored at runtime — the mechanism the
    partition attacker uses.

    Attributes:
        version: monotonic mutation counter.  Increments on every
            ``cut``/``restore``/``cut_between``/``restore_all``; consumers
            that cache derived structure (the dissemination planner's
            complete-graph fast path) compare it instead of re-scanning the
            graph.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | None = None) -> None:
        if n < 1:
            raise ConfigurationError("topology needs at least one node")
        self.n = n
        self.version = 0
        self._graph: nx.Graph | None = None
        if edges is not None:
            graph = self._materialize_empty()
            for a, b in edges:
                self._check(a)
                self._check(b)
                graph.add_edge(a, b)

    @property
    def graph(self) -> nx.Graph:
        """The explicit networkx view (materializes the complete graph)."""
        if self._graph is None:
            graph = self._materialize_empty()
            graph.add_edges_from(
                (i, j) for i in range(self.n) for j in range(i + 1, self.n)
            )
        return self._graph

    def _materialize_empty(self) -> nx.Graph:
        # networkx is imported here, not at module import: a run that never
        # mutates its topology (every benign one) never pays for it.
        import networkx as nx

        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(self.n))
        return self._graph

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ConfigurationError(f"node {node} outside 0..{self.n - 1}")

    # -- queries ---------------------------------------------------------------

    def is_complete(self) -> bool:
        """True while the topology is still the pristine complete graph
        (no mutation ever materialized an explicit edge set).  O(1)."""
        return self._graph is None

    def connected(self, a: int, b: int) -> bool:
        """True when a direct link ``a -- b`` currently exists."""
        self._check(a)
        self._check(b)
        if self._graph is None:
            return True
        return a == b or self._graph.has_edge(a, b)

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        if self._graph is None:
            return [peer for peer in range(self.n) if peer != node]
        return sorted(self._graph.neighbors(node))

    def components(self) -> list[set[int]]:
        """Connected components, largest first — the "subnets" of §III-C."""
        if self._graph is None:
            return [set(range(self.n))]
        import networkx as nx

        return sorted(nx.connected_components(self._graph), key=len, reverse=True)

    def is_fully_connected(self) -> bool:
        if self._graph is None:
            return True
        import networkx as nx

        return nx.is_connected(self._graph) and all(
            self._graph.degree(i) == self.n - 1 for i in range(self.n)
        )

    # -- mutation ---------------------------------------------------------------

    def cut(self, a: int, b: int) -> None:
        """Remove the link between ``a`` and ``b`` (idempotent)."""
        self._check(a)
        self._check(b)
        self.version += 1
        graph = self.graph
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)

    def restore(self, a: int, b: int) -> None:
        """Re-add the link between ``a`` and ``b`` (idempotent)."""
        self._check(a)
        self._check(b)
        self.version += 1
        if a != b:
            self.graph.add_edge(a, b)

    def cut_between(self, group_a: Iterable[int], group_b: Iterable[int]) -> int:
        """Cut every link with one endpoint in each group; returns the number
        of links removed."""
        removed = 0
        self.version += 1
        graph = self.graph
        group_b = set(group_b)
        for a in group_a:
            for b in group_b:
                if a != b and graph.has_edge(a, b):
                    graph.remove_edge(a, b)
                    removed += 1
        return removed

    def restore_all(self) -> None:
        """Return to the complete graph."""
        self.version += 1
        self._graph = None

    def __repr__(self) -> str:
        if self._graph is None:
            edges = self.n * (self.n - 1) // 2
            return f"Topology(n={self.n}, edges={edges}, complete)"
        return f"Topology(n={self.n}, edges={self._graph.number_of_edges()})"
