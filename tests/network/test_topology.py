"""Tests for the reachability topology."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.network.topology import Topology


class TestConstruction:
    def test_default_is_complete(self):
        topo = Topology(5)
        assert topo.is_complete()
        assert repr(topo) == "Topology(n=5, edges=10, complete)"

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(0)

    def test_explicit_edges(self):
        topo = Topology(4, edges=[(0, 1), (2, 3)])
        assert topo.connected(0, 1)
        assert not topo.connected(0, 2)
        assert not topo.is_complete()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(3, edges=[(0, 5)])


class TestQueries:
    def test_self_always_connected(self):
        topo = Topology(3, edges=[])
        assert topo.connected(1, 1)

    def test_neighbors_sorted(self):
        topo = Topology(4, edges=[(2, 0), (2, 3), (2, 1)])
        assert topo.neighbors(2) == [0, 1, 3]

    def test_components_largest_first(self):
        topo = Topology(5, edges=[(0, 1), (0, 2), (3, 4)])
        components = topo.components()
        assert components[0] == {0, 1, 2}
        assert components[1] == {3, 4}

    def test_out_of_range_query_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(3).connected(0, 3)


class TestMutation:
    def test_cut_link_leaves_one_subnet(self):
        topo = Topology(3)
        topo.cut(0, 1)
        assert not topo.connected(0, 1) and not topo.is_complete()
        assert topo.components() == [{0, 1, 2}]  # still one subnet via node 2

    def test_cut_idempotent(self):
        topo = Topology(3)
        topo.cut(0, 1)
        topo.cut(0, 1)
        assert not topo.connected(0, 1)
