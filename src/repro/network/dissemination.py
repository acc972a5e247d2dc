"""Broadcast dissemination overlays: ``full``, ``tree``, and ``gossip``.

The paper's network module expands a broadcast into one unicast per peer —
the O(n) fan-out every BFT protocol description assumes (``full``, a
depth-1 star: the network module prices it itself, no plan needed).
Follow-up work on scalable BFT evaluation
("Simulating BFT Protocol Implementations at Scale", "Scalable Performance
Evaluation of BFT Systems Using Network Simulation" — see PAPERS.md) models
*dissemination topology* explicitly: broadcasts travel along relay overlays
(trees, gossip meshes), and that topology — not just the delay distribution
— dominates behaviour at scale.

This module computes **dissemination plans**.  A plan is the whole overlay
of one broadcast, decided at submit time ("plan-ahead" dissemination):

* every hop ``relay -> dest`` is an independent in-flight packet charged at
  the broadcast's *origination* time (exactly like the n unicasts of a full
  fan-out — attacker windows, fault windows, and partition filters evaluate
  at origination for every copy in every mode);
* per-hop delays are drawn as **one vectorized batch** from a dedicated
  RNG substream (``network.dissemination``), and arrival times accumulate
  along the overlay: a child's copy arrives at ``parent_arrival + hop
  delay``;
* ``message.source`` stays the protocol-level originator on every hop —
  votes, signatures, and corruption accounting are overlay-agnostic — while
  :attr:`~repro.core.message.Message.relay_from` carries the physical
  transmitter for link-scoped fault matching and per-node wire accounting.

Plan-ahead is what keeps the determinism contract airtight: the instrumented
(traced / attacked / faulty) and the fast benign submission paths consume
identical RNG in identical order and push delivery events in identical
order, because both consume the *same* precomputed plan.  The trade-off is
cut-through semantics: a relay that crashes (or whose copy is dropped)
mid-dissemination does not prune its subtree — those hops are already in
flight, like any packet in the full fan-out.  ``docs/scaling.md`` discusses
the modelling consequences.

Shapes
------

``tree``
    A deterministic k-ary spanning tree over ranks ``(node - root) mod n``:
    rank ``j``'s children are ranks ``k*j + 1 .. k*j + k``.  Zero RNG — the
    overlay is a pure function of ``(root, n, k)``.

``gossip``
    A seed-deterministic fanout-f push overlay, drawn fresh per broadcast:
    one permutation of the nodes (from the dedicated ``network.gossip``
    substream, rotated so the sender leads) is attached in f-ary heap
    shape, so every node pushes to at most ``f`` pseudo-random peers and
    every node receives the broadcast exactly once.  Redundant re-pushes of
    real epidemic gossip are abstracted away — message complexity stays
    ``n - 1``, comparable across modes.

Under a **restricted** graph — active ``link-down`` fault windows, or an
explicitly mutated :class:`~repro.network.topology.Topology` — both shapes
fall back to a breadth-first spanning of the *reachable* component over
usable links (deterministic neighbor order for ``tree``, permutation order
for ``gossip``).  The fanout cap is not enforced there: coverage of every
reachable node is the invariant the test battery pins, and a cap cannot
guarantee it on arbitrary graphs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .delays import DelayModel

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import FaultSpec, NetworkConfig
    from ..core.rng import RandomSource
    from .topology import Topology


def resolve_fanout(fanout: int, n: int) -> int:
    """The effective relay fan-out: ``0`` (auto) means ``max(2, ceil(sqrt(n)))``.

    The auto rule yields depth-2 overlays (depth ``log_k n`` with
    ``k = ceil(sqrt(n))``), keeping end-to-end broadcast latency within a
    small multiple of a single link delay — protocol timeouts tuned for
    direct fan-out stay meaningful.
    """
    if fanout > 0:
        return fanout
    return max(2, math.ceil(math.sqrt(n)))


class DisseminationPlan:
    """One broadcast's overlay: hops in BFS order plus arrival machinery.

    Attributes:
        dests: recipient of each hop (never the root; length ``h <= n - 1``).
        relays: physical transmitter of each hop (``relays[i] -> dests[i]``).
        parent_pos: for each hop, ``1 +`` the hop index of the relay's own
            copy, or ``0`` when the relay is the root — i.e. an index into
            an arrival vector with a virtual slot 0 holding the root's
            arrival time (0).  Vectorized accumulation indexes through it.
        levels: ``(start, end)`` hop-index ranges per BFS level; all parents
            of a level lie in earlier levels, so arrivals resolve level by
            level with one fancy-indexed numpy op each.
    """

    __slots__ = ("dests", "relays", "parent_pos", "levels", "size")

    def __init__(
        self,
        dests: np.ndarray,
        relays: np.ndarray,
        parent_pos: np.ndarray,
        levels: list[tuple[int, int]],
    ) -> None:
        self.dests = dests
        self.relays = relays
        self.parent_pos = parent_pos
        self.levels = levels
        self.size = len(dests)

    def arrivals(self, delays: np.ndarray) -> np.ndarray:
        """Cumulative arrival offset of each hop, given per-hop ``delays``.

        ``delays[i]`` is the transit time of hop ``i``; the returned vector
        is each recipient's arrival offset from the broadcast's origination
        (the root's copy sits at offset 0 in the virtual leading slot).
        """
        extended = np.empty(self.size + 1)
        extended[0] = 0.0
        parent_pos = self.parent_pos
        for start, end in self.levels:
            extended[start + 1:end + 1] = (
                extended[parent_pos[start:end]] + delays[start:end]
            )
        return extended[1:]


def _heap_shape(n: int, fanout: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Parent positions and level ranges of an f-ary heap over ``n`` slots.

    Slot 0 is the root; slot ``j``'s parent is ``(j - 1) // fanout``.  Hops
    are slots ``1..n-1`` (hop index ``j - 1``), so hop ``i``'s
    ``parent_pos`` — the index into the root-prefixed arrival vector — is
    exactly the parent's slot number.
    """
    slots = np.arange(1, n, dtype=np.int64)
    parent_pos = (slots - 1) // fanout
    levels: list[tuple[int, int]] = []
    start = 0  # hop index of the current level's first hop
    width = fanout
    while start < n - 1:
        end = min(start + width, n - 1)
        levels.append((start, end))
        start = end
        width *= fanout
    return parent_pos, levels


class TreeShape:
    """Cached rank-space k-ary tree for one ``(n, fanout)``; root-rotated
    per broadcast with two vectorized modular adds."""

    def __init__(self, n: int, fanout: int) -> None:
        self.n = n
        self.fanout = fanout
        self._ranks = np.arange(1, n, dtype=np.int64)
        self._parent_pos, self._levels = _heap_shape(n, fanout)

    def plan(self, root: int) -> DisseminationPlan:
        n = self.n
        dests = (root + self._ranks) % n
        relays = (root + self._parent_pos) % n
        return DisseminationPlan(dests, relays, self._parent_pos, self._levels)

    def plan_from_labels(self, labels: np.ndarray) -> DisseminationPlan:
        """The heap shape over an explicit slot labelling (``labels[0]`` is
        the root) — the gossip overlay's per-broadcast draw."""
        return DisseminationPlan(
            labels[1:], labels[self._parent_pos], self._parent_pos, self._levels
        )


def gossip_labels(rng: np.random.Generator, n: int, root: int) -> np.ndarray:
    """One seed-deterministic slot labelling for a gossip broadcast.

    Draws a single permutation of ``0..n-1`` from the dedicated gossip
    substream, then deterministically swaps ``root`` into slot 0.  One RNG
    consumption per broadcast, independent of fanout.
    """
    perm = rng.permutation(n)
    if perm[0] != root:
        at = int(np.nonzero(perm == root)[0][0])
        perm[0], perm[at] = perm[at], perm[0]
    return perm


def restricted_plan(
    root: int,
    n: int,
    usable: Callable[[int, int], bool],
    priority: Sequence[int] | None = None,
) -> DisseminationPlan:
    """Breadth-first spanning of the component reachable from ``root``.

    ``usable(a, b)`` answers whether the directed link ``a -> b`` may carry
    a packet *right now* (topology edge present and no active ``link-down``
    window matching it).  The plan covers exactly the nodes reachable from
    ``root`` over usable links — the reachability invariant the
    dissemination test battery asserts.  ``priority`` re-orders neighbor
    visits (gossip passes its drawn permutation; ``None`` = ascending node
    id, the deterministic tree order).  The fanout cap is deliberately not
    applied: on a restricted graph a cap can strand reachable nodes behind
    saturated relays, and coverage is the invariant that matters.

    O(n^2) link probes — restricted graphs only arise under link-down
    windows or explicit topology surgery, never on the benign hot path.
    """
    if priority is None:
        order = range(n)
    else:
        order = [int(node) for node in priority]
    reached = bytearray(n)
    reached[root] = 1
    frontier = [root]
    dests: list[int] = []
    relays: list[int] = []
    parent_pos: list[int] = []
    levels: list[tuple[int, int]] = []
    arrival_pos = {root: 0}  # node -> index into the root-prefixed arrivals
    while frontier:
        level_start = len(dests)
        next_frontier: list[int] = []
        for relay in frontier:
            for dest in order:
                if reached[dest] or not usable(relay, dest):
                    continue
                reached[dest] = 1
                dests.append(dest)
                relays.append(relay)
                parent_pos.append(arrival_pos[relay])
                arrival_pos[dest] = len(dests)
                next_frontier.append(dest)
        if len(dests) > level_start:
            levels.append((level_start, len(dests)))
        frontier = next_frontier
    return DisseminationPlan(
        np.asarray(dests, dtype=np.int64),
        np.asarray(relays, dtype=np.int64),
        np.asarray(parent_pos, dtype=np.int64),
        levels,
    )


class Overlay:
    """The relay overlay of one run: what its ``tree`` and ``gossip``
    broadcasts share.

    The tree shape and the two dedicated RNG substreams
    (``network.gossip`` for gossip's permutations, ``network.dissemination``
    for hop delays) are created on the first relayed broadcast, so a
    ``full`` run never creates them.  ``link_down`` lists the run's fault
    specs; its ``link-down`` windows, like a mutated ``topology``, restrict
    the plans drawn inside them.
    """

    def __init__(
        self, config: "NetworkConfig", n: int, topology: "Topology",
        random_source: "RandomSource", faults: "Sequence[FaultSpec]",
    ) -> None:
        self.mode = config.dissemination
        self._config = config
        self._n = n
        self._topology = topology
        self._random_source = random_source
        self._link_down = [spec for spec in faults if spec.kind == "link-down"]
        self._shape_obj: TreeShape | None = None
        self._delays: DelayModel | None = None
        self._gossip_rng: np.random.Generator | None = None

    def plan(self, source: int, now: float) -> DisseminationPlan:
        """The overlay for one broadcast rooted at ``source`` at time ``now``.

        On the pristine complete graph with no active ``link-down`` window
        this is the cached k-ary shape (tree) or a fresh heap attachment of
        one drawn permutation (gossip).  Otherwise it falls back to a
        breadth-first spanning of the reachable component over currently
        usable links — gossip's permutation becomes the visit priority, so
        both branches consume identical RNG.
        """
        n = self._n
        restricted = not self._topology.is_complete()
        if not restricted and self._link_down:
            restricted = any(spec.in_window(now) for spec in self._link_down)
        if self.mode == "gossip":
            labels = gossip_labels(self._gossip_generator(), n, source)
            if restricted:
                return restricted_plan(source, n, self._usable_at(now), labels)
            return self._shape().plan_from_labels(labels)
        if restricted:
            return restricted_plan(source, n, self._usable_at(now))
        return self._shape().plan(source)

    def _usable_at(self, now: float) -> Callable[[int, int], bool]:
        """Directed-link usability predicate at origination time ``now``."""
        topology = self._topology
        active = [spec for spec in self._link_down if spec.in_window(now)]

        def usable(a: int, b: int) -> bool:
            return topology.connected(a, b) and not any(
                spec.matches_link(a, b) for spec in active)

        return usable

    def relays(self, source: int) -> tuple[int, ...]:
        """Sorted relay (internal) nodes of a ``tree`` broadcast from ``source``.

        Structural overlay introspection for overlay-aware attacks: the
        non-root nodes that forward a tree broadcast rooted at ``source``.
        The tree shape is deterministic and RNG-free, so calling this never
        perturbs delay draws or fingerprints.  ``full`` dissemination has no
        relays and ``gossip`` draws a fresh overlay per broadcast (no static
        choke point), so both return an empty tuple.
        """
        if self.mode != "tree" or self._n <= 1:
            return ()
        plan = self._shape().plan(source)
        return tuple(sorted(set(plan.relays.tolist()) - {source}))

    def delays(self) -> DelayModel:
        """The hop-delay model, on the ``network.dissemination`` substream."""
        if self._delays is None:
            self._delays = DelayModel(
                self._config, self._random_source.numpy("network.dissemination"))
        return self._delays

    def _shape(self) -> TreeShape:
        if self._shape_obj is None:
            self._shape_obj = TreeShape(self._n, resolve_fanout(self._config.fanout, self._n))
        return self._shape_obj

    def _gossip_generator(self) -> np.random.Generator:
        if self._gossip_rng is None:
            self._gossip_rng = self._random_source.numpy("network.gossip")
        return self._gossip_rng
