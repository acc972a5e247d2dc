"""White-box tests for the chained-HotStuff core: block tree, commit rule."""

from __future__ import annotations

from repro.attacks.base import Capability
from repro.crypto.quorum import QuorumCertificate, make_qc
from repro.protocols.chained import Block, BlockTree, GENESIS_DIGEST

from tests.attacks.support import ScriptedAttacker, controller_with


def block(digest, parent, view, qc_view=None, qc_ref=None, height=1):
    qc = make_qc(qc_view, qc_ref, frozenset(range(3))) if qc_ref is not None else None
    return Block(digest=digest, parent=parent, view=view, value=f"v-{digest}",
                 qc=qc, height=height)


class TestBlockTree:
    def test_contains_genesis(self):
        tree = BlockTree()
        assert GENESIS_DIGEST in tree
        assert len(tree) == 1

    def test_add_and_get(self):
        tree = BlockTree()
        b = block("b1", GENESIS_DIGEST, 1, 0, GENESIS_DIGEST)
        tree.add(b)
        assert tree.get("b1") is b

    def test_first_block_wins_for_digest(self):
        tree = BlockTree()
        first = block("b1", GENESIS_DIGEST, 1)
        second = block("b1", GENESIS_DIGEST, 2)
        tree.add(first)
        tree.add(second)
        assert tree.get("b1").view == 1

    def test_get_none(self):
        assert BlockTree().get(None) is None
        assert BlockTree().get("missing") is None

    def test_ancestors_walk(self):
        tree = BlockTree()
        tree.add(block("b1", GENESIS_DIGEST, 1))
        tree.add(block("b2", "b1", 2, height=2))
        chain = [b.digest for b in tree.ancestors("b2")]
        assert chain == ["b2", "b1", GENESIS_DIGEST]

    def test_ancestors_stop_at_gap(self):
        tree = BlockTree()
        tree.add(block("b2", "missing-parent", 2, height=2))
        chain = [b.digest for b in tree.ancestors("b2")]
        assert chain == ["b2"]

    def test_extends(self):
        tree = BlockTree()
        tree.add(block("b1", GENESIS_DIGEST, 1))
        tree.add(block("b2", "b1", 2, height=2))
        tree.add(block("c1", GENESIS_DIGEST, 3))  # fork
        assert tree.extends("b2", "b1")
        assert tree.extends("b2", GENESIS_DIGEST)
        assert not tree.extends("c1", "b1")

    def test_everything_extends_genesis(self):
        tree = BlockTree()
        assert tree.extends("even-unknown", GENESIS_DIGEST)


class TestCommitRule:
    """Drive the three-chain rule through a real replica instance."""

    def _replica(self):
        from repro import Controller
        from tests.conftest import quick_config

        controller = Controller(quick_config(protocol="hotstuff-ns", n=4))
        return controller.nodes[0]

    def _wire(self, replica, digest, parent, view, qc_view, qc_ref, height):
        b = Block(
            digest=digest, parent=parent, view=view, value=f"v-{digest}",
            qc=make_qc(qc_view, qc_ref, frozenset(range(3))), height=height,
        )
        replica.tree.add(b)
        return b

    def test_consecutive_three_chain_commits(self):
        replica = self._replica()
        self._wire(replica, "b1", GENESIS_DIGEST, 1, 0, GENESIS_DIGEST, 1)
        self._wire(replica, "b2", "b1", 2, 1, "b1", 2)
        self._wire(replica, "b3", "b2", 3, 2, "b2", 3)
        carrier = self._wire(replica, "b4", "b3", 4, 3, "b3", 4)
        decided = []
        replica.decide = lambda slot, value: decided.append((slot, value))
        replica._apply_commit_rules(carrier)
        assert decided == [(0, "v-b1")]

    def test_gap_in_views_blocks_commit(self):
        replica = self._replica()
        self._wire(replica, "b1", GENESIS_DIGEST, 1, 0, GENESIS_DIGEST, 1)
        self._wire(replica, "b2", "b1", 2, 1, "b1", 2)
        self._wire(replica, "b3", "b2", 5, 2, "b2", 3)  # view jump: 2 -> 5
        carrier = self._wire(replica, "b4", "b3", 6, 5, "b3", 4)
        decided = []
        replica.decide = lambda slot, value: decided.append((slot, value))
        replica._apply_commit_rules(carrier)
        assert decided == []

    def test_lock_advances_on_two_chain(self):
        replica = self._replica()
        self._wire(replica, "b1", GENESIS_DIGEST, 1, 0, GENESIS_DIGEST, 1)
        self._wire(replica, "b2", "b1", 2, 1, "b1", 2)
        carrier = self._wire(replica, "b3", "b2", 3, 2, "b2", 3)
        replica._apply_commit_rules(carrier)
        assert replica.locked_qc.ref == "b1"

    def test_commit_includes_skipped_ancestors(self):
        """Committing a block decides any uncommitted ancestors first."""
        replica = self._replica()
        self._wire(replica, "a", GENESIS_DIGEST, 1, 0, GENESIS_DIGEST, 1)
        self._wire(replica, "b1", "a", 2, 1, "a", 2)
        self._wire(replica, "b2", "b1", 3, 2, "b1", 3)
        self._wire(replica, "b3", "b2", 4, 3, "b2", 4)
        carrier = self._wire(replica, "b4", "b3", 5, 4, "b3", 5)
        decided = []
        replica.decide = lambda slot, value: decided.append((slot, value))
        replica._apply_commit_rules(carrier)
        # b1 commits via the chain (b1,b2,b3 consecutive): ancestors a, b1.
        assert decided == [(0, "v-a"), (1, "v-b1")]


def test_forged_zero_signer_timeout_qc_does_not_move_librabft():
    """One TIMEOUT from a corrupted node carrying a QC with no signers for a
    far-future view must not be adopted: it used to jump every honest
    replica to view 1,000,006, where no leader's QC could ever catch up."""

    def run(forge: bool) -> list[int]:
        attacker = ScriptedAttacker(Capability.BYZANTINE)
        controller = controller_with(
            attacker, protocol="librabft", n=4, max_time=60_000.0, allow_horizon=True
        )
        ctx = controller.attacker_ctx
        ctx.corrupt(3)
        if forge:
            empty = QuorumCertificate(
                kind="qc", view=10**6, ref="forged", signers=frozenset()
            )
            payload = {"type": "TIMEOUT", "view": 1, "qc": empty.to_payload()}
            ctx.inject(ctx.forge(3, 0, payload))
        controller.run()
        honest = controller.nodes[:3]
        assert all(node.high_qc.signers for node in honest)
        return [node.view for node in honest]

    views = run(forge=True)
    assert max(views) < 1_000
    assert views == run(forge=False)
