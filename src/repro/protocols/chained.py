"""Shared core of the chained-HotStuff protocol family.

HotStuff+NS and LibraBFT share everything except their pacemaker: the block
tree, the voting rule, quorum-certificate formation, and the three-chain
commit rule all live here.  Subclasses supply view synchronization by
implementing :meth:`ChainedHotStuffBase.on_local_timeout` and reacting to
their pacemaker's messages.

Protocol recap (chained HotStuff, Yin et al. PODC'19):

* views are numbered 1, 2, ...; the leader of view ``v`` is ``v mod n``;
* the leader proposes one block per view, extending the highest quorum
  certificate (QC) it knows;
* replicas vote for a safe proposal by sending their vote to the *next*
  view's leader, which forms a QC from ``n - f`` votes and proposes the next
  block justified by it;
* a block is committed when it heads a *three-chain* of blocks with
  consecutive views (``b3 <- b2 <- b1``, commit ``b3``);
* safety: a replica locks on the two-chain head and only votes for blocks
  that extend its lock — or that carry a QC newer than the lock (the
  liveness escape hatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..core.events import TimeEvent
from ..core.message import Message
from ..crypto.quorum import QuorumCertificate, make_qc
from .base import BFTProtocol, PARTIALLY_SYNCHRONOUS, VoteCounter

#: Digest of the genesis block.
GENESIS_DIGEST = "genesis"


@dataclass(frozen=True, slots=True)
class Block:
    """A node in the block tree.

    Attributes:
        digest: unique block identifier.
        parent: parent digest (``None`` only for genesis).
        view: the view in which the block was proposed.
        value: the application value the block carries (decided when the
            block commits).
        qc: certificate justifying the parent (``None`` only for genesis).
        height: chain length from genesis (genesis is 0).
    """

    digest: str
    parent: str | None
    view: int
    value: Any
    qc: QuorumCertificate | None
    height: int


GENESIS_BLOCK = Block(
    digest=GENESIS_DIGEST, parent=None, view=0, value=None, qc=None, height=0
)


class BlockTree:
    """The DAG of known blocks (a tree rooted at genesis)."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block] = {GENESIS_DIGEST: GENESIS_BLOCK}

    def add(self, block: Block) -> None:
        """Insert ``block``; the first block for a digest wins (equivocating
        duplicates from a Byzantine leader are dropped)."""
        self._blocks.setdefault(block.digest, block)

    def get(self, digest: str | None) -> Block | None:
        if digest is None:
            return None
        return self._blocks.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def ancestors(self, digest: str) -> Iterator[Block]:
        """Walk from ``digest`` towards genesis (inclusive of both ends);
        stops early at gaps."""
        block = self.get(digest)
        while block is not None:
            yield block
            block = self.get(block.parent)

    def extends(self, digest: str, ancestor: str) -> bool:
        """True when ``ancestor`` lies on the path from ``digest`` to
        genesis.  Unknown ancestry (gaps) counts as *not* extending."""
        if ancestor == GENESIS_DIGEST:
            return True
        blocks = self._blocks
        block = blocks.get(digest)
        while block is not None:
            if block.digest == ancestor:
                return True
            block = blocks.get(block.parent)
        return False


class ChainedHotStuffBase(BFTProtocol):
    """Common replica logic for HotStuff+NS and LibraBFT."""

    network_model = PARTIALLY_SYNCHRONOUS
    responsive = True
    pipelined = True
    supports_recovery = True

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        self.view = 1
        self.tree = BlockTree()
        self.high_qc = make_qc(0, GENESIS_DIGEST, frozenset())
        self.locked_qc = make_qc(0, GENESIS_DIGEST, frozenset())
        self.votes = VoteCounter()  # key: (view, digest)
        self._voted_views: set[int] = set()
        self._proposed_views: set[int] = set()
        self._proposal_by_view: dict[int, str] = {}
        # digest -> slot; genesis sits at slot -1, before the first decision
        self._committed: dict[str, int] = {GENESIS_DIGEST: -1}
        self._timer = None

    # ------------------------------------------------------------------
    # identity / helpers
    # ------------------------------------------------------------------

    def leader_of(self, view: int) -> int:
        return view % self.n

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.id

    def _block_digest(self, view: int) -> str:
        return f"blk(v={view},p={self.id})"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.report("view", view=self.view)
        self._arm_timer()
        self._try_propose()

    def _arm_timer(self) -> None:
        self.cancel_timer(self._timer)
        self._timer = self.set_timer(
            self.pacemaker_interval(), "view-timeout", view=self.view
        )

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name == "view-timeout":
            if (timer.data or {}).get("view") == self.view:
                self.on_local_timeout(self.view)
        else:
            self.on_protocol_timer(timer)

    def on_recover(self) -> None:
        """Rejoin after an environmental crash: replay own decisions, re-arm
        the pacemaker timer (lost with the crash), ask peers to backfill the
        block tree, and — if this replica is the current leader — retry the
        proposal it may have missed making.

        The backfill matters because the commit rule is gap-intolerant: a
        replica whose ancestry has a hole (proposals broadcast while it was
        down are never retransmitted) would otherwise refuse to commit
        forever and the run could not terminate.
        """
        super().on_recover()
        self.broadcast(type="SYNC-REQ")
        self._arm_timer()
        self._try_propose()

    # -- pacemaker contract (implemented by subclasses) ---------------------

    def pacemaker_interval(self) -> float:
        """Current view-timer duration."""
        raise NotImplementedError

    def on_local_timeout(self, view: int) -> None:
        """The view timer fired while still in ``view``."""
        raise NotImplementedError

    def on_protocol_timer(self, timer: TimeEvent) -> None:
        """Non-view timers (subclass extensions, e.g. retransmission)."""

    def on_view_entered(self, view: int, via: str) -> None:
        """Pacemaker hook: the replica just moved to ``view`` (before the
        timer is re-armed).  ``via`` is ``"timeout"``, ``"qc"`` or ``"tc"``."""

    def proposal_ready(self, view: int) -> bool:
        """May the leader of ``view`` propose now?  Base rule: it holds a QC
        for the directly preceding view.  Subclasses add their timeout path
        (``n - f`` NEW-VIEW messages / a timeout certificate)."""
        return self.high_qc.view == view - 1

    # ------------------------------------------------------------------
    # view advancement
    # ------------------------------------------------------------------

    def advance_to_view(self, view: int, via: str) -> None:
        """Enter ``view`` (monotonically); re-arm the timer, let the leader
        propose, and vote on any proposal already buffered for it."""
        if view <= self.view:
            return
        self.view = view
        self.report("view", view=view, via=via)
        self.on_view_entered(view, via)
        self._arm_timer()
        self._try_propose()
        digest = self._proposal_by_view.get(self.view)
        if digest is not None:
            self._maybe_vote(self.tree.get(digest))

    def update_high_qc(self, qc: QuorumCertificate | None) -> None:
        """Adopt a newer QC; QC evidence for view ``w`` moves us to ``w+1``.
        Only a valid quorum (or genesis) counts, wherever it arrived from."""
        if qc is None or qc.kind != "qc" or not self._qc_valid(qc):
            return
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        if qc.view + 1 > self.view:
            self.advance_to_view(qc.view + 1, via="qc")

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------

    def _try_propose(self) -> None:
        view = self.view
        if self.leader_of(view) != self.id or view in self._proposed_views:
            return
        if not self.proposal_ready(view):
            return
        self._proposed_views.add(view)
        parent = self.tree.get(self.high_qc.ref)
        height = (parent.height if parent else 0) + 1
        block = Block(
            digest=self._block_digest(view),
            parent=self.high_qc.ref,
            view=view,
            value=self.proposal_value(height - 1, view),
            qc=self.high_qc,
            height=height,
        )
        self.tree.add(block)
        self._proposal_by_view.setdefault(view, block.digest)
        self.broadcast(type="PROPOSAL", **self._proposal_payload(block))
        self.phase("propose", view=view)
        # The leader is also a replica: it votes for its own proposal
        # immediately (its loopback copy will be deduplicated by the tree).
        self._maybe_vote(block)

    def _proposal_payload(self, block: Block) -> dict[str, Any]:
        return {
            "view": block.view,
            "digest": block.digest,
            "parent": block.parent,
            "value": block.value,
            "height": block.height,
            "qc": block.qc,
        }

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        kind = message.payload.get("type")
        if kind == "PROPOSAL":
            self._on_proposal(message)
        elif kind == "VOTE":
            self._on_vote(message)
        elif kind == "SYNC-REQ":
            self._on_sync_req(message)
        elif kind == "SYNC-RESP":
            self._on_sync_resp(message)
        else:
            self.on_extra_message(message)

    def on_extra_message(self, message: Message) -> None:
        """Subclass pacemaker messages (NEW-VIEW / TIMEOUT)."""

    def _on_proposal(self, message: Message) -> None:
        payload = message.payload
        view = int(payload["view"])
        if message.source != self.leader_of(view):
            return
        qc = QuorumCertificate.from_payload(payload.get("qc"))
        if qc is None:
            return
        if not self._qc_valid(qc):
            return
        parent = self.tree.get(payload.get("parent"))
        height = int(payload["height"])
        if parent is not None and parent.height + 1 != height:
            return  # malformed height
        block = Block(
            digest=str(payload["digest"]),
            parent=payload.get("parent"),
            view=view,
            value=payload["value"],
            qc=qc,
            height=height,
        )
        if block.digest in self.tree:
            return
        self.tree.add(block)
        self._proposal_by_view.setdefault(view, block.digest)
        self._apply_commit_rules(block)
        self.update_high_qc(qc)
        self._maybe_vote(block)

    def _qc_valid(self, qc: QuorumCertificate) -> bool:
        """Is ``qc`` acceptable evidence?  It must be a valid quorum
        (genesis is exempt)."""
        if qc.ref == GENESIS_DIGEST and qc.view == 0:
            return True
        return qc.valid(self.quorum())

    def _maybe_vote(self, block: Block | None) -> None:
        if block is None or block.view != self.view or block.view in self._voted_views:
            return
        if not self._safe_to_vote(block):
            return
        self._voted_views.add(block.view)
        next_leader = self.leader_of(block.view + 1)
        self.send(next_leader, type="VOTE", view=block.view, digest=block.digest)
        self.phase("vote", view=block.view)

    def _safe_to_vote(self, block: Block) -> bool:
        """HotStuff's safety + liveness voting rule."""
        if self.tree.extends(block.digest, self.locked_qc.ref):
            return True
        return block.qc is not None and block.qc.view > self.locked_qc.view

    def _on_vote(self, message: Message) -> None:
        payload = message.payload
        view, digest = int(payload["view"]), str(payload["digest"])
        if self.leader_of(view + 1) != self.id:
            return  # votes for view v belong to the leader of v+1
        if view + 1 < self.view:
            # Stale: this replica's pacemaker has already moved past the
            # view these votes could certify.  Dropping past-view messages
            # is standard replica hygiene — and it is precisely what makes
            # an out-of-sync cluster waste work: votes race the collector's
            # own timeout (paper §II-C1).
            return
        count = self.votes.add((view, digest), message.source)
        if count == self.quorum("available"):
            qc = make_qc(view, digest, self.votes.voters((view, digest)))
            self.update_high_qc(qc)
            self._try_propose()

    # ------------------------------------------------------------------
    # crash-recovery catch-up
    # ------------------------------------------------------------------

    def _on_sync_req(self, message: Message) -> None:
        """A recovered replica asked for our chain: ship every block from
        our high QC's tip back to genesis.  Each block travels with the QC
        that justified it, so the receiver can validate the transfer without
        trusting us."""
        blocks = [
            self._proposal_payload(block)
            for block in self.tree.ancestors(self.high_qc.ref)
            if block.digest != GENESIS_DIGEST
        ]
        if not blocks:
            return
        self.send(
            message.source,
            type="SYNC-RESP",
            blocks=list(reversed(blocks)),  # genesis-adjacent first
            high_qc=self.high_qc,
        )

    def _on_sync_resp(self, message: Message) -> None:
        """Ingest a peer's chain transfer: validated blocks fill ancestry
        gaps, and the commit rule is re-run from the freshest tip we now
        hold — a single filled gap can unlock a whole chain of commits."""
        for payload in message.payload.get("blocks", []):
            qc = QuorumCertificate.from_payload(payload.get("qc"))
            if qc is None or not self._qc_valid(qc):
                continue
            self.tree.add(
                Block(
                    digest=str(payload["digest"]),
                    parent=payload.get("parent"),
                    view=int(payload["view"]),
                    value=payload["value"],
                    qc=qc,
                    height=int(payload["height"]),
                )
            )
        self.update_high_qc(QuorumCertificate.from_payload(message.payload.get("high_qc")))
        tip = self.tree.get(self.high_qc.ref)
        if tip is not None:
            self._apply_commit_rules(tip)

    # ------------------------------------------------------------------
    # commit rule
    # ------------------------------------------------------------------

    def _apply_commit_rules(self, block: Block) -> None:
        """Run the lock and three-chain commit rules triggered by ``block``.

        ``block`` carries ``qc`` certifying ``b1``; ``b1.qc`` certifies
        ``b2``; ``b2.qc`` certifies ``b3``.  Lock on the two-chain head
        (``b2``); commit ``b3`` when views ``b1``/``b2``/``b3`` are
        consecutive.
        """
        if block.qc is None:
            return
        b1 = self.tree.get(block.qc.ref)
        if b1 is None or b1.qc is None:
            return
        b2 = self.tree.get(b1.qc.ref)
        if b2 is None:
            return
        if b1.qc.view > self.locked_qc.view:
            self.locked_qc = b1.qc
        if b2.qc is None:
            return
        b3 = self.tree.get(b2.qc.ref)
        if b3 is None or b3.digest == GENESIS_DIGEST:
            return
        if b1.view == b2.view + 1 and b2.view == b3.view + 1:
            self._commit(b3)

    def _commit(self, block: Block) -> None:
        """Commit ``block`` and any uncommitted ancestors, oldest first.

        Slots are the block's *position on the chain* (genesis excluded),
        which is identical for every replica because the chain is agreed.
        A replica with a gap in its ancestry (it missed proposals on a
        lossy network) refuses to commit until the gap is filled — local
        sequential numbering would silently assign different slots to
        different replicas.

        The walk stops at the first committed ancestor: the committed set
        is closed under ancestry (a commit takes every uncommitted ancestor
        along, and the tree never loses a block), so that ancestor's slot
        is its position on any chain through it.  ``Block.height`` is not
        used — a block whose parent was unknown on arrival had its height
        unchecked.
        """
        newly: list[Block] = []
        for b in self.tree.ancestors(block.digest):
            base = self._committed.get(b.digest)
            if base is not None:
                break
            newly.append(b)
        else:
            return  # ancestry gap: ordering unknown, commit must wait
        if not newly:
            return
        newly.reverse()  # oldest first
        for slot, b in enumerate(newly, start=base + 1):
            self._committed[b.digest] = slot
            self.decide(slot, b.value)
        self.phase("commit", view=newly[-1].view)
        self.on_commit(newly[-1].view)

    def on_commit(self, view: int) -> None:
        """Pacemaker hook: a block proposed in ``view`` just committed.

        ``view`` is a property of the (agreed) chain, so every replica
        passes the same value here — pacemakers may safely key shared state
        like back-off anchors off it."""
