"""HotStuff with a naive view-doubling synchronizer (HotStuff+NS).

The paper's HotStuff variant (§III-B5): the chained HotStuff core plus the
PaceMaker the HotStuff paper sketches but never specifies — a *naive
synchronizer* built from exponential back-off, after Naor et al.  On a
local timeout a replica advances one view on its own and tells the new
view's leader (``NEW-VIEW`` carrying its highest QC); the leader may
propose once it collects ``n - f`` such messages.  Nothing else
synchronizes views.

Two formulations of the back-off are provided, selected by
``protocol_params["synchronizer"]``:

``"per-node"`` (default — the naive synchronizer evaluated in the paper)
    Each replica keeps its own consecutive-timeout counter: every timeout
    doubles *its* interval, and any locally-observed progress (a QC moving
    it forward, or a commit) snaps *its* interval back to ``lambda``.
    Because resets are driven by each replica's own observations, interval
    state diverges across the cluster; replicas drift into disjoint view
    groups and can take a long time — potentially forever under sustained
    stress — to re-align.  This divergence is the paper's central HotStuff
    finding: the latency blow-up when ``lambda`` underestimates the real
    delay (Fig. 5), the view-group plateaus of Fig. 9, the ~100 s
    post-partition lag of Fig. 6, and the drastic fail-stop degradation of
    Fig. 7.

``"view-indexed"``
    Naor et al.'s view-doubling formulation: the duration of view ``v`` is
    ``lambda * 2 ** (v - anchor)`` with the anchor at the last committed
    block's view.  Durations are a function of *shared* state, so a replica
    that falls behind sits in shorter views and catches up —
    self-stabilizing, at the cost of long fallback views.  Provided as the
    repaired ablation (see ``benchmarks/bench_ablation_pacemakers.py``).

``protocol_params["max_backoff_doublings"]`` caps the exponent of either
formulation (default 24, i.e. effectively uncapped, matching a truly naive
implementation).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..core.errors import ConfigurationError
from ..core.message import Message
from ..crypto.quorum import QuorumCertificate
from .chained import ChainedHotStuffBase
from .pacemakers import PerNodeDoublingPolicy, ViewDoublingPolicy
from .registry import register_protocol


@register_protocol("hotstuff-ns")
class HotStuffNSNode(ChainedHotStuffBase):
    """One honest HotStuff+NS replica."""

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        synchronizer = env.protocol_param("synchronizer", "per-node")
        max_doublings = int(env.protocol_param("max_backoff_doublings", 24))
        if synchronizer == "per-node":
            self.policy: PerNodeDoublingPolicy | ViewDoublingPolicy = (
                PerNodeDoublingPolicy(self.lam, max_doublings=max_doublings)
            )
        elif synchronizer == "view-indexed":
            self.policy = ViewDoublingPolicy(self.lam, max_doublings=max_doublings)
        else:
            raise ConfigurationError(
                f"unknown synchronizer {synchronizer!r}; "
                "expected 'per-node' or 'view-indexed'"
            )
        self._synchronizer = synchronizer
        self._newview_senders: dict[int, set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # pacemaker
    # ------------------------------------------------------------------

    def pacemaker_interval(self) -> float:
        if isinstance(self.policy, ViewDoublingPolicy):
            return self.policy.duration_of(self.view)
        return self.policy.current()

    def on_local_timeout(self, view: int) -> None:
        """Advance alone and notify the next leader."""
        if isinstance(self.policy, PerNodeDoublingPolicy):
            self.policy.on_timeout()
        next_view = view + 1
        self.advance_to_view(next_view, via="timeout")
        self.send(
            self.leader_of(next_view),
            type="NEW-VIEW",
            view=next_view,
            qc=self.high_qc,
        )

    def on_view_entered(self, view: int, via: str) -> None:
        """Per-node mode treats a QC-driven advance as "network fine again"
        and snaps its own interval back — the uncoordinated reset that lets
        interval state diverge across replicas."""
        if via == "qc" and isinstance(self.policy, PerNodeDoublingPolicy):
            self.policy.on_progress()

    def on_commit(self, view: int) -> None:
        if isinstance(self.policy, PerNodeDoublingPolicy):
            self.policy.on_progress()
        else:
            self.policy.on_commit(view)

    def proposal_ready(self, view: int) -> bool:
        if super().proposal_ready(view):
            return True
        return len(self._newview_senders[view]) >= self.quorum("available")

    # ------------------------------------------------------------------
    # pacemaker messages
    # ------------------------------------------------------------------

    def on_extra_message(self, message: Message) -> None:
        if message.payload.get("type") != "NEW-VIEW":
            return
        payload = message.payload
        view = int(payload["view"])
        qc = QuorumCertificate.from_payload(payload.get("qc"))
        if self.leader_of(view) == self.id:
            self._newview_senders[view].add(message.source)
        self.update_high_qc(qc)
        self._try_propose()
