"""Quorum certificates.

HotStuff-family protocols carry *quorum certificates* (QCs): transferable
evidence that a quorum of replicas voted for a statement.  LibraBFT adds
*timeout certificates* (TCs) with the same structure.  The simulator's QC is
a frozen value object — once built from a vote set, it can be embedded in
payloads, compared, and validated by any replica.

A certificate travels as itself: an honest sender puts the object in its
payload, every recipient reads it through :meth:`QuorumCertificate.from_payload`
and keeps the sender's object, so one certificate serves all ``n``
replicas.  The dict form (:meth:`QuorumCertificate.to_payload`) is what
:func:`~repro.crypto.signatures.canonical` encodes for wire sizes and
digests; protocols never build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """Evidence that ``signers`` (a quorum) endorsed ``(kind, view, ref)``.

    Attributes:
        kind: certificate family — ``"qc"`` for vote certificates,
            ``"tc"`` for timeout certificates.
        view: the view/round the votes belong to.
        ref: what was endorsed (a block digest for QCs; ``None`` for TCs).
        signers: distinct voter ids.
    """

    kind: str
    view: int
    ref: str | None
    signers: frozenset[int]

    def valid(self, threshold: int) -> bool:
        """True when the certificate carries at least ``threshold`` distinct
        signers."""
        return len(self.signers) >= threshold

    def to_payload(self) -> dict[str, Any]:
        """Wire form: what ``canonical`` encodes a certificate as."""
        return {
            "kind": self.kind,
            "view": self.view,
            "ref": self.ref,
            "signers": sorted(self.signers),
        }

    @classmethod
    def from_payload(
        cls, data: "QuorumCertificate | dict[str, Any] | None"
    ) -> "QuorumCertificate | None":
        """The one certificate reader.  A certificate (what honest senders
        put in payloads) comes back unchanged, so recipients share it; a
        wire-form dict (as an attacker or a test builds one) is parsed."""
        if data is None or isinstance(data, QuorumCertificate):
            return data
        return cls(
            kind=str(data["kind"]),
            view=int(data["view"]),
            ref=data["ref"],
            signers=frozenset(map(int, data["signers"])),
        )


#: The genesis QC every HotStuff-family replica starts from.
GENESIS_QC = QuorumCertificate(kind="qc", view=0, ref="genesis", signers=frozenset())


def make_qc(view: int, ref: str, signers: set[int] | frozenset[int]) -> QuorumCertificate:
    """Build a vote certificate."""
    return QuorumCertificate(kind="qc", view=view, ref=ref, signers=frozenset(signers))


def make_tc(view: int, signers: set[int] | frozenset[int]) -> QuorumCertificate:
    """Build a timeout certificate (LibraBFT pacemaker)."""
    return QuorumCertificate(kind="tc", view=view, ref=None, signers=frozenset(signers))
