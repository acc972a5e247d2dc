"""Simulated digital signatures.

The simulator does not measure cryptographic cost (paper §III-A3), so
signatures only need the *information-flow* property: a signature over a
statement by an honest node cannot be fabricated.  Structurally, the
attacker framework already enforces this (``forge`` rejects honest
sources); this module additionally provides deterministic signature *tags*
so protocols can embed transferable proofs — e.g. PBFT view-change messages
carrying prepared certificates — and validate them on receipt.

Tags are keyed SHA-256 digests.  They are deterministic functions of
``(root seed, signer, statement)``, so two replicas independently verify
the same tag, and tests can assert byte-exact traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any


#: One encoder for every statement: ``json.dumps`` with keyword arguments
#: builds a new one per call, and ``canonical`` runs once per sent message
#: (wire-size estimate).  Same settings, same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def canonical(statement: Any) -> str:
    """Stable string form of a statement (JSON with sorted keys; falls back
    to ``repr`` for non-JSON values)."""
    try:
        return _ENCODER.encode(statement)
    except (TypeError, ValueError):
        return repr(statement)


@dataclass(frozen=True)
class Signature:
    """A signature tag over ``statement`` by ``signer``."""

    signer: int
    tag: str

    def to_dict(self) -> dict[str, Any]:
        return {"signer": self.signer, "tag": self.tag}


class SignatureScheme:
    """A per-simulation signing authority.

    Args:
        seed: the simulation's root seed; incorporating it keeps tags unique
            per run while staying deterministic.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    def _digest(self, signer: int, statement: Any) -> str:
        payload = f"{self._seed}|{signer}|{canonical(statement)}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def sign(self, signer: int, statement: Any) -> Signature:
        """Produce ``signer``'s signature over ``statement``."""
        return Signature(signer=signer, tag=self._digest(signer, statement))

    def verify(self, signature: Signature, statement: Any) -> bool:
        """Check a signature tag against a statement."""
        return signature.tag == self._digest(signature.signer, statement)

    def digest(self, statement: Any) -> str:
        """An unkeyed content digest (message/block hashes)."""
        return hashlib.sha256(canonical(statement).encode()).hexdigest()[:16]
