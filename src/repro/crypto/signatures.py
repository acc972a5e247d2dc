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
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

from .quorum import QuorumCertificate


def _wire_form(value: Any) -> Any:
    """The encoder's hook for non-JSON values: a certificate encodes as its
    wire dict — the bytes of a payload carrying ``to_payload()`` — and
    anything else as its ``repr``."""
    if isinstance(value, QuorumCertificate):
        return value.to_payload()
    return repr(value)


#: ``canonical`` runs once per sent message (wire-size estimate), and
#: ``JSONEncoder.encode`` builds a new C encoder on every call.  This one is
#: built once with the same settings (``sort_keys=True``, ``default``
#: above), so it writes the same bytes.  Its circular-reference markers are
#: empty between calls — the encoder removes what it adds — and are cleared
#: after a call that failed half-way.  Sharing them assumes one caller at a
#: time, which holds: a run is single-threaded and fleets use processes.
_MARKERS: dict[int, Any] = {}
_encode = (
    c_make_encoder(_MARKERS, _wire_form, encode_basestring_ascii, None,
                   ": ", ", ", True, False, True)
    if c_make_encoder is not None
    else json.JSONEncoder(sort_keys=True, default=_wire_form).iterencode  # no C accelerator
)


def canonical(statement: Any) -> str:
    """Stable string form of a statement (JSON with sorted keys; a
    :class:`~repro.crypto.quorum.QuorumCertificate` as its wire dict, other
    non-JSON values as their ``repr``; the ``repr`` of the whole statement
    when it is not encodable at all)."""
    try:
        return "".join(_encode(statement, 0))
    except BaseException as error:
        _MARKERS.clear()
        if isinstance(error, (TypeError, ValueError)):
            return repr(statement)
        raise


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
