"""Tests for the simulated crypto primitives."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.message import Message, estimate_message_bytes
from repro.crypto import (
    CommonCoin,
    GENESIS_QC,
    QuorumCertificate,
    SignatureScheme,
    VRFOracle,
    VRFOutput,
    VRF_RANGE,
    canonical,
    make_qc,
    make_tc,
)
from repro.crypto.vrf import VRFSecretKey


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        scheme = SignatureScheme(seed=1)
        signature = scheme.sign(3, {"type": "VOTE", "view": 2})
        assert scheme.verify(signature, {"type": "VOTE", "view": 2})

    def test_wrong_statement_fails(self):
        scheme = SignatureScheme(seed=1)
        signature = scheme.sign(3, {"view": 2})
        assert not scheme.verify(signature, {"view": 3})

    def test_wrong_signer_fails(self):
        scheme = SignatureScheme(seed=1)
        signature = scheme.sign(3, "stmt")
        forged = type(signature)(signer=4, tag=signature.tag)
        assert not scheme.verify(forged, "stmt")

    def test_seed_separates_runs(self):
        a = SignatureScheme(seed=1).sign(0, "x")
        b = SignatureScheme(seed=2).sign(0, "x")
        assert a.tag != b.tag

    def test_digest_deterministic(self):
        scheme = SignatureScheme()
        assert scheme.digest({"a": 1, "b": 2}) == scheme.digest({"b": 2, "a": 1})

    def test_canonical_handles_unserializable(self):
        assert "object" in canonical(object)

    def test_canonical_handles_circular_structures(self):
        loop: list = []
        loop.append(loop)
        assert canonical(loop) == repr(loop)

    def test_canonical_forgets_a_failed_call(self):
        # The reused encoder marks containers while it is inside them; a
        # call that fails half-way must not leave this dict marked, or
        # encoding it again would report a circular reference.
        value = {"a": [1], 1: 2}
        assert canonical(value) == repr(value)
        del value[1]
        assert canonical(value) == '{"a": [1]}'


class TestVRF:
    def test_evaluate_verify_roundtrip(self):
        oracle = VRFOracle(seed=5)
        key = oracle.keygen(2)
        output = oracle.evaluate(key, "leader/7")
        assert oracle.verify(output)

    def test_tampered_value_fails(self):
        oracle = VRFOracle(seed=5)
        output = oracle.evaluate(oracle.keygen(2), "leader/7")
        tampered = VRFOutput(
            node=output.node, input=output.input,
            value=(output.value + 1) % VRF_RANGE, proof=output.proof,
        )
        assert not oracle.verify(tampered)

    def test_claimed_node_checked(self):
        oracle = VRFOracle(seed=5)
        output = oracle.evaluate(oracle.keygen(2), "x")
        stolen = VRFOutput(node=3, input="x", value=output.value, proof=output.proof)
        assert not oracle.verify(stolen)

    def test_evaluation_requires_secret_key(self):
        oracle = VRFOracle(seed=5)
        with pytest.raises(TypeError):
            oracle.evaluate(2, "input")  # type: ignore[arg-type]

    def test_outputs_unpredictable_across_inputs(self):
        oracle = VRFOracle(seed=5)
        key = oracle.keygen(0)
        values = {oracle.evaluate(key, f"round/{i}").value for i in range(50)}
        assert len(values) == 50

    def test_payload_roundtrip(self):
        oracle = VRFOracle(seed=1)
        output = oracle.evaluate(oracle.keygen(4), "p")
        assert VRFOutput.from_payload(output.to_payload()) == output

    def test_keygen_deterministic(self):
        assert VRFOracle(seed=1).keygen(3) == VRFOracle(seed=1).keygen(3)
        assert VRFOracle(seed=1).keygen(3) != VRFOracle(seed=2).keygen(3)


class TestQuorumCertificates:
    def test_validity_threshold(self):
        qc = make_qc(3, "digest", {0, 1, 2})
        assert qc.valid(3)
        assert not qc.valid(4)

    def test_signers_deduplicated_by_frozenset(self):
        qc = make_qc(1, "d", frozenset({0, 0, 1}))
        assert len(qc.signers) == 2

    def test_payload_roundtrip(self):
        qc = make_qc(9, "blockhash", {5, 3, 8})
        assert QuorumCertificate.from_payload(qc.to_payload()) == qc

    def test_from_payload_none(self):
        assert QuorumCertificate.from_payload(None) is None

    def test_from_payload_returns_a_certificate_unchanged(self):
        qc = make_qc(9, "blockhash", {5, 3, 8})
        assert QuorumCertificate.from_payload(qc) is qc

    def test_tc_has_no_ref(self):
        tc = make_tc(4, {0, 1, 2})
        assert tc.kind == "tc"
        assert tc.ref is None

    def test_genesis_qc(self):
        assert GENESIS_QC.view == 0
        assert GENESIS_QC.ref == "genesis"


class TestCommonCoin:
    def test_flip_is_a_bit(self):
        coin = CommonCoin(seed=0)
        assert all(coin.flip(r) in (0, 1) for r in range(100))

    def test_shared_across_instances(self):
        a, b = CommonCoin(seed=7), CommonCoin(seed=7)
        assert [a.flip(r) for r in range(20)] == [b.flip(r) for r in range(20)]

    def test_varies_with_seed(self):
        a, b = CommonCoin(seed=1), CommonCoin(seed=2)
        assert [a.flip(r) for r in range(32)] != [b.flip(r) for r in range(32)]

    def test_roughly_fair(self):
        coin = CommonCoin(seed=3)
        heads = sum(coin.flip(r) for r in range(2_000))
        assert 800 < heads < 1_200

    def test_value_in_modulus(self):
        coin = CommonCoin(seed=3)
        assert all(0 <= coin.value(r, 16) < 16 for r in range(100))

    def test_value_bad_modulus(self):
        with pytest.raises(ValueError):
            CommonCoin().value(0, 0)


class _Opaque:
    def __repr__(self) -> str:
        return "<opaque>"


_CERTIFICATES = st.builds(
    QuorumCertificate,
    kind=st.sampled_from(["qc", "tc"]),
    view=st.integers(min_value=0, max_value=10**6),
    ref=st.one_of(st.none(), st.text(max_size=8)),
    signers=st.frozensets(st.integers(min_value=0, max_value=127), max_size=12),
)
_NAMES = st.text(max_size=5)
_PAYLOADS = st.dictionaries(_NAMES, st.recursive(
    st.one_of(_CERTIFICATES, st.integers(), st.text(max_size=5), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_NAMES, inner, max_size=4)
    ),
    max_leaves=12,
), max_size=5)

#: JSON-ish values and the ones that are not: non-ASCII text, nan / inf,
#: tuples, sets, an object with only a repr, and int / bool / None / float
#: keys mixed with str keys (unsortable, so the whole-statement repr).
_OPAQUE = _Opaque()
_KEYS = st.one_of(_NAMES, st.integers(-3, 3), st.booleans(), st.none(),
                  st.floats(), st.just(_OPAQUE))
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
              st.sets(st.integers(), max_size=3), st.just(_OPAQUE)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


def _wire(value):
    """``value`` with every certificate replaced by its ``to_payload()``."""
    if isinstance(value, QuorumCertificate):
        return value.to_payload()
    if isinstance(value, dict):
        return {key: _wire(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_wire(item) for item in value]
    return value


@given(_PAYLOADS)
def test_property_certificate_encodes_as_its_wire_dict(payload):
    wire = _wire(payload)
    assert canonical(payload) == canonical(wire)
    assert estimate_message_bytes(Message(0, 1, payload)) == estimate_message_bytes(
        Message(0, 1, wire)
    )


@given(_VALUES)
def test_property_canonical_is_the_sorted_json_encoder(value):
    try:
        expected = json.JSONEncoder(sort_keys=True, default=repr).encode(value)
    except (TypeError, ValueError):
        expected = repr(value)
    assert canonical(value) == expected


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_property_vrf_verify_accepts_own_output(seed, input_):
    oracle = VRFOracle(seed=seed)
    output = oracle.evaluate(oracle.keygen(1), input_)
    assert oracle.verify(output)
    assert 0 <= output.value < VRF_RANGE
