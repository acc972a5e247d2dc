"""Golden determinism regression tests.

Every registered protocol runs one small fixed-seed configuration
(``tests.pinned.golden_config``) in each dissemination mode; the run's
fingerprint, event count and message count must match its case in
``tests/pinned.json``.  Any change to them means a behavioural change to
the simulator: either an intended protocol/engine change (re-pin with
``PYTHONPATH=src python -m tests.pinned "<reason>"`` and say so in the
commit) or — the case this suite exists to catch — accidental
nondeterminism introduced by a refactor, the parallel engine, or an
environment difference.
"""

from __future__ import annotations

import pytest

from repro import available_protocols

from tests.pinned import MODES, expected, golden_case, golden_config, golden_protocols, observe


def test_every_builtin_protocol_has_a_golden_digest():
    """New protocols must be added to the golden table.  Underscore-named
    crash-test doubles registered by other test modules are unlisted by the
    registry itself, so they never appear here."""
    assert golden_protocols() == available_protocols()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_golden_covers_every_protocol(mode):
    assert golden_protocols(mode) == available_protocols()


@pytest.mark.parametrize("protocol", golden_protocols())
@pytest.mark.parametrize("mode", sorted(MODES))
def test_golden_digest(protocol, mode):
    case = golden_case(protocol, mode)
    assert observe(case) == expected(case), (
        f"{case}: deterministic output changed; if intentional, re-pin it "
        "(see tests/pinned.py)"
    )


@pytest.mark.parametrize("protocol", golden_protocols())
def test_golden_digest_stable_across_reruns(protocol):
    assert observe(golden_case(protocol)) == observe(golden_case(protocol))


@pytest.mark.parametrize("protocol", golden_protocols())
def test_explicit_full_dissemination_matches_seed_golden(protocol):
    """``dissemination="full", fanout=0`` is the default: spelling it out
    must not perturb the fingerprint (the config serializer strips default
    dissemination fields so pre-overlay fingerprints stay comparable)."""
    config = golden_config(protocol, "full")
    assert config.network.dissemination == "full"
    assert config.network.fanout == 0
    assert observe(golden_case(protocol, "full")) == expected(golden_case(protocol))
