"""Tests for mining-artifact regression checking (``repro mine --check``)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import check_artifact, mine
from tests.conftest import quick_config


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory) -> str:
    """One tiny mined artifact shared by the module's checks."""
    path = str(tmp_path_factory.mktemp("mine") / "artifact.json")
    report = mine(
        quick_config(), generations=1, population=2, search_seed=7
    )
    assert report.winner is not None
    report.write(path)
    return path


def _tampered_copy(source: str, dest: str, mutate) -> str:
    with open(source, encoding="utf-8") as handle:
        artifact = json.load(handle)
    mutate(artifact)
    with open(dest, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle)
    return dest


class TestCheckArtifact:
    def test_fresh_artifact_reproduces(self, artifact_path):
        check = check_artifact(artifact_path)
        assert check.ok
        assert check.drift == 0.0
        assert check.baseline_fingerprints_ok
        assert check.winner_fingerprints_ok
        assert "OK" in check.summary()

    def test_ratio_regression_detected(self, artifact_path, tmp_path):
        # Claim the attack was twice as strong as it actually is: a fresh
        # re-score must flag the ratio drift (and the winner fingerprints,
        # which were not touched, still match).
        def inflate(artifact):
            artifact["winner"]["median_latency"] *= 2
            artifact["winner"]["ratio_vs_baseline"] *= 2

        tampered = _tampered_copy(
            artifact_path, str(tmp_path / "tampered.json"), inflate
        )
        check = check_artifact(tampered)
        assert not check.ok
        assert check.drift == pytest.approx(-0.5)
        assert check.winner_fingerprints_ok
        assert "DRIFT" in check.summary()

    def test_improvement_beyond_tolerance_also_flags(self, artifact_path,
                                                     tmp_path):
        """Drift is two-sided: a stronger-than-recorded attack means the
        stored claim is stale too."""
        def halve(artifact):
            artifact["winner"]["median_latency"] /= 2
            artifact["winner"]["ratio_vs_baseline"] /= 2

        weaker = _tampered_copy(
            artifact_path, str(tmp_path / "weaker.json"), halve
        )
        check = check_artifact(weaker)
        assert check.drift == pytest.approx(1.0)
        assert not check.ok

    def test_a_small_nudge_is_flagged(self, artifact_path, tmp_path):
        """Matching runs give the stored ratio back bit for bit, so the
        check is exact: a claim edited by 3 % is drift, not noise."""
        def nudge(artifact):
            artifact["winner"]["median_latency"] *= 1.03
            artifact["winner"]["ratio_vs_baseline"] *= 1.03

        nudged = _tampered_copy(
            artifact_path, str(tmp_path / "nudged.json"), nudge
        )
        check = check_artifact(nudged)
        assert check.drift == pytest.approx(1 / 1.03 - 1)
        assert check.winner_fingerprints_ok
        assert not check.ok
        assert "DRIFT" in check.summary()

    def test_fingerprint_mismatch_detected(self, artifact_path, tmp_path):
        def relocate(artifact):
            artifact["baseline"]["fingerprints"][0] = "0" * 64

        moved = _tampered_copy(
            artifact_path, str(tmp_path / "moved.json"), relocate
        )
        check = check_artifact(moved)
        assert not check.baseline_fingerprints_ok
        assert not check.ok
        assert "MISMATCH" in check.summary()

    def test_winnerless_artifact_rejected(self, artifact_path, tmp_path):
        def drop_winner(artifact):
            artifact["winner"] = None

        empty = _tampered_copy(
            artifact_path, str(tmp_path / "empty.json"), drop_winner
        )
        with pytest.raises(ConfigurationError):
            check_artifact(empty)

    def test_non_artifact_rejected(self, tmp_path):
        bogus = str(tmp_path / "bogus.json")
        with open(bogus, "w", encoding="utf-8") as handle:
            json.dump({"kind": "something-else"}, handle)
        with pytest.raises(ConfigurationError):
            check_artifact(bogus)

    @pytest.mark.parametrize("key", [
        "base_config", "seeds", "baseline", "baseline.median_latency",
        "baseline.fingerprints", "winner", "winner.spec",
    ])
    def test_malformed_artifact_names_the_path_and_the_key(self, key, tmp_path):
        """Every key the check and the replay read is checked on load: a
        missing or mistyped one is a ConfigurationError, not a KeyError
        deep in ``check_artifact``."""
        artifact = {
            "kind": "repro-mining-artifact",
            "base_config": {"protocol": "pbft"},
            "seeds": [1],
            "baseline": {"median_latency": 1.0, "fingerprints": []},
            "winner": {"spec": {}},
        }
        *parents, last = key.split(".")
        holder = artifact
        for parent in parents:
            holder = holder[parent]
        holder[last] = "x"
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(ConfigurationError) as error:
            check_artifact(str(path))
        assert str(path) in str(error.value) and f"{key} must be" in str(error.value)

    def test_to_dict_is_json_serializable(self, artifact_path):
        check = check_artifact(artifact_path)
        data = json.loads(json.dumps(check.to_dict()))
        assert data["ok"] is True
        assert data["drift"] == pytest.approx(0.0)


@pytest.mark.slow
class TestCommittedArtifacts:
    """The repo's committed worst cases must keep reproducing."""

    @pytest.mark.parametrize("name", ["relay-chokehold-tree.json"])
    def test_committed_artifact_reproduces(self, name):
        check = check_artifact(f"artifacts/mining/{name}")
        assert check.ok, check.summary()
