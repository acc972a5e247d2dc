"""Tests for the declarative scenario spec: grammar, round-trip, validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.registry import available_attacks
from repro.core.config import FAULT_KINDS, FaultSpec
from repro.core.errors import ConfigurationError
from repro.core.runner import run_simulation
from repro.core.results import result_fingerprint
from repro.scenarios import (
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    load_scenario,
    parse_scenario_spec,
)
from repro.scenarios.spec import AttackClause

from tests.conftest import quick_config

# Specs the grammar can express: strings without separators that do not
# read as another scalar, lists of two or more scalars, valid windows.
_WORDS = st.from_regex(r"[a-z][a-z_-]{0,8}", fullmatch=True).filter(
    lambda word: word not in ("true", "false", "nan", "inf", "infinity")
)
_SCALARS = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    _WORDS,
)
_WINDOWS = st.tuples(
    st.floats(0.0, 1e7), st.one_of(st.none(), st.floats(1e-3, 1e7))
).map(lambda w: (w[0], None if w[1] is None else w[0] + w[1])).filter(
    lambda w: w[1] is None or w[1] > w[0]
)
_ATTACK_CLAUSES = st.builds(
    lambda attack, params, window: AttackClause(attack, params, *window),
    st.sampled_from(available_attacks()),
    st.dictionaries(_WORDS, st.one_of(_SCALARS, st.lists(_SCALARS, min_size=2, max_size=3)),
                    max_size=3),
    _WINDOWS,
)
_RATES = st.floats(allow_nan=False, allow_infinity=False)
_FAULT_SPECS = st.builds(
    lambda kind, rate, factor, node, window: FaultSpec(
        kind,
        rate=0.0 if kind in ("crash", "link-down") else rate,
        factor=factor if kind == "delay" else 1.0,
        node=node if kind == "crash" else None,
        start=window[0],
        end=window[1],
    ),
    st.sampled_from(FAULT_KINDS), _RATES, _RATES, st.integers(0, 1000), _WINDOWS,
)


class TestGrammar:
    def test_attack_clause_with_params(self):
        spec = parse_scenario_spec("targeted-delay=factor:4.0,extra_delay:500")
        assert len(spec.attacks) == 1
        clause = spec.attacks[0]
        assert clause.attack == "targeted-delay"
        assert clause.params == {"factor": 4.0, "extra_delay": 500}

    def test_window_suffix(self):
        spec = parse_scenario_spec("failstop=count:1@5000:20000")
        clause = spec.attacks[0]
        assert clause.start == 5000.0
        assert clause.end == 20000.0

    def test_value_types(self):
        spec = parse_scenario_spec(
            "targeted-delay=targets:1+2+3,factor:4,quiet:true,mode:abc"
        )
        params = spec.attacks[0].params
        assert params["targets"] == [1, 2, 3]
        assert params["factor"] == 4
        assert params["quiet"] is True
        assert params["mode"] == "abc"

    def test_fault_clause_mixed_in(self):
        spec = parse_scenario_spec("targeted-delay=factor:2; loss=0.05@0:10000")
        assert len(spec.attacks) == 1
        assert len(spec.faults) == 1
        assert spec.faults[0].kind == "loss"
        assert spec.faults[0].rate == 0.05

    def test_fault_preset_clause(self):
        spec = parse_scenario_spec("lossy-network")
        assert spec.faults, "fault preset should expand into fault clauses"

    def test_unknown_clause_names_all_namespaces(self):
        with pytest.raises(ConfigurationError, match="neither an attack"):
            parse_scenario_spec("no-such-thing=x:1")

    def test_bad_parameter_syntax(self):
        with pytest.raises(ConfigurationError, match="key:value"):
            parse_scenario_spec("targeted-delay=factor")

    def test_empty_parameter_list(self):
        with pytest.raises(ConfigurationError, match="empty parameter list"):
            parse_scenario_spec("targeted-delay=")


class TestRoundTrip:
    SPECS = [
        "targeted-delay=factor:4.0",
        "targeted-delay=targets:0+2,factor:3.0; loss=0.05",
        "partition=start:1000.0,end:9000.0; pbft-equivocation",
        "adaptive=action:delay,signal:critical,k:2,factor:6.0",
        "failstop=count:1@2000:",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_json_round_trip_is_byte_identical(self, text):
        spec = parse_scenario_spec(text)
        encoded = spec.to_json()
        again = ScenarioSpec.from_json(encoded).to_json()
        assert encoded == again

    @pytest.mark.parametrize("text", SPECS)
    def test_dict_round_trip_preserves_clauses(self, text):
        spec = parse_scenario_spec(text)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert [c.describe() for c in clone.attacks] == [
            c.describe() for c in spec.attacks
        ]

    def test_python_and_json_forms_run_fingerprint_identical(self):
        python_spec = ScenarioSpec(
            name="rt",
            attacks=[
                AttackClause(
                    attack="targeted-delay", params={"factor": 3.0}
                ),
            ],
            faults=[FaultSpec(kind="loss", rate=0.02, end=4000.0)],
        )
        json_spec = ScenarioSpec.from_json(python_spec.to_json())
        base = quick_config(n=4, seed=5, stall_timeout=20000.0)
        fp_a = result_fingerprint(run_simulation(python_spec.apply(base)))
        fp_b = result_fingerprint(run_simulation(json_spec.apply(base)))
        assert fp_a == fp_b

    def test_describe_is_the_grammar(self):
        text = "targeted-delay=targets:1+2,factor:4; loss=0.05@0:9000; crash=2@100:900"
        spec = parse_scenario_spec(text, name="rt")
        assert spec.describe() == f"rt: {text}"

    @pytest.mark.parametrize("preset", available_scenarios())
    def test_preset_description_pastes_back(self, preset):
        spec = get_scenario(preset)
        text = spec.describe().removeprefix(f"{spec.name}: ")
        assert parse_scenario_spec(text, name=spec.name).to_json() == spec.to_json()

    @settings(max_examples=200)
    @given(spec=st.builds(
        lambda attacks, faults: ScenarioSpec(name="rt", attacks=attacks, faults=faults),
        st.lists(_ATTACK_CLAUSES, max_size=3),
        st.lists(_FAULT_SPECS, max_size=3),
    ).filter(lambda spec: spec.attacks or spec.faults))
    def test_describe_parses_back_to_the_same_spec(self, spec):
        text = spec.describe().removeprefix("rt: ")
        assert parse_scenario_spec(text, name="rt").to_json() == spec.to_json()

    def test_scenario_file_round_trip(self, tmp_path):
        spec = parse_scenario_spec("targeted-delay=factor:2.5; loss=0.01")
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        loaded = load_scenario(str(path))
        assert loaded.to_json() == spec.to_json()


class TestValidation:
    def test_budget_overrun_rejected(self):
        spec = parse_scenario_spec("failstop=count:1; pbft-equivocation")
        config = quick_config(n=4)  # f = 1 for pbft
        with pytest.raises(ConfigurationError, match="demands 2 corruptions"):
            spec.apply(config)

    def test_windowed_static_corruption_rejected(self):
        # pbft-equivocation corrupts but is a *static* attacker (no
        # ADAPTIVE): giving it a delayed activation window must be illegal.
        spec = parse_scenario_spec("pbft-equivocation@5000")
        with pytest.raises(ConfigurationError, match="ADAPTIVE"):
            spec.apply(quick_config(n=4))

    def test_windowed_adaptive_corruption_allowed(self):
        # failstop declares ADAPTIVE precisely so mid-run crashes are legal.
        spec = parse_scenario_spec("failstop=count:1@5000")
        spec.validate(quick_config(n=4))
        spec = parse_scenario_spec("adaptive=action:corrupt,budget:1@5000")
        spec.validate(quick_config(n=4))

    def test_relay_targeting_needs_tree(self):
        spec = parse_scenario_spec("targeted-delay=targets:relays,factor:4")
        with pytest.raises(ConfigurationError, match="dissemination='tree'"):
            spec.apply(quick_config(n=8))
        spec.validate(quick_config(n=8, dissemination="tree"))

    def test_allow_cap_rejects_excess_capability(self):
        spec = parse_scenario_spec("failstop=count:1")
        spec.allow = ["network", "observe"]
        with pytest.raises(ConfigurationError, match="allow list"):
            spec.apply(quick_config(n=4))

    def test_malformed_window_rejected(self):
        spec = ScenarioSpec(
            attacks=[AttackClause(attack="targeted-delay", start=50.0, end=10.0)]
        )
        with pytest.raises(ConfigurationError, match="window end must be a finite number > 50"):
            spec.validate(quick_config(n=4))

    def test_unknown_attack_rejected(self):
        spec = ScenarioSpec(attacks=[AttackClause(attack="no-such-attack")])
        with pytest.raises(ConfigurationError):
            spec.validate(quick_config(n=4))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown attack clause"):
            ScenarioSpec.from_dict(
                {"attacks": [{"attack": "failstop", "when": 3}]}
            )

    def test_apply_refuses_non_null_base_attack(self):
        from repro import AttackConfig

        spec = parse_scenario_spec("targeted-delay=factor:2")
        config = quick_config(n=4, attack=AttackConfig(name="failstop"))
        with pytest.raises(ConfigurationError, match="on top of attack"):
            spec.apply(config)

    def test_apply_compiles_to_scenario_attack_and_faults(self):
        spec = parse_scenario_spec("targeted-delay=factor:2; loss=0.05")
        applied = spec.apply(quick_config(n=4))
        assert applied.attack.name == "scenario"
        assert applied.attack.params == spec.to_dict()
        assert applied.faults.specs[-1].kind == "loss"
        # The compiled config survives its own serialization (replayability).
        encoded = json.dumps(applied.to_dict(), sort_keys=True)
        from repro import SimulationConfig

        assert SimulationConfig.from_dict(json.loads(encoded)) == applied
