"""The --faults grammar, preset registry, and config serialization."""

import pytest

from repro.core.config import FaultScheduleConfig, FaultSpec, SimulationConfig
from repro.core.errors import ConfigurationError
from repro.faults import available_presets, get_preset, parse_faults_spec, register_preset


class TestParser:
    def test_single_rate_clause(self):
        schedule = parse_faults_spec("loss=0.1")
        assert [(s.kind, s.rate) for s in schedule.specs] == [("loss", 0.1)]

    def test_multi_clause_schedule_preserves_order(self):
        schedule = parse_faults_spec("loss=0.05; duplicate=0.1; corrupt=0.02")
        assert [s.kind for s in schedule.specs] == ["loss", "duplicate", "corrupt"]

    def test_delay_clause_rate_and_factor(self):
        (spec,) = parse_faults_spec("delay=0.2x5").specs
        assert (spec.kind, spec.rate, spec.factor) == ("delay", 0.2, 5.0)

    def test_delay_without_factor_rejected(self):
        with pytest.raises(ConfigurationError, match="rate and factor"):
            parse_faults_spec("delay=0.2")

    def test_window_forms(self):
        closed = parse_faults_spec("loss=0.1@1000:2500").specs[0]
        assert (closed.start, closed.end) == (1000.0, 2500.0)
        open_end = parse_faults_spec("loss=0.1@1000").specs[0]
        assert (open_end.start, open_end.end) == (1000.0, None)
        open_colon = parse_faults_spec("loss=0.1@1000:").specs[0]
        assert (open_colon.start, open_colon.end) == (1000.0, None)

    def test_link_down_takes_window_not_argument(self):
        (spec,) = parse_faults_spec("link-down@1000:2500").specs
        assert (spec.kind, spec.start, spec.end) == ("link-down", 1000.0, 2500.0)
        with pytest.raises(ConfigurationError, match="no argument"):
            parse_faults_spec("link-down=0.5")

    def test_crash_clause(self):
        temporary = parse_faults_spec("crash=3@1000:8000").specs[0]
        assert (temporary.kind, temporary.node) == ("crash", 3)
        assert (temporary.start, temporary.end) == (1000.0, 8000.0)
        permanent = parse_faults_spec("crash=3@1000").specs[0]
        assert permanent.end is None

    def test_unknown_kind_with_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="'jitter' is neither an attack"):
            parse_faults_spec("jitter=0.1")

    def test_attack_clause_points_to_scenario(self):
        with pytest.raises(ConfigurationError, match="is an attack; use --scenario"):
            parse_faults_spec("failstop=count:1")

    def test_bad_number_names_the_clause(self):
        with pytest.raises(ConfigurationError, match="loss=lots"):
            parse_faults_spec("loss=lots")

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            parse_faults_spec("loss=0.1@a:b")

    def test_empty_clauses_skipped(self):
        assert parse_faults_spec("loss=0.1; ; ").specs[0].kind == "loss"
        assert len(parse_faults_spec("loss=0.1; ;").specs) == 1

    def test_missing_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="needs an argument"):
            parse_faults_spec("loss")
        # a bare word that is a *kind* is an incomplete clause, not a preset


class TestPresets:
    def test_builtin_presets_listed(self):
        names = available_presets()
        assert "unreliable-network" in names
        assert "lossy-network" in names

    def test_bare_preset_name_parses(self):
        schedule = parse_faults_spec("unreliable-network")
        assert [(s.kind, s.rate, s.factor) for s in schedule.specs] == [
            ("loss", 0.1, 1.0),
            ("delay", 0.2, 5.0),
        ]

    def test_windowed_preset_rewindows_every_spec(self):
        schedule = parse_faults_spec("unreliable-network@0:5000")
        assert all((s.start, s.end) == (0.0, 5000.0) for s in schedule.specs)

    def test_preset_returns_fresh_specs(self):
        first = get_preset("lossy-network")
        first[0].rate = 0.99
        assert get_preset("lossy-network")[0].rate == 0.1

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigurationError, match="unreliable-network"):
            parse_faults_spec("no-such-preset")

    def test_register_custom_preset(self):
        register_preset("_test-blip", lambda: [FaultSpec(kind="loss", rate=0.5)])
        assert parse_faults_spec("_test-blip").specs[0].rate == 0.5

    def test_preset_composes_with_clauses(self):
        schedule = parse_faults_spec("lossy-network; corrupt=0.01")
        assert [s.kind for s in schedule.specs] == ["loss", "corrupt"]


class TestConfigSerialization:
    def test_empty_schedule_leaves_to_dict_unchanged(self):
        config = SimulationConfig(protocol="pbft", n=4, lam=300.0)
        data = config.to_dict()
        assert "faults" not in data
        assert "stall_timeout" not in data

    def test_active_schedule_round_trips(self):
        config = SimulationConfig(
            protocol="pbft",
            n=4,
            lam=300.0,
            faults=parse_faults_spec("loss=0.1; crash=1@500:2000"),
            stall_timeout=10_000.0,
        )
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.faults == config.faults
        assert restored.stall_timeout == 10_000.0
        assert restored.to_dict() == config.to_dict()

    def test_replace_accepts_spec_list(self):
        config = SimulationConfig(protocol="pbft", n=4, lam=300.0)
        updated = config.replace(faults=[FaultSpec(kind="loss", rate=0.2)])
        assert isinstance(updated.faults, FaultScheduleConfig)
        assert updated.faults.specs[0].rate == 0.2
        assert not config.faults.active()

    def test_zero_rate_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="rate=0"):
            SimulationConfig(
                protocol="pbft", n=4, lam=300.0,
                faults=FaultScheduleConfig(specs=[FaultSpec(kind="loss", rate=0.0)]),
            )

    def test_crash_target_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="n=4"):
            SimulationConfig(
                protocol="pbft", n=4, lam=300.0,
                faults=parse_faults_spec("crash=9@100:200"),
            )

    def test_describe_is_readable(self):
        # It prints the --faults grammar, so a description pastes back.
        text = "loss=0.1; delay=0.2x5@0:5000; crash=2@100:900; link-down@7"
        schedule = parse_faults_spec(text)
        assert schedule.describe() == text
        assert parse_faults_spec(schedule.describe()) == schedule
