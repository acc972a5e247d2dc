"""Declarative attack scenarios, composition, and worst-case mining.

The scenario layer turns the global attacker framework's strategies into
*data*: a :class:`ScenarioSpec` composes capability-gated attack clauses
(with timed activation windows), environmental fault clauses, and overlay-
aware targeting into one seed-deterministic adversary, serializable to
JSON and to a compact CLI grammar (``--scenario``), validated at config
time.  :mod:`repro.scenarios.search` closes the loop: a deterministic
evolve harness (``repro mine``) that searches the spec space for worst
cases and emits replayable artifacts.  See ``docs/scenarios.md``.
"""

from ..core.lazy import lazy_attributes
from .presets import available_scenarios, get_scenario, register_scenario
from .spec import (
    OBJECTIVES,
    AttackClause,
    ScenarioSpec,
    load_scenario,
    parse_scenario_spec,
)

#: The miner loads on first use: only ``repro mine`` runs it.
__getattr__ = lazy_attributes(__name__, {
    "search": (
        "ArtifactCheck", "MiningReport", "check_artifact", "load_artifact",
        "mine", "replay_winner", "winner_config",
    ),
})

__all__ = [
    "ArtifactCheck",
    "AttackClause",
    "MiningReport",
    "OBJECTIVES",
    "ScenarioSpec",
    "available_scenarios",
    "check_artifact",
    "get_scenario",
    "load_artifact",
    "load_scenario",
    "mine",
    "parse_scenario_spec",
    "register_scenario",
    "replay_winner",
    "winner_config",
]
