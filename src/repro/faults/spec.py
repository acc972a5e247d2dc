"""Compact CLI grammar for fault schedules.

:func:`parse_faults_spec` turns the ``--faults`` command-line string into a
:class:`~repro.core.config.FaultScheduleConfig`.  The string is a list of
clauses in the shared clause grammar (:mod:`repro.core.clauses`), each
``kind[=arg][@start:end]``::

    loss=0.1                    drop 10% of messages
    duplicate=0.05              deliver an extra copy of 5% of messages
    corrupt=0.02                tamper 2% of payloads (receivers reject them)
    delay=0.2x5                 re-time 20% of messages by a factor of 5
    link-down@1000:2500         drop everything in the window [1000, 2500) ms
    crash=3@1000:8000           crash node 3 at 1000 ms, recover at 8000 ms
    crash=3@1000                crash node 3 at 1000 ms, permanently

A window ``@start:end`` can be attached to any clause; ``@start`` and
``@start:`` leave the end open.  A bare clause that is not a fault kind
names a registered preset (see :mod:`repro.faults.presets`), optionally
windowed — ``unreliable-network@0:5000`` confines the whole preset to the
first five simulated seconds.

Clauses compose: ``"loss=0.05; delay=0.1x3; crash=0@2000:6000"`` is a
three-process schedule.  Validation beyond the grammar (rates in range,
crash targets in ``range(n)``) happens in ``FaultSpec.validate`` when the
schedule joins a :class:`~repro.core.config.SimulationConfig`.
"""

from __future__ import annotations

from ..attacks.registry import available_attacks, is_attack
from ..core.clauses import Clause, scalar, split_clauses
from ..core.config import FAULT_KINDS, FaultScheduleConfig, FaultSpec
from .presets import available_presets, get_preset


def parse_faults_spec(text: str) -> FaultScheduleConfig:
    """Parse a ``--faults`` string into a fault schedule.

    Raises:
        ConfigurationError: on any grammar violation (an attack clause
            included), with the offending clause named.
    """
    specs: list[FaultSpec] = []
    for clause in split_clauses(text, "--faults"):
        faults = fault_specs(clause)
        if faults is None:
            raise clause.error(f"{clause.head!r} is an attack; use --scenario")
        specs.extend(faults)
    return FaultScheduleConfig(specs=specs)


def fault_specs(clause: Clause) -> list[FaultSpec] | None:
    """The fault specs ``clause`` stands for, or ``None`` when its head
    names an attack: the dispatch ``--faults`` and ``--scenario`` share.
    A head resolves, in order, to an attack, a fault kind, or a preset."""
    head, arg, window = clause.head, clause.arg, {"start": clause.start, "end": clause.end}
    if is_attack(head):
        return None
    if head not in FAULT_KINDS:
        if arg is not None or head not in available_presets():
            raise clause.error(
                f"{head!r} is neither an attack ({available_attacks()}), a fault "
                f"kind ({list(FAULT_KINDS)}), nor a fault preset ({available_presets()})"
            )
        specs = get_preset(head)
        if clause.start or clause.end is not None:  # else keep the preset's windows
            for spec in specs:
                spec.start, spec.end = clause.start, clause.end
        return specs
    if head == "link-down":
        if arg is not None:
            raise clause.error("link-down takes no argument, only a window: link-down@1000:2500")
        return [FaultSpec(head, **window)]
    if not arg:
        raise clause.error(f"needs an argument, e.g. {head}=0.1")
    if head == "crash":
        return [FaultSpec(head, node=scalar(arg, f"{clause.where}: node", int), **window)]
    if head == "delay":
        rate, x, factor = arg.partition("x")
        if not (x and factor):
            raise clause.error("delay needs rate and factor, e.g. delay=0.2x5")
    else:
        rate, factor = arg, "1"  # loss / duplicate / corrupt: a rate alone
    return [FaultSpec(head, rate=scalar(rate, f"{clause.where}: rate", float),
                      factor=scalar(factor, f"{clause.where}: factor", float), **window)]
