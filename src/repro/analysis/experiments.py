"""The experiment harness behind the paper-reproduction benchmarks.

Encodes the paper's §IV methodology in one place so every figure bench uses
identical conventions:

* ``SimulationConfig``'s defaults (the paper's ``n = 16`` nodes) for
  whatever a cell does not set;
* pipelined protocols (HotStuff+NS, LibraBFT) are measured over **ten**
  decisions, all others over one;
* every cell is repeated under consecutive seeds and summarized as
  mean ± std (the paper uses 100 repetitions; the default here is
  ``REPRO_BENCH_REPS`` = 5 to keep bench runtime sane — export
  ``REPRO_BENCH_REPS=100`` for paper-scale statistics);
* **synchronous protocols run on a synchronous network**: the paper's
  network model for them bounds every delay by ``b <= lambda``
  (§III-A4), so the harness caps sampled delays at ``0.99 * lambda`` for
  protocols declaring the synchronous model.  Partially-synchronous and
  asynchronous protocols get the raw (unbounded) distribution — that is
  precisely what Figs. 5 and 7 stress.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..core.config import AttackConfig, NetworkConfig, SimulationConfig
from ..core.results import SimulationResult
from ..core.runner import repeat_simulation
from ..protocols.base import SYNCHRONOUS
from ..protocols.registry import get_protocol
from .aggregate import RunSummary, summarize

#: Decisions measured for pipelined protocols (§IV).
PIPELINED_DECISIONS: int = 10

#: Fraction of ``lambda`` used as the synchronous network's delay bound
#: ``b`` (strictly below ``lambda`` so boundary deliveries are unambiguous).
SYNC_BOUND_FRACTION: float = 0.99


def bench_repetitions(default: int = 5) -> int:
    """Per-cell repetitions, configurable via ``REPRO_BENCH_REPS``."""
    return max(1, int(os.environ.get("REPRO_BENCH_REPS", default)))


def bench_jobs(default: int = 1) -> int:
    """Worker processes per cell, configurable via ``REPRO_BENCH_JOBS``.

    Defaults to 1 (serial) so bench timings stay comparable run-to-run;
    export ``REPRO_BENCH_JOBS=$(nproc)`` to fan paper-scale repetition
    counts across cores.  ``REPRO_BENCH_JOBS=0`` means one worker per CPU.
    Because runs are deterministic, the reported statistics are identical
    either way — only wall-clock time changes.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", default))
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def decisions_for(protocol: str) -> int:
    """The paper's measurement depth for ``protocol``."""
    return PIPELINED_DECISIONS if get_protocol(protocol).pipelined else 1


def network_for(
    protocol: str,
    mean: float,
    std: float,
    lam: float,
    max_delay: float | None = None,
) -> NetworkConfig:
    """A network configuration honouring the per-model bounding policy."""
    if max_delay is None and get_protocol(protocol).network_model == SYNCHRONOUS:
        max_delay = SYNC_BOUND_FRACTION * lam
    return NetworkConfig(mean=mean, std=std, max_delay=max_delay)


@dataclass
class ExperimentCell:
    """One (protocol, parameters) cell of a figure.

    Attributes:
        protocol: registry name.
        lam: timeout parameter (ms).
        mean/std: delay distribution parameters (ms).
        attack: optional attack scenario.
        n: cluster size.
        num_decisions: decisions to measure (``None``: paper convention).
        max_time: horizon (ms); runs hitting it count as non-terminating.
        protocol_params: forwarded verbatim.
    """

    protocol: str
    lam: float = SimulationConfig.lam
    mean: float = NetworkConfig.mean
    std: float = NetworkConfig.std
    attack: AttackConfig = field(default_factory=AttackConfig)
    n: int = SimulationConfig.n
    num_decisions: int | None = None
    max_time: float = SimulationConfig.max_time
    seed: int = SimulationConfig.seed
    protocol_params: dict[str, Any] = field(default_factory=dict)

    def config(self) -> SimulationConfig:
        decisions = (
            self.num_decisions
            if self.num_decisions is not None
            else decisions_for(self.protocol)
        )
        return SimulationConfig(
            protocol=self.protocol,
            n=self.n,
            lam=self.lam,
            network=network_for(self.protocol, self.mean, self.std, self.lam),
            attack=self.attack,
            num_decisions=decisions,
            seed=self.seed,
            max_time=self.max_time,
            allow_horizon=True,
            protocol_params=dict(self.protocol_params),
        )


def run_cell(cell: ExperimentCell, repetitions: int | None = None) -> RunSummary:
    """Run one cell ``repetitions`` times and aggregate."""
    reps = repetitions if repetitions is not None else bench_repetitions()
    return summarize(run_cell_raw(cell, reps))


def run_cell_raw(cell: ExperimentCell, repetitions: int) -> list[SimulationResult]:
    """The individual results behind :func:`run_cell` (for custom metrics).

    Honours ``REPRO_BENCH_JOBS`` (see :func:`bench_jobs`): every figure
    bench that goes through the cell harness gains multi-core sweeps for
    free, with results identical to the serial ones.
    """
    return repeat_simulation(cell.config(), repetitions, jobs=bench_jobs())
