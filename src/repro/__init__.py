"""repro — an efficient and flexible simulator for BFT protocols.

A Python reproduction of the DSN 2022 tool paper "An Efficient and Flexible
Simulator for Byzantine Fault-Tolerant Protocols" (Wang, Chao, Wu, Hsiao).

The package provides:

* a deterministic discrete-event simulator (controller, event queue,
  simulated clock) — :mod:`repro.core`;
* a configurable peer-to-peer network model with pluggable delay
  distributions and partition support — :mod:`repro.network`;
* an abstracted *global attacker* with capability-enforced threat models —
  :mod:`repro.attacks`;
* a declarative environmental fault layer (message loss, duplication,
  corruption, link churn, node crash/recovery) plus a liveness watchdog —
  :mod:`repro.faults`;
* eight reference BFT protocols (ADD+ v1/v2/v3, Algorand Agreement,
  Bracha's async BA, PBFT, HotStuff+NS, LibraBFT) — :mod:`repro.protocols`;
* a validator module for trace cross-checking — :mod:`repro.validator`;
* a BFTSim-style packet-level baseline simulator — :mod:`repro.baseline`;
* the experiment harness regenerating the paper's tables and figures —
  :mod:`repro.analysis`;
* a run telemetry layer (streaming trace sinks, trace forensics behind
  the ``repro inspect`` CLI) — :mod:`repro.observability`;
* an open-loop client workload layer (Poisson/trace arrivals, leader
  mempool with batch cut, throughput–latency saturation curves) —
  :mod:`repro.workload`.

Quickstart::

    from repro import SimulationConfig, run_simulation

    config = SimulationConfig(protocol="pbft", n=16, lam=1000.0)
    result = run_simulation(config)
    print(result.summary())
"""

from .core.config import (
    AttackConfig,
    FaultScheduleConfig,
    FaultSpec,
    NetworkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from .core.controller import Controller
from .core.message import Message
from .core.node import Node
from .core.results import (
    RequestRecord,
    RunFailure,
    SimulationResult,
    StallReport,
    ThroughputMetrics,
    result_fingerprint,
)
from .core.runner import repeat_simulation, run_batch, run_simulation, sweep
from .faults import parse_faults_spec
from .observability import (
    EventFilter,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceSink,
)
from .parallel import ParallelRunner, ProgressUpdate
from .protocols.registry import available_protocols, get_protocol, register_protocol
from .attacks.registry import available_attacks, get_attack, register_attack
from .workload import parse_workload_spec
from .core.lazy import lazy_attributes

#: Trace forensics load on first use (see :mod:`repro.observability`).
__getattr__ = lazy_attributes(__name__, {
    "observability.inspect": ("analyze_trace", "render_report"),
})

__version__ = "1.2.0"

__all__ = [
    "AttackConfig",
    "Controller",
    "EventFilter",
    "FaultScheduleConfig",
    "FaultSpec",
    "JsonlSink",
    "MemorySink",
    "Message",
    "NetworkConfig",
    "Node",
    "NullSink",
    "ParallelRunner",
    "ProgressUpdate",
    "RequestRecord",
    "RunFailure",
    "SimulationConfig",
    "SimulationResult",
    "StallReport",
    "ThroughputMetrics",
    "TraceSink",
    "WorkloadConfig",
    "analyze_trace",
    "available_attacks",
    "available_protocols",
    "get_attack",
    "get_protocol",
    "parse_faults_spec",
    "parse_workload_spec",
    "render_report",
    "register_attack",
    "register_protocol",
    "repeat_simulation",
    "result_fingerprint",
    "run_batch",
    "run_simulation",
    "sweep",
    "__version__",
]
