"""CLI grammar for workload specs: ``rate:500,clients:100[,batch:64]``.

Keys map onto :class:`~repro.core.config.WorkloadConfig` fields:

========== =============== ==========================================
key        field           meaning
========== =============== ==========================================
rate       rate            aggregate arrival rate (requests/second)
clients    clients         number of open-loop clients
batch      batch           size-trigger for the mempool batch cut
timeout    batch_timeout   timeout-trigger (ms) for the batch cut
duration   duration        arrival window (ms of simulated time)
========== =============== ==========================================

The spec is one ``key:value,…`` list of the shared clause grammar
(:mod:`repro.core.clauses`).  Values are validated by
``WorkloadConfig.validate()``; this module only maps keys to fields.
"""

from __future__ import annotations

from ..core.clauses import scalar, split_pairs
from ..core.config import WorkloadConfig
from ..core.errors import ConfigurationError

_KEYS = {
    "rate": ("rate", float),
    "clients": ("clients", int),
    "batch": ("batch", int),
    "timeout": ("batch_timeout", float),
    "duration": ("duration", float),
}


def parse_workload_spec(spec: str) -> WorkloadConfig:
    """Parse ``"rate:500,clients:100,batch:64"`` into a WorkloadConfig."""
    fields: dict[str, object] = {}
    for key, value in split_pairs(spec, "--workload").items():
        if key not in _KEYS:
            raise ConfigurationError(
                f"--workload: unknown key {key!r}; expected one of {', '.join(sorted(_KEYS))}"
            )
        field, number = _KEYS[key]
        fields[field] = scalar(value, f"--workload: {key}", number)
    config = WorkloadConfig(**fields)  # type: ignore[arg-type]
    config.validate()
    return config
