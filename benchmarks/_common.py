"""Shared helpers for the paper-reproduction scripts.

Every script here regenerates one table, figure or ablation of the paper's
evaluation: it renders the artifact as fixed-width text, prints it (visible
with ``pytest -s``), and saves it under ``benchmarks/out/`` so results
persist across runs and can be diffed against EXPERIMENTS.md.  None of them
measures or gates the simulator's own speed — that is ``python3 -m bench``
(``bench/README.md``).

Parallelism: every bench that runs its cells through the
:mod:`repro.analysis.experiments` harness honours ``REPRO_BENCH_JOBS``
(``0`` = one worker per CPU).  Because runs are deterministic, the numbers
in the artifacts are identical at any job count — only wall-clock time
changes — so paper-scale statistics (``REPRO_BENCH_REPS=100``) become
practical on a multi-core machine:

    REPRO_BENCH_REPS=100 REPRO_BENCH_JOBS=0 python -m pytest benchmarks/
"""

from __future__ import annotations

import pathlib

from repro.analysis.experiments import bench_jobs, bench_repetitions

__all__ = [
    "OUT_DIR", "PAPER_PROTOCOLS", "bench_jobs", "bench_repetitions",
    "run_once", "save_artifact",
]

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: The paper's Table I protocol set.  Benches that regenerate paper
#: artifacts iterate this fixed list, so extension protocols added to the
#: registry later never silently change the reproduced tables.
PAPER_PROTOCOLS = [
    "add-v1", "add-v2", "add-v3", "algorand",
    "async-ba", "hotstuff-ns", "librabft", "pbft",
]


def save_artifact(name: str, text: str) -> None:
    """Print ``text`` and persist it as ``benchmarks/out/<name>.txt``."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def run_once(benchmark, fn):
    """Time ``fn`` exactly once under pytest-benchmark.

    Experiment benches measure simulated systems, not the harness, so one
    round is the honest measurement (repetition happens inside via seeds).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
