"""The repository's benchmark: ``python3 -m bench`` from the repo root.

See ``bench/README.md`` for the workloads, the metrics and how to run,
trace and compare.  The benchmark is a client of the ``repro`` package
under ``src/``: it generates inputs from ``--seed``, calls public entry
points, times them from outside, and checks the deterministic simulated
statistics as correctness guards.  Nothing here is imported by ``repro``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (temporary stores, traces, result files)
#: lands here; the directory is git-ignored.
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"


def use_source_tree() -> None:
    """Put ``src/`` first on ``sys.path`` so ``import repro`` loads this
    checkout's package and never an installed copy.

    Raises:
        SystemExit: when the checkout has no ``src/repro`` — the benchmark
            measures the program beside it and has nothing to run alone.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A private directory under ``bench/out``, removed afterwards: stores,
    traces and sockets of one run never leave the checkout."""
    path = OUT_DIR / f"tmp-{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
