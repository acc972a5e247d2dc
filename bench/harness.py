"""Running one workload: the parent that spawns, and the child that measures.

The parent starts every measurement in a fresh interpreter, so imports and
caches are paid where a user pays them and ``setup_s`` (child start to the
first timed pass) is a real cold start; it is taken ``SETUP_RUNS`` times per
run and the median is reported.  The child runs one untimed warm-up pass,
then timed passes for ``--seconds``; every timing metric is a median over
passes.  With ``--trace 1`` the child instead makes one untraced and one
traced pass and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
from heapq import heappop, heappush
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

from . import ROOT, SPEC_PATH, scratch_dir

#: Set-ups per untraced run (two set-up-only children, then the measured one).
SETUP_RUNS = 3
MIN_PASSES = 3
SPIN_ITERATIONS = 25_000
SPIN_REPEATS = 3
#: The spin's duration on the host the benchmark was sized on.  Timings are
#: scaled by ``SPIN_REF_MS / spin`` so that a host running slow for a whole
#: run (the drift that dominated the noise while sizing) reads the same.
SPIN_REF_MS = 14.0
RESULT_TAG = "BENCH_CHILD_RESULT "


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def spin_ms() -> float:
    """How fast the host runs allocation-heavy Python right now.

    A fixed loop of the simulator's kind of work — small lists on a heap, a
    dict that churns — written here so that no change to ``src/`` can move
    it.  While sizing, run-to-run drift of a simulation pass tracked this
    loop far better than a register-only arithmetic loop (5 % residual
    range against 13 %).  One sample is the median of ``SPIN_REPEATS``
    back-to-back loops, because single loops catch interference bursts.
    """
    samples = []
    gc.disable()  # or its cost would grow with the measured program's heap
    try:
        for _ in range(SPIN_REPEATS):
            start = time.perf_counter()
            heap: list[list] = []
            live: dict[int, list] = {}
            for i in range(SPIN_ITERATIONS):
                entry = [(i * 7919) % 10007, i, None, None]
                live[i] = entry
                heappush(heap, entry)
                if i & 1:
                    del live[heappop(heap)[1]]
            samples.append((time.perf_counter() - start) * 1e3)
    finally:
        gc.enable()
    return statistics.median(samples)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))]


def peak_rss_mib() -> float:
    """Largest resident set of any one process of the workload: this
    interpreter or a child it waited for (the fleet's CLI and workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Child
# ---------------------------------------------------------------------------


def child_main(workload_name: str, seed: int, seconds: float, trace: bool,
               setup_only: bool, spawned_at: float) -> int:
    from . import use_source_tree

    use_source_tree()
    from .guards import Guards
    from .workloads import WORKLOADS

    with scratch_dir(workload_name) as tmp:
        workload = WORKLOADS[workload_name](seed, tmp)
        guards = Guards(workload_name, seed)
        workload.setup()
        try:
            warm = workload.one_pass()
            attempted, failed = warm.attempted, warm.failed + guards.check(warm.cells)
            raw_setup_s = time.time() - spawned_at
            setup_s = raw_setup_s * SPIN_REF_MS / spin_ms()
            report: dict[str, Any] = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
            if trace:
                from .layer_metrics import traced_run

                metrics, passes = traced_run(workload, tmp)
            elif setup_only:
                metrics, passes = {}, []
            else:
                metrics, passes, report["detail"] = timed_run(workload, seconds)
            for done in passes:
                attempted += done.attempted
                failed += done.failed + guards.check(done.cells)
        finally:
            workload.close()
    report.update(attempted=attempted, failed=failed, metrics=metrics,
                  mismatches=guards.mismatches[:20])
    print(RESULT_TAG + json.dumps(report), flush=True)
    return 0


def timed_run(workload: Any, seconds: float) -> tuple[dict[str, float], list[Any], dict[str, Any]]:
    """Timed passes for ``seconds``; the end-to-end metrics of the run."""
    passes, spins = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        gc.collect()
        spins.append(spin_ms())
        passes.append(workload.one_pass())
    rates = [done.ops / done.seconds for done in passes if done.seconds > 0]
    raw = statistics.median(rates) if rates else 0.0
    spin = statistics.median(spins)
    metrics = {
        "ops_per_s": raw * spin / SPIN_REF_MS,
        "peak_rss_mib": peak_rss_mib(),
    }
    detail = {
        "passes": len(passes),
        "pass_seconds": statistics.median(done.seconds for done in passes),
        "ops_per_pass": statistics.median(done.ops for done in passes),
        "host.spin_ms": spin,
        "host.raw.ops_per_s": raw,
        "pass_rates": rates,
        "pass_spins_ms": spins,
    }
    return metrics, passes, detail


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------


def spawn_child(workload: str, seed: int, seconds: float, trace: bool,
                setup_only: bool) -> dict[str, Any]:
    """Run one child to completion and return the report it printed."""
    command = [sys.executable, "-m", "bench", "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--spawned-at", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    for line in reversed(done.stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG):])
    raise RuntimeError(
        f"bench child for {workload!r} exited with {done.returncode} and no result")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run of one workload: the result object of the contract, plus
    ``detail`` (pass counts, host speed) for the result file."""
    spec = load_spec()
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn_child(workload, seed, seconds, False, True))
    report = spawn_child(workload, seed, seconds, trace, False)
    setups.append(report)
    attempted = sum(r["attempted"] for r in setups)
    failed = sum(r["failed"] for r in setups)
    values = report["metrics"]
    if trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    unknown = set(values) - {entry["name"] for entry in wanted}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in wanted
    }
    mismatches = [line for r in setups for line in r["mismatches"]]
    detail = dict(report.get("detail", {}), mismatches=mismatches)
    detail["host.raw.setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def print_result(workload: str, result: dict[str, Any]) -> None:
    """Every metric by name with its unit, the guard verdict, then the one
    JSON line the driver reads."""
    detail = result["detail"]
    print(f"# {workload}: {result['attempted']} operations, {result['failed']} failed"
          + "".join(f", {key}={value:.6g}" for key, value in detail.items()
                    if isinstance(value, (int, float))))
    for line in detail["mismatches"]:
        print(f"GUARD MISMATCH {line}")
    for name, entry in result["metrics"].items():
        print(f"{workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
