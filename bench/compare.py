"""``python3 -m bench compare A.json B.json`` — B against A, by the bounds.

One row per workload and end-to-end metric: both medians, the ratio B/A
(A is the base), by how much B is worse in the metric's bad direction, and
a verdict by the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — not regressed, but the runs of one side spread wider
  than the bound, so "unchanged" cannot be claimed either;
* ``ok``         — neither.

Exit status 1 when any row regressed or B failed more operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any


def load_values(path: str) -> tuple[dict[tuple[str, str], list[float]], int]:
    """``(workload, metric) -> values over the file's sets`` and the total
    of failed operations."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for results in data["sets"]:
        for workload, result in results.items():
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, failed


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (``None`` when one
    value cannot say)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def classify(a: list[float], b: list[float], better: str, bound: float) -> dict[str, Any]:
    """Verdict for one metric on one workload."""
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if worse_by > bound:
        verdict = "regressed"
    elif widest is not None and widest > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"a": base, "b": new, "ratio": new / base, "worse_by": worse_by,
            "spread": widest, "bound": bound, "verdict": verdict}


def compare(a_path: str, b_path: str, spec: dict[str, Any]) -> tuple[list[dict[str, Any]], bool]:
    """Rows for every workload x end-to-end metric both files hold, and
    whether B failed more operations than A."""
    a_values, a_failed = load_values(a_path)
    b_values, b_failed = load_values(b_path)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key in a_values and key in b_values:
                row = classify(a_values[key], b_values[key], metric["better"], metric["bound"])
                rows.append({"workload": workload, "metric": metric["name"],
                             "unit": metric["unit"], **row})
    return rows, b_failed > a_failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    from .harness import load_spec

    rows, more_failures = compare(argv[0], argv[1], load_spec())
    print(f"{'workload':18s} {'metric':13s} {'A (base)':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        shown = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{row['workload']:18s} {row['metric']:13s} {row['a']:12.6g} {row['b']:12.6g} "
              f"{row['ratio']:7.3f} {row['worse_by']:+9.3f} {row['bound']:6.2f} {shown:>7s}  "
              f"{row['verdict']}  [{row['unit']}]")
    if more_failures:
        print("B failed more operations than A")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    return 1 if regressed or more_failures else 0
