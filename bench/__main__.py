"""Command line of the benchmark.

``python3 -m bench``                          every workload, one after another
``python3 -m bench --workload W --seed N --seconds S --trace 0|1``   one run
``python3 -m bench --trace``                  the traced run of every workload
``python3 -m bench compare A.json B.json``    two result files, by the bounds
``python3 -m bench --update-guards``          re-pin the seed-1 guards
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import OUT_DIR, use_source_tree


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="run this workload only (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole set this many times (spread for compare)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default bench/out/result.json)")
    parser.add_argument("--update-guards", action="store_true",
                        help="regenerate bench/guards.json from two agreeing passes")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    use_source_tree()
    from . import harness
    from .workloads import WORKLOADS

    if args.update_guards:
        from .guards import update_guards

        return update_guards()
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; available: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else harness.load_spec()["run_seconds"]
    if args.child:
        return harness.child_main(args.workload, args.seed, seconds, bool(args.trace),
                                  args.setup_only, args.spawned_at)

    names = [args.workload] if args.workload else list(WORKLOADS)
    sets = []
    for _ in range(args.sets):
        results = {}
        for name in names:
            results[name] = harness.run_workload(name, args.seed, seconds, bool(args.trace))
            harness.print_result(name, results[name])
        sets.append(results)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from .layer_metrics import merge_trace_files

        print(f"# spans written to {merge_trace_files(names)}", file=sys.stderr)
    out = args.out or OUT_DIR / "result.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace, "sets": sets},
                  handle, indent=1)
    return 0 if all(r["correct"] for results in sets for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
