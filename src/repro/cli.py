"""Command-line interface.

The paper's workflow is "write a configuration file specifying the network
model and parameters, the BFT protocol, and, optionally, the attack
scenario" (§III-A); the CLI makes that workflow shell-scriptable:

    python -m repro list
    python -m repro run --protocol pbft -n 16 --lam 1000 --mean 250 --std 50
    python -m repro run --config experiment.json --json
    python -m repro run --protocol pbft --trace-out trace.jsonl
    python -m repro sweep --protocol pbft --param lam --values 150,250,500 --reps 5
    python -m repro validate --protocol pbft -n 8
    python -m repro inspect trace.jsonl --top 10
    python -m repro inspect trace.jsonl --critical-path --quorum --phases
    python -m repro metrics metrics.json --format prom
    python -m repro run --protocol pbft --store experiments.sqlite
    python -m repro experiments list
    python -m repro experiments diff 1 2
    python -m repro serve --port 8008
    python -m repro run --protocol pbft --health --store experiments.sqlite
    python -m repro run --protocol pbft --metrics 50 --health 250 --json
    python -m repro watch experiments.sqlite
    python -m repro mine --check artifacts/mining/worst-case-pbft-n32.json

Every command is a thin shell over the library; anything it can do, the
Python API can do too.  The config flags of ``run``, ``sweep``, ``mine`` and
``validate`` are one table, :data:`CONFIG_FLAGS`; a flag that is not given
leaves its field at the :class:`SimulationConfig` default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple, Sequence

from .analysis.aggregate import summarize
from .analysis.experiments import decisions_for
from .analysis.report import render_table
from .attacks.registry import available_attacks, make_attacker
from .core.config import (
    DISSEMINATION_MODES,
    AttackConfig,
    FaultSpec,
    NetworkConfig,
    SimulationConfig,
)
from .core.errors import SimulationError
from .core.results import RunFailure, result_attachments
from .core.runner import run_batch, run_simulation, sweep
from .core.tracing import EventFilter, JsonlSink, Trace
from .faults import available_presets, parse_faults_spec
from .observability.health import (
    DEFAULT_WINDOW_MS,
    analyze_trace_health,
    render_health,
)
from .observability.metrics import DEFAULT_INTERVAL_MS, RunMetrics
from .protocols.registry import available_protocols, get_protocol
from .scenarios import OBJECTIVES, available_scenarios, load_scenario
from .workload import parse_workload_spec


class ConfigFlag(NamedTuple):
    """One config flag of ``run``, ``sweep``, ``mine`` and ``validate``.

    ``flag`` sets the ``SimulationConfig`` field at ``path`` (dotted for a
    nested config).  A ``type`` that is a class is argparse's, so a bad
    value is a usage error (exit 2); a spec parser runs when the config is
    built instead, so its complaint is one ``error:`` line (exit 1).
    """

    flag: str
    path: str
    type: Callable[[str], Any]
    help: str
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


#: Every config flag, declared once.  An omitted flag leaves its field at the
#: ``SimulationConfig`` default, which the help text shows.
CONFIG_FLAGS = (
    ConfigFlag("--protocol", "protocol", str,
               "protocol registry name (default: %(default)s)"),
    ConfigFlag("-n", "n", int, "number of nodes"),
    ConfigFlag("-f", "f", int, "tolerated faults (default: protocol maximum)"),
    ConfigFlag("--lam", "lam", float, "timeout parameter lambda, ms"),
    ConfigFlag("--mean", "network.mean", float, "mean delay, ms"),
    ConfigFlag("--std", "network.std", float, "delay std, ms"),
    ConfigFlag("--distribution", "network.distribution", str,
               "delay distribution name"),
    ConfigFlag("--max-delay", "network.max_delay", float,
               "hard delay bound b (synchronous network)"),
    ConfigFlag("--dissemination", "network.dissemination", str,
               "broadcast dissemination mode: 'full' (direct fan-out, the "
               "paper's model), 'tree' (k-ary relay tree), or 'gossip' "
               "(seed-deterministic fanout-f push overlay); see "
               "docs/scaling.md", DISSEMINATION_MODES),
    ConfigFlag("--fanout", "network.fanout", int,
               "relay fan-out k/f for tree/gossip modes "
               "(0 = auto, max(2, ceil(sqrt(n))))"),
    ConfigFlag("--decisions", "num_decisions", int,
               "values to decide (default: paper convention)"),
    ConfigFlag("--seed", "seed", int, "root random seed"),
    ConfigFlag("--attack", "attack.name", str, "attack registry name"),
    ConfigFlag("--attack-params", "attack.params", json.loads,
               "attack parameters as JSON"),
    ConfigFlag("--faults", "faults", parse_faults_spec,
               "environmental fault schedule, e.g. 'loss=0.1; delay=0.2x5; "
               "crash=3@1000:8000' or a preset name like 'unreliable-network'"),
    ConfigFlag("--workload", "workload", parse_workload_spec,
               "open-loop client workload, e.g. 'rate:500,clients:100,"
               "batch:64' (keys: rate req/s, clients, batch, timeout ms, "
               "duration ms); proposals carry mempool batches and the result "
               "reports committed tx/s and per-request latency percentiles "
               "(see docs/workload.md)"),
    ConfigFlag("--stall-timeout", "stall_timeout", float,
               "liveness watchdog window in simulated ms: runs without honest "
               "progress for this long stop with a stall report instead of "
               "raising"),
    ConfigFlag("--max-time", "max_time", float, "simulation horizon, ms"),
)

#: ``sweep --param`` names that are the last part of a ``CONFIG_FLAGS`` path:
#: each sets its field as that row's flag does.
FIELD_PARAMS = ("lam", "mean", "std", "max_delay", "n")

#: ``sweep --param`` names with a rule of their own (``_sweep_variation``).
RULE_PARAMS = ("loss", "stall_timeout", "rate")


def _flag_help(row: ConfigFlag) -> str:
    """``row.help``, plus the field's plain dataclass default (a dataclass
    keeps one as a class attribute) unless the help names its own."""
    head, _, leaf = row.path.rpartition(".")
    fields = SimulationConfig.__dataclass_fields__
    default = getattr(fields[head].default_factory if head else SimulationConfig, leaf, None)
    if "(default:" in row.help or not isinstance(default, (str, int, float)):
        return row.help
    return f"{row.help} (default: {default})"


def _set_path(changes: dict, path: str, value: Any) -> dict:
    """``changes`` with ``value`` at the dotted ``path``."""
    head, _, leaf = path.rpartition(".")
    (changes.setdefault(head, {}) if head else changes)[leaf] = value
    return changes


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON SimulationConfig file (overrides flags)")
    for row in CONFIG_FLAGS:
        parser.add_argument(row.flag, type=row.type if isinstance(row.type, type) else None,
                            choices=row.choices, help=_flag_help(row))
    # The CLI's own default: SimulationConfig has no default protocol.
    parser.set_defaults(protocol="pbft")
    parser.add_argument("--scenario", default=None,
                        help="declarative attack scenario: a preset name "
                             "(see 'repro list'), a JSON spec file, or the "
                             "compact grammar, e.g. 'targeted-delay="
                             "targets:relays,factor:4; loss=0.05' "
                             "(see docs/scenarios.md)")


def _add_batch_options(parser: argparse.ArgumentParser, *, jobs: bool = True) -> None:
    """``--timeout`` and ``--retries``, and ``--jobs`` where runs fan out."""
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for repeated runs "
                                 "(0 = one per CPU; results are identical to "
                                 "--jobs 1, only faster)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock seconds allowed per run; hung runs "
                             "are killed and recorded as failures")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries for runs whose worker crashed or hung")


#: Default experiment-store path for ``experiments`` / ``serve``.
DEFAULT_STORE = "experiments.sqlite"


def _add_store_option(
    parser: argparse.ArgumentParser, default: str | None = None
) -> None:
    parser.add_argument("--store", default=default, metavar="PATH",
                        help="sqlite experiment store to record into "
                             "(created on first use; browse with "
                             "'repro experiments' / 'repro serve')"
                        if default is None else
                        f"sqlite experiment store (default: {default})")


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="stream the run's trace to a JSONL file "
                             "(bounded memory; read it with 'repro inspect')")
    parser.add_argument("--trace-filter", default=None, metavar="SPEC",
                        help="only record matching events, e.g. "
                             "'kind=send,deliver; node=0,1; window=0:5000'")
    parser.add_argument("--metrics", nargs="?", type=float, const=True,
                        default=False, metavar="MS",
                        help="sample engine metrics (queue depth, in-flight "
                             "messages, wire bytes, delivery latency) on the "
                             "simulated clock, every MS simulated ms "
                             f"(default {DEFAULT_INTERVAL_MS:g}), and print "
                             "a summary")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the sampled metrics as JSON (implies "
                             "--metrics); feed it to 'repro metrics'")
    _add_health_option(parser)


def _add_health_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--health", nargs="?", type=float, const=True,
                        default=False, metavar="MS",
                        help="stream rolling-window run-health detectors "
                             "(view storms, stragglers, backlog growth, "
                             "fan-in spikes, client starvation) over MS "
                             "simulated ms windows (default "
                             f"{DEFAULT_WINDOW_MS:g}) and report anomalies; "
                             "fingerprint-neutral "
                             "(see docs/health.md)")


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    config = _base_config_from_args(args)
    if args.scenario:
        config = load_scenario(args.scenario).apply(config)
    return config


def _base_config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """The ``--config`` file, or the given flags over the field defaults."""
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            return SimulationConfig.from_dict(json.load(handle))
    changes: dict[str, Any] = {}
    for row in CONFIG_FLAGS:
        value = getattr(args, row.dest)
        if value is not None:
            if not isinstance(row.type, type):
                value = row.type(value)
            _set_path(changes, row.path, value)
    if "num_decisions" not in changes:  # the paper's convention, not the field's
        changes["num_decisions"] = decisions_for(args.protocol)
    config = SimulationConfig(
        network=NetworkConfig(**changes.pop("network", {})),
        attack=AttackConfig(**changes.pop("attack", {})),
        allow_horizon=True,
        **changes,
    )
    make_attacker(config.attack, "--attack-params")  # reads the params, or one error line
    return config


def _result_dict(result) -> dict:
    return {
        "protocol": result.config.protocol,
        "terminated": result.terminated,
        "latency_ms": result.latency,
        "latency_per_decision_ms": result.latency_per_decision,
        "messages": result.messages,
        "messages_per_decision": result.messages_per_decision,
        "bytes_sent": result.bytes_sent,
        "max_view": result.max_view,
        "faulty": sorted(result.faulty),
        "events_processed": result.events_processed,
        "wall_clock_seconds": result.wall_clock_seconds,
        "decided_values": {str(k): v for k, v in result.decided_values.items()},
        **result_attachments(result),
    }


def cmd_list(_args: argparse.Namespace) -> int:
    print("protocols:")
    for name in available_protocols():
        cls = get_protocol(name)
        traits = []
        if cls.responsive:
            traits.append("responsive")
        if cls.pipelined:
            traits.append("pipelined")
        suffix = f" ({', '.join(traits)})" if traits else ""
        print(f"  {name:<12} {cls.network_model}{suffix}")
    print("attacks:")
    for name in available_attacks():
        print(f"  {name}")
    print("fault presets:")
    for name in available_presets():
        print(f"  {name}")
    print("scenario presets:")
    for name in available_scenarios():
        print(f"  {name}")
    return 0


def _jobs_from_args(args: argparse.Namespace) -> int | None:
    """``--jobs 0`` means one worker per CPU (engine default)."""
    if args.jobs < 0:
        raise ValueError(f"--jobs must be >= 0 (0 = one per CPU), got {args.jobs}")
    return None if args.jobs == 0 else args.jobs


def _progress_printer(args: argparse.Namespace):
    """A stderr progress line for long parallel sweeps (stdout stays clean
    for the result table)."""
    if args.jobs == 1:
        return None

    def report(update) -> None:
        end = "\n" if update.done == update.total else "\r"
        print(f"  {update.summary()}", file=sys.stderr, end=end, flush=True)

    return report


def _run_sink(args: argparse.Namespace) -> JsonlSink | None:
    """The ``--trace-out`` sink (with any ``--trace-filter``), or ``None``."""
    if args.trace_out is None:
        if args.trace_filter is not None:
            raise ValueError("--trace-filter requires --trace-out")
        return None
    event_filter = (
        EventFilter.parse(args.trace_filter) if args.trace_filter else None
    )
    return JsonlSink(args.trace_out, filter=event_filter)


@contextmanager
def _recording(args: argparse.Namespace, kind: str, config, total_runs: int,
               *, params: dict | None = None, labels=None, trace_paths=None):
    """The :class:`StoreRecorder` for ``--store`` (``None`` when unset).

    Any exception out of the block closes the experiment as ``failed`` — a
    batch that dies must not stay ``running`` on the dashboard.  A block that
    ends normally closes the experiment itself, with the status it knows.
    """
    if args.store is None:
        yield None
        return
    from .store import ExperimentStore, StoreRecorder

    store = ExperimentStore(args.store)
    recorder = StoreRecorder.open(
        store, f"{config.protocol} {kind}", kind, config, total_runs,
        params=params, labels=labels, trace_paths=trace_paths,
    )
    try:
        yield recorder
    except BaseException:
        recorder.finish("failed")
        raise


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    # --metrics-out alone samples at the default interval.
    metrics = True if args.metrics is False and args.metrics_out is not None else args.metrics
    sink = _run_sink(args)
    failure: RunFailure | None = None
    with _recording(
        args, "run", config, 1,
        trace_paths={0: args.trace_out} if args.trace_out else None,
    ) as recorder:
        if args.timeout is not None and sink is None:
            entry = run_batch(
                [config], timeout=args.timeout, retries=args.retries,
                on_error="record", metrics=metrics, health=args.health,
            )[0]
            if isinstance(entry, RunFailure):
                failure = entry
            else:
                result = entry
        else:
            if args.timeout is not None:
                print("note: --trace-out streams from this process; "
                      "--timeout is ignored", file=sys.stderr)
            result = run_simulation(config, sink=sink, metrics=metrics,
                                    health=args.health)
        if recorder is not None:
            recorder(0, failure if failure is not None else result)
            recorder.finish()
    if recorder is not None:
        print(f"store: experiment {recorder.experiment_id} -> {args.store}",
              file=sys.stderr)
    if failure is not None:
        print(f"error: {failure.summary()}", file=sys.stderr)
        return 1
    if args.metrics_out is not None and result.run_metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(result.run_metrics.to_dict(), handle, indent=2,
                      sort_keys=True)
    if args.json:
        print(json.dumps(_result_dict(result), indent=2, sort_keys=True))
    else:
        print(result.summary())
        if result.workload is not None:
            print(result.workload.summary())
        if result.health is not None:
            print(f"health: {result.health.summary()}")
        if sink is not None:
            print(f"trace: {sink.count} events -> {args.trace_out}")
        if result.run_metrics is not None:
            print(result.run_metrics.summary())
            if args.metrics_out is not None:
                print(f"metrics: -> {args.metrics_out}")
        if result.stalled:
            print(result.stall.summary())
        if result.fault_counts.any():
            fc = result.fault_counts
            print(
                f"faults: lost={fc.lost} dup={fc.duplicated} "
                f"corrupt={fc.corrupted} rejected={fc.rejected} "
                f"delayed={fc.delayed} link-down={fc.link_down} "
                f"crashes={fc.crashes} recoveries={fc.recoveries} "
                f"crash-dropped={fc.crash_dropped}"
            )
    return 0 if result.terminated else 2


def _sweep_variation(config: SimulationConfig, param: str, value: float) -> dict:
    """The ``SimulationConfig.replace`` keywords for ``--param`` at ``value``.

    Raises:
        ValueError: for a parameter the sweep does not support, or a value
            the parameter cannot take.
    """
    if param in FIELD_PARAMS:
        row = next(r for r in CONFIG_FLAGS if r.path.rpartition(".")[2] == param)
        if row.type is int:
            if not value.is_integer():
                raise ValueError(f"--param {param} takes whole numbers, got {value:g}")
            value = int(value)
        return _set_path({}, row.path, value)
    if param == "loss":
        # Sweep environmental message loss, composing with any --faults
        # schedule already configured.
        specs = [s for s in config.faults.specs if s.kind != "loss"]
        if value > 0:
            specs.append(FaultSpec(kind="loss", rate=value))
        return {"faults": specs}
    if param == "stall_timeout":
        return {"stall_timeout": value if value > 0 else None}
    if param == "rate":
        # Sweep the workload arrival rate: the throughput-latency
        # saturation curve (requires a --workload base spec).
        if config.workload is None:
            raise ValueError("--param rate requires --workload "
                             "(e.g. --workload rate:100,clients:10)")
        return {"workload": {"rate": value}}
    raise ValueError(f"unsupported sweep parameter: {param}")


def _sweep_value(item: str) -> float:
    """One ``--values`` item as a number."""
    try:
        return float(item)
    except ValueError:
        raise ValueError(f"--values: item {item!r} is not a number") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    # Everything that can reject the command line runs before the store row
    # exists: a refused sweep must not leave an experiment behind.
    base = _config_from_args(args)
    values = [_sweep_value(item) for item in args.values.split(",")]
    variations = [_sweep_variation(base, args.param, v) for v in values]
    jobs = _jobs_from_args(args)
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    with _recording(
        args, "sweep", base, len(values) * args.reps,
        params={"param": args.param, "values": values, "reps": args.reps},
        labels={
            v_index * args.reps + rep: f"{args.param}={value} rep {rep}"
            for v_index, value in enumerate(values)
            for rep in range(args.reps)
        },
    ) as recorder:
        groups = sweep(
            base,
            variations,
            args.reps,
            jobs=jobs,
            timeout=args.timeout,
            retries=args.retries,
            on_error="record",
            progress=_progress_printer(args),
            health=args.health,
            recorder=recorder,
        )
        rows = []
        for value, entries in zip(values, groups):
            try:
                summary = summarize(entries)
            except ValueError:
                raise ValueError(
                    f"all {len(entries)} runs failed at {args.param}={value}: "
                    f"{entries[0].summary()}"
                ) from None
            row = [
                value,
                summary.latency_per_decision.format(1 / 1000, "s"),
                f"{summary.messages_per_decision.mean:.0f}",
                f"{summary.terminated_fraction:.0%}",
                f"{summary.stalled_fraction:.0%}",
                f"{summary.fault_events:.0f}",
                str(summary.failures),
            ]
            if base.workload is not None:
                # Throughput-latency columns: the saturation curve the sweep
                # exists to draw when a workload is configured.
                row.extend(
                    [
                        f"{summary.throughput.mean:.1f}",
                        f"{summary.request_latency_p50.mean:.0f}ms",
                        f"{summary.request_latency_p99.mean:.0f}ms",
                        f"{summary.saturated_fraction:.0%}",
                    ]
                    if summary.throughput is not None
                    else ["-", "-", "-", "-"]
                )
            if args.health:
                # Run-health columns: total anomalies and the worst Jain
                # fairness observed across the cell's runs.
                row.extend([
                    str(summary.anomaly_total),
                    f"{summary.min_fairness:.2f}"
                    if summary.min_fairness is not None else "-",
                ])
            rows.append(tuple(row))
        if recorder is not None:
            recorder.finish()
    headers = [args.param, "latency/decision", "msgs/decision", "terminated",
               "stalled", "faults/run", "failed"]
    if base.workload is not None:
        headers.extend(["tx/s", "req p50", "req p99", "saturated"])
    if args.health:
        headers.extend(["anomalies", "min fairness"])
    print(
        render_table(
            f"{base.protocol}: sweep over {args.param} ({args.reps} runs per point)",
            headers,
            rows,
        )
    )
    if recorder is not None:
        print(f"store: experiment {recorder.experiment_id} -> {args.store}",
              file=sys.stderr)
    return 0


def _resolve_trace(args: argparse.Namespace) -> str:
    """The trace path named by ``args.trace`` — a file, or a store run id.

    ``store:<run_id>`` always reads the experiment store (``--store``, or
    the default path); a bare integer does too when ``--store`` was given
    explicitly.  Anything else is a filesystem path.

    Both arms fail with a diagnosis instead of letting ``analyze_trace``
    surface a raw ``FileNotFoundError``: a stored run whose trace pointer
    names a deleted file says so (run id, pointer), and a bare run id
    without ``--store`` explains the ``store:`` syntax rather than being
    treated as a filesystem path.
    """
    trace = args.trace
    store_path = args.store
    run_id: int | None = None
    if trace.startswith("store:"):
        try:
            run_id = int(trace[len("store:"):])
        except ValueError:
            raise ValueError(
                f"{trace!r}: store:<run_id> needs an integer run id"
            ) from None
    elif store_path is not None and trace.isdigit():
        run_id = int(trace)
    if run_id is None:
        if not os.path.exists(trace):
            hint = (
                f" (to read stored run {trace}'s trace, use "
                f"'store:{trace}' or pass --store)"
                if trace.isdigit()
                else ""
            )
            raise ValueError(f"trace file {trace!r} does not exist{hint}")
        return trace
    from .store import ExperimentStore, StoreError

    store = ExperimentStore(store_path or DEFAULT_STORE, create=False)
    try:
        path = store.trace_path(run_id)
    finally:
        store.close()
    if not os.path.exists(path):
        raise StoreError(
            f"run {run_id} has no stored trace on disk: recorded pointer "
            f"{path!r} is missing (the trace file was moved or deleted)"
        )
    return path


def cmd_inspect(args: argparse.Namespace) -> int:
    from .observability.causality import (
        CausalityGraph,
        critical_paths,
        quorum_timelines,
        render_critical_paths,
        render_quorum_timelines,
    )
    from .observability.inspect import analyze_trace, render_report
    from .observability.phases import analyze_phases, render_phase_report

    args.trace = _resolve_trace(args)
    # Several analyses of one file share one decoding; a bare report streams.
    analyses = args.critical_path or args.quorum or args.phases or args.health
    source = Trace.read(args.trace) if analyses else args.trace
    report = analyze_trace(source)
    if report.events == 0:
        # An empty trace is a valid (if boring) run artifact, not an error:
        # the file parsed fine, it just recorded nothing.
        print(f"no trace events in {args.trace}")
        return 0
    wants_causality = args.critical_path or args.quorum
    paths = timelines = phase_report = None
    if wants_causality:
        graph = CausalityGraph.build(source)
        if args.critical_path:
            paths = critical_paths(graph)
        if args.quorum:
            timelines = quorum_timelines(graph)
    if args.phases:
        phase_report = analyze_phases(source)
    health_analysis = analyze_trace_health(source) if args.health else None
    if args.json:
        data = report.to_dict()
        if paths is not None:
            data["critical_paths"] = [path.to_dict() for path in paths]
        if timelines is not None:
            data["quorums"] = [timeline.to_dict() for timeline in timelines]
        if phase_report is not None:
            data["phases"] = phase_report.to_dict()
        if health_analysis is not None:
            data["health"] = health_analysis
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(render_report(report, top=args.top))
        if paths is not None:
            print()
            print(render_critical_paths(paths, top=args.top))
        if timelines is not None:
            print()
            print(render_quorum_timelines(timelines, top=args.top))
        if phase_report is not None:
            print()
            print(render_phase_report(phase_report, top=args.top))
        if health_analysis is not None:
            print()
            print(render_health(health_analysis, top=args.top))
    return 0


#: ``repro metrics`` output formats.
METRICS_FORMATS = ("table", "json", "jsonl", "csv", "prom")


def cmd_metrics(args: argparse.Namespace) -> int:
    merged = RunMetrics.merge([
        _load_metrics(path) for path in args.files
    ])
    if args.format == "table":
        print(merged.format_table(top=args.top))
    elif args.format == "json":
        print(json.dumps(merged.to_dict(), indent=2, sort_keys=True))
    elif args.format == "jsonl":
        sys.stdout.write(merged.to_jsonl())
    elif args.format == "csv":
        sys.stdout.write(merged.to_csv())
    else:
        sys.stdout.write(merged.prometheus_text())
    return 0


def _load_metrics(path: str) -> RunMetrics:
    with open(path, encoding="utf-8") as handle:
        try:
            return RunMetrics.from_dict(json.load(handle))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None


def _cmd_mine_check(args: argparse.Namespace) -> int:
    """``repro mine --check``: re-score a committed mining artifact."""
    from .scenarios.search import check_artifact

    check = check_artifact(
        args.check,
        jobs=_jobs_from_args(args),
        timeout=args.timeout,
        retries=args.retries,
    )
    if args.json:
        print(json.dumps(check.to_dict(), indent=2, sort_keys=True))
    else:
        print(check.summary())
    return 0 if check.ok else 2


def cmd_mine(args: argparse.Namespace) -> int:
    from .scenarios.search import mine

    if args.check is not None:
        return _cmd_mine_check(args)
    scenario = args.scenario
    args.scenario = None  # the base must stay null-attack; seed the search
    base = _config_from_args(args)
    seed_specs = [load_scenario(scenario)] if scenario else None
    jobs = _jobs_from_args(args)
    with _recording(
        args, "mine", base, args.generations,
        params={
            "objective": args.objective,
            "generations": args.generations,
            "population": args.population,
            "reps": args.reps,
            "search_seed": args.search_seed,
        },
    ) as recorder:
        generations_done = 0

        def log(line: str) -> None:
            nonlocal generations_done
            print(f"  {line}", file=sys.stderr, flush=True)
            if recorder is not None and line.startswith("generation "):
                # One progress tick per completed generation: the dashboard
                # shows a mining experiment filling up generation by generation.
                generations_done += 1
                recorder.store.set_progress(
                    recorder.experiment_id, generations_done
                )

        report = mine(
            base,
            objective=args.objective,
            generations=args.generations,
            population=args.population,
            reps=args.reps,
            elites=args.elites,
            search_seed=args.search_seed,
            jobs=jobs,
            timeout=args.timeout,
            retries=args.retries,
            seed_specs=seed_specs,
            refine=args.refine,
            log=log,
        )
    if recorder is not None:
        store, experiment_id = recorder.store, recorder.experiment_id
        data = report.to_dict()
        store.record_artifact(
            experiment_id, "mining-report",
            name=f"mine[{report.objective}]",
            path=args.out,
            payload={k: v for k, v in data.items() if k != "lineage"},
        )
        store.record_artifact(
            experiment_id, "mining-lineage",
            name=f"{len(report.lineage)} evaluated specs",
            payload=data["lineage"],
        )
        if report.winner is not None:
            store.record_artifact(
                experiment_id, "mining-winner",
                name=report.winner.spec["name"],
                path=args.out,
                payload=data["winner"],
            )
        store.finish_experiment(
            experiment_id,
            "complete" if report.winner is not None else "failed",
        )
        print(f"store: experiment {experiment_id} -> {args.store}",
              file=sys.stderr)
    if args.out:
        report.write(args.out)
    if args.json:
        data = report.to_dict()
        if args.out:
            data["artifact"] = args.out
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(report.summary())
        print(f"baseline median latency/decision: "
              f"{report.baseline_latency:.1f} ms over {report.reps} rep(s)")
        if report.winner is not None and report.winner.median_latency is not None:
            print(f"winner median latency/decision:   "
                  f"{report.winner.median_latency:.1f} ms")
        if report.winner is not None:
            print(f"winner fingerprints: {report.winner.fingerprints}")
        if args.out:
            print(f"artifact: -> {args.out}")
    return 0 if report.winner is not None else 2


def _format_when(timestamp: float | None) -> str:
    if not timestamp:
        return "-"
    import datetime

    return datetime.datetime.fromtimestamp(timestamp).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def cmd_experiments(args: argparse.Namespace) -> int:
    from .store import ExperimentStore

    store = ExperimentStore(args.store, create=False)
    try:
        if args.experiments_command == "list":
            rows = store.experiments()
            if args.json:
                print(json.dumps(
                    {"experiments": [row.to_dict() for row in rows]},
                    indent=2, sort_keys=True,
                ))
                return 0
            if not rows:
                print(f"no experiments in {args.store}")
                return 0
            print(render_table(
                f"experiments in {args.store}",
                ["id", "name", "kind", "status", "runs", "failed",
                 "stalled", "created"],
                [
                    (row.id, row.name, row.kind, row.status,
                     f"{row.done_runs}/{row.total_runs}",
                     row.failed_runs, row.stalled_runs,
                     _format_when(row.created_at))
                    for row in rows
                ],
            ))
            return 0
        if args.experiments_command == "show":
            experiment = store.experiment(args.id)
            runs = store.runs(args.id)
            artifacts = store.artifacts(args.id)
            if args.json:
                print(json.dumps({
                    "experiment": experiment.to_dict(),
                    "runs": [row.to_dict() for row in runs],
                    "artifacts": [row.to_dict() for row in artifacts],
                }, indent=2, sort_keys=True))
                return 0
            print(
                f"experiment {experiment.id}: {experiment.name} "
                f"[{experiment.kind}] {experiment.status} "
                f"{experiment.done_runs}/{experiment.total_runs} runs "
                f"({experiment.failed_runs} failed, "
                f"{experiment.stalled_runs} stalled), "
                f"created {_format_when(experiment.created_at)}"
            )
            if runs:
                print(render_table(
                    "runs",
                    ["#", "label", "status", "seed", "latency/dec",
                     "msgs/dec", "fingerprint", "trace"],
                    [
                        (
                            row.run_index,
                            row.label or "-",
                            row.status + (" (stalled)" if row.stalled else ""),
                            row.seed,
                            f"{row.latency_per_decision:.1f}ms"
                            if row.latency_per_decision is not None else "-",
                            f"{row.messages_per_decision:.1f}"
                            if row.messages_per_decision is not None else "-",
                            (row.fingerprint or "-")[:12],
                            row.trace_path or "-",
                        )
                        for row in runs
                    ],
                ))
            for artifact in artifacts:
                where = f" -> {artifact.path}" if artifact.path else ""
                print(f"artifact {artifact.id}: {artifact.kind} "
                      f"{artifact.name}{where}")
            return 0
        # diff
        diff = store.diff(args.a, args.b)
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(diff.summary())
            for row in diff.mismatches:
                print(
                    f"  run {row.run_index}: "
                    f"{(row.a or 'missing')[:16]} vs {(row.b or 'missing')[:16]}"
                )
        return 0 if diff.identical else 2
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve

    serve(args.store, args.host, args.port)
    return 0


def _watch_run_line(row) -> str:
    """One ``repro watch`` line for a freshly-recorded run row."""
    parts = [f"run {row.run_index}"]
    if row.label:
        parts.append(f"[{row.label}]")
    if row.failed:
        parts.append("FAILED")
        return " ".join(parts)
    parts.append("stalled" if row.stalled else "ok")
    if row.latency_per_decision is not None:
        parts.append(f"{row.latency_per_decision:.1f}ms/dec")
    workload = row.attachments.get("workload")
    if workload is not None:
        parts.append(f"{workload['committed_tx_s']:.1f}tx/s")
    health = row.attachments.get("health")
    if health is not None:
        count = health["anomaly_count"]
        parts.append(f"{count} anomalies" if count else "healthy")
        if health["min_fairness"] is not None:
            parts.append(f"min-fairness {health['min_fairness']:.2f}")
    return " ".join(parts)


def _watch_anomaly_lines(row, top: int) -> list[str]:
    """Detection lines for one run's stored health report (capped)."""
    events = row.attachments.get("health", {}).get("events") or []
    lines = []
    for event in events[:top]:
        who = ""
        if event.get("nodes"):
            who = " nodes=" + ",".join(str(n) for n in event["nodes"])
        if event.get("clients"):
            who += " clients=" + ",".join(str(c) for c in event["clients"])
        lines.append(
            f"{float(event.get('time', 0.0)):.0f}ms "
            f"{event.get('detector', '?')} ({event.get('severity', '?')})"
            f"{who}"
        )
    if len(events) > top:
        lines.append(f"... {len(events) - top} more anomalies")
    return lines


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail an experiment store: stream run rows and health anomalies.

    Polls the sqlite store the same way the dashboard does (short-lived
    read transactions against the WAL), so it can follow a fleet that is
    still recording from another process; exits when the tailed
    experiment reaches a terminal status.
    """
    import time as wall

    from .store import ExperimentStore, StoreError

    experiment_id: int | None = args.experiment
    seen: set[int] = set()
    last_progress: tuple | None = None
    try:
        while True:
            store = ExperimentStore(args.store, create=False)
            try:
                if experiment_id is None:
                    experiments = store.experiments()
                    if not experiments:
                        raise StoreError(
                            f"no experiments in {args.store} "
                            "(record one: repro run/sweep --store PATH)"
                        )
                    experiment_id = experiments[0].id
                experiment = store.experiment(experiment_id)
                runs = store.runs(experiment_id)
            finally:
                store.close()
            progress = (
                experiment.status, experiment.done_runs, experiment.total_runs
            )
            if progress != last_progress:
                last_progress = progress
                print(
                    f"experiment {experiment.id} ({experiment.name}) "
                    f"[{experiment.kind}]: {experiment.status} "
                    f"{experiment.done_runs}/{experiment.total_runs} runs, "
                    f"{experiment.failed_runs} failed"
                )
            for row in runs:
                if row.id in seen:
                    continue
                seen.add(row.id)
                print(f"  {_watch_run_line(row)}")
                for line in _watch_anomaly_lines(row, args.anomalies):
                    print(f"    {line}")
            if experiment.status != "running" or args.once:
                return 0
            wall.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .baseline import run_baseline_simulation
    from .validator import compare_decisions, replay_simulation

    config = _config_from_args(args).replace(record_trace=True)
    ground_truth = run_baseline_simulation(config)
    replayed = replay_simulation(config, ground_truth.trace)
    report = compare_decisions(ground_truth.trace, replayed.trace)
    print(report.summary())
    for mismatch in report.mismatches:
        print(f"  {mismatch}")
    return 0 if report.matches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Discrete-event simulator for BFT protocols (DSN'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available protocols and attacks")

    run_parser = sub.add_parser("run", help="run one simulation")
    _add_config_options(run_parser)
    _add_batch_options(run_parser, jobs=False)
    _add_telemetry_options(run_parser)
    _add_store_option(run_parser)
    run_parser.add_argument("--json", action="store_true", help="JSON output")

    sweep_parser = sub.add_parser("sweep", help="sweep one parameter")
    _add_config_options(sweep_parser)
    _add_batch_options(sweep_parser)
    _add_store_option(sweep_parser)
    sweep_parser.add_argument("--param", required=True,
                              help=" | ".join(FIELD_PARAMS + RULE_PARAMS)
                                   + " (rate: arrival rate, requires "
                                     "--workload)")
    sweep_parser.add_argument("--values", required=True,
                              help="comma-separated values")
    sweep_parser.add_argument("--reps", type=int, default=3)
    _add_health_option(sweep_parser)

    mine_parser = sub.add_parser(
        "mine",
        help="search for worst-case attack scenarios against a base "
             "configuration and write a replayable artifact",
    )
    _add_config_options(mine_parser)
    _add_batch_options(mine_parser)
    mine_parser.add_argument("--objective", default="median-latency",
                             choices=OBJECTIVES,
                             help="what the adversary maximizes "
                                  "(default: median-latency)")
    mine_parser.add_argument("--generations", type=int, default=3,
                             help="evolve iterations (default 3)")
    mine_parser.add_argument("--population", type=int, default=8,
                             help="candidate specs per generation (default 8)")
    mine_parser.add_argument("--reps", type=int, default=1,
                             help="evaluation repetitions per spec (default 1)")
    mine_parser.add_argument("--elites", type=int, default=2,
                             help="top specs kept as parents (default 2)")
    mine_parser.add_argument("--search-seed", type=int, default=0,
                             help="seed for candidate generation/mutation")
    mine_parser.add_argument("--refine", action="store_true",
                             help="parameter-refinement mode: only perturb "
                                  "the numeric parameters of the --scenario "
                                  "seed spec (clause structure and targeting "
                                  "stay fixed)")
    mine_parser.add_argument("--out", default=None, metavar="PATH",
                             help="write the mining artifact (winner, "
                                  "baseline, full lineage) as JSON")
    mine_parser.add_argument("--json", action="store_true",
                             help="print the full artifact as JSON")
    _add_store_option(mine_parser)
    mine_parser.add_argument("--check", default=None, metavar="ARTIFACT",
                             help="regression mode: skip mining, re-score "
                                  "this committed artifact against its "
                                  "stored baseline; exits 2 when the attack "
                                  "ratio or the fingerprints moved")

    validate_parser = sub.add_parser(
        "validate", help="cross-check against the packet-level baseline engine"
    )
    _add_config_options(validate_parser)

    inspect_parser = sub.add_parser(
        "inspect", help="analyze a JSONL trace written by 'run --trace-out'"
    )
    inspect_parser.add_argument("trace",
                                help="JSONL trace file, or a store run id "
                                     "('store:12', or plain '12' with "
                                     "--store) whose recorded trace to read")
    _add_store_option(inspect_parser)
    inspect_parser.add_argument("--top", type=int, default=20,
                                help="row cap for each table (default 20)")
    inspect_parser.add_argument("--json", action="store_true",
                                help="machine-readable report")
    inspect_parser.add_argument("--critical-path", action="store_true",
                                help="reconstruct each decision's causal "
                                     "chain from the trace's lineage fields")
    inspect_parser.add_argument("--quorum", action="store_true",
                                help="per-decision quorum-formation timeline "
                                     "(k-th vote arrival, straggler, wasted "
                                     "post-quorum votes)")
    inspect_parser.add_argument("--phases", action="store_true",
                                help="per-view time-in-phase breakdown from "
                                     "the protocols' phase annotations")
    inspect_parser.add_argument("--health", action="store_true",
                                help="health timeline and anomaly census "
                                     "from the trace's recorded health "
                                     "events (runs made with --health)")

    metrics_parser = sub.add_parser(
        "metrics",
        help="render metrics JSON written by 'run --metrics-out' "
             "(several files are merged)",
    )
    metrics_parser.add_argument("files", nargs="+",
                                help="metrics JSON file(s); multiple files "
                                     "are merged point-wise")
    metrics_parser.add_argument("--format", default="table",
                                choices=METRICS_FORMATS,
                                help="output format (default: table; 'prom' "
                                     "is a Prometheus text snapshot)")
    metrics_parser.add_argument("--top", type=int, default=20,
                                help="row cap for the table format")

    experiments_parser = sub.add_parser(
        "experiments",
        help="browse an experiment store written by run/sweep/mine --store",
    )
    experiments_sub = experiments_parser.add_subparsers(
        dest="experiments_command", required=True
    )
    list_parser = experiments_sub.add_parser(
        "list", help="every stored experiment, newest first"
    )
    _add_store_option(list_parser, default=DEFAULT_STORE)
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")
    show_parser = experiments_sub.add_parser(
        "show", help="one experiment: runs, progress, artifacts"
    )
    show_parser.add_argument("id", type=int, help="experiment id")
    _add_store_option(show_parser, default=DEFAULT_STORE)
    show_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")
    diff_parser = experiments_sub.add_parser(
        "diff",
        help="compare two experiments' per-run fingerprints "
             "(exit 2 when they differ)",
    )
    diff_parser.add_argument("a", type=int, help="first experiment id")
    diff_parser.add_argument("b", type=int, help="second experiment id")
    _add_store_option(diff_parser, default=DEFAULT_STORE)
    diff_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")

    serve_parser = sub.add_parser(
        "serve",
        help="live dashboard over an experiment store (stdlib http.server)",
    )
    _add_store_option(serve_parser, default=DEFAULT_STORE)
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8008,
                              help="port (default 8008; 0 = ephemeral)")

    watch_parser = sub.add_parser(
        "watch",
        help="tail an experiment store: print runs and health anomalies "
             "as they are recorded (live view of an in-flight fleet)",
    )
    watch_parser.add_argument("store", nargs="?", default=DEFAULT_STORE,
                              help="sqlite experiment store "
                                   f"(default: {DEFAULT_STORE})")
    watch_parser.add_argument("--experiment", type=int, default=None,
                              metavar="ID",
                              help="experiment id to tail (default: newest)")
    watch_parser.add_argument("--interval", type=float, default=2.0,
                              metavar="SECONDS",
                              help="poll interval in wall-clock seconds "
                                   "(default 2)")
    watch_parser.add_argument("--once", action="store_true",
                              help="print the current state once and exit "
                                   "(scripting/CI probe)")
    watch_parser.add_argument("--anomalies", type=int, default=5,
                              metavar="N",
                              help="anomaly lines shown per run (default 5)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "mine": cmd_mine,
        "validate": cmd_validate,
        "inspect": cmd_inspect,
        "metrics": cmd_metrics,
        "experiments": cmd_experiments,
        "serve": cmd_serve,
        "watch": cmd_watch,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``repro run ... | head -1``): end quietly
        # with the status a SIGPIPE death gives, and point stdout at devnull
        # so the interpreter's final flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SimulationError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
