"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_protocols_and_attacks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("pbft", "hotstuff-ns", "add-v3", "partition", "failstop"):
            assert name in out


class TestRun:
    def test_run_summary(self, capsys):
        code = main(["run", "--protocol", "pbft", "-n", "4",
                     "--mean", "50", "--std", "10", "--lam", "500"])
        assert code == 0
        assert "pbft: terminated" in capsys.readouterr().out

    def test_run_json(self, capsys):
        code = main(["run", "--protocol", "pbft", "-n", "4",
                     "--mean", "50", "--std", "10", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["terminated"] is True
        assert data["messages"] > 0
        assert data["bytes_sent"] > 0
        assert "0" in data["decided_values"]

    def test_pipelined_default_decisions(self, capsys):
        main(["run", "--protocol", "hotstuff-ns", "-n", "4",
              "--mean", "50", "--std", "10", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert len(data["decided_values"]) >= 10

    def test_run_with_attack(self, capsys):
        code = main([
            "run", "--protocol", "pbft", "-n", "7", "--mean", "50", "--std", "10",
            "--attack", "failstop", "--attack-params", '{"nodes": [6]}', "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["faulty"] == [6]

    def test_run_config_file(self, tmp_path, capsys):
        from repro import SimulationConfig, NetworkConfig

        config = SimulationConfig(
            protocol="pbft", n=4, lam=500.0,
            network=NetworkConfig(mean=50.0, std=10.0),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["run", "--config", str(path)]) == 0
        assert "terminated" in capsys.readouterr().out

    def test_unterminated_run_exit_code(self, capsys):
        code = main(["run", "--protocol", "pbft", "-n", "4",
                     "--mean", "50", "--std", "10", "--max-time", "1"])
        assert code == 2

    def test_unknown_protocol_is_an_error(self, capsys):
        code = main(["run", "--protocol", "nonsense"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--lam", "nan"], "lam"),
        (["--mean", "nan"], "mean"),
        (["--max-time", "nan"], "max_time"),
        (["--workload", "rate:nan,clients:2"], "rate"),
        (["--workload", "rate:inf,clients:2"], "rate"),
        (["--faults", "delay=0.2xnan"], "factor"),
        (["--faults", "loss=0.1@nan:5"], "window start"),
        (["--faults", "crash=1@inf"], "window start"),
        (["--metrics-interval", "nan"], "interval"),
        (["--health-window", "nan"], "window_ms"),
        (["--attack-params", "[1]"], "attack params"),
    ])
    def test_non_finite_option_is_one_error_line(self, flags, field, capsys):
        # Each of these used to hang, die in the scheduler long after the
        # value entered, run to the horizon on NaN delays, or traceback.
        code = main(["run", "--protocol", "pbft", "-n", "4", *flags])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    def test_non_finite_config_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"protocol": "pbft", "n": 4, "lam": NaN}')
        assert main(["run", "--config", str(path)]) == 1
        assert "error: lambda (lam)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,document,key", [
        ("--config", [1], "config"),
        ("--config", {"protocol": "pbft", "n": "four"}, "n must be an integer"),
        ("--config", {"protocol": "pbft", "network": {"bogus": 1}}, "bogus"),
        ("--config", {"protocol": "pbft", "network": [1]}, "network"),
        ("--config", {"protocol": "pbft", "faults": {"specs": [{"kindd": "loss"}]}},
         "kindd"),
        ("--config", {"protocol": "pbft", "protocol_params": [1]}, "protocol_params"),
        ("--scenario", {"attacks": [{"attack": "failstop", "params": [1]}]},
         "attack clause params"),
        ("--scenario", {"attacks": [{"attack": "failstop", "start": [1]}]},
         "attack clause start"),
        ("--scenario", {"faults": [{"kind": "loss", "rate": "high"}]}, "fault rate"),
        ("--scenario", {"faults": [{"rate": 0.1}]}, "'kind'"),
        ("--scenario", [], "scenario must be a mapping"),
        ("--scenario", {"attacks": "x"}, "scenario attacks must be a list"),
    ])
    def test_malformed_json_document_is_one_error_line(
        self, flag, document, key, tmp_path, capsys
    ):
        # Each of these used to be a TypeError / AttributeError traceback
        # (the last-but-one ran as an empty scenario, exit 0).
        path = tmp_path / "document.json"
        path.write_text(json.dumps(document))
        code = main(["run", "--protocol", "pbft", "-n", "4", flag, str(path)])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert "Traceback" not in captured.err + captured.out

    def test_dissemination_and_fanout_reach_the_config(self, capsys):
        from repro import NetworkConfig, SimulationConfig, run_simulation

        def api(mode, fanout):
            result = run_simulation(SimulationConfig(
                protocol="pbft", n=8,
                network=NetworkConfig(dissemination=mode, fanout=fanout),
            ))
            return result.events_processed, result.messages, result.latency

        code = main(["run", "--protocol", "pbft", "-n", "8", "--json",
                     "--dissemination", "tree", "--fanout", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        cli = data["events_processed"], data["messages"], data["latency_ms"]
        assert cli == api("tree", 2)
        assert cli != api("tree", 0) and cli != api("full", 0)


class TestSweep:
    def test_sweep_lambda(self, capsys):
        code = main([
            "sweep", "--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--param", "lam", "--values", "400,800", "--reps", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "400" in out and "800" in out
        assert "100%" in out

    def test_sweep_n(self, capsys):
        code = main([
            "sweep", "--protocol", "pbft", "--mean", "50", "--std", "10",
            "--param", "n", "--values", "4,7", "--reps", "1",
        ])
        assert code == 0

    def test_sweep_non_finite_value_is_an_error(self, capsys):
        code = main(["sweep", "--protocol", "pbft", "-n", "4",
                     "--param", "lam", "--values", "nan"])
        assert code == 1
        assert "error: lambda (lam)" in capsys.readouterr().err

    def test_unsupported_parameter(self, capsys):
        code = main([
            "sweep", "--protocol", "pbft", "--param", "colour", "--values", "1",
        ])
        assert code == 1

    def test_sweep_parallel_jobs(self, capsys):
        """--jobs 2 must produce the same table a serial sweep does."""
        argv_tail = [
            "--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--param", "lam", "--values", "400,800", "--reps", "4",
        ]
        assert main(["sweep", *argv_tail, "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", *argv_tail, "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "failed" in parallel_out  # failure column present
        assert " 0" in parallel_out

    def test_sweep_with_timeout_flag(self, capsys):
        code = main([
            "sweep", "--protocol", "pbft", "-n", "4", "--mean", "50",
            "--std", "10", "--param", "n", "--values", "4", "--reps", "2",
            "--jobs", "2", "--timeout", "120", "--retries", "0",
        ])
        assert code == 0


class TestTelemetry:
    RUN = ["run", "--protocol", "pbft", "-n", "4",
           "--mean", "50", "--std", "10", "--lam", "500"]

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main([*self.RUN, "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        lines = [json.loads(l) for l in path.read_text().splitlines() if l]
        assert lines and all("time" in e and "kind" in e for e in lines)

    def test_trace_filter(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main([*self.RUN, "--trace-out", str(path),
                     "--trace-filter", "kind=decide"])
        assert code == 0
        kinds = {json.loads(l)["kind"] for l in path.read_text().splitlines() if l}
        assert kinds == {"decide"}

    def test_trace_filter_requires_trace_out(self, capsys):
        assert main([*self.RUN, "--trace-filter", "kind=decide"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_removed_profile_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.RUN, "--profile"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    def test_log_level_emits_structured_logs(self, tmp_path, capsys):
        import logging as _logging

        from repro.observability.logging import LOGGER_NAME, configure_logging

        try:
            assert main(["--log-level", "debug", *self.RUN]) == 0
            err = capsys.readouterr().err
            assert "run starting" in err
            assert "run finished" in err
        finally:
            root = _logging.getLogger(LOGGER_NAME)
            root.removeHandler(configure_logging(level="warning"))
            root.setLevel(_logging.WARNING)


class TestSpecGrammars:
    """Malformed ``--faults`` / ``--scenario`` / ``--workload`` /
    ``--trace-filter`` specs: one ``error:`` line naming the flag, exit 1,
    never a traceback."""

    @pytest.mark.parametrize("flag,spec", [
        # Each of these used to be accepted: an unnamed int() error, a trace
        # of 0 events, a NaN bound, a repeated key silently winning, or a
        # run dying mid-way at the capability gate.
        ("--trace-filter", "node=a"),
        ("--trace-filter", "window=5:3"),
        ("--trace-filter", "window=nan:"),
        ("--trace-filter", "kind="),
        ("--workload", "rate:5,rate:6"),
        ("--scenario", "targeted-delay=factor:4,factor:5"),
        ("--scenario", "targeted-delay=factor:nan"),
        # A fixed sample of hostile text.
        ("--faults", "failstop=count:1"),
        ("--faults", "loss=1e999"),
        ("--faults", "crash=1@5:3"),
        ("--faults", "=;@"),
        ("--scenario", "loss=0.1@-1"),
        ("--scenario", "targeted-delay=:,@:"),
        ("--workload", ",,"),
        ("--workload", "clients:2.5"),
        ("--trace-filter", "kind=decide@5"),
        ("--trace-filter", "node=1+2"),
    ])
    def test_malformed_spec_is_one_error_line(self, flag, spec, tmp_path, capsys):
        trace = ["--trace-out", str(tmp_path / "t.jsonl")] if flag == "--trace-filter" else []
        code = main(["run", "--protocol", "pbft", "-n", "4", "--decisions", "1",
                     *trace, flag, spec])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {flag}"), err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("flag,args", [
        # Attackers used to read their params at set-up, after validation:
        # a TypeError traceback, and an int() error naming no flag.
        ("--scenario", ["--scenario", "targeted-delay=factor:1+2"]),
        ("--scenario", ["--scenario", "targeted-delay=targets:abc"]),
        ("--attack-params", ["--attack", "targeted-delay",
                             "--attack-params", '{"factor": [1, 2]}']),
    ])
    def test_wrong_typed_attack_param_is_one_error_line(self, flag, args, capsys):
        code = main(["run", "--protocol", "pbft", "-n", "4", "--decisions", "1", *args])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {flag}"), err
        assert "'targeted-delay'" in err[0]
        assert "Traceback" not in captured.err + captured.out


class TestInspect:
    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500",
                     "--trace-out", str(path)]) == 0
        return path

    def test_inspect_renders_report(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "message usage by kind" in out
        assert "stall forensics:" in out

    def test_inspect_totals_match_run(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500",
                     "--trace-out", str(path), "--json"]) == 0
        run_data = json.loads(capsys.readouterr().out)
        assert main(["inspect", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sent"] == run_data["messages"]
        assert report["bytes_sent"] == run_data["bytes_sent"]

    def test_inspect_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_inspect_non_object_line_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"time": 0.0, "kind": "send", "node": 0}\n[1, 2]\n')
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "trace record 2" in err[0]

    @pytest.mark.parametrize(
        "line, flags, problem",
        [
            ('{"kind": "send", "node": 0}', [], "must have a 'time' and a 'kind'"),
            ('{"kind": "send", "node": 0}', ["--health"], "must have a 'time' and a 'kind'"),
            ('{"time": 1.0, "node": 0}', ["--phases"], "must have a 'time' and a 'kind'"),
            ('{"time": 1.0, "kind": "deliver", "node": 0, "source": 1}', ["--critical-path"],
             "is a 'deliver' record without a 'msg_id'"),
            ('{"time": 1.0, "kind": "send", "node": 0, "dest": 1}', ["--quorum"],
             "is a 'send' record without a 'msg_id'"),
        ],
    )
    def test_inspect_malformed_record_is_one_error_line(
        self, line, flags, problem, tmp_path, capsys
    ):
        path = tmp_path / "trace.jsonl"
        path.write_text(line + "\n")
        assert main(["inspect", str(path), *flags]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert err == [f"error: {path}: trace record 1 {problem}"]
        assert "Traceback" not in captured.err + captured.out

    def test_inspect_analysis_flags(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(path), "--critical-path", "--quorum",
                     "--phases"]) == 0
        out = capsys.readouterr().out
        assert "critical paths" in out
        assert "quorum" in out
        assert "time in phase" in out

    def test_inspect_analysis_json_schema(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["inspect", str(path), "--critical-path", "--quorum",
                     "--phases", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["critical_paths"], "expected one path per decision"
        for entry in data["critical_paths"]:
            assert entry["complete"] is True
            assert entry["steps"][-1]["kind"] == "decide"
        assert data["quorums"]
        assert data["phases"]["phase_totals_ms"]

    def test_inspect_empty_trace_exits_cleanly(self, tmp_path, capsys):
        """A 0-event trace is a valid artifact (a filtered run can record
        nothing); inspect reports that plainly and exits 0."""
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["inspect", str(path)]) == 0
        captured = capsys.readouterr()
        assert "no trace events" in captured.out
        assert captured.err == ""

    def test_inspect_empty_trace_with_analysis_flags(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["inspect", str(path), "--critical-path", "--quorum",
                     "--phases", "--json"]) == 0
        assert "no trace events" in capsys.readouterr().out


class TestMetricsCommand:
    def _write_metrics(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500",
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_run_metrics_summary(self, capsys):
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500", "--metrics"]) == 0
        assert "metrics:" in capsys.readouterr().out

    def test_run_metrics_json(self, capsys):
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500", "--metrics",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["counters"]["messages_sent"] == data["messages"]

    def test_metrics_table(self, tmp_path, capsys):
        path = self._write_metrics(tmp_path, capsys)
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "final metric values" in out
        assert "messages_sent" in out

    def test_metrics_prometheus(self, tmp_path, capsys):
        path = self._write_metrics(tmp_path, capsys)
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_messages_sent counter" in out
        assert "# TYPE repro_delivery_latency_ms histogram" in out

    def test_metrics_merges_files(self, tmp_path, capsys):
        path = self._write_metrics(tmp_path, capsys)
        assert main(["metrics", str(path), "--format", "json"]) == 0
        one = json.loads(capsys.readouterr().out)
        assert main(["metrics", str(path), str(path), "--format", "json"]) == 0
        two = json.loads(capsys.readouterr().out)
        assert two["runs"] == 2 * one["runs"]
        assert (two["counters"]["messages_sent"]
                == 2 * one["counters"]["messages_sent"])

    def test_metrics_csv_and_jsonl(self, tmp_path, capsys):
        path = self._write_metrics(tmp_path, capsys)
        assert main(["metrics", str(path), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.startswith("time,metric,value")
        assert main(["metrics", str(path), "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sample = json.loads(lines[0])
        assert set(sample) == {"time", "metric", "value"}

    def test_metrics_interval_flag(self, capsys):
        assert main(["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--lam", "500",
                     "--metrics-interval", "25", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["interval_ms"] == 25.0


class TestValidate:
    def test_validate_matches(self, capsys):
        code = main([
            "validate", "--protocol", "pbft", "-n", "4",
            "--mean", "50", "--std", "10", "--decisions", "1",
        ])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestScenarioOption:
    ARGS = ["--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--lam", "500", "--stall-timeout", "20000"]

    def test_run_with_grammar_scenario(self, capsys):
        code = main(["run", *self.ARGS,
                     "--scenario", "targeted-delay=factor:2.0", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["terminated"] is True

    def test_run_with_preset_scenario(self, capsys):
        code = main(["run", *self.ARGS, "--scenario", "adaptive-chaser",
                     "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["terminated"] is True

    def test_run_with_scenario_file(self, capsys, tmp_path):
        from repro.scenarios import parse_scenario_spec

        path = tmp_path / "spec.json"
        path.write_text(parse_scenario_spec("targeted-delay=factor:2.0").to_json())
        assert main(["run", *self.ARGS, "--scenario", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["terminated"] is True

    def test_invalid_scenario_is_a_config_error(self, capsys):
        code = main(["run", *self.ARGS, "--scenario", "failstop=count:3"])
        assert code == 1
        assert "demands 3 corruptions" in capsys.readouterr().err

    def test_scenario_and_attack_flags_conflict(self, capsys):
        code = main(["run", *self.ARGS, "--attack", "failstop",
                     "--scenario", "targeted-delay=factor:2.0"])
        assert code == 1
        assert "on top of attack" in capsys.readouterr().err

    def test_list_shows_scenario_presets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenario presets:" in out
        for name in ("adaptive-chaser", "worst-case-pbft-n32",
                     "relay-chokehold-tree"):
            assert name in out
        assert "scenario" in out  # the composite attacker itself


class TestMineCommand:
    ARGS = ["--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--lam", "500", "--stall-timeout", "5000", "--seed", "3"]

    def test_mine_smoke_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "artifact.json"
        code = main(["mine", *self.ARGS, "--generations", "1",
                     "--population", "2", "--search-seed", "4",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "mine[median-latency]" in text
        assert "baseline median latency/decision" in text
        artifact = json.loads(out.read_text())
        assert artifact["kind"] == "repro-mining-artifact"
        assert artifact["winner"] is not None
        assert len(artifact["lineage"]) == 2

    def test_mine_json_output(self, capsys):
        code = main(["mine", *self.ARGS, "--generations", "1",
                     "--population", "2", "--search-seed", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["winner"]["score"] > 0

    def test_mine_refine_requires_scenario(self, capsys):
        code = main(["mine", *self.ARGS, "--generations", "1",
                     "--population", "2", "--refine"])
        assert code == 1
        assert "refine mode" in capsys.readouterr().err


class TestHealthOptions:
    ARGS = ["run", "--protocol", "pbft", "-n", "4",
            "--mean", "50", "--std", "10", "--lam", "500"]

    def test_run_health_summary_line(self, capsys):
        assert main([*self.ARGS, "--health"]) == 0
        assert "health: healthy" in capsys.readouterr().out

    def test_run_health_json(self, capsys):
        assert main([*self.ARGS, "--health", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["health"]["anomaly_count"] == 0
        assert data["health"]["windows"] > 0

    def test_health_window_implies_health(self, capsys):
        assert main([*self.ARGS, "--health-window", "100", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["health"]["window_ms"] == 100.0

    def test_run_without_flag_reports_no_health(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        assert "health" not in json.loads(capsys.readouterr().out)

    def test_sweep_health_columns(self, capsys):
        code = main(["sweep", "--protocol", "pbft", "-n", "4", "--mean", "50",
                     "--std", "10", "--param", "lam", "--values", "400,800",
                     "--reps", "2", "--health"])
        assert code == 0
        out = capsys.readouterr().out
        assert "anomalies" in out and "min fairness" in out

    def test_inspect_health_text_and_json(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl.gz")
        assert main([*self.ARGS, "--health", "--trace-out", trace]) == 0
        capsys.readouterr()
        assert main(["inspect", trace, "--health"]) == 0
        assert "health:" in capsys.readouterr().out
        assert main(["inspect", trace, "--health", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["health"]["anomaly_count"] == 0
        assert data["health"]["samples"] > 0

    def test_inspect_without_flag_omits_health(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main([*self.ARGS, "--health", "--trace-out", trace]) == 0
        capsys.readouterr()
        assert main(["inspect", trace, "--json"]) == 0
        assert "health" not in json.loads(capsys.readouterr().out)


class TestWatchCommand:
    def _store_with_run(self, tmp_path, *, health=True) -> str:
        store = str(tmp_path / "watch.sqlite")
        args = ["run", "--protocol", "pbft", "-n", "4", "--mean", "50",
                "--std", "10", "--lam", "500", "--store", store]
        if health:
            args.append("--health")
        assert main(args) == 0
        return store

    def test_watch_once_tails_the_latest_experiment(self, tmp_path, capsys):
        store = self._store_with_run(tmp_path)
        capsys.readouterr()
        assert main(["watch", store, "--once"]) == 0
        out = capsys.readouterr().out
        assert "experiment 1" in out
        assert "run 0" in out and "ok" in out
        assert "healthy" in out

    def test_watch_unmonitored_run_shows_no_health(self, tmp_path, capsys):
        store = self._store_with_run(tmp_path, health=False)
        capsys.readouterr()
        assert main(["watch", store, "--once"]) == 0
        out = capsys.readouterr().out
        assert "run 0" in out and "healthy" not in out

    def test_watch_explicit_experiment_id(self, tmp_path, capsys):
        store = self._store_with_run(tmp_path)
        capsys.readouterr()
        assert main(["watch", store, "--experiment", "1", "--once"]) == 0
        assert "experiment 1" in capsys.readouterr().out

    def test_watch_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.sqlite"), "--once"]) != 0

    def test_watch_empty_store_fails_cleanly(self, tmp_path, capsys):
        from repro.store import ExperimentStore

        store = str(tmp_path / "empty.sqlite")
        ExperimentStore(store).close()
        assert main(["watch", store, "--once"]) != 0
