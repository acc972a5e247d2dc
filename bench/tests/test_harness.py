"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``python3 -m pytest bench/tests -q`` from the repo root; they stay
outside tier-1's ``testpaths`` and finish in a few seconds.
"""

from __future__ import annotations

import json
import re

import pytest

import bench
from bench import compare, harness
from bench.__main__ import main
from bench.guards import Guards
from bench.tracing import ROOT_SPAN, SpanStats, Tracer, _MISSING, install_shims

bench.use_source_tree()


# -- span arithmetic ---------------------------------------------------------


def test_self_time_is_duration_minus_child_cover():
    now = [0]

    def clock() -> int:
        return now[0]

    def work(ns: int) -> None:
        now[0] += ns

    tracer = Tracer(clock=clock)
    pop = tracer.wrap("core.events.pop_entry", lambda: work(10))
    copy = tracer.wrap("core.message.copy_for", lambda: work(5))

    def submit() -> None:
        work(3)
        copy()
        copy()

    submit = tracer.wrap("network.module.submit", submit)

    def handler() -> None:
        work(20)
        submit()

    handler = tracer.wrap("protocols.pbft.on_message", handler)

    def run() -> None:
        work(7)          # root self time
        pop()
        handler()
        pop()

    copy()               # outside any root: must not count in the shares
    tracer.wrap(ROOT_SPAN, run)()

    stats = SpanStats(tracer.aggregates())
    assert stats.root_ns() == 7 + 10 + (20 + 3 + 5 + 5) + 10
    assert stats.self_ns("protocols.pbft.on_message") == 20
    assert stats.self_ns("network.module.submit") == 3
    assert stats.total_ns("network.module.submit") == 13
    assert stats.calls("core.message.copy_for") == 3
    assert stats.calls("protocols", ".on_message") == 1
    shares = stats.layer_shares()
    assert shares["core.message"] == pytest.approx(10 / 60)      # the outside copy is excluded
    assert shares["core.controller"] == pytest.approx(7 / 60)
    assert sum(shares.values()) == pytest.approx(1.0)
    spans = tracer.spans()
    by_id = {span["id"]: span for span in spans}
    inner = next(s for s in spans if s["name"] == "network.module.submit")
    assert by_id[inner["parent"]]["name"] == "protocols.pbft.on_message"


def test_span_under_root_outside_every_layer_is_rejected():
    tracer = Tracer()
    tracer.wrap(ROOT_SPAN, tracer.wrap("client.http.run", lambda: None))()
    with pytest.raises(ValueError, match="belongs to no layer"):
        SpanStats(tracer.aggregates()).layer_shares()


# -- shims -------------------------------------------------------------------


def test_shims_restore_the_very_same_attributes():
    probe = install_shims(Tracer())
    targets = probe.patched()
    probe.remove()
    before = [vars(owner).get(attr, _MISSING) for owner, attr in targets]

    shims = install_shims(Tracer())
    during = [vars(owner).get(attr, _MISSING) for owner, attr in targets]
    shims.remove()
    after = [vars(owner).get(attr, _MISSING) for owner, attr in targets]

    assert len(targets) > 40
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


# -- guards and exit code ----------------------------------------------------


def test_guard_mismatch_names_the_cell_and_counts_as_failed():
    guards = Guards("fig2_full", 1, pinned={"pbft-full-n32": {"events": 5, "messages": 7}})
    good = {"events": 5, "messages": 7, "terminated": True}
    assert guards.check({"pbft-full-n32": good}) == 0
    assert guards.check({"pbft-full-n32": dict(good, events=6)}) == 1
    assert guards.check({"pbft-full-n32": dict(good, terminated=False)}) == 1
    assert "fig2_full/pbft-full-n32: events = 6, expected 5" in guards.mismatches


def test_other_seeds_are_held_to_their_first_pass():
    guards = Guards("fig2_full", 7)
    first = {"events": 11, "terminated": True}
    assert guards.check({"cell": first}) == 0
    assert guards.check({"cell": first}) == 0
    assert guards.check({"cell": dict(first, events=12)}) == 1


def fake_child(values: dict, failed: int = 0):
    def spawn(workload, seed, seconds, trace, setup_only):
        return {"setup_s": 1.0, "raw_setup_s": 1.1, "attempted": 4, "failed": failed, "mismatches": [],
                "metrics": {} if setup_only else dict(values), "detail": {"passes": 3}}
    return spawn


def test_failed_operations_reach_the_exit_code(monkeypatch, tmp_path, capsys):
    values = {"ops_per_s": 10.0, "peak_rss_mib": 50.0}
    out = tmp_path / "result.json"
    monkeypatch.setattr(harness, "spawn_child", fake_child(values))
    assert main(["--workload", "fig2_full", "--out", str(out)]) == 0
    monkeypatch.setattr(harness, "spawn_child", fake_child(values, failed=1))
    assert main(["--workload", "fig2_full", "--out", str(out)]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 3 and last["attempted"] == 12


# -- result shape and the contract of BENCHMARK.json -------------------------


def test_result_holds_exactly_the_declared_metrics(monkeypatch):
    spec = harness.load_spec()
    monkeypatch.setattr(harness, "spawn_child", fake_child({"ops_per_s": 10.0, "peak_rss_mib": 5.0}))
    result = harness.run_workload("fig2_full", 1, 1.0, trace=False)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    monkeypatch.setattr(harness, "spawn_child", fake_child({"host.nproc": 2.0}))
    traced = harness.run_workload("fig2_full", 1, 1.0, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    monkeypatch.setattr(harness, "spawn_child", fake_child({"not.declared": 1.0}))
    with pytest.raises(RuntimeError, match="not declared"):
        harness.run_workload("fig2_full", 1, 1.0, trace=True)


def test_benchmark_json_meets_the_contract():
    from bench.workloads import WORKLOADS

    spec = harness.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    # 6 s: the measured mean cost of a run beyond its timed seconds (three set-ups).
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 6) < 3420


# -- compare -----------------------------------------------------------------


def result_file(path, values_per_set, failed=0):
    sets = [{"fig2_full": {"failed": failed, "metrics": {
        "ops_per_s": {"value": v, "unit": "1/s"}}}} for v in values_per_set]
    path.write_text(json.dumps({"sets": sets}))
    return str(path)


def test_compare_classifies_ok_regressed_unresolved(tmp_path):
    spec = {"workloads": [{"name": "fig2_full"}],
            "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    base = result_file(tmp_path / "a.json", [100, 101, 99, 100])

    def verdict(values, failed=0):
        rows, more = compare.compare(
            base, result_file(tmp_path / "b.json", values, failed), spec)
        return rows[0]["verdict"], more

    assert verdict([96, 97, 95, 96]) == ("ok", False)
    assert verdict([120, 121, 119, 120]) == ("ok", False)           # better is never a regression
    assert verdict([80, 81, 79, 80]) == ("regressed", False)
    assert verdict([70, 130, 80, 120]) == ("unresolved", False)     # spread wider than the bound
    assert verdict([100, 100, 100, 100], failed=1) == ("ok", True)
    rows, _more = compare.compare(base, result_file(tmp_path / "b.json", [80]), spec)
    assert rows[0]["ratio"] == pytest.approx(0.8) and rows[0]["worse_by"] == pytest.approx(0.2)


def test_compare_exit_status(tmp_path, capsys):
    a = result_file(tmp_path / "a.json", [100, 100])
    assert compare.main([a, result_file(tmp_path / "ok.json", [99, 100])]) == 0
    assert compare.main([a, result_file(tmp_path / "slow.json", [50, 50])]) == 1
    assert compare.main([a, result_file(tmp_path / "bad.json", [100, 100], failed=2)]) == 1
    assert "regressed" in capsys.readouterr().out
