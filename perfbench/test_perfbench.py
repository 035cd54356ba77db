"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
from worker import import_gridstudy  # noqa: E402

import_gridstudy(ROOT)


def _span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def _one_run():
    """A scenario run with every stage marker, times in seconds."""
    return [
        _span("harness.run_scenario", -1, 0.0, 10.0, {"scenario": 3}),
        _span("timeseries.load_timeseries_csv", 0, 0.1, 0.9),
        _span("dispatch.simulate_horizon", 0, 1.0, 2.0, {"hours": 24}),
        _span("lp.solve_lp", 2, 1.1, 1.6, {"hinted": False, "pivots": 7, "optimal": True}),
        _span("pricing.train_matrix", 0, 2.1, 2.2),
        _span("pricing.predict_rows", 0, 2.3, 2.5),
        _span("demand.solve_days", 0, 2.6, 3.6, {"days": 1}),
        _span("lp.solve_lp", 6, 2.7, 3.5, {"hinted": True, "pivots": 3, "optimal": True}),
        _span("demand.aggregate_nett_demand", 0, 3.7, 4.0),
        _span("dispatch.simulate_horizon", 0, 4.0, 5.0, {"hours": 24}),
        _span("loadability.compute_loadability", 0, 5.5, 8.0,
              {"hours": 24, "capped": 1, "degenerate": 0}),
        _span("powerflow._nr_batch", 10, 5.6, 7.0, {"points": 24, "iters": 96, "converged": 23}),
        _span("powerflow._nr_batch", 10, 7.0, 7.5, {"points": 1, "iters": 20, "converged": 1}),
        _span("timeseries.write_timeseries_csv", 0, 9.0, 9.5, {"bytes": 100}),
    ]


def test_stages_partition_the_run():
    stages = layertrace.stage_table(_one_run())[3]
    assert stages == {"load_data": 1.0, "pass0_dispatch": 1.0, "train_predict": 0.5,
                      "demand": 1.5, "nett_dispatch": 1.0, "loadability": 3.0, "emit": 2.0}


def test_self_times_add_up_to_the_traced_time():
    m = layertrace.layer_metrics(_one_run())
    assert abs(m["trace.self_sum_s"] - 10.0) < 1e-9
    assert abs(m["lp.dispatch.solve_s"] - 0.5) < 1e-9 and m["lp.dispatch.pivots"] == 7
    assert abs(m["lp.demand.solve_s"] - 0.8) < 1e-9 and m["lp.demand.pivots"] == 3
    assert m["lp.hinted_share"] == 0.5
    assert abs(m["dispatch.self_s"] - 1.5) < 1e-9 and m["dispatch.lp_per_hour"] == 1 / 48
    assert abs(m["loadability.self_s"] - 0.6) < 1e-9
    assert abs(m["loadability.tail_s"] - 0.5) < 1e-9  # batch of 1 < 5 % of 24 hours
    assert m["loadability.solves_per_hour"] == 25 / 24
    assert m["harness.s3.stage.loadability_s"] == 3.0 and m["harness.s1.stage.emit_s"] == 0.0


def test_missing_target_is_reported_not_fatal():
    spans = [s for s in _one_run() if s[0] != "powerflow._nr_batch"]  # leaves no span as parent
    m = layertrace.layer_metrics(spans, missing=["powerflow._nr_batch"])
    assert m["powerflow.nr_s"] is None and m["loadability.tail_s"] is None
    assert m["trace.self_sum_s"] is None
    assert m["loadability.sweep_s"] == 2.5


def test_top_factor_matches_the_scan_grid():
    assert layertrace._top_factor(0.02, 6.0) == 1.0 + 250 * 0.02
    assert layertrace._top_factor(0.3, 1.0) == 1.0


def test_wrapping_reaches_modules_that_imported_by_name():
    from gridstudy import dispatch, harness, loadability, powerflow

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert harness.simulate_horizon is dispatch.simulate_horizon
        assert harness.simulate_horizon.__wrapped__.__module__ == "gridstudy.dispatch"
        assert loadability._nr_batch is powerflow._nr_batch
        assert hasattr(loadability._nr_batch, "__wrapped__")
        assert not tracer.missing
    finally:
        tracer.uninstall()
    assert not hasattr(harness.simulate_horizon, "__wrapped__")


def test_scenario_times_are_scaled_by_the_reference_around_them():
    res = {"scenario_wall_s": [2.0, 3.0], "ref_s": [0.1, 0.3, 0.2]}
    scaled = run._at_reference(res, "wall_s")
    unit = run.REF_UNIT_S
    assert abs(scaled[0] - 2.0 * unit / 0.2) < 1e-12
    assert abs(scaled[1] - 3.0 * unit / 0.25) < 1e-12


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [line["workload"] for line in lines] == list(run.WORKLOADS)
    assert all(line["failed"] == 0 and not line["missing"] for line in lines)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
