"""gridstudy benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload study-suite --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

A run generates the synthetic data set from ``--seed`` (set-up, sampled
three times), then starts timed passes of the workload, each in a fresh
worker process, as long as another pass fits in ``--seconds``.  Every
scenario a pass runs is an operation: its emitted files are checked and
digested after the pass, and the digests must agree across passes.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Their times are
taken at the reference speed (see ``reference.py``): each scenario's time
is divided by the time of the reference computation measured just before
and after it, in the same worker, and multiplied by ``REF_UNIT_S``.  The
per-scenario medians over the passes add up to the pass time.  The times
as measured are printed on a line of their own and kept in the record.
With ``--trace 1`` passes alternate untraced and traced; the metrics are
the per-layer ones, medians over the traced passes in seconds as measured,
plus the tracing overhead (traced minus untraced wall time).  The spans of the
first traced pass, the per-scenario stage table and the environment go to
``.perfbench_results/`` in the checkout.

``--smoke`` runs every workload on a two-day horizon, one untraced and one
traced pass each, with every output check, and exits non-zero on any
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import SCENARIOS, STAGES  # noqa: E402
from reference import REF_UNIT_S, scale  # noqa: E402
from worker import SMOKE_DAYS, WORKLOADS  # noqa: E402

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("hours_per_s", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("timeseries.read_calls", "count", "lower"),
    ("timeseries.read_s", "s", "lower"),
    ("timeseries.write_calls", "count", "lower"),
    ("timeseries.write_s", "s", "lower"),
    ("timeseries.bytes_written", "bytes", "lower"),
    ("lp.dispatch.solves", "count", "lower"),
    ("lp.dispatch.solve_s", "s", "lower"),
    ("lp.dispatch.pivots", "count", "lower"),
    ("lp.demand.solves", "count", "lower"),
    ("lp.demand.solve_s", "s", "lower"),
    ("lp.demand.pivots", "count", "lower"),
    ("lp.hinted_share", "share", "higher"),
    ("lp.nonoptimal", "count", "lower"),
    ("dispatch.hours", "count", "lower"),
    ("dispatch.pass0_s", "s", "lower"),
    ("dispatch.nett_s", "s", "lower"),
    ("dispatch.self_s", "s", "lower"),
    ("dispatch.lp_per_hour", "ratio", "lower"),
    ("demand.days", "count", "lower"),
    ("demand.solve_days_s", "s", "lower"),
    ("demand.self_s", "s", "lower"),
    ("pricing.train_s", "s", "lower"),
    ("pricing.predict_s", "s", "lower"),
    ("powerflow.nr_calls", "count", "lower"),
    ("powerflow.nr_s", "s", "lower"),
    ("powerflow.nr_points", "count", "lower"),
    ("powerflow.nr_point_iters", "count", "lower"),
    ("powerflow.nr_us_per_point_iter", "us", "lower"),
    ("powerflow.nr_converged_share", "share", "higher"),
    ("loadability.hours", "count", "lower"),
    ("loadability.sweep_s", "s", "lower"),
    ("loadability.self_s", "s", "lower"),
    ("loadability.steps", "count", "lower"),
    ("loadability.solves_per_hour", "ratio", "lower"),
    ("loadability.tail_s", "s", "lower"),
    ("loadability.capped_hours", "count", "lower"),
    ("loadability.degenerate_hours", "count", "lower"),
    *((f"harness.stage.{stage}_s", "s", "lower") for stage in STAGES),
    ("harness.self_s", "s", "lower"),
    *((f"harness.s{k}.stage.{stage}_s", "s", "lower")
      for k in SCENARIOS for stage in STAGES),
    ("scenarioconfig.parse_s", "s", "lower"),
    ("synthdata.generate_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.wrapper_est_s", "s", "lower"),
)

RUN_SECONDS = 45
SETUP_SAMPLES = 3
#: Every worker must end by this many seconds after the run started.
RUN_LIMIT_S = 160.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def call_worker(argv: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    """What a result depends on besides the code: machine, runtimes, BLAS threads, seed."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "dataset_seed": seed,
        "git_commit": commit,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, days: int,
                 setup_samples: int, work: Path, results: Path) -> dict:
    """Set up, run timed passes for ``seconds``, check every output; return the tallies."""
    from checks import check_scenario, digest, dispatch_file_gap
    from gridstudy.scenarioconfig import scenario_from_config

    deadline = time.monotonic() + RUN_LIMIT_S
    problems: list[str] = []

    setups, data_digests = [], []
    for k in range(setup_samples):
        data = work / f"data{k}"
        setups.append(call_worker(["setup", "--root", str(ROOT), "--data", str(data),
                                   "--seed", str(seed), "--days", str(days)], deadline))
        data_digests.append(digest(data))
        if k:
            shutil.rmtree(data)
    if len(set(data_digests)) != 1:
        problems.append("data set generation differs between set-up samples")
    data = work / "data0"

    passes, durations = [], []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        argv = ["pass", "--root", str(ROOT), "--data", str(data), "--days", str(days),
                "--workload", workload.name, "--out", str(out)]
        if traced:
            argv += ["--spans", str(out / "spans.json")]
        began = time.monotonic()
        try:
            passes.append((traced, out, call_worker(argv, deadline)))
        except WorkerFailed as exc:
            passes.append((traced, out, {"errors": {str(k): str(exc) for k in workload.scenarios}}))
            break
        durations.append(time.monotonic() - began)
        enough = not trace or len(passes) >= 2
        # Start no pass that would end after ``seconds``.
        if enough and time.monotonic() - start + statistics.median(durations) > seconds:
            break

    configs = {k: scenario_from_config(ROOT / "configs" / f"scenario{k}.ini")
               for k in workload.scenarios}
    attempted = failed = 0
    reference: dict[int, str] = {}
    digests = []
    for traced, out, res in passes:
        row = {}
        for k in workload.scenarios:
            attempted += 1
            scenario_out = out / f"s{k}"
            if str(k) in res["errors"]:
                found = [f"raised {res['errors'][str(k)]}"]
            else:
                found = res["problems"][str(k)] + check_scenario(scenario_out, configs[k])
                row[k] = digest(scenario_out)
                if reference.setdefault(k, row[k]) != row[k]:
                    found.append("output digest differs from the first pass")
            if found:
                failed += 1
                problems += [f"pass {out.name} scenario {k}: {p}" for p in found[:5]]
        digests.append(row)
    gaps = {k: dispatch_file_gap(passes[0][1] / f"s{k}", configs[k].regions)
            for k in workload.scenarios if (passes[0][1] / f"s{k}" / "dispatch_hourly.csv").exists()}

    good = [(traced, res) for traced, _, res in passes if "wall_s" in res and not res["errors"]]
    plain = [res for traced, res in good if not traced]
    metrics, measured = {}, {}
    if plain:
        for key in ("wall_s", "cpu_s"):
            metrics[key] = sum(statistics.median(col)
                               for col in zip(*(_at_reference(r, key) for r in plain)))
            measured[key] = statistics.median(r[key] for r in plain)
        metrics["hours_per_s"] = plain[0]["hours"] / metrics["wall_s"]
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        measured["ref_s"] = statistics.median(t for r in plain for t in r["ref_s"])
    metrics["setup_s"] = statistics.median(scale(s["setup_s"], s["ref_s"]) for s in setups)
    measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    layers, stages, missing = {}, {}, []
    traced_runs = [res for traced, res in good if traced]
    if traced_runs:
        keys = traced_runs[0]["layers"]
        for key in keys:
            values = [r["layers"][key] for r in traced_runs if r["layers"].get(key) is not None]
            if values:
                layers[key] = statistics.median(values)
        layers["synthdata.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        layers["scenarioconfig.parse_s"] = statistics.median(s["parse_s"] for s in setups)
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_runs)
        if plain:
            layers["trace.untraced_wall_s"] = measured["wall_s"]
            layers["trace.overhead_s"] = layers["trace.wall_s"] - measured["wall_s"]
            layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / measured["wall_s"]
        stages = traced_runs[0]["stages"]
        missing = sorted(set(traced_runs[0]["missing"])
                         | {name for name, _, _ in PER_LAYER if name not in layers})
        first_spans = next(out for traced, out, res in passes if traced and "layers" in res)
        results.mkdir(exist_ok=True)
        shutil.copyfile(first_spans / "spans.json",
                        results / f"{workload.name}-seed{seed}-spans.json")

    return {"workload": workload.name, "days": days, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics, "measured": measured, "layers": layers,
            "missing": missing,
            "stages": stages, "setups": setups, "passes": [res for _, _, res in passes],
            "digests": digests, "dispatch_file_gap": gaps}


def _at_reference(res: dict, key: str) -> list[float]:
    """Per-scenario seconds of one pass at the reference speed.

    ``key`` is ``scenario_wall_s`` or ``scenario_cpu_s``; each scenario is
    scaled by the mean of the reference times measured before and after it.
    """
    refs = res["ref_s"]
    return [scale(t, (refs[i] + refs[i + 1]) / 2) for i, t in enumerate(res[f"scenario_{key}"])]


def _warn_file_gap(res: dict) -> None:
    for k, (hours, mwh) in sorted(res["dispatch_file_gap"].items()):
        if hours:
            print(f"known defect, not counted as failed: s{k} dispatch_hourly.csv misses "
                  f"{mwh:.1f} MWh of generation in {hours} hours (no column for units "
                  f"not committed in hour 0)", file=sys.stderr)


def _report(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units if k in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="data set seed (default: synthdata.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "gridstudy" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no gridstudy source tree (src/gridstudy, configs) under {ROOT}",
              file=sys.stderr)
        return 2
    from worker import import_gridstudy

    import_gridstudy(ROOT)
    from gridstudy.synthdata import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    env = environment(seed)
    print("environment: " + json.dumps(env), flush=True)
    results = ROOT / ".perfbench_results"
    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        if args.smoke:
            ok = True
            for workload in WORKLOADS.values():
                res = run_workload(workload, seed, 0.0, True, SMOKE_DAYS, 1,
                                   work / workload.name, results)
                for problem in res["problems"]:
                    print(f"{workload.name}: {problem}", file=sys.stderr)
                _warn_file_gap(res)
                ok &= not res["failed"] and not res["problems"] and not res["missing"]
                print(json.dumps({"workload": workload.name, "attempted": res["attempted"],
                                  "failed": res["failed"], "missing": res["missing"],
                                  "metrics": res["metrics"]}), flush=True)
            return 0 if ok else 1
        workload = WORKLOADS[args.workload]
        res = run_workload(workload, seed, args.seconds, bool(args.trace), workload.days,
                           SETUP_SAMPLES, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    _warn_file_gap(res)
    for k, value in sorted(res["digests"][0].items()):
        print(f"output digest s{k}: sha256 {value}")
    print("as measured (medians): " + " ".join(f"{k}={v:.4f}" for k, v in res["measured"].items())
          + f"; end-to-end times are at {REF_UNIT_S} s per reference unit")
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **res}, indent=1))
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        for k in sorted(res["stages"]):
            print(f"stages s{k}: " + " ".join(f"{stage}={sec:.3f}s"
                                              for stage, sec in res["stages"][k].items()))
        if res["missing"]:
            print("missing per-layer metrics: " + ", ".join(res["missing"]))
        metrics = _report(res["layers"], units)
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        metrics = _report(res["metrics"], units)
    print(f"failed_ops: {res['failed']}/{res['attempted']} "
          f"({res['failed'] / max(res['attempted'], 1):.3f})")
    # A per-layer metric may go missing when its target is renamed; an end-to-end one may not.
    correct = not res["failed"] and not res["problems"] and (bool(args.trace) or len(metrics) == len(units))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
