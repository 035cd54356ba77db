"""One fresh process per set-up sample or per timed pass of a workload.

``run.py`` starts this file with ``python3 worker.py setup ...`` or
``python3 worker.py pass ...`` and reads one JSON object from the last
line of its standard output.  Every timed pass starts from a fresh
interpreter, as a user's run of the pipeline does, so nothing a pass
leaves in memory can speed up the next one.  Each worker also times the
reference computation (``reference.py``) next to what it times, so that
``run.py`` can take out the host's drifting speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HOURS_PER_DAY = 24
DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[int, ...]
    days: int
    why: str


#: Horizons are whole days; the data set puts an evenly spaced sample of the
#: year's days first (see ``sample_days``), so every horizon spans all seasons.
WORKLOADS = {w.name: w for w in (
    Workload("study-suite", (1, 2, 3, 4, 5), 2,
             "the user's five-scenario job with every file emitted; "
             "the only workload that repeats identical pass-0 work and CSV reads across scenarios"),
    Workload("loadability-sweep", (5,), 14,
             "scenario 5 end to end; the loadability scan and its batched Newton solves "
             "dominate, with capped hours keeping small batches alive"),
)}

SMOKE_DAYS = 2


def import_gridstudy(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gridstudy

    if not Path(gridstudy.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gridstudy resolved to {gridstudy.__file__}, not under {src}")
    return gridstudy


def sample_days(data_dir: Path, days: int) -> None:
    """Put every ``365 // days``-th day of the year first in each hourly series.

    The remaining days follow in calendar order and every timestamp stays
    where it was, so each file is still a gap-free year that the pipeline
    reads as usual; a horizon of ``days`` days then samples all seasons.
    """
    stride = DAYS_PER_YEAR // days
    first = list(range(0, stride * days, stride))
    chosen = set(first)
    order = first + [d for d in range(DAYS_PER_YEAR) if d not in chosen]
    for path in sorted(data_dir.glob("*.csv")):
        lines = path.read_text().splitlines()
        if lines[0] != "timestamp,value" or len(lines) != 1 + DAYS_PER_YEAR * HOURS_PER_DAY:
            continue
        stamps, values = zip(*(line.split(",", 1) for line in lines[1:]))
        permuted = [values[d * HOURS_PER_DAY + h] for d in order for h in range(HOURS_PER_DAY)]
        path.write_text("timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in zip(stamps, permuted)))


def setup(root: Path, data_dir: Path, seed: int, days: int) -> dict:
    """Import, generate the data set from ``seed``, sample its days and parse the configs."""
    t0 = time.perf_counter()
    import_gridstudy(root)
    from gridstudy import harness, scenarioconfig, synthdata  # noqa: F401  (import cost)

    t1 = time.perf_counter()
    synthdata.generate_dataset(data_dir, seed)
    t2 = time.perf_counter()
    sample_days(data_dir, days)
    t3 = time.perf_counter()
    for k in WORKLOADS["study-suite"].scenarios:
        scenarioconfig.scenario_from_config(root / "configs" / f"scenario{k}.ini")
    t4 = time.perf_counter()
    import reference

    return {"setup_s": t4 - t0, "import_s": t1 - t0, "generate_s": t2 - t1,
            "sample_s": t3 - t2, "parse_s": t4 - t3, "ref_s": reference.measure()}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_pass(root: Path, data_dir: Path, out_dir: Path, workload: Workload, days: int,
               spans_path: Path | None) -> dict:
    """Run the workload's scenarios once; time only the ``run_scenario`` calls.

    The reference computation is timed before the first scenario and after
    each one, so ``ref_s`` has one entry more than ``scenario_wall_s``.
    With ``spans_path`` the layers are traced and the spans are written there
    after the pass.
    """
    import reference

    import_gridstudy(root)
    from checks import energy_balance
    from gridstudy import dispatch, harness, scenarioconfig
    from layertrace import (Tracer, layer_metrics, replace_everywhere, restore, stage_table,
                            wrapper_cost_s)

    configs = [scenarioconfig.scenario_from_config(root / "configs" / f"scenario{k}.ini")
               for k in workload.scenarios]

    # Keep every dispatch result so its energy balance is checked after the pass.
    dispatched = []
    running = [None]
    simulate_horizon = dispatch.simulate_horizon

    def keep(*args, **kwargs):
        result = simulate_horizon(*args, **kwargs)
        nett = args[1] if len(args) > 1 else kwargs["nett_demand"]
        dispatched.append((running[0], nett, result))
        return result

    undo = replace_everywhere(simulate_horizon, keep)
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    errors = {}
    walls, cpus, refs = [], [], [reference.measure()]
    for config in configs:
        running[0] = str(config.scenario_id)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            harness.run_scenario(config, data_dir, out_dir=out_dir / f"s{config.scenario_id}",
                                 days=days)
        except Exception as exc:  # a failed scenario is counted, the pass goes on
            errors[str(config.scenario_id)] = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        refs.append(reference.measure())
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer is not None:
        tracer.uninstall()
    restore(undo)
    problems = {str(k): [] for k in workload.scenarios}
    for scenario, nett, result in dispatched:
        problems[scenario] += energy_balance(nett, result)
    for scenario in problems.keys() - {scenario for scenario, _, _ in dispatched}:
        problems[scenario].append("no dispatch result to check")
    result = {"wall_s": sum(walls), "cpu_s": sum(cpus), "scenario_wall_s": walls,
              "scenario_cpu_s": cpus, "ref_s": refs, "peak_rss_mb": peak_kb / 1024.0,
              "hours": len(configs) * days * HOURS_PER_DAY, "errors": errors, "problems": problems}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.missing)
        result["layers"]["trace.wrapper_est_s"] = len(tracer.spans) * wrapper_cost_s()
        result["stages"] = stage_table(tracer.spans)
        result["missing"] = tracer.missing
        spans_path.write_text(json.dumps(tracer.export()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.root, args.data, args.seed, args.days)
    else:
        result = timed_pass(args.root, args.data, args.out, WORKLOADS[args.workload],
                            args.days, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
