"""Spans around the calls into each gridstudy layer, installed from outside.

``Tracer.install`` swaps each target function for a wrapper that records a
span (name, start, end, parent span) and whatever the call's arguments and
result say about the work done.  The swap covers the defining module and
every ``gridstudy.*`` module that holds the same function object, because
modules import each other's functions by name.  A target that no longer
exists is reported as missing instead of failing the run.

``layer_metrics`` turns the spans of one timed pass into the per-layer
metrics.  Self time is a span's duration minus the time its child spans
cover, so the self times of all spans add up to the time inside the
outermost spans, the ``run_scenario`` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

#: Spans whose batch is under this share of the hours swept count as tail.
TAIL_BATCH_SHARE = 0.05

STAGES = ("load_data", "pass0_dispatch", "train_predict", "demand",
          "nett_dispatch", "loadability", "emit")
SCENARIOS = (1, 2, 3, 4, 5)

# Span record layout.
NAME, PARENT, START, END, INFO = range(5)


def _scenario_id(args, kwargs, result, fn):
    config = args[0] if args else kwargs["config"]
    return {"scenario": int(config.scenario_id)}


def _bytes_written(args, kwargs, result, fn):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _lp_outcome(args, kwargs, result, fn):
    hint = args[1] if len(args) > 1 else kwargs.get("basis_hint")
    return {"hinted": hint is not None, "pivots": int(result.iterations),
            "optimal": result.status == "optimal"}


def _hours_dispatched(args, kwargs, result, fn):
    return {"hours": len(result.hours)}


def _days_scheduled(args, kwargs, result, fn):
    return {"days": len(result)}


def _newton_outcome(args, kwargs, result, fn):
    _, _, converged, iterations = result[:4]
    return {"points": int(converged.size), "iters": int(iterations.sum()),
            "converged": int(converged.sum())}


def _top_factor(step: float, lambda_max: float) -> float:
    """Largest factor ``1 + k * step`` not above ``lambda_max``, as the scan computes it."""
    k = max(int((lambda_max - 1.0) / step), 0)
    while 1.0 + (k + 1) * step <= lambda_max:
        k += 1
    while k > 0 and 1.0 + k * step > lambda_max:
        k -= 1
    return 1.0 + k * step


def _sweep_outcome(args, kwargs, result, fn):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    top = _top_factor(bound.arguments["step"], bound.arguments["lambda_max"])
    lam = result.lambda_star
    finite = lam[lam == lam]
    return {"hours": int(lam.size), "capped": int((finite == top).sum()),
            "degenerate": int(lam.size - finite.size)}


#: (module, function, extractor) for every wrapped call.  ``_nr_batch`` is
#: the one private target: it is the loadability -> powerflow boundary.
TARGETS = (
    ("harness", "run_scenario", _scenario_id),
    ("timeseries", "load_timeseries_csv", None),
    ("timeseries", "write_timeseries_csv", _bytes_written),
    ("lp", "solve_lp", _lp_outcome),
    ("dispatch", "simulate_horizon", _hours_dispatched),
    ("demand", "solve_days", _days_scheduled),
    ("demand", "solve_day", None),
    ("demand", "aggregate_nett_demand", None),
    ("pricing", "train_matrix", None),
    ("pricing", "predict_rows", None),
    ("powerflow", "_nr_batch", _newton_outcome),
    ("loadability", "compute_loadability", _sweep_outcome),
)


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``gridstudy`` module attribute that holds ``original`` at ``replacement``.

    Imports every submodule first.  Returns what ``restore`` needs to undo it.
    """
    import gridstudy

    for info in pkgutil.iter_modules(gridstudy.__path__):
        importlib.import_module(f"gridstudy.{info.name}")
    undo = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "gridstudy" or name.startswith("gridstudy.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


def restore(undo) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extract is not None:
                try:
                    span[INFO] = extract(args, kwargs, result, fn)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    span[INFO] = None  # the call's shape changed; its counts go missing
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``gridstudy`` module."""
        for module_name, fn_name, extract in TARGETS:
            original = getattr(sys.modules.get(f"gridstudy.{module_name}"), fn_name, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, extract)
            self._restore += replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        restore(self._restore)
        self._restore.clear()

    def export(self) -> list[dict]:
        """Spans as records with the scenario id of their enclosing run."""
        out = []
        for i, span in enumerate(self.spans):
            out.append({"id": i, "name": span[NAME], "parent": span[PARENT],
                        "start": span[START], "end": span[END],
                        "scenario": _scenario_of(self.spans, i), "info": span[INFO]})
        return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured seconds one wrapper adds to a call, extraction left out."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _scenario_of(spans, i):
    while i >= 0:
        if spans[i][NAME] == "harness.run_scenario" and spans[i][INFO]:
            return spans[i][INFO]["scenario"]
        i = spans[i][PARENT]
    return None


def _ancestor(spans, i, prefixes):
    """Name of the nearest ancestor whose name starts with one of ``prefixes``."""
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME].startswith(prefixes):
            return spans[i][NAME]
        i = spans[i][PARENT]
    return None


def _info_sum(spans, idx, key):
    """Sum of ``info[key]`` over ``idx``; None when any span lacks it."""
    total = 0
    for i in idx:
        info = spans[i][INFO]
        if not info or key not in info:
            return None
        total += info[key]
    return total


def _ratio(num, den, scale=1.0):
    """``scale * num / den``; 0 when there was no work, None when unmeasured."""
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


def stage_table(spans) -> dict[int, dict[str, float]]:
    """Per-scenario stage seconds, read off the call order inside each run.

    A run is cut at: the first dispatch horizon (end of load-data), the end
    of every dispatch horizon that precedes the nett-demand aggregation
    (pass-0), the last price prediction (train/predict), the nett-demand
    aggregation (demand), any later dispatch horizon (nett dispatch) and
    the loadability sweep; whatever follows is emission.  A stage whose
    marker call does not happen takes no time, so the stages always add up
    to the run's duration.
    """
    table: dict[int, dict[str, float]] = {}
    for run in spans:
        if run[NAME] != "harness.run_scenario" or not run[INFO]:
            continue
        inside = [s for s in spans if run[START] <= s[START] and s[END] <= run[END] and s is not run]
        horizons = [s for s in inside if s[NAME] == "dispatch.simulate_horizon"]
        aggregated = [s[END] for s in inside if s[NAME] == "demand.aggregate_nett_demand"]
        demand_end = aggregated[0] if aggregated else run[END]
        pass0 = [s for s in horizons if s[END] <= demand_end]
        nett = [s for s in horizons if s[START] >= demand_end]
        predicted = [s[END] for s in inside if s[NAME] == "pricing.predict_rows" and s[END] <= demand_end]
        swept = [s[END] for s in inside if s[NAME] == "loadability.compute_loadability"]
        marks = [run[START]]

        def cut(t):
            marks.append(max(marks[-1], min(t, run[END])))

        cut(pass0[0][START] if pass0 else marks[-1])
        cut(pass0[-1][END] if pass0 else marks[-1])
        cut(predicted[-1] if predicted else marks[-1])
        cut(demand_end if aggregated else marks[-1])
        cut(nett[-1][END] if nett else marks[-1])
        cut(swept[-1] if swept else marks[-1])
        cut(run[END])
        row = {stage: marks[k + 1] - marks[k] for k, stage in enumerate(STAGES)}
        scenario = run[INFO]["scenario"]
        table[scenario] = {k: table.get(scenario, {}).get(k, 0.0) + v for k, v in row.items()}
    return table


#: Self-time metrics whose sum is the traced time inside ``run_scenario``.
SELF_TIME_METRICS = (
    "timeseries.read_s", "timeseries.write_s", "lp.dispatch.solve_s", "lp.demand.solve_s",
    "dispatch.self_s", "demand.self_s", "pricing.train_s", "pricing.predict_s",
    "powerflow.nr_s", "loadability.self_s", "harness.self_s",
)


def layer_metrics(spans, missing=()) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; a metric that cannot be measured is None."""
    dur = [s[END] - s[START] for s in spans]
    self_t = dur[:]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def group(name):
        """Span indices of ``name``, or None when the target could not be wrapped."""
        return None if name in missing else by_name.get(name, [])

    def count(ids):
        return None if ids is None else len(ids)

    def total(values, ids):
        return None if ids is None else sum(values[i] for i in ids)

    def info_sum(ids, key):
        return None if ids is None else _info_sum(spans, ids, key)

    m: dict[str, float | None] = {}
    reads, writes = group("timeseries.load_timeseries_csv"), group("timeseries.write_timeseries_csv")
    m["timeseries.read_calls"] = count(reads)
    m["timeseries.read_s"] = total(dur, reads)
    m["timeseries.write_calls"] = count(writes)
    m["timeseries.write_s"] = total(dur, writes)
    m["timeseries.bytes_written"] = info_sum(writes, "bytes")

    lps = group("lp.solve_lp")
    demand_lps = dispatch_lps = None
    if lps is not None:
        owner = {i: _ancestor(spans, i, ("demand.", "dispatch.")) for i in lps}
        demand_lps = [i for i in lps if (owner[i] or "").startswith("demand.")]
        dispatch_lps = [i for i in lps if not (owner[i] or "").startswith("demand.")]
    for key, ids in (("dispatch", dispatch_lps), ("demand", demand_lps)):
        m[f"lp.{key}.solves"] = count(ids)
        m[f"lp.{key}.solve_s"] = total(dur, ids)
        m[f"lp.{key}.pivots"] = info_sum(ids, "pivots")
    m["lp.hinted_share"] = _ratio(info_sum(lps, "hinted"), count(lps))
    optimal = info_sum(lps, "optimal")
    m["lp.nonoptimal"] = None if optimal is None else len(lps) - optimal

    runs = group("harness.run_scenario")
    table = stage_table(spans) if runs else {}
    horizons = group("dispatch.simulate_horizon")
    hours = info_sum(horizons, "hours")
    m["dispatch.hours"] = hours
    for key, stage in (("pass0_s", "pass0_dispatch"), ("nett_s", "nett_dispatch")):
        m[f"dispatch.{key}"] = (sum(row[stage] for row in table.values())
                                if table and horizons is not None else None)
    m["dispatch.self_s"] = total(self_t, horizons)
    m["dispatch.lp_per_hour"] = _ratio(m["lp.dispatch.solves"], hours)

    days = group("demand.solve_days")
    m["demand.days"] = info_sum(days, "days")
    m["demand.solve_days_s"] = total(dur, days)
    demand_spans = [group("demand.solve_days"), group("demand.solve_day"),
                    group("demand.aggregate_nett_demand")]
    m["demand.self_s"] = (None if None in demand_spans
                          else total(self_t, [i for ids in demand_spans for i in ids]))

    m["pricing.train_s"] = total(dur, group("pricing.train_matrix"))
    m["pricing.predict_s"] = total(dur, group("pricing.predict_rows"))

    newton = group("powerflow._nr_batch")
    points, iters = info_sum(newton, "points"), info_sum(newton, "iters")
    m["powerflow.nr_calls"] = count(newton)
    m["powerflow.nr_s"] = total(dur, newton)
    m["powerflow.nr_points"] = points
    m["powerflow.nr_point_iters"] = iters
    m["powerflow.nr_us_per_point_iter"] = _ratio(m["powerflow.nr_s"], iters, 1e6)
    m["powerflow.nr_converged_share"] = _ratio(info_sum(newton, "converged"), points)

    sweeps = group("loadability.compute_loadability")
    swept = info_sum(sweeps, "hours")
    steps = None if newton is None else [i for i in newton if _ancestor(spans, i, ("loadability.",))]
    m["loadability.hours"] = swept
    m["loadability.sweep_s"] = total(dur, sweeps)
    m["loadability.self_s"] = total(self_t, sweeps)
    m["loadability.steps"] = None if sweeps is None else count(steps)
    m["loadability.solves_per_hour"] = _ratio(info_sum(steps, "points"), swept)
    tail = None
    if swept is not None and info_sum(steps, "points") is not None:
        size = {s: spans[s][INFO]["hours"] for s in sweeps}
        tail = sum(dur[i] for i in steps
                   if spans[i][PARENT] in size
                   and spans[i][INFO]["points"] < TAIL_BATCH_SHARE * size[spans[i][PARENT]])
    m["loadability.tail_s"] = tail
    m["loadability.capped_hours"] = info_sum(sweeps, "capped")
    m["loadability.degenerate_hours"] = info_sum(sweeps, "degenerate")

    for stage in STAGES:
        m[f"harness.stage.{stage}_s"] = sum(row[stage] for row in table.values()) if table else None
    m["harness.self_s"] = total(self_t, runs) if table else None
    for scenario in SCENARIOS:
        for stage in STAGES:
            m[f"harness.s{scenario}.stage.{stage}_s"] = (table.get(scenario, {}).get(stage, 0.0)
                                                        if table else None)
    parts = [m[k] for k in SELF_TIME_METRICS]
    m["trace.self_sum_s"] = None if None in parts else sum(parts)
    m["trace.spans"] = len(spans)
    return {k: (None if v is None else float(v)) for k, v in m.items()}
