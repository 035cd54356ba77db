"""Five-scenario study pipeline.

Per scenario: (0) load data, with each renewable unit's availability;
(1) dispatch the conventional demand to simulate market prices;
(2) train the price predictor on historical plus simulated prices;
(3) predict the study-year price signal per region; (4) schedule the
price-responsive demand day by day (scenarios 1 and 2 keep the
conventional load); (5) dispatch the resulting nett demand; (6) build the
power-flow operating points from the dispatch and sweep hourly loadability;
(7) report.

Prices are predicted once and demand responds once: the loop is open,
users are price takers.  Every stage is deterministic for a fixed data set.
``_output_files`` names the files of the finished stages; a full or
stopped run writes them in its ``emit`` stage, and a failed run writes
them with a ``partial_`` prefix before raising ``StageError`` tagged with
the stage that failed.

Scenarios run one after another in one process share their inputs.  Each
run records the results of stages (0) and (1) in a dict under content keys
(a series file's resolved path, the SHA-256 of its bytes and the horizon;
the SHA-256 of the pickled pass-0 dispatch inputs), and the next run looks
them up there.  Only what the last run used is kept, also when it failed.
Equal keys mean equal inputs, so a hit is always correct; a miss (for
example, inputs equal in value but shared differently between objects,
which pickle tells apart) costs only time and shows in the traced
``dispatch.hours`` and ``timeseries.read_calls``.
"""

from __future__ import annotations

import csv
import hashlib
import pickle
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

import gridstudy
from gridstudy.demand import (
    DayInputs,
    DemandSchedule,
    aggregate_nett_demand,
    conventional_baseline,
    default_params,
    solve_days,
)
from gridstudy.dispatch import (
    DispatchResult,
    csp_profile_shift,
    simulate_horizon,
)
from gridstudy.loadability import (
    LoadabilityResult,
    Points,
    average_loadability,
    compute_loadability,
    validate_participation,
)
from gridstudy.powerflow import BusNetwork, load_network
from gridstudy.pricing import (TrainedPredictor, feature_matrix, predict_rows, save_predictor,
                               train_matrix)
from gridstudy.scenarioconfig import SCHEMA_VERSION, ScenarioConfig
from gridstudy.synthdata import LOAD_TAN_PHI
from gridstudy.timeseries import (
    HOURS_PER_DAY,
    HOURS_PER_YEAR,
    TimeSeries,
    ZoneWeights,
    load_timeseries_csv,
    split_regional_demand,
    write_timeseries_csv,
)


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: int
    uptake: str
    config_hash: str
    spilled_energy_twh: float
    spilled_hours_pct: float
    gt_energy_twh: float
    unserved_energy_twh: float
    unserved_hours: int
    loadability_gw: float
    predictors: Mapping[str, TrainedPredictor]
    conventional_demand: Mapping[str, TimeSeries]
    nett_demand: Mapping[str, TimeSeries]
    prices: Mapping[str, TimeSeries]
    demand_schedules: Mapping[str, tuple[DemandSchedule, ...]]
    pv_power: Mapping[str, TimeSeries]
    dispatch: DispatchResult
    loadability: LoadabilityResult


@dataclass(frozen=True)
class _StudyData:
    demand: Mapping[str, TimeSeries]
    historical_demand: Mapping[str, TimeSeries]
    historical_price: Mapping[str, TimeSeries]
    pv_availability: Mapping[str, TimeSeries]
    availabilities: Mapping[str, TimeSeries]  # per renewable unit of the fleet
    network: BusNetwork
    n_hours: int


_LAST_RUN: dict = {}  # content key -> result, for what the last run_scenario call used


def _reused(used: dict, key, compute: Callable[[], object]):
    """``key``'s result from this run or the last one, else ``compute()``; kept in ``used``."""
    if key not in used:
        used[key] = _LAST_RUN[key] if key in _LAST_RUN else compute()
    return used[key]


def _pickle_sha256(value) -> str:
    """SHA-256 of ``value`` pickled: equal digests unpickle to equal values."""
    return hashlib.sha256(pickle.dumps(value, protocol=5)).hexdigest()


def _read_series(path: Path, n_hours: int, used: dict) -> TimeSeries:
    """The checked series in ``path`` cut to ``n_hours``, reused for the same bytes.

    The digest is taken just before the parse; a file rewritten during its
    own parse is not detected.
    """
    def parse():
        return _truncate(load_timeseries_csv(path, HOURS_PER_YEAR), n_hours)

    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return parse()  # the reader reports the missing or unreadable file
    return _reused(used, ("series", str(path.resolve()), digest, n_hours), parse)


def _truncate(ts: TimeSeries, n_hours: int) -> TimeSeries:
    if len(ts) == n_hours:
        return ts
    return TimeSeries(ts.start, ts.values[:n_hours], ts.label)


def _load_data(config: ScenarioConfig, data_dir, days: Optional[int], used: dict) -> _StudyData:
    data_dir = Path(data_dir)
    n_hours = HOURS_PER_YEAR if days is None else days * HOURS_PER_DAY
    if not 0 < n_hours <= HOURS_PER_YEAR:
        raise ValueError(f"days must be in 1..365, got {days}")

    def read(key: str) -> TimeSeries:
        return _read_series(data_dir / config.data_files[key], n_hours, used)

    demand = {r: read(f"demand.{r}") for r in config.demand_regions}
    hist_demand = {r: read(f"historical_demand.{r}") for r in config.demand_regions}
    hist_price = {r: read(f"historical_price.{r}") for r in config.demand_regions}
    pv = {}
    if config.has_demand_response:
        pv = {r: read(f"pv.{r}") for r in config.demand_regions}
    availabilities = {}
    if config.replacement is not None:  # CSP traces are delay-shifted
        spec = config.replacement
        availabilities[spec.wind_name] = read(f"wind.{spec.wind_zone}")
        for name, zone in zip(spec.csp_names, spec.csp_zones):
            availabilities[name] = csp_profile_shift(read(f"solar.{zone}"),
                                                     spec.csp_delay_hours).relabel(f"csp_{zone}")
    network = load_network(data_dir / config.data_files["bus"],
                           data_dir / config.data_files["branch"],
                           base_mva=config.loadability.base_mva)
    _check_buses(config, network)
    return _StudyData(demand, hist_demand, hist_price, pv, availabilities, network, n_hours)


def _check_buses(config: ScenarioConfig, network: BusNetwork) -> None:
    """Fail unless the buses the config names fit ``network``, before any dispatch runs.

    Participation must name generator buses; each demand region and the
    loadability region need pq (load) buses, and a demand region's zone
    weights must name each of those and nothing else.  A fleet unit may be
    listed on one bus at most, of its own region, since its output is
    injected there.
    """
    validate_participation(network, config.loadability.participation)
    unit_region = {g.name: g.region for g in config.fleet}
    listed: dict[str, str] = {}
    for b in network.buses:
        for unit in b.gen_names:
            if unit_region.get(unit, b.region) != b.region:
                raise ValueError(f"unit {unit} of region {unit_region[unit]} is listed on bus "
                                 f"{b.bus_id!r} of region {b.region}")
            if unit in listed and unit in unit_region:
                raise ValueError(f"unit {unit} is listed on buses {listed[unit]!r} and {b.bus_id!r}")
            listed[unit] = b.bus_id
    known = {b.bus_id for b in network.buses}
    for region in (*config.demand_regions, config.loadability.region):
        pq_buses = {b.bus_id for b in network.buses if b.region == region and b.kind == "pq"}
        if not pq_buses:
            raise ValueError(f"region {region} has no load buses in the network")
        weights = config.zone_weights.get(region)
        for bus_id in weights.weights if weights else ():
            if bus_id not in known:
                raise ValueError(f"[zone_weights {region}] names unknown bus {bus_id!r}")
            if bus_id not in pq_buses:
                raise ValueError(f"[zone_weights {region}] bus {bus_id!r} is not a pq bus "
                                 f"of region {region}")
        if weights and pq_buses - set(weights.weights):
            raise ValueError(f"[zone_weights {region}] leaves out {region} load buses "
                             f"{sorted(pq_buses - set(weights.weights))}")


def _operating_points(config: ScenarioConfig, network: BusNetwork,
                      nett: Mapping[str, TimeSeries], dispatch: DispatchResult) -> Points:
    """Dispatch-consistent hourly power-flow inputs, as ``compute_loadability`` sweeps them.

    Returns (hours x buses) arrays of load MW, load MVAr and injected MW,
    with columns in ``network.buses`` order.  Loads start from the network's
    base loads.  Each demand region's nett demand splits across its pq buses
    by the configured zone weights (equal shares when none are given), at
    Q = P * ``LOAD_TAN_PHI`` (``_check_buses`` has checked those buses).  The
    output of each unit of ``config.fleet`` lands on the bus that lists it,
    or else on the first non-slack generator bus of its region.  Units on the
    slack bus, or with no such bus, are left to the slack balance.
    """
    n_hours = len(next(iter(nett.values())))
    column = {b.bus_id: i for i, b in enumerate(network.buses)}
    load_mw = np.tile([b.p_load_mw for b in network.buses], (n_hours, 1))
    load_mvar = np.tile([b.q_load_mvar for b in network.buses], (n_hours, 1))
    for region in config.demand_regions:
        pq_buses = [b.bus_id for b in network.buses if b.region == region and b.kind == "pq"]
        weights = config.zone_weights.get(region) or ZoneWeights.equal(pq_buses)
        for bus_id, ts in split_regional_demand(nett[region], weights).items():
            load_mw[:, column[bus_id]] = ts.values
            load_mvar[:, column[bus_id]] = ts.values * LOAD_TAN_PHI

    listed: dict[str, str] = {}
    first_pv_bus: dict[str, str] = {}
    slack_id = next(b.bus_id for b in network.buses if b.kind == "slack")
    for b in network.buses:
        if b.kind == "pv":
            first_pv_bus.setdefault(b.region, b.bus_id)
        for unit in b.gen_names:
            listed[unit] = b.bus_id
    unit_column = {}
    for g in config.fleet:
        bus = listed.get(g.name) or first_pv_bus.get(g.region)
        if bus not in (None, slack_id):
            unit_column[g.name] = column[bus]
    injection_mw = np.zeros((n_hours, len(column)))
    # Added one unit at a time in dispatch order: units that share a bus
    # must sum in the same order on every run.
    for row, hd in zip(injection_mw, dispatch.hours, strict=True):
        for unit, mw in hd.output_mw.items():
            if unit in unit_column:
                row[unit_column[unit]] += mw
    return load_mw, load_mvar, injection_mw


@contextmanager
def _stage(name: str, done: Mapping[str, object], out_dir):
    """Raise a failure in the block as ``StageError(name)``, after writing the
    outputs of the finished stages in ``done`` as ``partial_*`` files."""
    try:
        yield
    except Exception as exc:
        if out_dir is not None:
            _write_partial(done, out_dir)
        raise StageError(name, exc) from exc


def run_scenario(config: ScenarioConfig, data_dir, out_dir=None,
                 days: Optional[int] = None,
                 stop_after: Optional[str] = None) -> Optional[ScenarioReport]:
    """Execute the pipeline for one scenario; optionally emit files.

    ``days`` truncates the horizon from the front of the year (useful for
    quick runs); totals are then over the truncated horizon.  ``stop_after``
    may name ``"demand"`` or ``"dispatch"`` to halt the pipeline at that
    stage (the finished stages' artifacts are still emitted, and ``None`` is
    returned because no full report exists).
    """
    if stop_after not in (None, "demand", "dispatch"):
        raise ValueError(f"stop_after must be demand or dispatch, got {stop_after!r}")
    done: dict[str, object] = {}  # finished stages' results, keyed as _output_files reads them
    stage = partial(_stage, done=done, out_dir=out_dir)

    used: dict = {}  # content key -> result of stages 0-1, for the next run to reuse
    try:
        with stage("load-data"):
            data = _load_data(config, data_dir, days, used)

        # (1) pass-0 dispatch of the conventional demand simulates market prices
        with stage("pass0-dispatch"):
            conventional = dict(data.demand)
            start = next(iter(conventional.values())).start
            zero = np.zeros(data.n_hours)
            transit = {r: TimeSeries(start, zero, r) for r in config.transit_regions}
            inputs = (config.fleet, {**conventional, **transit}, config.interconnectors,
                      data.availabilities)
            pass0 = _reused(used, ("pass0", _pickle_sha256(inputs)),
                            lambda: simulate_horizon(*inputs))
    finally:
        _LAST_RUN.clear()
        _LAST_RUN.update(used)

    # (2) train one predictor per region on historical + simulated pairs;
    # the study-year feature names and rows are kept for the prediction in (3)
    with stage("train-predictor"):
        predictors, study_rows = {}, {}
        for region in config.demand_regions:
            names, x_h = feature_matrix(config.fleet, config.interconnectors,
                                        data.availabilities, data.historical_demand[region])
            study_rows[region] = feature_matrix(config.fleet, config.interconnectors,
                                                data.availabilities, data.demand[region])
            x = np.vstack([x_h, study_rows[region][1]])
            y = np.concatenate([data.historical_price[region].values,
                                [hd.price[region] for hd in pass0.hours]])
            predictors[region] = train_matrix(names, x, y)
    done["predictors"] = predictors

    # (3) predicted study-year price signal per region
    with stage("predict-prices"):
        prices = {}
        for region in config.demand_regions:
            values = predict_rows(predictors[region], *study_rows[region])
            prices[region] = TimeSeries(data.demand[region].start, values,
                                        label=f"price_{region}")
    done["prices"] = prices

    # (4) daily demand schedules: responsive for uptake scenarios
    with stage("demand-model"):
        schedules, pv_power = {}, {}
        n_days = data.n_hours // HOURS_PER_DAY
        for region in config.demand_regions:
            load = data.demand[region]
            if config.has_demand_response:
                pv_series = data.pv_availability[region].values * config.pv_capacity_mw[region]
            else:
                pv_series = zero
            pv_power[region] = TimeSeries(load.start, pv_series, label=f"pv_power_{region}")
            day_inputs = [
                DayInputs(prices[region].day(d), load.day(d),
                          pv_series[d * HOURS_PER_DAY:(d + 1) * HOURS_PER_DAY])
                for d in range(n_days)
            ]
            if config.has_demand_response:
                spec = config.batteries[region]
                params = default_params(
                    soc_min_mwh=spec.soc_min_mwh, soc_max_mwh=spec.soc_max_mwh,
                    peak_load_mw=float(np.max(load.values)),
                    pv_capacity_mw=config.pv_capacity_mw[region],
                    charge_rate_mw=spec.charge_rate_mw,
                    discharge_rate_mw=spec.discharge_rate_mw,
                    efficiency=spec.efficiency,
                )
                schedules[region] = tuple(solve_days(params, day_inputs))
            else:
                schedules[region] = tuple(conventional_baseline(day) for day in day_inputs)
    done.update(demand_schedules=schedules, conventional_demand=conventional, pv_power=pv_power)

    with stage("nett-demand"):
        nett = {**aggregate_nett_demand(schedules, start), **transit}
    done["nett_demand"] = nett

    if stop_after == "demand":
        with stage("emit"):
            _emit(done, out_dir)
        return None

    # (5) dispatch of the nett demand; scenarios without demand response
    # re-use the conventional dispatch (identical inputs)
    with stage("nett-dispatch"):
        if config.has_demand_response:
            dispatch = simulate_horizon(config.fleet, nett, config.interconnectors,
                                        data.availabilities)
        else:
            dispatch = pass0
    done["dispatch"] = dispatch

    if stop_after == "dispatch":
        with stage("emit"):
            _emit(done, out_dir)
        return None

    # (6) hourly loadability on the dispatch-consistent operating points
    # (the points are not kept: holding them through emission raises peak memory)
    with stage("loadability"):
        load_res = compute_loadability(
            data.network, config.loadability.region, config.loadability.participation,
            step=config.loadability.step,
            hours=_operating_points(config, data.network, nett, dispatch),
            lambda_max=config.loadability.lambda_max)
    done["loadability"] = load_res

    with stage("emit"):
        report = done["report"] = ScenarioReport(
            scenario_id=config.scenario_id,
            uptake=config.uptake,
            config_hash=config.sha256,
            spilled_energy_twh=dispatch.spilled_energy_twh,
            spilled_hours_pct=dispatch.spilled_hours_pct,
            gt_energy_twh=dispatch.gt_energy_twh,
            unserved_energy_twh=dispatch.unserved_energy_twh,
            unserved_hours=dispatch.unserved_hours,
            loadability_gw=average_loadability(load_res),
            **done,
        )
        _emit(done, out_dir)
    return report


# -- emission -----------------------------------------------------------------

SUMMARY_FILE = "summary.csv"
SUMMARY_COLUMNS = ("scenario", "spilled_energy_TWh", "spilled_hours_pct",
                   "gt_energy_TWh", "loadability_GW", "unserved_energy_TWh")


def _output_files(done: Mapping[str, object]) -> list[tuple[str, Callable[[Path], None]]]:
    """(file name, writer) for every output of the finished stages in ``done``.

    ``done`` maps the names of ``ScenarioReport`` fields, plus ``report``, to
    stage results; absent keys are stages not run.  Each writer takes the
    file's path.  This is the one place that names output files.
    """
    files = []
    for region, predictor in sorted(done.get("predictors", {}).items()):
        files.append((f"predictor_{region}.txt", partial(save_predictor, predictor)))
    for key in ("prices", "nett_demand"):  # prices_<R>.csv, nett_demand_<R>.csv
        for region, ts in sorted(done.get(key, {}).items()):
            files.append((f"{key}_{region}.csv", partial(write_timeseries_csv, ts)))
    for region, days in sorted(done.get("demand_schedules", {}).items()):
        files.append((f"demand_{region}.csv", partial(
            _write_schedule_csv, days, done["prices"][region],
            done["conventional_demand"][region], done["pv_power"][region])))
    if "dispatch" in done:
        files.append(("dispatch_hourly.csv",
                      partial(_write_dispatch_csv, done["dispatch"], sorted(done["prices"]))))
    if "loadability" in done:
        files.append(("loadability_hourly.csv",
                      partial(_write_loadability_csv, done["loadability"])))
    if "report" in done:
        files.append((SUMMARY_FILE, partial(_write_summary_csv, done["report"])))
        files.append(("manifest.txt", partial(_write_manifest, done["report"])))
    return files


def _emit(done: Mapping[str, object], out_dir) -> list[Path]:
    """Write the outputs of the finished stages in ``done`` into ``out_dir``, if given."""
    if out_dir is None:
        return []
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, write in _output_files(done):
        write(out_dir / name)
        written.append(out_dir / name)
    return written


def _write_partial(done: Mapping[str, object], out_dir) -> None:
    """Write a failed run's finished outputs as ``partial_*`` files, best effort:
    the stage error matters more, so what cannot be written is named in a
    warning and the rest is still written."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        warnings.warn(f"could not create {out_dir} for partial outputs: {exc!r}",
                      RuntimeWarning, stacklevel=2)
        return
    for name, write in _output_files(done):
        path = out_dir / f"partial_{name}"
        try:
            write(path)
        except Exception as exc:  # reported here; the stage error follows
            warnings.warn(f"could not write partial output {path}: {exc!r}",
                          RuntimeWarning, stacklevel=2)


def _write_rows(path: Path, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows``; each cell is the ``repr`` of a Python int or float."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_summary_csv(report: ScenarioReport, path: Path) -> None:
    _write_rows(path, SUMMARY_COLUMNS, [[
        report.scenario_id, report.spilled_energy_twh, report.spilled_hours_pct,
        report.gt_energy_twh, report.loadability_gw, report.unserved_energy_twh]])


def _write_manifest(report: ScenarioReport, path: Path) -> None:
    path.write_text(
        f"scenario {report.scenario_id}\n"
        f"uptake {report.uptake}\n"
        f"config_sha256 {report.config_hash}\n"
        f"gridstudy {gridstudy.__version__}\n"
        f"numpy {np.__version__}\n"
        f"config_schema {SCHEMA_VERSION}\n"
    )


def _write_dispatch_csv(dispatch: DispatchResult, priced: Sequence[str], path: Path) -> None:
    """Hourly dispatch; prices only for the regions in ``priced`` (the demand regions)."""
    units = sorted(set().union(*(hd.output_mw for hd in dispatch.hours)))
    lines = sorted(dispatch.hours[0].flow_mw)
    regions = sorted(dispatch.hours[0].unserved_mw)
    header = (["hour"] + [f"gen_{u}" for u in units] + [f"flow_{l}" for l in lines]
              + [f"unserved_{r}" for r in regions] + [f"dumped_{r}" for r in regions]
              + [f"price_{r}" for r in priced] + ["unserved_hour", "dumped_hour"])
    _write_rows(path, header, (
        [hd.hour, *[hd.output_mw.get(u, 0.0) for u in units], *[hd.flow_mw[l] for l in lines],
         *[hd.unserved_mw[r] for r in regions], *[hd.dumped_mw[r] for r in regions],
         *[hd.price[r] for r in priced], int(hd.unserved_hour), int(hd.dumped_hour)]
        for hd in dispatch.hours))


def _write_loadability_csv(res: LoadabilityResult, path: Path) -> None:
    _write_rows(path,
                ["hour", "lambda_star", "served_load_MW", "region_load_MW", "min_voltage_pu"],
                zip(range(len(res)), res.lambda_star.tolist(), res.served_load_mw.tolist(),
                    res.region_load_mw.tolist(), res.min_voltage_pu.tolist()))


def _write_schedule_csv(days: Sequence[DemandSchedule], price: TimeSeries, load: TimeSeries,
                        pv: TimeSeries, path: Path) -> None:
    battery = np.concatenate([sched.battery_mw for sched in days]).tolist()
    grid = np.concatenate([sched.grid_mw for sched in days]).tolist()
    soc = np.concatenate([sched.soc_mwh[1:] for sched in days]).tolist()
    _write_rows(path, ["hour", "price", "load", "pv", "p_b", "p_g", "soc"],
                zip(range(len(soc)), price.values.tolist(), load.values.tolist(),
                    pv.values.tolist(), battery, grid, soc))


def merge_summaries(run_dirs: Sequence, out_path) -> Path:
    """Merge per-scenario summary rows into one table ordered by scenario id.

    Blank rows are skipped.  A row whose cell count differs from the header's
    or whose scenario id is not an integer raises a ``ValueError`` naming the
    file and the row; so does a scenario id already read, naming both files.
    """
    found = {}  # scenario id -> (file, row)
    for run_dir in run_dirs:
        path = Path(run_dir) / SUMMARY_FILE
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header) != SUMMARY_COLUMNS:
                raise ValueError(f"{path}: unexpected summary columns {header}")
            for rownum, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != len(SUMMARY_COLUMNS):
                    raise ValueError(f"{path}: row {rownum}: expected {len(SUMMARY_COLUMNS)} "
                                     f"cells, found {len(row)}")
                try:
                    scenario = int(row[0])
                except ValueError:
                    raise ValueError(f"{path}: row {rownum}: scenario id {row[0]!r} "
                                     f"is not an integer") from None
                if scenario in found:
                    raise ValueError(f"{path}: row {rownum}: scenario {scenario} is also "
                                     f"in {found[scenario][0]}")
                found[scenario] = (path, row)
    out_path = Path(out_path)
    rows = [SUMMARY_COLUMNS, *(found[k][1] for k in sorted(found))]
    out_path.write_text("".join(",".join(row) + "\n" for row in rows), newline="")
    return out_path
