"""Pipeline wiring on short horizons: replacement, stages, emission, CLI."""

import copy
import csv
import hashlib
import os
import shutil
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

from gridstudy import harness
from gridstudy.dispatch import DispatchResult, HourDispatch
from gridstudy.harness import (
    StageError,
    merge_summaries,
    run_scenario,
)
from gridstudy.loadability import LoadabilityResult
from gridstudy.powerflow import PowerFlowError
from gridstudy.pricing import feature_matrix
from gridstudy.scenarioconfig import scenario_from_config
from gridstudy.synthdata import LOAD_TAN_PHI
from gridstudy.timeseries import ZoneWeights, load_timeseries_csv, split_regional_demand
from tests.conftest import config_path

DAYS = 4

#: What ``make-data`` writes: the series of the study and historical years,
#: and the study network.
DATA_FILES = sorted(
    [f"{kind}_{r}.csv" for kind in ("demand", "historical_demand", "historical_price", "pv")
     for r in ("NSW", "QLD", "SA", "VIC")]
    + ["wind_NSA.csv", "solar_NQ.csv", "solar_CQ.csv", "bus.csv", "branch.csv"])


def write_summary(run_dir: Path, rows) -> Path:
    """A run directory whose ``summary.csv`` holds the header and ``rows``."""
    run_dir.mkdir()
    (run_dir / "summary.csv").write_text(
        ",".join(harness.SUMMARY_COLUMNS) + "\n" + "".join(f"{row}\n" for row in rows))
    return run_dir


def emit_report(report, out_dir) -> list[Path]:
    """Write every output file of a finished run's ``report`` into ``out_dir``."""
    return harness._emit({**vars(report), "report": report}, out_dir)


@pytest.fixture(scope="module")
def short_reports(data_dir):
    reports = {}
    for scenario in (1, 2, 4):
        cfg = scenario_from_config(config_path(scenario))
        reports[scenario] = run_scenario(cfg, data_dir, days=DAYS)
    return reports


class TestReplacement:
    def test_renewable_share_in_band(self, data_dir):
        """The swapped-in fleet serves about a fifth of annual demand."""
        cfg = scenario_from_config(config_path(2))
        data = harness._load_data(cfg, data_dir, None, {})
        demand = sum(ts.values.sum() for ts in data.demand.values())
        res = sum(g.capacity_mw * data.availabilities[g.name].values.sum()
                  for g in cfg.fleet if g.is_renewable)
        assert 0.18 <= res / demand <= 0.22


class TestPipeline:
    def test_unserved_zero_and_columns_populated(self, short_reports):
        rep = short_reports[1]
        assert rep.unserved_hours == 0
        assert rep.loadability_gw > 0
        assert rep.spilled_energy_twh == 0.0  # no renewables in the unmodified fleet

    def test_uptake_reduces_spill_vs_conventional(self, short_reports):
        assert short_reports[4].spilled_energy_twh < short_reports[2].spilled_energy_twh

    def test_prices_identical_across_same_fleet_scenarios(self, short_reports):
        for region in short_reports[2].prices:
            assert np.array_equal(short_reports[2].prices[region].values,
                                  short_reports[4].prices[region].values)

    def test_energy_conservation(self, short_reports):
        """Served + unserved equals nett demand + dumped over the horizon."""
        for rep in short_reports.values():
            generated = sum(sum(hd.output_mw.values()) for hd in rep.dispatch.hours)
            unserved = rep.unserved_energy_twh * 1e6
            dumped = rep.spilled_energy_twh * 1e6
            demand = sum(ts.values.sum() for ts in rep.nett_demand.values())
            assert generated + unserved == pytest.approx(demand + dumped, rel=1e-6)

    def test_nett_equals_conventional_without_uptake(self, short_reports):
        rep = short_reports[2]
        for region, conv in rep.conventional_demand.items():
            assert np.array_equal(rep.nett_demand[region].values, conv.values)

    def test_responsive_nett_differs_and_balances(self, short_reports):
        rep = short_reports[4]
        moved = 0.0
        for region, conv in rep.conventional_demand.items():
            moved += float(np.sum(np.abs(rep.nett_demand[region].values - conv.values)))
        assert moved > 0

    def test_schedules_satisfy_invariants(self, short_reports):
        from gridstudy.demand import schedule_violations, default_params
        cfg = scenario_from_config(config_path(4))
        rep = short_reports[4]
        region = "QLD"
        spec = cfg.batteries[region]
        params = default_params(
            spec.soc_min_mwh, spec.soc_max_mwh,
            peak_load_mw=float(np.max(rep.conventional_demand[region].values)),
            pv_capacity_mw=cfg.pv_capacity_mw[region],
            charge_rate_mw=spec.charge_rate_mw, discharge_rate_mw=spec.discharge_rate_mw)
        from gridstudy.demand import DayInputs
        for d, sched in enumerate(rep.demand_schedules[region]):
            day = DayInputs(rep.prices[region].day(d), rep.conventional_demand[region].day(d),
                            rep.pv_power[region].day(d))
            assert schedule_violations(sched, params, day, tol=1e-6) == []

    def test_unwritable_partial_output_is_warned_about(self, short_reports, tmp_path):
        rep = short_reports[2]
        blocked = tmp_path / "partial_prices_NSW.csv"
        blocked.mkdir()  # a directory where the file should go
        with pytest.warns(RuntimeWarning, match="partial_prices_NSW.csv"):
            harness._write_partial({"prices": rep.prices, "dispatch": rep.dispatch}, tmp_path)
        assert (tmp_path / "partial_prices_QLD.csv").is_file()
        assert (tmp_path / "partial_dispatch_hourly.csv").is_file()

    def test_stage_error_carries_tag(self, data_dir, tmp_path):
        cfg = scenario_from_config(config_path(1))
        broken = tmp_path / "missing"
        with pytest.raises(StageError) as err:
            run_scenario(cfg, broken, days=2)
        assert err.value.stage == "load-data"

    def test_unusable_out_dir_keeps_the_stage_tag(self, tmp_path):
        """A failed run whose output directory cannot be made warns about it
        and still reports the stage that failed."""
        cfg = scenario_from_config(config_path(1))
        out = tmp_path / "taken"
        out.write_text("a regular file, not a directory")
        with pytest.warns(RuntimeWarning, match="taken"):
            with pytest.raises(StageError) as err:
                run_scenario(cfg, tmp_path / "missing", out_dir=out, days=2)
        assert err.value.stage == "load-data"

    def test_unwritable_output_fails_in_emit(self, data_dir, tmp_path):
        cfg = scenario_from_config(config_path(1))
        out = tmp_path / "taken"
        out.write_text("a regular file, not a directory")
        with pytest.warns(RuntimeWarning, match="taken"):
            with pytest.raises(StageError) as err:
                run_scenario(cfg, data_dir, out_dir=out, days=2, stop_after="demand")
        assert err.value.stage == "emit"


def _names(prefix, kinds, regions):
    return [f"{prefix}{kind}_{r}.{'txt' if kind == 'predictor' else 'csv'}"
            for kind in kinds for r in regions]


class TestOutputFiles:
    """The exact files each way of ending a run leaves (scenario 3, with a transit region)."""

    REGIONS = ("NSW", "QLD", "SA", "VIC")

    def expected(self, prefix, dispatch):
        files = (_names(prefix, ("predictor", "prices", "demand"), self.REGIONS)
                 + _names(prefix, ("nett_demand",), self.REGIONS + ("SH",)))
        if dispatch:
            files.append(f"{prefix}dispatch_hourly.csv")
        return sorted(files)

    @pytest.mark.parametrize("stop_after", ["demand", "dispatch"])
    def test_stop_after(self, data_dir, tmp_path, stop_after):
        cfg = scenario_from_config(config_path(3))
        assert run_scenario(cfg, data_dir, out_dir=tmp_path, days=2, stop_after=stop_after) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == self.expected(
            "", stop_after == "dispatch")

    def test_failed_loadability_stage(self, data_dir, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("no sweep")

        monkeypatch.setattr(harness, "compute_loadability", fail)
        cfg = scenario_from_config(config_path(3))
        with pytest.raises(StageError) as err:
            run_scenario(cfg, data_dir, out_dir=tmp_path, days=2)
        assert err.value.stage == "loadability"
        assert sorted(p.name for p in tmp_path.iterdir()) == self.expected("partial_", True)

    def test_study_rows_are_predicted_under_their_own_names(self, data_dir, tmp_path,
                                                           monkeypatch):
        """Study-year feature columns in another order than the training
        columns fail the prediction instead of being read as the training ones."""
        def study_columns_swapped(fleet, lines, availabilities, demand):
            names, x = feature_matrix(fleet, lines, availabilities, demand)
            if demand.label.startswith("historical_"):
                return names, x
            order = [1, 0, *range(2, len(names))]
            return tuple(names[i] for i in order), x[:, order]

        monkeypatch.setattr(harness, "feature_matrix", study_columns_swapped)
        cfg = scenario_from_config(config_path(1))
        with pytest.raises(StageError, match="feature names do not match") as err:
            run_scenario(cfg, data_dir, out_dir=tmp_path, days=2)
        assert err.value.stage == "predict-prices"

    def test_full_run(self, data_dir, tmp_path):
        cfg = scenario_from_config(config_path(3))
        run_scenario(cfg, data_dir, out_dir=tmp_path, days=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            self.expected("", True) + ["loadability_hourly.csv", "manifest.txt", "summary.csv"])


class TestEmission:
    def test_summary_schema_and_reemission(self, short_reports, tmp_path):
        rep = short_reports[2]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        emit_report(rep, out1)
        emit_report(rep, out2)
        summary = (out1 / "summary.csv").read_text().splitlines()
        assert summary[0] == "scenario,spilled_energy_TWh,spilled_hours_pct,gt_energy_TWh,loadability_GW,unserved_energy_TWh"
        assert len(summary) == 2
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_reemission_reproduces_the_runs_files(self, data_dir, tmp_path):
        """emit_report of a run's report writes the run's own files, predictors
        included, byte for byte."""
        cfg = scenario_from_config(config_path(4))
        rep = run_scenario(cfg, data_dir, out_dir=tmp_path / "run", days=2)
        written = emit_report(rep, tmp_path / "again")
        assert sorted(p.name for p in written) == sorted(p.name for p in
                                                         (tmp_path / "run").iterdir())
        assert any(p.name.startswith("predictor_") for p in written)
        for path in written:
            assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("change", ["delete", "rewrite"])
    def test_manifest_hashes_the_parsed_config(self, data_dir, tmp_path, change):
        """The manifest records the digest of the config bytes that were parsed,
        also when the file is removed or rewritten before the run ends."""
        path = shutil.copyfile(config_path(1), tmp_path / "scenario1.ini")
        cfg = scenario_from_config(path)
        if change == "delete":
            path.unlink()
        else:
            path.write_text(path.read_text() + "# edited during the run\n")
        run_scenario(cfg, data_dir, out_dir=tmp_path / "run", days=1)
        want = hashlib.sha256(config_path(1).read_bytes()).hexdigest()
        assert f"config_sha256 {want}\n" in (tmp_path / "run" / "manifest.txt").read_text()

    def test_emitted_dispatch_serves_emitted_nett_demand(self, short_reports, tmp_path):
        """Each hour of dispatch_hourly.csv balances the nett_demand files.

        Units committed only after hour 0 need their own gen_ columns.
        """
        for scenario, rep in short_reports.items():
            out = tmp_path / f"s{scenario}"
            emit_report(rep, out)
            n_hours = len(rep.dispatch.hours)
            nett = sum(load_timeseries_csv(path, n_hours).values
                       for path in sorted(out.glob("nett_demand_*.csv")))
            with (out / "dispatch_hourly.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == n_hours
            for h, row in enumerate(rows):
                mw = {k: float(v) for k, v in row.items()
                      if k not in ("unserved_hour", "dumped_hour")}
                supply = sum(v for k, v in mw.items() if k.startswith(("gen_", "unserved_")))
                sink = nett[h] + sum(v for k, v in mw.items() if k.startswith("dumped_"))
                assert supply == pytest.approx(sink, rel=1e-6), (scenario, h)

    def test_dispatch_prices_only_the_demand_regions(self, short_reports, tmp_path):
        """Transit regions keep their unserved and dumped columns but have no
        price column; the in-memory dispatch keeps every region's price."""
        rep = short_reports[4]
        emit_report(rep, tmp_path / "r4")
        header = (tmp_path / "r4" / "dispatch_hourly.csv").read_text().splitlines()[0].split(",")
        priced = [name for name in header if name.startswith("price_")]
        assert priced == [f"price_{r}" for r in sorted(rep.prices)] == [
            "price_NSW", "price_QLD", "price_SA", "price_VIC"]
        assert "unserved_SH" in header and "dumped_SH" in header
        assert "SH" in rep.dispatch.hours[0].price

    def test_each_cell_is_the_repr_of_a_python_number(self, tmp_path):
        """NaN, -0.0 and 1e-300 keep their repr, and the hour and both flags
        are ints; a numpy scalar would be written as ``np.float64(...)``."""
        nan = float("nan")
        res = LoadabilityResult(np.array([1.5, nan]), np.array([-0.0, nan]),
                                np.array([1e-300, nan]), np.array([0.1, nan]))
        harness._write_loadability_csv(res, tmp_path / "loadability.csv")
        assert (tmp_path / "loadability.csv").read_text() == (
            "hour,lambda_star,served_load_MW,region_load_MW,min_voltage_pu\n"
            "0,1.5,-0.0,1e-300,0.1\n"
            "1,nan,nan,nan,nan\n")
        hours = (HourDispatch(0, {"b": 1e-300, "a": -0.0}, {"L": 0.1}, {"A": 0.0, "B": 2.5},
                              {"A": 0.0, "B": 0.0}, {"A": 30.0, "B": -0.01}, True, False),
                 HourDispatch(1, {"a": nan}, {"L": -100.0}, {"A": 0.0, "B": 0.0},
                              {"A": 7.0, "B": 0.0}, {"A": 1e-300, "B": 0.0}, False, True))
        dispatch = DispatchResult(hours, 7e-6, 50.0, 0.0, 2.5e-6, 1)
        harness._write_dispatch_csv(dispatch, ["A"], tmp_path / "dispatch.csv")
        assert (tmp_path / "dispatch.csv").read_text() == (
            "hour,gen_a,gen_b,flow_L,unserved_A,unserved_B,dumped_A,dumped_B,price_A,"
            "unserved_hour,dumped_hour\n"
            "0,-0.0,1e-300,0.1,0.0,2.5,0.0,0.0,30.0,1,0\n"
            "1,nan,0.0,-100.0,0.0,0.0,7.0,0.0,1e-300,0,1\n")

    def test_demand_csv_columns(self, short_reports, tmp_path):
        emit_report(short_reports[4], tmp_path / "r4")
        header = (tmp_path / "r4" / "demand_QLD.csv").read_text().splitlines()[0]
        assert header == "hour,price,load,pv,p_b,p_g,soc"

    def test_merged_table_layout(self, short_reports, tmp_path):
        dirs = []
        for scenario, rep in sorted(short_reports.items()):
            d = tmp_path / f"s{scenario}"
            emit_report(rep, d)
            dirs.append(d)
        merged = merge_summaries(dirs, tmp_path / "merged.csv")
        lines = merged.read_text().splitlines()
        assert len(lines) == 1 + len(dirs)
        ids = [int(row.split(",")[0]) for row in lines[1:]]
        assert ids == sorted(ids)
        # Blank rows are skipped, and the order of the directories does not matter.
        summary = dirs[1] / "summary.csv"
        header, row = summary.read_text().splitlines()
        summary.write_text(f"{header}\n\n{row}\n\n")
        assert merge_summaries(dirs[::-1], tmp_path / "blank.csv").read_bytes() == merged.read_bytes()

    @pytest.mark.parametrize("row, message", [
        ("1,0.1,2.0,0.3,4.0", r"summary.csv: row 3: expected 6 cells, found 5"),
        ("1,0.1,2.0,0.3,4.0,0.0,9", r"summary.csv: row 3: expected 6 cells, found 7"),
        ("s1,0.1,2.0,0.3,4.0,0.0", r"summary.csv: row 3: scenario id 's1' is not an integer"),
        ("1,0.1,2.0,0.3,4.0,0.0", r"summary.csv: row 3: scenario 1 is also in .*summary.csv"),
    ])
    def test_merge_rejects_bad_rows(self, tmp_path, row, message):
        run = write_summary(tmp_path / "run", ["1,0.5,1.0,0.2,3.0,0.0", row])
        with pytest.raises(ValueError, match=message) as err:
            merge_summaries([run], tmp_path / "merged.csv")
        assert str(run / "summary.csv") in str(err.value)
        assert not (tmp_path / "merged.csv").exists()

    def test_merge_names_both_files_of_a_repeated_scenario(self, tmp_path):
        first = write_summary(tmp_path / "a", ["2,0.5,1.0,0.2,3.0,0.0"])
        second = write_summary(tmp_path / "b", ["3,0.5,1.0,0.2,3.0,0.0", "2,0.5,1.0,0.2,3.0,0.0"])
        with pytest.raises(ValueError) as err:
            merge_summaries([first, second], tmp_path / "merged.csv")
        assert str(err.value) == (f"{second / 'summary.csv'}: row 3: scenario 2 is also in "
                                  f"{first / 'summary.csv'}")


class TestCli:
    def test_stage_commands(self, data_dir, tmp_path):
        from gridstudy.cli import main
        out = tmp_path / "cli_demand"
        rc = main(["demand", "--scenario", str(config_path(3)), "--data-dir", str(data_dir),
                   "--out", str(out), "--days", "2"])
        assert rc == 0
        assert (out / "demand_QLD.csv").exists()
        assert not (out / "summary.csv").exists()

    def test_run_and_merge(self, data_dir, tmp_path):
        from gridstudy.cli import main
        out = tmp_path / "cli_run"
        rc = main(["run", "--scenario", str(config_path(1)), "--data-dir", str(data_dir),
                   "--out", str(out), "--days", "2"])
        assert rc == 0
        merged = tmp_path / "merged.csv"
        rc = main(["report", "--merge", str(out), "--out", str(merged)])
        assert rc == 0
        assert merged.read_text().startswith("scenario,")

    def test_merge_of_one_run_twice_fails(self, tmp_path, capsys):
        from gridstudy.cli import main
        run = write_summary(tmp_path / "run", ["1,0.5,1.0,0.2,3.0,0.0"])
        rc = main(["report", "--merge", str(run), str(run), "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {run / 'summary.csv'}: row 2: scenario 1 is also in {run / 'summary.csv'}"]
        assert not (tmp_path / "m.csv").exists()

    def test_run_seed_is_not_an_option(self, data_dir, tmp_path, capsys):
        from gridstudy.cli import main
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--scenario", str(config_path(1)), "--data-dir", str(data_dir),
                  "--out", str(tmp_path / "o"), "--seed", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_make_data_keeps_its_data_seed(self, data_dir, tmp_path):
        """``data_dir`` holds the data of the default seed."""
        from gridstudy.cli import main
        out = tmp_path / "d5"
        assert main(["make-data", "--out", str(out), "--seed", "5"]) == 0
        assert sorted(p.name for p in out.iterdir()) == DATA_FILES
        assert sorted(p.name for p in data_dir.iterdir()) == DATA_FILES
        assert (out / "demand_QLD.csv").read_bytes() != (data_dir / "demand_QLD.csv").read_bytes()

    def test_failure_exit_code(self, tmp_path):
        from gridstudy.cli import main
        rc = main(["run", "--scenario", str(tmp_path / "nope.ini"),
                   "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1


@pytest.fixture
def counted(monkeypatch):
    """Series files parsed and dispatch horizons run, by the harness, from now on."""
    seen = {"parsed": [], "horizons": 0}
    load, simulate = harness.load_timeseries_csv, harness.simulate_horizon

    def counting_load(path, expected_hours):
        seen["parsed"].append(Path(path).name)
        return load(path, expected_hours)

    def counting_simulate(*args, **kwargs):
        seen["horizons"] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "load_timeseries_csv", counting_load)
    monkeypatch.setattr(harness, "simulate_horizon", counting_simulate)
    return seen


@pytest.fixture
def no_dispatch(monkeypatch):
    """The dispatch horizons the harness starts from now on (a failing run should start none)."""
    started = []
    monkeypatch.setattr(harness, "simulate_horizon", lambda *args: started.append(args))
    return started


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes() for n in names))


class TestReuseAcrossScenarios:
    """Series reads and the pass-0 dispatch are reused from the previous run by content."""

    def test_reused_run_writes_the_files_of_a_fresh_run(self, data_dir, tmp_path, counted):
        cfg2, cfg3 = (scenario_from_config(config_path(k)) for k in (2, 3))
        harness._LAST_RUN.clear()  # empty, as in a new process
        run_scenario(cfg3, data_dir, out_dir=tmp_path / "fresh", days=2)
        harness._LAST_RUN.clear()  # empty, as in a new process
        run_scenario(cfg2, data_dir, days=2)
        counted["parsed"].clear()
        counted["horizons"] = 0
        run_scenario(cfg3, data_dir, out_dir=tmp_path / "reused", days=2)
        # only the PV files are new to scenario 3; its pass 0 is scenario 2's
        assert sorted(counted["parsed"]) == [f"pv_{r}.csv" for r in sorted(cfg3.demand_regions)]
        assert counted["horizons"] == 1  # the nett dispatch
        assert same_files(tmp_path / "fresh", tmp_path / "reused")

    def test_rewritten_file_is_parsed_again(self, data_dir, tmp_path, counted):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        cfg = scenario_from_config(config_path(1))
        harness._LAST_RUN.clear()  # empty, as in a new process
        first = run_scenario(cfg, data, days=2, stop_after="demand")
        assert first is None
        path = data / "demand_NSW.csv"
        stat = path.stat()
        lines = path.read_text().splitlines(keepends=True)
        stamp, value = lines[1].split(",")
        lines[1] = f"{stamp},{'2' if value[0] == '1' else '1'}{value[1:]}"
        path.write_text("".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
        counted["parsed"].clear()
        report = run_scenario(cfg, data, days=2)
        assert counted["parsed"] == ["demand_NSW.csv"]
        assert report.conventional_demand["NSW"].values[0] == float(lines[1].split(",")[1])

    def test_bad_file_fails_the_same_way_every_run(self, data_dir, tmp_path, counted):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / "demand_QLD.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].split(",")[0] + ",oops\n"
        path.write_text("".join(lines))
        cfg = scenario_from_config(config_path(1))
        messages = []
        for _ in range(2):
            counted["parsed"].clear()
            with pytest.raises(StageError) as err:
                run_scenario(cfg, data, days=2)
            assert err.value.stage == "load-data"
            assert counted["parsed"][-1] == "demand_QLD.csv"
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"{path}: row 6: non-numeric value 'oops'" in messages[0]

    def test_store_holds_only_the_last_runs_entries(self, data_dir, counted):
        cfg1, cfg3 = (scenario_from_config(config_path(k)) for k in (1, 3))
        harness._LAST_RUN.clear()  # empty, as in a new process
        run_scenario(cfg3, data_dir, days=2, stop_after="demand")
        run_scenario(cfg1, data_dir, days=2, stop_after="demand")
        kinds = [key[0] for key in harness._LAST_RUN]
        assert kinds.count("series") == 12  # scenario 1's data files
        assert kinds.count("pass0") == 1
        counted["parsed"].clear()
        counted["horizons"] = 0
        run_scenario(cfg3, data_dir, days=2, stop_after="demand")
        # what scenario 1 did not use is gone: the PV and trace files, and scenario 3's pass 0
        assert sorted(counted["parsed"]) == sorted(
            ["pv_NSW.csv", "pv_QLD.csv", "pv_SA.csv", "pv_VIC.csv",
             "solar_CQ.csv", "solar_NQ.csv", "wind_NSA.csv"])
        assert counted["horizons"] == 1

    def test_failed_run_keeps_only_what_it_used(self, data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / "historical_price_SA.csv"  # the last series scenario 1 reads
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].split(",")[0] + ",oops\n"
        path.write_text("".join(lines))
        cfg1, cfg3 = (scenario_from_config(config_path(k)) for k in (1, 3))
        harness._LAST_RUN.clear()  # empty, as in a new process
        run_scenario(cfg3, data_dir, days=2, stop_after="demand")
        with pytest.raises(StageError) as err:
            run_scenario(cfg1, data, days=2)
        assert err.value.stage == "load-data"
        read_before = [data / cfg1.data_files[f"{kind}.{r}"]
                       for kind in ("demand", "historical_demand", "historical_price")
                       for r in cfg1.demand_regions][:-1]
        assert sorted(harness._LAST_RUN) == sorted(
            ("series", str(f.resolve()), hashlib.sha256(f.read_bytes()).hexdigest(), 48)
            for f in read_before)

    def test_pass0_key_covers_every_input(self, data_dir):
        from gridstudy.timeseries import TimeSeries
        cfg = scenario_from_config(config_path(2))
        data = harness._load_data(cfg, data_dir, 2, {})
        fleet = cfg.fleet
        lines = cfg.interconnectors
        avail = data.availabilities
        nett = dict(data.demand)

        def key(*inputs):
            return harness._pickle_sha256(inputs)

        base = key(fleet, nett, lines, avail)
        assert key(*copy.deepcopy((fleet, nett, lines, avail))) == base
        qld = nett["QLD"]
        nudged = qld.values.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        changed = [
            key(fleet[:-1], nett, lines, avail),
            key((replace(fleet[0], srmc=fleet[0].srmc + 1.0),) + fleet[1:], nett, lines, avail),
            key(fleet, nett, lines[:-1], avail),
            key(fleet, nett, (replace(lines[0], forward_limit_mw=1.0),) + lines[1:], avail),
            key(fleet, {**nett, "QLD": TimeSeries(qld.start, nudged, qld.label)}, lines, avail),
            key(fleet, {**nett, "QLD": qld.relabel("other")}, lines, avail),
            key(fleet, {**nett, "QLD": TimeSeries(qld.start + timedelta(hours=1), qld.values,
                                                  qld.label)}, lines, avail),
            key(fleet, dict(reversed(nett.items())), lines, avail),
            key(fleet, nett, lines, {**avail, "WF_5": avail["WF_5"].relabel("other")}),
            key(fleet, nett, lines, {}),
        ]
        assert len({base, *changed}) == 1 + len(changed)

    def test_scenarios_2_and_5_share_their_pass0_key(self, data_dir):
        """The study suite's pass-0 hits rest on this: scenarios 3-5 dispatch scenario 2's
        conventional demand, and fresh reads of the same files give the same key."""
        keys = []
        for scenario in (2, 5):
            harness._LAST_RUN.clear()  # empty, as in a new process
            run_scenario(scenario_from_config(config_path(scenario)), data_dir, days=2,
                         stop_after="demand")
            keys += [key for key in harness._LAST_RUN if key[0] == "pass0"]
        assert len(keys) == 2 and keys[0] == keys[1]

    def test_served_dispatch_cannot_be_changed_in_place(self, data_dir):
        """Scenario 2's report carries its pass-0 result, which scenario 3 reuses."""
        harness._LAST_RUN.clear()  # empty, as in a new process
        report = run_scenario(scenario_from_config(config_path(2)), data_dir, days=2)
        hd = report.dispatch.hours[0]
        for mapping in (hd.output_mw, hd.flow_mw, hd.unserved_mw, hd.dumped_mw, hd.price):
            with pytest.raises(TypeError):
                mapping[next(iter(mapping))] = 0.0


# -- operating points: the dict-based builder the sweep arrays replaced --------

@dataclass(frozen=True)
class OperatingPoint:
    """Bus loads and generator injections (MW / MVAr) for one hour."""

    loads: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    injections: Mapping[str, tuple[float, float]] = field(default_factory=dict)


def _zone_weights(config, network, region) -> ZoneWeights:
    if region in config.zone_weights:
        return config.zone_weights[region]  # parsed into ZoneWeights by the config now
    load_buses = [b.bus_id for b in network.buses if b.region == region and b.kind == "pq"]
    if not load_buses:
        raise ValueError(f"region {region} has no load buses in the network")
    return ZoneWeights.equal(load_buses)


def dict_operating_points(config, network, nett, dispatch) -> list[OperatingPoint]:
    """The former ``harness._operating_points``: one dict-based point per hour."""
    n_hours = len(next(iter(nett.values())))
    listed: dict[str, str] = {}
    first_pv_bus: dict[str, str] = {}
    slack_id = next(b.bus_id for b in network.buses if b.kind == "slack")
    for b in network.buses:
        if b.kind == "pv":
            first_pv_bus.setdefault(b.region, b.bus_id)
        for unit in b.gen_names:
            listed[unit] = b.bus_id
    bus_of_unit = {}
    for g in config.fleet:
        bus = listed.get(g.name) or first_pv_bus.get(g.region)
        if bus not in (None, slack_id):
            bus_of_unit[g.name] = bus
    splits: dict[str, dict[str, np.ndarray]] = {}
    for region in config.demand_regions:
        weights = _zone_weights(config, network, region)
        splits[region] = {zone: ts.values for zone, ts
                          in split_regional_demand(nett[region], weights).items()}
    points = []
    for h in range(n_hours):
        hd = dispatch.hours[h]
        loads = {}
        for region, zones in splits.items():
            for bus_id, series in zones.items():
                p = float(series[h])
                loads[bus_id] = (p, p * LOAD_TAN_PHI)
        injections: dict[str, list[float]] = {}
        for unit, mw in hd.output_mw.items():
            bus = bus_of_unit.get(unit)
            if bus is not None:
                injections.setdefault(bus, [0.0, 0.0])[0] += mw
        points.append(OperatingPoint(
            loads=loads,
            injections={k: (v[0], v[1]) for k, v in injections.items()},
        ))
    return points


def dict_points_to_arrays(net, hours):
    """The loop that turned the dict-based points into the sweep's arrays."""
    n = len(net.buses)
    nh = len(hours)
    index = {b.bus_id: i for i, b in enumerate(net.buses)}
    base_p = np.tile([b.p_load_mw for b in net.buses], (nh, 1))
    base_q = np.tile([b.q_load_mvar for b in net.buses], (nh, 1))
    inj_p = np.zeros((nh, n))
    inj_q = np.zeros((nh, n))
    for h, op in enumerate(hours):
        for bid, (p, q) in op.loads.items():
            if bid not in index:
                raise PowerFlowError(f"hour {h}: unknown bus {bid!r} in loads")
            base_p[h, index[bid]] = p
            base_q[h, index[bid]] = q
        for bid, (p, q) in op.injections.items():
            if bid not in index:
                raise PowerFlowError(f"hour {h}: unknown bus {bid!r} in injections")
            inj_p[h, index[bid]] = p
            inj_q[h, index[bid]] = q
    return base_p, base_q, inj_p, inj_q


class TestOperatingPoints:
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
    def test_arrays_equal_the_dict_oracle_bitwise(self, data_dir, monkeypatch, scenario):
        calls = []

        def recorded(*args):
            calls.append((args, build(*args)))
            return calls[-1][1]

        build = harness._operating_points
        monkeypatch.setattr(harness, "_operating_points", recorded)
        run_scenario(scenario_from_config(config_path(scenario)), data_dir, days=7)
        [(args, arrays)] = calls
        network = args[1]
        *oracle, inj_q = dict_points_to_arrays(network, dict_operating_points(*args))
        assert not inj_q.any()
        assert arrays[0].shape == (7 * 24, len(network.buses))
        for got, want in zip(arrays, oracle, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bus, why", [("qld_gen", "not a pq bus of region QLD"),
                                          ("nsw_load_n", "not a pq bus of region QLD"),
                                          ("ghost", "unknown bus 'ghost'")])
    def test_zone_weight_off_the_regions_load_buses_fails(self, data_dir, no_dispatch, bus, why):
        cfg = scenario_from_config(config_path(1))
        cfg = replace(cfg, zone_weights={**cfg.zone_weights, "QLD": ZoneWeights({bus: 1.0})})
        with pytest.raises(StageError, match=why) as err:
            run_scenario(cfg, data_dir, days=1)
        assert err.value.stage == "load-data"
        assert bus in str(err.value)
        assert no_dispatch == []

    @pytest.mark.parametrize("change, why", [
        ({"participation": {"ghost": 0.5, "qld_csp": 0.5}}, "unknown participation bus 'ghost'"),
        # SH's only bus is the slack: every hour would be capped at lambda_max
        ({"region": "SH"}, "region SH has no load buses"),
    ])
    def test_loadability_bus_misfit_fails_in_load_data(self, data_dir, no_dispatch, change, why):
        cfg = scenario_from_config(config_path(4))
        cfg = replace(cfg, loadability=replace(cfg.loadability, **change))
        with pytest.raises(StageError, match=why) as err:
            run_scenario(cfg, data_dir, days=2)
        assert err.value.stage == "load-data"
        assert no_dispatch == []

    def test_unit_listed_on_another_regions_bus_fails_in_load_data(self, tmp_path, data_dir,
                                                                     no_dispatch):
        """The dispatch would count the CSP pair as VIC supply, but its output
        would be injected at qld_csp, a QLD bus."""
        path = tmp_path / "scenario2.ini"
        path.write_text(config_path(2).read_text().replace("csp_region = QLD", "csp_region = VIC"))
        with pytest.raises(StageError) as err:
            run_scenario(scenario_from_config(path), data_dir, days=1)
        assert err.value.stage == "load-data"
        assert str(err.value.cause) == "unit CSP_4A of region VIC is listed on bus 'qld_csp' of region QLD"
        assert no_dispatch == []

    def test_unit_listed_on_two_buses_fails_in_load_data(self, tmp_path, data_dir, no_dispatch):
        """CPS_4 listed on qld_csp as well as qld_gen: its output would be
        injected at whichever bus came last."""
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        bus_csv = data / "bus.csv"
        bus_csv.write_text(bus_csv.read_text().replace("QLD,CSP_4A;CSP_4B", "QLD,CSP_4A;CSP_4B;CPS_4"))
        with pytest.raises(StageError) as err:
            run_scenario(scenario_from_config(config_path(1)), data, days=1)
        assert err.value.stage == "load-data"
        assert str(err.value.cause) == "unit CPS_4 is listed on buses 'qld_gen' and 'qld_csp'"
        assert no_dispatch == []
