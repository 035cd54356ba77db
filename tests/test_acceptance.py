"""Acceptance criteria for the study pipeline, one test per criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``); the
five-scenario year runs once per session and is shared by the trend
criteria.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from gridstudy.demand import (
    DayInputs,
    DemandParams,
    default_params,
    schedule_violations,
    solve_day,
)
from gridstudy.dispatch import (
    DUMP_PENALTY,
    VALUE_OF_LOST_LOAD,
    Generator,
    Interconnector,
    base_commitments,
    dispatch_hour,
)
from gridstudy.harness import merge_summaries, run_scenario
from gridstudy.loadability import compute_loadability
from gridstudy.scenarioconfig import scenario_from_config
from gridstudy.synthdata import study_network
from gridstudy.timeseries import HOURS_PER_DAY
from oracles import (
    flat_start_converges,
    milp_commitment,
    reference_base_commitment,
    reference_sweep,
    solve_power_flow,
    stressed_network,
    three_bus_case,
    two_bus_case,
    verify_bracket,
)
from tests.conftest import config_path

from tests.test_demand import discretized_min_cost, padded_day, random_instance
from tests.test_dispatch import commit
from tests.test_loadability import RESULT_ARRAYS, points


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def year_suite(data_dir, tmp_path_factory):
    """Full five-scenario year: reports, emitted files and total wall time."""
    out_root = tmp_path_factory.mktemp("year_runs")
    reports = {}
    t0 = time.perf_counter()
    for scenario in range(1, 6):
        cfg = scenario_from_config(config_path(scenario))
        reports[scenario] = run_scenario(cfg, data_dir, out_dir=out_root / f"s{scenario}")
    elapsed = time.perf_counter() - t0
    merge_summaries([out_root / f"s{s}" for s in range(1, 6)], out_root / "merged.csv")
    return reports, out_root, elapsed


def test_criterion_1_lp_oracle_equivalence():
    """100 random daily instances never beat the discretized search."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(100):
        horizon = int(rng.integers(2, 7))
        params, price, load, pv = random_instance(rng, horizon)
        day = padded_day(price, load, pv)
        sched = solve_day(params, day)
        assert schedule_violations(sched, params, day, tol=1e-6) == []
        oracle = discretized_min_cost(params, price, load, pv, levels=21)
        worst = max(worst, sched.cost - oracle)
        assert sched.cost <= oracle + 1e-6
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 10.0, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_flat_price_null_action():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        params, _, load, _ = random_instance(rng, HOURS_PER_DAY)
        price = np.full(HOURS_PER_DAY, float(rng.uniform(1, 80)))
        day = DayInputs(price, load, np.zeros(HOURS_PER_DAY))
        sched = solve_day(params, day)
        expected = float(price @ load)
        worst = max(worst, abs(sched.cost - expected))
        assert abs(sched.cost - expected) <= 1e-9 * max(1.0, abs(expected))
    report(2, True, f"worst deviation {worst:.2e}")


def test_criterion_3_cost_monotonicity():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        params, price, load, pv = random_instance(rng, HOURS_PER_DAY)
        day = DayInputs(price, load, pv)
        base = solve_day(params, day)
        wider = DemandParams(
            params.grid_import_limit_mw + float(rng.uniform(0, 30)),
            params.grid_export_limit_mw - float(rng.uniform(0, 30)),
            params.charge_rate_mw + float(rng.uniform(0, 5)),
            params.discharge_rate_mw - float(rng.uniform(0, 5)),
            params.soc_min_mwh,
            params.soc_max_mwh + float(rng.uniform(0, 15)),
            params.efficiency,
        )
        assert solve_day(wider, day).cost <= base.cost + 1e-6
    report(3, True)


def test_criterion_4_dispatch_correctness():
    rng = np.random.default_rng(1004)
    lines = [Interconnector("A-B", "A", "B", 120.0, -120.0)]

    def random_fleet():
        fleet = []
        for i in range(4):
            region = "A" if i % 2 == 0 else "B"
            ms = float(rng.choice([0.0, 0.3, 0.5])) * 100
            fleet.append(Generator(f"{region}u{i}", "black_coal", "Z", region,
                                   float(rng.uniform(80, 300)), ms, float(rng.uniform(5, 80))))
        return fleet

    # feasibility vs exhaustive enumeration over all 16 commitments
    for _ in range(80):
        fleet = random_fleet()
        demand = {"A": float(rng.uniform(0, 350)), "B": float(rng.uniform(0, 350))}
        _, hd = commit(fleet, demand, {}, lines)
        ours_clean = not hd.unserved_hour and not hd.dumped_hour
        oracle_clean = False
        for mask in range(16):
            subset = tuple(g for i, g in enumerate(fleet) if mask >> i & 1)
            trial = dispatch_hour(subset, demand, {}, lines, 0, {})
            if not trial.unserved_hour and not trial.dumped_hour:
                oracle_clean = True
                break
        if oracle_clean:
            assert ours_clean, f"heuristic stranded a servable hour: {demand}"

    # hourly balance on 1000 random hours
    for _ in range(1000):
        fleet = random_fleet()
        demand = {"A": float(rng.uniform(0, 400)), "B": float(rng.uniform(0, 400))}
        _, hd = commit(fleet, demand, {}, lines)
        for region in demand:
            gen_mw = sum(mw for u, mw in hd.output_mw.items() if u.startswith(region))
            flows = sum(f if line.to_region == region else -f
                        for line in lines for f in [hd.flow_mw[line.name]]
                        if region in (line.to_region, line.from_region))
            resid = gen_mw + flows + hd.unserved_mw[region] - hd.dumped_mw[region] - demand[region]
            assert abs(resid) < 1e-6

    # hand-solved transport example, exact
    cheap = Generator("cheap", "black_coal", "Z", "A", 1000, 0, 20.0)
    dear = Generator("dear", "gt", "Z", "B", 1000, 0, 70.0)
    line = Interconnector("A-B", "A", "B", 100.0, -100.0)
    hd = dispatch_hour((cheap, dear), {"A": 50.0, "B": 200.0}, {}, [line], 0, {})
    assert hd.output_mw["cheap"] == 150.0
    assert hd.output_mw["dear"] == 100.0
    assert hd.flow_mw["A-B"] == 100.0
    assert hd.price["A"] == 20.0 and hd.price["B"] == 70.0
    report(4, True)


def test_criterion_5_two_bus_loadability():
    net = two_bus_case()
    res = compute_loadability(net, "LOAD", {"source": 1.0}, points(net, [{}]), step=0.005)
    served = float(res.served_load_mw[0])
    within = abs(served - 500.0) <= 0.005 * 500.0 + 1e-9
    at, above = verify_bracket(net, "LOAD", {"source": 1.0}, None,
                               float(res.lambda_star[0]), 0.005)
    report(5, within and at and not above,
           f"served {served:.2f} MW vs analytic 500, bracket=({at},{not above})")


def test_criterion_6_power_flow_fidelity():
    from gridstudy.powerflow import Branch, Bus, BusNetwork
    for net in (two_bus_case(), three_bus_case(), study_network()):
        sol = solve_power_flow(net)
        assert sol.converged and sol.mismatch_pu < 1e-8
    flat_net = BusNetwork((
        Bus("a", "slack", v_set_pu=1.0),
        Bus("b", "pv", v_set_pu=1.0),
        Bus("c", "pq"),
    ), (Branch("a", "b", 0.01, 0.1), Branch("b", "c", 0.01, 0.08)))
    sol = solve_power_flow(flat_net)
    exact = (sol.converged and np.array_equal(sol.v_pu, np.ones(3))
             and np.array_equal(sol.angle_rad, np.zeros(3))
             and np.array_equal(sol.p_from_mw, np.zeros(2)))
    report(6, exact)


@pytest.mark.year
def test_criterion_7_demand_shift_and_secondary_peak(year_suite, data_dir):
    reports, _, _ = year_suite
    # (a) imports during the top-decile price hours never increase with uptake
    price_ref = np.mean([reports[2].prices[r].values for r in reports[2].prices], axis=0)
    for region in reports[2].prices:
        assert np.array_equal(reports[2].prices[region].values,
                              reports[5].prices[region].values)
    decile = price_ref >= np.quantile(price_ref, 0.9)
    imports = {}
    for scenario in (2, 3, 4, 5):
        nett = reports[scenario].nett_demand
        imports[scenario] = sum(float(np.sum(np.maximum(ts.values[decile], 0.0)))
                                for r, ts in nett.items())
    ordered = [imports[s] for s in (2, 3, 4, 5)]
    non_increasing = all(a >= b - 1e-6 for a, b in zip(ordered, ordered[1:]))

    # (b) tenfold storage rates relocate the nett peak onto the cheapest hour
    cfg = scenario_from_config(config_path(5))
    rep5 = reports[5]
    coincided = False
    for region in cfg.demand_regions:
        spec = cfg.batteries[region]
        params = default_params(
            spec.soc_min_mwh, spec.soc_max_mwh,
            peak_load_mw=float(np.max(rep5.conventional_demand[region].values)),
            pv_capacity_mw=cfg.pv_capacity_mw[region],
            charge_rate_mw=spec.charge_rate_mw * 10.0,
            discharge_rate_mw=spec.discharge_rate_mw * 10.0,
        )
        load = rep5.conventional_demand[region]
        pv = rep5.pv_power[region]
        prices = rep5.prices[region]
        for d in range(load.n_days):
            day = DayInputs(prices.day(d), load.day(d), pv.day(d))
            sched = solve_day(params, day)
            if int(np.argmax(sched.grid_mw)) == int(np.argmin(day.price)):
                coincided = True
                break
        if coincided:
            break
    report(7, non_increasing and coincided,
           f"top-decile imports {['%.0f' % v for v in ordered]}, secondary peak={coincided}")


@pytest.mark.year
def test_criterion_8_trend_reproduction(year_suite):
    reports, out_root, elapsed = year_suite
    spilled = {s: reports[s].spilled_energy_twh for s in range(1, 6)}
    gt = {s: reports[s].gt_energy_twh for s in range(1, 6)}
    unserved = {s: reports[s].unserved_hours for s in range(1, 6)}
    spill_ok = spilled[2] > spilled[3] > spilled[4] > spilled[5]
    gt_ok = gt[2] > gt[3] > gt[4] > gt[5]
    unserved_ok = all(v == 0 for v in unserved.values())
    time_ok = elapsed < 300.0
    merged = (out_root / "merged.csv").read_text().splitlines()
    layout_ok = len(merged) == 6 and merged[0].startswith("scenario,")
    report(8, spill_ok and gt_ok and unserved_ok and time_ok and layout_ok,
           f"spill {['%.3f' % spilled[s] for s in range(1, 6)]}, "
           f"gt {['%.3f' % gt[s] for s in range(1, 6)]}, "
           f"unserved {list(unserved.values())}, {elapsed:.0f}s")


@pytest.mark.year
class TestYearProperties:
    """Fixture-level properties of the bundled year beyond the criteria."""

    CUTS = (("QLD",), ("QLD", "NSW"), ("QLD", "NSW", "SH"), ("NSW",), ("VIC",),
            ("SA",), ("VIC", "SA"), ("SH", "VIC", "SA"), ("QLD", "NSW", "VIC", "SA", "SH"))

    def test_gt_runs_only_under_a_saturated_cut(self, year_suite):
        """Peaks are met with GTs: whenever a GT runs in the unmodified
        fleet, some contiguous region group's demand exceeds its committed
        non-GT capacity plus the import capacity of its boundary."""
        reports, _, _ = year_suite
        rep = reports[1]
        cfg = scenario_from_config(config_path(1))
        gt_names = {g.name for g in cfg.fleet if g.gtype == "gt"}
        no_renewables = {g.name: 0.0 for g in cfg.fleet if g.is_renewable}  # re-committed at 0 MW

        def import_bound(cut):
            bound = 0.0
            for line in cfg.interconnectors:
                into = line.to_region in cut and line.from_region not in cut
                outof = line.from_region in cut and line.to_region not in cut
                if into:
                    bound += line.forward_limit_mw
                if outof:
                    bound += -line.reverse_limit_mw
            return bound

        for hd in rep.dispatch.hours:
            gt_out = sum(hd.output_mw.get(n, 0.0) for n in gt_names)
            if gt_out <= 1e-6:
                continue
            demand = {r: float(rep.nett_demand[r].values[hd.hour]) for r in rep.nett_demand}
            commitment, _ = commit(cfg.fleet, demand, no_renewables, cfg.interconnectors, hd.hour)
            saturated = False
            for cut in self.CUTS:
                cut_demand = sum(demand[r] for r in cut)
                cut_non_gt = sum(u.capacity_mw for u in commitment
                                 if u.region in cut and u.gtype != "gt")
                if cut_demand > cut_non_gt + import_bound(cut) - 1e-6:
                    saturated = True
                    break
            assert saturated, f"hour {hd.hour}: GT ran with no saturated cut"

    def test_base_commitments_match_the_hour_by_hour_reference(self, year_suite, data_dir):
        """Every hour of each scenario's pass-0 and nett horizons: the base
        commitment of ``base_commitments`` is the reference's tuple, unit for
        unit and in order."""
        from gridstudy.harness import _load_data
        reports, _, _ = year_suite
        for scenario, rep in reports.items():
            cfg = scenario_from_config(config_path(scenario))
            availability = {name: ts.values for name, ts in
                            _load_data(cfg, data_dir, None, {}).availabilities.items()}
            zero = np.zeros(len(rep.dispatch.hours))
            pass0 = {**{r: ts.values for r, ts in rep.conventional_demand.items()},
                     **{r: zero for r in cfg.transit_regions}}
            nett = {r: ts.values for r, ts in rep.nett_demand.items()}
            as_lists = {name: a.tolist() for name, a in availability.items()}
            for demand in (pass0, nett):
                got = base_commitments(cfg.fleet, demand, availability, cfg.interconnectors)
                rows = zip(*(mw.tolist() for mw in demand.values()))
                for h, (base, row) in enumerate(zip(got, rows, strict=True)):
                    want = reference_base_commitment(
                        cfg.fleet, dict(zip(demand, row)),
                        {name: a[h] for name, a in as_lists.items()}, cfg.interconnectors)
                    assert len(base) == len(want), (scenario, h)
                    assert all(u is g for u, g in zip(base, want)), (scenario, h)

    def test_gt_energy_present_in_unmodified_fleet(self, year_suite):
        reports, _, _ = year_suite
        assert reports[1].gt_energy_twh > 0.0

    def test_year_nett_demand_matches_independent_resolve(self, year_suite, data_dir):
        """Spot-check: the aggregated series equals fresh per-day solutions."""
        reports, _, _ = year_suite
        rep = reports[4]
        cfg = scenario_from_config(config_path(4))
        region = "QLD"
        assert all(len(ts) == 8760 for ts in rep.nett_demand.values())
        spec = cfg.batteries[region]
        params = default_params(
            spec.soc_min_mwh, spec.soc_max_mwh,
            peak_load_mw=float(np.max(rep.conventional_demand[region].values)),
            pv_capacity_mw=cfg.pv_capacity_mw[region],
            charge_rate_mw=spec.charge_rate_mw, discharge_rate_mw=spec.discharge_rate_mw)
        for d in (0, 100, 250, 364):
            day = DayInputs(rep.prices[region].day(d), rep.conventional_demand[region].day(d),
                            rep.pv_power[region].day(d))
            fresh = solve_day(params, day)
            got = rep.nett_demand[region].values[d * 24:(d + 1) * 24]
            assert np.allclose(got, fresh.grid_mw, atol=1e-5)

    def test_marginal_prices_coherent_on_year_sample(self, year_suite):
        """Each price is the SRMC of a unit of the scenario's dispatched fleet or a penalty."""
        reports, _, _ = year_suite
        for scenario in (1, 4):
            cfg = scenario_from_config(config_path(scenario))
            srmcs = {g.srmc for g in cfg.fleet} | {0.0, VALUE_OF_LOST_LOAD, -DUMP_PENALTY}
            for hd in reports[scenario].dispatch.hours[::97]:
                for region, price in hd.price.items():
                    assert min(abs(price - s) for s in srmcs) < 1e-6, (scenario, hd.hour, price)

    def test_demand_region_prices_match_highs(self, year_suite, data_dir, monkeypatch):
        """Every 37th hour of each scenario's dispatch is dispatched again with
        every LP recorded, repair trials included.  Each LP's demand-region
        prices equal the equality-row marginals of
        ``linprog(method="highs")`` within 1e-6, and the hour's prices equal
        the ones the run emitted.  The transit region SH is left out: it has
        no demand, and when its lines and its hydro unit all sit at their
        limits its balance dual is any value in an interval, so two correct
        solvers may return different vertices of it."""
        optimize = pytest.importorskip("scipy.optimize")
        from gridstudy import dispatch
        from gridstudy.harness import _load_data
        from gridstudy.lp import INFINITE_BOUND, solve_lp

        solved = []

        def recording(lp, basis_hint=None):
            solved.append((lp, solve_lp(lp, basis_hint)))
            return solved[-1][1]

        monkeypatch.setattr(dispatch, "solve_lp", recording)
        reports, _, _ = year_suite
        hours = trials = 0
        for scenario, rep in reports.items():
            cfg = scenario_from_config(config_path(scenario))
            availabilities = _load_data(cfg, data_dir, None, {}).availabilities
            hints = {}
            for hour in range(0, len(rep.dispatch.hours), 37):
                demand = {r: float(ts.values[hour]) for r, ts in rep.nett_demand.items()}
                avail = {name: float(ts.values[hour]) for name, ts in availabilities.items()}
                solved.clear()
                _, hd = commit(cfg.fleet, demand, avail, cfg.interconnectors, hour, hints)
                hours += 1
                trials += len(solved) - 1
                for lp, sol in solved:
                    ref = optimize.linprog(
                        lp.cost, A_eq=lp.a_eq, b_eq=lp.b_eq, method="highs",
                        bounds=[(lo, None if hi >= INFINITE_BOUND else hi)
                                for lo, hi in zip(lp.lower, lp.upper)])
                    assert ref.status == 0, (scenario, hour, ref.message)
                    for i, region in enumerate(demand):
                        if region in cfg.demand_regions:
                            assert abs(sol.duals_eq[i] - ref.eqlin.marginals[i]) <= 1e-6, (
                                scenario, hour, region, sol.duals_eq[i], ref.eqlin.marginals[i])
                for region in cfg.demand_regions:
                    assert abs(hd.price[region] - rep.dispatch.hours[hour].price[region]) <= 1e-6, (
                        scenario, hour, region)
        assert hours == 5 * 237 and trials > 0, (hours, trials)

    def test_commitment_is_never_cheaper_than_the_milp(self, year_suite, data_dir):
        """Every 47th hour of each scenario's dispatched horizon (pass 0 for s1
        and s2, the nett dispatch for s3-s5) is committed again by
        ``scipy.optimize.milp``, a binary per dispatchable.  The MILP's optimum
        is at most the run's objective, 1e-6 relative; the hours where the
        priority list costs more, or dumps more, are counted and printed."""
        pytest.importorskip("scipy.optimize")
        from gridstudy.harness import _load_data
        reports, _, _ = year_suite
        for scenario, rep in reports.items():
            cfg = scenario_from_config(config_path(scenario))
            availabilities = _load_data(cfg, data_dir, None, {}).availabilities
            cost_gaps, dump_gaps = [], []
            for hd in rep.dispatch.hours[::47]:
                demand = {r: float(ts.values[hd.hour]) for r, ts in rep.nett_demand.items()}
                avail = {name: float(ts.values[hd.hour]) for name, ts in availabilities.items()}
                objective, dumped = milp_commitment(cfg.fleet, cfg.interconnectors, demand, avail)
                assert objective <= hd.objective + 1e-6 * abs(hd.objective), (
                    scenario, hd.hour, objective, hd.objective)
                cost_gaps.append((hd.objective - objective) / abs(hd.objective))
                dump_gaps.append(sum(hd.dumped_mw.values()) - dumped)
            for name, gaps in (("cost", cost_gaps), ("dump MW", dump_gaps)):
                above = [g for g in gaps if g > 1e-6]
                print(f"s{scenario} {name} gap: {len(above)} of {len(gaps)} hours"
                      + (f", median {np.median(above):.4g}, max {max(above):.4g}" if above else ""))

    def test_loadability_bracket_on_year_hours(self, year_suite, data_dir):
        """Re-solve with the plain solver: converges at the hour's factor,
        fails one step above."""
        from gridstudy.harness import _load_data, _operating_points
        reports, _, _ = year_suite
        rep = reports[1]
        cfg = scenario_from_config(config_path(1))
        data = _load_data(cfg, data_dir, None, {})
        points = _operating_points(data, rep.nett_demand, rep.dispatch)
        res = rep.loadability
        rng = np.random.default_rng(77)
        for hour in rng.choice(len(res), size=4, replace=False):
            hour = int(hour)
            if res.degenerate[hour]:
                continue
            at, above = verify_bracket(data.network, cfg.loadability.region,
                                       cfg.loadability.participation,
                                       tuple(a[hour] for a in points),
                                       float(res.lambda_star[hour]), cfg.loadability.step)
            assert at and not above, f"hour {hour}"

    def test_sweep_matches_the_flat_scan_on_year_hours(self, year_suite, data_dir):
        """Every 8th hour of each scenario's year, swept by the flat one-step-per-
        batch scan, has the lambda*, loads and minimum voltage of the run's
        sweep, bit for bit."""
        from gridstudy.harness import _load_data, _operating_points
        reports, _, _ = year_suite
        for scenario, rep in reports.items():
            cfg = scenario_from_config(config_path(scenario))
            data = _load_data(cfg, data_dir, None, {})
            points = _operating_points(data, rep.nett_demand, rep.dispatch)
            opts = cfg.loadability
            want = reference_sweep(data.network, opts.region, opts.participation, opts.step,
                                   tuple(a[::8] for a in points), opts.lambda_max)
            for name, ref in zip(RESULT_ARRAYS, want):
                got = getattr(rep.loadability, name)[::8]
                assert got.tobytes() == ref.tobytes(), (scenario, name)

    def test_flat_start_fails_at_every_hours_lowest_failing_step(self, year_suite, data_dir):
        """Every hour of each scenario's year whose lowest failing grid step
        lies under lambda_max (so not capped) fails there from a flat start
        too, as it failed in the flat scan.  The sweep found that step from a
        start at a converged step's voltages."""
        from gridstudy.harness import _load_data, _operating_points
        reports, _, _ = year_suite
        for scenario, rep in reports.items():
            cfg = scenario_from_config(config_path(scenario))
            data = _load_data(cfg, data_dir, None, {})
            points = _operating_points(data, rep.nett_demand, rep.dispatch)
            opts = cfg.loadability
            lam_star = rep.loadability.lambda_star
            defined = np.flatnonzero(np.isfinite(lam_star))
            hi = np.rint((lam_star[defined] - 1.0) / opts.step).astype(np.int64) + 1
            assert np.array_equal(1.0 + (hi - 1) * opts.step, lam_star[defined]), scenario
            lam_hi = 1.0 + hi * opts.step
            uncapped = lam_hi <= opts.lambda_max
            rows = defined[uncapped]
            converged = flat_start_converges(data.network, opts.region, opts.participation,
                                             tuple(a[rows] for a in points), lam_hi[uncapped])
            assert rows.size > 8000 and not converged.any(), (scenario, rows[converged][:10])

    def test_single_solve_reproduces_sweep_voltages(self, year_suite, data_dir):
        """The plain solver at an hour's factor returns the very minimum voltage
        the sweep reported for that hour, bit for bit."""
        from gridstudy.harness import _load_data, _operating_points
        reports, _, _ = year_suite
        rep = reports[5]
        cfg = scenario_from_config(config_path(5))
        data = _load_data(cfg, data_dir, None, {})
        points = _operating_points(data, rep.nett_demand, rep.dispatch)
        res = rep.loadability
        hours = np.random.default_rng(78).choice(np.flatnonzero(~res.degenerate), size=48,
                                                 replace=False)
        for hour in hours.tolist():
            sol = solve_power_flow(*stressed_network(
                data.network, cfg.loadability.region, cfg.loadability.participation,
                tuple(a[hour] for a in points), float(res.lambda_star[hour])))
            assert sol.min_voltage_pu == res.min_voltage_pu[hour], f"hour {hour}"

    def test_conservation_across_scenarios(self, year_suite):
        reports, _, _ = year_suite
        for rep in reports.values():
            generated = sum(sum(hd.output_mw.values()) for hd in rep.dispatch.hours)
            unserved = rep.unserved_energy_twh * 1e6
            dumped = rep.spilled_energy_twh * 1e6
            demand = sum(ts.values.sum() for ts in rep.nett_demand.values())
            assert generated + unserved == pytest.approx(demand + dumped, rel=1e-6)


@pytest.mark.year
def test_criterion_9_determinism(data_dir, tmp_path):
    """Two runs that compute everything, and a third that reuses the second's
    series reads and pass-0 dispatch, write the same bytes."""
    from gridstudy import harness
    cfg = scenario_from_config(config_path(4))
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out in outs[:2]:
        harness._LAST_RUN.clear()  # empty, as in a new process
        run_scenario(cfg, data_dir, out_dir=out, days=10)
    run_scenario(cfg, data_dir, out_dir=outs[2], days=10)
    names = sorted(p.name for p in outs[0].iterdir())
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
    diffs = [f"{out.name}/{name}" for out in outs[1:] for name in names
             if (outs[0] / name).read_bytes() != (out / name).read_bytes()]
    report(9, not diffs, f"{len(names)} files compared, 3 runs" + (f", diffs: {diffs}" if diffs else ""))
