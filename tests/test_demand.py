"""Daily scheduling LP against exhaustive discretized-search oracles."""

import itertools
from dataclasses import fields
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstudy.demand import (
    DayInputs,
    DemandModelError,
    DemandParams,
    DemandSchedule,
    aggregate_nett_demand,
    build_lp,
    conventional_baseline,
    default_params,
    schedule_violations,
    solve_day,
    solve_days,
)
from gridstudy.lp import solve_lp
from tests.oracles import inequality_day_lp, no_action_error

H = 24


def padded_day(price, load, pv):
    """Embed a short instance in the fixed 24-hour window.

    Padding hours carry zero price, load and PV, so they cannot change the
    optimal cost of the embedded instance.
    """
    def pad(x):
        out = np.zeros(H)
        out[:len(x)] = x
        return out
    return DayInputs(pad(price), pad(load), pad(pv))


def discretized_min_cost(params, price, load, pv, levels=21):
    """Oracle: cheapest schedule with battery power on an even lattice.

    Equivalent to brute force over the full level grid: the stage cost
    depends only on the hour's level and feasibility only on the running
    lattice sum, so a (hour, sum) sweep explores every combination.
    """
    h = len(price)
    lo, hi = params.discharge_rate_mw, params.charge_rate_mw
    step = (hi - lo) / (levels - 1)
    window = params.soc_max_mwh - params.soc_min_mwh
    eta = params.efficiency
    states = {0: 0.0}  # lattice-sum index -> best cost so far
    for t in range(h):
        resid = load[t] - pv[t]
        stage = {}
        for k in range(levels):
            b = lo + k * step
            grid = resid + eta * b
            if grid > params.grid_import_limit_mw + 1e-9:
                continue
            if grid < params.grid_export_limit_mw - 1e-9:
                continue
            stage[k] = price[t] * grid
        nxt = {}
        for ksum, cost in states.items():
            for k, stage_cost in stage.items():
                ks = ksum + k
                soc_delta = (t + 1) * lo + ks * step
                if soc_delta < -1e-9 or soc_delta > window + 1e-9:
                    continue
                total = cost + stage_cost
                if ks not in nxt or total < nxt[ks]:
                    nxt[ks] = total
        states = nxt
        if not states:
            return np.inf
    return min(states.values())


def brute_force_min_cost(params, price, load, pv, levels=21):
    """Direct product enumeration; only sane for two or three hours."""
    h = len(price)
    lo, hi = params.discharge_rate_mw, params.charge_rate_mw
    grid_levels = np.linspace(lo, hi, levels)
    eta = params.efficiency
    best = np.inf
    for combo in itertools.product(grid_levels, repeat=h):
        soc = params.soc_min_mwh + np.cumsum(combo)
        if np.any(soc < params.soc_min_mwh - 1e-9) or np.any(soc > params.soc_max_mwh + 1e-9):
            continue
        grid = np.asarray(load) - np.asarray(pv) + eta * np.asarray(combo)
        if np.any(grid > params.grid_import_limit_mw + 1e-9):
            continue
        if np.any(grid < params.grid_export_limit_mw - 1e-9):
            continue
        best = min(best, float(np.asarray(price) @ grid))
    return best


def random_instance(rng, horizon):
    price = rng.uniform(1, 60, horizon)
    load = rng.uniform(0, 40, horizon)
    pv = rng.uniform(0, 15, horizon)
    rate = float(rng.uniform(1, 8))
    window = float(rng.uniform(2, 20))
    soc_min = float(rng.uniform(0, 5))
    params = DemandParams(
        grid_import_limit_mw=float(load.max() - pv.min() + rate + rng.uniform(1, 10)),
        grid_export_limit_mw=float(-(pv.max() + rate + rng.uniform(1, 10))),
        charge_rate_mw=rate,
        discharge_rate_mw=-rate,
        soc_min_mwh=soc_min,
        soc_max_mwh=soc_min + window,
        efficiency=float(rng.uniform(0.7, 1.0)),
    )
    return params, price, load, pv


class TestBuildLp:
    def test_structure_counts(self):
        params = DemandParams(100, -50, 5, -5, 0, 10)
        day = DayInputs(np.full(H, 10.0), np.full(H, 20.0), np.zeros(H))
        lp, base = build_lp(params, day)
        assert lp.n_vars == 2 * H  # battery power, then stored energy
        assert lp.a_eq.shape == (H, 2 * H) and lp.b_eq.shape == (H,)  # one SOC recursion row per hour
        assert [f.name for f in fields(lp)] == ["cost", "lower", "upper", "a_eq", "b_eq"]

    def test_flat_price_unit_efficiency_coefficients(self):
        params = DemandParams(100, -50, 5, -5, 0, 10, efficiency=1.0)
        day = DayInputs(np.full(H, 10.0), np.full(H, 20.0), np.zeros(H))
        lp, _ = build_lp(params, day)
        assert np.all(lp.cost[:H] == 10.0) and np.all(lp.cost[H:] == 0.0)

    def test_feasible_point_objective_matches_reevaluation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            params, price, load, pv = random_instance(rng, H)
            day = DayInputs(price, load, pv)
            lp, base = build_lp(params, day)
            battery = rng.uniform(params.discharge_rate_mw / 4, params.charge_rate_mw / 4, H)
            lp_obj = float(lp.cost @ np.concatenate([battery, np.cumsum(battery)])) + base
            grid = load + params.efficiency * battery - pv
            direct = float(price @ grid)
            assert lp_obj == pytest.approx(direct, abs=1e-9 * max(1, abs(direct)))


class TestSolveDay:
    def test_flat_price_no_pv_null_action(self):
        params = DemandParams(100, -50, 5, -5, 2, 12, efficiency=0.9)
        day = DayInputs(np.full(H, 10.0), np.full(H, 20.0), np.zeros(H))
        sched = solve_day(params, day)
        assert sched.cost == pytest.approx(10.0 * 20.0 * H, abs=1e-9)
        assert schedule_violations(sched, params, day) == []

    def test_non_finite_schedule_is_reported(self):
        """NaN passes every bound and residual comparison, so it is named on its own."""
        params = DemandParams(100, -50, 5, -5, 2, 12, efficiency=0.9)
        day = DayInputs(np.full(H, 10.0), np.full(H, 20.0), np.zeros(H))
        nan = np.full(H, np.nan)
        sched = DemandSchedule(nan, nan, np.concatenate([[2.0], nan]), cost=0.0)
        problems = schedule_violations(sched, params, day)
        assert len(problems) == 3 * H
        for key in ("grid_mw", "battery_mw", "soc_mwh"):
            assert sum(line.startswith(f"{key}[") for line in problems) == H
        assert "soc_mwh[1] = nan is not finite" in problems

    def test_two_hour_example_brute_forced(self):
        """Cheap hour then dear hour: fill the battery, then empty it."""
        params = DemandParams(100, -100, 4, -4, 0, 4, efficiency=1.0)
        price = [1.0, 10.0]
        load = [5.0, 5.0]
        day = padded_day(price, load, [0, 0])
        sched = solve_day(params, day)
        embedded_cost = float(np.array(day.price) @ sched.grid_mw)
        assert sched.battery_mw[0] == pytest.approx(4.0, abs=1e-9)
        assert sched.battery_mw[1] == pytest.approx(-4.0, abs=1e-9)
        assert sched.grid_mw[0] == pytest.approx(9.0, abs=1e-9)
        assert sched.grid_mw[1] == pytest.approx(1.0, abs=1e-9)
        assert embedded_cost == pytest.approx(19.0, abs=1e-9)
        # brute force at 0.1 MW resolution confirms the optimum
        oracle = brute_force_min_cost(params, price, load, [0, 0], levels=81)
        assert oracle == pytest.approx(19.0, abs=1e-9)

    def test_infeasible_reports_first_bad_hour(self):
        params = DemandParams(10, -10, 1, -1, 0, 2)
        load = np.full(H, 5.0)
        load[7] = 50.0
        day = DayInputs(np.full(H, 10.0), load, np.zeros(H))
        with pytest.raises(DemandModelError, match="hour 7"):
            solve_day(params, day)

    def test_oracle_equivalence_short_horizons(self):
        """solve_day never loses to the exhaustive discretized search."""
        rng = np.random.default_rng(17)
        for trial in range(40):
            horizon = int(rng.integers(2, 7))
            params, price, load, pv = random_instance(rng, horizon)
            day = padded_day(price, load, pv)
            sched = solve_day(params, day)
            assert schedule_violations(sched, params, day, tol=1e-6) == []
            oracle = discretized_min_cost(params, price, load, pv)
            assert sched.cost <= oracle + 1e-6, f"trial {trial}"

    def test_dp_oracle_agrees_with_product_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            horizon = int(rng.integers(2, 4))
            params, price, load, pv = random_instance(rng, horizon)
            dp = discretized_min_cost(params, price, load, pv, levels=9)
            brute = brute_force_min_cost(params, price, load, pv, levels=9)
            assert dp == pytest.approx(brute, abs=1e-9)

    def test_monotone_in_resource_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            params, price, load, pv = random_instance(rng, H)
            day = DayInputs(price, load, pv)
            base = solve_day(params, day)
            wider = DemandParams(
                params.grid_import_limit_mw + float(rng.uniform(0, 20)),
                params.grid_export_limit_mw - float(rng.uniform(0, 20)),
                params.charge_rate_mw + float(rng.uniform(0, 4)),
                params.discharge_rate_mw - float(rng.uniform(0, 4)),
                params.soc_min_mwh,
                params.soc_max_mwh + float(rng.uniform(0, 10)),
                params.efficiency,
            )
            relaxed = solve_day(wider, day)
            assert relaxed.cost <= base.cost + 1e-6

    def test_balance_and_soc_identities_hold(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            params, price, load, pv = random_instance(rng, H)
            day = DayInputs(price, load, pv)
            sched = solve_day(params, day)
            assert sched.soc_mwh[0] == params.soc_min_mwh
            recur = sched.soc_mwh[:-1] + sched.battery_mw - sched.soc_mwh[1:]
            assert np.max(np.abs(recur)) < 1e-9
            balance = day.load_mw + params.efficiency * sched.battery_mw - day.pv_mw - sched.grid_mw
            assert np.max(np.abs(balance)) < 1e-9

    def test_price_shift_two_level_price(self):
        """Cheap block then dear block: battery moves imports to the cheap block."""
        params = DemandParams(200, -200, 10, -10, 0, 40, efficiency=0.9)
        price = np.concatenate([np.full(12, 5.0), np.full(12, 50.0)])
        load = np.full(H, 30.0)
        day = DayInputs(price, load, np.zeros(H))
        sched = solve_day(params, day)
        base = conventional_baseline(day)
        dear = slice(12, 24)
        assert sched.grid_mw[dear].sum() < base.grid_mw[dear].sum()
        assert sched.cost < base.cost


def random_demand_day(rng):
    """``DemandParams`` and a day whose grid power without the battery stays in
    the grid window, with limits close enough to it that the grid window often
    binds before the rate window; prices may be negative."""
    eta = float(rng.choice([1.0, 0.9, rng.uniform(0.5, 1.0)]))
    charge, discharge = float(rng.uniform(0.5, 10)), -float(rng.uniform(0.5, 10))
    soc_min = float(rng.uniform(0, 5))
    price = rng.uniform(-5, 100, H)
    load = rng.uniform(0, 50, H)
    pv = rng.uniform(0, 30, H) * (rng.random(H) < 0.6)
    resid = load - pv
    params = DemandParams(
        grid_import_limit_mw=float(max(resid.max(), 0.0) + rng.uniform(0, 1.5 * eta * charge)),
        grid_export_limit_mw=float(min(resid.min(), 0.0) - rng.uniform(0, -1.5 * eta * discharge)),
        charge_rate_mw=charge, discharge_rate_mw=discharge,
        soc_min_mwh=soc_min, soc_max_mwh=soc_min + float(rng.uniform(0.5, 30)), efficiency=eta)
    return params, DayInputs(price, load, pv)


class TestInequalityFormOracle:
    """The day LP over battery power and stored energy against HiGHS on the
    form it replaced: battery power alone under 98 inequality rows."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cost_matches_highs(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        params, day = random_demand_day(np.random.default_rng(seed))
        cost, a_ub, b_ub, bounds, base = inequality_day_lp(params, day)
        ref = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert ref.status == 0, ref.message
        sched = solve_day(params, day)
        assert schedule_violations(sched, params, day, tol=1e-6) == []
        scale = float(np.abs(day.price) @ (day.load_mw + day.pv_mw + params.charge_rate_mw))
        assert sched.cost == pytest.approx(base + ref.fun, rel=1e-9, abs=1e-9 * scale)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["import", "export", "storage"]),
           hour=st.integers(0, H - 1))
    def test_day_without_a_schedule_raises_the_no_action_error(self, seed, kind, hour):
        """Bounds that cross at the import side or at the export side, and a
        storage window that cannot give what an hour must discharge, raise the
        error that names the hour, on a first day and on a later one."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        params, good = random_demand_day(rng)
        p, eta = params, params.efficiency
        load, pv = good.load_mw.copy(), good.pv_mw.copy()
        if kind == "import":  # full discharge still leaves grid power above the import limit
            load[hour] = pv[hour] + p.grid_import_limit_mw - eta * p.discharge_rate_mw + rng.uniform(0.01, 5)
        elif kind == "export":  # full charge still leaves it below the export limit
            pv[hour] = load[hour] - p.grid_export_limit_mw + eta * p.charge_rate_mw + rng.uniform(0.01, 5)
        else:  # no earlier hour may charge, and this one must discharge
            load[:hour] = pv[:hour] + p.grid_import_limit_mw
            load[hour] = pv[hour] + p.grid_import_limit_mw - eta * p.discharge_rate_mw * rng.uniform(0.1, 0.9)
        bad = DayInputs(good.price, load, pv)
        cost, a_ub, b_ub, bounds, _ = inequality_day_lp(params, bad)
        assert optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs").status == 2
        message = no_action_error(params, bad)
        assert message.endswith(f"at hour {hour}")
        for days in ([bad], [good, bad]):
            with pytest.raises(DemandModelError) as err:
                solve_days(params, days)
            assert str(err.value) == message


class TestAggregateMarketDay:
    def test_medium_uptake_whole_market_day(self, data_dir):
        """Whole-market storage window 2.5-25 GWh with 7.5 GW of PV on one
        bundled day: the schedule is clean and never beats doing nothing."""
        from gridstudy.timeseries import HOURS_PER_YEAR, load_timeseries_csv
        regions = ("QLD", "NSW", "VIC", "SA")
        demand = sum(load_timeseries_csv(data_dir / f"demand_{r}.csv", HOURS_PER_YEAR).values
                     for r in regions)
        pv_avail = sum(load_timeseries_csv(data_dir / f"pv_{r}.csv", HOURS_PER_YEAR).values
                       for r in regions) / len(regions)
        price = load_timeseries_csv(data_dir / "historical_price_NSW.csv", HOURS_PER_YEAR).values
        d = 40
        sel = slice(d * 24, (d + 1) * 24)
        day = DayInputs(price[sel], demand[sel], 7500.0 * pv_avail[sel])
        params = default_params(2500.0, 25000.0, peak_load_mw=float(demand.max()),
                                pv_capacity_mw=7500.0)
        sched = solve_day(params, day)
        assert schedule_violations(sched, params, day, tol=1e-6) == []
        no_battery_cost = float(day.price @ (day.load_mw - day.pv_mw))
        assert sched.cost <= no_battery_cost + 1e-6


class TestBaseline:
    def test_battery_never_moves(self):
        day = DayInputs(np.full(H, 10.0), np.full(H, 4.0), np.full(H, 1.0))
        base = conventional_baseline(day)
        assert np.all(base.battery_mw == 0.0)
        assert np.array_equal(base.grid_mw, day.load_mw)  # PV ignored

    def test_flat_price_cost_identity(self):
        load = np.zeros(H)
        load[:10] = 10.0
        day = DayInputs(np.full(H, 10.0), load, np.zeros(H))
        assert conventional_baseline(day).cost == pytest.approx(1000.0)

    def test_optimal_cost_never_exceeds_baseline_without_pv(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params, price, load, _ = random_instance(rng, H)
            day = DayInputs(price, load, np.zeros(H))
            assert solve_day(params, day).cost <= conventional_baseline(day).cost + 1e-6


class TestAggregate:
    def make_schedule(self, value):
        return DemandSchedule(np.full(H, value), np.zeros(H), np.zeros(H + 1), 0.0)

    def test_single_day_identity(self):
        out = aggregate_nett_demand({"QLD": [self.make_schedule(7.0)]}, datetime(2021, 1, 1))
        assert np.all(out["QLD"].values == 7.0)
        assert len(out["QLD"]) == H

    def test_two_days_preserve_order(self):
        out = aggregate_nett_demand(
            {"QLD": [self.make_schedule(1.0), self.make_schedule(2.0)]}, datetime(2021, 1, 1))
        assert len(out["QLD"]) == 48
        assert out["QLD"].values[0] == 1.0 and out["QLD"].values[47] == 2.0

    def test_day_count_mismatch(self):
        with pytest.raises(DemandModelError, match="day-count mismatch"):
            aggregate_nett_demand(
                {"A": [self.make_schedule(1.0)], "B": [self.make_schedule(1.0)] * 2},
                datetime(2021, 1, 1))

    def test_solve_days_matches_independent_resolve(self, monkeypatch):
        """Every day after the first is solved from the previous day's basis."""
        from gridstudy import demand
        rng = np.random.default_rng(43)
        params, price, load, pv = random_instance(rng, H)
        days = []
        for _ in range(6):
            p2 = rng.permutation(price)
            days.append(DayInputs(p2, load, pv))
        starts = []

        def recording(lp, basis_hint=None):
            sol = solve_lp(lp, basis_hint=basis_hint)
            starts.append(sol.start)
            return sol

        monkeypatch.setattr(demand, "solve_lp", recording)
        chained = solve_days(params, days)
        assert starts[0] == "cold" and set(starts[1:]) <= {"hint", "dual"}
        for d in (0, 3, 5):
            fresh = solve_day(params, days[d])
            assert chained[d].cost == pytest.approx(fresh.cost, abs=1e-7)

    def test_warm_started_invalid_schedule_is_rejected(self, monkeypatch):
        """A warm-started day goes through the same schedule checks as a cold one."""
        from dataclasses import replace

        from gridstudy import demand
        rng = np.random.default_rng(44)
        params, price, load, pv = random_instance(rng, H)
        days = [DayInputs(rng.permutation(price), load, pv) for _ in range(3)]

        def overcharging(lp, basis_hint=None):
            sol = solve_lp(lp, basis_hint=basis_hint)
            if basis_hint is None or not sol.is_optimal:
                return sol
            return replace(sol, x=np.full_like(sol.x, 2.0 * params.charge_rate_mw + 1.0))

        monkeypatch.setattr(demand, "solve_lp", overcharging)
        with pytest.raises(DemandModelError, match="invalid schedule"):
            solve_days(params, days)

    def test_non_optimal_warm_start_retries_cold(self, monkeypatch, failing_warm_phase):
        """Every warm phase fails and is solved again cold inside ``solve_lp``; the
        next day starts from the basis that ``solve_lp`` returned."""
        from gridstudy import demand
        rng = np.random.default_rng(45)
        params, price, load, pv = random_instance(rng, H)
        days = [DayInputs(rng.permutation(price), load, pv) for _ in range(4)]
        passed, returned = [], []

        def recording(lp, basis_hint=None):
            sol = solve_lp(lp, basis_hint=basis_hint)
            passed.append(basis_hint)
            returned.append(sol.basis_hint)
            return sol

        monkeypatch.setattr(demand, "solve_lp", recording)
        chained = solve_days(params, days)
        assert passed[0] is None and all(passed[d] is returned[d - 1] for d in (1, 2, 3))
        assert failing_warm_phase == ["hint"] * 3
        for d, day in enumerate(days):
            assert chained[d].cost == pytest.approx(solve_day(params, day).cost, abs=1e-7)

    def test_hint_chain_matches_the_reference_simplex(self, monkeypatch):
        """Every day's LP, built once and re-instanced, comes out of ``solve_lp``
        bit for bit as out of the reference simplex from the same hint: each
        day changes the costs, and every hint is primal feasible as it comes."""
        from gridstudy import demand
        from tests.oracles import PairedSolver

        rng = np.random.default_rng(46)
        paired = PairedSolver(solve_lp)
        monkeypatch.setattr(demand, "solve_lp", paired)
        for _ in range(4):
            params, price, load, pv = random_instance(rng, H)
            solve_days(params, [DayInputs(rng.permutation(price), rng.permutation(load), pv)
                                for _ in range(8)])
        assert paired.differences == []
        assert (paired.calls, paired.hinted) == (32, 28)
        assert paired.starts == {"cold": 4, "hint": 28, "dual": 0}


class TestDefaults:
    def test_default_params_policy(self):
        p = default_params(100.0, 500.0, peak_load_mw=1000.0, pv_capacity_mw=300.0)
        assert p.charge_rate_mw == 200.0 and p.discharge_rate_mw == -200.0
        assert p.grid_import_limit_mw == 1500.0
        assert p.grid_export_limit_mw == -300.0
        assert p.efficiency == 0.9

    def test_invariant_violations_rejected(self):
        with pytest.raises(DemandModelError):
            DemandParams(100, -50, 5, -5, 10, 10)  # min == max
        with pytest.raises(DemandModelError):
            DemandParams(100, -50, -1, -5, 0, 10)  # charge rate negative
        with pytest.raises(DemandModelError):
            DemandParams(100, 50, 5, -5, 0, 10)  # export bound positive
        with pytest.raises(DemandModelError):
            DemandParams(100, -50, 5, -5, 0, 10, efficiency=1.2)
