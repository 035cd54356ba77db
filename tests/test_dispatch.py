"""Commitment heuristic and transport dispatch against enumeration oracles."""

import itertools
import re
import shutil

import numpy as np
import pytest

from gridstudy.dispatch import (
    DUMP_PENALTY,
    VALUE_OF_LOST_LOAD,
    DispatchError,
    Generator,
    Interconnector,
    _merit_order,
    choose_commitment,
    commit_merit_order,
    csp_profile_shift,
    dispatch_hour,
    simulate_horizon,
)
from gridstudy.timeseries import SYNTHETIC_YEAR_START, TimeSeries
from oracles import milp_commitment

BALANCE_TOL = 1e-6


def gen(name, srmc, cap, region="R", min_stable=0.0, gtype="black_coal", zone="Z"):
    return Generator(name, gtype, zone, region, cap, min_stable, srmc)


def balance_residual(hd, demand, lines):
    """Per-region: generation + imports - exports + unserved - dumped - demand."""
    out = {}
    for region, load in demand.items():
        gen_mw = sum(mw for u, mw in hd.output_mw.items() if u.startswith(region))
        # unit -> region mapping via name prefix only works in these tests
        flows = 0.0
        for line in lines:
            f = hd.flow_mw[line.name]
            if line.to_region == region:
                flows += f
            if line.from_region == region:
                flows -= f
        out[region] = gen_mw + flows + hd.unserved_mw[region] - hd.dumped_mw[region] - load
    return out


class TestCspShift:
    def make_series(self, days=4):
        pulse = np.zeros(24)
        pulse[10] = 1.0
        return TimeSeries(SYNTHETIC_YEAR_START, np.tile(pulse, days), "csp")

    def test_zero_delay_identity(self):
        ts = self.make_series()
        out = csp_profile_shift(ts, 0)
        assert np.array_equal(out.values, ts.values)

    def test_single_pulse_moves_12_hours(self):
        out = csp_profile_shift(self.make_series(), 12)
        first = out.values[:24]
        assert first[22] == 1.0 and first.sum() == 1.0

    def test_daily_sums_preserved_random_year(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 1, 8760), "x")
        out = csp_profile_shift(ts, 12)
        daily_in = ts.values.reshape(365, 24).sum(axis=1)
        daily_out = out.values.reshape(365, 24).sum(axis=1)
        assert np.max(np.abs(daily_in - daily_out)) < 1e-12

    def test_partial_day_rejected(self):
        ts = TimeSeries(SYNTHETIC_YEAR_START, np.ones(30), "x")
        with pytest.raises(Exception, match="whole number of days"):
            csp_profile_shift(ts, 12)


class TestCommitment:
    def test_single_unit(self):
        fleet = [gen("only", 25.0, 500)]
        units = commit_merit_order(fleet, {"R": 100.0}, {}, _merit_order(fleet))
        assert [u.name for u in units] == ["only"]

    def test_merit_order_skips_expensive_unit(self):
        cheap = gen("YPS_3", 21.88, 800, region="VIC", gtype="brown_coal")
        dear = gen("TPS_4", 73.84, 500, region="QLD", gtype="gt")
        units = commit_merit_order([dear, cheap], {"VIC": 400.0, "QLD": 0.0}, {}, [cheap, dear])
        assert [u.name for u in units] == ["YPS_3"]

    def test_renewables_always_committed(self):
        wind = Generator("w", "wind", "Z", "R", 100, 0, 0.0)
        fleet = [wind, gen("coal", 20, 100)]
        units = commit_merit_order(fleet, {"R": 10.0}, {"w": 0.4}, _merit_order(fleet))
        assert units == (wind,)
        # pinned at its availability, though the 10 MW demand would take less
        assert dispatch_hour(units, {"R": 10.0}, {"w": 0.4}, [], 0, {}).output_mw["w"] == 40.0

    def test_priority_list_stops_at_the_first_unit_covering_demand(self):
        """Minimum stable levels (80 MW together) do not take a unit off the list."""
        a = gen("a", 10.0, 100, min_stable=40)
        b = gen("b", 50.0, 100, min_stable=40)
        units = commit_merit_order([a, b], {"R": 150.0}, {}, [a, b])
        assert [u.name for u in units] == ["a", "b"]
        units2 = commit_merit_order([a, b], {"R": 60.0}, {}, [a, b])
        assert [u.name for u in units2] == ["a"]

    @pytest.mark.parametrize("path", ["regional top-up", "repair"])
    def test_commitment_holds_the_fleets_own_units(self, path):
        """The priority list, the regional top-up and the repair loop each
        commit the fleet's own objects."""
        if path == "regional top-up":
            wind = Generator("w", "wind", "Z", "A", 100, 0, 0.0)
            a, b, c = gen("a", 10.0, 50, "A"), gen("b", 20.0, 300, "B"), gen("c", 30.0, 300, "A")
            fleet, expected = [c, wind, b, a], (wind, a, b, c)
            demand, availability = {"A": 200.0, "B": 100.0}, {"w": 0.5}
            lines = [Interconnector("A-B", "A", "B", 20.0, -20.0)]
        else:
            # The import bound counts both of B's lines, but A can send only 100 MW.
            a1, a2, c1 = gen("a1", 10.0, 150, "A"), gen("a2", 15.0, 100, "A"), gen("c1", 50.0, 200, "C")
            fleet, expected = [c1, a2, a1], (a1, a2, c1)
            demand, availability = {"A": 0.0, "B": 100.0, "C": 100.0}, {}
            lines = [Interconnector("A-B", "A", "B", 100.0, -100.0),
                     Interconnector("B-C", "B", "C", 100.0, -100.0)]
        committed, hd = choose_commitment(fleet, demand, availability, lines, 0, {}, _merit_order(fleet))
        assert len(committed) == len(expected)
        assert all(u is g for u, g in zip(committed, expected))
        assert not hd.unserved_hour


class TestDispatchHour:
    def test_capacity_deficit_flags_unserved(self):
        fleet = [gen("only", 25.0, 100)]
        units = commit_merit_order(fleet, {"R": 150.0}, {}, _merit_order(fleet))
        hd = dispatch_hour(units, {"R": 150.0}, {}, [], 0, {})
        assert hd.unserved_mw["R"] == pytest.approx(50.0, abs=1e-9)
        assert hd.unserved_hour
        assert hd.price["R"] == pytest.approx(VALUE_OF_LOST_LOAD)

    def test_renewable_surplus_flags_dumped(self):
        wind = Generator("w", "wind", "Z", "R", 100, 0, 0.0)
        fleet = [wind, gen("coal", 25.0, 100)]
        units = commit_merit_order(fleet, {"R": 30.0}, {"w": 0.9}, _merit_order(fleet))
        hd = dispatch_hour(units, {"R": 30.0}, {"w": 0.9}, [], 0, {})
        assert hd.dumped_mw["R"] == pytest.approx(60.0, abs=1e-9)
        assert hd.dumped_hour
        assert hd.price["R"] == pytest.approx(-DUMP_PENALTY)

    def test_hand_solved_two_region_transport(self):
        """Cheap region exports at the line limit; prices split 20/70."""
        cheap = gen("cheap", 20.0, 1000, region="A")
        dear = gen("dear", 70.0, 1000, region="B", gtype="gt")
        line = Interconnector("A-B", "A", "B", 100.0, -100.0)
        hd = dispatch_hour((cheap, dear), {"A": 50.0, "B": 200.0}, {}, [line], 0, {})
        assert hd.output_mw["cheap"] == 150.0
        assert hd.output_mw["dear"] == 100.0
        assert hd.flow_mw["A-B"] == 100.0
        assert hd.price["A"] == 20.0
        assert hd.price["B"] == 70.0

    def test_unknown_region_rejected(self):
        with pytest.raises(DispatchError, match="no demand entry"):
            dispatch_hour((gen("g", 10, 10, region="X"),), {"R": 5.0}, {}, [], 0, {})

    @pytest.mark.parametrize("demand_b,start", [(190.0, "hint"), (40.0, "dual")])
    def test_failed_warm_start_is_solved_cold(self, failing_warm_phase, demand_b, start):
        """A cached basis whose warm phase fails costs pivots, not the hour.  At
        B = 40 MW the cached import of 100 MW would drive "dear" negative, so
        the warm phase starts with the dual simplex."""
        cheap = gen("cheap", 20.0, 1000, region="A")
        dear = gen("dear", 70.0, 1000, region="B", gtype="gt")
        line = Interconnector("A-B", "A", "B", 100.0, -100.0)
        committed = (cheap, dear)
        hints = {}
        dispatch_hour(committed, {"A": 50.0, "B": 200.0}, {}, [line], 0, hints)
        hd = dispatch_hour(committed, {"A": 60.0, "B": demand_b}, {}, [line], 1, hints)
        assert failing_warm_phase == [start]
        assert hd == dispatch_hour(committed, {"A": 60.0, "B": demand_b}, {}, [line], 1, {})


def enumerate_commitments(generators, demand, availability, lines):
    """Oracle: dispatch every dispatchable subset; renewables always on."""
    dispatchables = sorted((g for g in generators if not g.is_renewable),
                           key=lambda g: (g.srmc, g.name))
    renewables = tuple(g for g in generators if g.is_renewable)
    results = []
    for mask in range(1 << len(dispatchables)):
        subset = renewables + tuple(g for i, g in enumerate(dispatchables) if mask >> i & 1)
        hd = dispatch_hour(subset, demand, availability, lines, 0, {})
        clean = not hd.unserved_hour and not hd.dumped_hour
        results.append((clean, hd.objective, subset))
    return results


class TestCommitmentOracle:
    def random_fleet(self, rng):
        fleet = []
        for i in range(4):
            region = "A" if i % 2 == 0 else "B"
            min_stable = float(rng.choice([0.0, 0.3, 0.5])) * 100
            fleet.append(gen(f"{region}u{i}", float(rng.uniform(5, 80)), float(rng.uniform(80, 300)),
                             region=region, min_stable=min_stable))
        return fleet

    def test_feasible_whenever_enumeration_is_and_cost_fraction(self):
        """The repaired priority list never strands servable demand, and hits
        the enumerated least-cost commitment in at least 90% of trials
        (the documented fraction for this seed)."""
        rng = np.random.default_rng(4)
        lines = [Interconnector("A-B", "A", "B", 120.0, -120.0)]
        matches = 0
        trials = 120
        for _ in range(trials):
            fleet = self.random_fleet(rng)
            demand = {"A": float(rng.uniform(0, 350)), "B": float(rng.uniform(0, 350))}
            _, hd = choose_commitment(fleet, demand, {}, lines, 0, {}, _merit_order(fleet))
            ours_clean = not hd.unserved_hour and not hd.dumped_hour
            outcomes = enumerate_commitments(fleet, demand, {}, lines)
            best_clean = [obj for clean, obj, _ in outcomes if clean]
            if best_clean:
                assert ours_clean, f"oracle found a clean commitment, heuristic did not: {demand}"
            best_obj = min(obj for _, obj, _ in outcomes)
            if hd.objective <= best_obj + 1e-6:
                matches += 1
        assert matches / trials >= 0.90

    def test_priority_list_is_the_shortest_covering_merit_prefix(self):
        """The renewables, then the shortest prefix of the merit order whose
        capacity with the renewables' hourly maximum covers total demand, or
        the whole merit order."""
        rng = np.random.default_rng(21)
        for _ in range(500):
            wind = Generator("w", "wind", "Z", "A", float(rng.uniform(0, 300)), 0, 0.0)
            fleet = [*self.random_fleet(rng), wind]
            demand = {"A": float(rng.uniform(0, 600)), "B": float(rng.uniform(0, 600))}
            availability = {"w": float(rng.uniform(0, 1))}
            merit = _merit_order(fleet)
            covered = itertools.accumulate((g.capacity_mw for g in merit),
                                           initial=wind.capacity_mw * availability["w"])
            total = sum(demand.values())
            k = next((k for k, mw in enumerate(covered) if mw >= total), len(merit))
            got = commit_merit_order(fleet, demand, availability, merit)
            assert got == (wind, *merit[:k]), (demand, availability)

    def test_milp_oracle_matches_enumeration(self):
        """The MILP that the year's commitment test trusts finds the enumerated
        least cost."""
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(6)
        lines = [Interconnector("A-B", "A", "B", 120.0, -120.0)]
        for _ in range(60):
            fleet = self.random_fleet(rng)
            demand = {"A": float(rng.uniform(0, 350)), "B": float(rng.uniform(0, 350))}
            best = min(obj for _, obj, _ in enumerate_commitments(fleet, demand, {}, lines))
            objective, _ = milp_commitment(fleet, lines, demand, {})
            assert objective == pytest.approx(best, rel=1e-9, abs=1e-9), demand

    def test_hourly_balance_on_random_hours(self):
        rng = np.random.default_rng(8)
        lines = [Interconnector("A-B", "A", "B", 150.0, -80.0)]
        for _ in range(1000):
            fleet = self.random_fleet(rng)
            demand = {"A": float(rng.uniform(0, 400)), "B": float(rng.uniform(0, 400))}
            _, hd = choose_commitment(fleet, demand, {}, lines, 0, {}, _merit_order(fleet))
            resid = balance_residual(hd, demand, lines)
            assert max(abs(v) for v in resid.values()) < BALANCE_TOL


class TestMeritOrderProperty:
    def test_no_expensive_unit_runs_while_cheaper_has_headroom(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            fleet = [gen(f"u{i}", float(rng.uniform(5, 90)), float(rng.uniform(50, 200)))
                     for i in range(4)]
            demand = {"R": float(rng.uniform(10, 500))}
            _, hd = choose_commitment(fleet, demand, {}, [], 0, {}, _merit_order(fleet))
            by_cost = sorted(fleet, key=lambda g: g.srmc)
            for cheap, dear in itertools.combinations(by_cost, 2):
                cheap_out = hd.output_mw.get(cheap.name)
                dear_out = hd.output_mw.get(dear.name, 0.0)
                if cheap_out is None or dear_out <= 1e-9:
                    continue
                headroom = cheap.capacity_mw - cheap_out
                assert headroom < 1e-6, (
                    f"{dear.name} runs {dear_out} while {cheap.name} has {headroom} headroom")


class TestSimulateHorizon:
    def small_fleet(self):
        return [gen("base", 20.0, 200.0), gen("peak", 70.0, 100.0, gtype="gt")]

    def test_flat_day_single_unit_adequacy(self):
        demand = {"R": TimeSeries(SYNTHETIC_YEAR_START, np.full(24, 150.0), "R")}
        res = simulate_horizon(self.small_fleet(), demand, [], {})
        assert res.spilled_hours_pct == 0.0
        assert res.unserved_hours == 0
        assert sum(hd.output_mw["base"] for hd in res.hours) == pytest.approx(150.0 * 24)
        assert res.gt_energy_twh == 0.0

    def test_horizon_mismatch_rejected(self):
        demand = {"A": TimeSeries(SYNTHETIC_YEAR_START, np.ones(24), "A"),
                  "B": TimeSeries(SYNTHETIC_YEAR_START, np.ones(48), "B")}
        with pytest.raises(DispatchError, match="horizon mismatch"):
            simulate_horizon([gen("g", 10, 10)], demand, [], {})

    def test_missing_availability_rejected(self):
        wind = Generator("w", "wind", "Z", "R", 100, 0, 0.0)
        demand = {"R": TimeSeries(SYNTHETIC_YEAR_START, np.ones(24), "R")}
        with pytest.raises(DispatchError, match="availability"):
            simulate_horizon([wind], demand, [], {})

    @pytest.mark.parametrize("hour,value", [(0, -0.5), (1, 1.7), (2, 1.0000000000000002)])
    def test_availability_outside_unit_interval_rejected(self, hour, value):
        """A farm cannot draw power or exceed its capacity: the first value
        outside [0, 1] is named with its unit and hour."""
        wind = Generator("w", "wind", "Z", "R", 100, 0, 0.0)
        demand = {"R": TimeSeries(SYNTHETIC_YEAR_START, np.full(24, 50.0), "R")}
        values = np.linspace(0.0, 1.0, 24)
        values[hour] = value
        avail = {"w": TimeSeries(SYNTHETIC_YEAR_START, values, "aw")}
        message = f"w availability {value!r} at hour {hour} is outside [0, 1]"
        with pytest.raises(DispatchError, match=f"^{re.escape(message)}$"):
            simulate_horizon(self.small_fleet() + [wind], demand, [], avail)

    def test_totals_rederivable_from_hours(self):
        rng = np.random.default_rng(14)
        demand = {"R": TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(20, 280, 96), "R")}
        wind = Generator("w", "wind", "Z", "R", 120, 0, 0.0)
        avail = {"w": TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 1, 96), "aw")}
        fleet = self.small_fleet() + [wind]
        res = simulate_horizon(fleet, demand, [], avail)
        spilled = sum(sum(hd.dumped_mw.values()) for hd in res.hours) / 1e6
        unserved = sum(sum(hd.unserved_mw.values()) for hd in res.hours) / 1e6
        gt = sum(hd.output_mw.get("peak", 0.0) for hd in res.hours) / 1e6
        assert res.spilled_energy_twh == pytest.approx(spilled, rel=1e-9)
        assert res.unserved_energy_twh == pytest.approx(unserved, rel=1e-9)
        assert res.gt_energy_twh == pytest.approx(gt, rel=1e-9)
        pct = 100.0 * sum(hd.dumped_hour for hd in res.hours) / 96
        assert res.spilled_hours_pct == pytest.approx(pct, rel=1e-12)

    def test_marginal_price_coherence(self):
        rng = np.random.default_rng(15)
        wind = Generator("w", "wind", "Z", "A", 150, 0, 0.0)
        fleet = [gen("a1", 18.0, 150, region="A"), gen("b1", 45.0, 150, region="B",
                 min_stable=30.0), gen("b2", 70.0, 80, region="B", gtype="gt"), wind]
        lines = [Interconnector("A-B", "A", "B", 90.0, -90.0)]
        demand = {"A": TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 250, 120), "A"),
                  "B": TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 250, 120), "B")}
        avail = {"w": TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 1, 120), "aw")}
        res = simulate_horizon(fleet, demand, lines, avail)
        allowed = {18.0, 45.0, 70.0, VALUE_OF_LOST_LOAD, -DUMP_PENALTY, 0.0}
        for hd in res.hours:
            for region, price in hd.price.items():
                assert min(abs(price - a) for a in allowed) < 1e-6, (hd.hour, region, price)

    @staticmethod
    def scenario_pass0(data_dir, scenario, days=2):
        """``simulate_horizon`` on the scenario's pass-0 inputs over ``days`` days."""
        from gridstudy.harness import _load_data
        from gridstudy.scenarioconfig import scenario_from_config
        from tests.conftest import config_path

        cfg = scenario_from_config(config_path(scenario))
        data = _load_data(cfg, data_dir, days, {})
        zero = np.zeros(data.n_hours)
        nett = {**data.demand, **{r: TimeSeries(SYNTHETIC_YEAR_START, zero, r)
                                  for r in cfg.transit_regions}}
        return simulate_horizon(cfg.fleet, nett, cfg.interconnectors, data.availabilities)

    def test_hint_cache_feeds_warm_starts(self, data_dir, monkeypatch):
        """48 hours of scenario 4's pass 0: 48 priority-list solves plus 3 repair
        trials, and 37 of the 51 start from the basis cached for their commitment."""
        from gridstudy import dispatch
        from gridstudy.lp import solve_lp

        hinted = []

        def counting(lp, basis_hint=None):
            hinted.append(basis_hint is not None)
            return solve_lp(lp, basis_hint)

        monkeypatch.setattr(dispatch, "solve_lp", counting)
        res = self.scenario_pass0(data_dir, 4)
        assert len(res.hours) == 48
        assert (len(hinted), sum(hinted)) == (51, 37)

    @pytest.mark.parametrize("scenario", [1, 4])
    def test_hint_chain_matches_the_reference_simplex(self, data_dir, monkeypatch, scenario):
        """Four days of pass 0: every dispatch LP, with the hint and program the
        cache hands it, is solved by ``solve_lp`` and by the reference simplex
        from the same hint.  Cold and accepted-hint solves match it bit for
        bit; dual-restarted ones, a third or more of the hinted solves, match
        its status, objective and prices (``restart_differences``)."""
        from gridstudy import dispatch
        from gridstudy.lp import solve_lp
        from tests.oracles import PairedSolver

        paired = PairedSolver(solve_lp)
        monkeypatch.setattr(dispatch, "solve_lp", paired)
        self.scenario_pass0(data_dir, scenario, days=4)
        assert paired.differences == []
        assert paired.calls >= 96 and paired.hinted >= 40
        assert 3 * paired.starts["dual"] >= paired.hinted


    def test_sampled_fortnight_restarts_hints_with_the_dual_simplex(self, data_dir, tmp_path, monkeypatch):
        """Scenario 5's pass-0 and nett dispatch over 14 days spread across the
        year (every 26th day moved to the front of each series): at least 300
        of its 708 dispatch solves start from a cached basis that the dual
        simplex makes primal feasible, and no solve given a cached basis
        starts cold, as one would if the cache lost track of its program."""
        from gridstudy import dispatch
        from gridstudy.harness import run_scenario
        from gridstudy.scenarioconfig import scenario_from_config
        from tests.conftest import config_path

        days = 14
        first = list(range(0, 365 // days * days, 365 // days))
        order = first + [d for d in range(365) if d not in first]
        sampled = shutil.copytree(data_dir, tmp_path / "data")
        for path in sorted(sampled.glob("*.csv")):
            lines = path.read_text().splitlines()
            if lines[0] == "timestamp,value" and len(lines) == 1 + 365 * 24:
                stamps, values = zip(*(line.split(",", 1) for line in lines[1:]))
                moved = [values[d * 24 + h] for d in order for h in range(24)]
                path.write_text("timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in zip(stamps, moved)))
        starts = []

        def recording(lp, basis_hint=None):
            sol = dispatch_solve(lp, basis_hint)
            starts.append((basis_hint is not None, sol.start))
            return sol

        dispatch_solve = dispatch.solve_lp
        monkeypatch.setattr(dispatch, "solve_lp", recording)
        run_scenario(scenario_from_config(config_path(5)), sampled, days=days, stop_after="dispatch")
        assert len(starts) == 708
        assert [start for _, start in starts].count("dual") >= 300
        assert (True, "cold") not in starts


class TestHintCache:
    """The ``hints`` cache reuses a commitment's program only for the same
    units (name, region, SRMC), region order and lines."""

    def case(self, change=None):
        g1 = gen("g1", 20.0, 100, region="A")
        g2 = gen("g2", 10.0 if change == "unit srmc" else 50.0, 100,
                 region="A" if change == "unit region" else "B")
        line = Interconnector("A-B", "A", "B", 60.0 if change == "line limit" else 30.0, -30.0)
        demand = {"B": 80.0, "A": 40.0} if change == "region order" else {"A": 40.0, "B": 80.0}
        return (g1, g2), demand, {}, [line]

    @pytest.mark.parametrize("change", ["region order", "line limit", "unit region", "unit srmc"])
    def test_same_names_other_program_is_solved_as_new(self, change):
        hints = {}
        dispatch_hour(*self.case(), 0, hints)
        got = dispatch_hour(*self.case(change), 1, hints)
        assert got == dispatch_hour(*self.case(change), 1, {})

    def test_repeated_commitment_reuses_its_program(self):
        committed, demand, availability, lines = self.case()
        hints = {}
        dispatch_hour(committed, demand, availability, lines, 0, hints)
        (first, _), = hints.values()
        dispatch_hour(committed, {"A": 45.0, "B": 70.0}, availability, lines, 1, hints)
        (again, hint), = hints.values()
        assert again.a_eq is first.a_eq and again.cost is first.cost
        assert again.b_eq.tolist() == [45.0, 70.0] and hint is not None

    def test_cached_commitment_takes_this_hours_availability(self):
        """A cached program gets this hour's renewable window put in, as a new one does."""
        committed, demand, _, lines = self.case()
        committed = (Generator("w", "wind", "Z", "A", 100, 0, 0.0),) + committed
        hints = {}
        dispatch_hour(committed, demand, {"w": 0.2}, lines, 0, hints)
        got = dispatch_hour(committed, demand, {"w": 0.6}, lines, 1, hints)
        assert len(hints) == 1
        assert got == dispatch_hour(committed, demand, {"w": 0.6}, lines, 1, {})
        assert got.output_mw["w"] == 60.0
