"""Load-scaling collapse search on analytic and bundled networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstudy import loadability
from gridstudy.loadability import (
    LoadabilityError,
    average_loadability,
    compute_loadability,
    verify_bracket,
)
from gridstudy.powerflow import Branch, Bus, BusNetwork, _Grid, _nr_batch
from gridstudy.synthdata import study_network, two_bus_case


def points(net, loads, injections=None):
    """Sweep arrays for hours given as ``{bus: (MW, MVAr)}`` load overrides
    and ``{bus: MW}`` injections; other buses keep their base loads."""
    col = {b.bus_id: i for i, b in enumerate(net.buses)}
    load_mw = np.tile([b.p_load_mw for b in net.buses], (len(loads), 1))
    load_mvar = np.tile([b.q_load_mvar for b in net.buses], (len(loads), 1))
    injection_mw = np.zeros_like(load_mw)
    for h, hour in enumerate(loads):
        for bid, (p, q) in hour.items():
            load_mw[h, col[bid]], load_mvar[h, col[bid]] = p, q
    for h, hour in enumerate(injections or ()):
        for bid, p in hour.items():
            injection_mw[h, col[bid]] = p
    return load_mw, load_mvar, injection_mw


def reference_sweep(net, region, participation, step, hours, lambda_max):
    """The scan as it was with one grid step per Newton batch: every hour
    still scanning solves factor 1 + k * step in the k-th batch."""
    grid = _Grid(net)
    n = grid.n
    base_p, base_q, inj_p = (np.asarray(a, dtype=float) for a in hours)
    nh = len(base_p)
    region_ids = {b.bus_id for b in net.region_buses(region)}
    region_mask = np.array([b.bus_id in region_ids for b in net.buses])
    region_mask &= (base_p != 0).any(axis=0) | (base_q != 0).any(axis=0)
    pickup = np.array([0.0 if b.kind == "slack" else participation.get(b.bus_id, 0.0)
                       for b in net.buses])
    lam_star, served, region_load, min_v, base_min_v = np.full((5, nh), np.nan)
    active = np.arange(nh)
    k = 0
    while active.size and (lam := 1.0 + k * step) <= lambda_max:
        scale = np.ones(n)
        scale[region_mask] = lam
        p_load = base_p[active] * scale
        q_load = base_q[active] * scale
        increment = (lam - 1.0) * np.sum(base_p[active][:, region_mask], axis=1)
        p_inj = inj_p[active] + increment[:, None] * pickup
        p_sched, q_sched = grid.scheduled(p_load, q_load, p_inj, 0.0)
        vm, _, ok, _, _, _ = _nr_batch(grid, p_sched, q_sched)
        active = active[ok]
        lam_star[active] = lam
        served[active] = np.sum(p_load[ok], axis=1)
        region_load[active] = np.sum(p_load[ok][:, region_mask], axis=1)
        min_v[active] = np.min(vm[ok], axis=1)
        if k == 0:
            base_min_v[:] = min_v
        k += 1
    return lam_star, served, region_load, min_v, base_min_v


RESULT_ARRAYS = ("lambda_star", "served_load_mw", "region_load_mw", "min_voltage_pu",
                 "base_min_voltage_pu")


def study_hours(net, loads_scale, rng):
    """Study-network hours: every load scaled per hour, and up to a fifth of
    each hour's load injected at the PV buses."""
    load_mw = loads_scale * [b.p_load_mw for b in net.buses]
    load_mvar = loads_scale * [b.q_load_mvar for b in net.buses]
    share = rng.uniform(0.0, 0.2, (len(load_mw), 1)) * load_mw.sum(axis=1, keepdims=True)
    injection_mw = np.where([b.kind == "pv" for b in net.buses], share, 0.0)
    return load_mw, load_mvar, injection_mw


class TestTwoBusAnalytic:
    def test_limit_within_one_step_of_closed_form(self):
        net = two_bus_case()
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.005)
        assert not res.degenerate[0]
        # analytic maximum: V1^2 / (2x) = 5.0 p.u. = 500 MW at base load 100 MW
        assert abs(res.served_load_mw[0] - 500.0) <= 0.005 * 500.0 + 1e-9

    def test_bracketing_invariant_by_resolve(self):
        net = two_bus_case()
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.005)
        at, above = verify_bracket(net, "LOAD", {"source": 1.0}, None,
                                   float(res.lambda_star[0]), res.step)
        assert at and not above

    def test_base_hour_is_the_default(self):
        net = two_bus_case()
        base = points(net, [{}])
        assert base[0].shape == (1, 2) and not base[2].any()
        default = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.005)
        given = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.005, hours=base)
        for name in ("lambda_star", "served_load_mw", "region_load_mw", "min_voltage_pu"):
            assert getattr(default, name).tobytes() == getattr(given, name).tobytes()

    def test_no_headroom_when_base_is_the_limit(self):
        net = two_bus_case().with_loads({"load": (500.0, 0.0)})
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.005)
        assert res.lambda_star[0] == 1.0

    def test_degenerate_hour_reported(self):
        net = two_bus_case().with_loads({"load": (600.0, 0.0)})
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.01)
        assert res.degenerate[0]
        assert np.isnan(res.lambda_star[0])
        with pytest.raises(LoadabilityError, match="degenerate"):
            average_loadability(res)


class TestRefinement:
    def test_halving_step_never_decreases_lambda(self):
        net = study_network()
        op = points(net, [{"qld_load": (6000.0, 1972.0)}], [{"qld_gen": 5000.0}])
        part = {"qld_gen": 0.5, "qld_csp": 0.5}
        coarse = compute_loadability(net, "QLD", part, step=0.04, hours=op)
        fine = compute_loadability(net, "QLD", part, step=0.02, hours=op)
        assert fine.lambda_star[0] >= coarse.lambda_star[0] - 1e-12
        assert fine.lambda_star[0] - coarse.lambda_star[0] <= 0.04 + 1e-12


class TestBatchedSweep:
    def test_batch_equals_per_hour_scan(self):
        net = two_bus_case()
        rng = np.random.default_rng(7)
        loads = rng.uniform(60, 320, 10)
        hours = points(net, [{"load": (float(p), 0.0)} for p in loads])
        batch = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        for i, p in enumerate(loads):
            single = compute_loadability(net.with_loads({"load": (float(p), 0.0)}),
                                         "LOAD", {"source": 1.0}, step=0.02)
            assert batch.lambda_star[i] == single.lambda_star[0]
            assert batch.served_load_mw[i] == single.served_load_mw[0]
            assert batch.min_voltage_pu[i] == single.min_voltage_pu[0]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_split_into_chunks_gives_the_same_bits(self, data):
        """A sweep of study-network hours equals, bit for bit, the sweeps of any
        contiguous chunks of them, one-hour chunks included."""
        net = study_network()
        nh = data.draw(st.integers(1, 6), label="hours")
        cuts = sorted(data.draw(st.sets(st.integers(1, nh - 1)), label="cuts")) if nh > 1 else []
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        hours = study_hours(net, rng.uniform(0.4, 1.6, (nh, len(net.buses))), rng)
        part = {"qld_gen": 0.5, "qld_csp": 0.5}

        def sweep(rows):
            return compute_loadability(net, "QLD", part, step=0.1, lambda_max=3.0,
                                       hours=tuple(a[rows] for a in hours))

        whole = sweep(slice(None))
        bounds = [0, *cuts, nh]
        chunks = [sweep(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        for name in RESULT_ARRAYS:
            joined = np.concatenate([getattr(c, name) for c in chunks])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

    def test_bracket_holds_on_array_rows(self):
        net = two_bus_case()
        hours = points(net, [{"load": (p, 0.0)} for p in (90.0, 150.0, 240.0)])
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        for h in range(3):
            at, above = verify_bracket(net, "LOAD", {"source": 1.0},
                                       tuple(a[h] for a in hours),
                                       float(res.lambda_star[h]), res.step)
            assert at and not above, h

    def test_monotone_stress_depresses_voltage(self):
        net = study_network()
        ops = points(net, [{"qld_load": (5200.0, 1709.0)}, {"qld_load": (6800.0, 2235.0)}],
                     [{"qld_gen": 4500.0}, {"qld_gen": 6000.0}])
        res = compute_loadability(net, "QLD", {"qld_gen": 0.5, "qld_csp": 0.5},
                                  step=0.02, hours=ops)
        assert np.all(res.min_voltage_pu <= res.base_min_voltage_pu + 1e-12)


class TestBlockedScan:
    """Each Newton batch carries several grid steps per hour still scanning."""

    @staticmethod
    def mixed_hours(net):
        """Two-bus hours whose limits (lambda* = 500 MW / load) spread over the
        grid, one degenerate hour (600 MW) and light hours that reach the cap."""
        loads = [600.0, *np.random.default_rng(11).uniform(60, 330, 20), 40.0, 45.0]
        return points(net, [{"load": (float(p), 0.0)} for p in loads])

    @pytest.mark.parametrize("lambda_max", [6.0, 3.01])  # on the 0.02 grid and off it
    def test_same_bits_as_one_step_per_call(self, lambda_max):
        net = two_bus_case()
        hours = self.mixed_hours(net)
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours,
                                  lambda_max=lambda_max)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, lambda_max)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name
        lam = res.lambda_star
        assert res.degenerate[0]
        top = lam[np.isfinite(lam)].max()
        assert top <= lambda_max < top + 0.02 and (lam == top).sum() >= 2  # capped hours
        assert np.unique(lam[np.isfinite(lam) & (lam < top)]).size >= 10  # fail at many steps

    def test_same_bits_as_one_step_per_call_on_study_network(self):
        net = study_network()
        rng = np.random.default_rng(3)
        hours = study_hours(net, rng.uniform(0.3, 2.2, (40, len(net.buses))), rng)
        part = {"qld_gen": 0.5, "qld_csp": 0.5}
        res = compute_loadability(net, "QLD", part, step=0.05, hours=hours, lambda_max=4.0)
        want = reference_sweep(net, "QLD", part, 0.05, hours, 4.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).tobytes() == ref.tobytes(), name

    def test_empty_horizon(self):
        net = two_bus_case()
        hours = tuple(np.zeros((0, 2)) for _ in range(3))
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        want = reference_sweep(net, "LOAD", {"source": 1.0}, 0.02, hours, 10.0)
        for name, ref in zip(RESULT_ARRAYS, want):
            assert getattr(res, name).shape == (0,)
            assert getattr(res, name).tobytes() == ref.tobytes(), name

    def test_no_batch_has_more_rows_than_the_sweep_has_hours(self, monkeypatch):
        """Blocks trade hours that stopped for later steps of the others, never
        more: peak memory stays that of the first batch."""
        rows = []

        def counting(grid, p_sched, q_sched):
            rows.append(len(p_sched))
            return _nr_batch(grid, p_sched, q_sched)

        monkeypatch.setattr(loadability, "_nr_batch", counting)
        net = two_bus_case()
        hours = self.mixed_hours(net)
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours,
                                  lambda_max=6.0)
        assert max(rows) == len(hours[0]) == rows[0]
        steps = int(round((res.lambda_star[np.isfinite(res.lambda_star)].max() - 1.0) / 0.02))
        assert len(rows) < steps  # later batches carry several steps per hour


class TestValidation:
    @pytest.mark.parametrize("share", [0.7, float("nan")])
    def test_participation_must_sum_to_one(self, share):
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="sum to"):
            compute_loadability(net, "LOAD", {"source": share}, step=0.01)

    def test_participation_rejects_load_bus(self):
        net = two_bus_case()
        with pytest.raises(LoadabilityError, match="load bus"):
            compute_loadability(net, "LOAD", {"load": 1.0}, step=0.01)

    def test_negative_factor_rejected(self):
        net = BusNetwork((
            Bus("s", "slack"), Bus("g", "pv", v_set_pu=1.01, region="G"),
            Bus("l", "pq", 50.0, 10.0, region="L"),
        ), (Branch("s", "g", 0.01, 0.1), Branch("g", "l", 0.01, 0.1)))
        with pytest.raises(LoadabilityError, match="negative"):
            compute_loadability(net, "L", {"g": 2.0, "s": -1.0}, step=0.01)

    @pytest.mark.parametrize("step", [0.0, float("nan")])
    def test_bad_step(self, step):
        with pytest.raises(LoadabilityError, match="positive"):
            compute_loadability(two_bus_case(), "LOAD", {"source": 1.0}, step=step)

    @pytest.mark.parametrize("lambda_max", [0.5, float("nan")])
    def test_lambda_max_below_one_rejected(self, lambda_max):
        """Without this check no hour is scanned and every hour reads as degenerate."""
        with pytest.raises(LoadabilityError, match="lambda_max must be >= 1"):
            compute_loadability(two_bus_case(), "LOAD", {"source": 1.0}, step=0.01,
                                lambda_max=lambda_max)

    @pytest.mark.parametrize("shapes", [((3, 2), (3, 2), (2, 2)), ((3, 3), (3, 3), (3, 3)),
                                        ((2,), (2,), (2,))])
    def test_operating_point_shapes_checked(self, shapes):
        hours = tuple(np.zeros(shape) for shape in shapes)
        with pytest.raises(LoadabilityError, match=r"\(hours, 2\) arrays"):
            compute_loadability(two_bus_case(), "LOAD", {"source": 1.0}, step=0.01, hours=hours)


class TestAverage:
    def test_table_shaped_single_hour(self):
        from gridstudy.loadability import LoadabilityResult
        res = LoadabilityResult(
            lambda_star=np.array([1.35]), served_load_mw=np.array([25530.0]),
            region_load_mw=np.array([8000.0]), min_voltage_pu=np.array([0.8]),
            base_min_voltage_pu=np.array([0.95]), step=0.005, region="QLD")
        assert average_loadability(res) == pytest.approx(25.53)

    def test_mean_of_two_hours(self):
        net = two_bus_case()
        hours = points(net, [{"load": (100.0, 0.0)}, {"load": (200.0, 0.0)}])
        # lambda capped at 1: served loads are the base loads themselves
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.01,
                                  hours=hours, lambda_max=1.0)
        assert average_loadability(res) == pytest.approx(0.15)

    def test_matches_external_mean_from_emitted_values(self):
        net = two_bus_case()
        rng = np.random.default_rng(9)
        hours = points(net, [{"load": (float(p), 0.0)} for p in rng.uniform(80, 300, 12)])
        res = compute_loadability(net, "LOAD", {"source": 1.0}, step=0.02, hours=hours)
        good = ~res.degenerate
        assert average_loadability(res) == pytest.approx(
            float(np.mean(res.served_load_mw[good])) / 1000.0, rel=1e-12)
