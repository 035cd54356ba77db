"""Newton-Raphson power flow against closed-form and re-injection checks."""

import re

import numpy as np
import pytest

from gridstudy.powerflow import (
    Branch,
    Bus,
    BusNetwork,
    PowerFlowError,
    load_network,
    write_network,
)
from gridstudy.synthdata import study_network
from oracles import (
    bus_injections_pu,
    has_load,
    reference_newton_step,
    reference_nr_batch,
    scale_loads,
    solve_power_flow,
    three_bus_case,
    two_bus_case,
    with_loads,
)


class TestNetworkModel:
    def test_exactly_one_slack(self):
        with pytest.raises(PowerFlowError, match="exactly one slack"):
            BusNetwork((Bus("a", "pq"), Bus("b", "pq")), (Branch("a", "b", 0.0, 0.1),))

    def test_connectivity_required(self):
        with pytest.raises(PowerFlowError, match="not connected"):
            BusNetwork((Bus("a", "slack"), Bus("b", "pq"), Bus("c", "pq")),
                       (Branch("a", "b", 0.0, 0.1),))

    def test_zero_reactance_rejected(self):
        with pytest.raises(PowerFlowError, match="zero reactance"):
            Branch("a", "b", 0.01, 0.0)

    def test_csv_round_trip(self, tmp_path):
        net = study_network()
        write_network(net, tmp_path / "bus.csv", tmp_path / "branch.csv")
        back = load_network(tmp_path / "bus.csv", tmp_path / "branch.csv", net.base_mva)
        assert back == net

    @pytest.mark.parametrize("which", ["bus", "branch"])
    @pytest.mark.parametrize("change", ["short", "long"])
    def test_row_whose_cell_count_is_not_the_headers_rejected(self, tmp_path, which, change):
        """A short row is not read as missing values, nor a long one cut down."""
        net = study_network()
        write_network(net, tmp_path / "bus.csv", tmp_path / "branch.csv")
        path = tmp_path / f"{which}.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        cells = cells[:-1] if change == "short" else [*cells, "0.5"]
        lines[3] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        header = len(lines[0].split(","))
        message = f"{path}: row 4: {which} row has {len(cells)} cells, header has {header}"
        with pytest.raises(PowerFlowError, match=f"^{re.escape(message)}$"):
            load_network(tmp_path / "bus.csv", tmp_path / "branch.csv", net.base_mva)


class TestSolve:
    def test_zero_load_flat_profile_identity(self):
        net = BusNetwork((
            Bus("a", "slack", v_set_pu=1.0),
            Bus("b", "pv", v_set_pu=1.0),
            Bus("c", "pq"),
        ), (Branch("a", "b", 0.01, 0.1), Branch("b", "c", 0.01, 0.08)))
        sol = solve_power_flow(net)
        assert sol.converged
        assert np.array_equal(sol.v_pu, np.ones(3))
        assert np.array_equal(sol.angle_rad, np.zeros(3))
        assert np.array_equal(sol.p_from_mw, np.zeros(2))
        assert sol.iterations == 0

    def test_two_bus_closed_form(self):
        sol = solve_power_flow(two_bus_case())
        assert sol.converged and sol.mismatch_pu < 1e-8
        v2, d2 = sol.v_pu[1], sol.angle_rad[1]
        # hand equations for a lossless 0.1 p.u. line feeding P=1, Q=0
        p_residual = (v2 / 0.1) * np.sin(-d2) - 1.0
        q_residual = (v2 / 0.1) * (np.cos(d2) - v2)
        assert abs(p_residual) < 1e-8 and abs(q_residual) < 1e-8
        v2_analytic = np.sqrt((1 + np.sqrt(1 - 4 * 0.01)) / 2)
        assert v2 == pytest.approx(v2_analytic, abs=1e-8)

    def test_beyond_transfer_limit_diverges(self):
        net = with_loads(two_bus_case(), {"load": (600.0, 0.0)})
        sol = solve_power_flow(net)
        assert not sol.converged
        assert sol.failure_cause in ("max_iterations", "voltage_collapse", "singular_jacobian")

    def test_converged_mismatch_on_bundled_cases(self):
        for net in (two_bus_case(), three_bus_case(), study_network()):
            sol = solve_power_flow(net)
            assert sol.converged
            assert sol.mismatch_pu < 1e-8

    def test_reinjection_matches_schedule(self):
        """Recomputing injections from the solved voltages reproduces P,Q."""
        net = three_bus_case()
        inj = {"gen": (40.0, 0.0)}
        sol = solve_power_flow(net, injections=inj)
        assert sol.converged
        s = bus_injections_pu(net, sol)
        # PQ bus: scheduled injection is -load (+ any injection) in p.u.
        assert s[2].real == pytest.approx(-90.0 / 100.0, abs=1e-8)
        assert s[2].imag == pytest.approx(-30.0 / 100.0, abs=1e-8)
        # PV bus: active power is pinned, reactive floats
        assert s[1].real == pytest.approx(40.0 / 100.0, abs=1e-8)

    def test_slack_balances_generation_load_losses(self):
        net = three_bus_case()
        sol = solve_power_flow(net, injections={"gen": (50.0, 0.0)})
        s = bus_injections_pu(net, sol)
        losses = float(np.sum(sol.p_from_mw + sol.p_to_mw)) / net.base_mva
        total_injection = float(np.sum(s.real))
        assert total_injection == pytest.approx(losses, abs=1e-6)

    def test_unknown_injection_bus(self):
        with pytest.raises(PowerFlowError, match="unknown bus"):
            solve_power_flow(two_bus_case(), injections={"nope": (1.0, 0.0)})


class TestScaleLoads:
    def region_net(self):
        return BusNetwork((
            Bus("s", "slack"),
            Bus("l1", "pq", 100.0, 50.0, region="R"),
            Bus("l2", "pq", 40.0, 10.0, region="R"),
            Bus("o", "pq", 70.0, 20.0, region="OTHER"),
        ), (Branch("s", "l1", 0.01, 0.1), Branch("l1", "l2", 0.01, 0.05),
            Branch("s", "o", 0.01, 0.08)))

    def test_identity_at_one(self):
        net = self.region_net()
        assert scale_loads(net, "R", 1.0) == net

    def test_doubling_preserves_ratio(self):
        net = scale_loads(self.region_net(), "R", 2.0)
        assert net.buses[1].p_load_mw == 200.0 and net.buses[1].q_load_mvar == 100.0
        assert net.buses[3].p_load_mw == 70.0  # other region untouched

    def test_power_factor_angle_unchanged(self):
        rng = np.random.default_rng(5)
        net = self.region_net()
        for _ in range(20):
            lam = float(rng.uniform(1, 4))
            scaled = scale_loads(net, "R", lam)
            for before, after in zip(net.buses, scaled.buses):
                if before.region == "R" and has_load(before):
                    assert after.q_load_mvar / after.p_load_mw == pytest.approx(
                        before.q_load_mvar / before.p_load_mw, abs=1e-12)

    def test_unknown_region(self):
        with pytest.raises(PowerFlowError, match="no buses tagged"):
            scale_loads(self.region_net(), "NOPE", 1.5)

    def test_lambda_below_one_rejected(self):
        with pytest.raises(PowerFlowError, match=">= 1"):
            scale_loads(self.region_net(), "R", 0.9)


class TestNewtonKernel:
    def test_same_outcomes_as_complex_reference_kernel(self):
        """Every point converges or fails as in the complex full-Jacobian kernel,
        after as many iterations and with the same cause; converged voltages
        agree within 1e-12."""
        from gridstudy.powerflow import _Grid, _nr_batch
        net = study_network()
        grid = _Grid(net)
        rng = np.random.default_rng(5)
        base_p = np.array([b.p_load_mw for b in net.buses])
        base_q = np.array([b.q_load_mvar for b in net.buses])
        scale = rng.uniform(0.2, 4.0, (300, 1))  # from light load to collapse
        p_sched, q_sched = grid.scheduled(base_p * scale, base_q * scale, 0.0, 0.0)
        vm, va, conv, iters, _, cause = _nr_batch(grid, p_sched, q_sched)
        ref_vm, ref_va, ref_conv, ref_iters, _, ref_cause = reference_nr_batch(grid, p_sched,
                                                                               q_sched)
        for got, want in ((conv, ref_conv), (iters, ref_iters), (cause, ref_cause)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        np.testing.assert_allclose(vm[conv], ref_vm[conv], rtol=0, atol=1e-12)
        np.testing.assert_allclose(va[conv], ref_va[conv], rtol=0, atol=1e-12)
        # the batch mixes converged points with each failure cause
        assert set(np.unique(cause).tolist()) == {0, 1, 2}

    def test_singular_jacobian_ends_each_point(self):
        """Cause 3: a flat-start Jacobian that is exactly singular fails the
        batched solve; the per-row fallback then fails every row alone."""
        from gridstudy.powerflow import _Grid, _nr_batch
        net = BusNetwork((Bus("s", "slack"), Bus("l", "pq", 50.0, 10.0)),
                         (Branch("s", "l", 0.0, 0.5, 2.0),))
        sol = solve_power_flow(net)
        assert (sol.converged, sol.failure_cause, sol.iterations) == (False, "singular_jacobian", 1)
        grid = _Grid(net)
        loads_p, loads_q = np.array([[0.0, 50.0], [0.0, 0.0]]), np.array([[0.0, 10.0], [0.0, 0.0]])
        _, _, conv, iters, _, cause = _nr_batch(grid, *grid.scheduled(loads_p, loads_q, 0.0, 0.0))
        assert not conv.any()
        assert cause.tolist() == [3, 3] and iters.tolist() == [1, 1]

    def test_single_solve_is_its_row_of_a_batch(self):
        """solve_power_flow, a batch of one, returns a batched point's bits."""
        from gridstudy.powerflow import _Grid, _nr_batch
        net = study_network()
        grid = _Grid(net)
        scale = np.linspace(0.3, 2.5, 12)[:, None]
        loads_p = scale * [b.p_load_mw for b in net.buses]
        loads_q = scale * [b.q_load_mvar for b in net.buses]
        vm, va, conv, iters, mismatch, _ = _nr_batch(grid, *grid.scheduled(loads_p, loads_q,
                                                                           0.0, 0.0))
        for h in range(len(scale)):
            sol = solve_power_flow(with_loads(net, {b.bus_id: (p, q) for b, p, q in
                                                    zip(net.buses, loads_p[h], loads_q[h])}))
            assert sol.v_pu.tobytes() == vm[h].tobytes()
            assert sol.angle_rad.tobytes() == va[h].tobytes()
            assert (sol.converged, sol.iterations, sol.mismatch_pu) == (conv[h], iters[h],
                                                                        mismatch[h])

    def test_pool_iterates_with_no_rows(self):
        from gridstudy.powerflow import _Grid, _injections, _NewtonPool
        grid = _Grid(study_network())
        ef, pqq = _injections(grid, np.empty((0, grid.n)), np.empty((0, grid.n)))
        assert ef.shape == (0, 2 * grid.n) and pqq.shape == (0, 3 * grid.n)
        pool = _NewtonPool(grid)
        ended = pool.iterate()
        assert len(pool) == 0 and [len(a) for a in ended] == [0] * 7

    def test_batch_of_more_rows_than_a_gemm_block_has_the_rows_bits(self):
        """A batch whose injections take two gemm blocks gives, row for row, the
        bits of batches that take one."""
        from gridstudy.powerflow import GEMM_ROWS, _Grid, _nr_batch
        net = study_network()
        grid = _Grid(net)
        scale = np.random.default_rng(8).uniform(0.2, 4.0, (GEMM_ROWS + 1, 1))
        sched = grid.scheduled(scale * [b.p_load_mw for b in net.buses],
                               scale * [b.q_load_mvar for b in net.buses], 0.0, 0.0)
        whole = _nr_batch(grid, *sched)
        parts = [_nr_batch(grid, *(a[rows] for a in sched)) for rows in (slice(0, 2),
                                                                        slice(2, None))]
        for got, *want in zip(whole, *parts):
            assert got.tobytes() == np.concatenate(want).tobytes()


class TestSlotLU:
    """The Newton step's sparse LU: natural order, fixed pattern, no pivoting."""

    def test_steps_match_lapack_near_collapse(self, monkeypatch):
        """Steps that a study-network sweep takes near voltage collapse equal
        np.linalg.solve's within 1e-12 relative, or within 4 cond(J) eps where J
        is so ill-conditioned that two sound solvers differ by more."""
        from gridstudy import powerflow
        from gridstudy.loadability import compute_loadability
        newton_step, steps = powerflow._newton_step, []

        def recording(grid, ef, pqq, dpq, norm):
            dx, sound = newton_step(grid, ef, pqq, dpq, norm)
            nj = grid.jbus.size
            jac = np.zeros((len(ef), nj * nj))
            jac[:, grid.jac_at] = powerflow._jacobian(grid, ef, pqq).T
            vmin = np.hypot(ef[:, :grid.n], ef[:, grid.n:]).min(axis=1)
            steps.append((jac.reshape(-1, nj, nj), dpq, dx, sound, vmin))
            return dx, sound

        monkeypatch.setattr(powerflow, "_newton_step", recording)
        net = study_network()
        scale = np.random.default_rng(4).uniform(0.6, 1.4, (12, 1))
        loads = (scale * [b.p_load_mw for b in net.buses],
                 scale * [b.q_load_mvar for b in net.buses])
        compute_loadability(net, "QLD", {"qld_gen": 0.5, "qld_csp": 0.5}, step=0.01,
                            hours=(*loads, np.zeros_like(loads[0])), lambda_max=6.0)
        jac, dpq, dx, sound, vmin = (np.concatenate(a) for a in zip(*steps))
        assert sound.all()
        near = vmin < 0.7
        want = np.linalg.solve(jac[near], -dpq[near][:, :, None])[:, :, 0]
        cond = np.linalg.cond(jac[near])
        rel = np.abs(dx[near] - want).max(axis=1) / np.abs(want).max(axis=1)
        assert np.all(rel <= np.maximum(1e-12, 4 * cond * np.finfo(float).eps))
        assert near.sum() >= 100 and cond.max() > 1e4  # the sample reaches the singular end

    def test_vanishing_natural_order_pivot_ends_the_point(self):
        """Cause 3 where LAPACK would pivot: at a flat start the first pivot,
        dP_a/dVa_a = 1/0.1 + 1/(-0.1), is zero, yet the Jacobian is nonsingular and
        the pivoting reference kernel converges.  The point keeps its finite
        flat-start voltages."""
        from gridstudy.powerflow import _Grid, _nr_batch
        net = BusNetwork((Bus("s", "slack"), Bus("a", "pq"), Bus("b", "pq", 30.0, 10.0)),
                         (Branch("s", "a", 0.0, 0.1), Branch("a", "b", 0.0, -0.1)))
        grid = _Grid(net)
        sched = grid.scheduled(np.array([[0.0, 0.0, 30.0]]), np.array([[0.0, 0.0, 10.0]]),
                               0.0, 0.0)
        vm, va, conv, iters, _, cause = _nr_batch(grid, *sched)
        assert (conv[0], iters[0], cause[0]) == (False, 1, 3)
        assert vm.tolist() == [[1.0, 1.0, 1.0]] and va.tolist() == [[0.0, 0.0, 0.0]]
        _, _, ref_conv, ref_iters, _, ref_cause = reference_nr_batch(grid, *sched)
        assert (ref_conv[0], ref_cause[0]) == (True, 0) and ref_iters[0] > 1

    def test_step_above_the_backward_error_bound_ends_the_point(self, monkeypatch):
        """With the bound at 0 every step whose residual is not exactly zero is
        unsound: each point ends as cause 3 at its first step, with its finite
        flat-start voltages."""
        from gridstudy import powerflow
        monkeypatch.setattr(powerflow, "SOLVE_BACKWARD_ERROR", 0.0)
        net = study_network()
        grid = powerflow._Grid(net)
        scale = np.array([[0.5], [1.0]])
        sched = grid.scheduled(scale * [b.p_load_mw for b in net.buses],
                               scale * [b.q_load_mvar for b in net.buses], 0.0, 0.0)
        vm, va, conv, iters, _, cause = powerflow._nr_batch(grid, *sched)
        assert not conv.any() and cause.tolist() == [3, 3] and iters.tolist() == [1, 1]
        flat = np.where([b.kind == "pq" for b in net.buses], 1.0, grid.vset)
        assert vm.tolist() == [flat.tolist()] * 2 and not va.any()

    @pytest.mark.parametrize("hand", [None, "zero", "inf"])
    @pytest.mark.parametrize("rows", [1, 2, 35, 213, 1100])
    def test_step_has_the_reference_bits(self, rows, hand):
        """dx and soundness bit for bit as in the row-major kernel (compared as
        uint64, so -0.0 and NaN count) at random voltages and loads, past a gemm
        block at 1,100 rows; a hand-made point goes first: one whose voltages are
        all zero, so every Jacobian entry and pivot is zero, or one with an
        infinite mismatch, each unsound."""
        from gridstudy import powerflow
        net = study_network()
        grid = powerflow._Grid(net)
        rng = np.random.default_rng(rows)
        vm = np.where([b.kind == "pq" for b in net.buses], rng.uniform(0.5, 1.2, (rows, grid.n)),
                      grid.vset)
        va = np.where([b.kind == "slack" for b in net.buses], 0.0,
                      rng.uniform(-0.6, 0.6, (rows, grid.n)))
        if hand == "zero":
            vm[0] = 0.0
        scale = rng.uniform(0.2, 4.0, (rows, 1))
        p_sched, q_sched = grid.scheduled(scale * [b.p_load_mw for b in net.buses],
                                          scale * [b.q_load_mvar for b in net.buses], 0.0, 0.0)
        ef, pqq = powerflow._injections(grid, vm, va)
        dpq = pqq[:, grid.mismatch_from] - np.concatenate([p_sched[:, grid.pvpq],
                                                           q_sched[:, grid.pq]], axis=1)
        if hand == "inf":
            dpq[0, 3] = np.inf
        norm = np.abs(dpq).max(axis=1)
        dx, sound = powerflow._newton_step(grid, ef, pqq, dpq, norm)
        ref_dx, ref_sound = reference_newton_step(grid, ef, pqq, dpq, norm)
        assert dx.shape == ref_dx.shape == (rows, grid.jbus.size)
        assert np.array_equal(dx.view(np.uint64), ref_dx.view(np.uint64))
        assert np.array_equal(sound, ref_sound)
        assert sound[0] == (hand is None)

    def test_residual_sums_each_row_left_to_right(self):
        """Each row of J dx + F has the bits of np.sum over its entries, in column
        order, plus F, where the products span 24 orders of magnitude, so that
        another order of additions rounds otherwise (np.add.reduceat does)."""
        from gridstudy import powerflow
        grid = powerflow._Grid(study_network())
        nj, nb = grid.jbus.size, 500
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.integers(-12, 12, (grid.jac_at.size, nb))
        jdx = rng.standard_normal(scale.shape) * scale
        dpq = rng.standard_normal((nb, nj))
        row_major = np.argsort(grid.jac_at)
        rows = grid.jac_at[row_major] // nj
        want = np.array([np.sum(jdx[row_major][rows == i], axis=0) for i in range(nj)]) + dpq.T
        got = powerflow._residual(grid, jdx.copy(), dpq)
        assert np.array_equal(got.view(np.uint64), want[grid.res_rows].view(np.uint64))


class TestGrid:
    def test_study_network_pattern_and_residual_order(self):
        """The study network's Jacobian has 73 entries; its LU has 81 Jacobian
        slots, 15 right-hand-side slots and 101 updates of Jacobian slots.  The
        residual order lists every entry once: entry k of each row with more
        than k entries, rows longest first, each row's entries in column order."""
        from gridstudy.powerflow import _Grid
        grid = _Grid(study_network())
        nj = grid.jbus.size
        rows, cols = np.divmod(grid.jac_at, nj)
        assert (rows.size, nj) == (73, 15)
        assert np.array_equal(np.sort(grid.jac_at), np.unique(grid.jac_at))
        assert grid.lu_slots == 81 + nj and np.unique(grid.jac_slot).size == 73
        assert set(grid.rhs_slot.tolist()).isdisjoint(grid.jac_slot.tolist())
        rhs = set(grid.rhs_slot.tolist())
        assert sum(t not in rhs for *_, target in grid.lu_forward for t in target) == 101
        count = np.bincount(rows, minlength=nj)
        assert np.all(np.diff(count[grid.res_rows]) <= 0)
        assert grid.res_cut == np.cumsum([np.sum(count > k) for k in range(7)]).tolist()
        lo = 0
        for hi in grid.res_cut:
            assert np.array_equal(rows[lo:hi], grid.res_rows[:hi - lo])
            lo = hi
        for i in range(nj):
            assert np.all(np.diff(cols[rows == i]) > 0)
