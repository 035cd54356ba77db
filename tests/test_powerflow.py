"""Newton-Raphson power flow against closed-form and re-injection checks."""

import numpy as np
import pytest

from gridstudy.powerflow import (
    Branch,
    Bus,
    BusNetwork,
    PowerFlowError,
    bus_injections_pu,
    load_network,
    scale_loads,
    solve_power_flow,
    write_network,
)
from gridstudy.synthdata import study_network, three_bus_case, two_bus_case


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
        net = two_bus_case().with_loads({"load": (600.0, 0.0)})
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
                if before.region == "R" and before.has_load:
                    assert after.q_load_mvar / after.p_load_mw == pytest.approx(
                        before.q_load_mvar / before.p_load_mw, abs=1e-12)

    def test_unknown_region(self):
        with pytest.raises(PowerFlowError, match="no buses tagged"):
            scale_loads(self.region_net(), "NOPE", 1.5)

    def test_lambda_below_one_rejected(self):
        with pytest.raises(PowerFlowError, match=">= 1"):
            scale_loads(self.region_net(), "R", 0.9)


def reference_nr_batch(grid, p_sched, q_sched):
    """The kernel as it was with the full n x n complex MATPOWER dSbus_dV tensors.

    The current kernel builds the same Jacobian in real arithmetic, in the
    (dVa, dVm/Vm) variables, so the two agree to rounding, not bit for bit.
    """
    from gridstudy.powerflow import PF_MAX_ITERATIONS, PF_TOLERANCE, VOLTAGE_COLLAPSE_PU
    nb = p_sched.shape[0]
    n = grid.n
    y = grid.ybus
    pq, pvpq = grid.pq, grid.pvpq
    npvpq, npq = pvpq.size, pq.size
    vm = np.tile(grid.vset, (nb, 1))
    vm[:, pq] = 1.0
    va = np.zeros((nb, n))
    converged = np.zeros(nb, dtype=bool)
    cause = np.zeros(nb, dtype=np.int8)
    iters = np.zeros(nb, dtype=np.int64)
    mismatch = np.full(nb, np.inf)
    active = np.arange(nb)

    def residual(vm_a, va_a, idx):
        v = vm_a * np.exp(1j * va_a)
        s = v * np.conj(v @ y.T)
        dp = s.real[:, pvpq] - p_sched[idx][:, pvpq]
        dq = s.imag[:, pq] - q_sched[idx][:, pq]
        return np.concatenate([dp, dq], axis=1)

    for it in range(PF_MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        vm_a, va_a = vm[active], va[active]
        f = residual(vm_a, va_a, active)
        norm = np.max(np.abs(f), axis=1)
        mismatch[active] = norm
        ok = norm < PF_TOLERANCE
        if np.any(ok):
            converged[active[ok]] = True
            iters[active[ok]] = it
            keep = ~ok
            active = active[keep]
            vm_a, va_a, f = vm_a[keep], va_a[keep], f[keep]
            if active.size == 0:
                break
        if it == PF_MAX_ITERATIONS:
            cause[active] = 1
            iters[active] = it
            break
        v = vm_a * np.exp(1j * va_a)
        vnorm = np.exp(1j * va_a)
        ibus = v @ y.T
        m1 = -y[None, :, :] * v[:, None, :]
        m1[:, np.arange(n), np.arange(n)] += ibus
        ds_dva = 1j * v[:, :, None] * np.conj(m1)
        m2 = y[None, :, :] * vnorm[:, None, :]
        ds_dvm = v[:, :, None] * np.conj(m2)
        ds_dvm[:, np.arange(n), np.arange(n)] += np.conj(ibus) * vnorm
        j11 = ds_dva.real[:, pvpq[:, None], pvpq[None, :]]
        j12 = ds_dvm.real[:, pvpq[:, None], pq[None, :]]
        j21 = ds_dva.imag[:, pq[:, None], pvpq[None, :]]
        j22 = ds_dvm.imag[:, pq[:, None], pq[None, :]]
        jac = np.concatenate([
            np.concatenate([j11, j12], axis=2),
            np.concatenate([j21, j22], axis=2),
        ], axis=1)
        try:
            dx = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            dx = np.full((active.size, npvpq + npq), np.nan)
            for k in range(active.size):
                try:
                    dx[k] = np.linalg.solve(jac[k], -f[k])
                except np.linalg.LinAlgError:
                    pass
        va_a = va_a.copy()
        vm_a = vm_a.copy()
        va_a[:, pvpq] += dx[:, :npvpq]
        vm_a[:, pq] += dx[:, npvpq:]
        bad = ~np.all(np.isfinite(dx), axis=1)
        collapsed = np.min(vm_a, axis=1) < VOLTAGE_COLLAPSE_PU
        vm[active] = vm_a
        va[active] = va_a
        fail = bad | collapsed
        if np.any(fail):
            cause[active[bad]] = 3
            cause[active[collapsed & ~bad]] = 2
            iters[active[fail]] = it + 1
            active = active[~fail]
    return vm, va, converged, iters, mismatch, cause


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
            sol = solve_power_flow(net.with_loads({b.bus_id: (p, q) for b, p, q in
                                                   zip(net.buses, loads_p[h], loads_q[h])}))
            assert sol.v_pu.tobytes() == vm[h].tobytes()
            assert sol.angle_rad.tobytes() == va[h].tobytes()
            assert (sol.converged, sol.iterations, sol.mismatch_pu) == (conv[h], iters[h],
                                                                        mismatch[h])
