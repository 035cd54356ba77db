"""Reference implementations that the tests hold the runtime package against,
and the test-only code that the pipeline never calls.

* ``two_bus_case`` and ``three_bus_case``: textbook networks for the power
  flow and loadability tests.
* ``load_predictor``: the reader of ``pricing.save_predictor``'s files, the
  oracle of its round trip.
* ``reference_nr_batch``: the Newton kernel with the full complex MATPOWER
  ``dSbus_dV`` tensors; ``reference_newton_step``: one Newton step with a
  row-by-row residual and one indexed update per LU pivot, the bits that
  ``_newton_step`` keeps.
* ``reference_sweep``: the loadability scan with one grid step per Newton
  batch; ``flat_start_converges``: one flat-start solve per hour at a
  factor of its own.
* ``inequality_day_lp`` and ``no_action_error``: the demand day LP as
  battery power under 98 inequality rows, in ``scipy.optimize.linprog``'s
  terms, and the error text of a day without a schedule.
* ``milp_commitment``: one dispatch hour's least-cost commitment, a binary
  per dispatchable, solved by ``scipy.optimize.milp``.
* ``check_feasible``: every violated bound and row of a point, with its
  magnitude, where ``lp`` only asks whether there is one.
* ``reference_solve_lp``: the dense primal simplex that inverts every
  starting basis, rebuilds its entering masks at every pivot and has no dual
  restart; ``restart_differences``, which holds a solve to it; and
  ``PairedSolver``, which runs it beside ``solve_lp`` on a hint chain.
* ``solve_power_flow`` and its helpers: one operating point on a
  ``BusNetwork`` whose bus loads hold the point, solved as a batch of one
  through ``_nr_batch``, with branch flows.
* ``stressed_network`` and ``verify_bracket``: one hour of a loadability
  sweep rebuilt as such a network and re-solved at and above its λ*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from gridstudy.demand import DayInputs, DemandParams
from gridstudy.dispatch import DUMP_PENALTY, VALUE_OF_LOST_LOAD
from gridstudy.loadability import Points, validate_participation
from gridstudy.lp import (
    _AT_LOWER,
    _AT_UPPER,
    _MAX_ITER,
    _PHASE1_TOL,
    _PIVOT_TOL,
    _REDUCED_COST_TOL,
    _REFACTOR_EVERY,
    FEASIBILITY_TOL,
    INFINITE_BOUND,
    BasisHint,
    LinearProgram,
    LpFormatError,
    LpSolution,
)
from gridstudy.powerflow import (
    PF_MAX_ITERATIONS,
    PF_TOLERANCE,
    SOLVE_BACKWARD_ERROR,
    VOLTAGE_COLLAPSE_PU,
    Branch,
    Bus,
    BusNetwork,
    PowerFlowError,
    _Grid,
    _jacobian,
    _nr_batch,
)
from gridstudy.pricing import _KIND, _MAGIC, PricingError, TrainedPredictor


# -- textbook networks -----------------------------------------------------------

def two_bus_case() -> BusNetwork:
    """Textbook two-bus case: lossless 0.1 p.u. line, 1.0 p.u. unity-pf load."""
    return BusNetwork((
        Bus("source", "slack", 0.0, 0.0, 1.0, "SRC"),
        Bus("load", "pq", 100.0, 0.0, 1.0, "LOAD"),
    ), (Branch("source", "load", 0.0, 0.1),), base_mva=100.0)


def three_bus_case() -> BusNetwork:
    """Textbook three-bus case: slack, PV generator and a lagging PQ load."""
    return BusNetwork((
        Bus("slack", "slack", 0.0, 0.0, 1.02, "A"),
        Bus("gen", "pv", 0.0, 0.0, 1.01, "B", ("G1",)),
        Bus("city", "pq", 90.0, 30.0, 1.0, "B"),
    ), (
        Branch("slack", "gen", 0.02, 0.12),
        Branch("gen", "city", 0.015, 0.09),
        Branch("slack", "city", 0.025, 0.15),
    ), base_mva=100.0)


# -- saved predictors ------------------------------------------------------------

def load_predictor(path) -> TrainedPredictor:
    """Read a file written by ``save_predictor``; a ``PricingError`` naming the
    file rejects anything else."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise PricingError(f"{path}: not a saved predictor")
    if lines[1:2] != [_KIND]:
        raise PricingError(f"{path}: line 2 is not {_KIND!r}")

    def fields(i: int, key: str, count: Optional[int] = None) -> list[str]:
        words = lines[i].split(" ") if 0 <= i < len(lines) else []
        if words[:1] != [key] or (count is not None and len(words) != count + 1):
            raise PricingError(f"{path}: line {i + 1} is not a {key!r} line")
        return words[1:]

    def number(text: str, kind=float):
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise PricingError(f"{path}: not {what}: {text!r}") from None

    n_features = number(fields(2, "features", 1)[0], int)
    rows = [fields(3 + i, "f", 4) for i in range(n_features)]
    names = tuple(name for name, _, _, _ in rows)
    mean = np.array([number(m) for _, m, _, _ in rows])
    std = np.array([number(s) for _, _, s, _ in rows])
    kept = np.array([bool(number(k, int)) for _, _, _, k in rows], dtype=bool)
    coef = np.array([number(c) for c in fields(3 + n_features, "coef")])
    if len(coef) != int(kept.sum()) + 1:
        raise PricingError(f"{path}: {len(coef)} coefficients for {int(kept.sum())} kept features")
    return TrainedPredictor(names, mean, std, kept, coef)


# -- one operating point at a time ---------------------------------------------

def has_load(bus: Bus) -> bool:
    return bus.p_load_mw != 0.0 or bus.q_load_mvar != 0.0


def with_loads(net: BusNetwork, loads: Mapping[str, tuple[float, float]]) -> BusNetwork:
    """Copy of the network with (P, Q) bus loads replaced where given."""
    known = {b.bus_id for b in net.buses}
    for bid in loads:
        if bid not in known:
            raise PowerFlowError(f"unknown bus {bid!r} in load override")
    new = tuple(
        replace(b, p_load_mw=loads[b.bus_id][0], q_load_mvar=loads[b.bus_id][1])
        if b.bus_id in loads else b
        for b in net.buses
    )
    return BusNetwork(new, net.branches, net.base_mva)


def scale_loads(net: BusNetwork, region: str, lam: float) -> BusNetwork:
    """Multiply P and Q of every load bus in ``region`` by ``lam``.

    Q scales with P, so each bus keeps its power factor.
    """
    if lam < 1.0:
        raise PowerFlowError(f"load scaling factor {lam} must be >= 1")
    net.region_buses(region)  # raises on unknown region
    new = tuple(
        replace(b, p_load_mw=lam * b.p_load_mw, q_load_mvar=lam * b.q_load_mvar)
        if b.region == region and has_load(b) else b
        for b in net.buses
    )
    return BusNetwork(new, net.branches, net.base_mva)


@dataclass(frozen=True)
class PowerFlowSolution:
    converged: bool
    v_pu: np.ndarray
    angle_rad: np.ndarray
    p_from_mw: np.ndarray
    q_from_mvar: np.ndarray
    p_to_mw: np.ndarray
    q_to_mvar: np.ndarray
    iterations: int
    mismatch_pu: float
    failure_cause: str = ""  # "", max_iterations, voltage_collapse, singular_jacobian

    @property
    def min_voltage_pu(self) -> float:
        return float(np.min(self.v_pu))


_CAUSE_NAMES = {0: "", 1: "max_iterations", 2: "voltage_collapse", 3: "singular_jacobian"}


def _branch_flows(net: BusNetwork, vm: np.ndarray, va: np.ndarray):
    index = {b.bus_id: i for i, b in enumerate(net.buses)}
    i = np.array([index[br.from_bus] for br in net.branches], dtype=int)
    j = np.array([index[br.to_bus] for br in net.branches], dtype=int)
    ys = np.array([1.0 / complex(br.r_pu, br.x_pu) for br in net.branches])
    sh = np.array([0.5j * br.b_shunt_pu for br in net.branches])
    v = vm * np.exp(1j * va)
    s_from = v[i] * np.conj((v[i] - v[j]) * ys + v[i] * sh) * net.base_mva
    s_to = v[j] * np.conj((v[j] - v[i]) * ys + v[j] * sh) * net.base_mva
    return s_from, s_to


def solve_power_flow(net: BusNetwork,
                     injections: Optional[Mapping[str, tuple[float, float]]] = None
                     ) -> PowerFlowSolution:
    """Solve the network with optional per-bus generation injections (MW, MVAr).

    Injections add to the bus balance against the stored loads; the active
    part matters on PV buses (their reactive output floats to hold the
    voltage setpoint), both parts matter on PQ buses.
    """
    grid = _Grid(net)
    loads_p = np.array([[b.p_load_mw for b in net.buses]])
    loads_q = np.array([[b.q_load_mvar for b in net.buses]])
    inj_p, inj_q = np.zeros((2, 1, grid.n))
    index = {b.bus_id: i for i, b in enumerate(net.buses)}
    for bid, (p, q) in (injections or {}).items():
        if bid not in index:
            raise PowerFlowError(f"unknown bus {bid!r} in injections")
        inj_p[0, index[bid]] = p
        inj_q[0, index[bid]] = q
    p_sched, q_sched = grid.scheduled(loads_p, loads_q, inj_p, inj_q)
    vm, va, conv, iters, mism, cause = _nr_batch(grid, p_sched, q_sched)
    s_from, s_to = _branch_flows(net, vm[0], va[0])
    return PowerFlowSolution(
        converged=bool(conv[0]),
        v_pu=vm[0],
        angle_rad=va[0],
        p_from_mw=s_from.real,
        q_from_mvar=s_from.imag,
        p_to_mw=s_to.real,
        q_to_mvar=s_to.imag,
        iterations=int(iters[0]),
        mismatch_pu=float(mism[0]),
        failure_cause=_CAUSE_NAMES[int(cause[0])],
    )


def bus_injections_pu(net: BusNetwork, solution: PowerFlowSolution) -> np.ndarray:
    """Complex power injected at each bus implied by the solved voltages."""
    v = solution.v_pu * np.exp(1j * solution.angle_rad)
    return v * np.conj(net.ybus() @ v)


def stressed_network(net: BusNetwork, region: str, participation: Mapping[str, float],
                     row: Optional[Points], lam: float
                     ) -> tuple[BusNetwork, dict[str, tuple[float, float]]]:
    """Network and injections for one hour at scaling factor ``lam``.

    ``row`` is one hour's rows of the sweep's arrays (see ``Points``), or
    None for the network's base loads.  Used to re-verify the bracketing
    invariant with the plain solver: power flow converges at the hour's
    loadability and fails one step above.
    """
    shares = validate_participation(net, participation)
    scoped, injections = net, {}
    if row is not None:
        load_mw, load_mvar, injection_mw = row
        scoped = with_loads(net, {b.bus_id: (float(p), float(q))
                                  for b, p, q in zip(net.buses, load_mw, load_mvar)})
        injections = {b.bus_id: (float(p), 0.0) for b, p in zip(net.buses, injection_mw)}
    base_region = sum(b.p_load_mw for b in scoped.region_buses(region) if has_load(b))
    stressed = scale_loads(scoped, region, lam) if lam > 1.0 else scoped
    slack_id = next(b.bus_id for b in net.buses if b.kind == "slack")
    increment = (lam - 1.0) * base_region
    for bid, f in shares.items():
        if bid == slack_id:
            continue
        p0, q0 = injections.get(bid, (0.0, 0.0))
        injections[bid] = (p0 + f * increment, q0)
    return stressed, injections


def verify_bracket(net: BusNetwork, region: str, participation: Mapping[str, float],
                   row: Optional[Points], lam_star: float, step: float) -> tuple[bool, bool]:
    """(converges at lam_star, converges at lam_star + step) via the plain solver."""
    at, inj_at = stressed_network(net, region, participation, row, lam_star)
    above, inj_above = stressed_network(net, region, participation, row, lam_star + step)
    return (solve_power_flow(at, inj_at).converged,
            solve_power_flow(above, inj_above).converged)


# -- batched references --------------------------------------------------------

def reference_nr_batch(grid, p_sched, q_sched):
    """The kernel as it was with the full n x n complex MATPOWER dSbus_dV tensors.

    The current kernel builds the same Jacobian in real arithmetic, in the
    (dVa, dVm/Vm) variables, so the two agree to rounding, not bit for bit.
    """
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


def reference_newton_step(grid, ef, pqq, dpq, norm):
    """``_newton_step`` as it was with row-major Jacobian entries: a per-row
    ``np.sum`` for the backward-error residual and a fancy-indexed ``-=`` for
    every LU update.  It takes the row-major order from ``grid.jac_at``, so
    it runs on any entry order of ``_Grid``; its bits are the ones to keep."""
    nb, nj = len(ef), grid.jbus.size
    row_major = np.argsort(grid.jac_at)
    val = _jacobian(grid, ef, pqq)[row_major]
    jac_slot = grid.jac_slot[row_major]
    rows, jac_col = np.divmod(grid.jac_at[row_major], nj)
    jac_rows = [slice(*np.searchsorted(rows, [i, i + 1])) for i in range(nj)]
    lu = np.zeros((grid.lu_slots, nb))
    lu[jac_slot] = val
    lu[grid.rhs_slot] = -dpq.T
    with np.errstate(all="ignore"):  # unsound steps are flagged below
        for pivot, lo, mid, hi, target in grid.lu_forward:
            low = lu[lo:mid]
            low /= lu[pivot]
            lu[target] -= (low[:, None] * lu[mid:hi]).reshape(target.size, nb)
        for pivot, xk, above, above_x in grid.lu_back:
            lu[xk] /= lu[pivot]
            if above.size:
                lu[above_x] -= lu[above] * lu[xk]
        x = lu[grid.rhs_slot]
        del lu  # before the residual's arrays: peak memory
        jdx = x[jac_col]
        jdx *= val
        residual = np.empty((nj, nb))
        for i, entries in enumerate(jac_rows):
            np.sum(jdx[entries], axis=0, out=residual[i])
        residual += dpq.T
        size = np.maximum(val.max(axis=0), -val.min(axis=0)) * np.abs(x).max(axis=0) + norm
        sound = np.isfinite(x).all(axis=0) & (np.abs(residual).max(axis=0)
                                              <= SOLVE_BACKWARD_ERROR * size)
    x[:, ~sound] = 0.0
    return x.T, sound


def _scan_setup(net, region, participation, hours):
    """The sweep's grid, hour arrays, scaled buses and pickup shares."""
    grid = _Grid(net)
    base_p, base_q, inj_p = (np.asarray(a, dtype=float) for a in hours)
    region_ids = {b.bus_id for b in net.region_buses(region)}
    region_mask = np.array([b.bus_id in region_ids for b in net.buses])
    region_mask &= (base_p != 0).any(axis=0) | (base_q != 0).any(axis=0)
    pickup = np.array([0.0 if b.kind == "slack" else participation.get(b.bus_id, 0.0)
                       for b in net.buses])
    return grid, base_p, base_q, inj_p, region_mask, pickup


def reference_sweep(net, region, participation, step, hours, lambda_max):
    """The scan as it was with one grid step per Newton batch: every hour
    still scanning solves factor 1 + k * step in the k-th batch."""
    grid, base_p, base_q, inj_p, region_mask, pickup = _scan_setup(net, region, participation, hours)
    n = grid.n
    nh = len(base_p)
    lam_star, served, region_load, min_v = np.full((4, nh), np.nan)
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
        k += 1
    return lam_star, served, region_load, min_v


def flat_start_converges(net, region, participation, hours, lam):
    """Whether each hour of ``hours`` converges from a flat start at its own
    factor ``lam``, under the sweep's loads and injections, in one batch."""
    grid, base_p, base_q, inj_p, region_mask, pickup = _scan_setup(net, region, participation, hours)
    scale = np.where(region_mask, lam[:, None], 1.0)
    increment = (lam - 1.0) * np.sum(base_p[:, region_mask], axis=1)
    p_sched, q_sched = grid.scheduled(base_p * scale, base_q * scale,
                                      inj_p + increment[:, None] * pickup, 0.0)
    return _nr_batch(grid, p_sched, q_sched)[2]


# -- the demand day LP as it was -------------------------------------------------

def inequality_day_lp(params: DemandParams, day: DayInputs):
    """The day LP over the 24 battery-power variables alone.

    Grid power and SOC are eliminated by substitution, which leaves 24
    two-sided grid rows (one per hour) and 25 two-sided cumulative-sum rows
    (one per stored state, end-of-horizon included), each a pair of
    inequality rows.  Returns ``(cost, a_ub, b_ub, bounds, base_cost)``:
    ``scipy.optimize.linprog``'s arguments, and the constant cost term
    ``sum(price * (load - pv))`` that the LP objective omits.
    """
    h = day.price.size
    eta = params.efficiency
    resid = day.load_mw - day.pv_mw
    rows = np.zeros((2 * h + 2 * (h + 1), h))
    rhs = np.zeros(rows.shape[0])
    rows[np.arange(0, 2 * h, 2), np.arange(h)] = eta
    rows[np.arange(1, 2 * h, 2), np.arange(h)] = -eta
    rhs[0:2 * h:2] = params.grid_import_limit_mw - resid
    rhs[1:2 * h:2] = resid - params.grid_export_limit_mw
    for state in range(h + 1):
        rows[2 * h + 2 * state, :state] = 1.0
        rows[2 * h + 2 * state + 1, :state] = -1.0
    rhs[2 * h::2] = params.soc_max_mwh - params.soc_min_mwh
    bounds = [(params.discharge_rate_mw, params.charge_rate_mw)] * h
    return eta * day.price, rows, rhs, bounds, float(day.price @ resid)


def no_action_error(params: DemandParams, day: DayInputs) -> str:
    """The text of the error that a day without a schedule raises: it names the
    first hour whose grid power without the battery leaves the grid window
    by more than 1e-9, if there is one."""
    resid = day.load_mw - day.pv_mw
    bad = np.flatnonzero((resid > params.grid_import_limit_mw + 1e-9) |
                         (resid < params.grid_export_limit_mw - 1e-9))
    detail = f"; no-action grid power first leaves the window at hour {bad[0]}" if bad.size else ""
    return f"day schedule infeasible{detail}"


# -- the commitment as a MILP ----------------------------------------------------

def milp_commitment(fleet, lines, demand, availability):
    """(objective, dumped MW) of one hour's least-cost commitment and dispatch.

    A dispatchable has a binary ``u`` with ``min_stable u <= p <= capacity u``;
    a renewable is pinned at capacity times its availability.  Line flows,
    unserved and dumped energy are priced as in ``dispatch_hour``'s LP.
    Solved by ``scipy.optimize.milp`` (HiGHS) to a relative gap of 1e-9.
    """
    from scipy import optimize

    regions = {r: i for i, r in enumerate(demand)}
    units = [g for g in fleet if not g.is_renewable]
    nf, nu, nl, nr = len(fleet), len(units), len(lines), len(regions)
    n = nf + nu + nl + 2 * nr
    cost, lower, upper = np.zeros(n), np.zeros(n), np.full(n, np.inf)
    a_eq = np.zeros((nr, n))
    for j, g in enumerate(fleet):
        cost[j] = g.srmc
        a_eq[regions[g.region], j] = 1.0
        upper[j] = g.capacity_mw * availability.get(g.name, 0.0) if g.is_renewable else g.capacity_mw
        lower[j] = upper[j] if g.is_renewable else 0.0
    column = {g.name: j for j, g in enumerate(fleet)}
    at_most, at_least = np.zeros((nu, n)), np.zeros((nu, n))
    for k, g in enumerate(units):
        upper[nf + k] = 1.0
        at_most[k, column[g.name]] = at_least[k, column[g.name]] = 1.0
        at_most[k, nf + k], at_least[k, nf + k] = -g.capacity_mw, -g.min_stable_mw
    for k, line in enumerate(lines):
        col = nf + nu + k
        lower[col], upper[col] = line.reverse_limit_mw, line.forward_limit_mw
        a_eq[regions[line.from_region], col] = -1.0
        a_eq[regions[line.to_region], col] = 1.0
    for i in range(nr):
        cost[nf + nu + nl + i], a_eq[i, nf + nu + nl + i] = VALUE_OF_LOST_LOAD, 1.0
        cost[nf + nu + nl + nr + i], a_eq[i, nf + nu + nl + nr + i] = DUMP_PENALTY, -1.0
    b_eq = list(demand.values())
    res = optimize.milp(
        cost, integrality=[0] * nf + [1] * nu + [0] * (nl + 2 * nr),
        bounds=optimize.Bounds(lower, upper),
        constraints=[optimize.LinearConstraint(a_eq, b_eq, b_eq),
                     optimize.LinearConstraint(at_most, -np.inf, 0.0),
                     optimize.LinearConstraint(at_least, 0.0, np.inf)],
        options={"mip_rel_gap": 1e-9})
    assert res.status == 0, res.message
    return res.fun, float(res.x[nf + nu + nl + nr:].sum())


# -- the dense simplex as it was -------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # non-finite | lower-bound | upper-bound | equality
    index: int
    magnitude: float

    def __str__(self):
        return f"{self.kind} [{self.index}] violated by {self.magnitude:.3e}"


_EXCESS_KINDS = ("lower-bound", "upper-bound", "equality")


def check_feasible(lp: LinearProgram, x, tol: float = FEASIBILITY_TOL) -> list[Violation]:
    """Every violated bound/constraint, and every NaN or infinite entry of ``x``,
    with its magnitude; empty iff feasible within ``tol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.n_vars,):
        raise LpFormatError(f"x has shape {x.shape}, expected ({lp.n_vars},)")
    out = [Violation("non-finite", int(j), abs(float(x[j]))) for j in np.flatnonzero(~np.isfinite(x))]
    for kind, excess in zip(_EXCESS_KINDS, (lp.lower - x, x - lp.upper, np.abs(lp.a_eq @ x - lp.b_eq))):
        out += [Violation(kind, int(i), float(excess[i])) for i in np.flatnonzero(excess > tol)]
    return out


class _ReferenceTableau:
    """Working state of the revised simplex on the program's columns and one
    artificial column per row."""

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_vars, lp.b_eq.size
        ncols = n + m  # structural + artificials
        a = np.zeros((m, ncols))
        a[:, :n] = lp.a_eq
        self.a = a
        self.b = lp.b_eq.copy()
        self.lower = np.concatenate([lp.lower, np.zeros(m)])
        self.upper = np.concatenate([lp.upper, np.full(m, INFINITE_BOUND)])
        self.n, self.m = n, m
        self.art0 = n
        self.x = np.zeros(ncols)
        self.state = np.full(ncols, _AT_LOWER, dtype=np.int8)
        self.basis = np.zeros(m, dtype=np.intp)
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.binv = np.zeros((m, m))
        self.iterations = 0

    # -- initialisation ---------------------------------------------------

    def start_cold(self):
        """Nonbasics at their finite bound closest to zero; artificial basis."""
        n, m = self.n, self.m
        lo, hi = self.lower[:n], self.upper[:n]
        at_upper = (hi < INFINITE_BOUND) & (np.abs(hi) < np.abs(lo))
        self.state[:n] = np.where(at_upper, _AT_UPPER, _AT_LOWER)
        self.x[:n] = np.where(at_upper, hi, lo)
        resid = self.b - self.a[:, :n] @ self.x[:n]
        for i in range(m):
            j = self.art0 + i
            sign = 1.0 if resid[i] >= 0 else -1.0
            self.a[i, j] = sign
            self.basis[i] = j
            self.x[j] = abs(resid[i])
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.state[self.basis] = _AT_LOWER  # ignored while basic
        self.refactor()
        return m > 0

    def start_from_hint(self, hint: BasisHint) -> bool:
        """Adopt a previous basis if its basic solution is feasible here."""
        basis = np.asarray(hint.basis, dtype=np.intp)
        nfree = self.n
        if basis.size != self.m or np.any(basis >= nfree) or np.any(basis < 0):
            return False
        if np.unique(basis).size != self.m:
            return False
        state = np.asarray(hint.nonbasic_state, dtype=np.int8)
        if state.size != nfree:
            return False
        try:
            binv = np.linalg.inv(self.a[:, basis])
        except np.linalg.LinAlgError:
            return False
        x = np.zeros_like(self.x)
        x[:nfree] = np.where(state == _AT_UPPER, self.upper[:nfree], self.lower[:nfree])
        x[basis] = 0.0
        xb = binv @ (self.b - self.a[:, :nfree] @ x[:nfree])
        if np.any(xb < self.lower[basis] - FEASIBILITY_TOL) or np.any(xb > self.upper[basis] + FEASIBILITY_TOL):
            return False
        if not np.all(np.isfinite(xb)):
            return False
        self.basis = basis.copy()
        self.binv = binv
        self.x[:] = x
        self.x[basis] = xb
        self.state[:nfree] = state
        self.in_basis[:] = False
        self.in_basis[basis] = True
        return True

    def refactor(self):
        self.binv = np.linalg.inv(self.a[:, self.basis])

    def recompute_basics(self):
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self.a @ x_nb)

    # -- simplex ----------------------------------------------------------

    def run(self, cost: np.ndarray) -> str:
        """Minimise ``cost . x`` from the current basis.  Returns a status."""
        a, lower, upper = self.a, self.lower, self.upper
        fixed = upper - lower <= 0.0  # pinned columns never enter
        since_refactor = 0
        while True:
            if self.iterations >= _MAX_ITER:
                return "numerical"
            y = self.binv.T @ cost[self.basis]
            d = cost - a.T @ y
            can_up = (~self.in_basis) & (~fixed) & (self.state != _AT_UPPER) & (d < -_REDUCED_COST_TOL)
            can_dn = (~self.in_basis) & (~fixed) & (self.state != _AT_LOWER) & (d > _REDUCED_COST_TOL)
            eligible = can_up | can_dn
            if not np.any(eligible):
                return "optimal"
            q = int(np.flatnonzero(eligible)[0])  # Bland: lowest index enters
            direction = 1.0 if can_up[q] else -1.0
            w = self.binv @ a[:, q]
            # Ratio test: basics must stay inside their bounds, the entering
            # variable may at most traverse its own range (bound flip).
            step = upper[q] - lower[q] if upper[q] < INFINITE_BOUND else np.inf
            leave = -1
            dw = direction * w
            xb = self.x[self.basis]
            for i in range(self.m):
                if dw[i] > _PIVOT_TOL:
                    t = (xb[i] - lower[self.basis[i]]) / dw[i]
                elif dw[i] < -_PIVOT_TOL:
                    if upper[self.basis[i]] >= INFINITE_BOUND:
                        continue
                    t = (upper[self.basis[i]] - xb[i]) / (-dw[i])
                else:
                    continue
                if t < -FEASIBILITY_TOL:
                    t = 0.0
                # A strictly smaller ratio wins; a tie goes to the lowest basic
                # variable index (Bland's rule).
                if t < step - _PIVOT_TOL or (t < step + _PIVOT_TOL and
                                             (leave < 0 or self.basis[i] < self.basis[leave])):
                    leave = i
                    step = min(step, max(t, 0.0))
            if not np.isfinite(step):
                return "unbounded"
            self.iterations += 1
            if leave < 0:
                # Bound flip: q crosses its range, basis unchanged.
                self.x[self.basis] = xb - step * dw
                self.x[q] = upper[q] if direction > 0 else lower[q]
                self.state[q] = _AT_UPPER if direction > 0 else _AT_LOWER
                continue
            r = self.basis[leave]
            piv = w[leave]
            if abs(piv) < _PIVOT_TOL:
                return "numerical"
            self.x[self.basis] = xb - step * dw
            self.x[q] = self.x[q] + direction * step
            hit_lower = dw[leave] > 0
            self.x[r] = lower[r] if hit_lower else upper[r]
            self.state[r] = _AT_LOWER if hit_lower else _AT_UPPER
            self.in_basis[r] = False
            self.in_basis[q] = True
            self.basis[leave] = q
            # Product-form update of the basis inverse.
            row = self.binv[leave, :] / piv
            self.binv -= np.outer(w, row)
            self.binv[leave, :] = row
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                try:
                    self.refactor()
                except np.linalg.LinAlgError:
                    return "numerical"
                self.recompute_basics()
                since_refactor = 0


def reference_solve_lp(lp: LinearProgram, basis_hint: Optional[BasisHint] = None) -> LpSolution:
    """``solve_lp`` as it was: every solve inverts its starting basis, ``run``
    rebuilds its masks each pivot and ratio-tests numpy scalars.

    Solve ``lp``; classify as optimal / infeasible / unbounded.

    Numerical breakdown is reported as status ``"numerical"``, never as a
    wrong optimum.  ``basis_hint`` (from a previous solution of a program
    that holds ``lp.a_eq`` itself) skips phase 1 when still primal feasible.  A
    hinted solve that does not end optimal is solved again from scratch;
    ``iterations`` then counts the pivots of both attempts.
    """
    tab = _ReferenceTableau(lp)
    if basis_hint is not None and basis_hint.a_eq is lp.a_eq and tab.start_from_hint(basis_hint):
        sol = _reference_phase2(lp, tab, "hint")
        if sol.is_optimal:
            return sol
        tab = _ReferenceTableau(lp)
        tab.iterations = sol.iterations
    if tab.start_cold():
        phase1_cost = np.zeros(tab.a.shape[1])
        phase1_cost[tab.art0:] = 1.0
        if tab.run(phase1_cost) != "optimal":
            # Phase 1 is bounded below by zero, so anything but an
            # optimum is a numerical breakdown.
            return LpSolution("numerical", None, None, tab.iterations, "cold")
        infeas = float(np.sum(tab.x[tab.art0:]))
        if infeas > _PHASE1_TOL:
            return LpSolution("infeasible", None, None, tab.iterations, "cold")
        # Pin artificials at zero; they may stay basic but cannot move.
        tab.lower[tab.art0:] = 0.0
        tab.upper[tab.art0:] = 0.0
        tab.x[tab.art0:] = 0.0
    return _reference_phase2(lp, tab, "cold")


def _reference_phase2(lp: LinearProgram, tab: _ReferenceTableau, start: str) -> LpSolution:
    """Minimise the true cost from the tableau's primal-feasible basis."""
    cost = np.zeros(tab.a.shape[1])
    cost[:lp.n_vars] = lp.cost
    status = tab.run(cost)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, tab.iterations, start)
    if status != "optimal":
        return LpSolution("numerical", None, None, tab.iterations, start)
    tab.refactor()
    tab.recompute_basics()
    x = tab.x[:lp.n_vars].copy()
    bad = check_feasible(lp, x, tol=1e-6)
    if bad:
        return LpSolution("numerical", None, None, tab.iterations, start)
    y = tab.binv.T @ cost[tab.basis]
    hint = BasisHint(tab.basis.copy(), tab.state[:tab.n].copy(), lp.a_eq, tab.binv)
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.cost @ x),
        iterations=tab.iterations,
        start=start,
        duals_eq=y.copy(),
        basis_hint=hint,
    )


def solution_differences(ours: LpSolution, ref: LpSolution) -> list[str]:
    """Fields in which two solutions differ: ``status``, ``iterations`` and
    ``start`` by value; ``x``, ``duals_eq``, ``objective`` and the hint's ``basis`` and
    ``nonbasic_state`` by dtype and bytes."""
    def raw(sol, key):
        owner = sol.basis_hint if key in ("basis", "nonbasic_state") else sol
        value = None if owner is None else getattr(owner, key)
        return None if value is None else (np.asarray(value).dtype.str, np.asarray(value).tobytes())

    out = [key for key in ("status", "iterations", "start") if getattr(ours, key) != getattr(ref, key)]
    return out + [key for key in ("x", "duals_eq", "objective", "basis", "nonbasic_state")
                  if raw(ours, key) != raw(ref, key)]


def restart_differences(lp: LinearProgram, ours: LpSolution, ref: LpSolution) -> list[str]:
    """Where ``ours`` departs from ``ref``, ``reference_solve_lp``'s solve of
    ``lp`` from the same hint, beyond what ``ours.start`` allows.

    A solve that started cold or from the hint as it came must match bit for
    bit (``solution_differences``), except that a cold solve's
    ``iterations`` may exceed the reference's: they also count the pivots of
    a dual restart that gave up.  A dual-restarted solve (the reference then
    started cold) may end at another optimal basis: it must give the
    reference's status, an objective and ``duals_eq`` within 1e-9 relative,
    and an ``x`` that ``check_feasible`` passes.
    """
    if ours.start != "dual":
        out = solution_differences(ours, ref)
        if ours.start == "cold" and ours.iterations > ref.iterations:
            out.remove("iterations")
        return out
    out = [] if ours.status == ref.status else ["status"]
    if ours.is_optimal and ref.is_optimal:
        if not np.isclose(ours.objective, ref.objective, rtol=1e-9, atol=1e-9):
            out.append("objective")
        if not np.allclose(ours.duals_eq, ref.duals_eq, rtol=1e-9, atol=1e-9):
            out.append("duals_eq")
        if check_feasible(lp, ours.x):
            out.append("x")
    return out


class PairedSolver:
    """``solve_lp`` stand-in that solves each LP with ``solve`` and with
    ``reference_solve_lp`` from the same hint, returns ``solve``'s solution and
    records every difference that ``restart_differences`` reports, and how
    many solves started each way."""

    def __init__(self, solve):
        self.solve = solve
        self.calls = self.hinted = 0
        self.starts = {"cold": 0, "hint": 0, "dual": 0}
        self.differences: list[tuple[int, list[str]]] = []

    def __call__(self, lp, basis_hint=None):
        ours, ref = self.solve(lp, basis_hint), reference_solve_lp(lp, basis_hint)
        diff = restart_differences(lp, ours, ref)
        if diff:
            self.differences.append((self.calls, diff))
        self.calls += 1
        self.hinted += basis_hint is not None
        self.starts[ours.start] += 1
        return ours
