"""AC power flow on a bus/branch network, Newton-Raphson in polar form.

Networks are given per-unit on a stated MVA base; loads and injections at
the interface are in MW/MVAr.  The solver starts flat (1.0 p.u., 0 rad),
iterates full Newton steps on the polar mismatch equations to 1e-8 p.u.,
and declares failure on iteration exhaustion (20), a singular Jacobian,
or any voltage magnitude collapsing below 0.4 p.u.

The Newton kernel is written over a batch axis so that loadability sweeps
can solve thousands of operating points in lockstep; a single solve is a
batch of one and runs the same code.  The numbers of a point solved alone
and in a batch agree to about one ulp, not bit for bit: BLAS computes the
one-row product ``V @ Ybus.T`` by another path than the many-row one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

PF_TOLERANCE = 1e-8
PF_MAX_ITERATIONS = 20
VOLTAGE_COLLAPSE_PU = 0.4

BUS_KINDS = ("slack", "pv", "pq")


class PowerFlowError(ValueError):
    pass


@dataclass(frozen=True)
class Bus:
    bus_id: str
    kind: str  # slack | pv | pq
    p_load_mw: float = 0.0
    q_load_mvar: float = 0.0
    v_set_pu: float = 1.0
    region: str = ""
    gen_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise PowerFlowError(f"bus {self.bus_id}: unknown kind {self.kind!r}")
        if self.v_set_pu <= 0:
            raise PowerFlowError(f"bus {self.bus_id}: voltage setpoint must be positive")

    @property
    def has_load(self) -> bool:
        return self.p_load_mw != 0.0 or self.q_load_mvar != 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: str
    to_bus: str
    r_pu: float
    x_pu: float
    b_shunt_pu: float = 0.0

    def __post_init__(self):
        if self.x_pu == 0.0:
            raise PowerFlowError(f"branch {self.from_bus}-{self.to_bus}: zero reactance")


@dataclass(frozen=True)
class BusNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise PowerFlowError("duplicate bus ids")
        slacks = [b.bus_id for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise PowerFlowError(f"need exactly one slack bus, found {slacks}")
        if self.base_mva <= 0:
            raise PowerFlowError("base MVA must be positive")
        index = {bid: i for i, bid in enumerate(ids)}
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise PowerFlowError(f"branch references unknown bus {end!r}")
        # connectivity
        adj = {bid: set() for bid in ids}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(ids):
            raise PowerFlowError(f"network is not connected; unreachable: {sorted(set(ids) - seen)}")

    def ybus(self) -> np.ndarray:
        n = len(self.buses)
        index = {b.bus_id: i for i, b in enumerate(self.buses)}
        y = np.zeros((n, n), dtype=complex)
        for br in self.branches:
            i, j = index[br.from_bus], index[br.to_bus]
            ys = 1.0 / complex(br.r_pu, br.x_pu)
            sh = 1j * br.b_shunt_pu / 2.0
            y[i, i] += ys + sh
            y[j, j] += ys + sh
            y[i, j] -= ys
            y[j, i] -= ys
        return y

    def region_buses(self, region: str) -> list[Bus]:
        out = [b for b in self.buses if b.region == region]
        if not out:
            raise PowerFlowError(f"no buses tagged with region {region!r}")
        return out

    def with_loads(self, loads: Mapping[str, tuple[float, float]]) -> "BusNetwork":
        """Copy of the network with (P, Q) bus loads replaced where given."""
        known = {b.bus_id for b in self.buses}
        for bid in loads:
            if bid not in known:
                raise PowerFlowError(f"unknown bus {bid!r} in load override")
        new = tuple(
            replace(b, p_load_mw=loads[b.bus_id][0], q_load_mvar=loads[b.bus_id][1])
            if b.bus_id in loads else b
            for b in self.buses
        )
        return BusNetwork(new, self.branches, self.base_mva)


def scale_loads(net: BusNetwork, region: str, lam: float) -> BusNetwork:
    """Multiply P and Q of every load bus in ``region`` by ``lam``.

    Q scales with P, so each bus keeps its power factor.
    """
    if lam < 1.0:
        raise PowerFlowError(f"load scaling factor {lam} must be >= 1")
    net.region_buses(region)  # raises on unknown region
    new = tuple(
        replace(b, p_load_mw=lam * b.p_load_mw, q_load_mvar=lam * b.q_load_mvar)
        if b.region == region and b.has_load else b
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


class _Grid:
    """Index arrays and Ybus shared by every solve of one network."""

    def __init__(self, net: BusNetwork):
        self.net = net
        kinds = np.array([b.kind for b in net.buses])
        self.n = len(net.buses)
        self.slack = int(np.flatnonzero(kinds == "slack")[0])
        self.pq = np.flatnonzero(kinds == "pq")
        self.pvpq = np.flatnonzero(kinds != "slack")
        self.vset = np.array([b.v_set_pu for b in net.buses])
        self.ybus = net.ybus()
        self.y_va = self.ybus[np.ix_(self.pvpq, self.pvpq)]
        self.y_vm = self.ybus[np.ix_(self.pvpq, self.pq)]

    def scheduled(self, loads_mw, loads_mvar, inj_mw, inj_mvar):
        """Net scheduled injections in p.u., batched (B, n)."""
        base = self.net.base_mva
        return (inj_mw - loads_mw) / base, (inj_mvar - loads_mvar) / base


def _nr_batch(grid: _Grid, p_sched: np.ndarray, q_sched: np.ndarray):
    """Flat-start Newton-Raphson over a batch of operating points.

    Returns (vm, va, converged, iterations, mismatch, cause codes).
    Cause codes: 0 ok, 1 max iterations, 2 voltage collapse, 3 singular.
    """
    nb = p_sched.shape[0]
    y = grid.ybus
    pq, pvpq = grid.pq, grid.pvpq
    npvpq, npq = pvpq.size, pq.size
    vm = np.tile(grid.vset, (nb, 1))
    vm[:, pq] = 1.0  # flat start: PQ magnitudes at 1.0, PV/slack at setpoints
    va = np.zeros((nb, grid.n))
    converged = np.zeros(nb, dtype=bool)
    cause = np.zeros(nb, dtype=np.int8)
    iters = np.zeros(nb, dtype=np.int64)
    mismatch = np.full(nb, np.inf)
    # Rows of the points still iterating; vm/va get a point's row when it leaves.
    active = np.arange(nb)
    vm_a, va_a = vm.copy(), va.copy()
    p_a, q_a = p_sched[:, pvpq], q_sched[:, pq]
    # Only the Jacobian's entries are built: dS/dVa on pvpq x pvpq and
    # dS/dVm on pvpq x pq, each by MATPOWER's dSbus_dV expression.
    va_diag = np.arange(npvpq)
    vm_diag_row = np.searchsorted(pvpq, pq)  # row of each pq bus within pvpq
    vm_diag_col = np.arange(npq)

    def leave(mask):
        rows = active[mask]
        vm[rows], va[rows] = vm_a[mask], va_a[mask]
        return rows

    for it in range(PF_MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        vnorm = np.exp(1j * va_a)
        v = vm_a * vnorm
        ibus = v @ y.T
        s = v * np.conj(ibus)
        f = np.concatenate([s.real[:, pvpq] - p_a, s.imag[:, pq] - q_a], axis=1)
        norm = np.max(np.abs(f), axis=1)
        mismatch[active] = norm
        ok = norm < PF_TOLERANCE
        if np.any(ok):
            done = leave(ok)
            converged[done] = True
            iters[done] = it
            keep = ~ok
            active, vm_a, va_a, f = active[keep], vm_a[keep], va_a[keep], f[keep]
            p_a, q_a = p_a[keep], q_a[keep]
            if active.size == 0:
                break
            v, vnorm = v[keep], vnorm[keep]
            ibus = v @ y.T  # not ibus[keep]: BLAS rounds by batch size
        if it == PF_MAX_ITERATIONS:
            iters[leave(slice(None))] = it
            cause[active] = 1
            break
        m1 = -grid.y_va[None, :, :] * v[:, None, pvpq]
        m1[:, va_diag, va_diag] += ibus[:, pvpq]
        ds_dva = 1j * v[:, pvpq, None] * np.conj(m1)
        m2 = grid.y_vm[None, :, :] * vnorm[:, None, pq]
        ds_dvm = v[:, pvpq, None] * np.conj(m2)
        ds_dvm[:, vm_diag_row, vm_diag_col] += np.conj(ibus[:, pq]) * vnorm[:, pq]
        jac = np.empty((active.size, npvpq + npq, npvpq + npq))
        jac[:, :npvpq, :npvpq] = ds_dva.real
        jac[:, :npvpq, npvpq:] = ds_dvm.real
        jac[:, npvpq:, :npvpq] = ds_dva.imag[:, vm_diag_row]
        jac[:, npvpq:, npvpq:] = ds_dvm.imag[:, vm_diag_row]
        try:
            dx = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            dx = np.full((active.size, npvpq + npq), np.nan)
            for k in range(active.size):
                try:
                    dx[k] = np.linalg.solve(jac[k], -f[k])
                except np.linalg.LinAlgError:
                    pass  # stays NaN, flagged below
        va_a[:, pvpq] += dx[:, :npvpq]
        vm_a[:, pq] += dx[:, npvpq:]
        bad = ~np.all(np.isfinite(dx), axis=1)
        collapsed = np.min(vm_a, axis=1) < VOLTAGE_COLLAPSE_PU
        fail = bad | collapsed
        if np.any(fail):
            iters[leave(fail)] = it + 1
            cause[active[bad]] = 3
            cause[active[collapsed & ~bad]] = 2
            keep = ~fail
            active, vm_a, va_a = active[keep], vm_a[keep], va_a[keep]
            p_a, q_a = p_a[keep], q_a[keep]
    return vm, va, converged, iters, mismatch, cause


_CAUSE_NAMES = {0: "", 1: "max_iterations", 2: "voltage_collapse", 3: "singular_jacobian"}


def _branch_flows(net: BusNetwork, vm: np.ndarray, va: np.ndarray):
    index = {b.bus_id: i for i, b in enumerate(net.buses)}
    v = vm * np.exp(1j * va)
    nbr = len(net.branches)
    s_from = np.zeros(nbr, dtype=complex)
    s_to = np.zeros(nbr, dtype=complex)
    for k, br in enumerate(net.branches):
        i, j = index[br.from_bus], index[br.to_bus]
        ys = 1.0 / complex(br.r_pu, br.x_pu)
        sh = 1j * br.b_shunt_pu / 2.0
        i_from = (v[i] - v[j]) * ys + v[i] * sh
        i_to = (v[j] - v[i]) * ys + v[j] * sh
        s_from[k] = v[i] * np.conj(i_from) * net.base_mva
        s_to[k] = v[j] * np.conj(i_to) * net.base_mva
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
    n = grid.n
    loads_p = np.array([[b.p_load_mw for b in net.buses]])
    loads_q = np.array([[b.q_load_mvar for b in net.buses]])
    inj_p = np.zeros((1, n))
    inj_q = np.zeros((1, n))
    if injections:
        index = {b.bus_id: i for i, b in enumerate(net.buses)}
        for bid, (p, q) in injections.items():
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


def load_network(bus_csv, branch_csv, base_mva: float = 100.0) -> BusNetwork:
    """Read the documented bus/branch CSV schema.

    bus columns: bus_id,kind,p_load_mw,q_load_mvar,v_set_pu,region,gen_names
    (gen_names joins unit names with ';', may be empty)
    branch columns: from_bus,to_bus,r_pu,x_pu,b_shunt_pu
    """
    buses = []
    with Path(bus_csv).open(newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                buses.append(Bus(
                    bus_id=row["bus_id"].strip(),
                    kind=row["kind"].strip(),
                    p_load_mw=float(row["p_load_mw"]),
                    q_load_mvar=float(row["q_load_mvar"]),
                    v_set_pu=float(row["v_set_pu"]),
                    region=row["region"].strip(),
                    gen_names=tuple(x for x in row.get("gen_names", "").split(";") if x),
                ))
            except (KeyError, ValueError) as exc:
                raise PowerFlowError(f"{bus_csv}: bad bus row {row}: {exc}") from None
    branches = []
    with Path(branch_csv).open(newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                branches.append(Branch(
                    from_bus=row["from_bus"].strip(),
                    to_bus=row["to_bus"].strip(),
                    r_pu=float(row["r_pu"]),
                    x_pu=float(row["x_pu"]),
                    b_shunt_pu=float(row.get("b_shunt_pu", 0.0)),
                ))
            except (KeyError, ValueError) as exc:
                raise PowerFlowError(f"{branch_csv}: bad branch row {row}: {exc}") from None
    return BusNetwork(tuple(buses), tuple(branches), base_mva)


def write_network(net: BusNetwork, bus_csv, branch_csv) -> None:
    with Path(bus_csv).open("w", newline="") as fh:
        fh.write("bus_id,kind,p_load_mw,q_load_mvar,v_set_pu,region,gen_names\n")
        for b in net.buses:
            fh.write(f"{b.bus_id},{b.kind},{float(b.p_load_mw)!r},{float(b.q_load_mvar)!r},"
                     f"{float(b.v_set_pu)!r},{b.region},{';'.join(b.gen_names)}\n")
    with Path(branch_csv).open("w", newline="") as fh:
        fh.write("from_bus,to_bus,r_pu,x_pu,b_shunt_pu\n")
        for br in net.branches:
            fh.write(f"{br.from_bus},{br.to_bus},{float(br.r_pu)!r},{float(br.x_pu)!r},"
                     f"{float(br.b_shunt_pu)!r}\n")
