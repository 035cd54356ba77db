"""AC power flow on a bus/branch network, Newton-Raphson in polar form.

Networks are given per-unit on a stated MVA base; loads and injections at
the interface are in MW/MVAr.  The solver starts flat (1.0 p.u., 0 rad),
iterates full Newton steps on the polar mismatch equations to 1e-8 p.u.,
and declares failure on iteration exhaustion (20), a singular Jacobian,
or any voltage magnitude collapsing below 0.4 p.u.

The Newton kernel is written over a batch axis so that loadability sweeps
can solve thousands of operating points in lockstep.  A point's results
are the same bits whichever batch it is solved in, alone included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PF_TOLERANCE = 1e-8
PF_MAX_ITERATIONS = 20
VOLTAGE_COLLAPSE_PU = 0.4
#: System MVA base of the per-unit quantities when none is given.
DEFAULT_BASE_MVA = 100.0

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
    base_mva: float = DEFAULT_BASE_MVA

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


class _Grid:
    """Index arrays and real network matrices shared by every solve of one network.

    ``[e f] @ mix`` gives the bus currents ``[Re I, Im I]`` of voltages e + jf.
    Jacobian rows are P at pvpq then Q at pq, columns Va at pvpq then ΔVm/Vm
    at pq: both index the buses ``jbus``.  Only the entries on the bus
    diagonal or where Ybus is nonzero are computed, at flat positions
    ``jac_at``.  Off the bus diagonal an entry is c * jac_c + s * jac_s, with
    c + js = V_i conj(V_j): MATPOWER's polar ``dSbus_dV`` expressions, split
    into real and imaginary parts.  Up to four entries (P or Q row, angle or
    magnitude column) share a bus pair (i, j), so c and s are computed once
    per pair: ``pair_ef`` gathers e_i, f_i, e_j, f_j of each pair from
    ``[e f]`` and entry k reads pair ``jac_pair[k]``.
    """

    def __init__(self, net: BusNetwork):
        self.net = net
        kinds = np.array([b.kind for b in net.buses])
        self.n = n = len(net.buses)
        self.pq = np.flatnonzero(kinds == "pq")
        self.pvpq = np.flatnonzero(kinds != "slack")
        self.vset = np.array([b.v_set_pu for b in net.buses])
        self.ybus = net.ybus()
        g, b = self.ybus.real, self.ybus.imag
        self.mix = np.block([[g.T, b.T], [-b.T, g.T]])
        self.jbus = jbus = np.concatenate([self.pvpq, self.pq])
        p_row = np.arange(jbus.size) < self.pvpq.size  # also the angle columns
        y = self.ybus[np.ix_(jbus, jbus)]
        rows, cols = np.nonzero((y != 0) | (jbus[:, None] == jbus[None, :]))
        self.jac_at = rows * jbus.size + cols
        pairs, self.jac_pair = np.unique(jbus[rows] * n + jbus[cols], return_inverse=True)
        bus_i, bus_j = pairs // n, pairs % n
        self.pair_ef = np.concatenate([bus_i, n + bus_i, bus_j, n + bus_j])
        # dS_i/dVa_j = -j V_i conj(Y_ij V_j) and dS_i/dVm_j * Vm_j = V_i conj(Y_ij V_j);
        # P rows take the real part and Q rows the imaginary part.
        w = np.conj(y[rows, cols]) * np.where(p_row[cols], -1j, 1.0)
        self.jac_c = np.where(p_row[rows], w.real, w.imag)
        self.jac_s = np.where(p_row[rows], -w.imag, w.real)
        # The bus diagonal adds j S_i to an angle column and S_i to a magnitude
        # column: -Q_i, P_i, P_i, Q_i in the four blocks, read from [P, Q, -Q].
        self.diag_at = np.flatnonzero(jbus[rows] == jbus[cols])
        r, c = rows[self.diag_at], cols[self.diag_at]
        self.diag_from = np.where(p_row[c], 2 * p_row[r], ~p_row[r]) * n + jbus[c]
        self.mismatch_from = np.concatenate([self.pvpq, n + self.pq])

    def scheduled(self, loads_mw, loads_mvar, inj_mw, inj_mvar):
        """Net scheduled injections in p.u., batched (B, n)."""
        base = self.net.base_mva
        return (inj_mw - loads_mw) / base, (inj_mvar - loads_mvar) / base


def _nr_batch(grid: _Grid, p_sched: np.ndarray, q_sched: np.ndarray):
    """Flat-start Newton-Raphson over a batch of operating points.

    Returns (vm, va, converged, iterations, mismatch, cause codes).
    Cause codes: 0 ok, 1 max iterations, 2 voltage collapse, 3 singular.
    A point's results depend on its row alone: the arithmetic is real and
    elementwise, the one matrix product runs as gemm on at least two rows,
    and each Jacobian is solved on its own.
    """
    nb = p_sched.shape[0]
    n, pq, pvpq = grid.n, grid.pq, grid.pvpq
    npvpq, nj, npair = pvpq.size, grid.jbus.size, grid.pair_ef.size // 4
    vm = np.tile(grid.vset, (nb, 1))
    vm[:, pq] = 1.0  # flat start: PQ magnitudes at 1.0, PV/slack at setpoints
    va = np.zeros((nb, n))
    converged = np.zeros(nb, dtype=bool)
    cause = np.zeros(nb, dtype=np.int8)
    iters = np.zeros(nb, dtype=np.int64)
    mismatch = np.full(nb, np.inf)
    # Rows of the points still iterating; vm/va get a point's row when it leaves.
    active = np.arange(nb)
    vm_a, va_a = vm.copy(), va.copy()
    sched_a = np.concatenate([p_sched[:, pvpq], q_sched[:, pq]], axis=1)

    def leave(mask):
        rows = active[mask]
        vm[rows], va[rows] = vm_a[mask], va_a[mask]
        return rows

    for it in range(PF_MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        ef = np.concatenate([vm_a * np.cos(va_a), vm_a * np.sin(va_a)], axis=1)
        # one row would take gemv, which rounds otherwise than gemm
        cur = ef @ grid.mix if active.size > 1 else (np.concatenate([ef, ef]) @ grid.mix)[:1]
        e, f, ire, iim = ef[:, :n], ef[:, n:], cur[:, :n], cur[:, n:]
        q = f * ire - e * iim
        pqq = np.concatenate([e * ire + f * iim, q, -q], axis=1)  # [P, Q, -Q]
        dpq = pqq[:, grid.mismatch_from] - sched_a
        norm = np.abs(dpq).max(axis=1)
        mismatch[active] = norm
        ok = norm < PF_TOLERANCE
        if ok.any():
            done = leave(ok)
            converged[done] = True
            iters[done] = it
            keep = ~ok
            active, vm_a, va_a, dpq = active[keep], vm_a[keep], va_a[keep], dpq[keep]
            ef, pqq, sched_a = ef[keep], pqq[keep], sched_a[keep]
            if active.size == 0:
                break
        if it == PF_MAX_ITERATIONS:
            iters[leave(slice(None))] = it
            cause[active] = 1
            break
        efp = ef[:, grid.pair_ef]
        e_i, f_i, e_j, f_j = (efp[:, k * npair:(k + 1) * npair] for k in range(4))
        # c + js = V_i conj(V_j); off the bus diagonal an entry is c * jac_c + s * jac_s
        c = e_i * e_j + f_i * f_j
        s = f_i * e_j - e_i * f_j
        val = c[:, grid.jac_pair] * grid.jac_c
        val += s[:, grid.jac_pair] * grid.jac_s
        val[:, grid.diag_at] += pqq[:, grid.diag_from]
        jac = np.zeros((active.size, nj, nj))
        jac.reshape(-1, nj * nj)[:, grid.jac_at] = val
        try:
            dx = np.linalg.solve(jac, -dpq[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            dx = np.full((active.size, nj), np.nan)
            for k in range(active.size):
                try:
                    dx[k] = np.linalg.solve(jac[k], -dpq[k])
                except np.linalg.LinAlgError:
                    pass  # stays NaN, flagged below
        va_a[:, pvpq] += dx[:, :npvpq]
        vm_a[:, pq] *= 1.0 + dx[:, npvpq:]  # dx holds dVm/Vm there
        bad = ~np.isfinite(dx).all(axis=1)
        collapsed = vm_a.min(axis=1) < VOLTAGE_COLLAPSE_PU
        fail = bad | collapsed
        if fail.any():
            iters[leave(fail)] = it + 1
            cause[active[bad]] = 3
            cause[active[collapsed & ~bad]] = 2
            keep = ~fail
            active, vm_a, va_a = active[keep], vm_a[keep], va_a[keep]
            sched_a = sched_a[keep]
    return vm, va, converged, iters, mismatch, cause


def load_network(bus_csv, branch_csv, base_mva: float = DEFAULT_BASE_MVA) -> BusNetwork:
    """Read the documented bus/branch CSV schema.

    bus columns: bus_id,kind,p_load_mw,q_load_mvar,v_set_pu,region,gen_names
    (gen_names joins unit names with ';', may be empty)
    branch columns: from_bus,to_bus,r_pu,x_pu,b_shunt_pu
    """
    def bus(row):
        return Bus(bus_id=row["bus_id"].strip(), kind=row["kind"].strip(),
                   p_load_mw=float(row["p_load_mw"]), q_load_mvar=float(row["q_load_mvar"]),
                   v_set_pu=float(row["v_set_pu"]), region=row["region"].strip(),
                   gen_names=tuple(x for x in row.get("gen_names", "").split(";") if x))

    def branch(row):
        return Branch(from_bus=row["from_bus"].strip(), to_bus=row["to_bus"].strip(),
                      r_pu=float(row["r_pu"]), x_pu=float(row["x_pu"]),
                      b_shunt_pu=float(row.get("b_shunt_pu", 0.0)))

    return BusNetwork(_read_rows(bus_csv, "bus", bus), _read_rows(branch_csv, "branch", branch),
                      base_mva)


def _read_rows(path, what: str, make) -> tuple:
    """``make(row)`` for each CSV row of ``path``; a row it rejects names the file."""
    out = []
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                out.append(make(row))
            except (KeyError, ValueError) as exc:
                raise PowerFlowError(f"{path}: bad {what} row {row}: {exc}") from None
    return tuple(out)


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
