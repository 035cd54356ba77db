"""AC power flow on a bus/branch network, Newton-Raphson in polar form.

Networks are given per-unit on a stated MVA base; loads and injections at
the interface are in MW/MVAr.  The solver starts flat (1.0 p.u., 0 rad),
iterates full Newton steps on the polar mismatch equations to 1e-8 p.u.,
and declares failure on iteration exhaustion (20), a singular Jacobian
(or a linear solve that fails its backward-error check), or any voltage
magnitude collapsing below 0.4 p.u.

The Newton kernel is a pool of operating points (``_NewtonPool``), each at
its own iteration: points join between iterations, at a flat start or at
given voltages, and leave as soon as they end, so a loadability sweep
keeps a probe of each hour in the pool while its hours search at their
own pace.  The linear solve of every step is a sparse LU on the
Jacobian's fixed pattern.  A point's results are the same bits whichever
points share the pool with it, none included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PF_TOLERANCE = 1e-8
PF_MAX_ITERATIONS = 20
VOLTAGE_COLLAPSE_PU = 0.4
#: Largest backward error of a Newton step's linear solve (see ``_newton_step``).
SOLVE_BACKWARD_ERROR = 1e-10
#: Most rows of one gemm in ``_injections``.  OpenBLAS 0.3.31 ran the
#: (rows x 2n) @ (2n x 2n) gemm of the study network on both CPUs of a 2-vCPU
#: host from 1,536 rows on, and its second thread then spun between calls: a
#: one-process year sweep took twice its wall time in CPU, and the spinning
#: thread of each forked sweep worker slowed the others.  Per row, a gemm's
#: bits do not depend on how many rows it has, once it has two.
GEMM_ROWS = 1024
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
    ``jac_at`` in residual order: for k = 0, 1, ..., entry k (in column
    order) of every row with more than k entries, rows longest first
    (``res_rows``); ``res_cut`` ends the run of each k.  The residual
    J dx + F of a step then takes one slice add per k and adds each row's
    entries left to right, the bits of a sum row by row.  ``np.add.reduceat``
    rounds otherwise on rows of three entries or more, and a gather into a
    zero-padded (rows x longest row) block keeps the bits but costs more at
    large pools.  These are MATPOWER's polar ``dSbus_dV`` expressions
    in real arithmetic: with v + ju = conj(Y_ij) V_i conj(V_j), dS_i/dVa_j is
    -j (v + ju) and dS_i/dVm_j * Vm_j is v + ju, and the bus diagonal adds
    S_i terms.  Up to four entries (P or Q row, angle or magnitude column)
    share a bus pair (i, j), so u and v are computed once per pair:
    ``pair_ef`` gathers e_i, f_i, e_j, f_j of each pair from ``[e f]``, and
    entry k reads row ``jac_from[k]`` of [u; v; -v].

    The Newton step solves [J | -F] by sparse LU in natural order without
    pivoting (Tinney & Walker, 1967) on a pattern that the network fixes, so
    the symbolic factorisation is done here once and each step only
    refactors values, as KLU does (Davis & Palamadai Natarajan, 2010).  The
    values of one point are a column of ``lu_slots`` slots, pivot by pivot:
    the pivot, the column below it, then the row right of it, whose last
    slot is the right-hand side and ends up holding the step.  Jacobian
    entry k goes to slot ``jac_slot[k]``; the other slots are fill-in.
    ``lu_forward`` holds, per pivot with a column below it, the pivot's
    slot, the bounds of that column and row, and the slots their products
    update; ``lu_back`` holds, per pivot from the last, its slot, its
    right-hand-side slot, and the slots above it with their right-hand-side
    slots.  On the study network that is 73 entries, 81 slots and 101
    updates of the Jacobian, against 225 and about 1,100 for dense LU.
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
        # Residual order: entry k of every row with more than k entries, longest rows first.
        count = np.bincount(rows, minlength=jbus.size)
        self.res_rows = np.argsort(-count, kind="stable")
        first = np.searchsorted(rows, self.res_rows)
        depth = [np.sum(count > k) for k in range(count.max())]
        order = np.concatenate([first[:m] + k for k, m in enumerate(depth)])
        rows, cols = rows[order], cols[order]
        self.res_cut = np.cumsum(depth).tolist()
        self.jac_at = rows * jbus.size + cols
        pairs, pair_of = np.unique(jbus[rows] * n + jbus[cols], return_inverse=True)
        bus_i, bus_j = pairs // n, pairs % n
        self.pair_ef = np.concatenate([bus_i, n + bus_i, bus_j, n + bus_j])
        self.pair_g = self.ybus.real[bus_i, bus_j][:, None]
        self.pair_b = self.ybus.imag[bus_i, bus_j][:, None]
        # P rows read u at angle columns and v at magnitude columns, Q rows -v and u.
        block = np.where(p_row[cols], np.where(p_row[rows], 0, 2), np.where(p_row[rows], 1, 0))
        self.jac_from = block * pairs.size + pair_of
        # The bus diagonal adds j S_i to an angle column and S_i to a magnitude
        # column: -Q_i, P_i, P_i, Q_i in the four blocks, read from [P, Q, -Q].
        self.diag_at = np.flatnonzero(jbus[rows] == jbus[cols])
        r, c = rows[self.diag_at], cols[self.diag_at]
        self.diag_from = np.where(p_row[c], 2 * p_row[r], ~p_row[r]) * n + jbus[c]
        self.mismatch_from = np.concatenate([self.pvpq, n + self.pq])
        self.jac_col = cols
        self._factor_symbolically(rows.tolist(), cols.tolist())

    def _factor_symbolically(self, rows, cols):
        nj = self.jbus.size
        pattern = set(zip(rows, cols)) | {(i, nj) for i in range(nj)}  # [J | -F]
        below, right = [], []
        for k in range(nj):  # eliminating k fills (i, j) from (i, k) and (k, j)
            below.append([i for i in range(k + 1, nj) if (i, k) in pattern])
            right.append([j for j in range(k + 1, nj + 1) if (k, j) in pattern])
            pattern.update((i, j) for i in below[k] for j in right[k])
        slot = {}
        for k in range(nj):  # the pivot, the column below it, the row right of it
            for at in [(k, k), *((i, k) for i in below[k]), *((k, j) for j in right[k])]:
                slot[at] = len(slot)
        self.lu_slots = len(slot)
        self.jac_slot = np.array([slot[at] for at in zip(rows, cols)])
        self.rhs_slot = np.array([slot[i, nj] for i in range(nj)])
        self.lu_forward = []
        for k in range(nj):
            if below[k]:
                lo = slot[k, k] + 1
                mid = lo + len(below[k])
                target = [slot[i, j] for i in below[k] for j in right[k]]
                self.lu_forward.append((slot[k, k], lo, mid, mid + len(right[k]),
                                        np.array(target)))
        self.lu_back = []
        for k in reversed(range(nj)):
            above = [i for i in range(k) if k in right[i]]
            self.lu_back.append((slot[k, k], slot[k, nj],
                                 np.array([slot[i, k] for i in above], dtype=int),
                                 np.array([slot[i, nj] for i in above], dtype=int)))

    def scheduled(self, loads_mw, loads_mvar, inj_mw, inj_mvar):
        """Net scheduled injections in p.u., batched (B, n)."""
        base = self.net.base_mva
        return (inj_mw - loads_mw) / base, (inj_mvar - loads_mvar) / base


def _injections(grid: _Grid, vm: np.ndarray, va: np.ndarray):
    """Voltages ``[e f]`` and injected powers ``[P, Q, -Q]`` (B rows each) in p.u."""
    n = grid.n
    ef = np.concatenate([vm * np.cos(va), vm * np.sin(va)], axis=1)
    # One row would take gemv, which rounds otherwise than gemm.  More rows go
    # in even blocks of at most GEMM_ROWS rows, so of two rows at least; no
    # rows go in one empty block.
    if len(ef) == 1:
        cur = (np.concatenate([ef, ef]) @ grid.mix)[:1]
    else:
        cur = np.empty_like(ef)
        blocks = max(1, -(-len(ef) // GEMM_ROWS))
        cuts = [len(ef) * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            np.matmul(ef[lo:hi], grid.mix, out=cur[lo:hi])
    e, f, ire, iim = ef[:, :n], ef[:, n:], cur[:, :n], cur[:, n:]
    q = f * ire - e * iim
    return ef, np.concatenate([e * ire + f * iim, q, -q], axis=1)


def _jacobian(grid: _Grid, ef: np.ndarray, pqq: np.ndarray) -> np.ndarray:
    """Jacobian entries (nnz, B), in ``jac_at`` order, at voltages ``[e f]`` and powers
    ``[P, Q, -Q]`` (B rows each)."""
    nb, npair = len(ef), grid.pair_g.size
    gathered = np.ascontiguousarray(ef.T).take(grid.pair_ef, axis=0)
    e_i, f_i, e_j, f_j = gathered.reshape(4, npair, nb)
    c = e_i * e_j + f_i * f_j  # c + js = V_i conj(V_j)
    s = f_i * e_j - e_i * f_j
    del gathered, e_i, f_i, e_j, f_j  # free the gathered voltages first: peak memory
    uv = np.empty((3, npair, nb))  # [u; v; -v]
    np.multiply(grid.pair_g, s, out=uv[0])
    uv[0] -= grid.pair_b * c
    np.multiply(grid.pair_g, c, out=uv[1])
    uv[1] += grid.pair_b * s
    np.negative(uv[1], out=uv[2])
    del c, s
    val = uv.reshape(3 * npair, nb).take(grid.jac_from, axis=0)
    val[grid.diag_at] += pqq.T[grid.diag_from]
    return val


def _newton_step(grid: _Grid, ef: np.ndarray, pqq: np.ndarray, dpq: np.ndarray,
                 norm: np.ndarray):
    """Newton steps dx (B, nj) of points with voltages ``[e f]``, powers
    ``[P, Q, -Q]`` and mismatches F (max norms ``norm``), and which are sound.

    A step is sound when it is finite and its backward error
    ||J dx + F|| / (||J|| ||dx|| + ||F||), in max norms, is at most
    ``SOLVE_BACKWARD_ERROR``.  The LU does not pivot: a zero pivot makes the
    step non-finite, and a tiny one makes the backward error large.  An
    unsound step is all zeros.  A point's results depend on its row alone.
    """
    nb, nj = len(ef), grid.jbus.size
    val = _jacobian(grid, ef, pqq)
    lu = np.zeros((grid.lu_slots, nb))
    lu[grid.jac_slot] = val
    lu[grid.rhs_slot] = -dpq.T
    with np.errstate(all="ignore"):  # unsound steps are flagged below
        for pivot, lo, mid, hi, target in grid.lu_forward:
            low = lu[lo:mid]
            low /= lu[pivot]
            update = lu.take(target, axis=0)
            update -= (low[:, None] * lu[mid:hi]).reshape(target.size, nb)
            lu[target] = update
        for pivot, xk, above, above_x in grid.lu_back:
            lu[xk] /= lu[pivot]
            if above.size:
                update = lu.take(above_x, axis=0)
                update -= lu.take(above, axis=0) * lu[xk]
                lu[above_x] = update
        x = lu.take(grid.rhs_slot, axis=0)
        del lu  # before the residual's arrays: peak memory
        jdx = x.take(grid.jac_col, axis=0)
        jdx *= val
        residual = _residual(grid, jdx, dpq)
        size = np.maximum(val.max(axis=0), -val.min(axis=0)) * np.abs(x).max(axis=0) + norm
        sound = np.isfinite(x).all(axis=0) & (np.abs(residual).max(axis=0)
                                              <= SOLVE_BACKWARD_ERROR * size)
    x[:, ~sound] = 0.0
    return x.T, sound


def _residual(grid: _Grid, jdx: np.ndarray, dpq: np.ndarray) -> np.ndarray:
    """J dx + F (nj, B) with rows in ``res_rows`` order, from the products
    J_ij dx_j (nnz, B) in ``jac_at`` order, which it overwrites, and the
    mismatches F (B, nj).  Each row adds its entries left to right, then F:
    the bits of ``np.sum`` over the row's entries, plus F."""
    residual = jdx[:grid.jbus.size]
    for lo, hi in zip(grid.res_cut, grid.res_cut[1:]):
        residual[:hi - lo] += jdx[lo:hi]
    residual += dpq.T[grid.res_rows]
    return residual


class _NewtonPool:
    """Newton-Raphson on operating points that join and leave between iterations.

    Each point keeps its own iteration count.  ``add`` puts points in under
    integer tags, at a flat start (1.0 p.u. at PQ buses, setpoints
    elsewhere, angles 0) or at given voltages; ``iterate`` takes every
    point one iteration further and returns those that ended, as (tag, vm,
    va, converged, iterations, mismatch, cause code) arrays.  A point ends
    when its mismatch is under ``PF_TOLERANCE`` (cause 0) or, failing that,
    after ``PF_MAX_ITERATIONS`` steps (cause 1), when a voltage magnitude
    falls under ``VOLTAGE_COLLAPSE_PU`` (cause 2), or when its Newton step is
    unsound (cause 3: the Jacobian is singular or the LU lost its accuracy;
    the point keeps the voltages it had before that step).  ``iterations``
    counts the steps taken.  A point's results depend on its row alone: the
    arithmetic is real and elementwise, and the one matrix product runs as
    gemm on at least two rows.
    """

    def __init__(self, grid: _Grid):
        self.grid = grid
        self.tag = np.empty(0, dtype=np.int64)
        self.it = np.empty(0, dtype=np.int64)
        self.vm, self.va = np.empty((2, 0, grid.n))
        self.sched = np.empty((0, grid.jbus.size))

    def __len__(self) -> int:
        return self.tag.size

    def add(self, tag: np.ndarray, p_sched: np.ndarray, q_sched: np.ndarray,
            start: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """Add points with scheduled injections (B, n) in p.u., at a flat start
        or at the voltages ``start``: (vm, va) arrays (B, n)."""
        grid = self.grid
        if start is None:
            vm = np.tile(grid.vset, (len(tag), 1))
            vm[:, grid.pq] = 1.0
            start = vm, np.zeros_like(vm)
        self.tag = np.concatenate([self.tag, tag])
        self.it = np.concatenate([self.it, np.zeros(len(tag), dtype=np.int64)])
        self.vm = np.concatenate([self.vm, start[0]])
        self.va = np.concatenate([self.va, start[1]])
        sched = np.concatenate([p_sched[:, grid.pvpq], q_sched[:, grid.pq]], axis=1)
        self.sched = np.concatenate([self.sched, sched])

    def iterate(self):
        """Take every point one iteration further; return the points that ended."""
        grid = self.grid
        ef, pqq = _injections(grid, self.vm, self.va)
        dpq = pqq.take(grid.mismatch_from, axis=1)
        dpq -= self.sched
        norm = np.abs(dpq).max(axis=1)
        converged = norm < PF_TOLERANCE
        stop = converged | (self.it == PF_MAX_ITERATIONS)
        # Rows are gathered by index with take, several times faster than a[index].
        at = stop.nonzero()[0]
        done = converged.take(at)
        stopped = (self.tag.take(at), self.vm.take(at, axis=0), self.va.take(at, axis=0), done,
                   self.it.take(at), norm.take(at), np.where(done, np.int8(0), np.int8(1)))
        rows = (~stop).nonzero()[0]
        # the full arrays go: peak memory
        ef, pqq, dpq = ef.take(rows, axis=0), pqq.take(rows, axis=0), dpq.take(rows, axis=0)
        dx, sound = _newton_step(grid, ef, pqq, dpq, norm.take(rows))
        vm, va = self.vm.take(rows, axis=0), self.va.take(rows, axis=0)
        it = self.it.take(rows) + 1
        npvpq = grid.pvpq.size
        va[:, grid.pvpq] += dx[:, :npvpq]
        vm[:, grid.pq] *= 1.0 + dx[:, npvpq:]  # dx holds dVm/Vm there
        fail = ~sound | (vm.min(axis=1) < VOLTAGE_COLLAPSE_PU)
        at, stay = fail.nonzero()[0], (~fail).nonzero()[0]
        gone = rows.take(at)
        failed = (self.tag.take(gone), vm.take(at, axis=0), va.take(at, axis=0),
                  np.zeros(at.size, dtype=bool), it.take(at), norm.take(gone),
                  np.where(sound.take(at), np.int8(2), np.int8(3)))
        kept = rows.take(stay)
        self.tag, self.sched = self.tag.take(kept), self.sched.take(kept, axis=0)
        self.it, self.vm, self.va = it.take(stay), vm.take(stay, axis=0), va.take(stay, axis=0)
        return tuple(np.concatenate(pair) for pair in zip(stopped, failed))


def _nr_batch(grid: _Grid, p_sched: np.ndarray, q_sched: np.ndarray):
    """Flat-start Newton-Raphson over a batch of operating points.

    Returns (vm, va, converged, iterations, mismatch, cause codes), one row
    per point.  Cause codes: 0 ok, 1 max iterations, 2 voltage collapse,
    3 singular (see ``_NewtonPool``, which this loads with every point and
    runs until the last one ends).  A point's results depend on its row alone.
    """
    nb = p_sched.shape[0]
    results = (np.empty((nb, grid.n)), np.empty((nb, grid.n)), np.zeros(nb, dtype=bool),
               np.zeros(nb, dtype=np.int64), np.full(nb, np.inf), np.zeros(nb, dtype=np.int8))
    pool = _NewtonPool(grid)
    pool.add(np.arange(nb), p_sched, q_sched)
    while len(pool):
        tag, *ended = pool.iterate()
        for out, values in zip(results, ended):
            out[tag] = values
    return results


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
