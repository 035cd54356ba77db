"""Dense linear programming for small instances with bounded variables.

Solver: bounded-variable primal simplex, two phases, Bland's anti-cycling
rule (lowest eligible index enters; lowest variable index leaves on ties).
The basis inverse is maintained by product-form updates and refactorised
periodically, so repeated solves of structurally identical instances are
cheap, and a ``basis_hint`` from a previous solve can skip phase 1; a hinted
solve that does not end optimal is solved again from scratch.  Instance data
is finite, except that an upper bound may be absent.

Problems here have at most a few hundred variables; everything is dense
numpy.  Results are deterministic: solving the same instance twice yields
bitwise-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: An upper bound this large is absent; every other entry must be smaller in
#: magnitude.  Sentinel bounds never enter pivots.
INFINITE_BOUND = 1e18

#: Absolute feasibility tolerance on bounds and constraint rows.
FEASIBILITY_TOL = 1e-8

#: Relative tolerance between a reported objective and c.x.
OBJECTIVE_REL_TOL = 1e-9

# Internal pivot tolerances.
_REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-7
_REFACTOR_EVERY = 64
_MAX_ITER = 20000

# Nonbasic variable states.
_AT_LOWER = -1
_AT_UPPER = 1


class LpFormatError(ValueError):
    """Raised at construction time for dimension, bound or data inconsistencies."""


@dataclass(frozen=True)
class LinearProgram:
    """min ``cost . x`` s.t. ``a_eq x = b_eq``, ``a_ub x <= b_ub``, ``lower <= x <= upper``.

    Entries are below ``INFINITE_BOUND`` in magnitude, except an upper bound
    of ``INFINITE_BOUND`` or more (``inf`` too), which is absent.  Two-sided
    rows are expressed as a pair of ``a_ub`` rows.
    """

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.cost, dtype=float))
        n = c.size
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n) if np.size(self.a_eq) else np.zeros((0, n))
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float)) if np.size(self.b_eq) else np.zeros(0)
        a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n) if np.size(self.a_ub) else np.zeros((0, n))
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float)) if np.size(self.b_ub) else np.zeros(0)
        if lo.size != n or hi.size != n:
            raise LpFormatError(f"bounds have sizes {lo.size}/{hi.size}, expected {n}")
        if a_eq.shape[0] != b_eq.size:
            raise LpFormatError(f"a_eq has {a_eq.shape[0]} rows but b_eq has {b_eq.size}")
        if a_ub.shape[0] != b_ub.size:
            raise LpFormatError(f"a_ub has {a_ub.shape[0]} rows but b_ub has {b_ub.size}")
        for key, val in (("cost", c), ("lower", lo), ("upper", hi), ("a_eq", a_eq),
                         ("b_eq", b_eq), ("a_ub", a_ub), ("b_ub", b_ub)):
            ok = ~np.isnan(val) if key == "upper" else np.abs(val) < INFINITE_BOUND
            if not np.all(ok):
                raise LpFormatError(f"{key} has a NaN entry or one of magnitude >= {INFINITE_BOUND:g}")
            arr = np.ascontiguousarray(val)
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)
        if np.any(lo > hi):
            bad = int(np.flatnonzero(lo > hi)[0])
            raise LpFormatError(f"variable {bad}: lower bound {lo[bad]} > upper bound {hi[bad]}")

    @property
    def n_vars(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class BasisHint:
    """Opaque warm-start payload from a previous solve of a like-shaped instance."""

    basis: np.ndarray
    nonbasic_state: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int
    duals_eq: Optional[np.ndarray] = None
    basis_hint: Optional[BasisHint] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass(frozen=True)
class Violation:
    kind: str  # non-finite | lower-bound | upper-bound | equality | inequality
    index: int
    magnitude: float

    def __str__(self):
        return f"{self.kind} [{self.index}] violated by {self.magnitude:.3e}"


def check_feasible(lp: LinearProgram, x, tol: float = FEASIBILITY_TOL) -> list[Violation]:
    """Every violated bound/constraint, and every NaN or infinite entry of ``x``,
    with its magnitude; empty iff feasible within ``tol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.n_vars,):
        raise LpFormatError(f"x has shape {x.shape}, expected ({lp.n_vars},)")
    out = [Violation("non-finite", int(j), abs(float(x[j]))) for j in np.flatnonzero(~np.isfinite(x))]
    for kind, excess in (("lower-bound", lp.lower - x), ("upper-bound", x - lp.upper),
                         ("equality", np.abs(lp.a_eq @ x - lp.b_eq)), ("inequality", lp.a_ub @ x - lp.b_ub)):
        out += [Violation(kind, int(i), float(excess[i])) for i in np.flatnonzero(excess > tol)]
    return out


class _Tableau:
    """Working state of the revised simplex on the slack-augmented system."""

    def __init__(self, lp: LinearProgram):
        n, me, mu = lp.n_vars, lp.a_eq.shape[0], lp.a_ub.shape[0]
        m = me + mu
        ncols = n + mu + m  # structural + slacks + artificials
        a = np.zeros((m, ncols))
        if me:
            a[:me, :n] = lp.a_eq
        if mu:
            a[me:, :n] = lp.a_ub
            a[me:, n:n + mu] = np.eye(mu)
        self.a = a
        self.b = np.concatenate([lp.b_eq, lp.b_ub])
        self.lower = np.concatenate([lp.lower, np.zeros(mu), np.zeros(m)])
        self.upper = np.concatenate([lp.upper, np.full(mu, INFINITE_BOUND), np.full(m, INFINITE_BOUND)])
        self.n, self.me, self.mu, self.m = n, me, mu, m
        self.art0 = n + mu
        self.x = np.zeros(ncols)
        self.state = np.full(ncols, _AT_LOWER, dtype=np.int8)
        self.basis = np.zeros(m, dtype=np.intp)
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.binv = np.zeros((m, m))
        self.iterations = 0

    # -- initialisation ---------------------------------------------------

    def start_cold(self):
        """Nonbasics at their finite bound closest to zero; slack or artificial basis."""
        n, mu, m = self.n, self.mu, self.m
        lo, hi = self.lower[:n + mu], self.upper[:n + mu]
        at_upper = (hi < INFINITE_BOUND) & (np.abs(hi) < np.abs(lo))
        self.state[:n + mu] = np.where(at_upper, _AT_UPPER, _AT_LOWER)
        self.x[:n + mu] = np.where(at_upper, hi, lo)
        resid = self.b - self.a[:, :n] @ self.x[:n]
        # Slack rows whose residual is already nonnegative keep their slack
        # basic; every other row gets a signed artificial.
        use_art = np.ones(m, dtype=bool)
        for i in range(self.me, m):
            s = resid[i]
            if s >= 0.0:
                j = n + (i - self.me)
                self.basis[i] = j
                self.x[j] = s
                use_art[i] = False
        for i in np.flatnonzero(use_art):
            j = self.art0 + i
            sign = 1.0 if resid[i] >= 0 else -1.0
            self.a[i, j] = sign
            self.basis[i] = j
            self.x[j] = abs(resid[i])
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.state[self.basis] = _AT_LOWER  # ignored while basic
        self.refactor()
        return bool(np.any(use_art))

    def start_from_hint(self, hint: BasisHint) -> bool:
        """Adopt a previous basis if its basic solution is feasible here."""
        basis = np.asarray(hint.basis, dtype=np.intp)
        nfree = self.n + self.mu
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


def solve_lp(lp: LinearProgram, basis_hint: Optional[BasisHint] = None) -> LpSolution:
    """Solve ``lp``; classify as optimal / infeasible / unbounded.

    Numerical breakdown is reported as status ``"numerical"``, never as a
    wrong optimum.  ``basis_hint`` (from a previous solution of an instance
    with identical shape) skips phase 1 when still primal feasible.  A
    hinted solve that does not end optimal is solved again from scratch;
    ``iterations`` then counts the pivots of both attempts.
    """
    tab = _Tableau(lp)
    if basis_hint is not None and tab.start_from_hint(basis_hint):
        sol = _phase2(lp, tab)
        if sol.is_optimal:
            return sol
        tab = _Tableau(lp)
        tab.iterations = sol.iterations
    if tab.start_cold():
        phase1_cost = np.zeros(tab.a.shape[1])
        phase1_cost[tab.art0:] = 1.0
        if tab.run(phase1_cost) != "optimal":
            # Phase 1 is bounded below by zero, so anything but an
            # optimum is a numerical breakdown.
            return LpSolution("numerical", None, None, tab.iterations)
        infeas = float(np.sum(tab.x[tab.art0:]))
        if infeas > _PHASE1_TOL:
            return LpSolution("infeasible", None, None, tab.iterations)
        # Pin artificials at zero; they may stay basic but cannot move.
        tab.lower[tab.art0:] = 0.0
        tab.upper[tab.art0:] = 0.0
        tab.x[tab.art0:] = 0.0
    return _phase2(lp, tab)


def _phase2(lp: LinearProgram, tab: _Tableau) -> LpSolution:
    """Minimise the true cost from the tableau's primal-feasible basis."""
    cost = np.zeros(tab.a.shape[1])
    cost[:lp.n_vars] = lp.cost
    status = tab.run(cost)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, tab.iterations)
    if status != "optimal":
        return LpSolution("numerical", None, None, tab.iterations)
    tab.refactor()
    tab.recompute_basics()
    x = tab.x[:lp.n_vars].copy()
    bad = check_feasible(lp, x, tol=1e-6)
    if bad:
        return LpSolution("numerical", None, None, tab.iterations)
    y = tab.binv.T @ cost[tab.basis]
    hint = BasisHint(tab.basis.copy(), tab.state[:tab.n + tab.mu].copy())
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.cost @ x),
        iterations=tab.iterations,
        duals_eq=y[:tab.me].copy(),
        basis_hint=hint,
    )
