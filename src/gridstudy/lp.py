"""Dense linear programming for small instances with bounded variables.

A program is equality rows over bounded variables; bounds stay out of the
basis, kept by the ratio test and bound flips (Maros, *Computational
Techniques of the Simplex Method*, 2003).  Solver: bounded-variable primal
simplex, two phases, Bland's anti-cycling rule (lowest eligible index
enters; lowest variable index leaves on ties), phase 1 from one artificial
per row.  The basis inverse is
maintained by product-form updates and refactorised periodically.  A
``basis_hint`` from a previous optimal solve can skip phase 1: it carries
the optimal basis, its inverse and the constraint matrix it was solved on.
A program that holds that same matrix object, as every ``reinstance`` of
the hint's program does, adopts the basis and its inverse as they are; any
other program starts from scratch.  A hinted basis whose basic
solution leaves its bounds is restarted by a bounded dual simplex when its
reduced costs still have the signs that its nonbasics' bound states call
for, as they do when only bounds and right-hand sides moved since the
hint's solve; the primal simplex then finishes from the primal-feasible
basis the dual simplex reaches.  A hint that is not dual feasible, or
whose dual simplex finds no entering column or runs out of pivots, is
dropped for phase 1 from scratch, so "infeasible" is always phase 1's
verdict.  A hinted solve that does not end optimal is solved again from
scratch.  Each solution names how it started.
``LinearProgram.reinstance`` gives a program the same matrices with new
vectors and checks only the new vectors, so a caller that solves one
structure many times validates its matrices once.  A program owns its
arrays: the constructor and ``reinstance`` copy what they are given.
Instance data is finite, except that an upper bound may be absent.

Problems here have at most a few hundred variables; everything is dense
numpy.  Results are deterministic: solving the same instance from the
same hint, or from none, twice yields bitwise-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

#: An upper bound this large is absent; every other entry must be smaller in
#: magnitude.  Sentinel bounds never enter pivots.
INFINITE_BOUND = 1e18

#: Absolute feasibility tolerance on bounds and constraint rows.
FEASIBILITY_TOL = 1e-8

# Internal pivot tolerances.
_REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-7
_REFACTOR_EVERY = 64
_MAX_ITER = 20000

# Nonbasic variable states.
_AT_LOWER = -1
_AT_UPPER = 1

_FIELDS = ("cost", "lower", "upper", "a_eq", "b_eq")


class LpFormatError(ValueError):
    """Raised at construction time for dimension, bound or data inconsistencies."""


def _vector(value) -> np.ndarray:
    arr = np.array(value, dtype=float, ndmin=1)
    return arr if arr.size else np.zeros(0)


def _validated(values: dict[str, np.ndarray], check: Iterable[str]) -> dict[str, np.ndarray]:
    """``values`` (the five fields as float arrays) with the fields named in
    ``check`` checked, made contiguous and read-only; raises ``LpFormatError``."""
    n = values["cost"].size
    lo, hi = values["lower"], values["upper"]
    if lo.size != n or hi.size != n:
        raise LpFormatError(f"bounds have sizes {lo.size}/{hi.size}, expected {n}")
    rows, cols = values["a_eq"].shape
    if cols != n:
        raise LpFormatError(f"a_eq has {cols} columns but cost has {n} entries")
    if rows != values["b_eq"].size:
        raise LpFormatError(f"a_eq has {rows} rows but b_eq has {values['b_eq'].size}")
    check = set(check)
    for key in _FIELDS:
        if key not in check:
            continue
        val = values[key]
        # max() propagates a NaN, and a NaN compares below nothing.
        bad = np.isnan(val).any() if key == "upper" else not np.abs(val).max(initial=0.0) < INFINITE_BOUND
        if bad:
            raise LpFormatError(f"{key} has a NaN entry or one of magnitude >= {INFINITE_BOUND:g}")
        arr = np.ascontiguousarray(val)
        arr.setflags(write=False)
        values[key] = arr
    if "lower" in check or "upper" in check:
        crossed = lo > hi
        if crossed.any():
            bad = int(np.argmax(crossed))
            raise LpFormatError(f"variable {bad}: lower bound {lo[bad]} > upper bound {hi[bad]}")
    return values


@dataclass(frozen=True)
class LinearProgram:
    """min ``cost . x`` s.t. ``a_eq x = b_eq``, ``lower <= x <= upper``.

    Entries are below ``INFINITE_BOUND`` in magnitude, except an upper bound
    of ``INFINITE_BOUND`` or more (``inf`` too), which is absent.  A row
    ``a x <= b`` is written as the equality ``a x + s = b`` over a slack
    column ``s`` in ``[0, inf)``.
    """

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        c = _vector(self.cost)
        a_eq = (np.array(self.a_eq, dtype=float).reshape(-1, c.size) if np.size(self.a_eq)
                else np.zeros((0, c.size)))
        values = {"cost": c, "lower": _vector(self.lower), "upper": _vector(self.upper),
                  "a_eq": a_eq, "b_eq": _vector(self.b_eq)}
        for key, arr in _validated(values, _FIELDS).items():
            object.__setattr__(self, key, arr)

    def reinstance(self, *, cost=None, lower=None, upper=None, b_eq=None) -> LinearProgram:
        """This program with the given vectors replaced.

        The matrices and every vector not given are shared, read-only, with
        this program, so a hint from either program fits the other.  The
        given vectors are copied and checked by the constructor's rules and
        with its messages; nothing else is checked again.
        """
        given = {key: _vector(value) for key, value in (
            ("cost", cost), ("lower", lower), ("upper", upper), ("b_eq", b_eq))
            if value is not None}
        values = _validated({**vars(self), **given}, given)
        out = object.__new__(LinearProgram)
        vars(out).update(values)
        return out

    @property
    def n_vars(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class BasisHint:
    """Warm-start payload from a previous optimal solve, bound to its program.

    ``basis`` and ``nonbasic_state`` name the basis, ``a_eq`` is the
    read-only constraint matrix of the program that was solved and
    ``inverse`` the read-only inverse of the basis columns from the solve's
    final factorisation.  A solve adopts the hint only when its program
    holds that same matrix object (``hint.a_eq is lp.a_eq``), and then
    takes ``inverse`` as it is.
    """

    basis: np.ndarray
    nonbasic_state: np.ndarray
    a_eq: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int
    #: How the attempt that gave this result started: "cold" (phase 1 from an
    #: artificial basis, if the program has rows), "hint" (the hint's basis
    #: as it came) or "dual" (the hint's basis after the dual simplex).
    start: str
    duals_eq: Optional[np.ndarray] = None
    basis_hint: Optional[BasisHint] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _feasible(lp: LinearProgram, x: np.ndarray, tol: float) -> bool:
    """Whether ``x`` is finite and within ``tol`` of every bound and row."""
    excess = np.concatenate((lp.lower - x, x - lp.upper, np.abs(lp.a_eq @ x - lp.b_eq)))
    return bool(np.isfinite(x).all() and not (excess > tol).any())


class _Tableau:
    """Working state of the revised simplex on the program's columns and one
    artificial column per row.

    ``exact`` says whether ``binv`` is the exact inverse of the basis columns
    (no product-form update since it was inverted or adopted).
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_vars, lp.b_eq.size
        ncols = n + m  # the program's columns, then the artificials
        self.a = np.zeros((m, ncols))
        self.a[:, :n] = lp.a_eq
        self.b = lp.b_eq
        self.lower = np.zeros(ncols)
        self.lower[:n] = lp.lower
        self.upper = np.full(ncols, INFINITE_BOUND)
        self.upper[:n] = lp.upper
        self.n, self.m = n, m
        self.cost = np.zeros(ncols)  # the program's cost; artificials cost nothing
        self.cost[:n] = lp.cost
        self.x = np.zeros(ncols)
        self.state = np.full(ncols, _AT_LOWER, dtype=np.int8)
        self.basis = np.zeros(m, dtype=np.intp)
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.binv, self.exact = None, False
        self.iterations = 0
        self.updates = 0  # product-form updates since the last refactor

    # -- initialisation ---------------------------------------------------

    def start_cold(self):
        """Nonbasics at their finite bound closest to zero; a basis of one
        artificial per row, signed so that it starts nonnegative.  False if
        there is no row, so no phase 1."""
        n, m = self.n, self.m
        lo, hi = self.lower[:n], self.upper[:n]
        at_upper = (hi < INFINITE_BOUND) & (np.abs(hi) < np.abs(lo))
        self.state[:n] = np.where(at_upper, _AT_UPPER, _AT_LOWER)
        self.x[:n] = np.where(at_upper, hi, lo)
        resid = self.b - self.a[:, :n] @ self.x[:n]
        arts = n + np.arange(m)
        self.a[np.arange(m), arts] = np.where(resid >= 0, 1.0, -1.0)
        self.basis[:] = arts
        self.x[arts] = np.abs(resid)
        self.in_basis[:] = False
        self.in_basis[arts] = True
        self.state[arts] = _AT_LOWER  # ignored while basic
        self.refactor()
        return bool(m)

    def start_from_hint(self, hint: BasisHint) -> bool:
        """Adopt the basis and inverse of a hint from this program's matrix, its
        nonbasics at the bounds that its states name, if no artificial column
        is basic and its basic solution is finite.  The basic solution may
        leave its bounds."""
        basis, state, n = hint.basis, hint.nonbasic_state, self.n
        if self.m and basis.max() >= n:
            return False
        in_basis = np.zeros_like(self.in_basis)
        in_basis[basis] = True
        x = np.zeros_like(self.x)
        x[:n] = np.where(state == _AT_UPPER, self.upper[:n], self.lower[:n])
        x[basis] = 0.0
        xb = hint.inverse @ (self.b - self.a[:, :n] @ x[:n])
        if not np.isfinite(xb).all():
            return False
        self.basis = basis.copy()
        self.binv, self.exact = hint.inverse, True
        self.x[:] = x
        self.x[basis] = xb
        self.state[:n] = state
        self.in_basis = in_basis
        return True

    def basics_out_of_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks over basis rows: basic variables below / above their bounds."""
        xb = self.x[self.basis]
        return (xb < self.lower[self.basis] - FEASIBILITY_TOL), (xb > self.upper[self.basis] + FEASIBILITY_TOL)

    def refactor(self):
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.exact = True

    def recompute_basics(self):
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self.a @ x_nb)

    # -- simplex ----------------------------------------------------------

    def exchange(self, leave: int, q: int, w: np.ndarray, theta: float, to_lower: bool) -> bool:
        """Column ``q`` enters the basis at row ``leave`` after moving by ``theta``.

        ``w`` is the inverse times column ``q``; the basics move by
        ``-theta * w``, and the leaving variable is set on its lower bound if
        ``to_lower``, else on its upper.  The basis inverse gets a product-form
        update and is inverted afresh after every ``_REFACTOR_EVERY`` updates.
        False on a numerical breakdown.
        """
        piv = w[leave]
        if abs(piv) < _PIVOT_TOL:
            return False
        r = self.basis[leave]
        self.x[self.basis] = self.x[self.basis] - theta * w
        self.x[q] = self.x[q] + theta
        self.x[r] = self.lower[r] if to_lower else self.upper[r]
        self.state[r] = _AT_LOWER if to_lower else _AT_UPPER
        self.in_basis[r] = False
        self.in_basis[q] = True
        self.basis[leave] = q
        # Into a new array: the old inverse may be a hint's read-only one.
        row = self.binv[leave, :] / piv
        self.binv = self.binv - w[:, None] * row
        self.binv[leave, :] = row
        self.exact = False
        self.updates += 1
        if self.updates >= _REFACTOR_EVERY:
            try:
                self.refactor()
            except np.linalg.LinAlgError:
                return False
            self.recompute_basics()
            self.updates = 0
        return True

    def dual_run(self) -> bool:
        """Bounded dual simplex under ``self.cost`` from the adopted basis until
        its basic solution is within bounds.

        False, leaving the tableau to be thrown away, if the basis is not dual
        feasible (a movable nonbasic's reduced cost has the wrong sign for its
        bound state, or a nonbasic sits at an absent upper bound), if a ratio
        test finds no entering column (the program is then infeasible, which
        phase 1 is left to say), on a numerical breakdown, or at ``_MAX_ITER``.
        The lowest-indexed variable outside its bounds leaves, and the entering
        column is the lowest-indexed one with the least ratio of reduced cost
        to pivot-row entry (Bland's rule on the dual).
        """
        a, lower, upper, cost = self.a, self.lower, self.upper, self.cost
        self.updates = 0
        movable_range = upper - lower > 0.0
        at_upper = self.state == _AT_UPPER
        if (~self.in_basis & at_upper & (upper >= INFINITE_BOUND)).any():
            return False
        d = cost - a.T @ (self.binv.T @ cost[self.basis])
        if (~self.in_basis & movable_range & np.where(at_upper, d > _REDUCED_COST_TOL,
                                                       d < -_REDUCED_COST_TOL)).any():
            return False
        while True:
            below, above = self.basics_out_of_bounds()
            out = np.flatnonzero(below | above)
            if not out.size:
                return True
            if self.iterations >= _MAX_ITER:
                return False
            leave = int(out[np.argmin(self.basis[out])])
            # The leaving variable goes to the bound it violates, where its
            # reduced cost must take that bound's sign.  Every reduced cost
            # moves by step * g, g the pivot row signed by the bound, and the
            # step stops where the first nonbasic's would change sign.
            to_lower = bool(below[leave])
            g = self.binv[leave] @ a
            if not to_lower:
                g = -g
            blocks = ~self.in_basis & movable_range & np.where(at_upper, g > _PIVOT_TOL, g < -_PIVOT_TOL)
            cand = np.flatnonzero(blocks)
            if not cand.size:
                return False
            ratio = np.maximum(d[cand] / -g[cand], 0.0)
            k = int(np.argmax(ratio <= ratio.min() + _PIVOT_TOL))
            q = int(cand[k])
            w = self.binv @ a[:, q]
            r = self.basis[leave]
            target = lower[r] if to_lower else upper[r]
            self.iterations += 1
            if not self.exchange(leave, q, w, (self.x[r] - target) / w[leave], to_lower):
                return False
            d = d + ratio[k] * g
            at_upper[r] = not to_lower

    def run(self, cost: np.ndarray) -> str:
        """Minimise ``cost . x`` from the current basis.  Returns a status."""
        a, lower, upper = self.a, self.lower, self.upper
        self.updates = 0
        # Nonbasic columns that may rise (not at upper) or fall (not at
        # lower); pinned columns never enter.  Updated at each pivot and
        # bound flip.
        movable = ~self.in_basis & (upper - lower > 0.0)
        may_rise = movable & (self.state != _AT_UPPER)
        may_fall = movable & (self.state != _AT_LOWER)
        # The basis, its costs and bounds, kept in step at each pivot.
        basis = self.basis.tolist()
        cost_b = cost[self.basis]
        lo_all, up_all = lower.tolist(), upper.tolist()
        lo_b, up_b = [lo_all[j] for j in basis], [up_all[j] for j in basis]
        while True:
            if self.iterations >= _MAX_ITER:
                return "numerical"
            y = self.binv.T @ cost_b
            d = cost - a.T @ y
            eligible = (may_rise & (d < -_REDUCED_COST_TOL)) | (may_fall & (d > _REDUCED_COST_TOL))
            q = int(eligible.argmax())  # Bland: lowest index enters
            if not eligible[q]:
                return "optimal"
            direction = 1.0 if d[q] < 0.0 else -1.0
            w = self.binv @ a[:, q]
            # Ratio test: basics must stay inside their bounds, the entering
            # variable may at most traverse its own range (bound flip).
            step = up_all[q] - lo_all[q] if up_all[q] < INFINITE_BOUND else math.inf
            leave = -1
            dw = direction * w
            xb = self.x[self.basis]
            for i, (dwi, xbi) in enumerate(zip(dw.tolist(), xb.tolist())):
                if dwi > _PIVOT_TOL:
                    t = (xbi - lo_b[i]) / dwi
                elif dwi < -_PIVOT_TOL:
                    if up_b[i] >= INFINITE_BOUND:
                        continue
                    t = (up_b[i] - xbi) / (-dwi)
                else:
                    continue
                if t < -FEASIBILITY_TOL:
                    t = 0.0
                # A strictly smaller ratio wins; a tie goes to the lowest basic
                # variable index (Bland's rule).
                if t < step - _PIVOT_TOL or (t < step + _PIVOT_TOL and
                                             (leave < 0 or basis[i] < basis[leave])):
                    leave = i
                    step = min(step, max(t, 0.0))
            if not math.isfinite(step):
                return "unbounded"
            self.iterations += 1
            if leave < 0:
                # Bound flip: q crosses its range, basis unchanged.
                self.x[self.basis] = xb - step * dw
                self.x[q] = upper[q] if direction > 0 else lower[q]
                self.state[q] = _AT_UPPER if direction > 0 else _AT_LOWER
                may_rise[q], may_fall[q] = direction < 0, direction > 0
                continue
            r = basis[leave]
            hit_lower = dw[leave] > 0
            if not self.exchange(leave, q, w, direction * step, hit_lower):
                return "numerical"
            basis[leave], cost_b[leave], lo_b[leave], up_b[leave] = q, cost[q], lo_all[q], up_all[q]
            may_rise[q] = may_fall[q] = False
            moves = upper[r] - lower[r] > 0.0
            may_rise[r], may_fall[r] = moves and hit_lower, moves and not hit_lower


def solve_lp(lp: LinearProgram, basis_hint: Optional[BasisHint] = None) -> LpSolution:
    """Solve ``lp``; classify as optimal / infeasible / unbounded.

    Numerical breakdown is reported as status ``"numerical"``, never as a
    wrong optimum.  ``basis_hint`` (from a previous solution of a program
    that holds ``lp.a_eq`` itself, such as ``lp`` or another ``reinstance``
    of the same program) skips phase 1 and inverting the basis; a hint from
    any other program is not used (``start`` "cold").  A hinted basis that is
    primal feasible here goes straight to phase 2 (``start`` "hint").  One
    that is not, but is dual feasible under ``lp.cost``, is first made
    primal feasible by the dual simplex (``start`` "dual").  Otherwise, and
    when the dual simplex finds no entering column or reaches ``_MAX_ITER``,
    the hint is dropped for phase 1 from scratch (``start`` "cold").  A
    hinted solve that does not end optimal is solved again from scratch;
    ``iterations`` then counts the pivots of both attempts.  An optimal
    solution's ``basis_hint`` carries the final basis inverse.
    """
    tab = _Tableau(lp)
    if basis_hint is not None and basis_hint.a_eq is lp.a_eq and tab.start_from_hint(basis_hint):
        below, above = tab.basics_out_of_bounds()
        start = "dual" if below.any() or above.any() else "hint"
        if start == "hint" or tab.dual_run():
            sol = _phase2(lp, tab, start)
            if sol.is_optimal:
                return sol
        iterations = tab.iterations
        tab = _Tableau(lp)
        tab.iterations = iterations
    if tab.start_cold():
        phase1_cost = np.zeros(tab.a.shape[1])
        phase1_cost[tab.n:] = 1.0
        if tab.run(phase1_cost) != "optimal":
            # Phase 1 is bounded below by zero, so anything but an
            # optimum is a numerical breakdown.
            return LpSolution("numerical", None, None, tab.iterations, "cold")
        infeas = float(np.sum(tab.x[tab.n:]))
        if infeas > _PHASE1_TOL:
            return LpSolution("infeasible", None, None, tab.iterations, "cold")
        # Pin artificials at zero; they may stay basic but cannot move.
        tab.lower[tab.n:] = 0.0
        tab.upper[tab.n:] = 0.0
        tab.x[tab.n:] = 0.0
    return _phase2(lp, tab, "cold")


def _phase2(lp: LinearProgram, tab: _Tableau, start: str) -> LpSolution:
    """Minimise the true cost from the tableau's primal-feasible basis."""
    cost = tab.cost
    status = tab.run(cost)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, tab.iterations, start)
    if status != "optimal":
        return LpSolution("numerical", None, None, tab.iterations, start)
    if not tab.exact:
        # Only an inverse with product-form updates is inverted again: an
        # exact inverse of this basis would come out as the same bits.
        tab.refactor()
    tab.recompute_basics()
    x = tab.x[:lp.n_vars].copy()
    if not _feasible(lp, x, 1e-6):
        return LpSolution("numerical", None, None, tab.iterations, start)
    y = tab.binv.T @ cost[tab.basis]
    tab.binv.setflags(write=False)
    hint = BasisHint(tab.basis.copy(), tab.state[:tab.n].copy(), lp.a_eq, tab.binv)
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.cost @ x),
        iterations=tab.iterations,
        start=start,
        duals_eq=y,
        basis_hint=hint,
    )
