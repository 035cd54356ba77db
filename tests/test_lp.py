"""Solver checks against exhaustive vertex enumeration, HiGHS and re-evaluation oracles."""

import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridstudy.lp import (
    FEASIBILITY_TOL,
    INFINITE_BOUND,
    LinearProgram,
    LpFormatError,
    _feasible,
    solve_lp,
)
from tests.oracles import check_feasible, reference_solve_lp, restart_differences, solution_differences


class Rows(NamedTuple):
    """min ``cost . x`` s.t. ``a_eq x = b_eq``, ``a_ub x <= b_ub``,
    ``lower <= x <= upper``: a program with inequality rows, the form the
    random families draw.  ``slacked`` makes it a ``LinearProgram``."""

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.cost)


def slack_vectors(rows):
    """The vectors of ``slacked(rows)``; each slack costs nothing and runs over [0, inf)."""
    mu = len(rows.b_ub)
    return dict(cost=np.r_[rows.cost, np.zeros(mu)], lower=np.r_[rows.lower, np.zeros(mu)],
                upper=np.r_[rows.upper, np.full(mu, np.inf)], b_eq=np.r_[rows.b_eq, rows.b_ub])


def slacked(rows):
    """``rows`` as a ``LinearProgram``: each inequality row becomes the equality
    row ``a_ub x + s = b_ub``, after the equality rows, over a slack column of
    its own, after the structural columns."""
    n, me, mu = rows.n_vars, len(rows.b_eq), len(rows.b_ub)
    a_eq = np.asarray(rows.a_eq, dtype=float).reshape(me, n)
    a_ub = np.asarray(rows.a_ub, dtype=float).reshape(mu, n)
    a = np.block([[a_eq, np.zeros((me, mu))], [a_ub, np.eye(mu)]])
    return LinearProgram(a_eq=a, **slack_vectors(rows))


def rows_violated(rows, x, tol):
    """Whether ``x`` breaks a bound or row of ``rows`` by more than ``tol``."""
    return bool(np.any(rows.lower - x > tol) or np.any(x - rows.upper > tol)
                or np.any(np.abs(rows.a_eq @ x - rows.b_eq) > tol) or np.any(rows.a_ub @ x - rows.b_ub > tol))


def box_lp(cost, lower, upper, a_eq=(), b_eq=(), a_ub=(), b_ub=()):
    return slacked(Rows(cost, lower, upper, a_eq, b_eq, a_ub, b_ub))


def random_bounded_lp(rng, n=None):
    """Feasible bounded ``Rows``: the box midpoint satisfies every row strictly."""
    n = int(rng.integers(2, 7)) if n is None else n
    lower = rng.uniform(-4, 0, n)
    upper = lower + rng.uniform(0.5, 6, n)
    mid = (lower + upper) / 2
    me = int(rng.integers(0, 2))
    mu = int(rng.integers(0, 4))
    a_eq = rng.normal(0, 1, (me, n))
    b_eq = a_eq @ mid
    a_ub = rng.normal(0, 1, (mu, n))
    b_ub = a_ub @ mid + rng.uniform(0.2, 3, mu)
    cost = rng.normal(0, 2, n)
    return Rows(cost, lower, upper, a_eq, b_eq, a_ub, b_ub)


def enumerate_vertices_min(lp, tol=1e-8):
    """Independent oracle: minimum objective over all basic feasible points
    of the ``Rows`` ``lp``.

    Collects every bounding hyperplane (finite variable bounds, equality
    rows, inequality rows taken as equalities), solves each n-subset and
    keeps feasible intersections.
    """
    n = lp.n_vars
    planes = []
    for j in range(n):
        if lp.lower[j] > -INFINITE_BOUND:
            row = np.zeros(n)
            row[j] = 1.0
            planes.append((row, lp.lower[j]))
        if lp.upper[j] < INFINITE_BOUND:
            row = np.zeros(n)
            row[j] = 1.0
            planes.append((row, lp.upper[j]))
    for i in range(lp.a_eq.shape[0]):
        planes.append((lp.a_eq[i], lp.b_eq[i]))
    for i in range(lp.a_ub.shape[0]):
        planes.append((lp.a_ub[i], lp.b_ub[i]))
    best = np.inf
    for combo in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not rows_violated(lp, x, tol):
            best = min(best, float(lp.cost @ x))
    return best


class TestExamples:
    def test_bound_attaining_minimum(self):
        sol = solve_lp(box_lp([1.0], [0.0], [5.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == 0.0 and sol.objective == 0.0

    def test_textbook_vertex_optimum(self):
        lp = box_lp([-1.0, -1.0], [0.0, 0.0], [INFINITE_BOUND, INFINITE_BOUND],
                    a_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)
        assert sol.x[:2].sum() == pytest.approx(1.0, abs=1e-10)

    def test_infeasible_and_unbounded_classified(self):
        bad = box_lp([1.0], [0.0], [1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.2, -0.5])
        assert solve_lp(bad).status == "infeasible"
        for absent in (INFINITE_BOUND, np.inf):
            assert solve_lp(box_lp([-1.0], [0.0], [absent])).status == "unbounded"

    def test_dimension_mismatch_raises_at_construction(self):
        with pytest.raises(LpFormatError):
            LinearProgram([1.0, 2.0], [0.0], [1.0], [], [])
        with pytest.raises(LpFormatError, match="lower bound"):
            box_lp([1.0], [2.0], [1.0])

    @pytest.mark.parametrize("key,value", [
        ("cost", [np.inf, 1.0]), ("cost", [-np.inf, 1.0]), ("cost", [np.nan, 1.0]),
        ("cost", [INFINITE_BOUND, 1.0]), ("lower", [-np.inf, 0.0]), ("lower", [-INFINITE_BOUND, 0.0]),
        ("upper", [np.nan, 1.0]), ("a_eq", [[1.0, np.inf]]), ("b_eq", [-INFINITE_BOUND]),
        ("a_eq", [[np.nan, 1.0]]), ("b_eq", [np.inf]),
    ])
    def test_non_finite_data_rejected(self, key, value):
        """Only an upper bound may be infinite (absent); NaN is rejected everywhere."""
        data = dict(cost=[1.0, 1.0], lower=[0.0, 0.0], upper=[1.0, 1.0], a_eq=[[1.0, 1.0]],
                    b_eq=[1.0])
        LinearProgram(**data)
        with pytest.raises(LpFormatError, match=key):
            LinearProgram(**{**data, key: value})


class TestVertexOracle:
    def test_fifty_random_instances_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            rows = random_bounded_lp(rng)
            lp = slacked(rows)
            sol = solve_lp(lp)
            assert sol.status == "optimal", f"trial {trial}: {sol.status}"
            assert not check_feasible(lp, sol.x), f"trial {trial}: infeasible solution"
            best = enumerate_vertices_min(rows)
            assert sol.objective <= best + 1e-8, f"trial {trial}"
            assert sol.objective >= best - 1e-8, f"trial {trial}: beat every vertex?"

    def test_weak_duality_sampling(self):
        """No sampled feasible point beats the reported optimum."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            lp = random_bounded_lp(rng)
            sol = solve_lp(slacked(lp))
            assert sol.status == "optimal"
            kept = 0
            for _ in range(40):
                pts = rng.uniform(lp.lower, lp.upper, size=(2000, lp.n_vars))
                ok = np.ones(len(pts), dtype=bool)
                if lp.a_ub.shape[0]:
                    ok &= np.all(pts @ lp.a_ub.T <= lp.b_ub + 1e-9, axis=1)
                if lp.a_eq.shape[0]:
                    # project onto the equality subspace, then re-check bounds
                    a, b = lp.a_eq, lp.b_eq
                    resid = (pts @ a.T) - b[None, :]          # (m, me)
                    corr = np.linalg.solve(a @ a.T, resid.T)  # (me, m)
                    pts = pts - (a.T @ corr).T
                    ok &= np.all(pts >= lp.lower - 1e-9, axis=1)
                    ok &= np.all(pts <= lp.upper + 1e-9, axis=1)
                    if lp.a_ub.shape[0]:
                        ok &= np.all(pts @ lp.a_ub.T <= lp.b_ub + 1e-9, axis=1)
                feasible = pts[ok]
                kept += len(feasible)
                if len(feasible):
                    assert np.min(feasible @ lp.cost) >= sol.objective - 1e-8
                if kept >= 1000:
                    break

    def test_relaxing_bounds_never_increases_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lp = random_bounded_lp(rng)
            base = solve_lp(slacked(lp))
            widened = lp._replace(lower=lp.lower - rng.uniform(0, 2, lp.n_vars),
                                  upper=lp.upper + rng.uniform(0, 2, lp.n_vars),
                                  b_ub=lp.b_ub + rng.uniform(0, 1, lp.b_ub.size))
            relaxed = solve_lp(slacked(widened))
            assert base.status == relaxed.status == "optimal"
            assert relaxed.objective <= base.objective + 1e-8


def random_lp_any_status(rng):
    """Bounded-below ``Rows`` with up to 3 equality and 5 inequality rows; a quarter
    of the upper bounds are absent, so it may be optimal, infeasible or unbounded."""
    n = int(rng.integers(1, 9))
    me, mu = int(rng.integers(0, 4)), int(rng.integers(0, 6))
    lower = rng.uniform(-5, 5, n)
    upper = lower + rng.uniform(0, 10, n)
    upper[rng.random(n) < 0.25] = np.inf
    return Rows(rng.normal(0, 1, n), lower, upper, rng.normal(0, 1, (me, n)),
                rng.normal(0, 3, me), rng.normal(0, 1, (mu, n)), rng.normal(0, 3, mu))


def dual_violation(lp, x, duals_eq, tol=1e-7):
    """How far ``duals_eq`` is from an optimal dual at ``x``.

    The reduced costs ``d = cost - a_eq.T @ duals_eq`` must be ``>= 0`` unless
    the variable is at its upper bound and ``<= 0`` unless it is at its lower
    bound (dual feasibility), both within ``tol``.  A slack column's reduced
    cost is minus its row's dual, so on a ``slacked`` program this asks for
    inequality duals ``<= 0``, zero on rows slack at ``x`` by more than
    ``tol`` (complementary slackness).  Returns the largest sign violation of
    ``d``.
    """
    d = lp.cost - lp.a_eq.T @ duals_eq
    need_ge = lp.upper - x > tol
    need_le = x - lp.lower > tol
    return float(np.max(np.r_[0.0, -d[need_ge], d[need_le]]))


class TestHighsOracle:
    def test_random_lps_match_highs(self):
        """Same status as ``scipy.optimize.linprog(method="highs")`` on 400 seeded
        LPs, objectives within 1e-9 relative, and clean optimal points whose
        equality duals are dual feasible and complementary to them within 1e-7."""
        optimize = pytest.importorskip("scipy.optimize")
        statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
        rng = np.random.default_rng(2018)
        seen = set()
        for trial in range(400):
            rows = random_lp_any_status(rng)
            lp = slacked(rows)
            ours = solve_lp(lp)
            ref = optimize.linprog(
                rows.cost, A_ub=rows.a_ub if rows.a_ub.size else None,
                b_ub=rows.b_ub if rows.b_ub.size else None,
                A_eq=rows.a_eq if rows.a_eq.size else None, b_eq=rows.b_eq if rows.b_eq.size else None,
                bounds=[(lo, None if np.isinf(hi) else hi) for lo, hi in zip(rows.lower, rows.upper)],
                method="highs")
            assert ours.status == statuses[ref.status], (trial, ours.status, ref.message)
            seen.add(ours.status)
            if ours.is_optimal:
                assert ours.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9), trial
                assert check_feasible(lp, ours.x) == [], trial
                assert dual_violation(lp, ours.x, ours.duals_eq) <= 1e-7, trial
        assert seen == {"optimal", "infeasible", "unbounded"}


class TestDeterminism:
    def test_identical_solves_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lp = slacked(random_bounded_lp(rng))
            a, b = solve_lp(lp), solve_lp(lp)
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective
            assert a.iterations == b.iterations


class TestCheckFeasible:
    """The oracles' violation report, and ``lp._feasible``, the solver's yes/no
    check, which must say no exactly when the report is not empty."""

    def test_solver_solution_is_clean(self):
        rng = np.random.default_rng(9)
        lp = slacked(random_bounded_lp(rng))
        sol = solve_lp(lp)
        assert check_feasible(lp, sol.x) == []
        assert _feasible(lp, sol.x, FEASIBILITY_TOL)

    def test_non_finite_entries_reported(self):
        lp = box_lp([1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
        assert [(v.kind, v.index) for v in check_feasible(lp, [np.nan, np.nan])] == [
            ("non-finite", 0), ("non-finite", 1)]
        report = check_feasible(lp, [1.0, np.inf])
        assert ("non-finite", 1) in [(v.kind, v.index) for v in report]
        for x in ([np.nan, np.nan], [1.0, np.inf], [np.nan, 1.0]):
            assert not _feasible(lp, np.array(x), FEASIBILITY_TOL), x

    def test_single_bound_violation_magnitude(self):
        lp = box_lp([1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
        report = check_feasible(lp, np.array([3.0, 1.0]))
        assert len(report) == 1
        assert report[0].kind == "upper-bound"
        assert report[0].magnitude == pytest.approx(1.0)
        assert not _feasible(lp, np.array([3.0, 1.0]), FEASIBILITY_TOL)

    def test_report_matches_row_by_row_recomputation(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lp = slacked(random_bounded_lp(rng))
            # A slack has no upper bound: it is drawn up to 8 above its lower one.
            x = rng.uniform(lp.lower - 1, np.minimum(lp.upper, lp.lower + 8) + 1)
            report = check_feasible(lp, x)
            expected = 0
            expected += int(np.sum(lp.lower - x > 1e-8))
            expected += int(np.sum(x - lp.upper > 1e-8))
            if lp.a_eq.shape[0]:
                expected += int(np.sum(np.abs(lp.a_eq @ x - lp.b_eq) > 1e-8))
            assert len(report) == expected
            assert _feasible(lp, x, 1e-8) == (expected == 0)


class TestWarmStart:
    def test_failed_warm_phase_is_solved_again_cold(self, request):
        """The cold solve's optimum comes back, and ``iterations`` counts both attempts."""
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(10):
            structure = slacked(random_bounded_lp(rng))
            lp = structure.reinstance(cost=-structure.cost)
            hint = solve_lp(structure).basis_hint  # primal feasible for lp, not optimal
            cases.append((lp, hint, solve_lp(lp, hint), solve_lp(lp)))
        warm_starts = request.getfixturevalue("failing_warm_phase")
        for trial, (lp, hint, warm, cold) in enumerate(cases):
            assert warm.is_optimal and warm.iterations > 0, trial
            retried = solve_lp(lp, hint)
            assert retried.status == "optimal" and retried.start == "cold", trial
            assert np.array_equal(retried.x, cold.x) and retried.objective == cold.objective
            assert retried.iterations == warm.iterations + cold.iterations, trial
        assert warm_starts == ["hint"] * len(cases)


class TestReinstance:
    # x0 + x1 = 1 and x0 - x1 + s = 0.5, s the slack of x0 - x1 <= 0.5.
    DATA = dict(cost=[1.0, 2.0, 0.0], lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, np.inf],
                a_eq=[[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], b_eq=[1.0, 0.5])

    def test_shares_matrices_and_freezes_new_vectors(self):
        base = LinearProgram(**self.DATA)
        new = dict(lower=np.array([-1.0, 0.0, 0.0]), upper=np.array([2.0, np.inf, np.inf]), b_eq=[0.5, 0.0])
        lp = base.reinstance(**new)
        built = LinearProgram(**{**self.DATA, **new})
        assert lp.a_eq is base.a_eq and lp.cost is base.cost
        for key in ("cost", "lower", "upper", "a_eq", "b_eq"):
            got, want = getattr(lp, key), getattr(built, key)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
            assert not got.flags.writeable, key
        assert base.b_eq.tolist() == [1.0, 0.5]

    def test_keeps_copies_of_the_callers_arrays(self):
        """Neither the constructor nor ``reinstance`` shares or freezes an array
        that the caller passed in."""
        data = {key: np.array(value, dtype=float) for key, value in self.DATA.items()}
        lp = LinearProgram(**data)
        cost = np.array([3.0, 2.0, 0.0])
        again = lp.reinstance(cost=cost)
        for key, arr in [*data.items(), ("reinstance cost", cost)]:
            assert arr.flags.writeable, key
        data["a_eq"][0, 0] = data["cost"][0] = cost[0] = 7.0
        assert (lp.a_eq[0, 0], lp.cost[0], again.cost[0]) == (1.0, 1.0, 3.0)

    @pytest.mark.parametrize("key,value", [
        ("b_eq", [np.nan, 0.5]), ("b_eq", [INFINITE_BOUND, 0.5]), ("b_eq", [-INFINITE_BOUND, 0.5]),
        ("b_eq", [np.inf, 0.5]), ("b_eq", [1.0, 1.0, 1.0]), ("b_eq", []), ("b_eq", [1.0, np.nan]),
        ("b_eq", [0.5]), ("upper", [np.nan, 1.0, np.inf]), ("upper", [1.0]), ("upper", [1.0, -1.0, np.inf]),
        ("lower", [2.0, 0.0, 0.0]), ("lower", [-np.inf, 0.0, 0.0]), ("lower", [0.0, 0.0, 0.0, 0.0]),
        ("cost", [np.nan, 1.0, 0.0]), ("cost", [INFINITE_BOUND, 1.0, 0.0]), ("cost", [1.0]),
    ])
    def test_rejects_what_the_constructor_rejects(self, key, value):
        """Same ``LpFormatError`` message as building the program from scratch."""
        with pytest.raises(LpFormatError) as built:
            LinearProgram(**{**self.DATA, key: value})
        with pytest.raises(LpFormatError) as reinstanced:
            LinearProgram(**self.DATA).reinstance(**{key: value})
        assert str(reinstanced.value) == str(built.value)


def degenerate_lp(rng):
    """Small integer ``Rows`` whose rows all pass through one box vertex, so
    the ratio test ties and pivots take zero steps."""
    n = int(rng.integers(2, 6))
    me, mu = int(rng.integers(0, 2)), int(rng.integers(n, 2 * n + 3))
    lower = rng.integers(-3, 1, n).astype(float)
    upper = lower + rng.integers(1, 4, n)
    vertex = np.where(rng.random(n) < 0.5, lower, upper)
    a_eq = rng.integers(-2, 3, (me, n)).astype(float)
    a_ub = rng.integers(-2, 3, (mu, n)).astype(float)
    return Rows(rng.integers(-3, 4, n).astype(float), lower, upper,
                a_eq, a_eq @ vertex, a_ub, a_ub @ vertex)


def bound_flip_lp(rng):
    """Short variable ranges under ``Rows`` that mostly stay slack: entering
    variables often cross their whole range (a bound flip) before a row binds."""
    n = int(rng.integers(2, 8))
    mu = int(rng.integers(1, 4))
    lower = rng.uniform(-2, 0.5, n)
    upper = lower + rng.uniform(0.1, 1.0, n)
    a_ub = rng.uniform(0, 1, (mu, n))
    reach = lower + rng.uniform(0.3, 1.2, mu)[:, None] * (upper - lower)
    return Rows(rng.normal(0, 1, n), lower, upper, np.zeros((0, n)), np.zeros(0), a_ub,
                np.sum(a_ub * reach, axis=1))


class TestReferenceSimplex:
    """``solve_lp`` reuses a hint's inverse, skips redundant refactors and keeps
    its masks between pivots; none of it may change a pivot or an output bit
    against ``reference_solve_lp``, the simplex without those shortcuts."""

    @pytest.mark.parametrize("make,count", [
        (random_lp_any_status, 300), (random_bounded_lp, 100), (degenerate_lp, 200), (bound_flip_lp, 200)])
    def test_cold_solves(self, make, count):
        rng = np.random.default_rng(1905)
        seen = set()
        for trial in range(count):
            lp = slacked(make(rng))
            ours, ref = solve_lp(lp), reference_solve_lp(lp)
            assert solution_differences(ours, ref) == [], trial
            seen.add(ours.status)
        if make is random_lp_any_status:
            assert seen == {"optimal", "infeasible", "unbounded"}

    @pytest.mark.parametrize("make", [random_bounded_lp, degenerate_lp, bound_flip_lp])
    def test_hint_chains_over_one_structure(self, make):
        """Chains of programs with one matrix and moving vectors, each solve
        started from the previous solve's hint, as ``solve_days`` and the
        dispatch cache run them.  The reference solves each program from the
        same hint: cold and accepted-hint solves match it bit for bit, and
        dual-restarted ones match it as ``restart_differences`` says."""
        rng = np.random.default_rng(1906)
        starts = []
        for chain in range(25):
            base = make(rng)
            structure = slacked(base)
            hint = None
            for step in range(8):
                shift = rng.uniform(-0.3, 0.3, base.n_vars)
                lower = base.lower + shift
                upper = np.maximum(base.upper + shift + rng.uniform(-0.2, 0.2, base.n_vars), lower)
                lp = structure.reinstance(**slack_vectors(base._replace(
                    cost=base.cost + rng.normal(0, 0.3, base.n_vars), lower=lower, upper=upper,
                    b_eq=base.a_eq @ ((lower + upper) / 2),
                    b_ub=base.b_ub + rng.uniform(-0.2, 0.5, base.b_ub.size))))
                ours, ref = solve_lp(lp, hint), reference_solve_lp(lp, hint)
                assert restart_differences(lp, ours, ref) == [], (chain, step)
                if hint is not None:
                    starts.append(ours.start)
                hint = ours.basis_hint
        assert len(starts) >= 50 and {"cold", "hint", "dual"} <= set(starts)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-7])
    def test_hint_from_another_matrix_starts_cold(self, scale):
        """A hint is bound to the matrix object it was solved on.  A program
        built afresh from the same rows, bit for bit or with every row scaled
        by 1 + 1e-7 (the same feasible set and optimal basis in other bits),
        solves from it exactly as from no hint, while a ``reinstance`` of the
        hint's own program adopts it."""
        rng = np.random.default_rng(1907)
        for trial in range(60):
            base = slacked(random_bounded_lp(rng))
            hint = solve_lp(base).basis_hint
            assert solve_lp(base.reinstance(), hint).start == "hint", trial
            lp = LinearProgram(base.cost, base.lower, base.upper, base.a_eq * scale, base.b_eq * scale)
            ours = solve_lp(lp, hint)
            assert ours.start == "cold", trial
            assert solution_differences(ours, solve_lp(lp)) == [], trial


def dual_infeasible(lp, hint, tol=1e-6):
    """Whether a movable nonbasic of ``hint``'s basis has a reduced cost under
    ``lp.cost`` of the wrong sign for its bound state by more than ``tol``."""
    a, cost = lp.a_eq, lp.cost
    d = cost - a.T @ np.linalg.solve(a[:, hint.basis].T, cost[hint.basis])
    nonbasic = np.ones(d.size, dtype=bool)
    nonbasic[hint.basis] = False
    movable = nonbasic & (lp.upper > lp.lower)
    return bool((movable & np.where(hint.nonbasic_state == 1, d > tol, d < -tol)).any())


@st.composite
def restart_chains(draw):
    """A family, a seed, and a chain of steps that moves bounds and right-hand
    sides, with one infeasible step, one step that takes away the upper bound
    of a nonbasic sitting on it, and one cost flip in some order."""
    make = draw(st.sampled_from([random_bounded_lp, degenerate_lp, bound_flip_lp]))
    seed = draw(st.integers(0, 2**32 - 1))
    moves = draw(st.integers(2, 6))
    steps = draw(st.permutations(["infeasible", "absent upper", "cost flip"] + ["move"] * moves))
    return make, seed, steps


class TestDualRestart:
    """Hinted solves whose basis leaves its bounds restart with the dual simplex
    when the basis is dual feasible, and otherwise keep phase 1."""

    @settings(max_examples=80, deadline=None)
    @given(chain=restart_chains())
    def test_chains_that_move_bounds_and_right_hand_sides(self, chain):
        """A dual-restarted solve gives the cold solve's status and objective;
        every other solve matches the reference simplex from the same hint bit
        for bit.  The infeasible step ends "infeasible" from phase 1, and the
        steps whose hint is not dual feasible keep today's path."""
        make, seed, steps = chain
        rng = np.random.default_rng(seed)
        base = make(rng)
        assume(base.a_eq.size + base.a_ub.size)  # a program without rows cannot be infeasible
        structure = slacked(base)
        hint = solve_lp(structure).basis_hint
        for step, kind in enumerate(steps):
            shift = rng.uniform(-0.3, 0.3, base.n_vars)
            lower = base.lower + shift
            upper = np.maximum(base.upper + shift + rng.uniform(-0.2, 0.2, base.n_vars), lower)
            b_eq = base.a_eq @ ((lower + upper) / 2)
            b_ub = base.b_ub + rng.uniform(-0.2, 0.5, base.b_ub.size)
            if kind == "infeasible":
                # One row out of the reach of every point in the box.
                if base.a_ub.size:
                    row = base.a_ub[0]
                    b_ub[0] = np.minimum(row * lower, row * upper).sum() - 1.0
                else:
                    row = base.a_eq[0]
                    b_eq[0] = np.maximum(row * lower, row * upper).sum() + 1.0
            elif kind == "absent upper":
                at_upper = [j for j in range(base.n_vars)
                            if hint.nonbasic_state[j] == 1 and j not in hint.basis]
                assume(at_upper)
                upper[at_upper[0]] = INFINITE_BOUND
            lp = structure.reinstance(**slack_vectors(base._replace(
                cost=-base.cost if kind == "cost flip" else base.cost, lower=lower, upper=upper,
                b_eq=b_eq, b_ub=b_ub)))
            if kind == "cost flip" and hint.basis.max() < hint.nonbasic_state.size:
                # (A hint with a basic artificial is dropped for phase 1 anyway.)
                assume(dual_infeasible(lp, hint))
            ours, ref = solve_lp(lp, hint), reference_solve_lp(lp, hint)
            assert restart_differences(lp, ours, ref) == [], (step, kind)
            if ours.start == "dual":
                cold = solve_lp(lp)
                assert ours.status == cold.status, (step, kind)
                assert ours.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9), (step, kind)
            if kind == "infeasible":
                assert (ours.status, ours.start) == ("infeasible", "cold"), step
            elif kind != "move":
                assert ours.start != "dual", (step, kind)
            hint = ours.basis_hint or hint
