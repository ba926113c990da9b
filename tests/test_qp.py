import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dposv
from scipy.optimize import linprog

from gpplatoon import mpc
from gpplatoon.hv import ArxParams
from gpplatoon.qp import (
    _RANK_TOL,
    ActiveRows,
    KroneckerFactor,
    QuadraticProgram,
    TriangularFactor,
    _DualActiveSet,
    solve_qp,
    to_csr,
)
from oracles import token_with_active_rows


def enumerate_qp(p, q, g, h, tol=1e-9):
    """Brute-force oracle: try every active subset, check KKT, keep the best."""
    n = q.size
    m = h.size
    best = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            idx = list(subset)
            na = len(idx)
            kkt = np.zeros((n + na, n + na))
            kkt[:n, :n] = p
            if na:
                kkt[:n, n:] = g[idx].T
                kkt[n:, :n] = g[idx]
            rhs = np.concatenate([-q, h[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mu = sol[n:]
            if na and np.min(mu) < -tol:
                continue
            if m and np.max(g @ x - h) > tol:
                continue
            obj = 0.5 * x @ p @ x + q @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    return best


def _random_feasible_qp(rng, n, m):
    a = rng.normal(size=(n, n))
    p = a.T @ a + n * np.eye(n)
    q = rng.normal(size=n) * 2.0
    g = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    h = g @ x0 + rng.uniform(0.0, 1.0, size=m)
    return QuadraticProgram(cost_matrix=p, cost_vector=q, ineq_matrix=g, ineq_vector=h)


def test_unconstrained_scalar():
    qp = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-10)


def test_clipped_scalar_reports_active_constraint():
    qp = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                          ineq_matrix=np.array([[1.0]]), ineq_vector=np.array([2.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-10)
    assert sol.active == (0,)
    assert sol.ineq_multipliers[0] == pytest.approx(2.0, abs=1e-8)


def test_infeasible_inequalities_certified():
    qp = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                          ineq_matrix=np.array([[1.0], [-1.0]]),
                          ineq_vector=np.array([0.0, -1.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible"
    assert sol.most_violated in (0, 1)


def _independent(g, rows):
    """The rows of ``rows``, in order, that are independent of those kept
    before them."""
    kept = []
    for i in rows:
        if np.linalg.matrix_rank(g[kept + [int(i)]]) == len(kept) + 1:
            kept.append(int(i))
    return kept


def _with_bound_rows(rng, n, m_dense):
    """A strictly convex program whose rows, shuffled, are ``m_dense`` dense
    rows and one-entry rows (simple bounds) around a feasible x0: one bound
    row for each coefficient in (1, -1, 2.5, -0.5), a copy of one of them, a
    band lo <= x[c] <= hi written as a bound row and its negation, and an
    all-zero row. Returns the program, the column of the one entry of each
    row (-1 for the dense and the zero row) and the rows that bound the
    same set without the copy and the zero row."""
    a = rng.normal(size=(n, n))
    p = a.T @ a + n * np.eye(n)
    x0 = rng.normal(size=n)
    rows, rhs, column = [], [], []

    def bound(c, coef, slack):
        row = np.zeros(n)
        row[c] = coef
        rows.append(row), rhs.append(coef * x0[c] + slack), column.append(c)

    for _ in range(m_dense):
        g = rng.normal(size=n)
        rows.append(g), rhs.append(g @ x0 + rng.uniform(0.0, 0.5)), column.append(-1)
    for coef in (1.0, -1.0, 2.5, -0.5):
        bound(int(rng.integers(n)), coef, rng.uniform(0.0, 0.5))
    rows.append(rows[-1].copy()), rhs.append(rhs[-1]), column.append(column[-1])
    c = int(rng.integers(n))
    bound(c, 1.0, rng.uniform(0.0, 0.5))
    bound(c, -1.0, rng.uniform(0.0, 0.5))
    rows.append(np.zeros(n)), rhs.append(rng.uniform(0.0, 0.5)), column.append(-1)
    distinct = np.ones(len(rows), dtype=bool)
    distinct[[-1, -4]] = False      # the zero row and the copy
    order = rng.permutation(len(rows))
    g, h = np.array(rows)[order], np.array(rhs)[order]
    qp = QuadraticProgram(p, rng.normal(size=n) * 4.0, g, h)
    return qp, np.array(column)[order], np.flatnonzero(distinct[order])


def test_matches_enumeration_oracle():
    """Cold solves and solves resumed from tokens (the cold solve's, and
    ones that carry independent rows picked from all rows or from the bound
    rows) reach the enumerated optimum, on random programs and on programs
    that mix dense rows with one-entry rows (see ``_with_bound_rows``),
    whose copied and all-zero rows the oracle leaves out since they bound
    the same set."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        cases.append((_random_feasible_qp(rng, n, m), np.arange(m)))
    rng = np.random.default_rng(29)
    for _ in range(30):
        qp, column, distinct = _with_bound_rows(rng, int(rng.integers(2, 5)),
                                                int(rng.integers(1, 3)))
        np.testing.assert_array_equal(qp.bound_column, column)
        assert not qp.bound_column.flags.writeable
        assert qp.with_vectors(qp.cost_vector, qp.ineq_vector).bound_column is qp.bound_column
        cases.append((qp, distinct))
    bound_active = 0
    for qp, rows in cases:
        g, h = qp.ineq_matrix.toarray(), qp.ineq_vector
        oracle = enumerate_qp(qp.cost_matrix, qp.cost_vector, g[rows], h[rows])
        assert oracle is not None
        cold = solve_qp(qp, tol=1e-8)
        sols = [cold, solve_qp(qp, tol=1e-8, active_hint=cold.active)]
        for start in (range(h.size), np.flatnonzero(qp.bound_column >= 0)):
            token = token_with_active_rows(qp, _independent(g, start))
            sols.append(solve_qp(qp, tol=1e-8, active_hint=token))
        for sol in sols:
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.x, oracle[0], atol=1e-6)
            assert qp.objective(sol.x) == pytest.approx(oracle[1], abs=1e-6)
        bound_active += any(qp.bound_column[i] >= 0 for i in cold.active)
    assert bound_active >= 25


def _assert_bound_rows_of_y_exact(state, qp):
    """The active bound rows of y equal -(G[ids] @ J) bit for bit."""
    ids = state.ids
    bound = qp.bound_column[ids] >= 0
    want = -(qp.ineq_matrix.toarray()[ids] @ qp.factor.j)
    np.testing.assert_array_equal(state.y[:state.k][bound], want[bound])
    return int(bound.sum())


def test_bound_rows_of_y_equal_their_products_with_j():
    """The rows y = -G J of active bound rows, gathered from J by entering
    steps, equal the dense products bit for bit, in a new state and in
    carried states before and after they are resumed."""
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(20):
        qp, column, _ = _with_bound_rows(rng, int(rng.integers(5, 30)), int(rng.integers(1, 6)))
        m = qp.ineq_vector.size
        cold = solve_qp(qp)
        g = qp.ineq_matrix.toarray()
        for start in (None, cold.active, range(m)):
            if start is None:
                state = _DualActiveSet(qp)
            else:
                state = token_with_active_rows(qp, _independent(g, start)).workspace(qp)
                checked += _assert_bound_rows_of_y_exact(state, qp)
                state.resume(qp)
            checked += _assert_bound_rows_of_y_exact(state, qp)
            for _ in range(200):
                viol = qp.ineq_excess(state.x)
                worst = int(viol.argmax())
                if viol[worst] <= 1e-10 * (1.0 + abs(qp.ineq_vector[worst])):
                    break
                assert state.enter(worst, 1000) == "ok"
                checked += _assert_bound_rows_of_y_exact(state, qp)
            np.testing.assert_allclose(state.x, cold.x, rtol=0, atol=1e-8)
    assert checked >= 100


def _psd_jitter_program(rng, n):
    """A program whose P is singular (rank n - 2), so its factor takes the
    jitter path."""
    a = rng.integers(-3, 4, size=(n - 2, n)).astype(float)
    p = a.T @ a
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(p)
    return QuadraticProgram(p, rng.normal(size=n), rng.normal(size=(3, n)), np.ones(3))


def test_inverse_factor_is_exactly_upper_triangular():
    """J = L^-T is applied through BLAS trmv, which reads only its upper
    triangle: the strictly lower part must be exactly zero, for positive
    definite programs and for PSD ones factored with jitter."""
    rng = np.random.default_rng(41)
    definite = [_random_feasible_qp(rng, n, 3) for n in (1, 2, 7, 40, 120)]
    for qp in definite + [_psd_jitter_program(rng, n) for n in (4, 30)]:
        j = qp.factor.j
        assert np.all(np.tril(j, -1) == 0.0)
        assert np.all(np.diag(j) > 0.0)
    for qp in definite:
        j = qp.factor.j
        np.testing.assert_allclose(j @ j.T @ qp.cost_matrix, np.eye(qp.n), rtol=0, atol=1e-12)


def _rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def test_triangular_and_symmetric_kernels_match_dense_products():
    """The start w = -J^T q and x = J w (trmv on J's triangle) and the
    reported objective and KKT residual (symv on P's lower triangle) match
    the dense products to 1e-13, relative to each quantity's size, with and
    without active rows."""
    rng = np.random.default_rng(43)
    jitter = _psd_jitter_program(rng, 12)
    for qp in [jitter] + [_random_feasible_qp(rng, n, m) for n, m in ((3, 2), (20, 30), (160, 200))]:
        j, p, q, g = qp.factor.j, qp.cost_matrix, qp.cost_vector, qp.ineq_matrix
        state = _DualActiveSet(qp)
        assert _rel_err(state.w, -(q @ j)) <= 1e-13
        assert _rel_err(state.x, j @ state.w) <= 1e-13
        if qp is jitter:
            continue  # unbounded along P's null space: only the start is checked
        for hint in (None, solve_qp(qp).active):
            sol = solve_qp(qp, active_hint=hint)
            assert sol.status == "optimal"
            x, mu = sol.x, sol.ineq_multipliers
            dense_obj = 0.5 * x @ p @ x + q @ x
            assert sol.objective == pytest.approx(dense_obj, rel=1e-13, abs=1e-13)
            # the residual is a difference of terms of this size
            scale = max(np.abs(p @ x).max(), np.abs(q).max(), np.abs(g.T @ mu).max(), 1.0)
            assert abs(sol.kkt_residual - _full_product_kkt_residual(qp, sol)) <= 1e-13 * scale


def test_residual_reads_the_lower_triangle_of_a_slightly_asymmetric_cost():
    """P may be asymmetric by up to 1e-10. The factor is built from its lower
    triangle, so the optimum is that of the lower triangle's symmetric
    matrix, and the reported residual is the one of that matrix: small,
    where the upper triangle's residual is not."""
    rng = np.random.default_rng(47)
    n = 8
    for _ in range(5):
        base = _random_feasible_qp(rng, n, 10)
        p = base.cost_matrix.copy()
        p[np.tril_indices(n, -1)] += 9e-11
        qp = QuadraticProgram(p, base.cost_vector, base.ineq_matrix, base.ineq_vector)
        lower = np.tril(p) + np.tril(p, -1).T
        upper = np.triu(p) + np.triu(p, 1).T
        for hint in (None, solve_qp(qp).active):
            sol = solve_qp(qp, active_hint=hint, tol=1e-12)
            assert sol.status == "optimal"
            grad = sol.ineq_multipliers @ qp.ineq_matrix + qp.cost_vector
            assert np.abs(lower @ sol.x + grad).max() <= 1e-12
            assert np.abs(upper @ sol.x + grad).max() > 1e-11
            assert sol.kkt_residual <= 1e-12
            assert sol.objective == pytest.approx(
                0.5 * sol.x @ lower @ sol.x + qp.cost_vector @ sol.x, rel=1e-13)


def test_kkt_residual_reported_small():
    rng = np.random.default_rng(3)
    for _ in range(10):
        qp = _random_feasible_qp(rng, 5, 4)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= 1e-6


def test_determinism():
    rng = np.random.default_rng(5)
    qp = _random_feasible_qp(rng, 6, 4)
    s1 = solve_qp(qp)
    s2 = solve_qp(qp)
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.active == s2.active
    assert s1.iterations == s2.iterations


def test_active_hint_short_circuits():
    rng = np.random.default_rng(7)
    qp = _random_feasible_qp(rng, 6, 4)
    cold = solve_qp(qp)
    warm = solve_qp(qp, active_hint=cold.active)
    assert warm.status == "optimal"
    assert warm.iterations == 1
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)


def test_stale_hint_still_solves():
    # carried rows that are not the optimal active set
    rng = np.random.default_rng(9)
    qp = _random_feasible_qp(rng, 5, 4)
    cold = solve_qp(qp)
    warm = solve_qp(qp, active_hint=token_with_active_rows(qp, (0, 1, 2, 3)))
    assert warm.status == "optimal"
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)


def test_hint_with_an_inactive_row_seeds_the_solve():
    """A token that carries the optimal active set plus one inactive row
    (while they are independent): the start drops that row and the solve
    ends at the cold optimum in fewer iterations."""
    rng = np.random.default_rng(11)
    solves = fewer = 0
    for _ in range(300):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(2 * n, 4 * n))
        qp = _random_feasible_qp(rng, n, m)
        cold = solve_qp(qp)
        if cold.iterations < 3:
            continue
        extra = int(rng.choice([i for i in range(m) if i not in cold.active]))
        rows = cold.active + (extra,)
        if len(rows) > n:
            continue
        warm = solve_qp(qp, active_hint=token_with_active_rows(qp, rows))
        assert warm.status == "optimal"
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
        solves += 1
        fewer += warm.iterations < cold.iterations
    assert solves >= 200
    assert fewer >= 0.75 * solves


def test_hinted_infeasible_program_stays_infeasible():
    scalar = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                              ineq_matrix=np.array([[1.0], [-1.0]]),
                              ineq_vector=np.array([0.0, -1.0]))
    rng = np.random.default_rng(19)
    base = _random_feasible_qp(rng, 5, 8)
    # rows 8 and 9 ask for g x <= 0 and g x >= 1 at once
    g = base.ineq_matrix.toarray()
    g = np.vstack([g, g[0], -g[0]])
    h = np.append(base.ineq_vector, [0.0, -1.0])
    wide = QuadraticProgram(cost_matrix=base.cost_matrix, cost_vector=base.cost_vector,
                            ineq_matrix=g, ineq_vector=h)
    for qp in (scalar, wide):
        m = qp.ineq_vector.size
        g = qp.ineq_matrix.toarray()
        for start in ((), (0,), (m - 1,), (m - 2, m - 1), range(m)):
            hint = token_with_active_rows(qp, _independent(g, start))
            sol = solve_qp(qp, active_hint=hint)
            assert sol.status == "infeasible", hint
            assert 0 <= sol.most_violated < m


def test_hint_iterations_count_its_solves():
    # min 0.5|x|^2 - 3 (x0 + x1 + x2) s.t. x <= (1, 1, 1, 5): x = (1, 1, 1, 0)
    qp = QuadraticProgram(cost_matrix=np.eye(4), cost_vector=np.array([-3.0, -3.0, -3.0, 0.0]),
                          ineq_matrix=np.eye(4), ineq_vector=np.array([1.0, 1.0, 1.0, 5.0]))
    cold = solve_qp(qp)
    assert cold.active == (0, 1, 2) and cold.iterations == 3
    exact = solve_qp(qp, active_hint=token_with_active_rows(qp, (0, 1, 2)))
    assert exact.iterations == 1
    # row 3 forced tight gets multiplier -5 and is dropped: a second solve
    extra = solve_qp(qp, active_hint=token_with_active_rows(qp, (0, 1, 2, 3)))
    assert extra.iterations == 2
    # a token with no rows is a start from the empty set, then three entries
    assert solve_qp(qp, active_hint=token_with_active_rows(qp, ())).iterations == 4
    for sol in (exact, extra):
        assert sol.status == "optimal" and sol.active == (0, 1, 2)
        np.testing.assert_allclose(sol.x, [1.0, 1.0, 1.0, 0.0], rtol=0, atol=1e-12)


def test_hint_whose_rows_all_drop_returns_the_no_hint_x():
    """When the unconstrained minimiser is strictly feasible, a carried row
    forced tight gets a negative multiplier and is dropped, one active set
    tried per drop; with every carried row dropped the start is the
    unconstrained minimiser, and the solve returns the no-hint solve's x
    bit for bit."""
    rng = np.random.default_rng(71)
    dropped = 0
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n))
        p = a.T @ a + n * np.eye(n)
        q = rng.normal(size=n)
        x_free = np.linalg.solve(p, -q)
        # bound rows on every coordinate and a few dense rows, all slack at x_free
        g = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(3, n))])
        h = g @ x_free + rng.uniform(0.5, 1.0, size=g.shape[0])
        qp = QuadraticProgram(cost_matrix=p, cost_vector=q, ineq_matrix=g, ineq_vector=h)
        cold = solve_qp(qp)
        assert cold.status == "optimal" and cold.active == ()
        # one row alone, and the upper bounds together (decoupled when P is diagonal)
        hints = [(int(rng.integers(g.shape[0])),)]
        diagonal = QuadraticProgram(cost_matrix=np.diag(np.diag(p)), cost_vector=q,
                                    ineq_matrix=g[:n], ineq_vector=np.full(n, 1e3))
        for prog, rows in [(qp, hints[0]), (diagonal, tuple(range(n)))]:
            warm = solve_qp(prog, active_hint=token_with_active_rows(prog, rows))
            ref = solve_qp(prog)
            # every carried row dropped at the start, and none entered after
            assert warm.iterations == len(rows) + 1
            assert warm.status == ref.status == "optimal" and warm.active == ()
            np.testing.assert_array_equal(warm.x, ref.x)
            dropped += 1
    assert dropped == 40


def _assert_same_solve(a, b):
    """Two solves with the same status, iterations and active rows, and the
    same x and multipliers bit for bit."""
    assert a.status == b.status and a.iterations == b.iterations and a.active == b.active
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.ineq_multipliers, b.ineq_multipliers)


def _spy_on_resume(monkeypatch):
    """The programs that each resumed solve takes up, in order."""
    resumed = []
    resume = _DualActiveSet.resume

    def spy(self, qp):
        resumed.append(qp)
        return resume(self, qp)

    monkeypatch.setattr(_DualActiveSet, "resume", spy)
    return resumed


def test_a_token_resumes_once_then_starts_cold(monkeypatch):
    """The active rows of an optimal solve, passed to the next program of
    its template, resume the solver state: the same status, iterations and
    active set as a fresh token that carries the same rows, and the cold
    solve's active set and x to 1e-9. Passed a second time the token is
    stale and the solve starts cold, the cold solve bit for bit."""
    resumed = _spy_on_resume(monkeypatch)
    rng = np.random.default_rng(37)
    warm_rows = 0
    for _ in range(30):
        n = int(rng.integers(4, 12))
        base = _random_feasible_qp(rng, n, 3 * n)
        cold = solve_qp(base)
        assert isinstance(cold.active, ActiveRows)
        near = base.with_vectors(base.cost_vector + 0.05 * rng.normal(size=n), base.ineq_vector)
        first = solve_qp(near, active_hint=cold.active)
        assert resumed == [near]
        second = solve_qp(near, active_hint=cold.active)
        ref = solve_qp(near)
        assert resumed == [near]
        _assert_same_solve(second, ref)
        fresh = solve_qp(near, active_hint=token_with_active_rows(near, cold.active))
        assert resumed == [near, near]
        assert first.status == fresh.status == ref.status == "optimal"
        assert first.iterations == fresh.iterations
        assert first.active == fresh.active == ref.active
        np.testing.assert_allclose(first.x, fresh.x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(first.x, ref.x, rtol=0, atol=1e-9)
        warm_rows += len(cold.active)
        resumed.clear()
    assert warm_rows >= 30


def test_misused_tokens_reach_the_cold_optimum(monkeypatch):
    """A token passed to a program of another template, a stale token and
    the token of a max_iter solve, which carries no state, each start the
    solve cold, the cold solve bit for bit, and change no later solve: the
    same sequence of solves on an equal template, without the misuse, gives
    the same results bit for bit. The token of an infeasible solve is no
    misuse: it resumes, as on the equal template, and reaches the cold
    optimum."""
    resumed = _spy_on_resume(monkeypatch)
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        base = _random_feasible_qp(rng, n, 3 * n)
        # rows -2 and -1 bound g0 x from both sides: h (.., 0, -1) makes it infeasible
        g = base.ineq_matrix.toarray()
        g = np.vstack([g, g[0], -g[0]])
        m = g.shape[0]
        p = base.cost_matrix
        a, a_ref = (QuadraticProgram(p.copy(), np.zeros(n), g.copy(), np.zeros(m))
                    for _ in range(2))
        other = _random_feasible_qp(rng, n, m)
        vectors = [(rng.normal(size=n) * 2.0, g @ rng.normal(size=n) + rng.uniform(0.0, 1.0, m))
                   for _ in range(4)]

        def solves(t, hint=None, i=0, **kw):
            return solve_qp(t.with_vectors(*vectors[i]), active_hint=hint, **kw)

        def cold(t, i):
            sol = solves(t, i=i)
            assert sol.status == "optimal"
            return sol

        def resumed_on(t):
            return sum(q.factor is t.factor for q in resumed)

        t0, r0 = solves(a), solves(a_ref)
        # another template: a cold solve; the token stays current for its own
        foreign = solve_qp(other, active_hint=t0.active)
        assert foreign.status == "optimal" and not resumed
        _assert_same_solve(foreign, solve_qp(other))
        t1 = solves(a, t0.active, 1)
        assert resumed_on(a) == 1
        _assert_same_solve(t1, solves(a_ref, r0.active, 1))
        # stale: the template has been solved since t0
        stale = solves(a, t0.active, 2)
        assert resumed_on(a) == 1
        _assert_same_solve(stale, cold(a_ref, 2))
        # an infeasible solve hands its workspace on, on both templates alike
        h_bad = vectors[3][1].copy()
        h_bad[-2:] = (0.0, -1.0)
        infeasible, r_infeasible = (solve_qp(t.with_vectors(vectors[3][0], h_bad))
                                    for t in (a, a_ref))
        assert infeasible.status == "infeasible" and infeasible.active.state is not None
        after = solves(a, infeasible.active, 3)
        assert resumed_on(a) == 2
        _assert_same_solve(after, solves(a_ref, r_infeasible.active, 3))
        ref = cold(a_ref, 3)
        assert after.status == "optimal" and after.active == ref.active
        np.testing.assert_allclose(after.x, ref.x, rtol=0, atol=1e-9)
        # a max_iter solve hands none on
        capped = solves(a, None, 3, max_iter=1)
        assert capped.status == "max_iter"
        assert type(capped.active) is ActiveRows and capped.active.state is None
        _assert_same_solve(solves(a, capped.active, 3), cold(a_ref, 3))
        # and a chain started after all that resumes as on the other template
        t2, r2 = solves(a, None, 1), solves(a_ref, None, 1)
        _assert_same_solve(solves(a, t2.active, 2), solves(a_ref, r2.active, 2))
        assert resumed_on(a) == resumed_on(a_ref) == 3
        resumed.clear()


def test_resume_drops_a_carried_row_whose_pivot_is_negligible():
    """Every carried row passed enter's rank test, yet the Cholesky pivot
    of y y^T that dposv forms by cancellation can fall below the bound for
    a row admitted just above it. Three rows, the third within 0.03% of the
    bound of the first two's span, all active with multiplier 1e4, give
    such carried states; resumed, the start drops that row first (so the
    carried set is not accepted in one iteration) and the solve is still
    optimal."""
    rng = np.random.default_rng(1)
    low = 0
    for _ in range(500):
        g01 = rng.normal(size=(2, 3))
        perp = np.cross(*g01)
        perp /= np.linalg.norm(perp)
        base = rng.normal(size=2) @ g01
        ratio = _RANK_TOL * (1 + rng.uniform(-3e-4, 3e-4))
        g = np.vstack([g01, base + np.sqrt(ratio / (1 - ratio)) * np.linalg.norm(base) * perp])
        qp = QuadraticProgram(np.eye(3), -g.T @ np.full(3, 1e4), g, np.zeros(3))
        cold = solve_qp(qp)
        state = cold.active.state
        if state is None or state.k != 3:
            continue
        gram = state.gram[:3, :3]
        chol, _, info = dposv(gram, np.ones(3))
        if info or not (chol.diagonal() ** 2 <= _RANK_TOL * gram.diagonal()).any():
            continue
        low += 1
        warm = solve_qp(qp, active_hint=cold.active)
        assert warm.status == "optimal" and warm.iterations > 1
    assert low >= 10


def test_a_hint_that_is_no_token_raises():
    """Row indices are no hint: a tuple, a list, an array and copies of a
    token's rows raise TypeError naming active_hint, and count as no solve,
    so the token stays current."""
    rng = np.random.default_rng(43)
    qp = _random_feasible_qp(rng, 6, 12)
    cold = solve_qp(qp)
    for hint in ((), (0,), [0], np.array([0]), tuple(cold.active), cold.active + (1,)):
        with pytest.raises(TypeError, match="active_hint"):
            solve_qp(qp, active_hint=hint)
    assert cold.active.workspace(qp) is not None


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_solver_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    qp = QuadraticProgram(cost_matrix=np.eye(2), cost_vector=np.array([-1.0, -1.0]),
                          ineq_matrix=np.eye(2), ineq_vector=np.zeros(2))
    with pytest.raises(ValueError, match="tolerance"):
        solve_qp(qp, tol=tol)
    for max_iter in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="max_iter"):
            solve_qp(qp, max_iter=max_iter)
    sol = solve_qp(qp, tol=1e-12, max_iter=np.int64(5))
    assert sol.status == "optimal" and sol.kkt_residual <= 1e-12


def test_degenerate_duplicate_rows():
    # duplicated active inequality rows must not break the solver
    qp = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                          ineq_matrix=np.array([[1.0], [1.0]]),
                          ineq_vector=np.array([2.0, 2.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=np.eye(3), cost_vector=np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=np.array([[1.0, 5.0], [0.0, 1.0]]),
                         cost_vector=np.zeros(2))


def test_symmetry_check_rejects_nan_and_asymmetry():
    p = np.eye(3)
    p[0, 1] = 2e-10
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    p[0, 1] = 0.5e-10
    QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    p[2, 2] = np.nan
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))


def test_symmetry_checked_on_every_construction():
    good = np.eye(3)
    asym = np.eye(3)
    asym[0, 1] = 1e-9
    nan = np.eye(3)
    nan[2, 2] = np.nan
    for p in (good, asym, nan):
        p.flags.writeable = False
    for _ in range(2):
        QuadraticProgram(cost_matrix=good, cost_vector=np.zeros(3))
        # a read-only matrix raises on its first use and on every use after
        for bad in (asym, nan):
            with pytest.raises(ValueError):
                QuadraticProgram(cost_matrix=bad, cost_vector=np.zeros(3))
    # a writable matrix is checked on every use, also after it passed once
    p = np.eye(3)
    QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    p[0, 1] = 1.0
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    # so is a read-only view whose writable base is edited after it passed
    base = np.eye(3)
    view = base.view()
    view.flags.writeable = False
    QuadraticProgram(cost_matrix=view, cost_vector=np.zeros(3))
    base[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticProgram(cost_matrix=view, cost_vector=np.zeros(3))


@pytest.mark.parametrize("alias", ["view_of_edited_base", "owner_made_writable"])
def test_edited_read_only_cost_matrix_gets_the_new_solution(alias):
    """P = 2I edited to 4I between two programs on the same read-only array:
    the second program is factored afresh and solves to -q / 4."""
    base = 2.0 * np.eye(2)
    p = base.view() if alias == "view_of_edited_base" else base
    p.flags.writeable = False
    q = np.array([-2.0, -2.0])
    first = solve_qp(QuadraticProgram(cost_matrix=p, cost_vector=q))
    if alias == "owner_made_writable":
        base.flags.writeable = True
    base *= 2.0
    p.flags.writeable = False
    second = solve_qp(QuadraticProgram(cost_matrix=p, cost_vector=q))
    assert first.status == second.status == "optimal"
    np.testing.assert_allclose(first.x, [1.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(second.x, [0.5, 0.5], rtol=0, atol=1e-12)


def test_program_keeps_its_own_cost_matrix():
    p = 2.0 * np.eye(2)
    qp = QuadraticProgram(cost_matrix=p, cost_vector=[-2.0, -2.0],
                          ineq_matrix=[[1.0, 0.0]], ineq_vector=[3.0])
    assert qp.cost_matrix is not p and not qp.cost_matrix.flags.writeable
    p *= 2.0
    p[0, 1] = 5.0
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(qp.cost_matrix, 2.0 * np.eye(2))


def test_program_keeps_its_own_vectors_and_constraint_matrix():
    """Edits of the caller's q, G and h after construction, and of the
    vectors passed to with_vectors, reach neither program: G, stored in
    CSR form only, keeps its entries, and both programs solve as built."""
    q, g, h = np.array([-2.0, -2.0]), np.array([[1.0, 0.0]]), np.array([0.5])
    qp = QuadraticProgram(cost_matrix=2.0 * np.eye(2), cost_vector=q, ineq_matrix=g,
                          ineq_vector=h)
    q2, h2 = np.array([-4.0, -2.0]), np.array([1.0])
    shared = qp.with_vectors(q2, h2)
    g[0, 0] = 2.0
    q[:] = h[:] = q2[:] = h2[:] = 7.0
    for prog, x in ((qp, [0.5, 1.0]), (shared, [1.0, 1.0])):
        g_csr = prog.ineq_matrix
        for a in (prog.cost_vector, prog.ineq_vector, g_csr.data, g_csr.indices, g_csr.indptr):
            assert not a.flags.writeable
        np.testing.assert_array_equal(g_csr.toarray(), [[1.0, 0.0]])
        sol = solve_qp(prog)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, x, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(qp.cost_vector, [-2.0, -2.0])
    np.testing.assert_array_equal(qp.ineq_vector, [0.5])
    np.testing.assert_array_equal(shared.cost_vector, [-4.0, -2.0])
    np.testing.assert_array_equal(shared.ineq_vector, [1.0])


def test_sparse_constraint_matrix_is_copied_in_canonical_form():
    """A sparse G is copied into read-only CSR form with its duplicates
    summed, its column indices sorted and its zeros dropped, so its
    one-entry rows are found, the solve matches the dense G's bit for bit,
    and later edits of the caller's arrays do not reach it. A non-finite
    entry is rejected as in dense input."""
    # row 0 holds 1 + 1 at column 1 and an explicit zero, row 1 is unsorted
    data, indices = np.array([1.0, 0.0, 1.0, 3.0, -1.0]), np.array([1, 0, 1, 2, 0])
    g = sparse.csr_array((data, indices, np.array([0, 3, 5])), shape=(2, 3))
    dense = np.array([[0.0, 2.0, 0.0], [-1.0, 0.0, 3.0]])
    kw = dict(cost_matrix=2.0 * np.eye(3), cost_vector=[-2.0, -4.0, -2.0], ineq_vector=[1.0, 2.0])
    qp = QuadraticProgram(ineq_matrix=g, **kw)
    data[:] = 7.0
    got = qp.ineq_matrix
    assert got.has_canonical_format and got.nnz == 3
    np.testing.assert_array_equal(got.toarray(), dense)
    for a in (got.data, got.indices, got.indptr):
        assert not a.flags.writeable
    np.testing.assert_array_equal(qp.bound_column, [1, -1])
    want = solve_qp(QuadraticProgram(ineq_matrix=dense, **kw))
    sol = solve_qp(qp)
    assert sol.status == want.status == "optimal" and sol.active == want.active == (0,)
    np.testing.assert_array_equal(sol.x, want.x)
    np.testing.assert_array_equal(sol.ineq_multipliers, want.ineq_multipliers)
    with pytest.raises(ValueError, match="ineq_matrix must be finite"):
        QuadraticProgram(ineq_matrix=sparse.csr_array(np.array([[np.inf, 0.0, 1.0]])),
                         **dict(kw, ineq_vector=[1.0]))


def test_non_psd_cost_matrix_rejected_when_built():
    with pytest.raises(ValueError, match="positive semidefinite"):
        QuadraticProgram(cost_matrix=np.diag([1.0, -1.0]), cost_vector=np.zeros(2))


def test_given_factor_is_kept_and_checked_for_its_size():
    """A program keeps the factor it is given instead of factoring P, and
    rejects one of another size, as it rejects a Kronecker cost that is
    not positive definite."""
    a, b = np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 3.0, 5.0])
    p = np.kron(a, b) + 0.5 * np.eye(6)
    factor = KroneckerFactor(a, b, 0.5)
    qp = QuadraticProgram(p, np.ones(6), np.eye(6), np.full(6, -0.1), factor)
    assert qp.factor is factor
    sol = solve_qp(qp)
    dense = solve_qp(QuadraticProgram(p, np.ones(6), np.eye(6), np.full(6, -0.1)))
    assert sol.status == dense.status == "optimal"
    np.testing.assert_allclose(sol.x, dense.x, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="size"):
        QuadraticProgram(np.eye(5), np.zeros(5), factor=factor)
    with pytest.raises(ValueError, match="size"):
        QuadraticProgram(np.eye(5), np.zeros(5), factor=TriangularFactor(np.eye(4)))
    with pytest.raises(ValueError, match="positive definite"):
        KroneckerFactor(a, -b, 0.5)


@pytest.mark.parametrize("field, via", [
    ("cost_vector", "constructor"), ("ineq_matrix", "constructor"),
    ("ineq_vector", "constructor"), ("cost_vector", "with_vectors"),
    ("ineq_vector", "with_vectors")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected_naming_the_field(field, via, bad):
    data = dict(cost_matrix=2.0 * np.eye(2), cost_vector=np.array([-2.0, 1.0]),
                ineq_matrix=np.array([[1.0, 0.0], [0.0, 1.0]]),
                ineq_vector=np.array([0.5, 1.0]))
    data[field] = data[field].copy()
    data[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if via == "constructor":
            QuadraticProgram(**data)
        else:
            template = QuadraticProgram(cost_matrix=data["cost_matrix"],
                                        cost_vector=np.zeros(2),
                                        ineq_matrix=data["ineq_matrix"],
                                        ineq_vector=np.zeros(2))
            template.with_vectors(data["cost_vector"], data["ineq_vector"])


def _full_product_kkt_residual(qp, sol):
    """KKT residual of a solution with every product by G taken in full."""
    x, mu = sol.x, sol.ineq_multipliers
    r = qp.cost_matrix @ x + qp.cost_vector + qp.ineq_matrix.T @ mu
    slack = qp.ineq_vector - qp.ineq_matrix @ x
    return float(max(np.max(np.abs(r)), np.max(-slack), np.max(-mu),
                     np.max(np.abs(mu * slack))))


@pytest.mark.parametrize("n,m,seed", [(8, 12, 0), (30, 90, 0)])
def test_hinted_residual_matches_full_products(n, m, seed):
    rng = np.random.default_rng(n + m + seed)
    hits = 0
    for _ in range(10):
        qp = _random_feasible_qp(rng, n, m)
        cold = solve_qp(qp)
        assert cold.status == "optimal"
        # a neighbouring program shares the active set, as in a warm-started loop
        near = qp.with_vectors(qp.cost_vector + 1e-6 * rng.normal(size=n), qp.ineq_vector)
        for prog in (qp, near):
            warm = solve_qp(prog, active_hint=solve_qp(qp).active)
            if warm.iterations != 1:
                continue
            hits += 1
            assert warm.kkt_residual == pytest.approx(_full_product_kkt_residual(prog, warm),
                                                      rel=0, abs=1e-12)
            np.testing.assert_allclose(warm.x, solve_qp(prog).x, rtol=0, atol=1e-6)
    assert hits >= 15


def test_with_vectors_shares_the_factor_and_matches_fresh_programs():
    """Programs from two templates taking turns share each template's P, J
    and G (in its read-only CSR form), and their cold and hinted
    solves match programs built afresh on copies of the same data, bit for
    bit."""
    rng = np.random.default_rng(17)
    n, m = 8, 10
    g = rng.normal(size=(m, n))
    templates = []
    for _ in range(2):
        a = rng.normal(size=(n, n))
        templates.append(QuadraticProgram(cost_matrix=a.T @ a + n * np.eye(n),
                                          cost_vector=np.zeros(n), ineq_matrix=g,
                                          ineq_vector=np.zeros(m)))
    prev = None
    for k in range(12):
        template = templates[k % 3 == 2]
        q = rng.normal(size=n) * 2.0
        h = g @ rng.normal(size=n) + rng.uniform(0.0, 1.0, size=m)
        shared = template.with_vectors(q, h)
        for name in ("cost_matrix", "factor", "ineq_matrix"):
            assert getattr(shared, name) is getattr(template, name)
        g_csr = shared.ineq_matrix
        for a in (g_csr.data, g_csr.indices, g_csr.indptr):
            assert not a.flags.writeable
        np.testing.assert_array_equal(g_csr.toarray(), g)
        fresh = QuadraticProgram(cost_matrix=template.cost_matrix.copy(), cost_vector=q,
                                 ineq_matrix=g.copy(), ineq_vector=h)
        for name in ("cost_matrix", "cost_vector", "ineq_vector"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))
        np.testing.assert_array_equal(shared.factor.j, fresh.factor.j)
        np.testing.assert_array_equal(shared.ineq_matrix.toarray(), fresh.ineq_matrix.toarray())
        hint = None if prev is None else prev.active
        for kw in ({}, {"active_hint": hint}):
            a_sol = solve_qp(shared, **kw)
            b_sol = solve_qp(fresh, **kw)
            assert a_sol.status == b_sol.status == "optimal"
            assert a_sol.iterations == b_sol.iterations
            assert a_sol.active == b_sol.active
            np.testing.assert_array_equal(a_sol.x, b_sol.x)
            np.testing.assert_array_equal(a_sol.ineq_multipliers, b_sol.ineq_multipliers)
        prev = a_sol
    # the template is left as it was
    np.testing.assert_array_equal(templates[0].cost_vector, np.zeros(n))
    np.testing.assert_array_equal(templates[0].ineq_vector, np.zeros(m))
    for q, h in ((np.zeros(n - 1), np.zeros(m)), (np.zeros(n), np.zeros(m + 1)),
                 (np.zeros((n, 1)), np.zeros(m)), (np.zeros(n), np.zeros((m, 2)))):
        with pytest.raises(ValueError, match="shape"):
            templates[0].with_vectors(q, h)


def _program_with_known_optimum(rng, n, m, n_active):
    """A strictly convex program whose optimum x*, active rows and
    multipliers are fixed by construction: rows ``act`` are tight at x*
    with multipliers in [0.5, 2], the others hold with slack in [0.1, 1]."""
    a = rng.normal(size=(n, n))
    p = a.T @ a + n * np.eye(n)
    g = rng.normal(size=(m, n))
    x_opt = rng.normal(size=n)
    act = np.sort(rng.choice(m, size=n_active, replace=False))
    h = g @ x_opt + rng.uniform(0.1, 1.0, size=m)
    h[act] = g[act] @ x_opt
    mu = np.zeros(m)
    mu[act] = rng.uniform(0.5, 2.0, size=n_active)
    q = -p @ x_opt - g.T @ mu
    return QuadraticProgram(p, q, g, h), x_opt, tuple(act), mu


@pytest.mark.parametrize("n_active", [17, 24, 35])
def test_active_sets_larger_than_the_initial_buffer(n_active):
    """Cold solves that end with 17 to 35 active rows (the buffers start at
    16 and double), and solves resumed from tokens that carry that many
    rows, reach the constructed optimum with its multipliers."""
    rng = np.random.default_rng(n_active)
    for _ in range(3):
        qp, x_opt, act, mu = _program_with_known_optimum(rng, 40, 90, n_active)
        extra = tuple(i for i in range(90) if i not in act)[:5]
        for rows in (None, act, act + extra):
            hint = None if rows is None else token_with_active_rows(qp, rows)
            sol = solve_qp(qp, tol=1e-8, active_hint=hint)
            assert sol.status == "optimal"
            assert sol.active == act
            np.testing.assert_allclose(sol.x, x_opt, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sol.ineq_multipliers, mu, rtol=0, atol=1e-8)
            assert _full_product_kkt_residual(qp, sol) <= 1e-8
            assert sol.objective == pytest.approx(qp.objective(sol.x), rel=1e-12, abs=1e-12)
        assert solve_qp(qp).iterations >= n_active
        assert solve_qp(qp, active_hint=token_with_active_rows(qp, act)).iterations == 1


def _with_dependent_rows(rng, n, m):
    """A random program plus rows that depend on its own: duplicates,
    negations (two-sided bands, some empty) and sums of two rows whose
    right-hand side is shifted either way. Half of the cost matrices have
    eigenvalues spread over 1e-3..1e3, so J^T G's rows are far from G's
    scale."""
    base = _random_feasible_qp(rng, n, m)
    g, h = base.ineq_matrix.toarray(), base.ineq_vector
    p = base.cost_matrix
    if rng.random() < 0.5:
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        p = (basis * np.logspace(-3, 3, n)) @ basis.T
        p = 0.5 * (p + p.T)
    rows, rhs = [g], [h]
    for _ in range(int(rng.integers(2, 6))):
        i, j = (int(v) for v in rng.choice(m, size=2, replace=False))
        kind = int(rng.integers(3))
        shift = float(rng.choice([-0.5, 0.0, 0.5]))
        if kind == 0:
            rows.append(g[i]), rhs.append(h[i] + abs(shift))
        elif kind == 1:
            rows.append(-g[i]), rhs.append(-h[i] + shift)
        else:
            rows.append(2.0 * g[i] - g[j]), rhs.append(2.0 * h[i] - h[j] + shift)
    return QuadraticProgram(p, base.cost_vector, np.vstack(rows),
                            np.hstack([np.atleast_1d(r) for r in rhs]))


def test_dependent_and_duplicate_rows_agree_with_linprog():
    """With dependent rows the solver's verdict matches LP feasibility, and
    the rows it keeps active are linearly independent, from cold starts, from
    tokens that carry independent rows and from the token of an infeasible
    program's cold solve alike. That program shares the template, its h
    made infeasible along a Farkas certificate y >= 0, y^T G = 0, wherever
    G has one; resumed from its token, a feasible program reaches its cold
    solve's x."""
    rng = np.random.default_rng(23)
    verdicts = set()
    resumed = 0
    for _ in range(150):
        n = int(rng.integers(2, 7))
        qp = _with_dependent_rows(rng, n, int(rng.integers(2, 2 * n + 2)))
        g, h = qp.ineq_matrix.toarray(), qp.ineq_vector
        lp = linprog(np.zeros(qp.n), A_ub=g, b_ub=h, bounds=[(None, None)] * qp.n,
                     method="highs")
        assert lp.status in (0, 2)
        feasible = lp.status == 0
        m = h.size
        cold = solve_qp(qp)
        certificate = linprog(np.zeros(m), A_eq=np.vstack([g.T, np.ones(m)]),
                              b_eq=np.r_[np.zeros(qp.n), 1.0], bounds=(0, None), method="highs")
        starts = [None, range(m), (m - 1, m - 2)]
        if certificate.status == 0:
            y = certificate.x
            starts.append(h - (y @ h + 1.0) * y / (y @ y))  # y^T h = -1
        for start in starts:
            if isinstance(start, np.ndarray):
                failed = solve_qp(qp.with_vectors(rng.normal(size=qp.n), start))
                assert failed.status == "infeasible"
                hint = failed.active
                assert hint.workspace(qp) is not None
                resumed += 1
            else:
                hint = None if start is None else token_with_active_rows(qp, _independent(g, start))
            sol = solve_qp(qp, active_hint=hint)
            assert sol.status == ("optimal" if feasible else "infeasible"), hint
            if sol.active:
                assert np.linalg.matrix_rank(g[list(sol.active)]) == len(sol.active)
            if feasible:
                assert _full_product_kkt_residual(qp, sol) <= 1e-6
                if isinstance(start, np.ndarray):
                    np.testing.assert_allclose(sol.x, cold.x, rtol=0, atol=1e-9)
        verdicts.add(feasible)
    assert verdicts == {True, False}
    assert resumed >= 50


def test_to_csr_matches_scipy_conversion():
    # the same arrays and index dtype as csr_array(a), negative zeros dropped
    rng = np.random.default_rng(61)
    for shape in [(0, 3), (1, 1), (3, 1), (5, 7), (40, 30)]:
        a = rng.normal(size=shape)
        a[rng.random(shape) < 0.6] = 0.0
        a[:1, :1] = -0.0
        for arr in (a, np.asfortranarray(a)):
            got, want = to_csr(arr), sparse.csr_array(arr)
            assert got.shape == want.shape and got.has_canonical_format
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
                assert getattr(got, name).dtype == getattr(want, name).dtype


def test_dense_rows_of_g_match_the_public_csr_rows():
    """_row densifies a row of G through scipy's private ``csr_todense``:
    it must equal the public ``ineq_matrix[[i]].toarray()[0]`` bit for bit,
    on every row of the 2x20 and 8x40 templates and of a program with
    bound, copied and all-zero rows."""
    programs = [mpc._structure(mpc.MpcConfig(n_av=n_av, horizon=horizon), ArxParams.default()).qp
                for n_av, horizon in ((2, 20), (8, 40))]
    programs.append(_with_bound_rows(np.random.default_rng(73), 6, 3)[0])
    for qp in programs:
        state = _DualActiveSet(qp)
        g = qp.ineq_matrix
        for i in range(g.shape[0]):
            np.testing.assert_array_equal(state._row(i), g[[i]].toarray()[0])


def test_ineq_excess_is_the_csr_product_less_h():
    """ineq_excess calls scipy's private CSR kernel directly: it must equal
    the public ``ineq_matrix @ x - h`` bit for bit and the dense
    ``G @ x - h`` to rounding, with no rows and with an all-zero row too."""
    rng = np.random.default_rng(67)
    programs = []
    for n, m in ((1, 1), (3, 7), (20, 45), (40, 200)):
        g = rng.normal(size=(m, n))
        g[rng.random(g.shape) < 0.7] = 0.0
        programs.append(QuadraticProgram(cost_matrix=np.eye(n), cost_vector=np.zeros(n),
                                         ineq_matrix=g, ineq_vector=rng.normal(size=m)))
    programs.append(QuadraticProgram(cost_matrix=np.eye(4), cost_vector=np.zeros(4)))
    g = rng.normal(size=(5, 4))
    g[2] = 0.0
    programs.append(QuadraticProgram(cost_matrix=np.eye(4), cost_vector=np.zeros(4),
                                     ineq_matrix=g, ineq_vector=rng.normal(size=5)))
    for qp in programs:
        g, h = qp.ineq_matrix.toarray(), qp.ineq_vector
        for x in (rng.normal(size=qp.n), 1e3 * rng.normal(size=qp.n)):
            got = qp.ineq_excess(x)
            assert got.shape == h.shape
            np.testing.assert_array_equal(got, qp.ineq_matrix @ x - h)
            scale = np.abs(g) @ np.abs(x) + np.abs(h)
            assert np.all(np.abs(got - (g @ x - h)) <= 1e-14 * scale)
    np.testing.assert_array_equal(programs[-1].ineq_excess(np.ones(4))[2],
                                  -programs[-1].ineq_vector[2])
