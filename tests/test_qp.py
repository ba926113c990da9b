import itertools

import numpy as np
import pytest

from gpplatoon import qp as qp_module
from gpplatoon.qp import QuadraticProgram, solve_qp


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


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 5))
        qp = _random_feasible_qp(rng, n, m)
        sol = solve_qp(qp, tol=1e-8)
        assert sol.status == "optimal"
        oracle = enumerate_qp(qp.cost_matrix, qp.cost_vector,
                              qp.ineq_matrix, qp.ineq_vector)
        assert oracle is not None
        np.testing.assert_allclose(sol.x, oracle[0], atol=1e-6)
        assert qp.objective(sol.x) == pytest.approx(oracle[1], abs=1e-6)


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
    rng = np.random.default_rng(9)
    qp = _random_feasible_qp(rng, 5, 4)
    cold = solve_qp(qp)
    warm = solve_qp(qp, active_hint=(0, 1, 2, 3))
    assert warm.status == "optimal"
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)


def test_hint_with_an_inactive_row_seeds_the_solve():
    """The optimal active set plus one inactive row: the hinted start drops
    that row and the solve ends at the cold optimum in fewer iterations."""
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
        warm = solve_qp(qp, active_hint=cold.active + (extra,))
        assert warm.status == "optimal"
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
        solves += 1
        fewer += warm.iterations < cold.iterations
    assert solves >= 200
    assert fewer >= 0.75 * solves


def test_adversarial_hints_reach_the_cold_optimum():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        base = _random_feasible_qp(rng, n, int(rng.integers(2, 3 * n)))
        act = list(solve_qp(base).active)
        i, j = (act + [r for r in range(base.ineq_vector.size) if r not in act])[:2]
        # a last row that is the sum of rows i and j, tight wherever both are
        g = np.vstack([base.ineq_matrix, base.ineq_matrix[i] + base.ineq_matrix[j]])
        h = np.append(base.ineq_vector, base.ineq_vector[i] + base.ineq_vector[j])
        qp = QuadraticProgram(cost_matrix=base.cost_matrix, cost_vector=base.cost_vector,
                              ineq_matrix=g, ineq_vector=h)
        m = h.size
        cold = solve_qp(qp)
        assert cold.status == "optimal"
        hints = [
            tuple(range(m)),
            cold.active + cold.active,
            cold.active + (m, m + 5, -1, -m),
            (-1, -2, m),
            (i, j, m - 1),
            cold.active + (i, j, m - 1),
        ]
        for hint in hints:
            warm = solve_qp(qp, active_hint=hint)
            assert warm.status == "optimal", hint
            np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
            assert warm.kkt_residual <= 1e-6


def test_hinted_infeasible_program_stays_infeasible():
    scalar = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                              ineq_matrix=np.array([[1.0], [-1.0]]),
                              ineq_vector=np.array([0.0, -1.0]))
    rng = np.random.default_rng(19)
    base = _random_feasible_qp(rng, 5, 8)
    # rows 8 and 9 ask for g x <= 0 and g x >= 1 at once
    g = np.vstack([base.ineq_matrix, base.ineq_matrix[0], -base.ineq_matrix[0]])
    h = np.append(base.ineq_vector, [0.0, -1.0])
    wide = QuadraticProgram(cost_matrix=base.cost_matrix, cost_vector=base.cost_vector,
                            ineq_matrix=g, ineq_vector=h)
    for qp in (scalar, wide):
        m = qp.ineq_vector.size
        for hint in ((), (0,), (m - 1,), (m - 2, m - 1), tuple(range(m))):
            sol = solve_qp(qp, active_hint=hint)
            assert sol.status == "infeasible", hint
            assert 0 <= sol.most_violated < m


def test_hint_iterations_count_its_solves():
    # min 0.5|x|^2 - 3 (x0 + x1 + x2) s.t. x <= (1, 1, 1, 5): x = (1, 1, 1, 0)
    qp = QuadraticProgram(cost_matrix=np.eye(4), cost_vector=np.array([-3.0, -3.0, -3.0, 0.0]),
                          ineq_matrix=np.eye(4), ineq_vector=np.array([1.0, 1.0, 1.0, 5.0]))
    cold = solve_qp(qp)
    assert cold.active == (0, 1, 2) and cold.iterations == 3
    exact = solve_qp(qp, active_hint=(0, 1, 2))
    assert exact.iterations == 1
    # row 3 forced tight gets multiplier -5 and is dropped: a second solve
    extra = solve_qp(qp, active_hint=(0, 1, 2, 3))
    assert extra.iterations == 2
    # an empty hint is a start from the empty set, then three entries
    assert solve_qp(qp, active_hint=()).iterations == 4
    assert solve_qp(qp, active_hint=(-1, 4)).iterations == 4
    for sol in (exact, extra):
        assert sol.status == "optimal" and sol.active == (0, 1, 2)
        np.testing.assert_allclose(sol.x, [1.0, 1.0, 1.0, 0.0], rtol=0, atol=1e-12)


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


def test_symmetry_check_skips_only_the_last_read_only_matrix():
    good = np.eye(3)
    asym = np.eye(3)
    asym[0, 1] = 1e-9
    nan = np.eye(3)
    nan[2, 2] = np.nan
    for p in (good, asym, nan):
        p.flags.writeable = False
    for _ in range(2):
        QuadraticProgram(cost_matrix=good, cost_vector=np.zeros(3))
        assert qp_module._last_symmetric is good
        # a read-only matrix raises on its first use and on every use after
        for bad in (asym, nan):
            with pytest.raises(ValueError):
                QuadraticProgram(cost_matrix=bad, cost_vector=np.zeros(3))
        assert qp_module._last_symmetric is good
    # a writable matrix is checked on every use, also after it passed once
    p = np.eye(3)
    QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    p[0, 1] = 1.0
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=p, cost_vector=np.zeros(3))
    # so is the last checked read-only matrix once it is made writable again
    good.flags.writeable = True
    good[1, 0] = np.nan
    with pytest.raises(ValueError):
        QuadraticProgram(cost_matrix=good, cost_vector=np.zeros(3))


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
        near = QuadraticProgram(cost_matrix=qp.cost_matrix,
                                cost_vector=qp.cost_vector + 1e-6 * rng.normal(size=n),
                                ineq_matrix=qp.ineq_matrix, ineq_vector=qp.ineq_vector)
        for prog in (qp, near):
            warm = solve_qp(prog, active_hint=cold.active)
            if warm.iterations != 1:
                continue
            hits += 1
            assert warm.kkt_residual == pytest.approx(_full_product_kkt_residual(prog, warm),
                                                      rel=0, abs=1e-12)
            np.testing.assert_allclose(warm.x, solve_qp(prog).x, rtol=0, atol=1e-6)
    assert hits >= 15


def test_read_only_cost_matrix_reuses_factor():
    """Solves sharing one read-only P (cached factor) match the same QPs on
    writable copies (factored every call), cold and hinted, also when two
    read-only matrices take turns and a writable one changes in place."""
    rng = np.random.default_rng(17)
    n, m = 8, 10
    fixed = []
    for _ in range(2):
        a = rng.normal(size=(n, n))
        p = a.T @ a + n * np.eye(n)
        p.flags.writeable = False
        fixed.append(p)
    g = rng.normal(size=(m, n))
    prev = None
    for k in range(12):
        p = fixed[k % 3 == 2]
        q = rng.normal(size=n) * 2.0
        h = g @ rng.normal(size=n) + rng.uniform(0.0, 1.0, size=m)
        shared = QuadraticProgram(cost_matrix=p, cost_vector=q, ineq_matrix=g,
                                  ineq_vector=h)
        assert shared.cost_matrix is p
        own = QuadraticProgram(cost_matrix=p.copy(), cost_vector=q, ineq_matrix=g,
                               ineq_vector=h)
        hint = None if prev is None else prev.active
        a_sol = solve_qp(shared, active_hint=hint)
        b_sol = solve_qp(own, active_hint=hint)
        assert a_sol.status == b_sol.status == "optimal"
        assert a_sol.iterations == b_sol.iterations
        np.testing.assert_allclose(a_sol.x, b_sol.x, rtol=0, atol=1e-12)
        prev = a_sol
    writable = fixed[0].copy()
    qp = QuadraticProgram(cost_matrix=writable, cost_vector=np.ones(n))
    first = solve_qp(qp)
    writable *= 2.0
    second = solve_qp(qp)
    np.testing.assert_allclose(second.x, 0.5 * first.x, rtol=0, atol=1e-12)
