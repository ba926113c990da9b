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


def test_equality_constrained():
    qp = QuadraticProgram(cost_matrix=np.eye(2), cost_vector=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0]]), eq_vector=np.array([2.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)


def test_redundant_consistent_equalities():
    qp = QuadraticProgram(cost_matrix=np.eye(2), cost_vector=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
                          eq_vector=np.array([2.0, 4.0]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)


def test_inconsistent_equalities_infeasible():
    qp = QuadraticProgram(cost_matrix=np.eye(2), cost_vector=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          eq_vector=np.array([2.0, 3.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible"


def test_infeasible_inequalities_certified():
    qp = QuadraticProgram(cost_matrix=np.array([[2.0]]), cost_vector=np.array([-6.0]),
                          ineq_matrix=np.array([[1.0], [-1.0]]),
                          ineq_vector=np.array([0.0, -1.0]))
    sol = solve_qp(qp)
    assert sol.status == "infeasible"
    assert sol.most_violated is not None
    kind, idx = sol.most_violated
    assert kind == "ineq" and idx in (0, 1)


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


def test_equalities_and_inequalities_together():
    # min ||x||^2 s.t. x0 + x1 = 1, x0 <= 0.2
    qp = QuadraticProgram(cost_matrix=2 * np.eye(2), cost_vector=np.zeros(2),
                          eq_matrix=np.array([[1.0, 1.0]]), eq_vector=np.array([1.0]),
                          ineq_matrix=np.array([[1.0, 0.0]]),
                          ineq_vector=np.array([0.2]))
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.2, 0.8], atol=1e-10)


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
    x, lam, mu = sol.x, sol.eq_multipliers, sol.ineq_multipliers
    r = qp.cost_matrix @ x + qp.cost_vector + qp.eq_matrix.T @ lam + qp.ineq_matrix.T @ mu
    slack = qp.ineq_vector - qp.ineq_matrix @ x
    worst = max(np.max(np.abs(r)), np.max(-slack), np.max(-mu), np.max(np.abs(mu * slack)))
    if qp.eq_vector.size:
        worst = max(worst, np.max(np.abs(qp.eq_matrix @ x - qp.eq_vector)))
    return float(worst)


@pytest.mark.parametrize("n,m,me", [(8, 12, 0), (30, 90, 0), (12, 20, 3)])
def test_hinted_residual_matches_full_products(n, m, me):
    rng = np.random.default_rng(n + m + me)
    hits = 0
    for _ in range(10):
        base = _random_feasible_qp(rng, n, m)
        a = rng.normal(size=(me, n))
        x_feas = solve_qp(base).x
        qp = QuadraticProgram(cost_matrix=base.cost_matrix, cost_vector=base.cost_vector,
                              eq_matrix=a, eq_vector=a @ x_feas,
                              ineq_matrix=base.ineq_matrix, ineq_vector=base.ineq_vector)
        cold = solve_qp(qp)
        assert cold.status == "optimal"
        # a neighbouring program shares the active set, as in a warm-started loop
        near = QuadraticProgram(cost_matrix=qp.cost_matrix,
                                cost_vector=qp.cost_vector + 1e-6 * rng.normal(size=n),
                                eq_matrix=qp.eq_matrix, eq_vector=qp.eq_vector,
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
