"""Dense convex quadratic programming.

Solves min 0.5 x'Px + q'x subject to A x = b and G x <= h with a dual
active-set method (Goldfarb-Idnani): start at the unconstrained minimum,
repeatedly drive the most violated constraint to tightness with exact
primal/dual step lengths, dropping blocking constraints as their
multipliers hit zero. The method needs no feasible starting point,
terminates with near machine-precision KKT residuals on well-scaled
problems, certifies infeasibility via an unbounded dual step, and is
fully deterministic.

As in Goldfarb and Idnani's method, the iteration works in the fixed basis
J = L^-T of the cost factor P = L L^T: with the active rows mapped to
y = A J, each step solves a system of the active-set size rather than the
bordered KKT system. J is kept for the last read-only P, so a sequence of
programs sharing one read-only cost matrix (the MPC's, built once per
configuration) factors it once; a writable P is factored on every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


# the last read-only cost matrix found symmetric; it cannot have changed since
_last_symmetric: np.ndarray | None = None


def _check_symmetric(p: np.ndarray) -> None:
    """Raise unless max|P - P'| <= 1e-10 (NaN fails); a read-only ``p`` that
    passed on the previous check is not checked again."""
    global _last_symmetric
    if p is _last_symmetric and not p.flags.writeable:
        return
    # in place: a second n x n temporary costs more than the check itself
    asym = p - p.T
    if p.size and not np.abs(asym, out=asym).max() <= 1e-10:
        raise ValueError("cost matrix must be symmetric")
    if not p.flags.writeable:
        _last_symmetric = p


@dataclass(frozen=True)
class QuadraticProgram:
    """Dense QP data: symmetric PSD cost, optional equalities/inequalities."""

    cost_matrix: np.ndarray
    cost_vector: np.ndarray
    eq_matrix: np.ndarray = None
    eq_vector: np.ndarray = None
    ineq_matrix: np.ndarray = None
    ineq_vector: np.ndarray = None

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.cost_matrix, dtype=float))
        q = np.atleast_1d(np.asarray(self.cost_vector, dtype=float))
        n = q.size
        if p.shape != (n, n):
            raise ValueError(f"cost matrix shape {p.shape} does not match vector size {n}")
        _check_symmetric(p)
        a = np.zeros((0, n)) if self.eq_matrix is None else np.atleast_2d(
            np.asarray(self.eq_matrix, dtype=float))
        b = np.zeros(0) if self.eq_vector is None else np.atleast_1d(
            np.asarray(self.eq_vector, dtype=float))
        g = np.zeros((0, n)) if self.ineq_matrix is None else np.atleast_2d(
            np.asarray(self.ineq_matrix, dtype=float))
        h = np.zeros(0) if self.ineq_vector is None else np.atleast_1d(
            np.asarray(self.ineq_vector, dtype=float))
        if a.shape != (b.size, n):
            raise ValueError(f"equality block shapes inconsistent: {a.shape} vs {b.size}")
        if g.shape != (h.size, n):
            raise ValueError(f"inequality block shapes inconsistent: {g.shape} vs {h.size}")
        object.__setattr__(self, "cost_matrix", p)
        object.__setattr__(self, "cost_vector", q)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_vector", b)
        object.__setattr__(self, "ineq_matrix", g)
        object.__setattr__(self, "ineq_vector", h)

    @property
    def n(self) -> int:
        return self.cost_vector.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.cost_matrix @ x + self.cost_vector @ x)

    def max_violation(self, x) -> float:
        """Largest constraint violation at ``x`` (0 when feasible)."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        if self.eq_vector.size:
            worst = float(np.max(np.abs(self.eq_matrix @ x - self.eq_vector)))
        if self.ineq_vector.size:
            worst = max(worst, float(np.max(self.ineq_matrix @ x - self.ineq_vector)))
        return worst


@dataclass
class QpSolution:
    """Primal solution with multipliers and solver diagnostics."""

    x: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    active: tuple
    kkt_residual: float
    most_violated: tuple | None = None  # ("eq"|"ineq", row index)
    solve_time: float = 0.0


def _chol_or_jitter(p: np.ndarray) -> np.ndarray:
    """Cholesky of the cost matrix, adding a small jitter if only PSD."""
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        scale = max(float(np.trace(p)) / p.shape[0], 1.0)
        pj = p + (1e-10 * scale) * np.eye(p.shape[0])
        try:
            return np.linalg.cholesky(pj)
        except np.linalg.LinAlgError:
            raise ValueError("cost matrix is not positive semidefinite") from None


# (P, J) of the last read-only cost matrix factored, read and replaced whole
_last_factor: tuple = (None, None)


def _inverse_factor(p: np.ndarray) -> np.ndarray:
    """J = L^-T with P = L L^T, so P^-1 = J J^T.

    The factor of a read-only ``p`` is kept and reused while the next call
    passes the same array object; a writable ``p`` is factored every call.
    """
    global _last_factor
    cached_p, cached_j = _last_factor
    if cached_p is p and not p.flags.writeable:
        return cached_j
    chol = _chol_or_jitter(p)
    j = np.ascontiguousarray(solve_triangular(chol, np.eye(p.shape[0]), lower=True).T)
    if not p.flags.writeable:
        _last_factor = (p, j)
    return j


def _reduce_equalities(a: np.ndarray, b: np.ndarray):
    """Drop linearly dependent equality rows; detect inconsistency.

    Returns (a_red, b_red, kept_indices, inconsistent_row_or_None).
    """
    me = a.shape[0]
    if me == 0:
        return a, b, np.arange(0), None
    rank = np.linalg.matrix_rank(a, tol=1e-11 * max(1.0, float(np.abs(a).max())))
    if rank == me:
        return a, b, np.arange(me), None
    from scipy.linalg import qr

    _, _, piv = qr(a.T, mode="economic", pivoting=True)
    keep = np.sort(piv[:rank])
    a_red, b_red = a[keep], b[keep]
    x_ls, *_ = np.linalg.lstsq(a_red, b_red, rcond=None)
    resid = a @ x_ls - b
    bad = int(np.argmax(np.abs(resid)))
    if np.abs(resid[bad]) > 1e-8 * (1.0 + abs(b[bad])):
        return a_red, b_red, keep, bad
    return a_red, b_red, keep, None


def _kkt_residual(qp: QuadraticProgram, x, lam, mu, gx, gt_mu) -> float:
    """Largest KKT violation at (x, lam, mu), given ``gx`` = G x and
    ``gt_mu`` = G^T mu."""
    r = qp.cost_matrix @ x + qp.cost_vector
    if qp.eq_vector.size:
        r = r + qp.eq_matrix.T @ lam
    r = r + gt_mu
    worst = float(np.max(np.abs(r))) if r.size else 0.0
    if qp.eq_vector.size:
        worst = max(worst, float(np.max(np.abs(qp.eq_matrix @ x - qp.eq_vector))))
    if qp.ineq_vector.size:
        slack = qp.ineq_vector - gx
        worst = max(worst, float(np.max(-slack)), float(np.max(-mu)))
        worst = max(worst, float(np.max(np.abs(mu * slack))))
    return worst


def _try_active_hint(qp: QuadraticProgram, hint, tol: float, j: np.ndarray):
    """Single KKT solve on a hinted active set; None when the hint is stale.

    With P^-1 = J J^T, w = -J^T q and the active rows' y = A J, the
    multipliers solve (y y^T) m = y w - b and x = J (w - y^T m).
    """
    g, h = qp.ineq_matrix, qp.ineq_vector
    a, b = qp.eq_matrix, qp.eq_vector
    idx = sorted({int(i) for i in hint if 0 <= int(i) < h.size})
    g_act = g[idx]
    w = -(qp.cost_vector @ j)
    y = np.vstack([a, g_act]) @ j
    try:
        mult = np.linalg.solve(y @ y.T, y @ w - np.concatenate([b, h[idx]]))
    except np.linalg.LinAlgError:
        return None
    x = j @ (w - mult @ y)
    lam = mult[: b.size]
    mu_act = mult[b.size:]
    if mu_act.size and float(np.min(mu_act)) < -1e-9:
        return None
    # one product with G serves the violation check and the slack; mu is
    # zero outside the hinted rows, so G^T mu needs only those rows
    gx = g @ x
    scale = 1.0 + (float(np.max(np.abs(h))) if h.size else 0.0)
    if h.size and float(np.max(gx - h)) > 1e-9 * scale:
        return None
    mu_act = np.maximum(mu_act, 0.0)
    mu = np.zeros(h.size)
    mu[idx] = mu_act
    res = _kkt_residual(qp, x, lam, mu, gx, g_act.T @ mu_act)
    if res > tol:
        return None
    return QpSolution(x=x, status="optimal", iterations=1, eq_multipliers=lam,
                      ineq_multipliers=mu, active=tuple(idx), kkt_residual=res)


class _DualActiveSet:
    """Goldfarb-Idnani iteration state over the internal ">=" normal form.

    Works in the fixed basis J = L^-T of the cost factor: it keeps the rows
    ``normal @ J`` of the active constraints, so each step solves a system
    of the active-set size instead of the bordered KKT system.
    """

    def __init__(self, p, q, j, n_eq):
        self.j = j
        self.n = q.size
        self.n_eq = n_eq  # ids below this are equalities (never dropped)
        self.x = j @ -(q @ j)
        self.ids: list[int] = []
        self.u = np.zeros(0)
        self.y = np.zeros((0, self.n))  # active normals times J
        self.signs: dict[int, float] = {}
        self.iterations = 0
        self.p_scale = max(float(np.trace(p)) / self.n, 1e-12)

    def _saddle(self, d):
        """Primal step z and dual step r for a normal with J^T normal = d."""
        if not self.ids:
            return self.j @ d, np.zeros(0)
        try:
            r = np.linalg.solve(self.y @ self.y.T, self.y @ d)
        except np.linalg.LinAlgError:
            r, *_ = np.linalg.lstsq(self.y.T, d, rcond=None)
            return np.zeros(self.n), r
        return self.j @ (d - r @ self.y), r

    def _push(self, cid, d, u, sign):
        self.ids.append(cid)
        self.u = np.append(self.u, u)
        self.y = np.vstack([self.y, d])
        self.signs[cid] = sign

    def register_tight(self, cid, npl, sign):
        self._push(cid, npl @ self.j, 0.0, sign)

    def enter(self, cid, npl, level, sign, max_iter):
        """Drive constraint npl'x >= level to tightness; returns a status."""
        d = npl @ self.j
        slack = float(npl @ self.x) - level
        u_plus = 0.0
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                return "max_iter"
            z, r = self._saddle(d)
            ztn = float(z @ npl)
            z_zero = ztn <= 1e-12 * (1.0 + float(npl @ npl)) / self.p_scale
            t1 = np.inf
            block = -1
            for pos, acid in enumerate(self.ids):
                if acid >= self.n_eq and r[pos] > 1e-13:
                    ratio = max(self.u[pos], 0.0) / r[pos]
                    if ratio < t1 - 1e-15:
                        t1, block = ratio, pos
            t2 = np.inf if z_zero else -slack / ztn
            t = min(t1, t2)
            if not np.isfinite(t):
                return "infeasible"
            if len(self.ids):
                self.u = self.u - t * r
            u_plus += t
            if not z_zero and t2 <= t1:
                self.x = self.x + t * z
                self._push(cid, d, u_plus, sign)
                return "ok"
            if block < 0:
                return "infeasible"
            if not z_zero:
                self.x = self.x + t * z
                slack = float(npl @ self.x) - level
            del self.ids[block]
            self.u = np.delete(self.u, block)
            self.y = np.delete(self.y, block, axis=0)


def solve_qp(qp: QuadraticProgram, tol: float = 1e-6, max_iter: int | None = None,
             active_hint=None) -> QpSolution:
    """Solve a dense convex QP.

    ``active_hint`` (optional inequality row indices) enables a one-shot warm
    start: if the hinted active set already satisfies the KKT conditions the
    solve reduces to a single linear system. Infeasibility is reported with
    the most violated constraint, never as a silent wrong answer.
    """
    t0 = time.perf_counter()
    n = qp.n
    mi = qp.ineq_vector.size
    if max_iter is None:
        max_iter = max(200, 10 * (n + mi))

    j = _inverse_factor(qp.cost_matrix)
    if active_hint is not None:
        warm = _try_active_hint(qp, active_hint, tol, j)
        if warm is not None:
            warm.solve_time = time.perf_counter() - t0
            return warm

    a_eq, b_eq, eq_keep, bad_eq = _reduce_equalities(qp.eq_matrix, qp.eq_vector)
    g, h = qp.ineq_matrix, qp.ineq_vector
    me = b_eq.size
    state = _DualActiveSet(qp.cost_matrix, qp.cost_vector, j, n_eq=me)

    def most_violated_at(x):
        if mi:
            viol = g @ x - h
            i = int(np.argmax(viol))
            if viol[i] > 0:
                return ("ineq", i)
        if qp.eq_vector.size:
            r = np.abs(qp.eq_matrix @ x - qp.eq_vector)
            j = int(np.argmax(r))
            if r[j] > 1e-9 * (1.0 + abs(qp.eq_vector[j])):
                return ("eq", j)
        return None

    def finish(status, most=None):
        lam = np.zeros(qp.eq_vector.size)
        mu = np.zeros(mi)
        for pos, cid in enumerate(state.ids):
            if cid < me:
                lam[eq_keep[cid]] = -state.signs[cid] * state.u[pos]
            else:
                mu[cid - me] = max(state.u[pos], 0.0)
        res = _kkt_residual(qp, state.x, lam, mu, g @ state.x, g.T @ mu)
        if status == "optimal" and res > tol:
            status = "max_iter"
        if status != "optimal" and most is None:
            most = most_violated_at(state.x)
        return QpSolution(
            x=state.x, status=status, iterations=max(state.iterations, 1),
            eq_multipliers=lam, ineq_multipliers=mu,
            active=tuple(sorted(cid - me for cid in state.ids if cid >= me)),
            kkt_residual=res, most_violated=most,
            solve_time=time.perf_counter() - t0,
        )

    if bad_eq is not None:
        return finish("infeasible", ("eq", bad_eq))

    # equalities first: forced active, sign-free multipliers, never dropped
    for e in range(me):
        resid = float(a_eq[e] @ state.x - b_eq[e])
        if abs(resid) <= 1e-13 * (1.0 + abs(b_eq[e])):
            state.register_tight(e, a_eq[e].copy(), 1.0)
            continue
        sign = 1.0 if resid < 0 else -1.0
        outcome = state.enter(e, sign * a_eq[e], sign * b_eq[e], sign, max_iter)
        if outcome == "infeasible":
            return finish("infeasible", ("eq", int(eq_keep[e])))
        if outcome == "max_iter":
            return finish("max_iter")

    while True:
        if mi:
            viol = g @ state.x - h
            worst = int(np.argmax(viol))
            worst_v = float(viol[worst])
        else:
            worst = -1
            worst_v = -np.inf
        if worst < 0 or worst_v <= 1e-10 * (1.0 + abs(h[worst])):
            return finish("optimal")
        outcome = state.enter(me + worst, -g[worst], -h[worst], 1.0, max_iter)
        if outcome == "infeasible":
            return finish("infeasible", ("ineq", worst))
        if outcome == "max_iter":
            return finish("max_iter")
