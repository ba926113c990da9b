"""Dense convex quadratic programming.

Solves min 0.5 x'Px + q'x subject to G x <= h with a dual active-set
method (Goldfarb-Idnani): start at the unconstrained minimum, repeatedly
drive the most violated constraint to tightness with exact primal/dual
step lengths, dropping blocking constraints as their multipliers hit zero.
The method needs no feasible starting point, terminates with near
machine-precision KKT residuals on well-scaled problems, certifies
infeasibility via an unbounded dual step, and is fully deterministic.
There are no equality constraints.

A warm-start hint of active rows seeds the iteration (the hot start of
online active-set QP, Ferreau et al. 2008): the hinted rows are made tight,
the row with the most negative multiplier is dropped until none is
negative, and the dual iteration goes on from that dual-feasible point.
If the hint was the optimal active set, the solve is one linear system.

As in Goldfarb and Idnani's method, the iteration works in the fixed basis
J = L^-T of the cost factor P = L L^T: with the active rows mapped to
y = G J, each step solves a system of the active-set size rather than the
bordered KKT system. Each :class:`QuadraticProgram` owns a read-only copy
of P and its J, checked and factored once when it is built;
:meth:`QuadraticProgram.with_vectors` gives programs that share them (the
MPC's, one template per configuration), so P is factored once per template.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular


@dataclass(frozen=True)
class QuadraticProgram:
    """Dense QP data: symmetric PSD cost and optional inequalities.

    Construction checks every input and keeps a read-only copy of P with its
    factor, so a bad P raises ``ValueError`` here and later edits of the
    caller's array do not reach the program.
    """

    cost_matrix: np.ndarray
    cost_vector: np.ndarray
    ineq_matrix: np.ndarray = None
    ineq_vector: np.ndarray = None
    inverse_factor: np.ndarray = field(init=False, repr=False, compare=False)  # J = L^-T
    p_scale: float = field(init=False, repr=False, compare=False)  # mean diagonal of P

    def __post_init__(self):
        p = np.array(self.cost_matrix, dtype=float, ndmin=2)
        p.flags.writeable = False
        n = p.shape[0]
        if not n or p.shape != (n, n):
            raise ValueError(f"cost matrix shape {p.shape} is not square and non-empty")
        # in place: a second n x n temporary costs more than the check itself
        asym = p - p.T
        if not np.abs(asym, out=asym).max() <= 1e-10:
            raise ValueError("cost matrix must be finite and symmetric")
        g = np.zeros((0, n)) if self.ineq_matrix is None else np.atleast_2d(
            np.asarray(self.ineq_matrix, dtype=float))
        if g.shape[1:] != (n,) or not np.isfinite(g).all():
            raise ValueError(f"ineq_matrix must be finite with {n} columns, got {g.shape}")
        object.__setattr__(self, "cost_matrix", p)
        object.__setattr__(self, "ineq_matrix", g)
        object.__setattr__(self, "inverse_factor", _inverse_factor(p))
        object.__setattr__(self, "p_scale", max(float(np.trace(p)) / n, 1e-12))
        self._set_vectors(self.cost_vector,
                          np.zeros(0) if self.ineq_vector is None else self.ineq_vector)

    def _set_vectors(self, q, h) -> None:
        for name, a, size in (("cost_vector", q, self.n),
                              ("ineq_vector", h, self.ineq_matrix.shape[0])):
            a = np.atleast_1d(np.asarray(a, dtype=float))
            if a.shape != (size,) or not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite with shape ({size},), got {a.shape}")
            object.__setattr__(self, name, a)

    def with_vectors(self, cost_vector, ineq_vector) -> QuadraticProgram:
        """This program with q and h replaced; P, its factor and G are shared
        and only the two vectors are checked."""
        qp = copy.copy(self)
        qp._set_vectors(cost_vector, ineq_vector)
        return qp

    # always empty; kept only because the benchmark's KKT check reads them
    @property
    def eq_matrix(self) -> np.ndarray:
        return np.zeros((0, self.n))

    @property
    def eq_vector(self) -> np.ndarray:
        return np.zeros(0)

    @property
    def n(self) -> int:
        return self.cost_matrix.shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.cost_matrix @ x + self.cost_vector @ x)

    def max_violation(self, x) -> float:
        """Largest constraint violation at ``x`` (0 when feasible)."""
        if not self.ineq_vector.size:
            return 0.0
        x = np.asarray(x, dtype=float)
        return max(0.0, float(np.max(self.ineq_matrix @ x - self.ineq_vector)))


@dataclass
class QpSolution:
    """Primal solution with multipliers and solver diagnostics."""

    x: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int
    ineq_multipliers: np.ndarray
    active: tuple
    kkt_residual: float
    most_violated: int | None = None  # inequality row index
    solve_time: float = 0.0

    # always empty; kept only because the benchmark's KKT check reads it
    @property
    def eq_multipliers(self) -> np.ndarray:
        return np.zeros(0)


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


def _inverse_factor(p: np.ndarray) -> np.ndarray:
    """J = L^-T with P = L L^T, so P^-1 = J J^T."""
    chol = _chol_or_jitter(p)
    return np.ascontiguousarray(solve_triangular(chol, np.eye(p.shape[0]), lower=True).T)


class _DualActiveSet:
    """Goldfarb-Idnani iteration state for rows -G x >= -h.

    Works in the fixed basis J = L^-T of the cost factor: it keeps the rows
    ``-G[i] @ J`` of the active constraints, so each step solves a system
    of the active-set size instead of the bordered KKT system.
    """

    def __init__(self, qp: QuadraticProgram):
        self.j = j = qp.inverse_factor
        self.n = qp.n
        self.w = -(qp.cost_vector @ j)
        self.x = j @ self.w
        self.ids: list[int] = []
        self.u = np.zeros(0)
        self.y = np.zeros((0, self.n))  # active normals times J
        self.iterations = 0
        self.p_scale = qp.p_scale

    def hot_start(self, g, h, hint) -> None:
        """Make the hinted rows tight, dropping the row with the most negative
        multiplier until none is negative; keep the empty set if the kept
        rows are dependent (not tight at the resulting x). Each active set
        tried counts as an iteration, an empty one too.

        With P^-1 = J J^T and y = G_a J, the multipliers solve
        (y y^T) mu = y w - h_a and x = J (w - y^T mu).
        """
        idx = sorted({int(i) for i in hint if 0 <= int(i) < h.size})
        g_act, h_act = g[idx], h[idx]
        y = g_act @ self.j
        while True:
            self.iterations += 1
            if not idx:
                return  # the empty set: x is already the unconstrained minimum
            try:
                mu = np.linalg.solve(y @ y.T, y @ self.w - h_act)
            except np.linalg.LinAlgError:
                return
            drop = int(np.argmin(mu))
            if mu[drop] >= -1e-9:
                break
            del idx[drop]
            g_act, h_act, y = (np.delete(a, drop, axis=0) for a in (g_act, h_act, y))
        x = self.j @ (self.w - mu @ y)
        if float(np.max(np.abs(g_act @ x - h_act))) > 1e-9 * (1.0 + float(np.max(np.abs(h_act)))):
            return
        self.x = x
        self.ids = idx
        self.u = np.maximum(mu, 0.0)
        self.y = -y

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

    def enter(self, cid, npl, level, max_iter):
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
            for pos in range(len(self.ids)):
                if r[pos] > 1e-13:
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
                self.ids.append(cid)
                self.u = np.append(self.u, u_plus)
                self.y = np.vstack([self.y, d])
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
    """Solve a dense convex QP with inequality constraints only.

    ``active_hint`` (optional row indices; duplicates and indices out of
    range are ignored) seeds the active set: the hinted rows start tight,
    minus those whose multipliers come out negative, and the dual iteration
    adds what is still violated. Each active set that start tries counts as
    an iteration, so ``iterations == 1`` means the hint was the optimal
    active set. Infeasibility is reported with the row the dual step could
    not add (``most_violated``), never as a silent wrong answer.
    """
    t0 = time.perf_counter()
    g, h = qp.ineq_matrix, qp.ineq_vector
    mi = h.size
    if max_iter is None:
        max_iter = max(200, 10 * (qp.n + mi))

    state = _DualActiveSet(qp)
    if active_hint is not None:
        state.hot_start(g, h, active_hint)

    def finish(status, gx=None, most=None):
        x = state.x
        if gx is None:
            gx = g @ x
        act = np.array(state.ids, dtype=int)
        mu = np.zeros(mi)
        mu[act] = np.maximum(state.u, 0.0)
        # mu is zero outside the active rows, so G^T mu needs only those
        grad = qp.cost_matrix @ x + qp.cost_vector + mu[act] @ g[act]
        slack = h - gx
        res = float(max(np.max(np.abs(grad), initial=0.0), np.max(-slack, initial=0.0),
                        np.max(np.abs(mu * slack), initial=0.0)))
        if status == "optimal" and res > tol:
            status = "max_iter"
        if status == "max_iter" and mi:
            worst = int(np.argmin(slack))
            most = worst if slack[worst] < 0 else None
        return QpSolution(x=x, status=status, iterations=max(state.iterations, 1),
                          ineq_multipliers=mu, active=tuple(sorted(state.ids)),
                          kkt_residual=res, most_violated=most,
                          solve_time=time.perf_counter() - t0)

    while True:
        # one product with G serves the violation scan and the residual
        gx = g @ state.x
        viol = gx - h
        worst = int(np.argmax(viol)) if mi else None
        if worst is None or viol[worst] <= 1e-10 * (1.0 + abs(h[worst])):
            return finish("optimal", gx)
        outcome = state.enter(worst, -g[worst], -h[worst], max_iter)
        if outcome != "ok":
            return finish(outcome, most=worst)
