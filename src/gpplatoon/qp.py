"""Convex quadratic programming with a dense cost and sparse inequalities.

Solves min 0.5 x'Px + q'x subject to G x <= h with a dual active-set
method (Goldfarb-Idnani): start at the unconstrained minimum, repeatedly
drive the most violated constraint to tightness with exact primal/dual
step lengths, dropping blocking constraints as their multipliers hit zero.
The method needs no feasible starting point, terminates with near
machine-precision KKT residuals on well-scaled problems, certifies
infeasibility via an unbounded dual step, and is fully deterministic.
There are no equality constraints.

A warm-start hint seeds the iteration (the hot start of online active-set
QP, Ferreau et al. 2008). The hint is the previous solve's ``active``, an
:class:`ActiveRows` token that carries the solver state that solve ended
in, at an optimum or at an infeasibility certificate. The active rows'
part of that state (their dense rows of G, their rows y = -G J and the
Gram matrix y y^T) depends only on the template and the rows, so a solve
of the next program of the same template resumes from those buffers in
place: it forms only w = -J^T q and the multipliers' right-hand side,
drops the row with the most negative multiplier until none is negative,
and goes on with the dual iteration from that dual-feasible point. If
the carried rows were the optimal active set, the solve is one linear
system. As with Goldfarb and Idnani's iteration itself, any linearly
independent set of rows is a valid start, so the state may come from a
solve with other vectors; the rows it holds were admitted by the rank
test when they entered. The rows an infeasible solve ends on are such a
set, so its token resumes as an optimal one does. A token that cannot
resume (stale, of another template, or from a ``max_iter`` solve, whose
Gram matrix may have lost definiteness) starts the solve cold.

As in Goldfarb and Idnani's method, the iteration works in a fixed basis
J with J J^T = P^-1: with the active rows mapped to y = G J, each step
solves a system of the active-set size rather than the bordered KKT
system. J need not be triangular. Each :class:`QuadraticProgram` owns
read-only copies of P, q and h, a factor of P that applies J, and G in CSR
form, its only stored form: dense input is converted when the program is
built. :meth:`QuadraticProgram.with_vectors` gives programs that copy only
q and h and share the rest (the MPC's, one template per configuration), so
P is factored once per template. The MPC's G is 2-5% nonzeros: at
``n_av=16, N=80`` (6400 x 1280) its CSR form takes 2.4 MB, where a dense
copy would take 62.5 MB.

The factor is all the solver reads of J and P. It provides w = -J^T q and
x = J w (``start_w``, ``start_x``), J v (``mul``), v^T J for one row
(``lmul``), row c of J (``rows``), and P x (``cost``). There are two:

- :class:`TriangularFactor`, the default, built by Cholesky: J = L^-T for
  P = L L^T, an n x n upper triangular array;
- :class:`KroneckerFactor`, for P = A (x) B + c I (the MPC's cost above a
  size; see ``mpc.KRONECKER_CROSSOVER``): J = (U (x) V) diag(scale) from
  the eigenvectors of A and B, applied as two small matrix products on x
  reshaped to a matrix, so no n x n J is formed or read. At
  ``n_av=32, N=80`` one J v takes about 15 us against 2.2 ms for the
  triangular J.

Every product of G with x over all its rows, G x - h, goes through
:meth:`QuadraticProgram.ineq_excess`, so the violation scan that starts
each iteration costs a fraction of a dense product (about 28 against
200 us for the 1600 x 320 G of ``n_av=8, N=40`` on one BLAS thread). It
calls scipy's CSR kernel directly through :func:`spmv`: ``csr_array @ x``
reaches the same kernel through operator dispatch that takes longer than
the kernel itself on the 200 x 40 G of ``n_av=2, N=20`` (about 9.5 against
4.9 us). The solver densifies a row of G when it enters the active set,
through scipy's ``csr_todense`` kernel, and keeps the dense rows of the
active set beside their rows y, so the products with them (G_a x when x is
moved back onto the active rows, and G_a^T u in the final residual) are
the same BLAS calls as on a dense G. The rows y of the active set, their
Gram matrix y y^T, the dense rows and the multipliers live in buffers that
grow by doubling; an entering row adds one Gram row, a dropped row shifts
slices, and each solve with y y^T is one LAPACK ``dposv``. G J itself is
not stored: at 1600 x 320 it would add 4 MB per template. A row of G with
one nonzero, a simple bound such as the MPC's acceleration box, needs no
product: its row of G J is that entry times one row of J. The program
records the column of each such row when it is built (``bound_column``,
one integer per row), so an entering bound row is gathered from J
(``rows``), and only the other rows are multiplied (``lmul``): with the
triangular factor, one n x n product per entering row. There the product
of a one-entry row adds only exact zeros, so the gathered row equals it
bit for bit.

The triangular factor's J is upper triangular (its strictly lower part is
exactly zero), and its two start products go through BLAS ``dtrmv`` on
the Fortran-ordered view ``J.T``, which reads one triangle in place; x =
J w is formed only if read, since a resumed start that keeps a carried row
sets x itself. Its P x, for the reported residual and objective, goes
through ``dsymv`` on P's lower triangle, the one the factor is built from;
P is symmetric only to within 1e-10, so the upper triangle could disagree
with the factor. A cold solve at ``n_av=8, N=40`` thus reads half of J and
half of P (410 KB each) instead of all of both. The products inside the
iteration (``mul`` and ``lmul`` in ``enter``, ``_settle`` and
``_retighten``) stay on ``@``: through ``dtrmv`` their last bits change
the verdict of a degenerate program (an equality written as two opposite
rows) on one BLAS thread, for a gain in the slow steps of a few percent at
most. ``J`` itself is formed with ``solve_triangular``, for the same
reason.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsymv, dtrmv
from scipy.linalg.lapack import dposv
from scipy.sparse._sparsetools import csr_matvec, csr_todense

# An entering row is dependent on the active rows when the part of it
# outside their span, |d - y^T r|^2, is below this share of |d|^2.
_RANK_TOL = 1e-12


def to_csr(a: np.ndarray) -> sparse.csr_array:
    """CSR copy of a dense matrix, found through a boolean mask: about four
    times faster than ``csr_array(a)``, whose COO route scans the floats.
    The indices are 32-bit where they fit, as ``csr_array`` makes them."""
    nonzero = a != 0
    index = np.int32 if a.size < 2**31 else np.int64
    indptr = np.zeros(a.shape[0] + 1, dtype=index)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    flat = np.flatnonzero(nonzero)
    return sparse.csr_array((a.ravel()[flat], (flat % a.shape[1]).astype(index), indptr),
                            shape=a.shape)


def spmv(a: sparse.csr_array, x) -> np.ndarray:
    """The product ``a @ x`` of a CSR matrix and a vector, through scipy's
    CSR kernel called directly: the same kernel ``a @ x`` reaches, so the
    same result bit for bit, without the operator dispatch that takes
    longer than the kernel on small matrices."""
    out = np.zeros(a.shape[0])
    csr_matvec(*a.shape, a.indptr, a.indices, a.data, np.ascontiguousarray(x, dtype=float), out)
    return out


def _objective(x, px, q) -> float:
    """0.5 x'Px + q'x from P x."""
    return float(0.5 * x @ px + q @ x)


def _feasibility_tol(level) -> float:
    """Violation up to which a row with right-hand side ``level`` holds."""
    return 1e-10 * (1.0 + abs(level))


@dataclass(frozen=True)
class QuadraticProgram:
    """QP data: symmetric PSD cost and optional inequalities.

    Construction checks every input and keeps read-only copies of P, q and
    h, P's factor, G in CSR form (a dense or sparse ``ineq_matrix`` is
    converted, with sorted column indices and no stored zeros) and the
    column of each one-entry row of G, so a bad P raises ``ValueError``
    here and later edits of the caller's arrays do not reach the program.
    Without a ``factor`` P gets a :class:`TriangularFactor`; a given one
    (such as the MPC's :class:`KroneckerFactor`) is checked for its size
    only, and its caller vouches that it factors P.
    """

    cost_matrix: np.ndarray
    cost_vector: np.ndarray
    ineq_matrix: sparse.csr_array = None
    ineq_vector: np.ndarray = None
    # J with J J^T = P^-1: a TriangularFactor of P unless one is given
    factor: TriangularFactor | KroneckerFactor = field(default=None, repr=False, compare=False)
    # per row of G: the column of its one nonzero, or -1 if it has none or several
    bound_column: np.ndarray = field(init=False, repr=False, compare=False)
    # [number of solves of this template so far], one list that with_vectors
    # shares: an ActiveRows token is current until the template's next solve
    solves: list = field(init=False, repr=False, compare=False)

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
        g = np.zeros((0, n)) if self.ineq_matrix is None else self.ineq_matrix
        if sparse.issparse(g):
            g = sparse.csr_array(g, dtype=float, copy=True)
            g.sum_duplicates()      # which sorts the indices too
            g.eliminate_zeros()
        else:
            g = np.atleast_2d(np.asarray(g, dtype=float))
            if g.shape[1:] == (n,):
                g = to_csr(g)
        if g.shape[1:] != (n,) or not np.isfinite(g.data).all():
            raise ValueError(f"ineq_matrix must be finite with {n} columns, got {g.shape}")
        for a in (g.data, g.indices, g.indptr):
            a.flags.writeable = False
        object.__setattr__(self, "cost_matrix", p)
        object.__setattr__(self, "ineq_matrix", g)
        single = np.diff(g.indptr) == 1
        column = np.full(g.shape[0], -1, dtype=np.intp)
        column[single] = g.indices[g.indptr[:-1][single]]
        column.flags.writeable = False
        object.__setattr__(self, "bound_column", column)
        object.__setattr__(self, "solves", [0])
        if self.factor is None:
            object.__setattr__(self, "factor", TriangularFactor(p))
        elif self.factor.n != n:
            raise ValueError(f"factor is of size {self.factor.n}, the cost matrix of {n}")
        self._set_vectors(self.cost_vector,
                          np.zeros(0) if self.ineq_vector is None else self.ineq_vector)

    def _set_vectors(self, q, h) -> None:
        for name, a, size in (("cost_vector", q, self.n),
                              ("ineq_vector", h, self.ineq_matrix.shape[0])):
            a = np.array(a, dtype=float, ndmin=1)
            a.flags.writeable = False
            if a.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},), got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, a)

    def with_vectors(self, cost_vector, ineq_vector) -> QuadraticProgram:
        """This program with q and h replaced by copies; P, its factor and G
        are shared and only the two vectors are checked."""
        # a shallow copy of the fields, without copy.copy's generic protocol
        qp = object.__new__(QuadraticProgram)
        qp.__dict__.update(self.__dict__)
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
        """0.5 x'Px + q'x, with P x from the factor, as ``solve_qp`` reports it."""
        x = np.asarray(x, dtype=float)
        return _objective(x, self.factor.cost(x), self.cost_vector)

    def ineq_excess(self, x) -> np.ndarray:
        """G x - h; positive entries are violated."""
        out = spmv(self.ineq_matrix, x)
        out -= self.ineq_vector
        return out

    def max_violation(self, x) -> float:
        """Largest constraint violation at ``x`` (0 when feasible)."""
        return max(0.0, float(np.max(self.ineq_excess(x), initial=0.0)))


@dataclass
class QpSolution:
    """Primal solution with multipliers and solver diagnostics.

    ``active`` holds the sorted active rows as an :class:`ActiveRows`
    token, whatever the status. An optimal or infeasible solve's token
    carries the solver state, which passed as the next solve's
    ``active_hint`` it hands on; the buffers are the workspace's, not the
    solution's, and the next solve of the template makes the token stale. A
    ``max_iter`` solve's token carries none.
    """

    x: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    iterations: int
    ineq_multipliers: np.ndarray
    active: ActiveRows
    kkt_residual: float
    objective: float  # 0.5 x'Px + q'x at x
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


class TriangularFactor:
    """J = L^-T of the Cholesky factor P = L L^T (with jitter if P is only
    PSD): upper triangular, its strictly lower part exactly zero.

    The start products go through BLAS ``dtrmv`` on the Fortran-ordered
    view ``J.T``, which reads one triangle in place, and P x through
    ``dsymv`` on P's lower triangle, the one the factor is built from. The
    products inside the iteration stay on ``@`` (see the module docstring).
    """

    def __init__(self, p: np.ndarray):
        self.p = p
        self.j = _inverse_factor(p)
        self.j.flags.writeable = False
        self.n = p.shape[0]

    def start_w(self, q: np.ndarray) -> np.ndarray:
        """w = -J^T q."""
        return dtrmv(self.j.T, -q, lower=1, overwrite_x=1)

    def start_x(self, w: np.ndarray) -> np.ndarray:
        """x = J w, the unconstrained minimiser from ``start_w``'s w."""
        return dtrmv(self.j.T, w, lower=1, trans=1)

    def mul(self, v: np.ndarray) -> np.ndarray:
        """J v."""
        return self.j @ v

    def lmul(self, v: np.ndarray) -> np.ndarray:
        """v^T J."""
        return v @ self.j

    def rows(self, col: int) -> np.ndarray:
        """Row ``col`` of J."""
        return self.j[col]

    def cost(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        # P.T in Fortran order is P, and its upper triangle there is P's
        # lower one, the triangle the factor was built from
        return dsymv(1.0, self.p.T, x)


class KroneckerFactor:
    """A factor J J^T = P^-1 of P = A (x) B + c I, for symmetric PSD A
    (m x m) and B (N x N) and c > 0, that never forms an n x n matrix.

    With A = U diag(a) U^T and B = V diag(b) V^T (two small ``eigh``), P =
    (U (x) V) diag(a_i b_k + c) (U (x) V)^T, so J = (U (x) V) diag(scale)
    with ``scale`` (m, N) = (a_i b_k + c)^-1/2 (Lynch, Rice and Thomas
    1964). J is not triangular; Goldfarb and Idnani's iteration needs only
    J J^T = P^-1. Every product works on a vector reshaped to X (m, N) in
    row-major order, where (U (x) V) x is U X V^T: two small matrix products
    in place of one n x n product, so an n x n J is never formed or read.
    Row i*N + k of J is the outer product of U[i] and V[k], times ``scale``.
    P x is A X B + c X, from A and B themselves rather than from the
    eigendecomposition.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, shift: float):
        ea, u = np.linalg.eigh(a)
        eb, v = np.linalg.eigh(b)
        lam = np.multiply.outer(ea, eb)
        lam += shift
        if not lam.min() > 0:
            raise ValueError("Kronecker cost matrix is not positive definite")
        self.a, self.b = np.array(a, dtype=float), np.array(b, dtype=float)
        self.shift = float(shift)
        self.u, self.v = u, v
        self.scale = lam ** -0.5
        # U[i, a] scale[a, b], so row i*N + k of J is u_scaled[i] * V[k]
        self.u_scaled = u[:, :, None] * self.scale
        self.shape = lam.shape
        self.n = lam.size
        for arr in (self.a, self.b, u, v, self.scale, self.u_scaled):
            arr.flags.writeable = False

    def start_w(self, q: np.ndarray) -> np.ndarray:
        w = self.lmul(q)
        return np.negative(w, out=w)

    def start_x(self, w: np.ndarray) -> np.ndarray:
        return self.mul(w)

    def mul(self, v: np.ndarray) -> np.ndarray:
        """J v = vec(U (scale * V_) V^T), V_ the (m, N) reshape of v."""
        return (self.u @ ((self.scale * v.reshape(self.shape)) @ self.v.T)).ravel()

    def lmul(self, v: np.ndarray) -> np.ndarray:
        """v^T J = scale * vec(U^T V_ V), V_ the (m, N) reshape of v."""
        res = self.u.T @ (v.reshape(self.shape) @ self.v)
        res *= self.scale
        return res.ravel()

    def rows(self, col: int) -> np.ndarray:
        i, k = divmod(int(col), self.shape[1])
        return (self.u_scaled[i] * self.v[k]).ravel()

    def cost(self, x: np.ndarray) -> np.ndarray:
        """P x = vec(A X B + c X)."""
        xm = x.reshape(self.shape)
        px = self.a @ (xm @ self.b)
        px += self.shift * xm
        return px.ravel()


class _DualActiveSet:
    """Goldfarb-Idnani iteration state for rows -G x >= -h.

    Works in the fixed basis J of the program's factor (J J^T = P^-1),
    which it applies only through the factor's products: it keeps the rows
    ``-G[i] @ J`` of the active constraints, so each step solves a system
    of the active-set size instead of the bordered KKT system. For a bound
    row (``bound_column[i] >= 0``) that row is ``-G[i, c] * J[c]``,
    gathered instead of multiplied. G is stored in CSR form; a row is made
    dense when it enters, and the dense rows ``ga`` of the active set are
    kept beside ``y`` for the products with G_a. Those rows, their Gram
    matrix ``y y^T`` and the multipliers ``u`` sit in the first ``k`` rows
    of buffers that are allocated with 16 rows when the first row arrives
    (a solve that needs none allocates none) and double when full: an
    entering row writes one Gram row and column (its products with the
    active rows are the dual step's right-hand side anyway), a dropped row
    shifts the slices after it, and each solve is one ``dposv``. A row is
    admitted only if its part outside the active rows' span is not
    negligible (``_RANK_TOL``), so the kept rows have full row rank and
    ``y y^T`` stays positive definite.

    The state is a workspace: an optimal or infeasible solve issues it in
    its :class:`ActiveRows` token, and the solve that passes the token
    while it is current takes it over (``resume``), rows and buffers in
    place; every other solve starts from a new state with no rows. Its buffers belong to
    one solve at a time, so solves of one template that run at once must
    pass different tokens; the per-program vectors (h, w, x) are set by
    ``_load``.
    """

    def __init__(self, qp: QuadraticProgram):
        g = qp.ineq_matrix
        self.indptr, self.indices, self.data = g.indptr, g.indices, g.data
        self.factor = qp.factor
        self.column = qp.bound_column
        self.n = qp.n
        self.solves = qp.solves  # the template's, which identifies it
        self.ids: list[int] = []
        self.k = 0
        self.ga = np.empty((0, self.n))  # active rows of G, dense
        self.y = np.empty((0, self.n))   # active normals times J
        self.gram = np.empty((0, 0))     # y y^T
        self.u = np.empty(0)             # multipliers
        self._load(qp)

    def _load(self, qp: QuadraticProgram) -> None:
        """Take up the vectors of ``qp``: w = -J^T q here, x = J w when read."""
        self.h = qp.ineq_vector
        self.w = self.factor.start_w(qp.cost_vector)
        self._x = None
        self.iterations = 0

    @property
    def x(self) -> np.ndarray:
        """The current iterate; until a step or a resumed start sets it, the
        unconstrained minimiser J w, formed on first read because a resumed
        start that keeps a row replaces it unread. (A backing field set in
        ``__init__``: ``functools.cached_property`` writes the instance
        ``__dict__``, which made cold solves 3-5% slower on CPython 3.11.)"""
        x = self._x
        if x is None:
            self._x = x = self.factor.start_x(self.w)
        return x

    @x.setter
    def x(self, value: np.ndarray) -> None:
        self._x = value

    def _reserve(self, k: int) -> None:
        """Room for ``k`` active rows, doubling the buffers as needed."""
        cap = self.u.size
        if k <= cap:
            return
        cap = max(cap, 16)
        while cap < k:
            cap *= 2
        m = self.k
        ga, y = np.empty((cap, self.n)), np.empty((cap, self.n))
        gram, u = np.empty((cap, cap)), np.empty(cap)
        ga[:m], y[:m], gram[:m, :m], u[:m] = self.ga[:m], self.y[:m], self.gram[:m, :m], self.u[:m]
        self.ga, self.y, self.gram, self.u = ga, y, gram, u

    def _row(self, i: int) -> np.ndarray:
        """Row ``i`` of G, dense."""
        row = np.zeros(self.n)
        csr_todense(1, self.n, self.indptr[i:i + 2], self.indices, self.data, row)
        return row

    def _push(self, cid: int, g_row, d, yd, u_new: float) -> None:
        """Append row ``cid`` of G, ``g_row``, with its row ``d`` of y
        (``yd`` its products with the active rows)."""
        k = self.k
        self._reserve(k + 1)
        self.ga[k] = g_row
        self.y[k] = d
        self.gram[k, :k] = self.gram[:k, k] = yd
        self.gram[k, k] = d @ d
        self.u[k] = u_new
        self.ids.append(cid)
        self.k = k + 1

    def _drop(self, pos: int) -> None:
        """Remove the active row at position ``pos``."""
        k = self.k
        self.ga[pos:k - 1] = self.ga[pos + 1:k]
        self.y[pos:k - 1] = self.y[pos + 1:k]
        self.u[pos:k - 1] = self.u[pos + 1:k]
        self.gram[pos:k - 1, :k] = self.gram[pos + 1:k, :k]
        self.gram[:k - 1, pos:k - 1] = self.gram[:k - 1, pos + 1:k]
        del self.ids[pos]
        self.k = k - 1

    def _retighten(self) -> None:
        """Move x back onto its active rows along their span (the metric of
        P), undoing the drift the primal steps leave in their tightness."""
        k = self.k
        if k:
            ids = self.ids
            _, c, info = dposv(self.gram[:k, :k], self.ga[:k] @ self.x - self.h[ids])
            if not info:
                self.x = self.x + self.factor.mul(c @ self.y[:k])

    def resume(self, qp: QuadraticProgram) -> None:
        """Hot start on ``qp``, a program of this state's template, from the
        active rows the last solve through this state ended with. Their rows
        of G and y and the Gram matrix depend only on the template and the
        rows, so they are kept in place; only w and the right-hand side u =
        -y w - h_a are formed before the drop loop, ``_settle``.

        With P^-1 = J J^T and a = G_a J = -y, the multipliers solve
        (a a^T) mu = a w - h_a and x = J (w - a^T mu).
        """
        self._load(qp)
        k = self.k
        if k:
            u = np.matmul(self.y[:k], self.w, out=self.u[:k])
            u += self.h[self.ids]
            np.negative(u, out=u)
        self._settle()

    def _settle(self) -> None:
        """From the tight rows in the buffers, with ``u`` holding the
        multipliers' right-hand side: drop rows until every multiplier is
        non-negative, then set x and the multipliers. Each active set tried
        counts as an iteration, an empty one too.

        A row whose Cholesky pivot of y y^T is negligible depends on the rows
        before it and is dropped first. Every carried row passed ``enter``'s
        rank test, and dropping rows before it only widens its part outside
        their span, so in exact arithmetic no pivot is that small; but the
        pivot that ``dposv`` forms by cancellation can fall below the bound
        for a row admitted just above it, which is why the test stays.
        """
        while True:
            self.iterations += 1
            k = self.k
            if not k:
                return  # the empty set: x is already the unconstrained minimum
            gram = self.gram[:k, :k]
            chol, mu, info = dposv(gram, self.u[:k])
            if not info:
                low = chol.diagonal() ** 2 <= _RANK_TOL * gram.diagonal()
                info = int(low.argmax()) + 1 if low.any() else 0
            if info:  # row info - 1 depends on the rows before it
                self._drop(info - 1)
                continue
            drop = int(mu.argmin())
            if mu[drop] >= -1e-9:
                break
            self._drop(drop)
        self.x = self.factor.mul(self.w + mu @ self.y[:k])
        self.u[:k] = np.maximum(mu, 0.0)

    def enter(self, cid: int, max_iter: int) -> str:
        """Drive row ``cid`` (npl'x >= level with npl = -G[cid]) to
        tightness; returns a status.

        Primal step z = J (d - y^T r) with d = J^T npl and the dual step r
        solving (y y^T) r = y d. If d is (numerically) in the span of the
        active rows, z is zero: the step is dual only and ends by dropping
        the blocking row. If none blocks, npl = r'(active normals) with
        r <= 0, so every feasible x has npl'x <= r'(their levels): a level
        above that certifies infeasibility (Farkas). Otherwise the row holds
        wherever the active rows are tight, and its violation is drift in x
        (an equality written as two opposite rows shows it), so x is moved
        back onto the active rows.
        """
        g_row = self._row(cid)
        npl, level = -g_row, -self.h[cid]
        col = self.column[cid]
        d = npl[col] * self.factor.rows(col) if col >= 0 else self.factor.lmul(npl)
        d_norm2 = d @ d
        slack = float(npl @ self.x) - level
        u_plus = 0.0
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                return "max_iter"
            k = self.k
            y, u = self.y[:k], self.u[:k]
            yd = y @ d
            t1 = np.inf
            if k:
                _, r, info = dposv(self.gram[:k, :k], yd)
                if info:
                    return "max_iter"  # y y^T lost definiteness to rounding
                v = d - r @ y
                ratio = np.divide(np.maximum(u, 0.0), r, out=np.full(k, np.inf), where=r > 1e-13)
                block = int(ratio.argmin())
                t1 = ratio[block]
            else:
                r, v = yd, d
            z = self.factor.mul(v)
            z_zero = v @ v <= _RANK_TOL * d_norm2
            t2 = np.inf if z_zero else -slack / float(z @ npl)
            t = min(t1, t2)
            if not math.isfinite(t):
                if level + r @ self.h[self.ids] > _feasibility_tol(level):
                    return "infeasible"
                self._retighten()
                if float(npl @ self.x) - level < -_feasibility_tol(level):
                    return "max_iter"  # drift that moving x back did not undo
                return "ok"
            if k:
                u -= t * r
            u_plus += t
            if not z_zero:
                self.x = self.x + t * z
                if t2 <= t1:
                    self._push(cid, g_row, d, yd, u_plus)
                    return "ok"
                slack = float(npl @ self.x) - level
            self._drop(block)


class ActiveRows(tuple):
    """The sorted active rows of a solve: a tuple, which for an optimal or
    infeasible solve also carries the solver state the solve ended in (its
    workspace) and the number of solves of its template by then
    (``stamp``).

    Passed back as ``active_hint`` to the next solve of the same template
    (a program that shares the ``factor`` and ``ineq_matrix`` objects, as
    ``with_vectors`` makes them), it hands that workspace on: the solve
    resumes from its buffers in place, and the workspace is then that
    solve's. The token is stale once the template has been solved again, by
    any hint or none. A stale token, a token passed to a program of another
    template and a ``max_iter`` solve's token, which carries no state, start
    the solve cold; so does a token passed twice, on its second use. A copy
    of the rows (``tuple(rows)``, ``rows + (i,)``) is no token.
    """

    def __new__(cls, rows=(), state: _DualActiveSet | None = None, stamp: int = -1):
        self = super().__new__(cls, rows)
        self.state, self.stamp = state, stamp
        return self

    def workspace(self, qp: QuadraticProgram) -> _DualActiveSet | None:
        """The carried state if ``qp`` is of its template and no solve of
        that template came after this token's."""
        state = self.state
        if state is not None and state.solves is qp.solves and qp.solves[0] == self.stamp:
            return state
        return None


def check_tol(tol) -> float:
    """``tol`` as a float; raises ``ValueError`` unless finite and positive
    (a NaN tolerance would accept any residual, and one of zero or below
    none)."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be finite and positive, got {tol}")
    return tol


def solve_qp(qp: QuadraticProgram, tol: float = 1e-6, max_iter: int | None = None,
             active_hint=None) -> QpSolution:
    """Solve a convex QP with inequality constraints only.

    ``active_hint`` is None or the ``active`` of an earlier solve, an
    :class:`ActiveRows` token; anything else raises ``TypeError``. If that
    solve was optimal or infeasible and the last solve of this program's
    template, this one resumes from the workspace the token carries: the
    carried rows start tight, minus those whose multipliers come out
    negative, and the dual iteration adds what is still violated. Each active set that start tries
    counts as an iteration, so ``iterations == 1`` means the carried rows
    were the optimal active set. Any other token starts the solve cold, as
    None does (see :class:`ActiveRows`). Infeasibility is reported with the
    row the dual step could not add (``most_violated``), never as a silent
    wrong answer. ``tol`` must be finite and positive, ``max_iter`` None or
    a positive integer; otherwise ``ValueError``.
    """
    t0 = time.perf_counter()
    tol = check_tol(tol)
    h = qp.ineq_vector
    mi = h.size
    if max_iter is None:
        max_iter = max(200, 10 * (qp.n + mi))
    elif isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) \
            or max_iter < 1:
        raise ValueError(f"max_iter must be None or a positive integer, got {max_iter!r}")

    if isinstance(active_hint, ActiveRows):
        state = active_hint.workspace(qp)
    elif active_hint is None:
        state = None
    else:
        raise TypeError("active_hint must be None or the ActiveRows token of an earlier "
                        f"solve, got {type(active_hint).__name__}")
    qp.solves[0] += 1
    stamp = qp.solves[0]
    if state is not None:
        state.resume(qp)
    else:
        state = _DualActiveSet(qp)

    def finish(status, excess=None, most=None):
        x = state.x
        if excess is None:
            excess = qp.ineq_excess(x)
        act = np.array(state.ids, dtype=np.intp)
        u = np.maximum(state.u[:state.k], 0.0)
        mu = np.zeros(mi)
        mu[act] = u
        px = qp.factor.cost(x)
        # mu is zero outside the active rows, so G^T mu needs only their
        # dense rows, kept in the order of the active set
        grad = px + qp.cost_vector + u @ state.ga[:state.k]
        res = float(max(np.abs(grad).max(initial=0.0), excess.max(initial=0.0),
                        np.abs(u * excess[act]).max(initial=0.0)))
        if status == "optimal" and res > tol:
            status = "max_iter"
        if status == "max_iter" and mi:
            worst = int(excess.argmax())
            most = worst if excess[worst] > 0 else None
        # an optimal or infeasible solve hands on its workspace, whose rows are
        # independent; after max_iter the Gram matrix may have lost definiteness
        active = ActiveRows(sorted(state.ids), None if status == "max_iter" else state, stamp)
        return QpSolution(x=x, status=status, iterations=max(state.iterations, 1),
                          ineq_multipliers=mu, active=active, kkt_residual=res,
                          objective=_objective(x, px, qp.cost_vector),
                          most_violated=most, solve_time=time.perf_counter() - t0)

    while True:
        # one product with G serves the violation scan and the residual
        x = state.x
        viol = qp.ineq_excess(x)
        worst = int(viol.argmax()) if mi else None
        if worst is None or viol[worst] <= _feasibility_tol(h[worst]):
            return finish("optimal", viol)
        outcome = state.enter(worst, max_iter)
        if outcome != "ok":
            # enter rebinds x whenever it moves it, so the scan may still hold
            return finish(outcome, viol if state.x is x else None, most=worst)
