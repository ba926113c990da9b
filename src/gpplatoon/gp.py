"""Gaussian process regression with a squared-exponential ARD kernel.

Provides exact GP regression (analytic-gradient hyperparameter training on
the log marginal likelihood), a fully-independent-conditional (FIC) sparse
approximation whose prediction cost depends only on the number of inducing
inputs.

Every kernel matrix is :func:`_se_kernel` on the stack of squared
coordinate differences from :func:`_sq_diffs`, and every Cholesky factor
and triangular solve is a direct LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger, dsyrk
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dpstrf, dtrtri, dtrtrs

# Added to kernel diagonals before factorization; below all test tolerances.
JITTER = 1e-10
# Lower bound of the noise variance during marginal-likelihood ascent.
NOISE_FLOOR = 1e-10


class IllConditionedKernelError(RuntimeError):
    """Raised when the regularized kernel matrix cannot be factorized."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelHyper:
    """Hyperparameters of the squared-exponential ARD kernel.

    ``length_scales`` holds the diagonal of the scaling matrix that divides
    squared coordinate differences, i.e. k(x, y) =
    signal_variance * exp(-0.5 * sum_d (x_d - y_d)**2 / length_scales[d]).
    """

    signal_variance: float
    length_scales: np.ndarray
    noise_variance: float

    def __post_init__(self):
        ls = np.array(self.length_scales, dtype=float, ndmin=1)
        ls.flags.writeable = False
        object.__setattr__(self, "length_scales", ls)
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ValueError("signal_variance must be positive and finite")
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise ValueError("noise_variance must be positive and finite")
        if ls.ndim != 1 or ls.size == 0 or not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("length_scales must be a vector of positive finite reals")

    @property
    def n_dims(self) -> int:
        return self.length_scales.size

    def to_log_vector(self) -> np.ndarray:
        return np.log(
            np.concatenate(
                [[self.signal_variance], self.length_scales, [self.noise_variance]]
            )
        )

    @classmethod
    def from_log_vector(cls, theta: np.ndarray) -> "KernelHyper":
        v = np.exp(np.asarray(theta, dtype=float))
        return cls(signal_variance=float(v[0]), length_scales=v[1:-1],
                   noise_variance=float(v[-1]))


@dataclass(frozen=True)
class Dataset:
    """Regression dataset: one input row per target value.

    Keeps read-only copies of ``inputs`` and ``targets``, so a model built
    from the dataset does not see the caller's later edits."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.inputs, dtype=float))
        y = np.atleast_1d(np.array(self.targets, dtype=float))
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        if x.ndim != 2 or y.ndim != 1:
            raise ValueError("inputs must be a matrix and targets a vector")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"row count mismatch: {x.shape[0]} inputs vs {y.shape[0]} targets"
            )
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_dims(self) -> int:
        return self.inputs.shape[1]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def _sq_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack D of squared coordinate differences between row sets
    ``a`` (n,d) and ``b`` (m,d): D_j = (a_j - b_j')^2, one (n, m) slice per
    dimension j. A difference keeps its digits where |a|^2 + |b|^2 - 2 a.b
    cancels."""
    # contiguous per dimension: broadcasting over the strided a.T is 4x slower
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    sqd = at[:, :, None] - bt[:, None, :]
    sqd *= sqd
    return sqd


def _se_kernel(sqd: np.ndarray, hyper: KernelHyper, out: np.ndarray | None = None) -> np.ndarray:
    """signal_variance exp(sum_d -0.5 D_d / length_scale_d) from the stack
    ``sqd`` of :func:`_sq_diffs`, one product over d, into the C-ordered
    ``out`` if given."""
    d, n, m = sqd.shape
    out = np.empty((n, m)) if out is None else out
    np.dot((-0.5 / hyper.length_scales)[None, :], sqd.reshape(d, -1), out=out.reshape(1, -1))
    np.exp(out, out=out)
    out *= hyper.signal_variance
    return out


def _kernel_matrix(a: np.ndarray, b: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """Kernel cross-covariance between row sets ``a`` (n,d) and ``b`` (m,d)."""
    return _se_kernel(_sq_diffs(a, b), hyper)


def _query_rows(xs, n_dims: int) -> np.ndarray:
    """Query rows ``xs`` as an (m, n_dims) matrix; a single row may be a
    vector. Raises ``ValueError`` for another width or a non-finite entry."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != n_dims:
        raise ValueError(f"query rows must have {n_dims} columns, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("query rows must be finite")
    return xs


# ---------------------------------------------------------------------------
# exact GP
# ---------------------------------------------------------------------------


def _ill_conditioned(hyper: KernelHyper) -> IllConditionedKernelError:
    return IllConditionedKernelError(
        "kernel matrix not positive definite for "
        f"signal_variance={hyper.signal_variance:g}, "
        f"length_scales={np.array2string(hyper.length_scales, precision=3)}, "
        f"noise_variance={hyper.noise_variance:g}"
    )


def _factorize(c: np.ndarray, y: np.ndarray, hyper: KernelHyper):
    """Factor C = K + (noise+jitter) I in place and solve C alpha = y.

    ``c`` is a Fortran-ordered buffer holding the symmetric kernel matrix K
    (or V'V, the r x r part of the low-rank likelihood, read from its lower
    triangle); on return its lower triangle is the Cholesky factor L (``dpotrf``) and
    its upper triangle is zero. Returns ``(L, alpha, log|L|)`` with alpha by
    ``dpotrs``. A nonzero ``info`` or a non-finite log-determinant (dpotrf
    does not test its pivots for NaN in every LAPACK) raises
    ``IllConditionedKernelError``.
    """
    c[np.diag_indices(c.shape[0])] += hyper.noise_variance + JITTER
    chol, info = dpotrf(c, lower=1, overwrite_a=1)
    logdet = float(np.log(chol.diagonal()).sum()) if info == 0 else math.nan
    if not math.isfinite(logdet):
        raise _ill_conditioned(hyper)
    alpha, _ = dpotrs(chol, y, lower=1)
    return chol, alpha, logdet


def _lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for a finite, Fortran-ordered lower factor L, by LAPACK dtrtrs.

    Skips the input validation of ``scipy.linalg.solve_triangular``, which
    costs more than a 20 x 20 solve; callers pass a finite ``b``.
    """
    x, info = dtrtrs(chol, b, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


# Order of the diagonal blocks that _invert_lower hands to dtrtri.
_INVERSE_LEAF = 48


def _invert_lower(a: np.ndarray) -> None:
    """Overwrite the lower-triangular block ``a``, a view into a
    Fortran-ordered array whose upper triangle is zero, with its inverse.

    Split a = [[L11, 0], [L21, L22]] at half its order; the inverse is
    [[Z11, 0], [Z21, Z22]] with Zii = Lii^-1 (by recursion, LAPACK dtrtri
    at or below ``_INVERSE_LEAF`` rows) and Z21 = -Z22 L21 Z11, two matrix
    products that numpy hands to BLAS dgemm on the strided views, so no
    n x n buffer is allocated. The upper triangle is zero again on return,
    so the products may treat Z11 and Z22 as full blocks.
    """
    n = a.shape[0]
    if n <= _INVERSE_LEAF:
        # dtrtri works on a contiguous copy of the view; its info is 0
        # because the diagonal is nonzero
        a[...] = dtrtri(a, lower=1)[0]
        return
    h = n // 2
    a11, a21, a22 = a[:h, :h], a[h:, :h], a[h:, h:]
    _invert_lower(a11)
    _invert_lower(a22)
    # L21 Z11 goes into the zero block above the diagonal, which is zeroed
    # again before a caller treats this block as full
    t = a[:h, h:].T
    np.matmul(a21, a11, out=t)
    np.matmul(a22, t, out=a21)
    np.negative(a21, out=a21)
    t.fill(0.0)


class _LmlWorkspace:
    """What the likelihood evaluations of one fit share: the stack of
    squared input differences D_d, one (n, n) slice per dimension, the
    inputs less their column means, and reusable n x n buffers for K (C
    order; ``dpstrf`` factors it in place through its transpose) and C
    (Fortran order, so LAPACK factors and inverts it in place)."""

    def __init__(self, inputs: np.ndarray):
        self.sqd = _sq_diffs(inputs, inputs)
        # D_d does not see a shift; centring keeps the low-rank path's O(n)
        # form of alpha' (K * D_d) alpha from cancelling
        self.centred = inputs - inputs.mean(axis=0)
        n = inputs.shape[0]
        self.k = np.empty((n, n))
        self.c = np.empty((n, n), order="F")


# The low-rank path needs n signal_variance <= this times the noise.
_LOW_RANK_CONDITION = 1e6


def log_marginal_likelihood(data: Dataset, hyper: KernelHyper,
                            workspace: _LmlWorkspace | None = None):
    """Log marginal likelihood and its gradient over log-hyperparameters.

    Returns ``(value, grad)`` where ``grad`` is ordered as
    [log signal_variance, log length_scales..., log noise_variance].

    With s = noise + jitter, C = K + s I, alpha = C^-1 y,
    M = alpha alpha' - C^-1 and D_d the squared input differences along
    dimension d, the gradient is 0.5 tr(M dC/dtheta) (Rasmussen & Williams
    2006, eq. 5.9):

        d/d log signal_variance = 0.5  sum(M * K)
        d/d log length_scale_d  = 0.25 sum(M * K * D_d) / length_scale_d
        d/d log noise_variance  = 0.5  noise_variance tr(M)

    K comes from the workspace's D_d stack (one product over d). Two paths
    then evaluate the same quantities, chosen from the input:

    - **low rank**, when n signal_variance <= 1e6 s and the pivoted
      Cholesky factor of K (LAPACK ``dpstrf`` in place on K, whose
      transpose is Fortran-ordered because K is exactly symmetric), run
      until the largest residual pivot is at most eps min(signal_variance,
      s), has rank r <= n/3: :func:`_low_rank_lml`;
    - **dense** otherwise: :func:`_dense_lml`, which re-forms K when
      ``dpstrf`` ran.

    The truncated residual K - V V' has a diagonal below that tolerance
    (Harbrecht, Peters & Schneider 2012), so it moves C by at most n eps s;
    the larger error is the rounding of V V', about r eps signal_variance
    per entry, which C^-1 amplifies by up to 1/s. The first condition
    bounds that amplification and the condition number of C by about 1e6,
    so the differences in the low-rank identities keep their digits; it is
    read from the hyperparameters, before any factorization. The second
    compares the costs: the dense path factors, inverts and multiplies out
    C, about n^3 flops, where the low-rank path costs about n^2 r for
    ``dpstrf`` and 4 n r^2 for the rest (with d = 2), equal at r = 0.39 n;
    r <= n/3 leaves room for the ``dpstrf`` that a high-rank input wastes.
    Along the benchmark's fits of seeds 0-1 (n = 479, d = 2) r is 30-122,
    and an evaluation averages 3.7-4.7 ms against 7.6-8.6 ms on the dense
    path (one-thread OpenBLAS, 2-core Xeon, two rounds of six fits). Along
    all nine fits of seeds 0-2, values agree with the dense path to 3e-13
    relative and gradients to 4e-10 of max(1, |gradient|).

    Both paths raise ``IllConditionedKernelError`` in the same cases: a
    non-finite kernel (every diagonal entry is then NaN, and ``dpstrf``
    stops at rank 0), or C not positive definite to working precision,
    which the first condition rules out on the low-rank path.

    ``workspace`` holds D_d, the centred inputs and the n x n buffers; a fit
    passes one built for ``data`` to all its evaluations, and without it
    they are built here.
    """
    n = data.n
    ws = workspace if workspace is not None else _LmlWorkspace(data.inputs)
    k = _se_kernel(ws.sqd, hyper, out=ws.k)
    sv, s = hyper.signal_variance, hyper.noise_variance + JITTER
    if n * sv <= _LOW_RANK_CONDITION * s:
        factor, piv, rank, _ = dpstrf(k.T, tol=np.finfo(float).eps * min(sv, s),
                                      lower=1, overwrite_a=1)
        if not rank:
            # a finite K has pivots of signal_variance > tol; only NaN stops here
            raise _ill_conditioned(hyper)
        if 3 * rank <= n:
            return _low_rank_lml(ws, data.targets, hyper, factor[:, :rank], piv - 1)
        _se_kernel(ws.sqd, hyper, out=ws.k)  # dpstrf overwrote K
    return _dense_lml(ws, data.targets, hyper)


def _low_rank_lml(ws: _LmlWorkspace, y: np.ndarray, hyper: KernelHyper,
                  v: np.ndarray, perm: np.ndarray):
    """:func:`log_marginal_likelihood` from a rank-r factor K ~ V V'.

    ``v`` holds the first r columns of ``dpstrf``'s factor, in place in the
    workspace: its rows are the points in pivot order ``perm``, so y and
    the inputs are permuted to match, and every quantity below is a sum
    over the points or a product of permuted vectors. With
    A = s I + V'V = L_A L_A' (``dsyrk``, then :func:`_factorize`, which
    also solves A z = V'y) and W = L_A^-1 V' (``dtrtrs``),
    C^-1 = (I - V A^-1 V') / s and C^-1 V = V A^-1 give (Foster et al.
    2009):

        alpha               = (y - V z) / s
        log|C|              = (n - r) log s + log|A|
        tr(C^-1 K)          = |W|_F^2, so tr(C^-1) = (n - |W|_F^2) / s
        row sums of C^-1*K  = diag(C^-1 K) = W's squared column norms c
        x'(C^-1 * K) x      = (sum_i x_i^2 |V_i|^2 - |W diag(x) V|_F^2) / s

    The trace has no cancellation (each of its terms is an eigenvalue
    ratio below 1). With x_d the centred inputs, D_d = x_d^2 1' + 1 x_d^2'
    - 2 x_d x_d' gives sum(C^-1 * K * D_d) = 2 (x_d^2)' c
    - 2 x_d'(C^-1 * K) x_d and

        alpha' (K * D_d) alpha = 2 (alpha x_d^2)' K alpha
                                 - 2 (alpha x_d)' K (alpha x_d)

    with K alpha and K (alpha * x_d) as V (V' alpha) and
    V (V' (alpha * x_d)). Nothing n x n is touched after ``dpstrf``.
    """
    n, r = v.shape
    d = hyper.n_dims
    s = hyper.noise_variance + JITTER
    # dpstrf leaves K's entries above the factor's diagonal
    v[:r][np.triu_indices(r, 1)] = 0.0
    y = y[perm]
    x = ws.centred[perm]
    # V'V by dsyrk into a Fortran buffer, where _factorize adds s I to it
    chol_a, a_vy, logdet = _factorize(dsyrk(1.0, v, trans=1, lower=1), v.T @ y, hyper)
    w, _ = dtrtrs(chol_a, v.T, lower=1)
    alpha = (y - v @ a_vy) / s
    logdet += 0.5 * (n - r) * math.log(s)
    value = -0.5 * float(y @ alpha) - logdet - 0.5 * n * math.log(2.0 * math.pi)

    col = np.add.reduce(w * w, 0)
    tr_ck = float(col.sum())
    ax = alpha[:, None] * x
    vt_ax = v.T @ np.column_stack([alpha, ax])
    kv = v @ vt_ax
    quad = 2.0 * ((ax * x).T @ kv[:, 0] - np.add.reduce(ax * kv[:, 1:], 0))
    x2 = x * x
    wxv = (w * x.T[:, None, :]) @ v
    cross = (x2.T @ np.add.reduce(v * v, 1)
             - np.add.reduce((wxv * wxv).reshape(d, -1), 1)) / s
    grad = np.empty(d + 2)
    grad[0] = 0.5 * (float(vt_ax[:, 0] @ vt_ax[:, 0]) - tr_ck)
    grad[1:-1] = 0.25 * (quad - 2.0 * (x2.T @ col - cross)) / hyper.length_scales
    grad[-1] = 0.5 * hyper.noise_variance * (float(alpha @ alpha) - (n - tr_ck) / s)
    return value, grad


def _dense_lml(ws: _LmlWorkspace, y: np.ndarray, hyper: KernelHyper):
    """:func:`log_marginal_likelihood` from the dense factor of C, given K
    in the workspace. The steps, each through its LAPACK or BLAS routine:

    1. K copied whole into the Fortran-ordered factor buffer: K is exactly
       symmetric, so its C-order bytes are its Fortran-order bytes.
    2. C = L L' by ``dpotrf`` in place, and alpha by ``dpotrs``, in
       :func:`_factorize`, which :meth:`GpModel.from_data` also uses.
    3. C^-1 in the same buffer: L^-1 by :func:`_invert_lower` (``dtrtri``
       on 48-row leaves joined by ``dgemm``), then L^-T L^-1 by ``dlauum``.
       ``dpotri`` does the same two steps, but its ``dtrtri`` ran at
       8-11 GFlop/s on n = 479 (3.3-4.4 ms; one-thread OpenBLAS on a
       2-core Xeon), while a 479 x 479 ``dgemm``, six times the flops,
       took 3.3 ms; the dgemm-blocked inverse does twice ``dtrtri``'s flops
       in about half its time (2.4 ms against 4.4 ms).

    The noise-variance term is O(n): tr(M) = alpha' alpha - tr(C^-1). The
    other terms pair M with the symmetric K and K * D_d, so the upper
    triangle U of C^-1 suffices: with W = (U - 0.5 alpha alpha') * K,
    formed in place by a rank-one update (``dger``) of U and one product
    with K,

        sum(M * K * D_d) = -2 sum(W * D_d)          (D_d has a zero diagonal)
        sum(M * K)       = signal_variance tr(C^-1) - 2 sum(W)

    the second because K's diagonal is signal_variance. So

        d/d log signal_variance = 0.5 signal_variance tr(C^-1) - sum(W)
        d/d log length_scale_d  = -0.5 sum(W * D_d) / length_scale_d

    and the length-scale terms are one product of W with the D_d stack.
    Two O(n) shortcuts are not used, because each cancels terms far larger
    than its result: alpha' K alpha - n + s tr(C^-1) for sum(M * K) (from
    C^-1 K = I - s C^-1) came out 28% off at log noise 30, an L-BFGS-B
    trial point at the bound where that term is about 1e-13; and the
    centred-input form of alpha' (K * D_d) alpha that :func:`_low_rank_lml`
    uses is 1.8e-9 off at length scales of a two-hundredth of the
    benchmark inputs' span and noise 1e-3, where this form is 5e-14 off.
    Forming W, its sum and its product with the D_d stack are, with K
    itself, the only n x n passes outside LAPACK and BLAS.
    """
    n, d = y.size, hyper.n_dims
    k, c = ws.k, ws.c
    # c.T is C-ordered, so this is a contiguous copy
    c.T[...] = k
    _, alpha, logdet = _factorize(c, y, hyper)
    value = -0.5 * float(y @ alpha) - logdet - 0.5 * n * math.log(2.0 * math.pi)

    # C^-1 into the lower triangle; dpotrf zeroed the upper one
    _invert_lower(c)
    dlauum(c, lower=1, overwrite_c=1)
    trace_cinv = float(c.trace())

    # C^-1 fills the lower triangle of a Fortran-ordered array, so its
    # transpose is U in the C order of k; alpha alpha' is symmetric
    dger(-0.5, alpha, alpha, a=c, overwrite_a=1)
    w = c.T
    w *= k
    grad = np.empty(d + 2)
    grad[0] = 0.5 * hyper.signal_variance * trace_cinv - float(w.sum())
    grad[1:-1] = -0.5 * (ws.sqd.reshape(d, -1) @ w.ravel()) / hyper.length_scales
    grad[-1] = 0.5 * hyper.noise_variance * (float(alpha @ alpha) - trace_cinv)
    return value, grad


@dataclass(frozen=True)
class GpModel:
    """Exact GP conditioned on a dataset, with cached factorization.

    Construction checks that the factor and ``alpha`` are finite, because
    :meth:`predict_batch` solves with them unchecked."""

    dataset: Dataset
    hyper: KernelHyper
    chol_factor: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        for name in ("chol_factor", "alpha"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @classmethod
    def from_data(cls, data: Dataset, hyper: KernelHyper):
        if data.n_dims != hyper.n_dims:
            raise ValueError(
                f"dataset has {data.n_dims} input dims but hyper has {hyper.n_dims}"
            )
        # K's transpose is Fortran-ordered, so it is factored in place; K is
        # the likelihood's K, exactly symmetric
        k = _kernel_matrix(data.inputs, data.inputs, hyper)
        chol, alpha, _ = _factorize(k.T, data.targets, hyper)
        return cls(dataset=data, hyper=hyper, chol_factor=chol, alpha=alpha)

    def predict_batch(self, xs):
        """Posterior means and variances at query rows ``xs`` (m, d).

        Raises ``ValueError`` if a query row is not finite or not d wide."""
        xs = _query_rows(xs, self.hyper.n_dims)
        kx = _kernel_matrix(self.dataset.inputs, xs, self.hyper)
        means = kx.T @ self.alpha
        v = _lower_solve(self.chol_factor, kx)
        variances = self.hyper.signal_variance - np.sum(v * v, axis=0)
        return means, np.maximum(variances, 0.0)


def train_exact(data: Dataset, init: KernelHyper) -> GpModel:
    """Maximize the log marginal likelihood starting from ``init``.

    Returns the best evaluated hyperparameters. L-BFGS-B evaluates its
    start (``init`` clipped to the search bounds) first, so the result is
    never worse than the start, whether or not the optimizer converges.

    L-BFGS-B minimizes the negative log marginal likelihood per training
    point, -value / n, because two of its rules depend on the objective's
    scale. With every variable boxed, its first step is clip(theta0 - g):
    on the NLL summed over n points the gradient g grows with n, and on
    the benchmark's 479-point fits that step reached a corner of the box
    (log noise at its bound of 30, where the factors of C are partly
    subnormal and an evaluation is several times slower); per point it is a
    bounded step from the start. And its ``gtol`` is an absolute test on
    the projected gradient, so per point it does not tighten as n grows:
    on the summed NLL those fits kept walking a flat ridge (signal
    variance towards 0) for a dozen or more evaluations that gained less
    than 5e-4 nats in all.
    """
    if data.n_dims != init.n_dims:
        raise ValueError("init length_scales dimension does not match data")

    theta0 = init.to_log_vector()
    n = data.n
    best = {"nll": np.inf, "theta": theta0}
    # shared by this fit's evaluations only
    workspace = _LmlWorkspace(data.inputs)

    def objective(theta):
        try:
            value, grad = log_marginal_likelihood(data, KernelHyper.from_log_vector(theta),
                                                  workspace=workspace)
        except IllConditionedKernelError:
            return 1e12, np.zeros_like(theta)
        if -value < best["nll"]:
            best["nll"] = -value
            best["theta"] = theta.copy()
        return -value / n, -grad / n

    lo = np.full(theta0.size, -30.0)
    hi = np.full(theta0.size, 30.0)
    lo[-1] = math.log(NOISE_FLOOR)
    # imported here: it costs about 15 MB and 0.2 s, which a process that
    # only runs the controller never needs
    from scipy.optimize import minimize
    minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-12},
    )
    # free the buffers before the model's own n x n arrays are built
    del workspace
    return GpModel.from_data(data, KernelHyper.from_log_vector(best["theta"]))


# ---------------------------------------------------------------------------
# FIC sparse approximation
# ---------------------------------------------------------------------------


def _fic_factors(data: Dataset, hyper: KernelHyper, inducing: np.ndarray):
    """Shared FIC factorizations.

    Returns (chol_zz, v, lam, chol_cap) where v = chol_zz^-1 K_zx,
    lam is the FIC diagonal (residual diag + noise) and
    cap = I + v diag(1/lam) v'.
    """
    kzz = _kernel_matrix(inducing, inducing, hyper)
    kzz[np.diag_indices_from(kzz)] += JITTER
    chol_zz = _fic_cholesky(kzz, "inducing-point kernel matrix")
    v = _lower_solve(chol_zz, _kernel_matrix(inducing, data.inputs, hyper))
    resid = hyper.signal_variance - np.sum(v * v, axis=0)
    lam = np.maximum(resid, 0.0) + hyper.noise_variance + JITTER
    m = inducing.shape[0]
    cap = np.eye(m) + (v / lam) @ v.T
    return chol_zz, v, lam, _fic_cholesky(cap, "FIC capacitance matrix")


def _fic_cholesky(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of ``a``, read from its lower triangle, by
    ``dpotrf``, with the upper triangle zero. A nonzero ``info`` or a
    non-finite diagonal (a NaN or inf entry in row i reaches the factor's
    pivot i) raises ``IllConditionedKernelError`` naming ``name``."""
    chol, info = dpotrf(a, lower=1)
    if info or not np.isfinite(chol.diagonal()).all():
        raise IllConditionedKernelError(f"{name} not positive definite")
    return chol


def fic_log_marginal_likelihood(data: Dataset, hyper: KernelHyper,
                                inducing: np.ndarray) -> float:
    """Marginal likelihood of the FIC approximation (Nystrom + diagonal)."""
    chol_zz, v, lam, chol_cap = _fic_factors(data, hyper, inducing)
    y = data.targets
    w = v @ (y / lam)
    t = _lower_solve(chol_cap, w)
    quad = float(y @ (y / lam)) - float(t @ t)
    logdet = float(np.sum(np.log(lam))) + 2.0 * float(
        np.sum(np.log(np.diag(chol_cap)))
    )
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SparseGpModel:
    """FIC sparse GP: prediction cost depends only on the inducing count.

    With u = L_zz^-1 k_z(x) for the inducing factor L_zz
    (``chol_inducing``) and the FIC capacitance factor L_cap
    (``chol_cap``), the prediction at x is

        mean     = u' w                       (w = ``mean_weights``)
        variance = s^2 - |u|^2 + |L_cap^-1 u|^2

    The mean stays u' w although L_zz^-T w could be stored once: u is
    solved anyway for the variance, so that saves no solve and would only
    change the rounding. The variance keeps its two solves because folding
    them into one m x m form loses accuracy.

    On construction (by :meth:`from_inducing` or directly) the model
    checks the shapes of its arrays, (m, d) inducing inputs with
    d = ``hyper.n_dims``, (m, m) factors and m weights, and that the
    factors and weights are finite. It keeps read-only copies of the four,
    which the caller's later edits do not reach, the factors
    Fortran-ordered so LAPACK solves with them without a copy.
    """

    inducing: np.ndarray
    hyper: KernelHyper
    chol_inducing: np.ndarray
    chol_cap: np.ndarray
    mean_weights: np.ndarray

    def __post_init__(self):
        inducing = np.array(self.inducing, dtype=float)
        d = self.hyper.n_dims
        if inducing.ndim != 2 or inducing.shape[1] != d:
            raise ValueError(f"inducing must have shape (m, {d}), got {inducing.shape}")
        m = inducing.shape[0]
        object.__setattr__(self, "inducing", inducing)
        for name in ("chol_inducing", "chol_cap"):
            chol = np.array(getattr(self, name), dtype=float, order="F")
            chol.flags.writeable = False
            if chol.shape != (m, m):
                raise ValueError(f"{name} must have shape ({m}, {m}), got {chol.shape}")
            if not np.isfinite(chol).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, chol)
        weights = np.array(self.mean_weights, dtype=float)
        inducing.flags.writeable = weights.flags.writeable = False
        if weights.shape != (m,):
            raise ValueError(f"mean_weights must have shape ({m},), got {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("mean_weights must be finite")
        object.__setattr__(self, "mean_weights", weights)

    @classmethod
    def from_inducing(cls, data: Dataset, hyper: KernelHyper, inducing: np.ndarray):
        inducing = np.atleast_2d(np.asarray(inducing, dtype=float))
        chol_zz, v, lam, chol_cap = _fic_factors(data, hyper, inducing)
        w = v @ (data.targets / lam)
        mean_weights, _ = dpotrs(chol_cap, w, lower=1)
        return cls(inducing=inducing, hyper=hyper, chol_inducing=chol_zz,
                   chol_cap=chol_cap, mean_weights=mean_weights)

    def predict_batch(self, xs):
        """Posterior means and variances at query rows ``xs`` (m, d).

        Raises ``ValueError`` if a query row is not finite or not d wide,
        or if the kernel at the queries is not finite (non-finite inducing
        inputs, which construction does not check; a finite query so far
        away that a squared difference overflows gets the prior), and
        ``LinAlgError`` if a stored factor is singular.
        """
        xs = _query_rows(xs, self.hyper.n_dims)
        sv = self.hyper.signal_variance
        kz = _kernel_matrix(self.inducing, xs, self.hyper)
        if not np.isfinite(kz).all():
            raise ValueError("kernel at the query rows must be finite")
        u = _lower_solve(self.chol_inducing, kz)
        means = u.T @ self.mean_weights
        t = _lower_solve(self.chol_cap, u)
        variances = sv - np.add.reduce(u * u, 0) + np.add.reduce(t * t, 0)
        return means, np.maximum(variances, 0.0, out=variances)


def _lloyd_step(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """One Lloyd update: the mean of the rows nearest each center, and for a
    center that no row is nearest, the row farthest from every center.

    The per-cluster sums come from one ``np.bincount`` over (cluster,
    column) bins, which adds each bin's rows in row order. On rows of two
    or more columns the masked ``mean(axis=0)`` of a per-cluster loop adds
    them in the same order, so the centroids are bit-identical to that
    loop's; on one column numpy sums pairwise, and they differ by rounding.
    """
    k, dim = centers.shape
    d = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    labels = np.argmin(d, axis=1)
    counts = np.bincount(labels, minlength=k)
    bins = (labels[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(bins, weights=points.ravel(), minlength=k * dim).reshape(k, dim)
    new = sums / np.maximum(counts, 1)[:, None]
    if not counts.all():
        new[counts == 0] = points[np.argmax(np.min(d, axis=1))]
    return new


def _kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ centroids over input rows (at most 50 Lloyd
    iterations)."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = points[rng.integers(n, size=k - j)]
            break
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    for _ in range(50):
        new = _lloyd_step(points, centers)
        if np.allclose(new, centers):
            break
        centers = new
    return centers


def build_sparse(model: GpModel, m: int = 20, seed: int = 0) -> SparseGpModel:
    """Build a FIC sparse model from a trained exact GP.

    The inducing inputs are the k-means centroids of the training inputs
    (seeded by ``seed``); kernel hyperparameters are inherited unchanged
    from the exact model. A model with given inducing inputs is
    :meth:`SparseGpModel.from_inducing`.
    """
    data = model.dataset
    if not 1 <= m <= data.n:
        raise ValueError(f"inducing count m={m} must satisfy 1 <= m <= n={data.n}")
    return SparseGpModel.from_inducing(data, model.hyper, _kmeans(data.inputs, m, seed=seed))
