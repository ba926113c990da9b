"""Gaussian process regression with a squared-exponential ARD kernel.

Provides exact GP regression (analytic-gradient hyperparameter training on
the log marginal likelihood), a fully-independent-conditional (FIC) sparse
approximation whose prediction cost depends only on the number of inducing
inputs, and the standard-normal quantile used for probabilistic constraint
tightening.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dtrtri, dtrtrs
from scipy.optimize import minimize
from scipy.special import ndtri

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


def save_dataset_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV with header a1,...,ad,g."""
    header = [f"a{i + 1}" for i in range(data.n_dims)] + ["g"]
    write_csv(path, header, np.column_stack([data.inputs, data.targets]))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset_csv`."""
    rows = read_csv(path, r"(a[^,]*,)*g")
    return Dataset(inputs=rows[:, :-1], targets=rows[:, -1])


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def kernel_eval(x1, x2, hyper: KernelHyper) -> float:
    """Squared-exponential ARD kernel between two points."""
    a = np.atleast_1d(np.asarray(x1, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != b.shape or a.size != hyper.n_dims:
        raise ValueError(
            f"dimension mismatch: {a.shape} vs {b.shape} with "
            f"{hyper.n_dims} length scales"
        )
    r2 = np.sum((a - b) ** 2 / hyper.length_scales)
    return float(hyper.signal_variance * math.exp(-0.5 * r2))


def _scale(x: np.ndarray, inv_scale: np.ndarray):
    """Rows of ``x`` times ``inv_scale`` (1/sqrt(length_scales)), and their
    squared norms."""
    s = x * inv_scale
    return s, np.add.reduce(s * s, 1)


def _cross_kernel(sa2, na_col, sb, nb, signal_variance: float) -> np.ndarray:
    """Kernel between scaled row sets a (n,d) and b (m,d), from
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, given ``sa2`` = 2a, ``na_col`` = |a|^2
    as an (n, 1) column, ``sb`` = b and ``nb`` = |b|^2."""
    r2 = na_col + nb
    r2 -= sa2 @ sb.T
    np.maximum(r2, 0.0, out=r2)
    r2 *= -0.5
    np.exp(r2, out=r2)
    r2 *= signal_variance
    return r2


def _kernel_matrix(a: np.ndarray, b: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """Kernel cross-covariance between row sets ``a`` (n,d) and ``b`` (m,d)."""
    inv = 1.0 / np.sqrt(hyper.length_scales)
    sa, na = _scale(a, inv)
    return _cross_kernel(2.0 * sa, na[:, None], *_scale(b, inv), hyper.signal_variance)


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

    ``c`` is a Fortran-ordered buffer holding the symmetric kernel matrix K;
    on return its lower triangle is the Cholesky factor L (``dpotrf``) and
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
    order) and C (Fortran order, so LAPACK factors and inverts it in
    place)."""

    def __init__(self, inputs: np.ndarray):
        # contiguous per dimension: broadcasting over the strided x.T is 4x slower
        xt = np.ascontiguousarray(inputs.T)
        self.sqd = xt[:, :, None] - xt[:, None, :]
        self.sqd *= self.sqd
        # D_d does not see a shift; centring keeps the O(n) form of
        # alpha' (K * D_d) alpha from cancelling
        self.centred = inputs - inputs.mean(axis=0)
        n = inputs.shape[0]
        self.k = np.empty((n, n))
        self.c = np.empty((n, n), order="F")


def log_marginal_likelihood(data: Dataset, hyper: KernelHyper,
                            workspace: _LmlWorkspace | None = None):
    """Log marginal likelihood and its gradient over log-hyperparameters.

    Returns ``(value, grad)`` where ``grad`` is ordered as
    [log signal_variance, log length_scales..., log noise_variance].

    With C = K + (noise + jitter) I, alpha = C^-1 y,
    M = alpha alpha' - C^-1 and D_d the squared input differences along
    dimension d, the gradient is 0.5 tr(M dC/dtheta) (Rasmussen & Williams
    2006, eq. 5.9):

        d/d log signal_variance = 0.5  sum(M * K)
        d/d log length_scale_d  = 0.25 sum(M * K * D_d) / length_scale_d
        d/d log noise_variance  = 0.5  noise_variance tr(M)

    The steps, each through its LAPACK or BLAS routine:

    1. K from the workspace's D_d stack (one product over d), copied whole
       into the Fortran-ordered factor buffer: K is exactly symmetric, so
       its C-order bytes are its Fortran-order bytes.
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
    signal-variance term sum(M * K) = alpha' K alpha - sum(C^-1 * K) takes
    its second part as 2 sum(U * K) - tr(U * K), from the product U * K
    formed below. The O(n) form from C^-1 K = I - s C^-1,
    alpha' K alpha - n + s tr(C^-1), is not used: it cancels terms of order
    n down to the result, which at log noise 30 (an L-BFGS-B trial point at
    the bound) is about 1e-13, and it came out 28% off there.

    With x_d the centred inputs, the alpha alpha' part of a length-scale
    term is O(n) given K alpha and K (alpha * x_d), one product of K with
    d + 1 columns:

        alpha' (K * D_d) alpha = 2 (alpha x_d^2)' K alpha
                                 - 2 (alpha x_d)' K (alpha x_d)

    and its C^-1 part pairs C^-1 with the symmetric, zero-diagonal K * D_d,
    so the upper triangle U of C^-1 suffices:
    sum(C^-1 * K * D_d) = 2 sum((U * K) * D_d). Forming U * K, its sum and
    its one product with the D_d stack are, with K itself, the only n x n
    passes outside LAPACK and BLAS.

    ``workspace`` holds D_d, the centred inputs and the n x n buffers; a fit
    passes one built for ``data`` to all its evaluations, and without it
    they are built here.
    """
    n, d = data.n, hyper.n_dims
    y = data.targets
    ws = workspace if workspace is not None else _LmlWorkspace(data.inputs)
    sqd, k, c = ws.sqd, ws.k, ws.c
    # K = signal_variance exp(sum_d -0.5 D_d / length_scale_d): one product
    # over d, written into the workspace
    np.dot((-0.5 / hyper.length_scales)[None, :], sqd.reshape(d, -1), out=k.reshape(1, -1))
    np.exp(k, out=k)
    k *= hyper.signal_variance
    # c.T is C-ordered, so this is a contiguous copy
    c.T[...] = k
    _, alpha, logdet = _factorize(c, y, hyper)
    value = -0.5 * float(y @ alpha) - logdet - 0.5 * n * math.log(2.0 * math.pi)

    # C^-1 into the lower triangle; dpotrf zeroed the upper one
    _invert_lower(c)
    dlauum(c, lower=1, overwrite_c=1)
    trace_cinv = float(c.trace())

    x = ws.centred
    ax = alpha[:, None] * x
    kv = k @ np.column_stack([alpha, ax])
    k_alpha = kv[:, 0]
    quad = 2.0 * ((ax * x).T @ k_alpha - np.add.reduce(ax * kv[:, 1:], 0))
    # C^-1 fills the lower triangle of a Fortran-ordered array, so its
    # transpose is U in the C order of k
    u = c.T
    u *= k
    grad = np.empty(d + 2)
    grad[0] = 0.5 * (float(alpha @ k_alpha) - 2.0 * float(u.sum()) + float(u.trace()))
    grad[1:-1] = 0.25 * (quad - 2.0 * (sqd.reshape(d, -1) @ u.ravel())) / hyper.length_scales
    grad[-1] = 0.5 * hyper.noise_variance * (float(alpha @ alpha) - trace_cinv)
    return value, grad


@dataclass(frozen=True)
class GpModel:
    """Exact GP conditioned on a dataset, with cached factorization."""

    dataset: Dataset
    hyper: KernelHyper
    chol_factor: np.ndarray
    alpha: np.ndarray

    @classmethod
    def from_data(cls, data: Dataset, hyper: KernelHyper):
        if data.n_dims != hyper.n_dims:
            raise ValueError(
                f"dataset has {data.n_dims} input dims but hyper has {hyper.n_dims}"
            )
        # K's transpose is Fortran-ordered, so it is factored in place; K is
        # symmetric to rounding, and dpotrf reads only one triangle
        k = _kernel_matrix(data.inputs, data.inputs, hyper)
        chol, alpha, _ = _factorize(k.T, data.targets, hyper)
        return cls(dataset=data, hyper=hyper, chol_factor=chol, alpha=alpha)

    def predict_batch(self, xs):
        """Posterior means and variances at query rows ``xs`` (m, d)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        kx = _kernel_matrix(self.dataset.inputs, xs, self.hyper)
        means = kx.T @ self.alpha
        v = solve_triangular(self.chol_factor, kx, lower=True)
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
    try:
        chol_zz = cholesky(kzz, lower=True)
    except np.linalg.LinAlgError:
        raise IllConditionedKernelError(
            "inducing-point kernel matrix not positive definite"
        ) from None
    kzx = _kernel_matrix(inducing, data.inputs, hyper)
    v = solve_triangular(chol_zz, kzx, lower=True)
    resid = hyper.signal_variance - np.sum(v * v, axis=0)
    lam = np.maximum(resid, 0.0) + hyper.noise_variance + JITTER
    m = inducing.shape[0]
    cap = np.eye(m) + (v / lam) @ v.T
    chol_cap = cholesky(cap, lower=True)
    return chol_zz, v, lam, chol_cap


def fic_log_marginal_likelihood(data: Dataset, hyper: KernelHyper,
                                inducing: np.ndarray) -> float:
    """Marginal likelihood of the FIC approximation (Nystrom + diagonal)."""
    chol_zz, v, lam, chol_cap = _fic_factors(data, hyper, inducing)
    y = data.targets
    w = v @ (y / lam)
    t = solve_triangular(chol_cap, w, lower=True)
    quad = float(y @ (y / lam)) - float(t @ t)
    logdet = float(np.sum(np.log(lam))) + 2.0 * float(
        np.sum(np.log(np.diag(chol_cap)))
    )
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * math.log(2.0 * math.pi)


def _lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for a finite, Fortran-ordered lower factor L, by LAPACK dtrtrs.

    Skips the input validation of ``scipy.linalg.solve_triangular``, which
    costs more than a 20 x 20 solve; callers check that ``b`` is finite.
    """
    x, info = dtrtrs(chol, b, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


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

    On construction (by :meth:`from_inducing`, :func:`load_model` or
    directly) the model checks the shapes of its arrays, (m, d) inducing
    inputs with d = ``hyper.n_dims``, (m, m) factors and m weights, and
    that the factors and weights are finite. It keeps read-only copies of
    the four, which the caller's later edits do not reach, the factors
    Fortran-ordered so LAPACK solves with them without a copy, and caches
    the length-scale-scaled inducing inputs and their squared norms, so a
    prediction forms only the query-dependent part of the kernel. The
    cached arrays are not part of the saved model.
    """

    inducing: np.ndarray
    hyper: KernelHyper
    chol_inducing: np.ndarray
    chol_cap: np.ndarray
    mean_weights: np.ndarray
    _inv_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _inducing_twice: np.ndarray = field(init=False, repr=False, compare=False)
    _inducing_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

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
        inv = 1.0 / np.sqrt(self.hyper.length_scales)
        scaled, sq_norms = _scale(self.inducing, inv)
        object.__setattr__(self, "_inv_scale", inv)
        object.__setattr__(self, "_inducing_twice", 2.0 * scaled)
        object.__setattr__(self, "_inducing_sq_norms", sq_norms[:, None])

    @classmethod
    def from_inducing(cls, data: Dataset, hyper: KernelHyper, inducing: np.ndarray):
        inducing = np.atleast_2d(np.asarray(inducing, dtype=float))
        chol_zz, v, lam, chol_cap = _fic_factors(data, hyper, inducing)
        w = v @ (data.targets / lam)
        mean_weights = cho_solve((chol_cap, True), w)
        return cls(inducing=inducing, hyper=hyper, chol_inducing=chol_zz,
                   chol_cap=chol_cap, mean_weights=mean_weights)

    def predict_batch(self, xs):
        """Posterior means and variances at query rows ``xs`` (m, d).

        Raises ``ValueError`` if a query or the kernel at the queries is
        not finite (a query so large that its squared distance overflows,
        or non-finite inducing inputs), and ``LinAlgError`` if a stored
        factor is singular.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if not np.isfinite(xs).all():
            raise ValueError("query rows must be finite")
        sv = self.hyper.signal_variance
        kz = _cross_kernel(self._inducing_twice, self._inducing_sq_norms,
                           *_scale(xs, self._inv_scale), sv)
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


# ---------------------------------------------------------------------------
# standard-normal quantile
# ---------------------------------------------------------------------------

def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (SciPy's ``ndtri``)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return float(ndtri(p))


# ---------------------------------------------------------------------------
# numeric CSV files and flat key-value model serialization
# ---------------------------------------------------------------------------


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header line and numeric rows at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt17(v) for v in row) + "\n")


def read_csv(path, header: str):
    """Read a numeric CSV file into a (rows, fields) array.

    Blank lines and lines starting with ``#`` are skipped. The first other
    line is the header, which must match the regular expression ``header``
    once spaces around fields are dropped. Every later line must hold one
    finite number per header field. Errors name ``path:line`` with the
    line's number in the file.
    """
    n_fields, rows = None, []
    with open(path, "r") as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            parts = [p.strip() for p in ln.split(",")]
            if n_fields is None:
                if not re.fullmatch(header, ",".join(parts)):
                    raise ValueError(f"{path}:{i}: expected header {header!r}, got {ln!r}")
                n_fields = len(parts)
                continue
            if len(parts) != n_fields:
                raise ValueError(f"{path}:{i}: expected {n_fields} fields, "
                                 f"got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{i}: malformed number in {ln!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{i}: non-finite number in {ln!r}")
            rows.append(row)
    if n_fields is None:
        raise ValueError(f"{path}: no header line")
    return np.array(rows, dtype=float).reshape(len(rows), n_fields)


def _write_kv(fh, key: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        fh.write(f"{key} = {_fmt17(arr)}\n")
    else:
        fh.write(f"{key} = {','.join(_fmt17(v) for v in arr.ravel())}\n")


def save_model(model, path) -> None:
    """Serialize a trained model as flat key-value text (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        if isinstance(model, SparseGpModel):
            fh.write("kind = sparse\n")
            m, d = model.inducing.shape
            fh.write(f"m = {m}\nn_dims = {d}\n")
            _write_kv(fh, "signal_variance", model.hyper.signal_variance)
            _write_kv(fh, "length_scales", model.hyper.length_scales)
            _write_kv(fh, "noise_variance", model.hyper.noise_variance)
            _write_kv(fh, "inducing", model.inducing)
            _write_kv(fh, "chol_inducing", model.chol_inducing)
            _write_kv(fh, "chol_cap", model.chol_cap)
            _write_kv(fh, "mean_weights", model.mean_weights)
        elif isinstance(model, GpModel):
            fh.write("kind = exact\n")
            n, d = model.dataset.inputs.shape
            fh.write(f"n = {n}\nn_dims = {d}\n")
            _write_kv(fh, "signal_variance", model.hyper.signal_variance)
            _write_kv(fh, "length_scales", model.hyper.length_scales)
            _write_kv(fh, "noise_variance", model.hyper.noise_variance)
            _write_kv(fh, "inputs", model.dataset.inputs)
            _write_kv(fh, "targets", model.dataset.targets)
            _write_kv(fh, "chol_factor", model.chol_factor)
            _write_kv(fh, "alpha", model.alpha)
        else:
            raise TypeError(f"cannot serialize {type(model).__name__}")


def load_model(path):
    """Load a model written by :func:`save_model`.

    Raises ``ValueError`` naming ``path`` and the key when a key is missing,
    an entry is not a finite number, a size is not a positive integer, or a
    vector's length disagrees with ``n``, ``m`` or ``n_dims``.
    """
    kv = {}
    with open(path, "r") as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}:{i}: expected 'key = value'")
            key, _, val = ln.partition("=")
            kv[key.strip()] = val.strip()

    def vec(key, size):
        if key not in kv:
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            arr = np.array([float(v) for v in kv[key].split(",")])
        except ValueError:
            raise ValueError(f"{path}: {key}: malformed number in {kv[key]!r}") from None
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {key}: non-finite entry")
        if arr.size != size:
            raise ValueError(f"{path}: {key} has {arr.size} entries, expected {size}")
        return arr

    def size(key):
        value = float(vec(key, 1)[0])
        if value < 1 or value != int(value):
            raise ValueError(f"{path}: {key} must be a positive integer, got {value:g}")
        return int(value)

    kind = kv.get("kind")
    if kind not in ("sparse", "exact"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    d = size("n_dims")
    hyper = KernelHyper(
        signal_variance=float(vec("signal_variance", 1)[0]),
        length_scales=vec("length_scales", d),
        noise_variance=float(vec("noise_variance", 1)[0]),
    )
    if kind == "sparse":
        m = size("m")
        return SparseGpModel(
            inducing=vec("inducing", m * d).reshape(m, d),
            hyper=hyper,
            chol_inducing=vec("chol_inducing", m * m).reshape(m, m),
            chol_cap=vec("chol_cap", m * m).reshape(m, m),
            mean_weights=vec("mean_weights", m),
        )
    n = size("n")
    data = Dataset(inputs=vec("inputs", n * d).reshape(n, d), targets=vec("targets", n))
    return GpModel(
        dataset=data,
        hyper=hyper,
        chol_factor=vec("chol_factor", n * n).reshape(n, n),
        alpha=vec("alpha", n),
    )
