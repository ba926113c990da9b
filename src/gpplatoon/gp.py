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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri
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
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float))
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
    """Regression dataset: one input row per target value."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_1d(np.asarray(self.targets, dtype=float))
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


def _kernel_matrix(a: np.ndarray, b: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """Kernel cross-covariance between row sets ``a`` (n,d) and ``b`` (m,d)."""
    inv = 1.0 / np.sqrt(hyper.length_scales)
    sa = a * inv
    sb = b * inv
    r2 = (
        np.sum(sa**2, axis=1)[:, None]
        + np.sum(sb**2, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    np.maximum(r2, 0.0, out=r2)
    return hyper.signal_variance * np.exp(-0.5 * r2)


# ---------------------------------------------------------------------------
# exact GP
# ---------------------------------------------------------------------------


def _factorize(k: np.ndarray, data: Dataset, hyper: KernelHyper):
    """Cholesky factor of (K + (noise+jitter) I) for the training kernel
    matrix ``k``, and the weight vector."""
    # Fortran order lets LAPACK factor the copy in place
    c = k.copy(order="F")
    c[np.diag_indices_from(c)] += hyper.noise_variance + JITTER
    try:
        chol = cholesky(c, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        raise IllConditionedKernelError(
            "kernel matrix not positive definite for "
            f"signal_variance={hyper.signal_variance:g}, "
            f"length_scales={np.array2string(hyper.length_scales, precision=3)}, "
            f"noise_variance={hyper.noise_variance:g}"
        ) from None
    alpha = cho_solve((chol, True), data.targets)
    return chol, alpha


def log_marginal_likelihood(data: Dataset, hyper: KernelHyper):
    """Log marginal likelihood and its gradient over log-hyperparameters.

    Returns ``(value, grad)`` where ``grad`` is ordered as
    [log signal_variance, log length_scales..., log noise_variance].

    With C = K + (noise+jitter) I, alpha = C^-1 y, M = alpha alpha' - C^-1
    and D_d the squared input differences along dimension d, the gradient
    is 0.5 tr(M dC/dtheta) (Rasmussen & Williams 2006, eq. 5.9):

        d/d log signal_variance = 0.5  sum(M * K)
        d/d log length_scale_d  = 0.25 sum(M * K * D_d) / length_scale_d
        d/d log noise_variance  = 0.5  noise_variance tr(M)

    Every sum pairs C^-1 with a symmetric matrix S (K, or K * D_d), so one
    triangle of C^-1 suffices, taken from LAPACK dpotri on the Cholesky
    factor: sum(C^-1 * S) = 2 sum(triangle) - sum(diagonal) of C^-1 * S.
    D_d has a zero diagonal, and K has signal_variance on its diagonal, so
    the diagonal terms are 0 and signal_variance tr(C^-1). With U the upper
    triangle of C^-1 (zero below the diagonal) and
    W = (0.5 alpha alpha' - U) * K,

        0.5  sum(M * K)       = sum(W) + 0.5 signal_variance tr(C^-1)
        0.25 sum(M * K * D_d) = 0.5 sum(W * D_d)
    """
    n = data.n
    # D_d for every dimension, shared by K and the length-scale terms
    # (contiguous per dimension: broadcasting over the strided x.T is 4x slower)
    xt = np.ascontiguousarray(data.inputs.T)
    sqd = xt[:, :, None] - xt[:, None, :]
    sqd *= sqd
    k = np.tensordot(1.0 / hyper.length_scales, sqd, axes=1)
    k *= -0.5
    np.exp(k, out=k)
    k *= hyper.signal_variance
    chol, alpha = _factorize(k, data, hyper)
    value = (
        -0.5 * float(data.targets @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )

    # cannot fail: the factorization left a positive diagonal
    cinv, _ = dpotri(chol, lower=True, overwrite_c=True)
    trace_cinv = float(np.trace(cinv))
    # C^-1 fills the lower triangle of a Fortran-ordered array, so its
    # transpose is U in the C order of k
    u = cinv.T
    u *= k
    w = k
    w *= alpha[:, None]
    w *= 0.5 * alpha
    w -= u
    grad = np.empty(hyper.n_dims + 2)
    grad[0] = float(w.sum()) + 0.5 * hyper.signal_variance * trace_cinv
    grad[1:-1] = 0.5 * (sqd.reshape(hyper.n_dims, -1) @ w.ravel()) / hyper.length_scales
    grad[-1] = 0.5 * hyper.noise_variance * (float(alpha @ alpha) - trace_cinv)
    return value, grad


@dataclass(frozen=True)
class GpModel:
    """Exact GP conditioned on a dataset, with cached factorization."""

    dataset: Dataset
    hyper: KernelHyper
    chol_factor: np.ndarray
    alpha: np.ndarray
    warning: bool = False

    @classmethod
    def from_data(cls, data: Dataset, hyper: KernelHyper, warning: bool = False):
        if data.n_dims != hyper.n_dims:
            raise ValueError(
                f"dataset has {data.n_dims} input dims but hyper has {hyper.n_dims}"
            )
        chol, alpha = _factorize(_kernel_matrix(data.inputs, data.inputs, hyper), data, hyper)
        return cls(dataset=data, hyper=hyper, chol_factor=chol, alpha=alpha,
                   warning=warning)

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

    Never returns a model worse than the initial hyperparameters; optimizer
    failure falls back to the best evaluated iterate with ``warning`` set.
    """
    if data.n_dims != init.n_dims:
        raise ValueError("init length_scales dimension does not match data")

    theta0 = init.to_log_vector()
    best = {"nll": np.inf, "theta": theta0}
    # the last (theta, (nll, grad)), because L-BFGS-B starts at theta0,
    # where nll0 below was already evaluated
    last = [None, None]

    def objective(theta):
        if last[0] is not None and np.array_equal(theta, last[0]):
            return last[1]
        try:
            value, grad = log_marginal_likelihood(data, KernelHyper.from_log_vector(theta))
            out = (-value, -grad)
        except IllConditionedKernelError:
            out = (1e12, np.zeros_like(theta))
        else:
            if -value < best["nll"]:
                best["nll"] = -value
                best["theta"] = theta.copy()
        last[:] = theta.copy(), out
        return out

    nll0, _ = objective(theta0)
    lo = np.full(theta0.size, -30.0)
    hi = np.full(theta0.size, 30.0)
    lo[-1] = math.log(NOISE_FLOOR)
    res = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-12},
    )
    warning = not res.success
    theta = best["theta"] if best["nll"] <= nll0 else theta0
    if best["nll"] > nll0:
        warning = True
    return GpModel.from_data(data, KernelHyper.from_log_vector(theta), warning=warning)


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


@dataclass(frozen=True)
class SparseGpModel:
    """FIC sparse GP: prediction cost depends only on the inducing count."""

    inducing: np.ndarray
    hyper: KernelHyper
    chol_inducing: np.ndarray
    chol_cap: np.ndarray
    mean_weights: np.ndarray

    @classmethod
    def from_inducing(cls, data: Dataset, hyper: KernelHyper, inducing: np.ndarray):
        inducing = np.atleast_2d(np.asarray(inducing, dtype=float))
        chol_zz, v, lam, chol_cap = _fic_factors(data, hyper, inducing)
        w = v @ (data.targets / lam)
        mean_weights = cho_solve((chol_cap, True), w)
        return cls(inducing=inducing, hyper=hyper, chol_inducing=chol_zz,
                   chol_cap=chol_cap, mean_weights=mean_weights)

    def predict_batch(self, xs):
        """Posterior means and variances at query rows ``xs`` (m, d)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        kz = _kernel_matrix(self.inducing, xs, self.hyper)
        u = solve_triangular(self.chol_inducing, kz, lower=True)
        means = u.T @ self.mean_weights
        t = solve_triangular(self.chol_cap, u, lower=True)
        variances = self.hyper.signal_variance - np.sum(u * u, axis=0) + np.sum(t * t, axis=0)
        return means, np.maximum(variances, 0.0)


def _kmeans(points: np.ndarray, k: int, seed: int, iters: int = 50) -> np.ndarray:
    """Deterministic k-means++ centroids over input rows."""
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
    for _ in range(iters):
        d = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        labels = np.argmin(d, axis=1)
        new = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new[j] = points[mask].mean(axis=0)
            else:
                new[j] = points[np.argmax(np.min(d, axis=1))]
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
