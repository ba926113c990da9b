"""Human-driver velocity model: ARX nominal dynamics plus GP correction.

The nominal model predicts the next human-driven-vehicle (HV) velocity from
four lagged HV velocities and four lagged trailing-AV velocities. A GP
trained on the discrepancy between recorded and ARX-predicted velocities
corrects the prediction and supplies a variance. Synthetic driver traces
with a known disturbance replace field recordings so the learned correction
can be checked against ground truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gp import Dataset, GpModel, SparseGpModel, KernelHyper, build_sparse, train_exact

# Identified coefficients of the driver-following difference equation.
ARX_C_DEFAULT = (-3.0227, 3.3543, -1.6329, 0.3014)
ARX_B_DEFAULT = (0.0063, -0.0303, 0.0495, -0.0254)

N_LAGS = 4


@dataclass(frozen=True, eq=False)
class ArxParams:
    """Coefficients of the 4-lag ARX driver model: an immutable value with
    read-only copies of ``c`` and ``b``, compared and hashed by their bytes."""

    c: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        b = np.array(self.b, dtype=float)
        c.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        if c.shape != (N_LAGS,) or b.shape != (N_LAGS,):
            raise ValueError(f"c and b must each hold {N_LAGS} coefficients")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
            raise ValueError("ARX coefficients must be finite")
        if abs(1.0 + c.sum()) < 1e-12:
            raise ValueError("1 + sum(c) must be nonzero for a finite DC gain")

    def __eq__(self, other):
        return (isinstance(other, ArxParams) and self.c.tobytes() == other.c.tobytes()
                and self.b.tobytes() == other.b.tobytes())

    def __hash__(self):
        return hash((self.c.tobytes(), self.b.tobytes()))

    @classmethod
    @functools.cache    # immutable, so one instance serves every caller
    def default(cls) -> "ArxParams":
        return cls(c=ARX_C_DEFAULT, b=ARX_B_DEFAULT)

    @property
    def dc_gain(self) -> float:
        """Steady-state velocity ratio between the HV and a constant lead input."""
        return float(self.b.sum() / (1.0 + self.c.sum()))


@dataclass(frozen=True)
class VelocityHistory:
    """The four most recent HV and trailing-AV velocities, newest first."""

    hv: np.ndarray
    av: np.ndarray

    def __post_init__(self):
        hv = np.asarray(self.hv, dtype=float)
        av = np.asarray(self.av, dtype=float)
        object.__setattr__(self, "hv", hv)
        object.__setattr__(self, "av", av)
        for name, arr in (("hv", hv), ("av", av)):
            if arr.shape != (N_LAGS,):
                raise ValueError(f"{name} history must hold exactly {N_LAGS} entries")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} history entries must be finite and >= 0")

    @classmethod
    def constant(cls, v_hv: float, v_av: float) -> "VelocityHistory":
        return cls(hv=np.full(N_LAGS, float(v_hv)), av=np.full(N_LAGS, float(v_av)))


@dataclass(frozen=True)
class DriverTrace:
    """Recorded (or synthesized) velocities of a trailing AV and the HV."""

    time: np.ndarray
    v_av: np.ndarray
    v_hv: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time, dtype=float)
        va = np.asarray(self.v_av, dtype=float)
        vh = np.asarray(self.v_hv, dtype=float)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "v_av", va)
        object.__setattr__(self, "v_hv", vh)
        if not (t.shape == va.shape == vh.shape) or t.ndim != 1:
            raise ValueError("time, v_av, v_hv must be equal-length vectors")
        if t.size < N_LAGS + 1:
            raise ValueError(f"trace must contain at least {N_LAGS + 1} samples")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
            raise ValueError("time grid must be uniform")

    @property
    def n(self) -> int:
        return self.time.size


def build_discrepancy_dataset(trace: DriverTrace, params: ArxParams) -> Dataset:
    """Dataset of (lag-1 velocity pair) -> (recorded minus ARX-predicted velocity).

    The first four samples are consumed as initial lags, so a trace of n
    samples yields n - 4 rows.
    """
    targets = trace.v_hv[N_LAGS:] - arx_prediction_series(trace, params)[N_LAGS:]
    return Dataset(inputs=_lag1_pairs(trace), targets=targets)


def _lag1_pairs(trace: DriverTrace) -> np.ndarray:
    """(v_hv, v_av) at k-1 for every predicted sample k >= N_LAGS."""
    return np.column_stack([trace.v_hv[N_LAGS - 1: trace.n - 1],
                            trace.v_av[N_LAGS - 1: trace.n - 1]])


def rmse(pred, actual) -> float:
    """Root mean square error between two equal-length series."""
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size < 1:
        raise ValueError(f"series shapes differ: {p.shape} vs {a.shape}")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def arx_step(params: ArxParams, hv_lags, av_lags):
    """ARX recursion step on raw lag arrays (newest first), no validation.

    Lags of shape ``(4,)`` give the next velocity. Lags of shape ``(4, m)``
    whose rows are linear maps (row i maps some input vector to lag i) give
    the map of the next velocity, which is how the MPC condenses the chain.
    """
    return -params.c @ np.asarray(hv_lags) + params.b @ np.asarray(av_lags)


def default_disturbance(v_hv, v_av):
    """Default ground-truth discrepancy used by the synthetic data generator.

    An eager tracking correction. Its scale is pinned by two hard dynamic
    limits of the identified coefficients: the lag-1 feedback slope must
    stay inside a ~0.004 stability window (the disturbance path has a DC
    gain of ~1e4), and a stronger sustained push makes the HV transiently
    overrun the AVs' velocity ceiling, which no bounded controller can stay
    ahead of.
    """
    return 0.15 * np.tanh(0.005 * (np.asarray(v_av, dtype=float)
                                   - np.asarray(v_hv, dtype=float)))


def generate_synthetic_trace(profile, duration: float, step: float,
                             disturbance=default_disturbance,
                             noise_std: float = 0.0, seed: int = 0) -> DriverTrace:
    """Synthesize a driver trace with a known disturbance.

    The trailing-AV series follows ``profile(t)``. The HV velocity carries a
    clean ARX state driven by the disturbance evaluated at the recorded
    lag-1 pair, and the recording adds white measurement noise
    ``eps = noise_std * default_rng(seed).standard_normal(n)`` at the output
    (clamped at zero velocity). The near-marginal recursion never integrates
    the noise, but ``build_discrepancy_dataset`` predicts from the recorded,
    noisy lags, so away from the clamp each target is

        disturbance(pair) + eps[k] + c @ eps[k-1..k-4]

    with a noise std of about ``||(1, c)|| * noise_std`` (4.9x for the
    default coefficients). With ``noise_std=0`` the targets equal
    ``disturbance(pair)`` exactly. White targets would need equation-error
    noise fed through the recorded lags instead, which the recursion (DC
    gain ~1e4) would grow to a stationary std of ~840x ``noise_std``.
    Deterministic for a fixed seed.
    """
    n = int(round(duration / step)) + 1
    if n < N_LAGS + 1:
        raise ValueError("duration too short for the ARX warm-up")
    rng = np.random.default_rng(seed)
    params = ArxParams.default()
    t = np.arange(n) * step
    v_av = np.asarray([float(profile(tk)) for tk in t])
    eps = noise_std * rng.standard_normal(n) if noise_std > 0 else np.zeros(n)
    clean = np.empty(n)
    v_hv = np.empty(n)
    clean[:N_LAGS] = v_av[0]
    v_hv[:N_LAGS] = np.maximum(clean[:N_LAGS] + eps[:N_LAGS], 0.0)
    for k in range(N_LAGS, n):
        clean[k] = arx_step(params, clean[k - N_LAGS: k][::-1],
                            v_av[k - N_LAGS: k][::-1])
        clean[k] += float(disturbance(v_hv[k - 1], v_av[k - 1]))
        v_hv[k] = max(clean[k] + eps[k], 0.0)
    return DriverTrace(time=t, v_av=v_av, v_hv=v_hv)


def arx_prediction_series(trace: DriverTrace, params: ArxParams) -> np.ndarray:
    """One-step-ahead ARX predictions over a recorded trace (entries left of
    the warm-up are copied from the recording).

    One :func:`arx_step` on ``(4, n - 4)`` lag maps, row i holding lag i + 1
    of every predicted sample. It sums the lags in another order than a
    step on ``(4,)`` lags, so the two differ by rounding only, about 1e-14
    on velocities of tens of m/s.
    """
    n = trace.n
    pred = np.empty(n)
    pred[:N_LAGS] = trace.v_hv[:N_LAGS]
    lags = [slice(N_LAGS - 1 - i, n - 1 - i) for i in range(N_LAGS)]
    pred[N_LAGS:] = arx_step(params, np.stack([trace.v_hv[sl] for sl in lags]),
                             np.stack([trace.v_av[sl] for sl in lags]))
    return pred


def corrected_prediction_series(trace: DriverTrace, params: ArxParams, gp):
    """One-step-ahead GP-corrected predictions; returns (pred, variance)."""
    pred = arx_prediction_series(trace, params)
    corr, var = gp.predict_batch(_lag1_pairs(trace))
    pred[N_LAGS:] += corr
    return pred, np.concatenate([np.zeros(N_LAGS), var])


def evaluate_models(trace: DriverTrace, params: ArxParams, gp) -> dict:
    """One-step-ahead RMSE of the ARX and ARX+GP predictors on one trace.

    One-step residuals are the well-posed accuracy metric here: free-running
    either predictor through the near-marginal recursion integrates any
    model bias with a DC gain of ~1e4 and says nothing about fit quality.

    Both predictors read the recorded lags, so on a recorded trace the
    RMSE has a floor of about ``||(1, c)||`` times the measurement noise
    std (see ``generate_synthetic_trace``), which can bury the discrepancy
    the GP corrects. Compare model accuracy on a noise-free trace, or
    against the known disturbance.
    """
    arx_pred = arx_prediction_series(trace, params)
    corr_pred, _ = corrected_prediction_series(trace, params, gp)
    sl = slice(N_LAGS, None)
    arx_rmse = rmse(arx_pred[sl], trace.v_hv[sl])
    corr_rmse = rmse(corr_pred[sl], trace.v_hv[sl])
    return {
        "arx_rmse": arx_rmse,
        "corrected_rmse": corr_rmse,
        "improvement": 1.0 - corr_rmse / arx_rmse if arx_rmse > 0 else 0.0,
    }


@dataclass(frozen=True)
class HvCorrectionFit:
    """Result of fitting the GP discrepancy model on driver traces."""

    exact: GpModel
    sparse: SparseGpModel
    dataset: Dataset


def _init_hyper(data: Dataset) -> KernelHyper:
    spans = np.ptp(data.inputs, axis=0)
    return KernelHyper(
        signal_variance=max(float(np.var(data.targets)), 1e-4),
        length_scales=np.maximum((spans / 4.0) ** 2, 1e-2),
        noise_variance=max(0.1 * float(np.var(data.targets)), 1e-6),
    )


def fit_hv_correction(traces, params: ArxParams | None = None, fraction: float = 0.2,
                      seed: int = 0, m: int = 20) -> HvCorrectionFit:
    """Train the discrepancy GP on a random fraction of the pooled trace data.

    Mirrors the intended workflow: pool discrepancy points from all traces,
    subsample ``fraction`` of them with a fixed seed, maximize the marginal
    likelihood, then condense onto ``m`` inducing inputs at the k-means
    centroids of the subsample.
    """
    params = params or ArxParams.default()
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    datasets = [build_discrepancy_dataset(tr, params) for tr in traces]
    inputs = np.vstack([d.inputs for d in datasets])
    targets = np.concatenate([d.targets for d in datasets])
    n_total = targets.size
    n_keep = max(int(round(fraction * n_total)), m)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n_total, size=min(n_keep, n_total), replace=False))
    data = Dataset(inputs=inputs[idx], targets=targets[idx])
    exact = train_exact(data, _init_hyper(data))
    sparse = build_sparse(exact, m=m, seed=seed)
    return HvCorrectionFit(exact=exact, sparse=sparse, dataset=data)
