"""Human-driver velocity model: ARX nominal dynamics plus GP correction.

The nominal model predicts the next human-driven-vehicle (HV) velocity from
four lagged HV velocities and four lagged trailing-AV velocities. A GP
trained on the discrepancy between recorded and ARX-predicted velocities
corrects the prediction and supplies a variance.

``HvPlant`` is the one HV recursion: the ARX step plus a correction at the
realized lag-1 pair, with output noise and a velocity clamp. The closed
loop steps it against the controller, and ``generate_synthetic_trace``
steps it with a known disturbance to make the driver traces that replace
field recordings, so the learned correction can be checked against ground
truth.
"""

from __future__ import annotations

import functools
import math
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


@dataclass(frozen=True)
class DriverTrace:
    """Recorded (or synthesized) velocities of a trailing AV and the HV.

    Every entry is finite and ``time`` is a uniform grid with a positive
    step; otherwise ``ValueError``.
    """

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
        for name, a in (("time", t), ("v_av", va), ("v_hv", vh)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        steps = np.diff(t)
        if not (steps > 0).all():
            raise ValueError("time grid must be strictly increasing")
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


class HvPlant:
    """The HV driver law: the ARX recursion plus a correction, one sample per
    :meth:`advance`.

    Keeps the clean ARX state alongside realized velocities. The correction
    is evaluated at the realized lag-1 pair: the ground-truth disturbance
    ``correction(v_hv, v_av)`` in truth mode, the mean of a trained GP's
    ``predict_batch`` in paper mode. Optional noise is added at the output
    only (``noise_std`` in truth mode, the GP's standard deviation in paper
    mode), so the near-marginal recursion never integrates it, and the
    realized velocity is clamped to [0, v_cap]. The closed loop and
    :func:`generate_synthetic_trace` both step it.
    """

    def __init__(self, mode: str, arx: ArxParams, correction, step: float,
                 noise: bool = False, noise_std: float = 0.05, seed: int = 0,
                 v0: float = 0.0, v_cap: float | None = None):
        if mode not in ("truth", "paper"):
            raise ValueError(f"unknown plant mode {mode!r}")
        if mode == "paper" and not hasattr(correction, "predict_batch"):
            raise ValueError("paper mode needs a trained GP model as correction")
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"step must be finite and positive, got {step!r}")
        if not (math.isfinite(noise_std) and noise_std >= 0):
            raise ValueError(f"noise_std must be finite and non-negative, got {noise_std!r}")
        if not (math.isfinite(v0) and v0 >= 0):
            raise ValueError(f"v0 must be finite and non-negative, got {v0!r}")
        if v_cap is not None and not (math.isfinite(v_cap) and v_cap > 0):
            raise ValueError(f"v_cap must be None or finite and positive, got {v_cap!r}")
        self.mode = mode
        self.arx = arx
        self.correction = correction
        self.step_size = step
        self.noise = noise
        self.noise_std = noise_std
        self.rng = np.random.default_rng(seed)
        self.v_cap = v_cap
        # lags, newest first; advance shifts them in place, so read them
        # through history(), which copies
        self.clean = np.full(N_LAGS, float(v0))
        self.v_hat = np.full(N_LAGS, float(v0))
        self.va = np.full(N_LAGS, float(v0))
        self.clamped = False

    @property
    def velocity(self) -> float:
        return float(self.v_hat[0])

    def history(self, va_current: float) -> VelocityHistory:
        """Measured velocity history at the current instant."""
        return VelocityHistory(
            hv=self.v_hat.copy(),
            av=np.concatenate([[va_current], self.va[: N_LAGS - 1]]),
        )

    def advance(self, va_current: float):
        """One plant step; returns (next realized velocity, position increment).

        ``clamped`` tells afterwards whether this step clamped the velocity
        to [0, v_cap].
        """
        clean, v_hat, va = self.clean, self.v_hat, self.va
        pos_increment = self.step_size * v_hat[0]
        if self.mode == "truth":
            correction = float(self.correction(v_hat[0], va_current))
            eps = self.noise_std * self.rng.standard_normal() if self.noise else 0.0
        else:
            means, variances = self.correction.predict_batch(
                np.array([[v_hat[0], va_current]]))
            correction = float(means[0])
            eps = math.sqrt(max(float(variances[0]), 0.0)) * self.rng.standard_normal() \
                if self.noise else 0.0
        va[1:] = va[:-1]
        va[0] = va_current
        nxt = arx_step(self.arx, clean, va) + correction
        clean[1:] = clean[:-1]
        clean[0] = nxt
        realized = nxt + eps
        clamped = min(max(realized, 0.0), self.v_cap) if self.v_cap is not None \
            else max(realized, 0.0)
        self.clamped = clamped != realized
        v_hat[1:] = v_hat[:-1]
        v_hat[0] = clamped
        return clamped, pos_increment


def generate_synthetic_trace(profile, duration: float, step: float,
                             disturbance=default_disturbance,
                             noise_std: float = 0.0, seed: int = 0) -> DriverTrace:
    """Synthesize a driver trace with a known disturbance.

    The trailing-AV series follows ``profile(t)``. The HV is a truth-mode
    :class:`HvPlant` with ``disturbance`` as its correction, the default ARX
    coefficients and no velocity cap. Its first four samples are a warm-up,
    a clean state at ``v_av[0]`` plus the first four draws of the plant's
    generator ``default_rng(seed)`` times ``noise_std``; each later sample k
    is one ``advance(v_av[k-1])``, which draws the next one per step. The
    draws equal one batch draw, so the output noise is
    ``eps = noise_std * default_rng(seed).standard_normal(n)``, and every
    sample is clamped at zero velocity.

    The near-marginal recursion never integrates the noise, but
    ``build_discrepancy_dataset`` predicts from the recorded, noisy lags,
    so away from the clamp each target is

        disturbance(pair) + eps[k] + c @ eps[k-1..k-4]

    with a noise std of about ``||(1, c)|| * noise_std`` (4.9x for the
    default coefficients). With ``noise_std=0`` the targets equal
    ``disturbance(pair)`` to rounding. White targets would need
    equation-error noise fed through the recorded lags instead, which the
    recursion (DC gain ~1e4) would grow to a stationary std of ~840x
    ``noise_std``.

    Each ARX sum is the plant's dot product over contiguous lags, which
    rounds differently from a sum over reversed views of the series: the
    two recursions stay within 8.5e-12 m/s on the benchmark's 60 training
    traces (120 s, noise 0.08). Deterministic for a fixed seed. Raises
    ``ValueError`` for a non-finite or non-positive ``duration`` or
    ``step``, a non-finite or negative ``noise_std`` or ``v_av[0]``, or
    too few samples for the warm-up.
    """
    for name, value in (("duration", duration), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    n = int(round(duration / step)) + 1
    if n < N_LAGS + 1:
        raise ValueError("duration too short for the ARX warm-up")
    t = np.arange(n) * step
    v_av = np.asarray([float(profile(tk)) for tk in t])
    plant = HvPlant("truth", ArxParams.default(), disturbance, step, noise=noise_std > 0,
                    noise_std=noise_std, seed=seed, v0=v_av[0])
    v_hv = np.empty(n)
    warm = noise_std * plant.rng.standard_normal(N_LAGS) if noise_std > 0 else 0.0
    v_hv[:N_LAGS] = np.maximum(v_av[0] + warm, 0.0)
    plant.v_hat[:] = v_hv[N_LAGS - 1:: -1]
    plant.va[: N_LAGS - 1] = v_av[N_LAGS - 2:: -1]
    for k in range(N_LAGS, n):
        v_hv[k] = plant.advance(v_av[k - 1])[0]
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
