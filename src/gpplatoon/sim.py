"""Closed-loop simulation of the mixed platoon under scripted scenarios.

The HV plant keeps a clean ARX state driven by a correction evaluated at
the realized lag-1 velocity pair (ground-truth disturbance in truth mode,
the trained GP mean in paper mode) and realizes velocities with optional
output noise, so the near-marginal recursion never integrates noise. The
harness runs either controller against this plant, records trajectories
and solver diagnostics, and reduces runs to scalar metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gp import read_csv
from .hv import ArxParams, N_LAGS, VelocityHistory, arx_step, default_disturbance
from .mpc import MpcConfig, PlatoonController, PlatoonState


def rest_profile(t: float) -> float:
    """All-zero reference: the platoon stays at rest."""
    return 0.0


def emergency_brake_profile(t: float) -> float:
    """Stepped braking reference: 35 to 20, 10, 2, then a halt at 120 s."""
    if t < 40.0:
        return 35.0
    if t < 80.0:
        return 20.0
    if t < 100.0:
        return 10.0
    if t < 120.0:
        return 2.0
    return 0.0


def realtime_brake_profile(t: float) -> float:
    """Low-speed braking reference: 10 until 30 s, then 5."""
    return 10.0 if t < 30.0 else 5.0


_WLTP_KNOTS_T = (0, 8, 20, 28, 38, 45, 52, 62, 70, 80, 86, 94, 104, 114,
                 124, 130, 140, 152, 160, 170, 178, 180)
_WLTP_KNOTS_V = (0, 12, 8, 14, 0, 0, 18, 14, 22, 5, 0, 20, 26, 29,
                 12, 8, 25, 32, 36.5, 30, 10, 8)


def multiphase_profile(t: float) -> float:
    """Synthetic four-phase stand-in for a standard test-cycle reference.

    Low, medium, high and extra-high speed phases with stops in between;
    peaks at 36.5 m/s. Not the genuine cycle data, which is not shipped.
    """
    return float(np.interp(t, _WLTP_KNOTS_T, _WLTP_KNOTS_V))


def load_velocity_profile(path, step: float, v_max: float = 37.0) -> np.ndarray:
    """Load a ``t,v_ref`` CSV and resample it to ``step`` by interpolation.

    The ``t,v_ref`` header is required. Values are clamped to [0, v_max]
    with a warning; malformed or non-finite rows raise with their line
    number and non-monotone time grids are rejected.
    """
    rows = read_csv(path, "t,v_ref")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two samples")
    t, v = rows[:, 0], rows[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{path}: time grid must be strictly increasing")
    if np.any(v < 0) or np.any(v > v_max):
        warnings.warn(f"{path}: reference values clamped to [0, {v_max}]")
        v = np.clip(v, 0.0, v_max)
    grid = np.arange(0.0, t[-1] + 0.5 * step, step)
    return np.interp(grid, t, v)


# name: (reference profile, make_scenario defaults)
_SCENARIOS = {
    "rest": (rest_profile, dict(duration=20.0)),
    "emergency": (emergency_brake_profile, dict(duration=130.0)),
    "wltp": (multiphase_profile, dict(duration=180.0)),
    "realtime": (realtime_brake_profile, dict(duration=60.0, cfg=MpcConfig(step=0.25, r=15.0))),
}


def _scenario(name: str):
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {tuple(_SCENARIOS)}")
    return _SCENARIOS[name]


@dataclass(frozen=True)
class ScenarioSpec:
    """Closed-loop scenario: reference, duration, plant mode and seeds."""

    name: str
    duration: float = 20.0
    spacing_factor: float = 1.2
    cfg: MpcConfig = field(default_factory=MpcConfig)
    plant_mode: str = "truth"  # "truth" | "paper"
    noise: bool = False
    seed: int = 0
    plant_noise_std: float = 0.0005

    def __post_init__(self):
        steps = self.duration / self.step
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("duration must be an integral number of steps")
        if self.spacing_factor * self.cfg.av_gap <= self.cfg.gap.delta:
            raise ValueError("initial spacing must exceed the HV gap bound")
        if self.plant_mode not in ("truth", "paper"):
            raise ValueError(f"unknown plant mode {self.plant_mode!r}")

    @property
    def step(self) -> float:
        """Sample time, the controller's ``cfg.step``."""
        return self.cfg.step

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.step))

    def profile(self):
        """Reference velocity profile of the scenario called ``name``."""
        return _scenario(self.name)[0]


def make_scenario(name: str, **overrides) -> ScenarioSpec:
    """Preset scenarios mirroring the experimental protocol."""
    return ScenarioSpec(name=name, **{**_scenario(name)[1], **overrides})


class HvPlant:
    """HV simulation model shared by truth and paper plant modes.

    Keeps the clean ARX state alongside realized velocities; the correction
    is evaluated at the realized lag-1 pair and optional noise is added at
    the output only.
    """

    def __init__(self, mode: str, arx: ArxParams, correction, step: float,
                 noise: bool = False, noise_std: float = 0.05, seed: int = 0,
                 v0: float = 0.0, v_cap: float | None = None):
        if mode not in ("truth", "paper"):
            raise ValueError(f"unknown plant mode {mode!r}")
        if mode == "paper" and not hasattr(correction, "predict_batch"):
            raise ValueError("paper mode needs a trained GP model as correction")
        self.mode = mode
        self.arx = arx
        self.correction = correction
        self.step_size = step
        self.noise = noise
        self.noise_std = noise_std
        self.rng = np.random.default_rng(seed)
        self.v_cap = v_cap
        self.clean = np.full(N_LAGS, float(v0))
        self.v_hat = np.full(N_LAGS, float(v0))
        self.va = np.full(N_LAGS, float(v0))
        self.clamp_events = 0

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
        """One plant step; returns (next realized velocity, position increment)."""
        pos_increment = self.step_size * self.v_hat[0]
        av_lags = np.concatenate([[va_current], self.va[: N_LAGS - 1]])
        nxt = arx_step(self.arx, self.clean, av_lags)
        pair = np.array([self.v_hat[0], va_current])
        if self.mode == "truth":
            nxt += float(self.correction(pair[0], pair[1]))
            eps = self.noise_std * self.rng.standard_normal() if self.noise else 0.0
        else:
            means, variances = self.correction.predict_batch(pair[None, :])
            nxt += float(means[0])
            eps = math.sqrt(max(float(variances[0]), 0.0)) * self.rng.standard_normal() \
                if self.noise else 0.0
        self.clean = np.concatenate([[nxt], self.clean[: N_LAGS - 1]])
        realized = nxt + eps
        clamped = min(max(realized, 0.0), self.v_cap) if self.v_cap is not None \
            else max(realized, 0.0)
        if clamped != realized:
            self.clamp_events += 1
        self.v_hat = np.concatenate([[clamped], self.v_hat[: N_LAGS - 1]])
        self.va = av_lags
        return clamped, pos_increment


@dataclass
class SimResult:
    """Recorded closed-loop run: one row per control step."""

    time: np.ndarray
    av_pos: np.ndarray       # (n_av, K)
    av_vel: np.ndarray
    av_acc: np.ndarray
    hv_pos: np.ndarray
    hv_vel: np.ndarray
    solve_time: np.ndarray
    status: list
    iterations: np.ndarray
    gap_bound: np.ndarray
    sigma_terminal: np.ndarray
    events: list
    controller: str
    gp_batch_evals: int

    @property
    def n_av(self) -> int:
        return self.av_pos.shape[0]

    def min_adjacent_gap(self) -> np.ndarray:
        gaps = self.av_pos[:-1] - self.av_pos[1:]
        return gaps.min(axis=0) if gaps.size else np.full(self.time.size, np.inf)

    def hv_gap(self) -> np.ndarray:
        return self.av_pos[-1] - self.hv_pos


def fmt9(x: float) -> str:
    """Locale-independent decimal formatting with 9 significant digits."""
    return format(float(x), ".9g")


def result_to_csv(result: SimResult, path) -> None:
    """Trajectory data export; timing lives in the diagnostics log."""
    cols = ["t"]
    for j in range(result.n_av):
        cols += [f"p_av{j + 1}", f"v_av{j + 1}", f"acc_av{j + 1}"]
    cols += ["p_hv", "v_hv", "gap_av", "gap_hv"]
    gap_av = result.min_adjacent_gap()
    gap_hv = result.hv_gap()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(result.time.size):
            row = [fmt9(result.time[k])]
            for j in range(result.n_av):
                row += [fmt9(result.av_pos[j, k]), fmt9(result.av_vel[j, k]),
                        fmt9(result.av_acc[j, k])]
            row += [fmt9(result.hv_pos[k]), fmt9(result.hv_vel[k]),
                    fmt9(gap_av[k]) if np.isfinite(gap_av[k]) else "inf",
                    fmt9(gap_hv[k])]
            fh.write(",".join(row) + "\n")


def diagnostics_to_csv(result: SimResult, path) -> None:
    """Per-step solver diagnostics, including wall-clock solve times."""
    with open(path, "w", newline="") as fh:
        fh.write("k,solve_time_s,status,iters,min_gap_bound,sigma_terminal\n")
        for k in range(result.time.size):
            fh.write(f"{k},{fmt9(result.solve_time[k])},{result.status[k]},"
                     f"{int(result.iterations[k])},{fmt9(result.gap_bound[k])},"
                     f"{fmt9(result.sigma_terminal[k])}\n")


def run_closed_loop(spec: ScenarioSpec, controller: str = "nominal",
                    gp_model=None, arx: ArxParams | None = None,
                    g_true=default_disturbance) -> SimResult:
    """Simulate one scenario under the chosen control policy.

    All vehicles start at rest; the leader sits at 0 with each follower and
    the HV placed ``spacing_factor * av_gap`` behind its predecessor.
    Controller fallbacks are recorded as events, never aborts.
    """
    if controller not in ("nominal", "gp"):
        raise ValueError(f"unknown controller {controller!r}")
    arx = arx or ArxParams.default()
    cfg = spec.cfg
    if controller == "gp" and gp_model is None:
        raise ValueError("gp controller requires a trained sparse GP model")
    if spec.plant_mode == "paper" and gp_model is None:
        raise ValueError("paper plant mode requires a trained sparse GP model")
    profile = spec.profile()
    ctrl = PlatoonController(cfg, mode=controller, gp_model=gp_model, arx=arx)
    plant = HvPlant(
        mode=spec.plant_mode, arx=arx,
        correction=g_true if spec.plant_mode == "truth" else gp_model,
        step=spec.step, noise=spec.noise, noise_std=spec.plant_noise_std,
        seed=spec.seed, v0=0.0, v_cap=cfg.v_max,
    )

    nav = cfg.n_av
    spacing = spec.spacing_factor * cfg.av_gap
    av_pos = -spacing * np.arange(nav, dtype=float)
    av_vel = np.zeros(nav)
    hv_pos = float(av_pos[-1] - spacing)

    steps = spec.steps
    rec = SimResult(
        time=np.arange(steps) * spec.step,
        av_pos=np.empty((nav, steps)), av_vel=np.empty((nav, steps)),
        av_acc=np.empty((nav, steps)), hv_pos=np.empty(steps),
        hv_vel=np.empty(steps), solve_time=np.empty(steps), status=[],
        iterations=np.empty(steps, dtype=int), gap_bound=np.empty(steps),
        sigma_terminal=np.empty(steps), events=[], controller=controller,
        gp_batch_evals=0,
    )

    horizon_offsets = (np.arange(cfg.horizon) + 1) * spec.step
    for k in range(steps):
        t = k * spec.step
        state = PlatoonState(av_pos=av_pos.copy(), av_vel=av_vel.copy(),
                             hv_pos=hv_pos, history=plant.history(av_vel[-1]))
        v_ref = np.array([profile(t + dt) for dt in horizon_offsets])
        acc0, sol = ctrl.step(state, v_ref)
        if sol.fallback:
            rec.events.append((k, f"fallback:{sol.status}"))

        rec.av_pos[:, k] = av_pos
        rec.av_vel[:, k] = av_vel
        rec.av_acc[:, k] = acc0
        rec.hv_pos[k] = hv_pos
        rec.hv_vel[k] = plant.velocity
        rec.solve_time[k] = sol.solve_time
        rec.status.append(sol.status)
        rec.iterations[k] = sol.iterations
        rec.gap_bound[k] = float(np.max(sol.gap_bounds))
        rec.sigma_terminal[k] = float(sol.hv_pos_var[-1])

        _, pos_increment = plant.advance(av_vel[-1])
        hv_pos += pos_increment
        av_pos = av_pos + spec.step * av_vel
        new_vel = av_vel + spec.step * acc0
        clipped = np.clip(new_vel, 0.0, cfg.v_max)
        if np.any(clipped != new_vel):
            rec.events.append((k, "av_velocity_clamped"))
        av_vel = clipped

    rec.gp_batch_evals = ctrl.gp_batch_evals
    return rec


@dataclass(frozen=True)
class Metrics:
    """Scalar summary of one run."""

    traveled: np.ndarray        # per vehicle, AVs then HV
    min_av_gap: float
    min_hv_gap: float
    solve_time_mean: float
    solve_time_max: float
    solve_time_std: float
    fallbacks: int

    def data_lines(self):
        lines = []
        for j in range(self.traveled.size - 1):
            lines.append(f"traveled_av{j + 1} = {fmt9(self.traveled[j])}")
        lines.append(f"traveled_hv = {fmt9(self.traveled[-1])}")
        lines.append(f"min_av_gap = {fmt9(self.min_av_gap)}")
        lines.append(f"min_hv_gap = {fmt9(self.min_hv_gap)}")
        lines.append(f"fallbacks = {self.fallbacks}")
        return lines

    def timing_lines(self):
        return [
            f"solve_time_mean_s = {fmt9(self.solve_time_mean)}",
            f"solve_time_max_s = {fmt9(self.solve_time_max)}",
            f"solve_time_std_s = {fmt9(self.solve_time_std)}",
        ]


def compute_metrics(result: SimResult) -> Metrics:
    """Traveled distances, minimum gaps, and solve-time statistics."""
    if result.time.size == 0:
        raise ValueError("empty simulation result")
    traveled = np.concatenate([
        result.av_pos[:, -1] - result.av_pos[:, 0],
        [result.hv_pos[-1] - result.hv_pos[0]],
    ])
    gaps = result.min_adjacent_gap()
    min_av_gap = float(np.min(gaps)) if np.all(np.isfinite(gaps)) else np.inf
    return Metrics(
        traveled=traveled,
        min_av_gap=min_av_gap,
        min_hv_gap=float(np.min(result.hv_gap())),
        solve_time_mean=float(np.mean(result.solve_time)),
        solve_time_max=float(np.max(result.solve_time)),
        solve_time_std=float(np.std(result.solve_time)),
        fallbacks=sum(1 for _, e in result.events if e.startswith("fallback")),
    )


def metrics_to_text(metrics: Metrics, path) -> None:
    """Deterministic metrics file (no wall-clock content)."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(metrics.data_lines()) + "\n")


def timing_to_text(metrics: Metrics, path) -> None:
    """Wall-clock solve-time statistics (machine dependent)."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(metrics.timing_lines()) + "\n")
