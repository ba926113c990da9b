"""Receding-horizon platoon control as dense convex quadratic programs.

The horizon couples AV kinematics, the linear ARX chain of the HV, and the
HV position mean/variance propagation. GP terms are frozen along the
previous solution's trajectory (one sparse batch prediction per control
step), so every solve is a convex QP over the stacked AV accelerations.

Everything that does not depend on the measured state is built once per
``(cfg, arx)`` and cached: the cost matrix P, the constraint matrix G, the
HV velocity and position maps, the maps from the state to the cost vector
and to the HV chain's constant part, and the matrices that decode a plan.
P and G are read-only and shared by every QP of that pair, so
:func:`gpplatoon.qp.solve_qp` reuses its factor of P, and a control step
only forms the vectors q, h and the gap bounds with matrix-vector products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import GapConstraintParams, tightened_min_gap
from .hv import ArxParams, N_LAGS, VelocityHistory
from .qp import QuadraticProgram, solve_qp


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, bounds and gap parameters of the platoon MPC."""

    horizon: int = 20
    step: float = 0.1
    q1: float = 5.0
    q2: float = 5.0
    r: float = 10.0
    v_min: float = 0.0
    v_max: float = 37.0
    acc_min: float = -4.0
    acc_max: float = 4.0
    av_gap: float = 10.0
    gap: GapConstraintParams = field(
        default_factory=lambda: GapConstraintParams(delta=10.0, delta_ext=0.0,
                                                    p_def=0.95))
    n_av: int = 2

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if not (self.v_min < self.v_max and self.acc_min < self.acc_max):
            raise ValueError("bounds must be ordered")
        if min(self.q1, self.q2, self.r) <= 0:
            raise ValueError("cost weights must be positive")
        if self.n_av < 1:
            raise ValueError("platoon needs at least one AV")
        if self.step <= 0 or self.step >= 1:
            raise ValueError("sample time must lie in (0, 1)")
        if self.av_gap <= 0:
            raise ValueError("AV spacing bound must be positive")


@dataclass(frozen=True)
class PlatoonState:
    """Measured platoon state: AV kinematics plus the HV belief."""

    av_pos: np.ndarray
    av_vel: np.ndarray
    hv_pos: float
    history: VelocityHistory
    hv_pos_var: float = 0.0

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.av_pos, dtype=float))
        v = np.atleast_1d(np.asarray(self.av_vel, dtype=float))
        object.__setattr__(self, "av_pos", p)
        object.__setattr__(self, "av_vel", v)
        if p.shape != v.shape or p.ndim != 1:
            raise ValueError("av_pos and av_vel must be equal-length vectors")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))
                and np.isfinite(self.hv_pos)):
            raise ValueError("platoon state must be finite")
        if self.hv_pos_var < 0:
            raise ValueError("hv_pos_var must be non-negative")

    @property
    def n_av(self) -> int:
        return self.av_pos.size


@dataclass(frozen=True)
class FrozenGpTrajectory:
    """Per-stage GP correction terms frozen for one QP solve."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        v = np.atleast_1d(np.asarray(self.var, dtype=float))
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "var", v)
        if m.shape != v.shape or m.ndim != 1:
            raise ValueError("mean and var must be equal-length vectors")
        if np.any(v < 0):
            raise ValueError("frozen variances must be non-negative")

    @classmethod
    def zeros(cls, horizon: int) -> "FrozenGpTrajectory":
        return cls(mean=np.zeros(horizon), var=np.zeros(horizon))


@dataclass(frozen=True)
class MpcSolution:
    """Optimal plan with predicted trajectories and solver diagnostics."""

    acc: np.ndarray             # (n_av, N)
    av_vel: np.ndarray          # (n_av, N), stages k+1..k+N
    av_pos: np.ndarray          # (n_av, N)
    hv_vel: np.ndarray          # (N,), ARX chain stages k+1..k+N
    hv_pos_mean: np.ndarray     # (N,), stages k+1..k+N
    hv_pos_var: np.ndarray      # (N,), constrained stages k+2..k+N+1
    gap_bounds: np.ndarray      # (N,), AV-HV bounds at stages k+2..k+N+1
    stage_pairs: np.ndarray     # (N, 2), GP anchor pairs of this solve
    status: str
    iterations: int
    solve_time: float
    cost: float
    active: tuple = ()
    fallback: bool = False
    violated: str = ""          # on a fallback, the row the braking plan violates most


def evaluate_gp_along_trajectory(gp, prev, horizon: int) -> FrozenGpTrajectory:
    """Freeze GP terms along the previous solution (one batch prediction).

    ``prev`` is the previous :class:`MpcSolution`; at the first control step
    a :class:`PlatoonState` is accepted and its measured current pair is
    replicated across the horizon. Stage i is evaluated at the previous
    solution's stage i+1 pair (receding-horizon shift) with the last pair
    repeated. The frozen variances carry the model's learned noise variance
    on top of the latent GP variance, so the propagated position uncertainty
    covers realized one-step velocity scatter, not just correction-function
    uncertainty.
    """
    if isinstance(prev, MpcSolution):
        pairs = np.vstack([prev.stage_pairs[1:], prev.stage_pairs[-1:]])
        if pairs.shape[0] != horizon:
            raise ValueError("previous solution horizon does not match")
    elif isinstance(prev, PlatoonState):
        current = np.array([prev.history.hv[0], prev.history.av[0]])
        pairs = np.tile(current, (horizon, 1))
    else:
        raise TypeError("prev must be an MpcSolution or a PlatoonState")
    mean, var = gp.predict_batch(pairs)
    return FrozenGpTrajectory(mean=mean, var=var + gp.hyper.noise_variance)


@dataclass(frozen=True)
class _QpStructure:
    """The parts of a condensed horizon that depend only on ``(cfg, arx)``.

    The decision vector stacks AV accelerations block by block (AV j holds
    entries j*N..j*N+N-1). Every array is read-only and shared by all the
    :class:`CondensedQp` built from the same ``(cfg, arx)``; a control step
    only forms vectors from them.
    """

    cfg: MpcConfig
    cost_matrix: np.ndarray     # P (nd, nd)
    ineq_matrix: np.ndarray     # G (rows, nd)
    hv_lin: np.ndarray          # (N, nd), HV velocity chain in x
    mu_lin: np.ndarray          # (N+1, nd), t * cumsum(hv_lin)
    hv_state: np.ndarray        # (N, 9), (history.hv, history.av, v0[last]) -> hv_const
    lead_q: np.ndarray          # (nd, N+1), leader cost: q += lead_q @ e_lead
    follow_q: np.ndarray        # (nd, nav-1), follower cost per velocity difference
    h_acc: np.ndarray           # (2 nav N,), acceleration-box right-hand sides
    s_mat: np.ndarray           # (N, N), velocities from accelerations
    w_mat: np.ndarray           # (N, N), positions from accelerations
    stages: np.ndarray          # 1..N
    t_pos: np.ndarray           # t * (2..N+1), the constrained position stages

    def row_label(self, row: int) -> str:
        """Name of inequality row ``row``, e.g. ``av_gap[j,k]`` or ``hv_gap[k]``.

        ``j`` is the AV (the follower for ``av_gap``) and ``k`` the row's
        stage within its horizon block, counted from 0.
        """
        n, nav = self.cfg.horizon, self.cfg.n_av
        i = row
        for name, count, first in (("av_gap", nav - 1, 1), ("hv_gap", 1, None),
                                   ("v_max", nav, 0), ("v_min", nav, 0),
                                   ("acc_max", nav, 0), ("acc_min", nav, 0)):
            if 0 <= i < count * n:
                j, k = divmod(i, n)
                return f"{name}[{k}]" if first is None else f"{name}[{j + first},{k}]"
            i -= count * n
        raise IndexError(f"row {row} outside the {self.ineq_matrix.shape[0]} rows")


def _position_map(n: int) -> np.ndarray:
    """W with W[s-1, m] = s-1-m for m <= s-2: positions from accelerations."""
    w = np.zeros((n, n))
    for s in range(2, n + 1):
        w[s - 1, : s - 1] = np.arange(s - 1, 0, -1)
    return w


@functools.lru_cache(maxsize=16)
def _structure(cfg: MpcConfig, arx_c: bytes, arx_b: bytes) -> _QpStructure:
    """Build the fixed part of the condensed QP; cached on its full key."""
    c, b = np.frombuffer(arx_c), np.frombuffer(arx_b)
    n, nav, t = cfg.horizon, cfg.n_av, cfg.step
    nd = nav * n
    last = (nav - 1) * n
    s_mat = np.tril(np.ones((n, n)))
    w_mat = _position_map(n)

    # HV velocity chain: affine in the 9 measured values and in the trailing
    # AV's accelerations; row s-1 holds stage k+s
    hv_state = np.zeros((n, 2 * N_LAGS + 1))
    hv_acc = np.zeros((n, n))
    for s in range(1, n + 1):
        for q in range(1, N_LAGS + 1):
            i = s - q
            if i >= 1:
                hv_state[s - 1] -= c[q - 1] * hv_state[i - 1]
                hv_acc[s - 1] -= c[q - 1] * hv_acc[i - 1]
                hv_state[s - 1, 2 * N_LAGS] += b[q - 1]
                hv_acc[s - 1] += b[q - 1] * t * s_mat[i - 1]
            else:
                hv_state[s - 1, -i] -= c[q - 1]
                hv_state[s - 1, N_LAGS - i] += b[q - 1]
    hv_lin = np.zeros((n, nd))
    hv_lin[:, last:] = hv_acc
    # HV position mean over stages k+1..k+N+1; stage k+1 is fixed by the state
    mu_lin = np.zeros((n + 1, nd))
    mu_lin[1:] = t * np.cumsum(hv_lin, axis=0)

    # cost: acceleration effort, leader reference tracking, follower matching;
    # velocity stages k+1..k+N plus the written (N+1)-th stage, which under a
    # zero-held terminal input repeats the terminal velocity and reference
    p_cost = np.zeros((nd, nd))
    p_cost[np.diag_indices(nd)] += 2.0 * cfg.r
    m_lead = np.zeros((n + 1, nd))
    m_lead[:n, :n] = t * s_mat
    m_lead[n] = m_lead[n - 1]
    p_cost += 2.0 * cfg.q1 * m_lead.T @ m_lead
    lead_q = 2.0 * cfg.q1 * m_lead.T
    follow_q = np.zeros((nd, nav - 1))
    for j in range(1, nav):
        m_f = np.zeros((n + 1, nd))
        m_f[:n, j * n:(j + 1) * n] = t * s_mat
        m_f[:n, (j - 1) * n: j * n] = -t * s_mat
        m_f[n] = m_f[n - 1]
        p_cost += 2.0 * cfg.q2 * m_f.T @ m_f
        follow_q[:, j - 1] = 2.0 * cfg.q2 * m_f.sum(axis=0)

    # inequalities: AV-AV gaps, AV-HV gap (stages k+2..k+N+1), velocity and
    # acceleration boxes (stages k+1..k+N)
    w_ext = _position_map(n + 1)[1:, :n]
    n_rows = n * (nav - 1) + n + 4 * n * nav
    g_mat = np.zeros((n_rows, nd))
    row = 0
    for j in range(1, nav):
        g_mat[row:row + n, (j - 1) * n: j * n] = -t * t * w_ext
        g_mat[row:row + n, j * n:(j + 1) * n] = t * t * w_ext
        row += n
    g_mat[row:row + n, last:] = -t * t * w_ext
    g_mat[row:row + n] += mu_lin[1:]
    row += n
    for sign, block in ((1.0, t * s_mat), (-1.0, t * s_mat), (1.0, np.eye(n)),
                        (-1.0, np.eye(n))):
        for j in range(nav):
            g_mat[row:row + n, j * n:(j + 1) * n] = sign * block
            row += n
    h_acc = np.concatenate([np.full(nd, cfg.acc_max), np.full(nd, -cfg.acc_min)])

    arrays = dict(cost_matrix=p_cost, ineq_matrix=g_mat, hv_lin=hv_lin, mu_lin=mu_lin,
                  hv_state=hv_state, lead_q=lead_q, follow_q=follow_q, h_acc=h_acc,
                  s_mat=s_mat, w_mat=w_mat, stages=np.arange(1, n + 1),
                  t_pos=np.arange(2, n + 2) * t)
    for arr in arrays.values():
        arr.flags.writeable = False
    return _QpStructure(cfg=cfg, **arrays)


@dataclass(frozen=True)
class CondensedQp:
    """Dense QP plus the affine maps needed to decode a solution."""

    qp: QuadraticProgram
    cfg: MpcConfig
    v0: np.ndarray
    p0: np.ndarray
    hv_const: np.ndarray
    hv_lin: np.ndarray
    mu_const: np.ndarray
    mu_lin: np.ndarray
    sigma: np.ndarray
    gap_bounds: np.ndarray
    cost_const: float
    structure: _QpStructure = field(repr=False)

    def decode(self, x: np.ndarray):
        """Stage trajectories implied by a stacked acceleration vector."""
        st = self.structure
        t = self.cfg.step
        acc = x.reshape(self.cfg.n_av, self.cfg.horizon)
        av_vel = self.v0[:, None] + t * (st.s_mat @ acc.T).T
        av_pos = (self.p0[:, None] + np.outer(self.v0, st.stages) * t
                  + t * t * (st.w_mat @ acc.T).T)
        hv_vel = self.hv_const + self.hv_lin @ x
        mu = self.mu_const[:-1] + self.mu_lin[:-1] @ x
        return acc, av_vel, av_pos, hv_vel, mu


def condense(state: PlatoonState, cfg: MpcConfig, v_ref,
             frozen: FrozenGpTrajectory | None = None,
             arx: ArxParams | None = None) -> CondensedQp:
    """Reduce one horizon to a dense QP over stacked AV accelerations.

    With ``frozen`` set, the HV mean chain gains the frozen correction means,
    the position variance accumulates the frozen variances, and the AV-HV
    gap bound is tightened accordingly; without it the nominal fixed-gap
    program is produced. Position constraints cover stages k+2..k+N+1: the
    one-step-ahead positions are fixed by the measured state, so
    constraining them adds no control authority and an unavoidable
    millimetre incursion there would falsely mark the program infeasible.

    The cost and constraint matrices come from the structure cached per
    ``(cfg, arx)``; this call forms only the vectors of the measured state.
    """
    arx = arx or ArxParams.default()
    n, nav, t = cfg.horizon, cfg.n_av, cfg.step
    if state.n_av != nav:
        raise ValueError(f"state has {state.n_av} AVs but config expects {nav}")
    ref = np.atleast_1d(np.asarray(v_ref, dtype=float))
    if ref.shape != (n,):
        raise ValueError(f"v_ref must supply {n} stages, got {ref.shape}")
    fz = frozen if frozen is not None else FrozenGpTrajectory.zeros(n)
    if fz.mean.size != n:
        raise ValueError(f"frozen trajectory must supply {n} stages")
    st = _structure(cfg, arx.c.tobytes(), arx.b.tobytes())
    v0, p0 = state.av_vel, state.av_pos
    hist = state.history

    hv_const = st.hv_state @ np.concatenate([hist.hv, hist.av, v0[-1:]])
    # the first mean increment uses the measured velocity and the final one
    # repeats the last frozen term
    incr = np.empty(n + 1)
    incr[0] = state.hv_pos + t * hist.hv[0] + t * fz.mean[0]
    incr[1:] = t * hv_const + t * np.append(fz.mean[1:], fz.mean[-1])
    mu_const = np.cumsum(incr)

    var_ext = np.append(fz.var, fz.var[-1])
    sigma_all = state.hv_pos_var + t * t * np.cumsum(var_ext)
    # positions one step ahead are fixed by the measured state, so gap
    # constraints cover the controllable stages k+2..k+N+1
    sigma = sigma_all[1:]
    if frozen is not None:
        bounds = tightened_min_gap(cfg.gap, sigma)
    else:
        bounds = np.full(n, cfg.gap.delta)

    e_lead = np.append(v0[0] - ref, v0[0] - ref[-1])
    dv = v0[1:] - v0[:-1]
    q_cost = st.lead_q @ e_lead + st.follow_q @ dv
    c0 = cfg.q1 * float(e_lead @ e_lead) + cfg.q2 * (n + 1) * float(dv @ dv)

    h_vec = np.concatenate([
        ((p0[:-1] - p0[1:])[:, None] + st.t_pos * (-dv)[:, None] - cfg.av_gap).ravel(),
        p0[-1] + st.t_pos * v0[-1] - mu_const[1:] - bounds,
        np.repeat(cfg.v_max - v0, n),
        np.repeat(v0 - cfg.v_min, n),
        st.h_acc,
    ])

    qp = QuadraticProgram(cost_matrix=st.cost_matrix, cost_vector=q_cost,
                          ineq_matrix=st.ineq_matrix, ineq_vector=h_vec)
    return CondensedQp(qp=qp, cfg=cfg, v0=v0, p0=p0, hv_const=hv_const,
                       hv_lin=st.hv_lin, mu_const=mu_const, mu_lin=st.mu_lin,
                       sigma=sigma, gap_bounds=bounds, cost_const=c0, structure=st)


class PlatoonController:
    """Stateful receding-horizon controller (nominal or GP mode).

    One instance is single-threaded: it keeps the previous solution for the
    frozen GP evaluation and reuses its active set to warm-start the next
    solve. The shared sparse GP model is only read.
    """

    def __init__(self, cfg: MpcConfig, mode: str = "nominal", gp_model=None,
                 arx: ArxParams | None = None, solver_tol: float = 1e-6):
        if mode not in ("nominal", "gp"):
            raise ValueError(f"unknown controller mode {mode!r}")
        if mode == "gp" and gp_model is None:
            raise ValueError("gp mode requires a trained sparse GP model")
        self.cfg = cfg
        self.mode = mode
        self.gp_model = gp_model
        self.arx = arx or ArxParams.default()
        self.solver_tol = solver_tol
        self.prev_solution: MpcSolution | None = None
        self.gp_batch_evals = 0
        self.fallback_count = 0

    def _frozen(self, state: PlatoonState) -> FrozenGpTrajectory | None:
        if self.mode == "nominal":
            return None
        prev = self.prev_solution if self.prev_solution is not None else state
        self.gp_batch_evals += 1
        return evaluate_gp_along_trajectory(self.gp_model, prev, self.cfg.horizon)

    def _fallback(self, state: PlatoonState, cd: CondensedQp, res) -> MpcSolution:
        self.fallback_count += 1
        self.prev_solution = None
        n, nav = self.cfg.horizon, self.cfg.n_av
        acc = np.full((nav, n), self.cfg.acc_min)
        _, av_vel, av_pos, hv_vel, mu = cd.decode(acc.ravel())
        pairs = _stage_pairs(state, hv_vel, av_vel[nav - 1], n)
        # the solver names the row it could not add (often an acceleration
        # bound); the braking plan names the constraint given up
        excess = cd.qp.ineq_matrix @ acc.ravel() - cd.qp.ineq_vector
        worst = int(np.argmax(excess))
        return MpcSolution(acc=acc, av_vel=av_vel, av_pos=av_pos, hv_vel=hv_vel,
                           hv_pos_mean=mu, hv_pos_var=cd.sigma,
                           gap_bounds=cd.gap_bounds, stage_pairs=pairs,
                           status=res.status, iterations=res.iterations,
                           solve_time=res.solve_time, cost=np.nan,
                           active=(), fallback=True,
                           violated=cd.structure.row_label(worst) if excess[worst] > 0
                           else "")

    def step(self, state: PlatoonState, v_ref):
        """One control step: returns (first-stage accelerations, solution)."""
        frozen = self._frozen(state)
        cd = condense(state, self.cfg, v_ref, frozen=frozen, arx=self.arx)
        hint = self.prev_solution.active if self.prev_solution is not None else None
        res = solve_qp(cd.qp, tol=self.solver_tol, active_hint=hint)
        if res.status != "optimal":
            sol = self._fallback(state, cd, res)
            return sol.acc[:, 0].copy(), sol
        acc, av_vel, av_pos, hv_vel, mu = cd.decode(res.x)
        pairs = _stage_pairs(state, hv_vel, av_vel[self.cfg.n_av - 1],
                             self.cfg.horizon)
        sol = MpcSolution(acc=acc, av_vel=av_vel, av_pos=av_pos, hv_vel=hv_vel,
                          hv_pos_mean=mu, hv_pos_var=cd.sigma,
                          gap_bounds=cd.gap_bounds, stage_pairs=pairs,
                          status=res.status, iterations=res.iterations,
                          solve_time=res.solve_time,
                          cost=cd.qp.objective(res.x) + cd.cost_const,
                          active=res.active, fallback=False)
        self.prev_solution = sol
        return acc[:, 0].copy(), sol


def _stage_pairs(state: PlatoonState, hv_vel, av_vel_last, horizon: int) -> np.ndarray:
    """GP anchor pairs of one solve: lag-1 and current measured pairs, then
    planned pairs through stage N-2."""
    pairs = np.empty((horizon, 2))
    pairs[0] = (state.history.hv[1], state.history.av[1])
    pairs[1] = (state.history.hv[0], state.history.av[0])
    if horizon > 2:
        pairs[2:, 0] = hv_vel[: horizon - 2]
        pairs[2:, 1] = av_vel_last[: horizon - 2]
    return pairs
