"""Receding-horizon platoon control as dense convex quadratic programs.

The horizon couples AV kinematics, the linear ARX chain of the HV, and the
HV position mean/variance propagation. GP terms are frozen along the
previous solution's trajectory (one sparse batch prediction per control
step), so every solve is a convex QP over the stacked AV accelerations.

Everything that does not depend on the measured state is built once per
``(cfg, arx)`` and cached: the cost matrix P, the constraint matrix G, the
matrices that decode a plan, and one sparse affine map from the step's
input vector (the state, the frozen GP terms and the reference) to every
vector the step needs: q, h without the gap bounds, the HV chain's constant
part, the position variances and the decode offsets. This is the
multi-parametric form of condensed MPC (Bemporad et al. 2002). The HV
chain is :func:`gpplatoon.hv.arx_step` applied to linear maps, and P and G
are Kronecker products of one AV's blocks with the platoon coupling. They
sit in one template :class:`~gpplatoon.qp.QuadraticProgram`, which checks
them and factors P once. A control step takes one product with the map,
subtracts the gap bounds from h and computes the cost constant; it
decodes one plan, the QP's solution or maximum braking when the solve
fails, with two more products.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .dynamics import GapConstraintParams, tightened_min_gap
from .hv import ArxParams, N_LAGS, VelocityHistory, arx_step
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
        for name, low in (("horizon", 2), ("n_av", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, "
                                 f"got {value!r}")
        for name in ("step", "q1", "q2", "r", "v_min", "v_max", "acc_min", "acc_max",
                     "av_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("q1", "q2", "r", "av_gap"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.step < 1:
            raise ValueError("step (the sample time) must lie in (0, 1)")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")
        if not self.acc_min < 0 < self.acc_max:
            raise ValueError("acc_min must be negative and acc_max positive")


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
        for name, value in (("av_pos", p), ("av_vel", v), ("hv_pos", self.hv_pos)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not (np.isfinite(self.hv_pos_var) and self.hv_pos_var >= 0):
            raise ValueError("hv_pos_var must be finite and non-negative")

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
        if not np.isfinite(m).all():
            raise ValueError("frozen mean must be finite")
        if not (np.isfinite(v).all() and (v >= 0).all()):
            raise ValueError("frozen var must be finite and non-negative")


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
        pairs = np.concatenate((prev.stage_pairs[1:], prev.stage_pairs[-1:]))
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
    entries j*N..j*N+N-1). ``qp`` is the template program: P, its factor and
    G, with zero vectors.

    Every state-dependent vector of a step is affine in one input vector

        z = [p0 (n_av), v0 (n_av), hv_pos, hv_pos_var, history.hv (4),
             history.av (4), frozen mean (N), frozen var (N), v_ref (N), 1]

    (75 entries at ``n_av=2, N=20``, 147 at ``n_av=8, N=40``; a nominal
    step's frozen terms are ``zero_frozen``). ``terms`` is the sparse map
    whose product with z stacks, in this order, the rows of

    - ``q_rows``: the cost vector q;
    - ``h_rows``: the right-hand sides h, before the AV-HV gap bounds are
      subtracted from their ``gap_rows``;
    - ``hv_rows``: ``hv_const`` (N), then ``mu_const`` (N+1);
    - ``av_rows``: per AV, v0 at each stage, then p0 + t v0 k for
      k = 1..N, the offsets of the decoded velocities and positions;
    - ``sigma_rows``: the HV position variances of the constrained stages;
    - ``cost_rows``: weighted residuals whose squared norm is the cost
      constant.

    Decoding adds ``acc @ av_decode`` and ``hv_decode @ x`` to the offsets.
    Every array is read-only and shared by all the :class:`CondensedQp`
    built from the same ``(cfg, arx)``.
    """

    cfg: MpcConfig
    qp: QuadraticProgram        # P (nd, nd) and G (rows, nd)
    terms: sparse.csr_array     # (rows, len(z)), the affine map of a step
    zero_frozen: np.ndarray     # (N,) zeros, a nominal step's frozen mean and variance
    q_rows: slice
    h_rows: slice
    gap_rows: slice             # the AV-HV gap rows of h, as rows of terms
    hv_rows: slice
    av_rows: slice              # (n_av, 2N) row-major
    sigma_rows: slice
    cost_rows: slice
    av_decode: np.ndarray       # (N, 2N), [t S' | t^2 W']: acc -> (velocities, positions)
    hv_decode: np.ndarray       # (2N+1, nd), [hv_lin; mu_lin]
    hv_lin: np.ndarray          # (N, nd), HV velocity chain in x, a view of hv_decode
    mu_lin: np.ndarray          # (N+1, nd), t * cumsum(hv_lin), a view of hv_decode

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
        raise IndexError(f"row {row} outside the {self.qp.ineq_vector.size} rows")


def _position_map(n: int) -> np.ndarray:
    """W with W[i, m] = max(i - m, 0): positions from accelerations."""
    i = np.arange(n)
    return np.maximum(i[:, None] - i, 0).astype(float)


@functools.lru_cache(maxsize=16)
def _structure(cfg: MpcConfig, arx_c: bytes, arx_b: bytes) -> _QpStructure:
    """Build the fixed part of the condensed QP; cached on its full key.

    The HV chain is :func:`arx_step` applied to linear maps: every velocity
    is a row over the inputs (history.hv, history.av, v0[last], trailing-AV
    accelerations). The cost and constraint matrices are Kronecker products
    of one AV's blocks with the platoon's coupling: S maps accelerations to
    velocities, W to positions, and row j of D is e_{j+1} - e_j, the
    difference between AV j+1 and the AV ahead of it.

    The per-step vectors are written once, in ``step_terms``, as formulas
    on the rows of a matrix whose rows stand for the entries of z; on the
    identity they give the map ``terms`` (the same idiom as the HV chain).
    """
    arx = ArxParams(c=np.frombuffer(arx_c), b=np.frombuffer(arx_b))
    n, nav, t = cfg.horizon, cfg.n_av, cfg.step
    nd, ns = nav * n, 2 * N_LAGS + 1
    last = (nav - 1) * n
    s_mat = np.tril(np.ones((n, n)))
    w_mat = _position_map(n)
    # velocities k+1..k+N plus the (N+1)-th stage, which under a zero-held
    # terminal input repeats the terminal velocity; positions k+2..k+N+1
    s_ext = t * s_mat[np.r_[:n, n - 1]]
    w_ext = _position_map(n + 1)[1:, :n]
    d = np.eye(nav - 1, nav, 1) - np.eye(nav - 1, nav)

    # HV and trailing-AV velocities as row maps over (history.hv, history.av,
    # v0[last], x), oldest first: the history, then the chain (hv row
    # N_LAGS-1+s is stage k+s) and the planned AV velocities k+1..k+N-1
    hv = np.zeros((N_LAGS + n, ns + nd))
    hv[:N_LAGS, :N_LAGS] = np.eye(N_LAGS)[::-1]
    av = np.zeros((N_LAGS + n - 1, ns + nd))
    av[:N_LAGS, N_LAGS:2 * N_LAGS] = np.eye(N_LAGS)[::-1]
    av[N_LAGS:, 2 * N_LAGS] = 1.0
    av[N_LAGS:, ns + last:] = t * s_mat[:n - 1]
    for s in range(n):
        hv[N_LAGS + s] = arx_step(arx, hv[s:s + N_LAGS][::-1], av[s:s + N_LAGS][::-1])
    hv_state = hv[N_LAGS:, :ns]
    # HV velocities k+1..k+N, then the position mean over stages k+1..k+N+1,
    # whose stage k+1 is fixed by the state
    hv_decode = np.zeros((2 * n + 1, nd))
    hv_decode[:n] = hv[N_LAGS:, ns:]
    np.cumsum(t * hv_decode[:n], axis=0, out=hv_decode[n + 1:])
    hv_decode.flags.writeable = False
    hv_lin, mu_lin = hv_decode[:n], hv_decode[n:]

    # cost: r |x|^2 + q1 |m_lead x + e_lead|^2 + q2 |m_follow x + dv (x) 1|^2
    # with m_lead = kron(e_0', S_ext) and m_follow = kron(D, S_ext), whose
    # Gram matrices follow from kron(A, B)' kron(A, B) = kron(A'A, B'B)
    coupling = 2.0 * cfg.q2 * d.T @ d
    coupling[0, 0] += 2.0 * cfg.q1
    p_cost = 2.0 * cfg.r * np.eye(nd) + np.kron(coupling, s_ext.T @ s_ext)
    lead_q = 2.0 * cfg.q1 * np.kron(np.eye(nav, 1), s_ext.T)
    follow_q = 2.0 * cfg.q2 * np.kron(d.T, s_ext.sum(axis=0)[:, None])

    # inequalities in row_label's order: AV-AV gaps, AV-HV gap, velocity
    # and acceleration boxes
    g_mat = np.zeros((last + n + 4 * nd, nd))
    g_mat[:last] = np.kron(d, t * t * w_ext)
    g_hv = g_mat[last:last + n]
    g_hv[:] = mu_lin[1:]
    g_hv[:, last:] -= t * t * w_ext
    box = last + n
    v_box = np.kron(np.eye(nav), t * s_mat)
    g_mat[box:box + nd] = v_box
    g_mat[box + nd:box + 2 * nd] = -v_box
    diag = np.arange(nd)
    g_mat[box + 2 * nd + diag, diag] = 1.0
    g_mat[box + 3 * nd + diag, diag] = -1.0

    t_pos = t * np.arange(2, n + 2)[:, None]    # the constrained position stages
    stages = t * np.arange(1, n + 1)[:, None]
    cuts = np.cumsum([nav, nav, 1, 1, N_LAGS, N_LAGS, n, n, n])

    def step_terms(z):
        """The stacked per-step vectors, one column per column of ``z``."""
        p0, v0, hv_pos, hv_var, hist_hv, hist_av, mean, var, ref, one = np.split(z, cuts)
        m = z.shape[1]
        hv_const = hv_state @ np.vstack([hist_hv, hist_av, v0[-1:]])
        # the first mean increment uses the measured velocity and the final
        # one repeats the last frozen term
        incr = np.vstack([hv_pos + t * hist_hv[:1] + t * mean[:1],
                          t * hv_const + t * np.vstack([mean[1:], mean[-1:]])])
        mu_const = np.cumsum(incr, axis=0)
        e_lead = np.vstack([v0[:1] - ref, v0[:1] - ref[-1:]])
        dv = v0[1:] - v0[:-1]
        q_cost = lead_q @ e_lead + follow_q @ dv
        h_vec = np.vstack([
            ((p0[:-1] - p0[1:])[:, None] - t_pos * dv[:, None]
             - cfg.av_gap * one).reshape(last, m),
            p0[-1:] + t_pos * v0[-1:] - mu_const[1:],
            np.repeat(cfg.v_max * one - v0, n, axis=0),
            np.repeat(v0 - cfg.v_min * one, n, axis=0),
            np.repeat(cfg.acc_max * one, nd, axis=0),
            np.repeat(-cfg.acc_min * one, nd, axis=0),
        ])
        av_offsets = np.hstack([np.repeat(v0[:, None], n, axis=1),
                                p0[:, None] + stages * v0[:, None]]).reshape(2 * nd, m)
        # position variances of the constrained stages k+2..k+N+1; the final
        # update repeats the last frozen term
        sigma = (hv_var + t * t * np.cumsum(np.vstack([var, var[-1:]]), axis=0))[1:]
        # squared norm: the cost constant q1 |e_lead|^2 + q2 (N+1) |dv|^2
        cost = np.vstack([math.sqrt(cfg.q1) * e_lead, math.sqrt(cfg.q2 * (n + 1)) * dv])
        return np.vstack([q_cost, h_vec, hv_const, mu_const, av_offsets, sigma, cost])

    terms = sparse.csr_array(step_terms(np.eye(cuts[-1] + 1)))
    for a in (terms.data, terms.indices, terms.indptr):
        a.flags.writeable = False
    rows = np.cumsum([0, nd, g_mat.shape[0], 2 * n + 1, 2 * nd, n, n + nav])
    q_rows, h_rows, hv_rows, av_rows, sigma_rows, cost_rows = map(slice, rows[:-1], rows[1:])
    av_decode = np.hstack([t * s_mat.T, t * t * w_mat.T])
    zero_frozen = np.zeros(n)
    for arr in (g_mat, av_decode, zero_frozen):
        arr.flags.writeable = False
    qp = QuadraticProgram(p_cost, np.zeros(nd), g_mat, np.zeros(g_mat.shape[0]))
    return _QpStructure(cfg=cfg, qp=qp, terms=terms, zero_frozen=zero_frozen, q_rows=q_rows,
                        h_rows=h_rows, gap_rows=slice(nd + last, nd + last + n),
                        hv_rows=hv_rows, av_rows=av_rows, sigma_rows=sigma_rows,
                        cost_rows=cost_rows, av_decode=av_decode, hv_decode=hv_decode,
                        hv_lin=hv_lin, mu_lin=mu_lin)


@dataclass(frozen=True)
class CondensedQp:
    """Dense QP plus the state-dependent vectors needed to decode a plan.

    ``terms`` is the step's product of the structure's affine map with its
    input vector z; q, h, ``hv_const``, ``mu_const`` and ``sigma`` are views
    of it, and :meth:`decode` reads its offsets.
    """

    qp: QuadraticProgram
    v0: np.ndarray
    p0: np.ndarray
    hv_const: np.ndarray
    mu_const: np.ndarray
    sigma: np.ndarray
    gap_bounds: np.ndarray
    cost_const: float
    structure: _QpStructure = field(repr=False)
    terms: np.ndarray = field(repr=False)

    def decode(self, x: np.ndarray):
        """Stage trajectories implied by a stacked acceleration vector:
        ``(acc, av_vel, av_pos, hv_vel, hv_pos_mean)``.

        Two products added to this step's offsets: ``acc @ [t S' | t^2 W']``
        gives the AVs' velocity and position increments, ``[hv_lin; mu_lin]
        @ x`` the HV's. The AV arrays are views of one array, and so are the
        HV's.
        """
        st = self.structure
        n = st.cfg.horizon
        acc = x.reshape(st.cfg.n_av, n)
        av = acc @ st.av_decode
        av += self.terms[st.av_rows].reshape(av.shape)
        hv = st.hv_decode @ x
        hv += self.terms[st.hv_rows]
        return acc, av[:, :n], av[:, n:], hv[:n], hv[n:-1]


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

    The cost and constraint matrices come from the template program cached
    per ``(cfg, arx)``. This call checks its inputs, stacks the input vector
    z (see :class:`_QpStructure`; a nominal step's frozen terms are zero)
    and takes one sparse product, of which q, h, ``hv_const``, ``mu_const``,
    ``sigma`` and the decode offsets are slices. Only the gap bounds, which
    it subtracts from h, and the cost constant are computed apart from it.
    """
    arx = arx or ArxParams.default()
    n = cfg.horizon
    if state.n_av != cfg.n_av:
        raise ValueError(f"state has {state.n_av} AVs but config expects {cfg.n_av}")
    ref = np.asarray(v_ref, dtype=float)
    if ref.shape != (n,):
        raise ValueError(f"v_ref must supply {n} stages, got {ref.shape}")
    if not np.isfinite(ref).all():
        raise ValueError("v_ref must be finite")
    if frozen is not None and frozen.mean.size != n:
        raise ValueError(f"frozen trajectory must supply {n} stages")
    st = _structure(cfg, arx.c.tobytes(), arx.b.tobytes())
    v0, p0 = state.av_vel, state.av_pos
    hist = state.history
    fz = (st.zero_frozen, st.zero_frozen) if frozen is None else (frozen.mean, frozen.var)
    out = st.terms @ np.concatenate((p0, v0, (state.hv_pos, state.hv_pos_var), hist.hv,
                                     hist.av, *fz, ref, (1.0,)))
    sigma = out[st.sigma_rows]
    bounds = (np.full(n, cfg.gap.delta) if frozen is None
              else tightened_min_gap(cfg.gap, sigma))
    out[st.gap_rows] -= bounds
    residual = out[st.cost_rows]
    hv = out[st.hv_rows]
    return CondensedQp(qp=st.qp.with_vectors(out[st.q_rows], out[st.h_rows]), v0=v0, p0=p0,
                       hv_const=hv[:n], mu_const=hv[n:], sigma=sigma, gap_bounds=bounds,
                       cost_const=float(residual @ residual), structure=st, terms=out)


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

    def step(self, state: PlatoonState, v_ref):
        """One control step: returns (first-stage accelerations, solution).

        A failed solve is a fallback: the plan is maximum braking for every
        AV, and the next step starts without a previous plan.
        """
        cfg = self.cfg
        frozen = None
        if self.mode == "gp":
            prev = self.prev_solution if self.prev_solution is not None else state
            self.gp_batch_evals += 1
            frozen = evaluate_gp_along_trajectory(self.gp_model, prev, cfg.horizon)
        cd = condense(state, cfg, v_ref, frozen=frozen, arx=self.arx)
        hint = self.prev_solution.active if self.prev_solution is not None else None
        res = solve_qp(cd.qp, tol=self.solver_tol, active_hint=hint)
        fallback = res.status != "optimal"
        x = np.full(cd.qp.n, cfg.acc_min) if fallback else res.x
        violated = ""
        if fallback:
            self.fallback_count += 1
            # the solver names the row it could not add (often an acceleration
            # bound); the braking plan names the constraint given up
            excess = cd.qp.ineq_excess(x)
            worst = int(np.argmax(excess))
            if excess[worst] > 0:
                violated = cd.structure.row_label(worst)
        acc, av_vel, av_pos, hv_vel, mu = cd.decode(x)
        sol = MpcSolution(acc=acc, av_vel=av_vel, av_pos=av_pos, hv_vel=hv_vel,
                          hv_pos_mean=mu, hv_pos_var=cd.sigma, gap_bounds=cd.gap_bounds,
                          stage_pairs=_stage_pairs(state, hv_vel, av_vel[-1], cfg.horizon),
                          status=res.status, iterations=res.iterations,
                          solve_time=res.solve_time,
                          cost=np.nan if fallback else res.objective + cd.cost_const,
                          active=() if fallback else res.active, fallback=fallback,
                          violated=violated)
        self.prev_solution = None if fallback else sol
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
