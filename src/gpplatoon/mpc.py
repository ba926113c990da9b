"""Receding-horizon platoon control as convex quadratic programs.

The horizon couples AV kinematics, the linear ARX chain of the HV, and the
HV position mean/variance propagation. GP terms are frozen along the
previous solution's trajectory (one sparse batch prediction per control
step), so every solve is a convex QP over the stacked AV accelerations x.

Everything that does not depend on the measured state is built once per
``(cfg, arx)``, cached on those two values and passed to :func:`condense`
as its one source of both. Every law of the horizon (the AV velocities and
positions, the HV position mean and variance, the constraints, the cost
residuals and the decoded trajectories) is written once, as a function that
is linear in w = [z; x], where z is the step's input (the state, the frozen
GP terms, the reference and a constant 1). Evaluated on the identity over
x, a few columns at a time, the laws give the constraint matrix G (in
sparse form only), the cost matrix P and the matrices that decode a plan.
Evaluated on the identity over z, they give one sparse affine map from z
to every vector the step needs: h without the gap bounds, the HV chain's
constant part, the position variances, the decode offsets, the cost
residuals and, through the residuals' x-half, the cost vector q. This is
the multi-parametric form of condensed MPC (Bemporad et al. 2002). The HV
chain is :func:`gpplatoon.hv.arx_step` applied to linear maps. P and G sit
in one :class:`~gpplatoon.qp.QuadraticProgram`, which checks them, with
P's factor built once: by Cholesky for small horizons, and above
``KRONECKER_CROSSOVER`` variables from P's Kronecker structure, so large
templates never form an n x n factor. A control step takes one product
with the map, subtracts the gap bounds from h and computes the cost
constant; it decodes one plan, the QP's solution or maximum braking when
the solve fails, with two more products.
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
from .qp import ActiveRows, KroneckerFactor, QuadraticProgram, check_tol, solve_qp, spmv, to_csr


@dataclass(frozen=True)
class MpcConfig:
    """Horizon, weights, bounds and gap parameters of the platoon MPC.

    Construction checks every field and names the first bad one in a
    ``ValueError``; ``gap`` must be a :class:`GapConstraintParams`.
    """

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
        default_factory=lambda: GapConstraintParams(delta=10.0, p_def=0.95))
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
        if not isinstance(self.gap, GapConstraintParams):
            raise ValueError(f"gap must be a GapConstraintParams, got {self.gap!r}")


@dataclass(frozen=True)
class PlatoonState:
    """Measured platoon state: AV kinematics, the HV position and the
    velocity history of the HV and the trailing AV."""

    av_pos: np.ndarray
    av_vel: np.ndarray
    hv_pos: float
    history: VelocityHistory

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
    """One step's plan with its predicted trajectories and solver diagnostics.

    ``active`` is the QP solution's: on an optimal step the solver's
    :class:`~gpplatoon.qp.ActiveRows` token. On a fallback the plan is
    maximum braking, ``cost`` is NaN and ``active`` is empty; the controller
    still passes that solve's token on as the next hint.
    """

    acc: np.ndarray             # (n_av, N)
    av_vel: np.ndarray          # (n_av, N), stages k+1..k+N
    av_pos: np.ndarray          # (n_av, N)
    hv_vel: np.ndarray          # (N,), ARX chain stages k+1..k+N
    hv_pos_mean: np.ndarray     # (N,), stages k+1..k+N
    hv_pos_var: np.ndarray      # (N,), constrained stages k+2..k+N+1
    gap_bounds: np.ndarray      # (N,), AV-HV bounds at stages k+2..k+N+1
    status: str
    iterations: int
    solve_time: float
    cost: float
    active: tuple = ()
    fallback: bool = False
    violated: str = ""          # on a fallback, the row the braking plan violates most


def evaluate_gp_along_trajectory(gp, pairs) -> FrozenGpTrajectory:
    """Freeze GP terms at one solve's query pairs (one batch prediction).

    ``pairs`` (N, 2) holds one (HV velocity, trailing-AV velocity) pair per
    stage; :class:`PlatoonController` keeps them from step to step. The
    frozen variances carry the model's learned noise variance on top of the
    latent GP variance, so the propagated position uncertainty covers
    realized one-step velocity scatter, not just correction-function
    uncertainty.
    """
    mean, var = gp.predict_batch(pairs)
    return FrozenGpTrajectory(mean=mean, var=var + gp.hyper.noise_variance)


# the inequality blocks, in the row order of G and h
_CONSTRAINTS = ("av_gap", "hv_gap", "v_max", "v_min", "acc_max", "acc_min")


@dataclass(frozen=True)
class _QpStructure:
    """The parts of a condensed horizon that depend only on ``(cfg, arx)``.

    The decision vector x stacks AV accelerations block by block (AV j holds
    entries j*N..j*N+N-1), and a step's input is one vector

        z = [p0 (n_av), v0 (n_av), hv_pos, history.hv (4), history.av (4),
             frozen mean (N), frozen var (N), v_ref (N), 1]

    (74 entries at ``n_av=2, N=20``, 146 at ``n_av=8, N=40``; a nominal
    step's frozen terms are ``zero_frozen``). Every law of the horizon is
    linear in w = [z; x] and written once, as a named block of rows, in
    ``_structure``'s ``laws``: the constraints of ``_CONSTRAINTS``, each
    non-negative where it holds (``hv_gap`` before the gap bounds), the
    decoded trajectories ``av_vel``, ``av_pos`` and ``hv`` (HV velocities,
    then position means), the position variances ``sigma`` and the cost
    residuals ``cost``. ``terms`` maps z to the z-half of every block, then
    to the cost vector ``q`` = 2 R_x'R_z z, where R_x and R_z are the two
    halves of the residuals; ``rows`` names each block's rows of ``terms``
    (``h`` spans the constraints, ``av`` both AV trajectories) and
    ``shapes`` its shape, stages last. The x-half of the constraints is -G,
    P = 2 R_x'R_x + 2r I, and the x-halves of the trajectories are
    ``av_decode`` (AV 0's blocks, the same for every AV) and ``hv_decode``.
    The HV chain reads only the trailing AV's velocities, so the HV block's
    x-half is zero outside that AV's N columns; ``hv_decode`` is those
    columns, (2N+1, N), and the build checks that the rest are zero.
    ``qp`` is the template program: P, its factor and G, with zero vectors.
    The factor is a Cholesky :class:`~gpplatoon.qp.TriangularFactor` up to
    ``KRONECKER_CROSSOVER`` variables and a
    :class:`~gpplatoon.qp.KroneckerFactor` built from ``cfg`` above it
    (see :func:`_kronecker_factor`); P itself is kept either way, for
    :meth:`~gpplatoon.qp.QuadraticProgram.objective` and residual checks.
    Every array is read-only and shared by all the :class:`CondensedQp`
    built from the same ``(cfg, arx)``.
    """

    cfg: MpcConfig
    qp: QuadraticProgram        # P (nd, nd) and G (rows, nd), G in CSR form
    terms: sparse.csr_array     # (rows, len(z)), the affine map of a step
    zero_frozen: np.ndarray     # (N,) zeros, a nominal step's frozen mean and variance
    rows: dict                  # block name -> slice of terms
    shapes: dict                # block name -> shape
    av_decode: np.ndarray       # (2, N, N): one AV's acc -> velocities, positions
    hv_decode: np.ndarray       # (2N+1, N): trailing AV's acc -> (HV velocities, position means)

    def row_label(self, row: int) -> str:
        """Name of inequality row ``row``, e.g. ``av_gap[j,k]`` or ``hv_gap[k]``.

        ``j`` is the AV (the follower for ``av_gap``) and ``k`` the row's
        stage within its horizon block, counted from 0.
        """
        for name in _CONSTRAINTS:
            rows, shape = self.rows[name], self.shapes[name]
            if rows.start <= row < rows.stop:
                *j, k = np.unravel_index(row - rows.start, shape)
                # the av_gap block has no row for the leader
                return f"{name}[{k}]" if not j else \
                    f"{name}[{j[0] + self.cfg.n_av - shape[0]},{k}]"
        raise IndexError(f"row {row} outside the {self.qp.ineq_vector.size} rows")


def _horizon_laws(cfg: MpcConfig, arx: ArxParams):
    """``(laws, nz)``: the laws of the horizon of ``(cfg, arx)`` and the
    length of z. ``laws(w)`` yields ``(name, block)`` for every law at the
    columns of w, whose rows stand for the entries of [z; x], in row
    order. Every law is linear, and each column of a block is computed from
    the same column of w alone, so the laws can be evaluated on any set of
    columns of the identity and agree bit for bit."""
    n, nav, t = cfg.horizon, cfg.n_av, cfg.step
    nd, ns = nav * n, 2 * N_LAGS + 1
    cuts = np.cumsum([nav, nav, 1, N_LAGS, N_LAGS, n, n, n, 1])

    def integrate(step, first, *rates):
        """Forward-Euler stages from ``first``, on the second-to-last axis."""
        seq = np.concatenate((first, *rates), axis=-2)
        seq[..., 1:, :] *= step
        return np.cumsum(seq, axis=-2, out=seq)

    # HV and trailing-AV velocities as row maps over (history.hv, history.av,
    # v0[last], x), oldest first: the history, then the chain (hv row
    # N_LAGS-1+s is stage k+s) and the planned AV velocities k+1..k+N-1. The
    # chain is built on these maps rather than inside laws: the near-marginal
    # ARX recursion amplifies the last-bit differences of other column sets.
    hv = np.zeros((N_LAGS + n, ns + nd))
    hv[:N_LAGS, :N_LAGS] = np.eye(N_LAGS)[::-1]
    av = np.zeros((N_LAGS + n - 1, ns + nd))
    av[:N_LAGS, N_LAGS:2 * N_LAGS] = np.eye(N_LAGS)[::-1]
    av[N_LAGS:] = integrate(t, np.eye(1, ns + nd, 2 * N_LAGS),
                            np.eye(n - 1, ns + nd, ns + nd - n))[1:]
    for s in range(n):
        hv[N_LAGS + s] = arx_step(arx, hv[s:s + N_LAGS][::-1], av[s:s + N_LAGS][::-1])
    chain = hv[N_LAGS:]

    def laws(w):
        p0, v0, hv_pos, hist_hv, hist_av, mean, var, ref, one, x = np.split(w, cuts)
        acc = x.reshape(nav, n, -1)
        # stages k..k+N+1, the input held at zero after the horizon and each
        # position taken from the velocity before the update
        v = integrate(t, v0[:, None], acc, 0 * v0[:, None])
        p = integrate(t, p0[:, None], v[:, :-1])
        vel, pos = v[:, 1:-1], p[:, 2:]     # positions are constrained at k+2..k+N+1
        hv_vel = chain[:, :ns] @ np.vstack((hist_hv, hist_av, v0[-1:])) + chain[:, ns:] @ x
        # means of stages k+1..k+N+1, the first from the measured velocity; the
        # last mean and variance updates repeat the final frozen terms
        mu = integrate(t, hv_pos + t * hist_hv[:1] + t * mean[:1],
                       hv_vel + np.vstack((mean[1:], mean[-1:])))
        yield "av_gap", pos[:-1] - pos[1:] - cfg.av_gap * one
        yield "hv_gap", pos[-1] - mu[1:]
        yield "v_max", cfg.v_max * one - vel
        yield "v_min", vel - cfg.v_min * one
        yield "acc_max", cfg.acc_max * one - acc
        yield "acc_min", acc - cfg.acc_min * one
        yield "av_vel", vel
        yield "av_pos", p[:, 1:-1]
        yield "hv", np.vstack((hv_vel, mu))
        # variances of stages k+2..k+N+1, from zero at the measured stage k
        yield "sigma", integrate(t * t, 0 * var[:1], var, var[-1:])[2:]
        # leader tracking and follower velocity matching through stage k+N+1
        yield "cost", np.concatenate((math.sqrt(cfg.q1) * (v[:1, 1:] - np.vstack((ref, ref[-1:]))),
                                      math.sqrt(cfg.q2) * np.diff(v[:, 1:], axis=0)))

    return laws, int(cuts[-1])


# Templates with more decision variables than this factor their cost matrix
# through its Kronecker structure (see _kronecker_factor), the others by
# Cholesky. Below it, the Python overhead of the Kronecker factor's small
# products costs more than one small dense product. Measured in the closed
# loop (nominal, 10 s of emergency with plant noise, seed 1, one BLAS
# thread, 2-core Xeon), as the ratio of the medians of 4-6 alternating runs'
# step-time p50, Kronecker over Cholesky: 2x20 1.10, 4x20 1.08, 6x20 1.04,
# 4x40 1.04, 8x20 1.02, 5x40 0.96, 10x20 0.95, 6x40 0.82, 12x20 0.90 and
# 8x40 0.73, with the same statuses and iteration counts at every size.
KRONECKER_CROSSOVER = 160


def _kronecker_factor(cfg: MpcConfig) -> KroneckerFactor:
    """The factor of P = 2 (D^T D) (x) (t^2 M^T M) + 2r I, built from ``cfg``
    alone. The cost residuals are D (x) (t M) applied to x: D (n_av x n_av)
    has the leader's row sqrt(q1) e_0 and the rows sqrt(q2) (e_j - e_(j-1))
    of adjacent AVs, and M ((N+1) x N) maps accelerations to the velocity
    increments of stages k+1..k+N+1, the last held."""
    nav, n = cfg.n_av, cfg.horizon
    d = math.sqrt(cfg.q2) * (np.eye(nav) - np.eye(nav, k=-1))
    d[0, 0] = math.sqrt(cfg.q1)
    m = cfg.step * np.tri(n + 1, n)
    return KroneckerFactor(2.0 * (d.T @ d), m.T @ m, 2.0 * cfg.r)


@functools.lru_cache(maxsize=16)
def _structure(cfg: MpcConfig, arx: ArxParams) -> _QpStructure:
    """The template of ``(cfg, arx)``, cached on the two values; pass both
    positionally, as the cache keys a keyword call apart.

    The laws (see :func:`_horizon_laws`) are evaluated on the identity over
    z, each block made sparse as it comes, then on the identity over x one
    AV's N columns at a time: each chunk's constraint blocks go straight
    into G's nonzeros, and its cost residuals and decode blocks into their
    columns. G is never dense: at ``n_av=16, N=80`` a dense G would take
    62.5 MB, its CSR form takes 2.4 MB, and the build's traced peak is
    47 MB.

    Above ``KRONECKER_CROSSOVER`` variables P's factor comes from ``cfg``
    alone, and the build checks it against the laws: on three probe
    vectors its P v must equal 2 R_x'(R_x v) + 2r v to 1e-12 relative, or
    it raises ``AssertionError``, so a cost law the Kronecker form does not
    model fails here instead of solving another program.
    """
    n, nav = cfg.horizon, cfg.n_av
    nd = nav * n
    laws, nz = _horizon_laws(cfg, arx)
    shapes, z_half = {}, {}
    for name, block in laws(np.eye(nz + nd, nz)):
        shapes[name] = block.shape[:-1]
        z_half[name] = to_csr(block.reshape(-1, nz))
    ends = np.cumsum([math.prod(s) for s in shapes.values()] + [nd]).tolist()
    rows = dict(zip([*shapes, "q"], map(slice, [0, *ends[:-1]], ends)))
    rows.update(h=slice(0, rows[_CONSTRAINTS[-1]].stop),
                av=slice(rows["av_vel"].start, rows["av_pos"].stop))
    r_x = np.empty((math.prod(shapes["cost"]), nd))
    g_cols = []     # G's columns, one AV's N at a time
    for j in range(nav):
        x_half = dict(laws(np.eye(nz + nd, n, -nz - j * n)))
        g_cols.append(to_csr(-np.concatenate([x_half[name].reshape(-1, n)
                                              for name in _CONSTRAINTS])))
        r_x[:, j * n:(j + 1) * n] = x_half["cost"].reshape(-1, n)
        if j == 0:
            av_decode = np.stack((x_half["av_vel"][0].T, x_half["av_pos"][0].T))
        # the HV chain reads the trailing AV's velocities alone, so its decode
        # keeps only that AV's acceleration columns
        if j < nav - 1 and x_half["hv"].any():
            raise AssertionError("the HV chain depends on an AV other than the last")
    hv_decode = np.ascontiguousarray(x_half["hv"])
    del x_half
    g_mat = sparse.hstack(g_cols, format="csr")
    del g_cols
    p_cost = r_x.T @ r_x
    p_cost *= 2.0
    p_cost.flat[::nd + 1] += 2.0 * cfg.r
    factor = None
    if nd > KRONECKER_CROSSOVER:
        factor = _kronecker_factor(cfg)
        probe = np.random.default_rng(0).standard_normal((nd, 3))
        want = 2.0 * (r_x.T @ (r_x @ probe)) + 2.0 * cfg.r * probe
        got = np.column_stack([factor.cost(v) for v in probe.T])
        if not np.abs(got - want).max() <= 1e-12 * np.abs(want).max():
            raise AssertionError("the cost matrix is not the Kronecker form of its laws")
    terms = sparse.vstack((*z_half.values(), to_csr(2.0 * (r_x.T @ z_half["cost"]))), format="csr")
    del r_x, z_half     # before the program's factor, which can then reuse the memory
    zero_frozen = np.zeros(n)
    for arr in (av_decode, hv_decode, zero_frozen, terms.data, terms.indices, terms.indptr):
        arr.flags.writeable = False
    qp = QuadraticProgram(p_cost, np.zeros(nd), g_mat, np.zeros(g_mat.shape[0]), factor)
    return _QpStructure(cfg=cfg, qp=qp, terms=terms, zero_frozen=zero_frozen, rows=rows,
                        shapes=shapes, av_decode=av_decode, hv_decode=hv_decode)


@dataclass(frozen=True)
class CondensedQp:
    """One step's QP plus the state-dependent vectors needed to decode a plan.

    ``structure`` is its template, and ``terms`` the step's product of the
    template's affine map with its input vector z: ``sigma`` is a view of
    it, ``qp`` holds copies of its q and h, and :meth:`decode` reads its
    offsets.
    """

    qp: QuadraticProgram
    sigma: np.ndarray
    gap_bounds: np.ndarray
    cost_const: float
    structure: _QpStructure = field(repr=False)
    terms: np.ndarray = field(repr=False)

    def decode(self, x: np.ndarray):
        """Stage trajectories implied by a stacked acceleration vector:
        ``(acc, av_vel, av_pos, hv_vel, hv_pos_mean)``.

        Two products added to this step's offsets: ``acc @ av_decode`` gives
        the AVs' velocity and position increments, ``hv_decode @ acc[-1]``
        the HV's, which depend on the trailing AV's accelerations alone. The
        AV arrays are views of one array, and so are the HV's.
        """
        st = self.structure
        n = st.cfg.horizon
        acc = x.reshape(st.cfg.n_av, n)
        av = acc @ st.av_decode
        av += self.terms[st.rows["av"]].reshape(av.shape)
        hv = st.hv_decode @ acc[-1]
        hv += self.terms[st.rows["hv"]]
        return acc, av[0], av[1], hv[:n], hv[n:-1]


def condense(template: _QpStructure, state: PlatoonState, v_ref,
             frozen: FrozenGpTrajectory | None = None) -> CondensedQp:
    """Reduce one horizon to a QP over stacked AV accelerations.

    With ``frozen`` set, the HV mean chain gains the frozen correction means,
    the position variance accumulates the frozen variances, and the AV-HV
    gap bound is tightened accordingly; without it the nominal fixed-gap
    program is produced. Position constraints cover stages k+2..k+N+1: the
    one-step-ahead positions are fixed by the measured state, so
    constraining them adds no control authority and an unavoidable
    millimetre incursion there would falsely mark the program infeasible.

    ``template`` (see :class:`_QpStructure`) is the one source of the
    configuration, the ARX model and the cost and constraint matrices. This
    call checks its inputs, stacks the input vector z (a nominal step's
    frozen terms are zero) and takes one sparse product, through the CSR
    kernel that ``ineq_excess`` also calls (``qp.spmv``), of which q, h,
    ``sigma``, the decode offsets and the cost residuals are slices. Only
    the gap bounds, which it subtracts from h, and the cost constant, the
    residuals' squared norm, are computed apart from it.
    """
    st, cfg = template, template.cfg
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
    hist = state.history
    fz = (st.zero_frozen, st.zero_frozen) if frozen is None else (frozen.mean, frozen.var)
    out = spmv(st.terms, np.concatenate((state.av_pos, state.av_vel, (state.hv_pos,),
                                         hist.hv, hist.av, *fz, ref, (1.0,))))
    rows = st.rows
    sigma = out[rows["sigma"]]
    bounds = (np.full(n, cfg.gap.delta) if frozen is None
              else tightened_min_gap(cfg.gap, sigma))
    out[rows["hv_gap"]] -= bounds
    residual = out[rows["cost"]]
    return CondensedQp(qp=st.qp.with_vectors(out[rows["q"]], out[rows["h"]]),
                       sigma=sigma, gap_bounds=bounds,
                       cost_const=float(residual @ residual), structure=st, terms=out)


class PlatoonController:
    """Stateful receding-horizon controller (nominal or GP mode).

    One instance is single-threaded. It keeps the last solve's
    :class:`~gpplatoon.qp.ActiveRows` token (``active``) and passes it as
    the next solve's hint, after a fallback too: unless another solve of the
    same template came in between, the next solve resumes in place from the
    rows the last one ended on, an optimum's or an infeasibility
    certificate's; after a ``max_iter`` solve, whose token carries no state,
    it starts cold. In GP mode it also keeps the GP query pairs of the next
    solve (``gp_pairs``), taken from the last optimal plan. The shared
    sparse GP model is only read. The template of ``(cfg, arx)``, the
    default ARX model if ``arx`` is None, is looked up once, at construction
    (built there if no controller of an equal configuration came before),
    and every step condenses through it.
    ``solver_tol`` must be finite and positive (``ValueError``).
    """

    def __init__(self, cfg: MpcConfig, mode: str = "nominal", gp_model=None,
                 arx: ArxParams | None = None, solver_tol: float = 1e-6):
        if mode not in ("nominal", "gp"):
            raise ValueError(f"unknown controller mode {mode!r}")
        if mode == "gp" and gp_model is None:
            raise ValueError("gp mode requires a trained sparse GP model")
        self.solver_tol = check_tol(solver_tol)
        self.cfg = cfg
        self.mode = mode
        self.gp_model = gp_model
        self.structure = _structure(cfg, arx or ArxParams.default())
        self.active: ActiveRows | None = None
        self.gp_pairs: np.ndarray | None = None

    def step(self, state: PlatoonState, v_ref):
        """One control step: returns (first-stage accelerations, solution).

        In GP mode the GP terms are frozen at ``gp_pairs``, or at the
        measured current pair on every stage when there is no previous
        plan. An optimal step sets the next solve's pairs: the measured
        current pair, then this plan's (HV velocity, trailing-AV velocity)
        pairs of stages k+1..k+N-2, the last repeated. A failed solve is a
        fallback: the plan is maximum braking for every AV, and the next
        step's GP terms start without a previous plan, while its solve is
        still hinted with the failed solve's token.
        """
        cfg = self.cfg
        n = cfg.horizon
        frozen = None
        if self.mode == "gp":
            current = (state.history.hv[0], state.history.av[0])
            pairs = self.gp_pairs if self.gp_pairs is not None else np.full((n, 2), current)
            frozen = evaluate_gp_along_trajectory(self.gp_model, pairs)
        cd = condense(self.structure, state, v_ref, frozen)
        res = solve_qp(cd.qp, tol=self.solver_tol, active_hint=self.active)
        self.active = res.active
        fallback = res.status != "optimal"
        x = np.full(cd.qp.n, cfg.acc_min) if fallback else res.x
        violated = ""
        if fallback:
            # the solver names the row it could not add (often an acceleration
            # bound); the braking plan names the constraint given up
            excess = cd.qp.ineq_excess(x)
            worst = int(np.argmax(excess))
            if excess[worst] > 0:
                violated = cd.structure.row_label(worst)
        acc, av_vel, av_pos, hv_vel, mu = cd.decode(x)
        sol = MpcSolution(acc=acc, av_vel=av_vel, av_pos=av_pos, hv_vel=hv_vel,
                          hv_pos_mean=mu, hv_pos_var=cd.sigma, gap_bounds=cd.gap_bounds,
                          status=res.status, iterations=res.iterations,
                          solve_time=res.solve_time,
                          cost=np.nan if fallback else res.objective + cd.cost_const,
                          active=() if fallback else res.active, fallback=fallback,
                          violated=violated)
        if self.mode == "gp" and not fallback:
            pairs = np.empty((n, 2))
            pairs[0] = current
            pairs[1:-1, 0] = hv_vel[:n - 2]
            pairs[1:-1, 1] = av_vel[-1, :n - 2]
            pairs[-1] = pairs[-2]
            self.gp_pairs = pairs
        else:
            self.gp_pairs = None
        return acc[:, 0].copy(), sol
