import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from gpplatoon import mpc
from gpplatoon import qp as qp_module
from gpplatoon.dynamics import tightened_min_gap
from gpplatoon.gp import Dataset, KernelHyper, SparseGpModel
from gpplatoon.hv import ArxParams, VelocityHistory, arx_step
from gpplatoon.mpc import (
    FrozenGpTrajectory,
    MpcConfig,
    PlatoonController,
    PlatoonState,
    condense,
    evaluate_gp_along_trajectory,
)
from gpplatoon.qp import solve_qp
from gpplatoon.sim import make_scenario, run_closed_loop
from oracles import (
    AvState,
    av_step,
    constant_history,
    propagate_hv_mean,
    propagate_hv_variance,
    token_with_active_rows,
)


def _state(n_av=2, spacing=12.0, v=0.0, hv_gap=12.0):
    pos = -spacing * np.arange(n_av, dtype=float)
    return PlatoonState(
        av_pos=pos,
        av_vel=np.full(n_av, float(v)),
        hv_pos=float(pos[-1] - hv_gap),
        history=constant_history(v, v),
    )


def _condense(state, cfg, v_ref, frozen=None, arx=None):
    """condense through the cached template of (cfg, arx), the default ARX
    model if arx is None."""
    return condense(mpc._structure(cfg, arx or ArxParams.default()), state, v_ref, frozen)


def _hv_offsets(cd):
    """The HV velocities and position means of a zero plan, from terms."""
    hv = cd.terms[cd.structure.rows["hv"]]
    n = cd.structure.cfg.horizon
    return hv[:n], hv[n:]


def _tiny_sparse_gp(targets=None, nv=1e-6):
    inputs = np.array([[5.0, 5.0], [10.0, 10.0], [15.0, 15.0], [20.0, 20.0]])
    targets = np.zeros(4) if targets is None else np.asarray(targets, dtype=float)
    h = KernelHyper(signal_variance=0.05, length_scales=np.array([30.0, 30.0]),
                    noise_variance=nv)
    return SparseGpModel.from_inducing(Dataset(inputs=inputs, targets=targets), h, inputs)


class _RecordingGp:
    """A sparse GP that keeps a copy of every batch of query pairs."""

    def __init__(self, inner):
        self.inner = inner
        self.hyper = inner.hyper
        self.queries = []

    def predict_batch(self, xs):
        self.queries.append(np.array(xs, copy=True))
        return self.inner.predict_batch(xs)


# distinct lags, so the GP query pairs show which vehicle and lag they hold
_LAGGED = VelocityHistory(hv=np.array([9.0, 8.0, 7.0, 6.0]), av=np.array([10.0, 9.0, 8.0, 7.0]))


def _lagged_state():
    return PlatoonState(av_pos=np.array([0.0, -12.0]), av_vel=np.array([10.0, 10.0]),
                        hv_pos=-24.0, history=_LAGGED)


# ---------------------------------------------------------------------------
# frozen GP trajectories
# ---------------------------------------------------------------------------


def test_frozen_from_state_replicates_measured_pair():
    # with no previous plan, a GP step freezes every stage at the measured
    # current (HV, trailing AV) pair, the newest entry of the history
    gp = _RecordingGp(_tiny_sparse_gp(nv=0.01))
    cfg = MpcConfig(horizon=6)
    ctrl = PlatoonController(cfg, mode="gp", gp_model=gp)
    assert ctrl.gp_pairs is None
    _, sol = ctrl.step(_lagged_state(), np.full(6, 10.0))
    assert sol.status == "optimal"
    np.testing.assert_array_equal(gp.queries[0], np.tile([9.0, 10.0], (6, 1)))
    (_, ), (var, ) = gp.inner.predict_batch(np.array([[9.0, 10.0]]))
    # constrained stages k+2..k+N+1 accumulate j+2 equal terms
    expected = cfg.step ** 2 * (var + 0.01) * np.arange(2, 8)
    np.testing.assert_allclose(sol.hv_pos_var, expected, rtol=1e-12, atol=0)


def test_frozen_zero_posterior_gp():
    gp = _tiny_sparse_gp(targets=np.zeros(4))
    fz = evaluate_gp_along_trajectory(gp, np.tile([10.0, 10.0], (5, 1)))
    np.testing.assert_allclose(fz.mean, 0.0, atol=1e-9)
    assert np.all(fz.var >= 0.0)


def test_frozen_shift_property():
    # an optimal GP step keeps the next solve's pairs, and the next step
    # freezes its GP terms there, in one batch prediction
    gp = _RecordingGp(_tiny_sparse_gp(targets=np.array([0.1, -0.2, 0.3, 0.0])))
    n = 5
    ctrl = PlatoonController(MpcConfig(horizon=n), mode="gp", gp_model=gp)
    state = _state(v=8.0)
    _, sol = ctrl.step(state, np.full(n, 8.0))
    assert sol.status == "optimal"
    pairs = ctrl.gp_pairs.copy()
    _, sol = ctrl.step(state, np.full(n, 8.0))
    assert len(gp.queries) == 2
    np.testing.assert_array_equal(gp.queries[1], pairs)
    fz = evaluate_gp_along_trajectory(gp.inner, pairs)
    mean, var = gp.inner.predict_batch(pairs)
    np.testing.assert_array_equal(fz.mean, mean)
    np.testing.assert_array_equal(fz.var, var + gp.hyper.noise_variance)


def test_frozen_includes_noise_variance_by_default():
    gp = _tiny_sparse_gp(nv=0.04)
    pairs = np.tile([10.0, 10.0], (4, 1))
    with_noise = evaluate_gp_along_trajectory(gp, pairs)
    _, latent = gp.predict_batch(pairs)
    np.testing.assert_allclose(with_noise.var, latent + 0.04, atol=1e-12)


def test_frozen_validation():
    with pytest.raises(ValueError):
        FrozenGpTrajectory(mean=np.zeros(3), var=np.array([0.0, -1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mean"):
            FrozenGpTrajectory(mean=np.array([0.0, bad, 0.0]), var=np.zeros(3))
        with pytest.raises(ValueError, match="var"):
            FrozenGpTrajectory(mean=np.zeros(3), var=np.array([0.0, bad, 0.0]))


# ---------------------------------------------------------------------------
# QP construction
# ---------------------------------------------------------------------------


def test_nominal_row_count():
    for n_av in (1, 2, 3):
        cfg = MpcConfig(horizon=7, n_av=n_av)
        qp = _condense(_state(n_av=n_av), cfg, np.zeros(7)).qp
        n = cfg.horizon
        assert qp.ineq_vector.size == n * (n_av - 1) + n + 4 * n * n_av
        assert qp.eq_vector.size == 0
        assert qp.n == n_av * n


def test_stationary_platoon_zero_acceleration():
    cfg = MpcConfig(horizon=2, n_av=1)
    state = _state(n_av=1, v=0.0)
    qp = _condense(state, cfg, np.zeros(2)).qp
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, 0.0, atol=1e-9)


def test_cost_at_zero_acceleration_matches_hand_expansion():
    # two stages, two AVs, velocities stay at v0 when acc = 0
    cfg = MpcConfig(horizon=2, n_av=2)
    v0, ref = 6.0, np.array([8.0, 9.0])
    state = _state(n_av=2, v=v0)
    cd = _condense(state, cfg, ref)
    x0 = np.zeros(cd.qp.n)
    # leader: (v0-8)^2 + (v0-9)^2 + terminal repeat (v0-9)^2, follower diffs 0
    expected = cfg.q1 * ((v0 - 8.0) ** 2 + (v0 - 9.0) ** 2 + (v0 - 9.0) ** 2)
    assert cd.qp.objective(x0) + cd.cost_const == pytest.approx(expected, abs=1e-10)


# small shapes, and that of the benchmark's large_nominal workload
SHAPES = [(1, 2), (1, 7), (3, 2), (3, 7), (8, 40)]


@pytest.mark.parametrize("n_av, horizon", SHAPES)
def test_cost_matches_scalar_laws(n_av, horizon):
    # objective plus constant equals the cost summed over av_step velocities:
    # effort, leader tracking and follower matching, the written (N+1)-th
    # stage repeating the terminal velocity under a zero-held input; frozen
    # GP terms move the HV only, so a GP step has the same cost
    rng = np.random.default_rng(10 * n_av + horizon)
    cfg = MpcConfig(horizon=horizon, n_av=n_av, q1=3.0, q2=7.0, r=11.0)
    state = PlatoonState(av_pos=-12.0 * np.arange(n_av), av_vel=rng.uniform(5.0, 15.0, n_av),
                         hv_pos=-12.0 * n_av, history=constant_history(9.0, 9.0))
    ref = rng.uniform(5.0, 15.0, horizon)
    ref_ext = np.append(ref, ref[-1])
    frozen = FrozenGpTrajectory(mean=rng.uniform(-0.2, 0.2, horizon),
                                var=rng.uniform(0.0, 0.05, horizon))
    for cd in (_condense(state, cfg, ref), _condense(state, cfg, ref, frozen=frozen)):
        for _ in range(3):
            acc = rng.uniform(-4.0, 4.0, (n_av, horizon))
            vel = np.empty((n_av, horizon + 1))
            for j in range(n_av):
                av = AvState(p=float(state.av_pos[j]), v=float(state.av_vel[j]))
                for k in range(horizon + 1):
                    av = av_step(av, acc[j, k] if k < horizon else 0.0, cfg.step)
                    vel[j, k] = av.v
            expected = (cfg.r * np.sum(acc ** 2) + cfg.q1 * np.sum((vel[0] - ref_ext) ** 2)
                        + cfg.q2 * np.sum(np.diff(vel, axis=0) ** 2))
            got = cd.qp.objective(acc.ravel()) + cd.cost_const
            assert got == pytest.approx(expected, rel=1e-10)


def test_gp_qp_with_zero_frozen_equals_nominal():
    # at zero frozen terms the GP branch gives the nominal program bit for
    # bit, at a small shape and at the benchmark's large_nominal shape
    for n_av, horizon in ((2, 10), (8, 40)):
        cfg = MpcConfig(horizon=horizon, n_av=n_av)
        state = _state(n_av=n_av, v=5.0)
        ref = np.linspace(5.0, 8.0, horizon)
        nominal = _condense(state, cfg, ref)
        zero = FrozenGpTrajectory(np.zeros(horizon), np.zeros(horizon))
        gp = _condense(state, cfg, ref, frozen=zero)
        assert gp.qp.cost_matrix is nominal.qp.cost_matrix
        assert gp.qp.ineq_matrix is nominal.qp.ineq_matrix
        for got, want in ((gp.qp.cost_vector, nominal.qp.cost_vector),
                          (gp.qp.ineq_vector, nominal.qp.ineq_vector),
                          (gp.gap_bounds, nominal.gap_bounds)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gp_qp_bound_telescopes_frozen_variance():
    cfg = MpcConfig(horizon=8)
    state = _state(v=10.0)
    fz = FrozenGpTrajectory(mean=np.zeros(8), var=np.full(8, 0.04))
    cd = _condense(state, cfg, np.full(8, 10.0), frozen=fz)
    # constrained stages start one step in, so row j has j+2 accumulations
    for j in range(8):
        expected = 10.0 + 1.6448536 * np.sqrt((j + 2) * 4.0e-4)
        assert cd.gap_bounds[j] == pytest.approx(expected, abs=1e-6)


def test_gp_qp_constant_mean_shifts_hv_position():
    cfg = MpcConfig(horizon=6)
    state = _state(v=10.0)
    ref = np.full(6, 10.0)
    nom = _condense(state, cfg, ref)
    fz = FrozenGpTrajectory(mean=np.full(6, 0.5), var=np.zeros(6))
    gp = _condense(state, cfg, ref, frozen=fz)
    # mean chain spans stages k+1..k+N+1; the last update repeats the final
    # frozen mean, so the shift keeps telescoping by T * 0.5 per stage
    shift = _hv_offsets(gp)[1] - _hv_offsets(nom)[1]
    np.testing.assert_allclose(shift, 0.1 * 0.5 * np.arange(1, 8), atol=1e-12)
    np.testing.assert_allclose(gp.structure.hv_decode[6:], nom.structure.hv_decode[6:], atol=1e-15)


def test_hv_chain_matches_standalone_arx_replay():
    rng = np.random.default_rng(3)
    cfg = MpcConfig(horizon=12)
    params = ArxParams.default()
    hist = VelocityHistory(hv=np.array([9.5, 9.0, 8.8, 8.5]),
                           av=np.array([10.0, 9.8, 9.5, 9.0]))
    state = PlatoonState(av_pos=np.array([0.0, -12.0]),
                         av_vel=np.array([10.0, 10.0]),
                         hv_pos=-24.0, history=hist)
    cd = _condense(state, cfg, np.full(12, 10.0), arx=params)
    x = rng.uniform(-1.0, 1.0, size=cd.qp.n)
    acc, av_vel, av_pos, hv_vel, mu = cd.decode(x)
    # standalone replay: ARX recursion fed by the planned trailing-AV velocities
    hv_seq = list(hist.hv[::-1])          # oldest ... newest (time k)
    av_seq = list(hist.av[::-1])
    av_plan = list(av_vel[-1])
    replay = []
    for s in range(1, 13):
        hv_lags = np.array(hv_seq[-4:])[::-1]
        av_all = av_seq + av_plan[: s - 1]
        av_lags = np.array(av_all[-4:])[::-1]
        val = arx_step(params, hv_lags, av_lags)
        replay.append(val)
        hv_seq.append(val)
    np.testing.assert_allclose(hv_vel, replay, atol=1e-10)
    # mean chain telescopes measured current velocity plus the chain
    expected_mu = state.hv_pos + 0.1 * (hist.hv[0] + np.concatenate(
        [[0.0], np.cumsum(hv_vel[:-1])]))
    np.testing.assert_allclose(mu, expected_mu, atol=1e-10)

    # with frozen GP terms, decode follows the scalar laws in oracles.py
    fz = FrozenGpTrajectory(mean=rng.uniform(-0.2, 0.2, 12), var=rng.uniform(0.0, 0.05, 12))
    cd = _condense(state, cfg, np.full(12, 10.0), frozen=fz, arx=params)
    acc, av_vel, av_pos, hv_vel_fz, mu = cd.decode(x)
    np.testing.assert_allclose(hv_vel_fz, replay, atol=1e-10)
    for j in range(cfg.n_av):
        av = AvState(p=float(state.av_pos[j]), v=float(state.av_vel[j]))
        for k in range(12):
            av = av_step(av, acc[j, k], cfg.step)
            assert av.v == pytest.approx(av_vel[j, k], abs=1e-10)
            assert av.p == pytest.approx(av_pos[j, k], abs=1e-10)
    # mean stage k+1 from the measured velocity, then the chain; the
    # variance of the constrained stages k+2..k+N+1 repeats the last term
    mu_ref = propagate_hv_mean(state.hv_pos, hist.hv[0], fz.mean[0], cfg.step)
    sigma_ref = propagate_hv_variance(0.0, fz.var[0], cfg.step)
    for k in range(12):
        assert mu_ref == pytest.approx(mu[k], abs=1e-10)
        sigma_ref = propagate_hv_variance(sigma_ref, fz.var[min(k + 1, 11)], cfg.step)
        assert sigma_ref == pytest.approx(cd.sigma[k], abs=1e-10)
        mu_ref = propagate_hv_mean(mu_ref, hv_vel_fz[k], fz.mean[min(k + 1, 11)], cfg.step)


def test_solution_satisfies_stage_constraints():
    cfg = MpcConfig(horizon=10)
    state = _state(v=20.0, spacing=12.0, hv_gap=11.0)
    ref = np.full(10, 5.0)  # hard braking request
    cd = _condense(state, cfg, ref)
    sol = solve_qp(cd.qp)
    assert sol.status == "optimal"
    assert cd.qp.max_violation(sol.x) <= 1e-6
    acc, av_vel, av_pos, hv_vel, mu = cd.decode(sol.x)
    assert np.all(av_pos[0] - av_pos[1] >= cfg.av_gap - 1e-6)
    assert np.all(av_pos[-1, 1:] - mu[1:] >= cd.gap_bounds[:-1] - 1e-6)
    assert np.all(av_vel >= cfg.v_min - 1e-6)
    assert np.all(av_vel <= cfg.v_max + 1e-6)
    assert np.all(acc >= cfg.acc_min - 1e-9)
    assert np.all(acc <= cfg.acc_max + 1e-9)


# ---------------------------------------------------------------------------
# the per-(cfg, arx) structure
# ---------------------------------------------------------------------------


def _scalar_trajectories(state, cfg, frozen, params, acc):
    """AV positions and velocities (column k is stage k+1, through N+1), HV
    velocities (stages k+1..k+N) and the HV position means and variances
    (stages k+1..k+N+1) from the scalar laws in oracles.py and an ARX replay."""
    n, nav, t = cfg.horizon, cfg.n_av, cfg.step
    fz = frozen if frozen is not None else FrozenGpTrajectory(np.zeros(n), np.zeros(n))
    # column k holds stage k+1; the last column only needs a position
    pos = np.empty((nav, n + 1))
    vel = np.empty((nav, n + 1))
    for j in range(nav):
        av = AvState(p=float(state.av_pos[j]), v=float(state.av_vel[j]))
        for k in range(n + 1):
            av = av_step(av, acc[j, k] if k < n else 0.0, t)
            pos[j, k], vel[j, k] = av.p, av.v
    hist = state.history
    hv_seq = list(hist.hv[::-1])
    av_seq = list(hist.av[::-1]) + list(vel[-1, : n - 1])
    hv_vel = []
    for s in range(1, n + 1):
        hv_lags = np.array(hv_seq[-4:])[::-1]
        av_lags = np.array(av_seq[: 3 + s][-4:])[::-1]
        hv_vel.append(arx_step(params, hv_lags, av_lags))
        hv_seq.append(hv_vel[-1])
    mu = [propagate_hv_mean(state.hv_pos, hist.hv[0], fz.mean[0], t)]
    # the measured HV position has no variance
    sig = [propagate_hv_variance(0.0, fz.var[0], t)]
    for s in range(1, n + 1):
        mu.append(propagate_hv_mean(mu[-1], hv_vel[s - 1], fz.mean[min(s, n - 1)], t))
        sig.append(propagate_hv_variance(sig[-1], fz.var[min(s, n - 1)], t))
    return pos, vel, np.array(hv_vel), np.array(mu), np.array(sig)


def _scalar_constraint_values(state, cfg, frozen, params, acc):
    """G x - h rebuilt row by row from the scalar trajectories, in the row
    order av_gap, hv_gap, v_max, v_min, acc_max, acc_min."""
    n, nav = cfg.horizon, cfg.n_av
    pos, vel, _, mu, sig = _scalar_trajectories(state, cfg, frozen, params, acc)
    rows = []
    for j in range(1, nav):
        rows += [cfg.av_gap - (pos[j - 1, k + 1] - pos[j, k + 1]) for k in range(n)]
    for k in range(n):
        bound = (tightened_min_gap(cfg.gap, sig[k + 1]) if frozen is not None
                 else cfg.gap.delta)
        rows.append(bound - (pos[-1, k + 1] - mu[k + 1]))
    rows += [vel[j, k] - cfg.v_max for j in range(nav) for k in range(n)]
    rows += [cfg.v_min - vel[j, k] for j in range(nav) for k in range(n)]
    rows += [acc[j, k] - cfg.acc_max for j in range(nav) for k in range(n)]
    rows += [cfg.acc_min - acc[j, k] for j in range(nav) for k in range(n)]
    return np.array(rows)


def _random_step(rng, n_av, horizon, gp_mode):
    """A perturbed ARX model, a state near a 12 m spacing and, in GP mode,
    a frozen trajectory: (params, state, frozen, v_ref)."""
    params = ArxParams(c=ArxParams.default().c + rng.uniform(-1e-3, 1e-3, 4),
                       b=ArxParams.default().b)
    hist = VelocityHistory(hv=rng.uniform(8.0, 10.0, 4), av=rng.uniform(8.0, 10.0, 4))
    state = PlatoonState(av_pos=-12.0 * np.arange(n_av) + rng.uniform(-1.0, 1.0, n_av),
                         av_vel=rng.uniform(8.0, 12.0, n_av), hv_pos=-12.0 * n_av - 3.0,
                         history=hist)
    frozen = None
    if gp_mode:
        frozen = FrozenGpTrajectory(mean=rng.uniform(-0.2, 0.2, horizon),
                                    var=rng.uniform(0.0, 0.05, horizon))
    return params, state, frozen, rng.uniform(8.0, 12.0, horizon)


@pytest.mark.parametrize("gp_mode", [False, True])
@pytest.mark.parametrize("n_av, horizon", SHAPES)
def test_cached_constraints_match_scalar_laws(n_av, horizon, gp_mode):
    rng = np.random.default_rng(100 * n_av + 10 * horizon + gp_mode)
    cfg = MpcConfig(horizon=horizon, n_av=n_av)
    params, state, frozen, ref = _random_step(rng, n_av, horizon, gp_mode)
    miss = _condense(state, cfg, ref, frozen=frozen, arx=params)
    hit = _condense(state, cfg, ref, frozen=frozen, arx=params)
    assert hit.structure is miss.structure
    for _ in range(3):
        x = rng.uniform(-3.0, 3.0, hit.qp.n)
        expected = _scalar_constraint_values(state, cfg, frozen, params,
                                             x.reshape(n_av, horizon))
        got = hit.qp.ineq_matrix @ x - hit.qp.ineq_vector
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
    labels = [hit.structure.row_label(i) for i in range(hit.qp.ineq_vector.size)]
    assert len(set(labels)) == len(labels)
    assert labels[(n_av - 1) * horizon] == "hv_gap[0]"
    assert labels[-1] == f"acc_min[{n_av - 1},{horizon - 1}]"
    with pytest.raises(IndexError):
        hit.structure.row_label(len(labels))


@pytest.mark.parametrize("n_av, horizon", SHAPES)
def test_row_labels_name_the_law_of_each_row(n_av, horizon):
    # every row carries the label of its block, stage-major within each AV,
    # and raising one bound moves h by +-1 on the rows labelled with its
    # name and on no other row
    rng = np.random.default_rng(10 * n_av + horizon)
    cfg = MpcConfig(horizon=horizon, n_av=n_av)
    params, state, _, ref = _random_step(rng, n_av, horizon, gp_mode=False)
    base = _condense(state, cfg, ref, arx=params)
    labels = [base.structure.row_label(i) for i in range(base.qp.ineq_vector.size)]
    stages = range(horizon)
    assert labels == ([f"av_gap[{j},{k}]" for j in range(1, n_av) for k in stages]
                      + [f"hv_gap[{k}]" for k in stages]
                      + [f"{name}[{j},{k}]" for name in ("v_max", "v_min", "acc_max", "acc_min")
                         for j in range(n_av) for k in stages])
    names = np.array([label.split("[")[0] for label in labels])
    raised = [(name, sign, {name: getattr(cfg, name) + 1.0}) for name, sign in
              (("av_gap", -1), ("v_max", 1), ("v_min", -1), ("acc_max", 1), ("acc_min", -1))]
    raised.append(("hv_gap", -1, {"gap": dataclasses.replace(cfg.gap, delta=cfg.gap.delta + 1.0)}))
    for name, sign, change in raised:
        other = _condense(state, dataclasses.replace(cfg, **change), ref, arx=params)
        moved = other.qp.ineq_vector - base.qp.ineq_vector
        np.testing.assert_allclose(moved[names == name], sign, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(moved[names != name], 0.0)


@pytest.mark.parametrize("n_av, horizon", [(2, 20), (8, 40)])
def test_template_marks_its_one_entry_rows_as_bounds(n_av, horizon):
    """The template program marks every acceleration-box row as a bound on
    its own variable (+1 for acc_max, -1 for acc_min). Besides those
    2 n_av N rows, only the first stage's velocity rows of each AV and
    hv_gap[0] have one nonzero, since they depend on the first input alone."""
    st = mpc._structure(MpcConfig(n_av=n_av, horizon=horizon), ArxParams.default())
    column, g = st.qp.bound_column, st.qp.ineq_matrix.toarray()
    for name, coef in (("acc_max", 1.0), ("acc_min", -1.0)):
        rows = np.arange(st.rows[name].start, st.rows[name].stop)
        np.testing.assert_array_equal(column[rows], rows - rows[0])
        np.testing.assert_array_equal(g[rows, column[rows]], coef)
    marked = np.flatnonzero(column >= 0)
    assert marked.size == 2 * n_av * horizon + 2 * n_av + 1
    others = {st.row_label(r) for r in marked if not st.row_label(r).startswith("acc_")}
    assert others == {"hv_gap[0]"} | {f"{name}[{j},0]" for name in ("v_max", "v_min")
                                      for j in range(n_av)}
    np.testing.assert_array_equal(np.count_nonzero(g, axis=1) == 1, column >= 0)


def test_controller_condenses_through_the_template_it_resolved(monkeypatch):
    """A controller looks its template up once, when it is built: its steps
    never consult the cache again, and condensing through the held template
    gives the same program as looking it up."""
    cfg = MpcConfig(horizon=8)
    ctrl = PlatoonController(cfg, mode="nominal")
    assert ctrl.structure is mpc._structure(MpcConfig(horizon=8), ArxParams.default())
    assert PlatoonController(cfg).structure is ctrl.structure
    state, ref = _state(v=5.0), np.full(8, 6.0)
    looked_up = _condense(state, cfg, ref)
    held = condense(ctrl.structure, state, ref)
    assert held.structure is looked_up.structure
    np.testing.assert_array_equal(held.terms, looked_up.terms)

    def no_lookup(*args):
        raise AssertionError("template looked up during a step")

    monkeypatch.setattr(mpc, "_structure", no_lookup)
    for _ in range(3):
        _, sol = ctrl.step(state, ref)
        assert sol.status == "optimal"


@pytest.mark.parametrize("gp_mode", [False, True])
@pytest.mark.parametrize("n_av, horizon", [(3, 7), (8, 40)])
def test_decode_matches_scalar_laws(n_av, horizon, gp_mode):
    rng = np.random.default_rng(1000 + 100 * n_av + horizon + gp_mode)
    cfg = MpcConfig(horizon=horizon, n_av=n_av)
    params, state, frozen, ref = _random_step(rng, n_av, horizon, gp_mode)
    cd = _condense(state, cfg, ref, frozen=frozen, arx=params)
    for _ in range(3):
        acc = rng.uniform(-3.0, 3.0, (n_av, horizon))
        pos, vel, hv_vel, mu, sig = _scalar_trajectories(state, cfg, frozen, params, acc)
        got_acc, av_vel, av_pos, got_hv_vel, got_mu = cd.decode(acc.ravel())
        np.testing.assert_array_equal(got_acc, acc)
        np.testing.assert_allclose(av_vel, vel[:, :horizon], rtol=0, atol=1e-10)
        np.testing.assert_allclose(av_pos, pos[:, :horizon], rtol=0, atol=1e-10)
        # the near-marginal ARX chain loses a few thousand ulps over 40
        # stages in any summation order: 1.2e-10 m of a 285 m mean
        np.testing.assert_allclose(got_hv_vel, hv_vel, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(got_mu, mu[:horizon], rtol=1e-12, atol=1e-10)
    # the variances and bounds of the constrained stages k+2..k+N+1
    np.testing.assert_allclose(cd.sigma, sig[1:], rtol=0, atol=1e-12)
    expected = [tightened_min_gap(cfg.gap, v) if gp_mode else cfg.gap.delta for v in sig[1:]]
    np.testing.assert_allclose(cd.gap_bounds, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_av, horizon", [(1, 20), (2, 20), (8, 40)])
def test_hv_decode_block_reproduces_the_full_x_half(n_av, horizon):
    """The template keeps the HV decode only over the trailing AV's N
    accelerations. By the scalar laws, the HV trajectories do not move with
    the other AVs' accelerations, and their columns over the trailing AV's
    equal that block, so the block's product with x[-N:] is the full
    x-half's product with x."""
    rng = np.random.default_rng(7 * n_av + horizon)
    cfg = MpcConfig(horizon=horizon, n_av=n_av)
    st = mpc._structure(cfg, ArxParams.default())
    assert st.hv_decode.shape == (2 * horizon + 1, horizon)
    params, nd = ArxParams.default(), n_av * horizon
    state = PlatoonState(av_pos=np.zeros(n_av), av_vel=np.zeros(n_av), hv_pos=0.0,
                         history=constant_history(0.0, 0.0))

    def hv_trajectories(x):
        _, _, hv_vel, mu, _ = _scalar_trajectories(state, cfg, None, params,
                                                   x.reshape(n_av, horizon))
        return np.concatenate((hv_vel, mu))

    # the laws are linear and zero at the zero state, so column i of the
    # x-half is the image of the i-th unit plan
    trailing = np.stack([hv_trajectories(e) for e in np.eye(nd)[-horizon:]], axis=1)
    np.testing.assert_allclose(st.hv_decode, trailing, rtol=1e-12, atol=1e-13)
    for _ in range(3):
        x = rng.uniform(-3.0, 3.0, nd)
        np.testing.assert_array_equal(hv_trajectories(np.append(x[:-horizon], np.zeros(horizon))), 0.0)
        np.testing.assert_allclose(st.hv_decode @ x[-horizon:], hv_trajectories(x),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_av, horizon", [(2, 20), (8, 40)])
def test_template_constraints_are_the_dense_laws_in_csr_form(n_av, horizon):
    """The template builds G one AV's columns at a time, straight into CSR
    form, and P from the chunks' cost residuals. G holds exactly the
    nonzeros of the laws evaluated on the whole identity over x at once,
    bit for bit, row by row with sorted column indices and no stored zeros,
    and P = 2 R_x'R_x + 2r I is the dense residuals' P, bit for bit."""
    cfg, arx = MpcConfig(n_av=n_av, horizon=horizon), ArxParams.default()
    st = mpc._structure(cfg, arx)
    laws, nz = mpc._horizon_laws(cfg, arx)
    nd = n_av * horizon
    blocks = dict(laws(np.eye(nz + nd, nd, -nz)))
    dense = -np.concatenate([blocks[name].reshape(-1, nd) for name in mpc._CONSTRAINTS])
    g = st.qp.ineq_matrix
    assert g.shape == dense.shape
    rows, cols = np.nonzero(dense)
    np.testing.assert_array_equal(g.indptr, np.searchsorted(rows, np.arange(dense.shape[0] + 1)))
    np.testing.assert_array_equal(g.indices, cols)
    np.testing.assert_array_equal(g.data.view(np.uint64), dense[rows, cols].view(np.uint64))
    np.testing.assert_array_equal(g.toarray(), dense)
    r_x = blocks["cost"].reshape(-1, nd)
    p = r_x.T @ r_x
    p *= 2.0
    p.flat[::nd + 1] += 2.0 * cfg.r
    np.testing.assert_array_equal(st.qp.cost_matrix.view(np.uint64), p.view(np.uint64))


def test_large_template_build_never_holds_a_dense_g():
    """At n_av=16, N=80 a dense G (6400 x 1280) would take 62.5 MB, and a
    build through one peaks at 218 MB of traced memory and keeps 91 MB.
    Built one AV's columns at a time, the build peaks at no more than half
    of that. The template keeps 16.0 MB, mostly P (12.5 MB): its Kronecker
    factor forms no n x n J, so the bound, 2 MB above that, fails if one
    (another 12.5 MB) is kept again."""
    cfg, arx = MpcConfig(n_av=16, horizon=80), ArxParams.default()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        st = mpc._structure.__wrapped__(cfg, arx)      # not the cached template
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert st.qp.ineq_matrix.shape == (6400, 1280)
    assert (peak - base) / 2**20 <= 109.0
    assert isinstance(st.qp.factor, qp_module.KroneckerFactor)
    assert (kept - base) / 2**20 <= 18.0


@pytest.mark.parametrize("gp_mode", [False, True])
@pytest.mark.parametrize("n_av, horizon", [(2, 20), (8, 40)])
def test_condense_output_is_the_csr_product_of_the_map(n_av, horizon, gp_mode):
    """condense takes its product with the template's map through scipy's
    CSR kernel called directly (``qp.spmv``): every row equals
    ``terms @ z`` bit for bit, and the hv_gap rows have the gap bounds
    subtracted from it."""
    rng = np.random.default_rng(3 * n_av + horizon + gp_mode)
    cfg = MpcConfig(horizon=horizon, n_av=n_av)
    for _ in range(3):
        params, state, frozen, ref = _random_step(rng, n_av, horizon, gp_mode)
        st = mpc._structure(cfg, params)
        cd = condense(st, state, ref, frozen)
        fz = (st.zero_frozen, st.zero_frozen) if frozen is None else (frozen.mean, frozen.var)
        hist = state.history
        z = np.concatenate((state.av_pos, state.av_vel, (state.hv_pos,), hist.hv, hist.av,
                            *fz, ref, (1.0,)))
        want = st.terms @ z
        want[st.rows["hv_gap"]] -= cd.gap_bounds
        np.testing.assert_array_equal(cd.terms.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_v_ref_rejected_naming_it(bad):
    cfg = MpcConfig(horizon=6)
    ref = np.full(6, 6.0)
    ref[3] = bad
    gp = _tiny_sparse_gp()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="v_ref must be finite"):
            _condense(_state(v=5.0), cfg, ref)
        for ctrl in (PlatoonController(cfg), PlatoonController(cfg, mode="gp", gp_model=gp)):
            with pytest.raises(ValueError, match="v_ref must be finite"):
                ctrl.step(_state(v=5.0), ref)


def test_structure_shared_per_config_and_arx():
    cfg = MpcConfig(horizon=6)
    state = _state(v=5.0)
    ref = np.full(6, 6.0)
    default = _condense(state, cfg, ref)
    # equal values in new objects, the ARX model's from copied arrays or
    # from lists, hit the same entry, from _structure and from a controller
    copied = ArxParams(c=ArxParams.default().c.copy(), b=ArxParams.default().b.copy())
    listed = ArxParams(c=list(ArxParams.default().c), b=list(ArxParams.default().b))
    again = _condense(state, MpcConfig(horizon=6), ref, arx=copied)
    assert again.structure is default.structure
    assert mpc._structure(MpcConfig(horizon=6), listed) is default.structure
    for arx in (None, copied, listed):
        assert PlatoonController(MpcConfig(horizon=6), arx=arx).structure is default.structure
    assert again.qp.cost_matrix is default.qp.cost_matrix
    assert again.qp.ineq_matrix is default.qp.ineq_matrix
    # the affine map and the decode matrices are shared with the structure,
    # and nothing can write them
    st = default.structure
    g = default.qp.ineq_matrix
    for arr in (default.qp.cost_matrix, g.data, g.indices, g.indptr, st.terms.data,
                st.terms.indices, st.terms.indptr, st.av_decode, st.hv_decode, st.zero_frozen):
        assert not arr.flags.writeable
    # each step's vectors are its own
    assert not np.shares_memory(again.terms, default.terms)
    assert default.terms.flags.writeable
    other_arx = ArxParams(c=ArxParams.default().c, b=ArxParams.default().b * 1.01)
    other = _condense(state, cfg, ref, arx=other_arx)
    assert other.structure is not default.structure
    assert PlatoonController(cfg, arx=other_arx).structure is other.structure
    assert not np.array_equal(other.qp.ineq_matrix.toarray(), g.toarray())
    assert not np.array_equal(_hv_offsets(other)[0], _hv_offsets(default)[0])
    heavier = _condense(state, MpcConfig(horizon=6, r=11.0), ref)
    assert heavier.structure is not default.structure
    assert not np.array_equal(heavier.qp.cost_matrix, default.qp.cost_matrix)


def test_structure_cache_hit_bit_identical_to_miss():
    gp = _tiny_sparse_gp(targets=np.array([0.05, 0.0, -0.05, 0.1]), nv=0.01)
    cfg = MpcConfig(horizon=9, n_av=3)
    state = _state(n_av=3, v=7.0)
    ref = np.linspace(7.0, 9.0, 9)
    frozen = evaluate_gp_along_trajectory(gp, np.tile([7.0, 7.0], (cfg.horizon, 1)))

    def snapshot():
        cd = _condense(state, cfg, ref, frozen=frozen)
        sol = solve_qp(cd.qp)
        decoded = cd.decode(sol.x)
        arrays = [cd.qp.cost_matrix, cd.qp.cost_vector, cd.qp.ineq_matrix.toarray(),
                  cd.qp.ineq_vector, *_hv_offsets(cd), cd.structure.hv_decode,
                  cd.sigma, cd.gap_bounds, np.array([cd.cost_const]),
                  sol.x, *decoded]
        return cd, [a.copy() for a in arrays]

    mpc._structure.cache_clear()
    cd_miss, miss = snapshot()
    cd_hit, hit = snapshot()
    assert cd_hit.structure is cd_miss.structure
    mpc._structure.cache_clear()
    cd_rebuilt, rebuilt = snapshot()
    assert cd_rebuilt.structure is not cd_miss.structure
    for a, b, c in zip(miss, hit, rebuilt):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def test_alternating_configs_factor_each_cost_matrix_once(monkeypatch):
    """Two controllers with different configs stepped in turn factor their
    P once each, when their template programs are built."""
    shapes = []
    factor = qp_module._chol_or_jitter

    def counting(p):
        shapes.append(p.shape)
        return factor(p)

    monkeypatch.setattr(qp_module, "_chol_or_jitter", counting)
    mpc._structure.cache_clear()
    ctrls = [PlatoonController(MpcConfig(horizon=h), mode="nominal") for h in (8, 9)]
    state = _state(v=5.0)
    for k in range(10):
        ctrl = ctrls[k % 2]
        _, sol = ctrl.step(state, np.full(ctrl.cfg.horizon, 6.0))
        assert sol.status == "optimal"
    assert shapes == [(16, 16), (18, 18)]


def test_configs_above_the_crossover_build_one_kronecker_factor_each(monkeypatch):
    """Two controllers above the crossover, stepped in turn, build their
    Kronecker factor once each, with their templates, and never factor a
    dense P."""
    chol, kron = [], []
    factor, kronecker = qp_module._chol_or_jitter, mpc._kronecker_factor

    def counting_chol(p):
        chol.append(p.shape)
        return factor(p)

    def counting_kron(cfg):
        kron.append(cfg.horizon)
        return kronecker(cfg)

    monkeypatch.setattr(qp_module, "_chol_or_jitter", counting_chol)
    monkeypatch.setattr(mpc, "_kronecker_factor", counting_kron)
    mpc._structure.cache_clear()
    horizons = [mpc.KRONECKER_CROSSOVER // 4 + 1, mpc.KRONECKER_CROSSOVER // 4 + 2]
    ctrls = [PlatoonController(MpcConfig(n_av=4, horizon=h), mode="nominal") for h in horizons]
    state = _state(n_av=4, v=5.0)
    for k in range(10):
        ctrl = ctrls[k % 2]
        assert isinstance(ctrl.structure.qp.factor, qp_module.KroneckerFactor)
        _, sol = ctrl.step(state, np.full(ctrl.cfg.horizon, 6.0))
        assert sol.status == "optimal"
    assert kron == horizons and chol == []


# ---------------------------------------------------------------------------
# the Kronecker factor of the cost matrix
# ---------------------------------------------------------------------------

# (n_av, N, q1, q2, r, step), the last the benchmark's large_nominal shape
KRON_CONFIGS = [(1, 5, 5.0, 5.0, 10.0, 0.1), (2, 20, 1.0, 30.0, 0.5, 0.05),
                (3, 7, 50.0, 0.2, 3.0, 0.25), (5, 30, 5.0, 5.0, 0.01, 0.1),
                (8, 40, 5.0, 5.0, 10.0, 0.1)]


def _law_cost_matrix(cfg):
    """P = 2 R_x'R_x + 2r I from the cost residuals of the horizon's laws,
    evaluated on the whole identity over x."""
    laws, nz = mpc._horizon_laws(cfg, ArxParams.default())
    nd = cfg.n_av * cfg.horizon
    r_x = dict(laws(np.eye(nz + nd, nd, -nz)))["cost"].reshape(-1, nd)
    return 2.0 * (r_x.T @ r_x) + 2.0 * cfg.r * np.eye(nd)


def _dense_j(f):
    """The factor's J, formed: (U (x) V) diag(scale)."""
    return np.kron(f.u, f.v) * f.scale.ravel()


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("n_av, horizon, q1, q2, r, step", KRON_CONFIGS)
def test_kronecker_factor_inverts_the_law_cost_matrix(n_av, horizon, q1, q2, r, step):
    cfg = MpcConfig(n_av=n_av, horizon=horizon, q1=q1, q2=q2, r=r, step=step)
    f = mpc._kronecker_factor(cfg)
    j = _dense_j(f)
    np.testing.assert_allclose(_law_cost_matrix(cfg) @ j @ j.T, np.eye(f.n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_av, horizon, q1, q2, r, step", KRON_CONFIGS)
def test_kronecker_factor_products_match_the_formed_j(n_av, horizon, q1, q2, r, step):
    """mul, lmul, rows and the start products agree with the formed J to
    1e-13, relative to each result's size."""
    cfg = MpcConfig(n_av=n_av, horizon=horizon, q1=q1, q2=q2, r=r, step=step)
    f = mpc._kronecker_factor(cfg)
    j, n = _dense_j(f), f.n
    rng = np.random.default_rng(n)
    for _ in range(3):
        v = rng.standard_normal(n)
        assert _rel_err(f.mul(v), j @ v) <= 1e-13
        assert _rel_err(f.lmul(v), v @ j) <= 1e-13
        w = f.start_w(v)
        assert _rel_err(w, -(v @ j)) <= 1e-13
        assert _rel_err(f.start_x(w), j @ w) <= 1e-13
        cols = rng.integers(0, n, 2)
        for c in (cols[0], int(cols[1]), 0, n - 1):
            assert _rel_err(f.rows(c), j[c]) <= 1e-13


@pytest.mark.parametrize("n_av, horizon", [(4, 41), (8, 40), (5, 33)])
def test_kronecker_cost_product_matches_the_template_cost_matrix(n_av, horizon):
    st = mpc._structure(MpcConfig(n_av=n_av, horizon=horizon), ArxParams.default())
    assert isinstance(st.qp.factor, qp_module.KroneckerFactor)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-4.0, 4.0, st.qp.n)
        assert _rel_err(st.qp.factor.cost(x), st.qp.cost_matrix @ x) <= 1e-13


def test_crossover_keeps_paper_scale_on_the_triangular_factor():
    # the paper's n_av=2, N=20 (40 variables) stays on the Cholesky factor
    assert 40 <= mpc.KRONECKER_CROSSOVER < 320
    for n_av, horizon in ((2, 20), (8, 40)):
        st = mpc._structure(MpcConfig(n_av=n_av, horizon=horizon), ArxParams.default())
        kind = (qp_module.KroneckerFactor if n_av * horizon > mpc.KRONECKER_CROSSOVER
                else qp_module.TriangularFactor)
        assert type(st.qp.factor) is kind


def test_build_rejects_a_cost_law_that_is_not_the_kronecker_form(monkeypatch):
    """A template above the crossover checks its Kronecker P against the
    cost residuals of its laws: a cost law the factor does not model (here
    one stage's residuals scaled) raises instead of solving another QP."""
    laws_of = mpc._horizon_laws

    def changed(cfg, arx):
        laws, nz = laws_of(cfg, arx)

        def perturbed(w):
            for name, block in laws(w):
                if name == "cost":
                    block = block.copy()
                    block[:, 3] *= 1.001
                yield name, block

        return perturbed, nz

    monkeypatch.setattr(mpc, "_horizon_laws", changed)
    cfg = MpcConfig(n_av=4, horizon=mpc.KRONECKER_CROSSOVER // 4 + 1)
    with pytest.raises(AssertionError, match="Kronecker"):
        mpc._structure.__wrapped__(cfg, ArxParams.default())
    # below the crossover the same law builds a Cholesky-factored template
    small = mpc._structure.__wrapped__(MpcConfig(n_av=2, horizon=10), ArxParams.default())
    assert isinstance(small.qp.factor, qp_module.TriangularFactor)


@pytest.mark.parametrize("n_av, horizon", [(8, 40), (16, 40)])
def test_kronecker_and_triangular_factors_solve_alike(n_av, horizon, monkeypatch):
    """At closed-loop states of 8x40 and 16x40, the Kronecker-factored
    program and the same program factored by Cholesky reach the same
    status, iteration count and active set, cold and resumed from tokens
    that carry the recorded hint's rows, and their solutions agree to 1e-9
    relative."""
    recorded = []

    def recording(qp, **kwargs):
        recorded.append((qp, kwargs.get("active_hint")))
        return qp_module.solve_qp(qp, **kwargs)

    monkeypatch.setattr(mpc, "solve_qp", recording)
    cfg = MpcConfig(n_av=n_av, horizon=horizon)
    run_closed_loop(make_scenario("emergency", cfg=cfg, duration=2.0, seed=1, noise=True),
                    controller="nominal")
    template = mpc._structure(cfg, ArxParams.default()).qp
    assert isinstance(template.factor, qp_module.KroneckerFactor)
    dense = qp_module.QuadraticProgram(template.cost_matrix, template.cost_vector,
                                       template.ineq_matrix, template.ineq_vector)
    assert isinstance(dense.factor, qp_module.TriangularFactor)
    compared = 0
    for qp, hint in recorded[::4]:
        other = dense.with_vectors(qp.cost_vector, qp.ineq_vector)
        for rows in {None, hint}:
            a, b = (solve_qp(p, active_hint=None if rows is None
                             else token_with_active_rows(p, rows))
                    for p in (qp, other))
            assert a.status == b.status == "optimal"
            assert a.iterations == b.iterations and a.active == b.active
            assert _rel_err(a.x, b.x) <= 1e-9
            compared += 1
    assert compared >= 8


@pytest.mark.parametrize("n_av, horizon, factor", [(2, 20, qp_module.TriangularFactor),
                                                    (8, 40, qp_module.KroneckerFactor)])
def test_resumed_solves_match_fresh_tokens_of_their_rows(n_av, horizon, factor, monkeypatch):
    """At the closed-loop states of 2x20 (triangular factor) and 8x40
    (Kronecker factor), each solve that resumes the previous solve's
    workspace and a solve resumed from a fresh token that carries the same
    rows reach the same status, iteration count and active set, and their
    solutions agree to 1e-9 relative. Each also reaches the cold solve's
    active set, with x to 1e-9 relative."""
    recorded = []

    def recording(qp, **kwargs):
        hint = kwargs.get("active_hint")
        resumes = isinstance(hint, qp_module.ActiveRows) and hint.workspace(qp) is not None
        res = qp_module.solve_qp(qp, **kwargs)
        recorded.append((qp, kwargs, resumes, res))
        return res

    monkeypatch.setattr(mpc, "solve_qp", recording)
    cfg = MpcConfig(n_av=n_av, horizon=horizon)
    run_closed_loop(make_scenario("emergency", cfg=cfg, duration=3.0, seed=1, noise=True),
                    controller="nominal")
    assert isinstance(mpc._structure(cfg, ArxParams.default()).qp.factor, factor)
    resumed = [r for r in recorded if r[2]]
    assert len(resumed) == len(recorded) - 1
    for qp, kwargs, _, a in resumed:
        token = token_with_active_rows(qp, kwargs["active_hint"])
        b = qp_module.solve_qp(qp, **{**kwargs, "active_hint": token})
        cold = qp_module.solve_qp(qp, **{**kwargs, "active_hint": None})
        assert a.status == b.status == cold.status == "optimal"
        assert a.iterations == b.iterations and a.active == b.active == cold.active
        assert _rel_err(a.x, b.x) <= 1e-9 and _rel_err(a.x, cold.x) <= 1e-9


@pytest.mark.parametrize("n_av, horizon", [(2, 20), (8, 40)])
def test_solution_objective_is_the_programs_bit_for_bit(n_av, horizon):
    """``QpSolution.objective`` and ``QuadraticProgram.objective`` at its x
    take P x from the same factor product, so they agree exactly."""
    rng = np.random.default_rng(7 * n_av + horizon)
    cfg = MpcConfig(n_av=n_av, horizon=horizon)
    gp_terms = FrozenGpTrajectory(mean=rng.uniform(-0.2, 0.2, horizon),
                                  var=rng.uniform(0.0, 0.05, horizon))
    for v, frozen in ((0.0, None), (8.0, gp_terms)):
        cd = _condense(_state(n_av=n_av, v=v), cfg, np.full(horizon, 10.0), frozen=frozen)
        sol = solve_qp(cd.qp)
        assert sol.status == "optimal"
        assert sol.objective == cd.qp.objective(sol.x)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_controller_rejects_a_solver_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance"):
        PlatoonController(MpcConfig(horizon=10), solver_tol=tol)


def test_fallback_names_violated_row():
    cfg = MpcConfig(horizon=10)
    ctrl = PlatoonController(cfg, mode="nominal")
    _, sol = ctrl.step(_state(v=10.0, hv_gap=12.0), np.full(10, 10.0))
    assert sol.status == "optimal" and sol.violated == ""
    # the HV already sits inside delta, so braking violates the AV-HV gap
    _, sol = ctrl.step(_state(v=10.0, hv_gap=2.0), np.full(10, 10.0))
    assert sol.fallback
    assert sol.violated.startswith("hv_gap[")


# ---------------------------------------------------------------------------
# controller stepping
# ---------------------------------------------------------------------------


def test_rest_platoon_commands_zero():
    cfg = MpcConfig(horizon=10)
    ctrl = PlatoonController(cfg, mode="nominal")
    state = _state(v=0.0)
    acc0, sol = ctrl.step(state, np.zeros(10))
    assert sol.status == "optimal"
    np.testing.assert_allclose(acc0, 0.0, atol=1e-9)


def test_one_gp_batch_eval_per_step():
    gp = _RecordingGp(_tiny_sparse_gp(targets=np.array([0.05, 0.0, -0.05, 0.1]), nv=0.01))
    cfg = MpcConfig(horizon=8)
    ctrl = PlatoonController(cfg, mode="gp", gp_model=gp)
    state = _state(v=5.0)
    for k in range(6):
        _, sol = ctrl.step(state, np.full(8, 5.0))
        assert sol.status == "optimal"
        assert len(gp.queries) == k + 1


def test_gp_bounds_dominate_nominal():
    gp = _tiny_sparse_gp(targets=np.array([0.05, 0.0, -0.05, 0.1]), nv=0.01)
    cfg = MpcConfig(horizon=10)
    state = _state(v=10.0)
    ref = np.full(10, 10.0)
    nom = PlatoonController(cfg, mode="nominal")
    gpc = PlatoonController(cfg, mode="gp", gp_model=gp)
    _, sol_n = nom.step(state, ref)
    _, sol_g = gpc.step(state, ref)
    assert np.all(sol_g.gap_bounds > sol_n.gap_bounds)
    assert np.all(np.diff(sol_g.gap_bounds) > 0)


def test_controller_deterministic():
    cfg = MpcConfig(horizon=10)
    runs = []
    for _ in range(2):
        ctrl = PlatoonController(cfg, mode="nominal")
        state = _state(v=3.0)
        accs = []
        for k in range(5):
            acc0, _ = ctrl.step(state, np.full(10, 6.0))
            accs.append(acc0.copy())
        runs.append(np.array(accs))
    np.testing.assert_array_equal(runs[0], runs[1])


def test_warm_start_descent_property():
    cfg = MpcConfig(horizon=10)
    ctrl = PlatoonController(cfg, mode="nominal")
    # quasi-static loop: reuse state, changing reference slowly
    state = _state(v=5.0)
    prev_sol = None
    for k in range(5):
        ref = np.full(10, 5.0 + 0.1 * k)
        # previous plan shifted one stage, last stage held
        warm = None if prev_sol is None else np.hstack([prev_sol.acc[:, 1:],
                                                        prev_sol.acc[:, -1:]]).ravel()
        cd = _condense(state, cfg, ref)
        _, sol = ctrl.step(state, ref)
        if warm is not None and cd.qp.max_violation(warm) <= 1e-9:
            assert cd.qp.objective(sol.acc.ravel()) <= cd.qp.objective(warm) + 1e-9
        prev_sol = sol


def test_infeasible_state_falls_back_to_max_braking():
    cfg = MpcConfig(horizon=10)
    ref = np.full(10, 10.0)
    # HV far inside the required gap
    state = PlatoonState(av_pos=np.array([0.0, -12.0]), av_vel=np.array([11.0, 10.0]),
                         hv_pos=-14.0,
                         history=VelocityHistory(hv=np.array([9.0, 8.5, 8.0, 7.5]),
                                                 av=np.array([10.0, 9.5, 9.0, 8.5])))
    feasible = _state(v=10.0)
    ctrl = PlatoonController(cfg, mode="nominal")
    acc0, sol = ctrl.step(state, ref)
    assert sol.fallback
    assert sol.status == "infeasible"
    np.testing.assert_allclose(acc0, cfg.acc_min, atol=0)
    # the fallback's trajectories are the braking plan's, decoded as a solution's
    cd = _condense(state, cfg, ref)
    braking = cd.decode(np.full(cd.qp.n, cfg.acc_min))
    for got, want in zip((sol.acc, sol.av_vel, sol.av_pos, sol.hv_vel, sol.hv_pos_mean),
                         braking):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(sol.hv_pos_var, cd.sigma)
    np.testing.assert_array_equal(sol.gap_bounds, cd.gap_bounds)
    assert np.isnan(sol.cost) and sol.active == ()
    # the infeasible solve's token is still the next hint, and it resumes:
    # the feasible step that follows plans as a fresh controller does
    assert ctrl.active.workspace(ctrl.structure.qp) is not None
    _, sol = ctrl.step(feasible, ref)
    _, want = PlatoonController(cfg, mode="nominal").step(feasible, ref)
    assert sol.status == want.status == "optimal"
    np.testing.assert_allclose(sol.acc, want.acc, rtol=0, atol=1e-9)
    # a GP controller drops its pairs on a fallback, so its next step
    # freezes the GP terms at the measured current pair again
    gp = _RecordingGp(_tiny_sparse_gp(nv=0.01))
    gpc = PlatoonController(cfg, mode="gp", gp_model=gp)
    _, sol = gpc.step(feasible, ref)
    assert sol.status == "optimal" and gpc.gp_pairs is not None
    _, sol = gpc.step(state, ref)
    assert sol.fallback and gpc.gp_pairs is None
    gpc.step(state, ref)
    np.testing.assert_array_equal(gp.queries[-1], np.tile([9.0, 10.0], (10, 1)))
    # and resumes from that fallback's rows as the nominal controller does
    assert gpc.active.workspace(gpc.structure.qp) is not None
    _, sol = gpc.step(feasible, ref)
    _, want = PlatoonController(cfg, mode="gp", gp_model=gp).step(feasible, ref)
    assert sol.status == want.status == "optimal"
    np.testing.assert_allclose(sol.acc, want.acc, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(gp.queries[-2], np.tile([10.0, 10.0], (10, 1)))
    np.testing.assert_array_equal(gp.queries[-1], gp.queries[-2])


def test_stage_pairs_layout():
    # the next solve's GP query pairs: the measured current pair, then the
    # plan's (HV velocity, trailing-AV velocity) pairs of stages k+1..k+N-2,
    # the last repeated; a nominal controller keeps none
    for n in (6, 2):
        nominal = PlatoonController(MpcConfig(horizon=n), mode="nominal")
        nominal.step(_lagged_state(), np.full(n, 10.0))
        assert nominal.gp_pairs is None
        ctrl = PlatoonController(MpcConfig(horizon=n), mode="gp", gp_model=_tiny_sparse_gp())
        _, sol = ctrl.step(_lagged_state(), np.full(n, 10.0))
        assert sol.status == "optimal"
        pairs = ctrl.gp_pairs
        assert pairs.shape == (n, 2)
        np.testing.assert_array_equal(pairs[0], [9.0, 10.0])
        np.testing.assert_array_equal(pairs[1:-1, 0], sol.hv_vel[:n - 2])
        np.testing.assert_array_equal(pairs[1:-1, 1], sol.av_vel[-1, :n - 2])
        np.testing.assert_array_equal(pairs[-1], pairs[-2])


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(horizon=1)
    with pytest.raises(ValueError):
        MpcConfig(v_min=5.0, v_max=1.0)
    with pytest.raises(ValueError):
        MpcConfig(q1=0.0)
    with pytest.raises(ValueError):
        PlatoonController(MpcConfig(), mode="gp")
    # values the controller cannot use; each error names its field
    for name, value in (("acc_min", 1.0), ("acc_max", -1.0), ("q1", np.nan),
                        ("q2", np.nan), ("r", np.inf), ("horizon", 2.5), ("n_av", True),
                        ("step", np.nan), ("v_max", np.inf), ("av_gap", np.inf),
                        ("gap", 10.0), ("gap", (10.0, 0.95))):
        with pytest.raises(ValueError, match=name):
            MpcConfig(**{name: value})
    assert MpcConfig(horizon=np.int64(5), n_av=np.int64(3)).horizon == 5
