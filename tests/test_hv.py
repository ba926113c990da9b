import numpy as np
import pytest

from gpplatoon.gp import Dataset, KernelHyper, SparseGpModel
from gpplatoon.hv import (
    ArxParams,
    DriverTrace,
    HvPlant,
    VelocityHistory,
    _lag1_pairs,
    arx_step,
    build_discrepancy_dataset,
    default_disturbance,
    generate_synthetic_trace,
    rmse,
    arx_prediction_series,
    corrected_prediction_series,
)
from gpplatoon.mpc import MpcConfig
from oracles import constant_history, dc_gain


def test_default_dc_gain_is_unity():
    p = ArxParams.default()
    assert dc_gain(p) == pytest.approx(1.0, abs=0.01)


def test_arx_params_is_an_immutable_value():
    """Coefficients from lists or from copied arrays give a model equal to
    the default that hashes alike; it keeps read-only copies, so editing
    the caller's arrays changes nothing, and a different b is a different
    value."""
    default = ArxParams.default()
    assert ArxParams.default() == default and hash(ArxParams.default()) == hash(default)
    c, b = default.c.copy(), default.b.copy()
    for p in (ArxParams(c=list(c), b=list(b)), ArxParams(c=c, b=b)):
        assert p == default and hash(p) == hash(default)
        assert p.c is not c and p.b is not b
        assert not p.c.flags.writeable and not p.b.flags.writeable
    p = ArxParams(c=c, b=b)
    c *= 2.0
    b[0] = 1.0
    assert p == default
    np.testing.assert_array_equal(p.c, default.c)
    other = ArxParams(c=default.c, b=1.01 * default.b)
    assert other != default and other != "not a model"


def test_arx_zero_history():
    h = constant_history(0.0, 0.0)
    assert arx_step(ArxParams.default(), h.hv, h.av) == 0.0


def test_arx_constant_history_tracks():
    p = ArxParams.default()
    for c in (0.0, 5.0, 20.0, 35.0):
        h = constant_history(c, c)
        assert arx_step(p, h.hv, h.av) == pytest.approx(c, abs=1e-3)


def test_arx_hand_value():
    p = ArxParams.default()
    h = VelocityHistory(hv=np.array([10.0, 10.0, 10.0, 10.0]),
                        av=np.array([12.0, 10.0, 10.0, 10.0]))
    assert arx_step(p, h.hv, h.av) == pytest.approx(10.0126, abs=1e-10)


def test_arx_linearity():
    rng = np.random.default_rng(0)
    p = ArxParams.default()
    for _ in range(10):
        h1 = VelocityHistory(hv=rng.uniform(0, 30, 4), av=rng.uniform(0, 30, 4))
        h2 = VelocityHistory(hv=rng.uniform(0, 30, 4), av=rng.uniform(0, 30, 4))
        a, b = rng.uniform(0, 2, 2)
        combo = VelocityHistory(hv=a * h1.hv + b * h2.hv, av=a * h1.av + b * h2.av)
        assert arx_step(p, combo.hv, combo.av) == pytest.approx(
            a * arx_step(p, h1.hv, h1.av) + b * arx_step(p, h2.hv, h2.av), abs=1e-10
        )


def test_arx_step_maps_lag_maps_to_the_next_velocity_map():
    # rows of (4, m) lags are linear maps; the result, evaluated at a point,
    # is the step on the lag values at that point
    rng = np.random.default_rng(1)
    p = ArxParams.default()
    hv_maps, av_maps = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    point = rng.uniform(0.0, 30.0, 6)
    row = arx_step(p, hv_maps, av_maps)
    assert row.shape == (6,)
    value = arx_step(p, hv_maps @ point, av_maps @ point)
    assert type(value) is np.float64
    assert row @ point == pytest.approx(value, rel=1e-12)


def test_history_validation():
    with pytest.raises(ValueError):
        VelocityHistory(hv=np.ones(3), av=np.ones(4))
    with pytest.raises(ValueError):
        VelocityHistory(hv=np.array([1.0, -1.0, 0.0, 0.0]), av=np.ones(4))


# ---------------------------------------------------------------------------
# discrepancy dataset
# ---------------------------------------------------------------------------


def _arx_only_trace(n=100, step=0.1, profile=lambda t: 10.0 + 3.0 * np.sin(0.3 * t)):
    return generate_synthetic_trace(profile, duration=(n - 1) * step, step=step,
                                    disturbance=lambda vh, va: 0.0, noise_std=0.0)


def test_discrepancy_zero_for_pure_arx_trace():
    trace = _arx_only_trace()
    data = build_discrepancy_dataset(trace, ArxParams.default())
    np.testing.assert_allclose(data.targets, 0.0, atol=1e-12)


def test_discrepancy_row_count():
    trace = _arx_only_trace(n=100)
    data = build_discrepancy_dataset(trace, ArxParams.default())
    assert data.n == 96


def test_discrepancy_matches_replay_oracle():
    # shift the recorded HV series by a constant and replay the recursion
    trace = _arx_only_trace(n=60)
    shifted = DriverTrace(time=trace.time, v_av=trace.v_av, v_hv=trace.v_hv + 0.5)
    params = ArxParams.default()
    data = build_discrepancy_dataset(shifted, params)
    # oracle: step-by-step scripted replay of the one-step prediction
    expected = []
    for j in range(4, shifted.n):
        hv_lags = shifted.v_hv[j - 4: j][::-1]
        av_lags = shifted.v_av[j - 4: j][::-1]
        pred = float(-params.c @ hv_lags + params.b @ av_lags)
        expected.append(shifted.v_hv[j] - pred)
    np.testing.assert_allclose(data.targets, expected, atol=1e-12)
    # constant offset through the recursion leaves 0.5 * (1 + sum(c)) per row
    np.testing.assert_allclose(
        data.targets, 0.5 * (1.0 + params.c.sum()), atol=1e-9
    )


def test_prediction_series_matches_per_sample_steps(driver_traces):
    # the lag-map form sums in another order than one step per sample
    params = ArxParams.default()
    for tr in driver_traces["heldout_control"]:
        pred = arx_prediction_series(tr, params)
        expected = [float(arx_step(params, tr.v_hv[k - 4: k][::-1], tr.v_av[k - 4: k][::-1]))
                    for k in range(4, tr.n)]
        np.testing.assert_array_equal(pred[:4], tr.v_hv[:4])
        np.testing.assert_allclose(pred[4:], expected, rtol=0, atol=1e-13)


def test_discrepancy_rejects_short_trace():
    with pytest.raises(ValueError):
        DriverTrace(time=np.arange(4) * 0.1, v_av=np.zeros(4), v_hv=np.zeros(4))


def test_discrepancy_inputs_are_lagged_pairs():
    trace = _arx_only_trace(n=30)
    data = build_discrepancy_dataset(trace, ArxParams.default())
    np.testing.assert_array_equal(data.inputs[:, 0], trace.v_hv[3:-1])
    np.testing.assert_array_equal(data.inputs[:, 1], trace.v_av[3:-1])


# ---------------------------------------------------------------------------
# corrected prediction
# ---------------------------------------------------------------------------


def _zero_gp(nv=1e-6):
    data = Dataset(inputs=np.array([[5.0, 5.0], [10.0, 10.0], [15.0, 15.0]]),
                   targets=np.zeros(3))
    h = KernelHyper(signal_variance=0.04, length_scales=np.array([25.0, 25.0]),
                    noise_variance=nv)
    return SparseGpModel.from_inducing(data, h, data.inputs)


def _corrected_on_constant_trace(v, n=12):
    """``corrected_prediction_series`` with a GP trained on zero targets on a
    constant trace, after the checks that hold at every velocity: the
    prediction is the ARX one, and the warm-up entries are the recording
    with zero variance. Returns the variances past the warm-up."""
    trace = DriverTrace(time=0.1 * np.arange(n), v_av=np.full(n, v), v_hv=np.full(n, v))
    p = ArxParams.default()
    pred, var = corrected_prediction_series(trace, p, _zero_gp())
    np.testing.assert_allclose(pred, arx_prediction_series(trace, p), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(pred[:4], trace.v_hv[:4])
    np.testing.assert_array_equal(var[:4], 0.0)
    return var[4:]


def test_corrected_equals_arx_for_zero_trained_gp():
    assert np.all(_corrected_on_constant_trace(10.0) <= 1e-6 + 1e-6)


def test_corrected_reverts_to_prior_far_from_data():
    np.testing.assert_allclose(_corrected_on_constant_trace(3000.0), 0.04, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# rmse
# ---------------------------------------------------------------------------


def test_rmse_identical_series():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_rmse_hand_value():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378, abs=1e-12)


def test_rmse_symmetry_and_positivity():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert rmse(a, b) == rmse(b, a) > 0


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# synthetic traces
# ---------------------------------------------------------------------------


def test_synthetic_trace_deterministic():
    prof = lambda t: 10.0 + 5.0 * np.sin(0.2 * t)
    t1 = generate_synthetic_trace(prof, 30.0, 0.1, noise_std=0.05, seed=9)
    t2 = generate_synthetic_trace(prof, 30.0, 0.1, noise_std=0.05, seed=9)
    np.testing.assert_array_equal(t1.v_hv, t2.v_hv)
    np.testing.assert_array_equal(t1.v_av, t2.v_av)


def test_synthetic_trace_zero_disturbance_gives_zero_targets():
    prof = lambda t: 5.0 + 2.0 * np.sin(0.5 * t)
    tr = generate_synthetic_trace(prof, 20.0, 0.1,
                                  disturbance=lambda vh, va: 0.0, noise_std=0.0)
    data = build_discrepancy_dataset(tr, ArxParams.default())
    np.testing.assert_allclose(data.targets, 0.0, atol=1e-12)


def test_synthetic_trace_targets_carry_amplified_output_noise():
    # output noise read back through the recorded lags: each target is
    # eps[k] + c @ eps[k-1..k-4], not white noise
    prof = lambda t: 10.0 + 3.0 * np.sin(0.3 * t)
    sigma, seed = 0.05, 5
    tr = generate_synthetic_trace(prof, 30.0, 0.1, disturbance=lambda vh, va: 0.0,
                                  noise_std=sigma, seed=seed)
    params = ArxParams.default()
    eps = sigma * np.random.default_rng(seed).standard_normal(tr.n)
    expected = [eps[k] + params.c @ eps[k - 4: k][::-1] for k in range(4, tr.n)]
    data = build_discrepancy_dataset(tr, params)
    np.testing.assert_allclose(data.targets, expected, rtol=0, atol=1e-12)


def test_synthetic_trace_steps_the_plant():
    # past the warm-up, each sample is one HvPlant.advance from the
    # warm-up's lags, bit for bit
    prof = lambda t: 10.0 + 3.0 * np.sin(0.3 * t)
    for sigma in (0.0, 0.05):
        tr = generate_synthetic_trace(prof, 30.0, 0.1, noise_std=sigma, seed=4)
        plant = HvPlant("truth", ArxParams.default(), default_disturbance, 0.1,
                        noise=sigma > 0, noise_std=sigma, seed=4, v0=tr.v_av[0])
        if sigma > 0:
            plant.rng.standard_normal(4)     # the warm-up's draws
        plant.v_hat[:] = tr.v_hv[3::-1]
        plant.va[:3] = tr.v_av[2::-1]
        stepped = [plant.advance(tr.v_av[k - 1])[0] for k in range(4, tr.n)]
        np.testing.assert_array_equal(tr.v_hv[4:], stepped)


def test_benchmark_sized_trace_is_pinned():
    # one of the benchmark's training ramps at its length and noise; the
    # warm-up is exact, later samples carry the ARX sums' round-off
    kt = np.array([0, 15, 30, 45, 60, 75, 90, 105, 120], dtype=float)
    kv = np.array([3, 20, 20, 8, 8, 28, 28, 5, 15], dtype=float)
    tr = generate_synthetic_trace(lambda t: float(np.interp(t, kt, kv)), 120.0, 0.1,
                                  noise_std=0.08, seed=0)
    assert tr.n == 1201
    pinned = {0: 3.0100584176874716, 3: 3.008392009372243, 4: 2.9582791559121766,
              5: 3.0336180573169296, 300: 20.535991342175883, 900: 28.43442733737306,
              1200: 14.14803018573049}
    for k, v in pinned.items():
        assert tr.v_hv[k] == pytest.approx(v, rel=0, abs=1e-10)


@pytest.mark.parametrize("kwargs, name", [
    (dict(duration=np.nan), "duration"),
    (dict(duration=np.inf), "duration"),
    (dict(duration=0.0), "duration"),
    (dict(duration=-1.0), "duration"),
    (dict(step=np.nan), "step"),
    (dict(step=0.0), "step"),
    (dict(step=-0.1), "step"),
    (dict(noise_std=np.nan), "noise_std"),
    (dict(noise_std=np.inf), "noise_std"),
    (dict(noise_std=-0.1), "noise_std"),
])
def test_synthetic_trace_rejects_bad_inputs(kwargs, name):
    args = dict(profile=lambda t: 5.0, duration=2.0, step=0.1, noise_std=0.01)
    with pytest.raises(ValueError, match=name):
        generate_synthetic_trace(**{**args, **kwargs})


def test_noise_free_targets_equal_disturbance(driver_traces):
    for tr in driver_traces["heldout_clean"]:
        data = build_discrepancy_dataset(tr, ArxParams.default())
        truth = default_disturbance(data.inputs[:, 0], data.inputs[:, 1])
        np.testing.assert_allclose(data.targets, truth, rtol=0, atol=1e-12)


def test_trace_validation_uniform_grid():
    with pytest.raises(ValueError):
        DriverTrace(time=np.array([0.0, 0.1, 0.3, 0.4, 0.5]),
                    v_av=np.zeros(5), v_hv=np.zeros(5))
    # a zero or negative step is uniform too, but no time grid
    for time in (np.zeros(5), -0.1 * np.arange(5)):
        with pytest.raises(ValueError, match="increasing"):
            DriverTrace(time=time, v_av=np.zeros(5), v_hv=np.zeros(5))
    for name in ("time", "v_av", "v_hv"):
        for bad in (np.nan, np.inf):
            data = dict(time=0.1 * np.arange(5), v_av=np.zeros(5), v_hv=np.zeros(5))
            data[name][2] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                DriverTrace(**data)


# ---------------------------------------------------------------------------
# GP recovery of the known disturbance (session-scoped fit)
# ---------------------------------------------------------------------------


def test_gp_learns_known_disturbance(hv_fit):
    inputs = hv_fit.dataset.inputs
    rng = np.random.default_rng(17)
    idx = rng.choice(inputs.shape[0], size=150, replace=False)
    pts = inputs[idx]
    means, variances = hv_fit.sparse.predict_batch(pts)
    truth = default_disturbance(pts[:, 0], pts[:, 1])
    within = np.abs(means - truth) <= 2.0 * np.sqrt(variances)
    assert within.mean() >= 0.9


def test_arx_only_trace_trains_to_near_zero_mean(driver_traces):
    from gpplatoon.hv import fit_hv_correction

    prof = lambda t: 12.0 + 6.0 * np.sin(0.15 * t)
    tr = generate_synthetic_trace(prof, 60.0, 0.1,
                                  disturbance=lambda vh, va: 0.0, noise_std=0.0)
    fit = fit_hv_correction([tr], fraction=0.3, seed=3, m=10)
    grid = fit.dataset.inputs[::5]
    means, _ = fit.sparse.predict_batch(grid)
    assert np.max(np.abs(means)) <= 1e-3


class _DisturbanceOracle:
    """Stand-in GP that returns the true disturbance with zero variance."""

    def predict_batch(self, pairs):
        pairs = np.asarray(pairs)
        return default_disturbance(pairs[:, 0], pairs[:, 1]), np.zeros(len(pairs))


def test_corrected_beats_arx_on_heldout(driver_traces, hv_fit):
    from gpplatoon.hv import evaluate_models

    params = ArxParams.default()
    # noise-free held-out drives: the ARX one-step error is the disturbance
    for tr in driver_traces["heldout_clean"]:
        res = evaluate_models(tr, params, hv_fit.sparse)
        assert res["corrected_rmse"] < res["arx_rmse"]
        assert res["improvement"] >= 0.2
    # recorded drives: the noise read through the lags caps every
    # predictor's improvement, so the GP is held to a share of the oracle's
    for tr in driver_traces["heldout"]:
        res = evaluate_models(tr, params, hv_fit.sparse)
        oracle = evaluate_models(tr, params, _DisturbanceOracle())
        assert res["corrected_rmse"] < res["arx_rmse"]
        assert res["improvement"] >= 0.8 * oracle["improvement"]


def test_sparse_matches_exact_on_heldout(driver_traces, hv_fit):
    pairs = np.vstack([_lag1_pairs(tr) for tr in driver_traces["heldout"]])
    exact_mean, exact_var = hv_fit.exact.predict_batch(pairs)
    sparse_mean, sparse_var = hv_fit.sparse.predict_batch(pairs)
    assert np.max(np.abs(sparse_mean - exact_mean)) <= 1e-3 * np.max(np.abs(exact_mean))
    assert np.max(np.abs(sparse_var - exact_var)) <= 1e-5 * hv_fit.exact.hyper.signal_variance


@pytest.mark.parametrize("fit_name, traces_name", [
    ("hv_fit", "heldout"),
    ("control_fit", "heldout_control"),
])
def test_one_step_sigma_covers_heldout_residuals(request, driver_traces, fit_name,
                                                 traces_name):
    # the controller tightens the HV gap by the standard-normal quantile of
    # p_def times the one-step sigma it freezes: sqrt(latent variance + noise
    # variance)
    fit = request.getfixturevalue(fit_name)
    data = [build_discrepancy_dataset(tr, ArxParams.default())
            for tr in driver_traces[traces_name]]
    targets = np.concatenate([d.targets for d in data])
    means, variances = fit.sparse.predict_batch(np.vstack([d.inputs for d in data]))
    sigma = np.sqrt(variances + fit.sparse.hyper.noise_variance)
    gap = MpcConfig().gap
    p, n = gap.p_def, targets.size
    covered = np.mean(targets - means <= gap.quantile * sigma)
    assert covered >= p - 3.0 * np.sqrt(p * (1.0 - p) / n)
