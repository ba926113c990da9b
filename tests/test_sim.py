import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gpplatoon.gp import Dataset, KernelHyper, SparseGpModel
from gpplatoon.hv import ArxParams, N_LAGS, arx_step, default_disturbance
import gpplatoon
from gpplatoon import mpc
from gpplatoon import qp as qp_module
from gpplatoon.mpc import MpcConfig
from gpplatoon.sim import (
    HvPlant,
    ScenarioSpec,
    compute_metrics,
    diagnostics_to_csv,
    emergency_brake_profile,
    make_scenario,
    metrics_to_text,
    multiphase_profile,
    realtime_brake_profile,
    result_to_csv,
    run_closed_loop,
    timing_to_text,
)


# ---------------------------------------------------------------------------
# reference profiles
# ---------------------------------------------------------------------------


def test_emergency_profile_values():
    assert emergency_brake_profile(0.0) == 35.0
    assert emergency_brake_profile(39.99) == 35.0
    assert emergency_brake_profile(40.0) == 20.0
    assert emergency_brake_profile(90.0) == 10.0
    assert emergency_brake_profile(105.0) == 2.0
    assert emergency_brake_profile(125.0) == 0.0


def test_realtime_profile_values():
    assert realtime_brake_profile(0.0) == 10.0
    assert realtime_brake_profile(29.99) == 10.0
    assert realtime_brake_profile(30.0) == 5.0
    assert realtime_brake_profile(1000.0) == 5.0


def test_multiphase_profile_peak():
    t = np.linspace(0.0, 180.0, 1801)
    v = np.array([multiphase_profile(tk) for tk in t])
    assert v.max() == pytest.approx(36.5, abs=1e-9)  # peak at the 160 s knot
    assert v.min() >= 0.0


# ---------------------------------------------------------------------------
# HV plant
# ---------------------------------------------------------------------------


def test_plant_reduces_to_arx_without_correction():
    arx = ArxParams.default()
    plant = HvPlant(mode="truth", arx=arx, correction=lambda vh, va: 0.0,
                    step=0.1, noise=False, v0=10.0)
    v, incr = plant.advance(10.0)
    assert incr == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx(10.0, abs=1e-3)  # constant platooning


def test_plant_deterministic_with_seed():
    arx = ArxParams.default()
    runs = []
    for _ in range(2):
        plant = HvPlant(mode="truth", arx=arx, correction=lambda vh, va: 0.0,
                        step=0.1, noise=True, noise_std=0.05, seed=42, v0=5.0)
        vals = [plant.advance(5.0)[0] for _ in range(50)]
        runs.append(vals)
    np.testing.assert_array_equal(runs[0], runs[1])


def _paper_gp():
    inputs = np.array([[4.0, 5.0], [8.0, 8.5], [12.0, 11.0]])
    h = KernelHyper(signal_variance=1e-6, length_scales=np.array([20.0, 20.0]),
                    noise_variance=1e-8)
    return SparseGpModel.from_inducing(
        Dataset(inputs=inputs, targets=np.array([2e-4, -3e-4, 5e-4])), h, inputs)


def test_paper_plant_adds_gp_mean_at_lag1_pair():
    arx, gp = ArxParams.default(), _paper_gp()
    plant = HvPlant(mode="paper", arx=arx, correction=gp, step=0.1, noise=False, v0=8.0)
    for va in (8.0, 8.5, 9.0, 9.2, 9.0, 8.7):
        clean = plant.clean.copy()
        av_lags = np.concatenate([[va], plant.va[: N_LAGS - 1]])
        means, _ = gp.predict_batch(np.array([[plant.velocity, va]]))
        assert abs(means[0]) > 1e-5
        v, _ = plant.advance(va)
        assert v == pytest.approx(arx_step(arx, clean, av_lags) + means[0], abs=1e-12)

    runs = []
    for seed in (9, 9, 10):
        plant = HvPlant(mode="paper", arx=arx, correction=gp, step=0.1, noise=True,
                        seed=seed, v0=8.0)
        runs.append([plant.advance(8.0 + 0.1 * k)[0] for k in range(30)])
    np.testing.assert_array_equal(runs[0], runs[1])
    assert min(runs[0]) > 0.0 and not np.array_equal(runs[0], runs[2])


def test_paper_plant_requires_gp_model():
    with pytest.raises(ValueError):
        HvPlant(mode="paper", arx=ArxParams.default(),
                correction=lambda vh, va: 0.0, step=0.1)


def test_plant_velocity_clamped_at_zero():
    arx = ArxParams.default()
    plant = HvPlant(mode="truth", arx=arx, correction=lambda vh, va: -5.0,
                    step=0.1, v0=0.2)
    assert not plant.clamped
    for _ in range(20):
        v, _ = plant.advance(0.0)
        assert v >= 0.0
        assert plant.clamped == (v == 0.0)


def test_plant_reads_do_not_alias_its_lags():
    # advance shifts the lag arrays in place; what was read before must not move
    plant = HvPlant(mode="truth", arx=ArxParams.default(), correction=lambda vh, va: 0.01,
                    step=0.1, noise=True, noise_std=0.05, seed=3, v0=6.0)
    plant.advance(6.5)
    hist = plant.history(7.0)
    kept = (hist.hv.copy(), hist.av.copy())
    outs = [plant.advance(7.0 + 0.1 * k) for k in range(6)]
    np.testing.assert_array_equal(hist.hv, kept[0])
    np.testing.assert_array_equal(hist.av, kept[1])
    # the new history holds the outputs, newest first
    np.testing.assert_array_equal(plant.history(8.0).hv, [v for v, _ in outs[:-5:-1]])


@pytest.mark.parametrize("kwargs, name", [
    (dict(step=np.nan), "step"),
    (dict(step=0.0), "step"),
    (dict(step=-0.1), "step"),
    (dict(noise_std=np.nan), "noise_std"),
    (dict(noise_std=np.inf), "noise_std"),
    (dict(noise_std=-0.1), "noise_std"),
    (dict(v0=np.nan), "v0"),
    (dict(v0=np.inf), "v0"),
    (dict(v0=-1.0), "v0"),
    (dict(v_cap=np.nan), "v_cap"),
    (dict(v_cap=np.inf), "v_cap"),
    (dict(v_cap=0.0), "v_cap"),
    (dict(v_cap=-5.0), "v_cap"),
])
def test_plant_rejects_bad_inputs(kwargs, name):
    args = dict(mode="truth", arx=ArxParams.default(), correction=lambda vh, va: 0.0,
                step=0.1, noise=True, noise_std=0.05, v0=5.0, v_cap=37.0)
    with pytest.raises(ValueError, match=name):
        HvPlant(**{**args, **kwargs})


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def test_rest_scenario_stays_at_rest():
    spec = make_scenario("rest", duration=5.0)
    result = run_closed_loop(spec, controller="nominal")
    np.testing.assert_allclose(result.av_vel, 0.0, atol=1e-9)
    np.testing.assert_allclose(result.hv_vel, 0.0, atol=1e-9)
    metrics = compute_metrics(result)
    np.testing.assert_allclose(metrics.traveled, 0.0, atol=1e-9)
    assert metrics.min_av_gap == pytest.approx(12.0, abs=1e-9)
    assert metrics.min_hv_gap == pytest.approx(12.0, abs=1e-9)


def test_closed_loop_row_count_and_determinism():
    spec = make_scenario("rest", duration=3.0, noise=True, seed=5)
    r1 = run_closed_loop(spec, controller="nominal")
    r2 = run_closed_loop(spec, controller="nominal")
    assert r1.time.size == 30
    np.testing.assert_array_equal(r1.av_pos, r2.av_pos)
    np.testing.assert_array_equal(r1.hv_pos, r2.hv_pos)
    np.testing.assert_array_equal(r1.hv_vel, r2.hv_vel)


def test_vehicle_ordering_preserved_short_emergency(control_fit):
    spec = make_scenario("emergency", duration=30.0, noise=True, seed=1)
    for kind in ("nominal", "gp"):
        result = run_closed_loop(spec, controller=kind,
                                 gp_model=control_fit.sparse)
        for k in range(result.time.size):
            ps = np.concatenate([result.av_pos[:, k], [result.hv_pos[k]]])
            assert np.all(np.diff(ps) < 0), f"ordering broken at step {k}"
        assert np.all(result.av_vel >= -1e-12)
        assert np.all(result.hv_vel >= 0.0)


def test_wltp_nominal_run_solves_every_step_within_bounds():
    """The full 180 s multiphase profile under nominal control: every one of
    its 1800 steps solves to optimality, the HV never reaches the last AV,
    and the applied accelerations and AV velocities keep their bounds."""
    spec = make_scenario("wltp")
    cfg = spec.cfg
    result = run_closed_loop(spec, controller="nominal")
    assert result.time.size == 1800
    assert list(result.status) == ["optimal"] * 1800
    assert result.events == []
    assert np.all(result.hv_gap() > 0.0)
    assert np.all((result.av_acc >= cfg.acc_min) & (result.av_acc <= cfg.acc_max))
    assert np.all((result.av_vel >= cfg.v_min) & (result.av_vel <= cfg.v_max))


def test_realtime_nominal_run_solves_every_step_within_bounds():
    """The 60 s realtime profile under nominal control, with its own sample
    time (0.25 s) and input weight (r = 15), so a third template shape: all
    240 steps solve to optimality with no events, and the HV gap never drops
    below delta. The bounds are checked to 1e-9 rather than exactly: the
    applied acceleration reaches acc_max + 2e-15 there, which the solver's
    feasibility tolerance (1e-10 (1 + |h|)) accepts."""
    spec = make_scenario("realtime")
    cfg = spec.cfg
    result = run_closed_loop(spec, controller="nominal")
    assert result.time.size == 240
    assert list(result.status) == ["optimal"] * 240
    assert result.events == []
    assert result.hv_gap().min() >= cfg.gap.delta - 1e-9
    assert np.all((result.av_acc >= cfg.acc_min - 1e-9) & (result.av_acc <= cfg.acc_max + 1e-9))
    assert np.all((result.av_vel >= cfg.v_min - 1e-9) & (result.av_vel <= cfg.v_max + 1e-9))


def test_gp_run_counts_one_batch_per_step(control_fit):
    class CountingGp:
        def __init__(self, inner):
            self.inner, self.hyper, self.calls = inner, inner.hyper, 0

        def predict_batch(self, xs):
            self.calls += 1
            return self.inner.predict_batch(xs)

    gp = CountingGp(control_fit.sparse)
    result = run_closed_loop(make_scenario("rest", duration=2.0), controller="gp", gp_model=gp)
    assert gp.calls == result.time.size


def _pinned_gp():
    """A sparse GP at fixed hyperparameters, so no optimizer runs: the
    ground-truth disturbance on a 6 x 6 grid of velocity pairs, with every
    second grid point an inducing input."""
    v = np.linspace(0.0, 35.0, 6)
    inputs = np.stack(np.meshgrid(v, v), axis=-1).reshape(-1, 2)
    h = KernelHyper(signal_variance=1e-2, length_scales=np.array([5.0, 5.0]),
                    noise_variance=0.05)
    data = Dataset(inputs=inputs, targets=default_disturbance(inputs[:, 0], inputs[:, 1]))
    return SparseGpModel.from_inducing(data, h, inputs[::2])


# Samples of 10 s of the emergency scenario with plant noise (seed 3),
# recorded at commit 3ab33c4: at steps 10, 50 and 99, the positions and
# velocities of the leader and the trailing AV, the trailing AV's applied
# acceleration, the HV's position and velocity, the gap bound and the
# terminal position variance. Runs on one BLAS thread and on the default
# threads differ from each other by up to 1.4e-12.
PINNED_STEPS = (10, 50, 99)
PINNED_TOL = 1e-9
PINNED = {
    "nominal-2x20": ("nominal", MpcConfig(), [], [
        [1.799999999999996, -10.848241216224467, 3.999999999999991, 2.708202385576328,
         3.100908161507939, -23.981594623150983, 0.14198023885919334, 10.0, 0.0],
        [48.9999999999999, 27.37846589574379, 19.999999999999957, 17.201265733523897,
         3.775243576387047, -2.4684612655632, 14.894057211725476, 10.0, 0.0],
        [184.34028230166146, 149.27403913422893, 32.33027280808286, 30.863551991097662,
         2.1131699838379765, 130.9357617396673, 35.425493906723055, 10.0, 0.0],
    ]),
    "nominal-8x40": ("nominal", MpcConfig(n_av=8, horizon=40),
                     [(1, "hv_velocity_clamped"), (3, "hv_velocity_clamped")], [
        [1.80000000000001, -83.88917854397467, 4.000000000000021, 0.2807396809776991,
         0.3860981144226106, -95.99843154212535, 0.014393178383630068, 10.0, 0.0],
        [49.00000000000008, -77.80009227083812, 20.000000000000014, 3.340208275730885,
         1.1194784556843578, -93.12427686035696, 2.290306560357079, 10.0, 0.0],
        [177.8821974260351, -46.562286940041396, 29.502137681279383, 9.748699227836582,
         1.3748930666347512, -63.953122895693426, 10.046766245432693, 10.0, 0.0],
    ]),
    "gp-2x20": ("gp", MpcConfig(), [], [
        [1.799999999999996, -10.848241216224467, 3.999999999999991, 2.708202385576328,
         3.100908161507939, -23.981594623150983, 0.14198023885919334, 10.183713375931948,
         0.012474611873346295],
        [48.9999999999999, 27.37846589574379, 19.999999999999957, 17.201265733523897,
         3.775243576387047, -2.4684612655632, 14.894057211725476, 10.184516549621907,
         0.01258392543384847],
        [184.34566241516646, 149.29172164253404, 32.35022742160749, 30.923855614250076,
         2.171134379430482, 130.9357909627171, 35.42608325777248, 10.184634359448395,
         0.012599999692230721],
    ]),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_short_loop_matches_pinned_samples(case):
    controller, cfg, events, samples = PINNED[case]
    spec = make_scenario("emergency", duration=10.0, noise=True, seed=3, cfg=cfg)
    r = run_closed_loop(spec, controller=controller, gp_model=_pinned_gp())
    assert r.status == ["optimal"] * 100
    assert r.events == events
    got = [[r.av_pos[0, k], r.av_pos[-1, k], r.av_vel[0, k], r.av_vel[-1, k], r.av_acc[-1, k],
            r.hv_pos[k], r.hv_vel[k], r.gap_bound[k], r.sigma_terminal[k]] for k in PINNED_STEPS]
    np.testing.assert_allclose(got, samples, rtol=0, atol=PINNED_TOL)


def test_single_step_distance():
    spec = make_scenario("rest", duration=0.1)
    result = run_closed_loop(spec, controller="nominal")
    assert result.time.size == 1
    # one recorded step at rest: traveled distance 0; hand case: v = 1
    from gpplatoon.sim import SimResult

    res = SimResult(time=np.array([0.0, 0.1]),
                    av_pos=np.array([[0.0, 0.1]]), av_vel=np.array([[1.0, 1.0]]),
                    av_acc=np.zeros((1, 2)), hv_pos=np.array([-12.0, -11.9]),
                    hv_vel=np.ones(2), solve_time=np.zeros(2), status=["optimal"] * 2,
                    iterations=np.ones(2, dtype=int), gap_bound=np.full(2, 10.0),
                    sigma_terminal=np.zeros(2), events=[])
    metrics = compute_metrics(res)
    assert metrics.traveled[0] == pytest.approx(0.1, abs=1e-12)


def test_result_csv_layout(tmp_path):
    spec = make_scenario("rest", duration=1.0)
    result = run_closed_loop(spec, controller="nominal")
    path = tmp_path / "result.csv"
    result_to_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,p_av1,v_av1,acc_av1,p_av2,v_av2,acc_av2,"
                        "p_hv,v_hv,gap_av,gap_hv")
    assert len(lines) == 1 + result.time.size
    diag = tmp_path / "diag.csv"
    diagnostics_to_csv(result, diag)
    dlines = diag.read_text().splitlines()
    assert dlines[0] == "k,solve_time_s,status,iters,min_gap_bound,sigma_terminal"
    metrics = compute_metrics(result)
    metrics_path = tmp_path / "metrics.txt"
    metrics_to_text(metrics, metrics_path)
    text = metrics_path.read_text()
    assert "min_hv_gap = 12" in text
    assert "solve_time" not in text  # wall clock segregated from data outputs
    timing_path = tmp_path / "timing.txt"
    timing_to_text(metrics, timing_path)
    keys = [ln.split(" = ")[0] for ln in timing_path.read_text().splitlines()]
    assert keys == ["solve_time_mean_s", "solve_time_max_s", "solve_time_std_s"]

    # one AV has no adjacent AV gap: written and reduced as inf
    single = run_closed_loop(make_scenario("rest", duration=1.0, cfg=MpcConfig(n_av=1)),
                             controller="nominal")
    result_to_csv(single, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_av1,v_av1,acc_av1,p_hv,v_hv,gap_av,gap_hv"
    assert lines[1] == "0,-0,0,0,-12,0,inf,12"
    assert all(ln.split(",")[6] == "inf" for ln in lines[1:])
    assert compute_metrics(single).min_av_gap == np.inf


def test_scenario_validation():
    with pytest.raises(ValueError, match="integral number of steps"):
        ScenarioSpec(name="rest", duration=1.05)
    for build in (lambda: make_scenario("nope"), lambda: ScenarioSpec(name="nonexistent")):
        with pytest.raises(ValueError, match="unknown scenario"):
            build()
    # the vehicles start 1.2 av_gap apart, which must exceed the HV gap bound
    with pytest.raises(ValueError, match="initial spacing"):
        ScenarioSpec(name="rest", duration=1.0, cfg=MpcConfig(av_gap=8.0))


@pytest.mark.parametrize("name, value", [
    ("duration", -1.0), ("duration", 0.0), ("duration", np.nan), ("duration", np.inf),
    ("plant_noise_std", np.nan), ("plant_noise_std", np.inf), ("plant_noise_std", -0.1),
    ("seed", -1), ("seed", 1.5)])
def test_scenario_rejects_bad_number(name, value):
    with pytest.raises(ValueError, match=name):
        make_scenario("emergency", **{name: value})


def test_scenario_profile_follows_its_name():
    assert make_scenario("emergency").profile() is emergency_brake_profile
    assert make_scenario("realtime").profile() is realtime_brake_profile
    with pytest.raises(ValueError, match="emergency"):
        ScenarioSpec(name="x")


def test_realtime_preset_uses_its_sample_time():
    spec = make_scenario("realtime")
    assert (spec.cfg.step, spec.cfg.r, spec.steps) == (0.25, 15.0, 240)


@pytest.mark.parametrize("controller, plant_mode, message", [
    ("bogus", "truth", "unknown controller mode 'bogus'"),
    ("gp", "truth", "gp mode requires a trained sparse GP model"),
    ("nominal", "paper", "paper mode needs a trained GP model"),
], ids=["unknown-controller", "gp-without-model", "paper-plant-without-model"])
def test_gp_controller_requires_model(controller, plant_mode, message):
    # the controller and the plant the loop builds reject these inputs
    spec = make_scenario("rest", duration=1.0, plant_mode=plant_mode)
    with pytest.raises(ValueError, match=message):
        run_closed_loop(spec, controller=controller)


def test_events_name_violated_row_and_hv_clamps():
    spec = make_scenario("emergency", duration=20.0, noise=True, seed=1,
                         plant_noise_std=0.02)
    result = run_closed_loop(spec, controller="nominal")
    fallbacks = {k: e for k, e in result.events if e.startswith("fallback")}
    assert set(fallbacks) == {k for k, s in enumerate(result.status) if s != "optimal"}
    labelled = 0
    for k, event in fallbacks.items():
        _, status, *row = event.split(":")
        assert status == result.status[k]
        if row:
            assert re.fullmatch(r"(av_gap|v_max|v_min|acc_max|acc_min)\[\d+,\d+\]"
                                r"|hv_gap\[\d+\]", row[0])
            labelled += 1
    assert labelled > 0
    # the HV clamps on exactly the steps after which its velocity sits at a bound
    clamped = [k for k, e in result.events if e == "hv_velocity_clamped"]
    assert clamped
    assert len(set(clamped)) == len(clamped)
    at_bound = (result.hv_vel[1:] == 0.0) | (result.hv_vel[1:] == spec.cfg.v_max)
    assert set(clamped) - {result.time.size - 1} == set(np.flatnonzero(at_bound))


def test_nominal_closed_loop_at_n_av_8_horizon_80(monkeypatch):
    """A short nominal loop on 640 variables and 3200 rows, whose active
    sets (57 rows at step 0, then 50 to 56 from hints) outgrow the solver's
    16-row buffers twice: every step solves to optimality, with a KKT
    residual that stays small when taken with full dense products."""
    residuals, sizes = [], []

    def recording(qp, **kwargs):
        sol = qp_module.solve_qp(qp, **kwargs)
        g, mu = qp.ineq_matrix.toarray(), sol.ineq_multipliers
        slack = qp.ineq_vector - g @ sol.x
        grad = qp.cost_matrix @ sol.x + qp.cost_vector + g.T @ mu
        residuals.append(float(max(np.max(np.abs(grad)), np.max(-slack), np.max(-mu),
                                   np.max(np.abs(mu * slack)))))
        sizes.append(len(sol.active))
        return sol

    monkeypatch.setattr(mpc, "solve_qp", recording)
    cfg = MpcConfig(n_av=8, horizon=80)
    try:
        res = run_closed_loop(make_scenario("emergency", cfg=cfg, duration=1.0, seed=1),
                              controller="nominal")
    finally:
        mpc._structure.cache_clear()  # its P and J alone are 3 MB each
    assert list(res.status) == ["optimal"] * 10
    assert res.iterations[0] >= 50
    assert len(residuals) == 10 and max(residuals) <= 1e-6
    assert min(sizes) > 32


def test_nominal_loop_never_loads_the_optimizer():
    """Only the GP fit uses scipy.optimize (about 15 MB), and it imports it
    itself: a fresh process that runs a nominal closed loop never loads it,
    and a fit in that process then loads it and gives the in-process fit's
    hyperparameters, bit for bit."""
    from gpplatoon.hv import fit_hv_correction, generate_synthetic_trace

    script = textwrap.dedent("""
        import sys
        import numpy as np
        from gpplatoon import sim
        from gpplatoon.hv import fit_hv_correction, generate_synthetic_trace
        res = sim.run_closed_loop(sim.make_scenario("emergency", duration=3.0),
                                  controller="nominal")
        assert len(res.status) == 30 and set(res.status) == {"optimal"}, res.status
        loaded = [m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"]]
        assert not loaded, loaded
        tr = generate_synthetic_trace(lambda t: 12.0 + 6.0 * np.sin(0.15 * t), 60.0, 0.1,
                                      noise_std=0.01, seed=4)
        fit = fit_hv_correction([tr], fraction=0.3, seed=3, m=10)
        assert "scipy.optimize" in sys.modules
        print(*(float(v).hex() for v in fit.exact.hyper.to_log_vector()))
    """)
    src = str(Path(gpplatoon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    tr = generate_synthetic_trace(lambda t: 12.0 + 6.0 * np.sin(0.15 * t), 60.0, 0.1,
                                  noise_std=0.01, seed=4)
    fit = fit_hv_correction([tr], fraction=0.3, seed=3, m=10)
    assert out.stdout.split() == [float(v).hex() for v in fit.exact.hyper.to_log_vector()]
