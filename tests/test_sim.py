import numpy as np
import pytest

from gpplatoon.gp import Dataset, KernelHyper, SparseGpModel, load_dataset_csv
from gpplatoon.hv import ArxParams, N_LAGS, arx_step, load_trace_csv
from gpplatoon.mpc import MpcConfig
from gpplatoon.sim import (
    HvPlant,
    ScenarioSpec,
    compute_metrics,
    diagnostics_to_csv,
    emergency_brake_profile,
    load_velocity_profile,
    make_scenario,
    metrics_to_text,
    multiphase_profile,
    realtime_brake_profile,
    result_to_csv,
    run_closed_loop,
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


def test_load_profile_interpolates(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,v_ref\n0,0\n1,1\n")
    series = load_velocity_profile(path, step=0.5)
    np.testing.assert_allclose(series, [0.0, 0.5, 1.0], atol=1e-12)


def test_load_profile_clamps_with_warning(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,v_ref\n0,-1\n1,5\n")
    with pytest.warns(UserWarning):
        series = load_velocity_profile(path, step=1.0)
    assert series[0] == 0.0


# every CSV loader: its header and a valid row of k
CSV_LOADERS = (
    (lambda path: load_velocity_profile(path, step=0.5), "t,v_ref",
     lambda k: f"{k},{k}"),
    (load_trace_csv, "t,v_av,v_hv", lambda k: f"{0.1 * k},5,5"),
    (load_dataset_csv, "a1,a2,g", lambda k: f"{k},{k},0.5"),
)


def test_load_profile_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v_ref\n0,0\nnope\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        load_velocity_profile(bad, step=0.5)
    nonmono = tmp_path / "nm.csv"
    nonmono.write_text("t,v_ref\n0,0\n2,1\n1,2\n")
    with pytest.raises(ValueError, match="increasing"):
        load_velocity_profile(nonmono, step=0.5)
    nan_time = tmp_path / "nan_t.csv"
    nan_time.write_text("t,v_ref\n0,0\nnan,1\n2,2\n")
    with pytest.raises(ValueError, match="nan_t.csv:3: non-finite"):
        load_velocity_profile(nan_time, step=0.5)
    headless = tmp_path / "headless.csv"
    headless.write_text("0,0\n1,1\n2,2\n")
    with pytest.raises(ValueError, match="headless.csv:1: expected header"):
        load_velocity_profile(headless, step=0.5)

    # every loader names the raw line number, counting blank and comment lines
    for load, header, row in CSV_LOADERS:
        good = [row(k) for k in range(6)]
        ok = tmp_path / "ok.csv"
        ok.write_text("# written by hand\n\n" + header + "\n# six rows\n"
                      + "\n\n".join(good) + "\n")
        load(ok)
        n_fields = header.count(",") + 1
        cases = {
            "header": ("# c\n\n" + "x" + header + "\n" + "\n".join(good), 3),
            "fields": (header + "\n\n" + good[0] + "\n\n" + good[1] + ",1", 5),
            "number": (header + "\n" + good[0] + "\n\n# c\n" + "1," * (n_fields - 1)
                       + "x1", 5),
        }
        for bad_value in ("nan", "inf", "-inf"):
            cases[bad_value] = (header + "\n\n" + good[0] + "\n\n"
                                + ",".join([bad_value] + ["1"] * (n_fields - 1)), 5)
        for what, (text, line) in cases.items():
            path = tmp_path / f"{what}.csv"
            path.write_text(text + "\n" + "\n".join(good[2:]) + "\n")
            with pytest.raises(ValueError, match=rf"{what}\.csv:{line}: "):
                load(path)


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
    for _ in range(20):
        v, _ = plant.advance(0.0)
        assert v >= 0.0


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


def test_gp_run_counts_one_batch_per_step(control_fit):
    spec = make_scenario("rest", duration=2.0)
    result = run_closed_loop(spec, controller="gp", gp_model=control_fit.sparse)
    assert result.gp_batch_evals == result.time.size


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
                    sigma_terminal=np.zeros(2), events=[], controller="nominal",
                    gp_batch_evals=0)
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
    metrics_path = tmp_path / "metrics.txt"
    metrics_to_text(compute_metrics(result), metrics_path)
    text = metrics_path.read_text()
    assert "min_hv_gap = 12" in text
    assert "solve_time" not in text  # wall clock segregated from data outputs


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", duration=1.05)
    with pytest.raises(ValueError):
        make_scenario("nope")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", duration=1.0, spacing_factor=0.9)


def test_scenario_profile_follows_its_name():
    assert make_scenario("emergency").profile() is emergency_brake_profile
    assert make_scenario("realtime").profile() is realtime_brake_profile
    with pytest.raises(ValueError, match="emergency"):
        ScenarioSpec(name="x").profile()


def test_realtime_preset_uses_its_sample_time():
    spec = make_scenario("realtime")
    assert (spec.cfg.step, spec.cfg.r, spec.steps) == (0.25, 15.0, 240)


def test_gp_controller_requires_model():
    spec = make_scenario("rest", duration=1.0)
    with pytest.raises(ValueError):
        run_closed_loop(spec, controller="gp")
