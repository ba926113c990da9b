"""What the closed-loop benchmark in ``bench/`` needs of the program.

``bench/tracer.py`` wraps program functions by module and attribute name,
and the harness binds ``solve_qp`` arguments by name, reads the
controller's default solver tolerance and takes the value of the first
traced ``gp.log_marginal_likelihood`` call as the initial LML of the fit.
These tests import the tracer without changing it, so removing or
renaming any of those fails here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from gpplatoon import gp, mpc, qp, sim

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while it loads
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_hook_target_resolves(tracer):
    assert tracer.HOOKS
    for hook in tracer.HOOKS:
        _, _, target = tracer.resolve(hook)
        assert callable(target), hook.name


def test_solve_qp_keeps_benchmark_parameters():
    for fn in (qp.solve_qp, mpc.solve_qp):
        params = inspect.signature(fn).parameters
        assert {"qp", "tol", "max_iter", "active_hint"} <= set(params)


def test_controller_keeps_solver_tol():
    default = inspect.signature(mpc.PlatoonController).parameters["solver_tol"].default
    assert isinstance(default, float) and default > 0


def test_scenario_keeps_benchmark_overrides():
    cfg = mpc.MpcConfig(n_av=3, horizon=5)
    spec = sim.make_scenario("emergency", noise=True, plant_noise_std=0.02,
                             duration=1.0, cfg=cfg, seed=7)
    assert (spec.noise, spec.plant_noise_std, spec.duration, spec.cfg, spec.seed) == \
        (True, 0.02, 1.0, cfg, 7)


def test_qp_keeps_equality_fields():
    prog = qp.QuadraticProgram(cost_matrix=[[2.0]], cost_vector=[-2.0],
                               ineq_matrix=[[1.0]], ineq_vector=[0.5])
    sol = qp.solve_qp(prog, tol=1e-6)
    assert prog.eq_matrix.shape == (0, 1) and prog.eq_vector.shape == (0,)
    assert sol.eq_multipliers.shape == (0,)


def test_train_exact_evaluates_through_module_once_per_point(monkeypatch):
    rng = np.random.default_rng(4)
    x = 20.0 + rng.normal(size=(40, 2))
    data = gp.Dataset(inputs=x, targets=np.sin(x[:, 0]) + 0.1 * rng.normal(size=40))
    init = gp.KernelHyper(signal_variance=0.5, length_scales=np.array([2.0, 3.0]),
                          noise_variance=0.05)
    lml = gp.log_marginal_likelihood
    thetas = []

    def counting(data_, hyper, **kwargs):
        thetas.append(hyper.to_log_vector())
        return lml(data_, hyper, **kwargs)

    monkeypatch.setattr(gp, "log_marginal_likelihood", counting)
    gp.train_exact(data, init)
    theta0 = init.to_log_vector()
    assert len(thetas) > 2
    np.testing.assert_allclose(thetas[0], theta0, rtol=0, atol=1e-12)
    assert sum(np.allclose(t, theta0, rtol=0, atol=1e-12) for t in thetas) == 1
