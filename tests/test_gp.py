import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.stats import norm

from gpplatoon import gp as gp_module
from gpplatoon import hv as hv_module
from gpplatoon.gp import (
    Dataset,
    GpModel,
    IllConditionedKernelError,
    KernelHyper,
    SparseGpModel,
    build_sparse,
    fic_log_marginal_likelihood,
    kernel_eval,
    load_dataset_csv,
    load_model,
    log_marginal_likelihood,
    normal_quantile,
    save_dataset_csv,
    save_model,
    train_exact,
)


def _hyper(sv=1.0, ls=(1.0, 1.0), nv=0.1):
    return KernelHyper(signal_variance=sv, length_scales=np.array(ls), noise_variance=nv)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_zero_distance():
    h = _hyper(sv=2.5)
    assert kernel_eval([3.0, -1.0], [3.0, -1.0], h) == pytest.approx(2.5, abs=1e-15)


def test_kernel_hand_values():
    h = _hyper(sv=1.0, ls=(1.0, 1.0))
    v = kernel_eval([1.0, 1.0], [0.0, 0.0], h)
    assert v == pytest.approx(math.exp(-1.0), abs=1e-12)
    h2 = _hyper(sv=1.0, ls=(4.0, 1.0))
    v2 = kernel_eval([2.0, 0.0], [0.0, 0.0], h2)
    assert v2 == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    h = _hyper(sv=1.7, ls=(0.5, 3.0), nv=0.01)
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert kernel_eval(x, y, h) == pytest.approx(kernel_eval(y, x, h), rel=1e-15)
        assert 0.0 < kernel_eval(x, y, h) <= h.signal_variance


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval([1.0], [1.0, 2.0], _hyper())
    with pytest.raises(ValueError):
        kernel_eval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], _hyper(ls=(1.0, 1.0)))


def test_hyper_validation():
    with pytest.raises(ValueError):
        KernelHyper(signal_variance=-1.0, length_scales=np.ones(2), noise_variance=0.1)
    with pytest.raises(ValueError):
        KernelHyper(signal_variance=1.0, length_scales=np.array([1.0, 0.0]),
                    noise_variance=0.1)
    with pytest.raises(ValueError):
        KernelHyper(signal_variance=1.0, length_scales=np.ones(2), noise_variance=0.0)


def test_hyper_keeps_its_own_length_scales():
    ls = np.array([1.0, 2.0])
    h = KernelHyper(signal_variance=1.0, length_scales=ls, noise_variance=0.1)
    ls[0] = 5.0
    assert not h.length_scales.flags.writeable
    np.testing.assert_array_equal(h.length_scales, [1.0, 2.0])


# ---------------------------------------------------------------------------
# log marginal likelihood
# ---------------------------------------------------------------------------


def test_lml_scalar_closed_form():
    # n = 1: value = -0.5 g^2 / (sv + nv) - 0.5 log(sv + nv) - 0.5 log(2 pi)
    data0 = Dataset(inputs=np.zeros((1, 1)), targets=np.array([0.0]))
    h = KernelHyper(signal_variance=0.6, length_scales=np.ones(1), noise_variance=0.4)
    v0, _ = log_marginal_likelihood(data0, h)
    assert v0 == pytest.approx(-0.9189385332046727, abs=1e-9)
    data1 = Dataset(inputs=np.zeros((1, 1)), targets=np.array([1.0]))
    v1, _ = log_marginal_likelihood(data1, h)
    assert v1 == pytest.approx(-1.4189385332046727, abs=1e-9)


def _fd_gradient(data, hyper, step=1e-5):
    theta = hyper.to_log_vector()
    fd = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += step
        tm[i] -= step
        vp, _ = log_marginal_likelihood(data, KernelHyper.from_log_vector(tp))
        vm, _ = log_marginal_likelihood(data, KernelHyper.from_log_vector(tm))
        fd[i] = (vp - vm) / (2.0 * step)
    return fd


def test_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(3, 31)
        d = rng.integers(1, 3)
        data = Dataset(inputs=rng.normal(size=(n, d)) * 2.0,
                       targets=rng.normal(size=n))
        hyper = KernelHyper(
            signal_variance=float(rng.uniform(0.2, 3.0)),
            length_scales=rng.uniform(0.3, 4.0, size=d),
            noise_variance=float(rng.uniform(0.01, 0.5)),
        )
        _, grad = log_marginal_likelihood(data, hyper)
        fd = _fd_gradient(data, hyper)
        denom = np.maximum.reduce([np.abs(grad), np.abs(fd), np.full_like(fd, 1e-3)])
        assert np.max(np.abs(grad - fd) / denom) <= 1e-4


def _lml_reference(data, hyper):
    """LML and gradient from the explicit inverse C^-1 and a loop over the
    input dimensions, one n x n derivative matrix per dimension."""
    n = data.n
    x = data.inputs
    k = gp_module._kernel_matrix(x, x, hyper)
    chol = cholesky(k + (hyper.noise_variance + gp_module.JITTER) * np.eye(n), lower=True)
    alpha = cho_solve((chol, True), data.targets)
    value = (-0.5 * float(data.targets @ alpha) - float(np.sum(np.log(np.diag(chol))))
             - 0.5 * n * math.log(2.0 * math.pi))
    m = np.outer(alpha, alpha) - cho_solve((chol, True), np.eye(n))
    grad = np.empty(hyper.n_dims + 2)
    grad[0] = 0.5 * float(np.sum(m * k))
    for d in range(hyper.n_dims):
        sqd = (x[:, d, None] - x[None, :, d]) ** 2
        dk = k * (0.5 * sqd / hyper.length_scales[d])
        grad[1 + d] = 0.5 * float(np.sum(m * dk))
    grad[-1] = 0.5 * hyper.noise_variance * float(np.trace(m))
    return value, grad


@pytest.mark.parametrize("n", [50, 300])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lml_matches_explicit_inverse_reference(n, d):
    # inputs near 20 m/s like the velocity pairs of the HV model; checked at
    # a random point and at the fitted optimum, where the gradient is 1e-8 to 1e-4
    rng = np.random.default_rng(100 * n + d)
    x = 20.0 + 1.5 * rng.normal(size=(n, d))
    data = Dataset(inputs=x, targets=0.3 * np.sin(x[:, 0] - 20.0) + 0.05 * rng.normal(size=n))
    random_point = KernelHyper(signal_variance=float(rng.uniform(0.1, 2.0)),
                               length_scales=rng.uniform(0.5, 10.0, size=d),
                               noise_variance=float(rng.uniform(1e-3, 0.1)))
    fitted = train_exact(data, KernelHyper(0.5, np.full(d, 2.0), 0.01)).hyper
    for hyper in (random_point, fitted):
        value, grad = log_marginal_likelihood(data, hyper)
        ref_value, ref_grad = _lml_reference(data, hyper)
        assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
        assert np.all(np.abs(grad - ref_grad) <= 1e-9 * np.maximum(1.0, np.abs(ref_grad)))


def _log_bounds(size):
    """The box train_exact searches over log-hyperparameters."""
    lo = np.full(size, -30.0)
    lo[-1] = math.log(gp_module.NOISE_FLOOR)
    return lo, np.full(size, 30.0)


def test_lml_matches_reference_along_a_benchmark_sized_fit(control_fit):
    # two ramp traces at noise 0.08, a fifth of their points (n = 479, d = 2),
    # checked at the start, at clip(theta0 + grad LML(theta0)) (log noise at
    # its bound of 30, where the signal-variance term is smallest; the first
    # trial point of L-BFGS-B on the NLL summed over the points) and at the
    # fitted optimum
    data = control_fit.dataset
    assert data.n > 400 and data.n_dims == 2
    lml = gp_module.log_marginal_likelihood
    start = hv_module._init_hyper(data)
    theta0 = start.to_log_vector()
    theta1 = np.clip(theta0 + lml(data, start)[1], *_log_bounds(theta0.size))
    assert theta1[-1] == 30.0
    at_bound = KernelHyper.from_log_vector(theta1)
    fitted = control_fit.exact.hyper
    for hyper in (start, at_bound, fitted):
        value, grad = lml(data, hyper)
        ref_value, ref_grad = _lml_reference(data, hyper)
        assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
        assert np.all(np.abs(grad - ref_grad) <= 1e-9 * np.maximum(1.0, np.abs(ref_grad)))
    # at the bound the signal-variance term is about -1.6e-13, far below the
    # absolute floor above, so it is checked relative to itself: a form that
    # cancels terms of order n loses it
    grad0 = lml(data, at_bound)[1][0]
    ref_grad0 = _lml_reference(data, at_bound)[1][0]
    assert ref_grad0 != 0.0
    assert abs(grad0 - ref_grad0) <= 1e-6 * abs(ref_grad0)


@pytest.mark.parametrize("n", [1, 2, gp_module._INVERSE_LEAF - 1, gp_module._INVERSE_LEAF,
                               gp_module._INVERSE_LEAF + 1, 97, 479])
def test_invert_lower_in_place_matches_triangular_solve(n):
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, n))
    chol = cholesky(b @ b.T / n + np.eye(n), lower=True)
    buf = np.array(chol, order="F")
    # a view into a larger Fortran array, as in the recursion
    outer = np.zeros((n + 3, n + 3), order="F")
    outer[2:-1, 2:-1] = chol
    gp_module._invert_lower(buf)
    gp_module._invert_lower(outer[2:-1, 2:-1])
    ref = solve_triangular(chol, np.eye(n), lower=True)
    scale = np.max(np.abs(ref))
    for got in (buf, outer[2:-1, 2:-1]):
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        np.testing.assert_array_equal(np.triu(got, 1), 0.0)
    np.testing.assert_array_equal(outer[:2], 0.0)
    np.testing.assert_array_equal(outer[-1], 0.0)


def test_non_finite_kernel_is_ill_conditioned():
    # 1 / length_scale overflows, so the kernel's diagonal is inf * 0 = nan;
    # the likelihood and the model share one factorization and its error
    data = Dataset(inputs=np.arange(3.0).reshape(-1, 1), targets=np.ones(3))
    tiny = KernelHyper(signal_variance=1.0, length_scales=np.array([1e-320]),
                       noise_variance=0.1)
    for build in (log_marginal_likelihood, GpModel.from_data):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IllConditionedKernelError, match="noise_variance"):
            build(data, tiny)


def test_lml_ill_conditioned_error_names_hyper():
    # duplicate rows and venomously small noise slip past the jitter guard
    x = np.zeros((40, 1))
    data = Dataset(inputs=x, targets=np.zeros(40))
    bad = KernelHyper(signal_variance=1e18, length_scales=np.ones(1),
                      noise_variance=1e-10)
    with pytest.raises(IllConditionedKernelError) as exc:
        log_marginal_likelihood(data, bad)
    assert "noise_variance" in str(exc.value)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_interpolates_noise_free_constant():
    x = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    data = Dataset(inputs=x, targets=np.full(8, 1.3))
    init = KernelHyper(signal_variance=1.0, length_scales=np.array([0.5]),
                       noise_variance=0.1)
    model = train_exact(data, init)
    means, _ = model.predict_batch(x)
    np.testing.assert_allclose(means, data.targets, atol=1e-6)


def test_train_fixed_point_when_init_optimal():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 6.0, 25).reshape(-1, 1)
    y = np.sin(x[:, 0]) + 0.05 * rng.standard_normal(25)
    data = Dataset(inputs=x, targets=y)
    init = KernelHyper(signal_variance=1.0, length_scales=np.array([1.0]),
                       noise_variance=0.05)
    first = train_exact(data, init)
    again = train_exact(data, first.hyper)
    np.testing.assert_allclose(again.hyper.to_log_vector(),
                               first.hyper.to_log_vector(), atol=1e-4)


def test_train_never_worse_than_init():
    rng = np.random.default_rng(11)
    data = Dataset(inputs=rng.normal(size=(15, 2)), targets=rng.normal(size=15))
    init = KernelHyper(signal_variance=0.5, length_scales=np.array([1.0, 2.0]),
                       noise_variance=0.2)
    v_init, _ = log_marginal_likelihood(data, init)
    model = train_exact(data, init)
    v_final, _ = log_marginal_likelihood(data, model.hyper)
    assert v_final >= v_init - 1e-9


def test_train_shares_a_workspace_bit_identical_to_fresh_evaluations(monkeypatch):
    # every evaluation of a fit reuses one D_d stack and its n x n buffers;
    # dropping them must change no bit of any value, gradient or the result
    rng = np.random.default_rng(5)
    x = 20.0 + 1.5 * rng.normal(size=(120, 2))
    data = Dataset(inputs=x, targets=0.1 * np.sin(x[:, 0]) + 0.01 * rng.normal(size=120))
    init = KernelHyper(signal_variance=0.5, length_scales=np.array([2.0, 3.0]),
                       noise_variance=0.05)
    lml = gp_module.log_marginal_likelihood
    runs = {True: [], False: []}

    def recording(shared):
        def evaluate(data_, hyper, **kwargs):
            assert "workspace" in kwargs
            value, grad = lml(data_, hyper, **kwargs) if shared else lml(data_, hyper)
            runs[shared].append(np.concatenate([[value], grad, hyper.to_log_vector()]))
            return value, grad
        return evaluate

    fits = {}
    for shared in (True, False):
        monkeypatch.setattr(gp_module, "log_marginal_likelihood", recording(shared))
        fits[shared] = train_exact(data, init)
    assert len(runs[True]) > 2
    np.testing.assert_array_equal(np.array(runs[True]), np.array(runs[False]))
    np.testing.assert_array_equal(fits[True].hyper.to_log_vector(),
                                  fits[False].hyper.to_log_vector())
    np.testing.assert_array_equal(fits[True].alpha, fits[False].alpha)


def _summed_nll_fit(data, init):
    """Best LML and evaluation count of L-BFGS-B on the NLL summed over the
    points, with train_exact's bounds and options."""
    workspace = gp_module._LmlWorkspace(data.inputs)
    best, evals = [-np.inf], [0]

    def objective(theta):
        evals[0] += 1
        try:
            value, grad = log_marginal_likelihood(data, KernelHyper.from_log_vector(theta),
                                                  workspace=workspace)
        except IllConditionedKernelError:
            return 1e12, np.zeros_like(theta)
        best[0] = max(best[0], value)
        return -value, -grad

    theta0 = init.to_log_vector()
    minimize(objective, theta0, jac=True, method="L-BFGS-B",
             bounds=list(zip(*_log_bounds(theta0.size))),
             options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-12})
    return best[0], evals[0]


def test_train_per_point_objective_on_benchmark_sized_data(control_fit, hv_fit, monkeypatch):
    # control_fit's data (n = 479, noise 0.08) holds little signal, and the
    # summed-NLL fit first jumps to log noise 30, then walks the ridge
    # where the signal variance goes to 0
    data = control_fit.dataset
    ref_lml, ref_evals = _summed_nll_fit(data, hv_module._init_hyper(data))
    lml = gp_module.log_marginal_likelihood
    path = []

    def recording(data_, hyper, **kwargs):
        path.append(hyper.to_log_vector())
        return lml(data_, hyper, **kwargs)

    monkeypatch.setattr(gp_module, "log_marginal_likelihood", recording)
    fitted = train_exact(data, hv_module._init_hyper(data)).hyper
    assert np.all(np.abs(path) < 30.0)
    assert lml(data, fitted)[0] >= ref_lml - 1e-5 * data.n
    assert len(path) < ref_evals
    # hv_fit's data holds a disturbance the GP learns; both fits find it
    data = hv_fit.dataset
    ref_lml, _ = _summed_nll_fit(data, hv_module._init_hyper(data))
    value = lml(data, hv_fit.exact.hyper)[0]
    assert abs(value - ref_lml) <= 1e-6 * abs(ref_lml)


def test_train_beats_linear_fit_on_sine():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 2.0 * np.pi, size=50)
    y = np.sin(x) + 0.01 * rng.standard_normal(50)
    x_tr, y_tr = x[:40], y[:40]
    x_te, y_te = x[40:], y[40:]
    data = Dataset(inputs=x_tr.reshape(-1, 1), targets=y_tr)
    init = KernelHyper(signal_variance=1.0, length_scales=np.array([1.0]),
                       noise_variance=0.1)
    model = train_exact(data, init)
    gp_pred, _ = model.predict_batch(x_te.reshape(-1, 1))
    gp_rmse = np.sqrt(np.mean((gp_pred - y_te) ** 2))
    # least-squares line oracle
    coef = np.polyfit(x_tr, y_tr, 1)
    line_rmse = np.sqrt(np.mean((np.polyval(coef, x_te) - y_te) ** 2))
    assert gp_rmse < line_rmse


# ---------------------------------------------------------------------------
# exact prediction
# ---------------------------------------------------------------------------


def test_predict_interpolates_training_point():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(10, 2))
    y = rng.normal(size=10)
    h = KernelHyper(signal_variance=1.0, length_scales=np.array([1.0, 1.0]),
                    noise_variance=1e-10)
    model = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    (mean,), (var,) = model.predict_batch(x[3])
    assert mean == pytest.approx(y[3], abs=1e-5)
    assert 0.0 <= var <= 1e-6


def test_predict_prior_reversion_far_from_data():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(12, 2))
    y = rng.normal(size=12)
    h = _hyper(sv=1.8, ls=(1.0, 2.0), nv=0.05)
    model = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    (mean,), (var,) = model.predict_batch([80.0, -90.0])
    assert mean == pytest.approx(0.0, abs=1e-6)
    assert var == pytest.approx(1.8, abs=1e-6)


def test_predict_matches_explicit_two_point_inverse():
    from gpplatoon.gp import JITTER, _kernel_matrix

    x = np.array([[0.3, -0.2], [1.1, 0.7]])
    y = np.array([0.5, -1.2])
    h = _hyper(sv=1.4, ls=(0.8, 1.9), nv=0.1)
    model = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    xq = np.array([0.6, 0.1])
    k = _kernel_matrix(x, x, h) + (h.noise_variance + JITTER) * np.eye(2)
    kinv = np.linalg.inv(k)
    kq = _kernel_matrix(xq.reshape(1, -1), x, h)[0]
    mean_o = kq @ kinv @ y
    var_o = h.signal_variance - kq @ kinv @ kq
    (mean,), (var,) = model.predict_batch(xq)
    assert mean == pytest.approx(mean_o, abs=1e-10)
    assert var == pytest.approx(var_o, abs=1e-10)


def test_predict_variance_within_prior_bounds():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    h = _hyper(sv=2.2, ls=(0.7, 1.3), nv=0.02)
    model = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    _, variances = model.predict_batch(rng.normal(size=(200, 2)) * 3.0)
    assert np.all(variances >= 0.0)
    assert np.all(variances <= h.signal_variance + 1e-9)


def test_adding_data_never_increases_variance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    extra_x = rng.normal(size=(1, 2))
    extra_y = rng.normal(size=1)
    h = _hyper(sv=1.0, ls=(1.0, 1.0), nv=0.05)
    small = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    big = GpModel.from_data(
        Dataset(inputs=np.vstack([x, extra_x]), targets=np.append(y, extra_y)), h
    )
    queries = rng.normal(size=(50, 2)) * 2.0
    _, var_small = small.predict_batch(queries)
    _, var_big = big.predict_batch(queries)
    assert np.all(var_big <= var_small + 1e-9)


def test_gram_plus_noise_is_spd():
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.normal(size=(25, 2))
        h = KernelHyper(signal_variance=1.0, length_scales=np.array([1.0, 1.0]),
                        noise_variance=1e-10)
        model = GpModel.from_data(Dataset(inputs=x, targets=rng.normal(size=25)), h)
        assert np.all(np.diag(model.chol_factor) > 0)


# ---------------------------------------------------------------------------
# FIC sparse approximation
# ---------------------------------------------------------------------------


def _random_model(rng, n=40, nv=0.05):
    x = rng.uniform(-3, 3, size=(n, 2))
    y = np.sin(x[:, 0]) * np.cos(0.5 * x[:, 1]) + 0.1 * rng.standard_normal(n)
    h = _hyper(sv=1.0, ls=(1.0, 1.5), nv=nv)
    return GpModel.from_data(Dataset(inputs=x, targets=y), h)


def test_sparse_full_inducing_matches_exact():
    rng = np.random.default_rng(21)
    for trial in range(2):
        model = _random_model(rng)
        sparse = SparseGpModel.from_inducing(model.dataset, model.hyper,
                                             model.dataset.inputs)
        grid = rng.uniform(-3, 3, size=(100, 2))
        m_e, v_e = model.predict_batch(grid)
        m_s, v_s = sparse.predict_batch(grid)
        np.testing.assert_allclose(m_s, m_e, atol=1e-6)
        np.testing.assert_allclose(v_s, v_e, atol=1e-6)


def test_sparse_prior_reversion_far_from_inducing():
    rng = np.random.default_rng(23)
    model = _random_model(rng)
    sparse = build_sparse(model, m=8, seed=1)
    (mean,), (var,) = sparse.predict_batch([500.0, -400.0])
    assert mean == pytest.approx(0.0, abs=1e-6)
    assert var == pytest.approx(model.hyper.signal_variance, abs=1e-6)


def test_sparse_inducing_count_bounds():
    rng = np.random.default_rng(25)
    model = _random_model(rng, n=10)
    with pytest.raises(ValueError):
        build_sparse(model, m=11)
    with pytest.raises(ValueError):
        build_sparse(model, m=0)


def test_sparse_single_inducing_converges_to_centroid():
    # symmetric 1-D data centered at the origin
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]).reshape(-1, 1)
    y = np.exp(-x[:, 0] ** 2)
    h = KernelHyper(signal_variance=0.5, length_scales=np.array([1.0]),
                    noise_variance=0.05)
    model = GpModel.from_data(Dataset(inputs=x, targets=y), h)
    sparse = build_sparse(model, m=1, seed=0)
    grid = np.linspace(-2.5, 2.5, 501)
    vals = [fic_log_marginal_likelihood(model.dataset, h, np.array([[z]])) for z in grid]
    z_best = grid[int(np.argmax(vals))]
    z_opt = float(sparse.inducing[0, 0])
    assert abs(z_opt - z_best) < 0.05 or fic_log_marginal_likelihood(
        model.dataset, h, sparse.inducing
    ) >= max(vals) - 1e-6
    assert abs(z_opt) < 0.25


def _lloyd_step_loop(points, centers):
    """One Lloyd update as a loop over the clusters."""
    d = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    labels = np.argmin(d, axis=1)
    new = centers.copy()
    for j in range(centers.shape[0]):
        mask = labels == j
        if mask.any():
            new[j] = points[mask].mean(axis=0)
        else:
            new[j] = points[np.argmax(np.min(d, axis=1))]
    return new


def test_lloyd_step_matches_the_per_cluster_loop():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n, dim = int(rng.integers(5, 500)), int(rng.integers(1, 4))
        k = int(rng.integers(2, min(n, 25) + 1))
        points = 20.0 + 5.0 * rng.normal(size=(n, dim))
        centers = points[rng.choice(n, size=k, replace=False)]
        far = trial % 2 == 1
        if far:
            # no row is nearest this center, so its cluster is empty
            centers[k - 1] = 1e3
        new = gp_module._lloyd_step(points, centers)
        ref = _lloyd_step_loop(points, centers)
        if dim == 1:
            # a one-column mean(axis=0) sums pairwise, bincount in row order
            np.testing.assert_allclose(new, ref, rtol=n * np.finfo(float).eps, atol=0.0)
        else:
            np.testing.assert_array_equal(new, ref)
        if far:
            farthest = np.argmax(np.min(np.sum((points[:, None] - centers) ** 2, axis=2), axis=1))
            np.testing.assert_array_equal(new[k - 1], points[farthest])


def test_sparse_default_inducing_count_is_20():
    import inspect

    from gpplatoon.gp import build_sparse as bs

    assert inspect.signature(bs).parameters["m"].default == 20


# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_reference_values():
    assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-8)
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-8)


def test_quantile_against_scipy_oracle():
    ps = np.concatenate([
        np.array([1e-9, 1e-6, 1e-4, 0.02425, 0.5, 0.97575, 0.9999]),
        np.linspace(0.001, 0.999, 199),
    ])
    for p in ps:
        assert abs(normal_quantile(float(p)) - norm.ppf(p)) <= 1e-8


def test_quantile_domain_errors():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(31)
    model = _random_model(rng, n=12)
    path = tmp_path / "exact.txt"
    save_model(model, path)
    loaded = load_model(path)
    q = rng.normal(size=(5, 2))
    np.testing.assert_array_equal(model.predict_batch(q)[0], loaded.predict_batch(q)[0])
    np.testing.assert_array_equal(model.predict_batch(q)[1], loaded.predict_batch(q)[1])
    # byte-stable rewrite
    path2 = tmp_path / "exact2.txt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(33)
    model = _random_model(rng, n=30)
    sparse = build_sparse(model, m=6, seed=2)
    path = tmp_path / "sparse.txt"
    save_model(sparse, path)
    loaded = load_model(path)
    assert isinstance(loaded, SparseGpModel)
    q = rng.normal(size=(5, 2))
    np.testing.assert_array_equal(sparse.predict_batch(q)[0], loaded.predict_batch(q)[0])
    np.testing.assert_array_equal(sparse.predict_batch(q)[1], loaded.predict_batch(q)[1])


def test_sparse_model_keeps_its_own_arrays(tmp_path):
    """Edits of the caller's arrays after construction reach neither the
    model's fields, its predictions nor what save_model writes."""
    rng = np.random.default_rng(35)
    model = build_sparse(_random_model(rng, n=30), m=6, seed=2)
    given = {name: getattr(model, name).copy()
             for name in ("inducing", "chol_inducing", "chol_cap", "mean_weights")}
    own = SparseGpModel(hyper=model.hyper, **given)
    q = rng.normal(size=(5, 2))
    before = own.predict_batch(q)
    save_model(own, tmp_path / "before.txt")
    for a in given.values():
        a *= 2.0
    for name, a in given.items():
        stored = getattr(own, name)
        assert stored is not a and not stored.flags.writeable
        np.testing.assert_array_equal(stored, getattr(model, name))
    after = own.predict_batch(q)
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])
    save_model(own, tmp_path / "after.txt")
    assert (tmp_path / "after.txt").read_bytes() == (tmp_path / "before.txt").read_bytes()


def _two_solve_reference(model, xs):
    """FIC prediction from the stored fields by two ``solve_triangular`` calls."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    kz = gp_module._kernel_matrix(model.inducing, xs, model.hyper)
    u = solve_triangular(model.chol_inducing, kz, lower=True)
    t = solve_triangular(model.chol_cap, u, lower=True)
    variances = model.hyper.signal_variance - np.sum(u * u, axis=0) + np.sum(t * t, axis=0)
    return u.T @ model.mean_weights, np.maximum(variances, 0.0)


def test_sparse_predict_matches_two_solve_reference(tmp_path):
    rng = np.random.default_rng(41)
    sparse = build_sparse(_random_model(rng, n=40), m=12, seed=3)
    path = tmp_path / "sparse.txt"
    save_model(sparse, path)
    loaded = load_model(path)
    for _ in range(20):
        q = rng.uniform(-4, 4, size=(rng.integers(1, 25), 2))
        predictions = [model.predict_batch(q) for model in (sparse, loaded)]
        for model, (mean, var) in zip((sparse, loaded), predictions):
            ref_mean, ref_var = _two_solve_reference(model, q)
            np.testing.assert_array_equal(mean, ref_mean)
            np.testing.assert_array_equal(var, ref_var)
        np.testing.assert_array_equal(predictions[0][0], predictions[1][0])
        np.testing.assert_array_equal(predictions[0][1], predictions[1][1])


def test_sparse_predict_single_row_and_vector_agree():
    rng = np.random.default_rng(43)
    sparse = build_sparse(_random_model(rng, n=30), m=8, seed=0)
    q = rng.uniform(-4, 4, size=(6, 2))
    batch_mean, batch_var = sparse.predict_batch(q)
    for i, x in enumerate(q):
        mean, var = sparse.predict_batch(x)
        assert mean.shape == var.shape == (1,)
        row_mean, row_var = sparse.predict_batch(x[None, :])
        np.testing.assert_array_equal(mean, row_mean)
        np.testing.assert_array_equal(var, row_var)
        ref_mean, ref_var = _two_solve_reference(sparse, x)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)
        assert mean[0] == pytest.approx(batch_mean[i], rel=1e-12, abs=1e-15)
        assert var[0] == pytest.approx(batch_var[i], rel=1e-12, abs=1e-15)


def test_sparse_predict_rejects_non_finite_queries():
    rng = np.random.default_rng(47)
    sparse = build_sparse(_random_model(rng, n=20), m=5, seed=0)
    q = rng.uniform(-2, 2, size=(4, 2))
    for bad in (np.nan, np.inf, -np.inf):
        edited = q.copy()
        edited[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sparse.predict_batch(edited)
        with pytest.raises(ValueError, match="finite"):
            sparse.predict_batch([0.5, bad])


def test_sparse_predict_rejects_non_finite_kernel():
    """A finite query far from the data reverts to the prior, one whose
    squared distance overflows raises, and so do non-finite inducing
    inputs, which construction does not check."""
    rng = np.random.default_rng(49)
    sparse = build_sparse(_random_model(rng, n=20), m=5, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        (mean,), (var,) = sparse.predict_batch([1e200, -1e200])
        assert mean == 0.0
        assert var == sparse.hyper.signal_variance
        with pytest.raises(ValueError, match="kernel at the query rows must be finite"):
            sparse.predict_batch([1e308, 1e308])
        inducing = sparse.inducing.copy()
        inducing[1, 0] = np.nan
        with pytest.raises(ValueError, match="kernel at the query rows must be finite"):
            dataclasses.replace(sparse, inducing=inducing).predict_batch([0.5, 0.5])


def test_sparse_model_rejects_bad_stored_factors():
    rng = np.random.default_rng(53)
    sparse = build_sparse(_random_model(rng, n=20), m=5, seed=0)
    q = rng.uniform(-2, 2, size=(3, 2))
    for name in ("chol_inducing", "chol_cap"):
        singular = getattr(sparse, name).copy()
        singular[2, 2] = 0.0
        model = dataclasses.replace(sparse, **{name: singular})
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            model.predict_batch(q)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(sparse, **{name: np.full_like(singular, np.nan)})
    # a wrong shape or a non-finite weight is named on construction, not
    # met at predict time as a bare matmul or broadcast error
    weights = sparse.mean_weights
    cases = [
        ("inducing", sparse.inducing[:, :1]), ("inducing", sparse.inducing.ravel()),
        ("chol_inducing", sparse.chol_inducing[:4, :4]), ("chol_cap", sparse.chol_cap[:, :4]),
        ("mean_weights", weights[:4]), ("mean_weights", weights[:, None]),
        ("mean_weights", np.where(np.arange(5) == 2, np.nan, weights)),
        ("mean_weights", np.where(np.arange(5) == 2, np.inf, weights)),
    ]
    for name, value in cases:
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(sparse, **{name: value})


def _edited_model_file(tmp_path, model, key, value):
    """A save_model file with ``key``'s value replaced, or the key removed
    when ``value`` is None."""
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = []
    for ln in path.read_text().splitlines():
        if ln.split("=")[0].strip() == key:
            if value is None:
                continue
            ln = f"{key} = {value}"
        lines.append(ln)
    edited = tmp_path / f"edited-{key}.txt"
    edited.write_text("\n".join(lines) + "\n")
    return edited


def test_load_model_rejects_bad_exact_file(tmp_path):
    rng = np.random.default_rng(37)
    model = _random_model(rng, n=2)
    alpha = [repr(float(v)) for v in model.alpha]
    cases = [
        ("alpha", ",".join(["nan"] + alpha[1:]), "alpha: non-finite"),
        ("alpha", ",".join(alpha + ["0.5"]), "alpha has 3 entries, expected 2"),
        ("alpha", "0.1,x", "alpha: malformed"),
        ("targets", "inf,1.0", "targets: non-finite"),
        ("inputs", "1.0,2.0,3.0", "inputs has 3 entries, expected 4"),
        ("chol_factor", "1.0,0.0,0.5", "chol_factor has 3 entries, expected 4"),
        ("length_scales", "1.0", "length_scales has 1 entries, expected 2"),
        ("n_dims", None, "missing key 'n_dims'"),
        ("n", None, "missing key 'n'"),
        ("alpha", None, "missing key 'alpha'"),
        ("n", "2.5", "n must be a positive integer"),
        ("n", "0", "n must be a positive integer"),
        ("noise_variance", "nan", "noise_variance: non-finite"),
    ]
    for key, value, message in cases:
        path = _edited_model_file(tmp_path, model, key, value)
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)


def test_load_model_rejects_bad_sparse_file(tmp_path):
    rng = np.random.default_rng(39)
    sparse = build_sparse(_random_model(rng, n=12), m=3, seed=0)
    cases = [
        ("mean_weights", "0.1,0.2", "mean_weights has 2 entries, expected 3"),
        ("mean_weights", "0.1,-inf,0.2", "mean_weights: non-finite"),
        ("inducing", "0,0,0,0,0", "inducing has 5 entries, expected 6"),
        ("chol_inducing", ",".join(["1"] * 8), "chol_inducing has 8 entries, expected 9"),
        ("chol_cap", ",".join(["nan"] * 9), "chol_cap: non-finite"),
        ("m", None, "missing key 'm'"),
        ("n_dims", "3", "length_scales has 2 entries, expected 3"),
        ("kind", "dense", "unknown model kind 'dense'"),
    ]
    for key, value, message in cases:
        path = _edited_model_file(tmp_path, sparse, key, value)
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(35)
    data = Dataset(inputs=rng.normal(size=(7, 2)), targets=rng.normal(size=7))
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    assert path.read_text().splitlines()[0] == "a1,a2,g"
    loaded = load_dataset_csv(path)
    np.testing.assert_array_equal(loaded.inputs, data.inputs)
    np.testing.assert_array_equal(loaded.targets, data.targets)


def test_model_ignores_later_edits_to_the_callers_arrays():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 0.0])
    model = GpModel.from_data(Dataset(inputs=x, targets=y),
                              KernelHyper(1.0, np.ones(1), 1e-6))
    before = model.predict_batch([[1.0], [5.0]])
    x[1, 0] = 5.0
    y[1] = -3.0
    after = model.predict_batch([[1.0], [5.0]])
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])
    assert before[0][0] == pytest.approx(1.0, abs=1e-5)
    assert not model.dataset.inputs.flags.writeable
    assert not model.dataset.targets.flags.writeable


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(inputs=np.ones((3, 2)), targets=np.ones(4))
    with pytest.raises(ValueError):
        Dataset(inputs=np.array([[np.nan, 1.0]]), targets=np.array([1.0]))
