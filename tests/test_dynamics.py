import numpy as np
import pytest
from scipy.special import ndtri

from gpplatoon.dynamics import GapConstraintParams, tightened_min_gap
from oracles import AvState, av_step, propagate_hv_mean, propagate_hv_variance


def test_av_step_at_rest():
    s = av_step(AvState(p=5.0, v=0.0), acc=0.0, step=0.1)
    assert (s.p, s.v) == (5.0, 0.0)


def test_av_step_hand_value():
    s = av_step(AvState(p=100.0, v=10.0), acc=2.0, step=0.1)
    assert s.v == pytest.approx(10.2, abs=1e-12)
    assert s.p == pytest.approx(101.0, abs=1e-12)


def test_av_step_two_step_expansion():
    # acc = a then -a: velocity returns, position advances 2 T v + T^2 a
    p0, v0, a, t = 50.0, 8.0, 3.0, 0.1
    s = av_step(av_step(AvState(p=p0, v=v0), a, t), -a, t)
    assert s.v == pytest.approx(v0, abs=1e-12)
    assert s.p == pytest.approx(p0 + 2 * t * v0 + t * t * a, abs=1e-12)


def test_av_step_deterministic():
    runs = []
    for _ in range(2):
        s = AvState(p=0.0, v=0.0)
        for k in range(100):
            s = av_step(s, ((-1) ** k) * 1.7, 0.1)
        runs.append((s.p, s.v))
    assert runs[0] == runs[1]


def test_propagate_mean_identity():
    assert propagate_hv_mean(3.0, 0.0, 0.0, 0.1) == 3.0


def test_propagate_mean_hand_value():
    assert propagate_hv_mean(0.0, 10.0, 0.5, 0.1) == pytest.approx(1.05, abs=1e-12)


def test_propagate_mean_telescopes():
    mu = 2.0
    for _ in range(7):
        mu = propagate_hv_mean(mu, 4.0, 0.25, 0.1)
    assert mu == pytest.approx(2.0 + 7 * 0.1 * 4.25, abs=1e-12)


def test_propagate_variance_identity_and_hand_value():
    assert propagate_hv_variance(0.3, 0.0, 0.1) == 0.3
    assert propagate_hv_variance(0.0, 0.04, 0.1) == pytest.approx(4.0e-4, abs=1e-15)


def test_propagate_variance_telescopes_and_monotone():
    sigma = 0.0
    for k in range(1, 6):
        new = propagate_hv_variance(sigma, 0.02, 0.1)
        assert new >= sigma
        sigma = new
        assert sigma == pytest.approx(k * 0.01 * 0.02, abs=1e-15)


def test_propagate_variance_rejects_negative():
    with pytest.raises(ValueError):
        propagate_hv_variance(-0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        propagate_hv_variance(0.1, -0.2, 0.1)


def test_tightened_gap_no_uncertainty():
    g = GapConstraintParams(delta=11.5, p_def=0.95)
    assert tightened_min_gap(g, 0.0) == 11.5


def test_tightened_gap_median_probability():
    g = GapConstraintParams(delta=10.0, p_def=0.5)
    for sigma in (0.0, 0.3, 7.0):
        assert tightened_min_gap(g, sigma) == pytest.approx(10.0, abs=1e-9)


def test_tightened_gap_hand_value():
    g = GapConstraintParams(delta=10.0, p_def=0.95)
    assert tightened_min_gap(g, 0.25) == pytest.approx(10.8224268, abs=1e-6)


def test_tightened_gap_monotone():
    g = GapConstraintParams(delta=10.0, p_def=0.95)
    sigmas = np.linspace(0.0, 4.0, 30)
    vals = [tightened_min_gap(g, s) for s in sigmas]
    assert np.all(np.diff(vals) >= 0)
    pdefs = np.linspace(0.5, 0.999, 30)
    vals_p = [tightened_min_gap(GapConstraintParams(delta=10.0, p_def=p), 0.5)
              for p in pdefs]
    assert np.all(np.diff(vals_p) >= 0)


def test_tightened_gap_vectorized_matches_scalar():
    g = GapConstraintParams(delta=10.5, p_def=0.9)
    sigmas = np.linspace(0.0, 4.0, 13)
    bounds = tightened_min_gap(g, sigmas)
    assert isinstance(bounds, np.ndarray) and bounds.shape == sigmas.shape
    np.testing.assert_array_equal(bounds, [tightened_min_gap(g, float(s)) for s in sigmas])
    assert type(tightened_min_gap(g, 0.25)) is float
    assert type(tightened_min_gap(g, np.float64(0.25))) is float
    # every entry is checked, not only the first, and a NaN or infinite
    # variance is rejected like a negative one
    for bad in (-1e-9, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="sigma"):
            tightened_min_gap(g, np.array([0.0, 0.1, bad]))
        with pytest.raises(ValueError, match="sigma"):
            tightened_min_gap(g, bad)


def test_half_space_reduction_identity():
    # tightening a single half-space on [-1, 1] . [p_av, p_hv + delta] <= 0
    # with the block-diagonal position covariance reproduces the scalar bound
    rng = np.random.default_rng(8)
    for _ in range(100):
        delta = rng.uniform(1.0, 20.0)
        p_def = rng.uniform(0.5, 0.999)
        sigma = rng.uniform(0.0, 9.0)
        h = np.array([-1.0, 1.0])
        cov = np.array([[0.0, 0.0], [0.0, sigma]])
        tightened_rhs = -ndtri(p_def) * np.sqrt(h @ cov @ h)
        # h.x <= rhs with x = (p_av, p_hv + delta)  <=>  p_av - p_hv >= delta - rhs
        implied_bound = delta - tightened_rhs
        g = GapConstraintParams(delta=delta, p_def=p_def)
        assert implied_bound == pytest.approx(tightened_min_gap(g, sigma), abs=1e-12)


def test_gap_params_validation():
    with pytest.raises(ValueError):
        GapConstraintParams(delta=0.0)
    with pytest.raises(ValueError):
        GapConstraintParams(delta=10.0, p_def=1.0)
    for name, kwargs in (("delta", dict(delta=np.inf)), ("delta", dict(delta=np.nan)),
                         ("p_def", dict(delta=10.0, p_def=np.nan))):
        with pytest.raises(ValueError, match=name):
            GapConstraintParams(**kwargs)


def test_tightened_gap_matches_scalar_formula():
    sigmas = np.linspace(0.0, 9.0, 17)
    for p_def in (0.5, 0.8, 0.95, 0.999):
        g = GapConstraintParams(delta=10.7, p_def=p_def)
        assert g.quantile == ndtri(p_def)
        expected = g.delta + ndtri(p_def) * np.sqrt(sigmas)
        np.testing.assert_array_equal(tightened_min_gap(g, sigmas), expected)
        assert tightened_min_gap(g, 2.5) == float(g.delta + ndtri(p_def) * np.sqrt(2.5))
