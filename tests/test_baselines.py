import numpy as np
import pytest

from tailcast.baselines import (
    GaussianSecondOrder,
    covariances_exp,
    exact_excursion_weights,
    predictor_correlation,
    simple_kriging_weights,
)
from tailcast.errors import DomainError, NonFiniteInput
from tailcast.objective import ForecastDesign
from tailcast.rng import RngStream

EXTRAP_OFFSETS = tuple(np.round(30.0 + 0.1 * np.arange(10), 9))


def random_pd_system(n, seed):
    g = RngStream(seed, 30).generator()
    A = g.standard_normal((n, n))
    sigma = A @ A.T + n * np.eye(n)
    c = sigma @ g.standard_normal(n) * 0.01
    return GaussianSecondOrder(sigma, c, target_var=float(g.uniform(0.5, 2.0)))


def test_covariances_exp_structure():
    design = ForecastDesign(offsets=EXTRAP_OFFSETS, target=31.0, h=0.02, window=(0.0, 29.98))
    so = covariances_exp(design)
    assert np.allclose(np.diag(so.sigma), 1.0)
    assert so.target_var == 1.0
    # |30.0 - 30.5| = 0.5 -> exp(-0.25); target at distance 1 from 30.0
    assert so.sigma[0, 5] == pytest.approx(np.exp(-0.25), rel=1e-14)
    assert so.c[0] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert so.c[-1] == pytest.approx(np.exp(-0.05), rel=1e-14)
    assert np.allclose(so.sigma, so.sigma.T)


def test_validation_errors():
    with pytest.raises(DomainError):
        GaussianSecondOrder(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DomainError):
        GaussianSecondOrder(np.eye(3), np.ones(2))
    with pytest.raises(DomainError):
        GaussianSecondOrder(np.array([[1.0, 0.5], [0.2, 1.0]]), np.ones(2))
    with pytest.raises(NonFiniteInput):
        GaussianSecondOrder(np.eye(2), np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        GaussianSecondOrder(np.eye(2), np.ones(2), target_var=0.0)


def test_kriging_at_design_point_is_indicator():
    """If the target's covariances equal a design column, kriging returns e_k."""
    design = ForecastDesign(offsets=EXTRAP_OFFSETS, target=31.0, h=0.02, window=(0.0, 29.98))
    base = covariances_exp(design)
    k = 4
    so = GaussianSecondOrder(base.sigma, base.sigma[:, k], 1.0)
    w = simple_kriging_weights(so)
    e = np.zeros(so.n)
    e[k] = 1.0
    assert np.allclose(w, e, atol=1e-10)
    assert predictor_correlation(so, w) == pytest.approx(1.0, abs=1e-10)


def test_kriging_residual_orthogonality():
    """Cov(Y - lam.X, X_i) = c_i - (Sigma lam)_i = 0 for every i."""
    for seed in range(5):
        so = random_pd_system(6, seed)
        w = simple_kriging_weights(so)
        assert np.allclose(so.sigma @ w, so.c, atol=1e-9)


def test_exact_weights_match_target_variance():
    for seed in range(5):
        so = random_pd_system(7, 100 + seed)
        lam = exact_excursion_weights(so)
        assert float(lam @ so.sigma @ lam) == pytest.approx(so.target_var, rel=1e-10)


def test_exact_and_kriging_are_parallel():
    so = random_pd_system(5, 200)
    wk = simple_kriging_weights(so)
    we = exact_excursion_weights(so)
    cos = float(wk @ we) / (np.linalg.norm(wk) * np.linalg.norm(we))
    assert cos == pytest.approx(1.0, abs=1e-10)
    # same correlation with the target (scale-invariant quantity)
    assert predictor_correlation(so, wk) == pytest.approx(predictor_correlation(so, we), rel=1e-12)


def test_correlation_bounds():
    g = RngStream(14, 30).generator()
    so = random_pd_system(6, 300)
    for _ in range(20):
        lam = g.standard_normal(6)
        rho = predictor_correlation(so, lam)
        assert -1.0 <= rho <= 1.0 + 1e-12


def test_markov_far_field_weights():
    """With the exponential covariance, extrapolation past the last design point
    loads entirely on that point (Markov property); the variance-matched
    weights are exactly the last indicator, at any horizon."""
    for target in (31.0, 35.0, 70.9):
        design = ForecastDesign(offsets=EXTRAP_OFFSETS, target=target, h=0.02, window=(0.0, 29.98))
        so = covariances_exp(design)
        we = exact_excursion_weights(so)
        e_last = np.zeros(10)
        e_last[-1] = 1.0
        assert np.allclose(we, e_last, atol=1e-6)
        # kriging shrinks toward zero with the horizon instead
        wk = simple_kriging_weights(so)
        assert np.allclose(wk, np.exp(-(target - 30.9) / 2.0) * e_last, atol=1e-6)


def test_interpolation_weights_bracket_target():
    """Interpolating between two kept neighbors: only they carry weight."""
    design = ForecastDesign(offsets=(30.0, 31.0), target=30.4, h=0.02, window=(0.0, 29.98))
    so = covariances_exp(design)
    w = simple_kriging_weights(so)
    assert w[0] > 0 and w[1] > 0
    assert w[0] > w[1]  # target closer to the first point
    # the combination beats the nearest point alone, exp(-0.2)
    nearest_only = predictor_correlation(so, [1.0, 0.0])
    assert nearest_only == pytest.approx(np.exp(-0.2), rel=1e-12)
    assert predictor_correlation(so, w) > nearest_only


def test_single_point_system():
    so = GaussianSecondOrder(np.array([[1.0]]), np.array([0.6]), 1.0)
    assert np.allclose(simple_kriging_weights(so), [0.6])
    assert np.allclose(exact_excursion_weights(so), [1.0])
    assert predictor_correlation(so, [1.0]) == pytest.approx(0.6)


def test_singular_covariance():
    sigma = np.ones((3, 3))  # rank one
    with pytest.raises(DomainError, match="^covariance is not positive definite"):
        simple_kriging_weights(GaussianSecondOrder(sigma, np.ones(3)))
    # negative quadratic form cannot happen with PD sigma, but c = 0 gives s = 0
    so = GaussianSecondOrder(np.eye(2), np.zeros(2))
    with pytest.raises(DomainError, match="quadratic form is not positive$"):
        exact_excursion_weights(so)
