"""Closed-form Gaussian reference predictors.

For a second-order process observed at the forecast sample, simple kriging
gives the L2-optimal linear weights Sigma^-1 c. Scaling that direction so
the predictor variance matches the target variance gives the weights that
are optimal for the excursion distance among variance-matched linear
predictors; both are cheap oracles the learned weights are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteInput
from .objective import ForecastDesign

__all__ = [
    "GaussianSecondOrder",
    "covariances_exp",
    "exact_excursion_weights",
    "simple_kriging_weights",
    "predictor_correlation",
]


@dataclass(frozen=True)
class GaussianSecondOrder:
    """Covariance of the forecast sample, cross-covariance to the target, target variance."""

    sigma: np.ndarray
    c: np.ndarray
    target_var: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != c.size:
            raise DomainError("sigma must be square and match the cross-covariance length")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(c)) and np.isfinite(self.target_var)):
            raise NonFiniteInput("covariances must be finite")
        if not np.allclose(s, s.T, atol=1e-12, rtol=0.0):
            raise DomainError("sigma must be symmetric within 1e-12")
        if self.target_var <= 0:
            raise DomainError("target variance must be positive")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.size


def covariances_exp(design: ForecastDesign) -> GaussianSecondOrder:
    """Second-order data for covariance exp(-|t|/2) on the design's sample and target."""
    pts = np.asarray(design.offsets, dtype=float)
    sigma = np.exp(-np.abs(pts[:, None] - pts[None, :]) / 2.0)
    c = np.exp(-np.abs(design.target - pts) / 2.0)
    return GaussianSecondOrder(sigma, c, 1.0)


def _chol_solve(so: GaussianSecondOrder, rhs: np.ndarray) -> np.ndarray:
    from scipy.linalg import LinAlgError, cho_factor, cho_solve  # only the Gaussian baselines

    try:
        factor = cho_factor(so.sigma, lower=True)
    except LinAlgError as exc:
        raise DomainError(f"covariance is not positive definite: {exc}") from None
    return cho_solve(factor, rhs)


def simple_kriging_weights(so: GaussianSecondOrder) -> np.ndarray:
    """L2-optimal linear weights Sigma^-1 c."""
    return _chol_solve(so, so.c)


def exact_excursion_weights(so: GaussianSecondOrder) -> np.ndarray:
    """Kriging direction rescaled so the predictor variance equals the target variance."""
    w = _chol_solve(so, so.c)
    s = float(so.c @ w)
    if s <= 0:
        raise DomainError("cross-covariance quadratic form is not positive")
    return np.sqrt(so.target_var / s) * w


def predictor_correlation(so: GaussianSecondOrder, lam) -> float:
    """Correlation between the target and the linear predictor with weights lam."""
    lam = np.asarray(lam, dtype=float).ravel()
    var_pred = float(lam @ so.sigma @ lam)
    if var_pred <= 0:
        raise DomainError("predictor variance must be positive")
    return float(lam @ so.c / np.sqrt(var_pred * so.target_var))
