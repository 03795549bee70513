"""Excursion and Gini metrics between paired samples, plus Wasserstein helpers.

The excursion metric between two random variables is the probability-weighted
mass of levels at which exactly one of them exceeds the level. With a
continuous weighting law U it reduces to E|F_U(Y2) - F_U(Y1)|, which is what
the empirical routines compute. Taking U equal to the common marginal law
gives the Gini metric, a functional of the copula diagonal alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteInput

__all__ = [
    "PairedSample",
    "excursion_metric_empirical",
    "delta_curve",
    "gini_empirical",
    "max_excursion_distance_empirical",
    "wasserstein2_to_uniform",
    "wasserstein2_samples",
    "gaussian_copula_diag",
]

_COPULA_GRID = np.linspace(0.0, 1.0, 512)  # fixed diagonal grid


@dataclass(frozen=True)
class PairedSample:
    """Joint realizations of a pair (Y1, Y2), equal length >= 1."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel()
        b = np.asarray(self.b, dtype=float).ravel()
        if a.size != b.size:
            raise DomainError(f"paired sample lengths differ: {a.size} vs {b.size}")
        if a.size < 1:
            raise DomainError("paired sample must be non-empty")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NonFiniteInput("paired sample contains non-finite values")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.size


def excursion_metric_empirical(s: PairedSample, weight) -> float:
    """Mean |F_U(b) - F_U(a)| under the weighting law's cdf F_U.

    This is the separation form of the excursion metric; it equals the
    level-integral of the excursion gap against the weighting measure.
    """
    fa = weight.cdf(s.a)
    fb = weight.cdf(s.b)
    return float(np.mean(np.abs(fb - fa)))


def delta_curve(s: PairedSample, levels) -> np.ndarray:
    """Empirical excursion gap Delta(u) at each level u.

    Delta(u) = P(Y1 > u) + P(Y2 > u) - 2 P(Y1 > u, Y2 > u), i.e. the chance
    that u separates the pair; equals P(min <= u) - P(max <= u).
    """
    levels = np.asarray(levels, dtype=float)
    if not np.all(np.isfinite(levels)):
        raise NonFiniteInput("levels contain non-finite values")
    lo = np.sort(np.minimum(s.a, s.b))
    hi = np.sort(np.maximum(s.a, s.b))
    below_lo = np.searchsorted(lo, levels, side="right")
    below_hi = np.searchsorted(hi, levels, side="right")
    return (below_lo - below_hi) / s.n


def _uniform_ranks(x):
    # average ranks for ties, scaled into (0, 1]. The sort need not be stable:
    # an untied element's rank is its sorted position, and a tied block [i, j)
    # gets 0.5 * (i + 1 + j) whatever its inner order. Untied input allocates
    # only the n-byte `tied` mask beyond order and ranks.
    n = x.size
    order = np.argsort(x)
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.arange(1, n + 1, dtype=float)
    # tied[k]: sorted elements k - 1 and k are equal (False at both ends)
    tied = np.zeros(n + 1, dtype=bool)
    xs = x[order]
    np.equal(xs[1:], xs[:-1], out=tied[1:-1])
    del xs
    if tied.any():
        starts = np.flatnonzero(tied[1:] & ~tied[:-1])
        stops = np.flatnonzero(tied[:-1] & ~tied[1:]) + 1
        in_block = tied[1:] | tied[:-1]
        ranks[order[in_block]] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    ranks /= n
    return ranks


def _copula_diagonal(s: PairedSample, grid):
    u = _uniform_ranks(s.a)
    v = _uniform_ranks(s.b)
    w = np.sort(np.maximum(u, v))
    return np.searchsorted(w, grid, side="right") / s.n


def gini_empirical(s: PairedSample) -> float:
    """Gini metric: 1 - 2 * integral of the empirical copula diagonal.

    Rank-based, hence invariant (up to tie handling) under strictly
    increasing transforms of either coordinate. 0 for comonotone pairs,
    1/3 under independence, 1/2 for counter-monotone pairs.
    """
    if s.n < 10:
        raise DomainError("need at least 10 pairs")
    diag = _copula_diagonal(s, _COPULA_GRID)
    g = 1.0 - 2.0 * float(np.trapezoid(diag, _COPULA_GRID))
    return float(np.clip(g, 0.0, 0.5))


def max_excursion_distance_empirical(s: PairedSample):
    """Largest excursion distance over all weighting measures, with its level.

    For identically distributed coordinates the maximum over measures is
    attained by a point mass and equals 2 max_x (x - C(x,x)); the returned
    level is the empirical quantile of the pooled sample at the argmax.
    """
    if s.n < 10:
        raise DomainError("need at least 10 pairs")
    diag = _copula_diagonal(s, _COPULA_GRID)
    gap = _COPULA_GRID - diag
    k = int(np.argmax(gap))
    value = 2.0 * float(gap[k])
    level = float(np.quantile(np.concatenate([s.a, s.b]), _COPULA_GRID[k]))
    return value, level


def wasserstein2_to_uniform(y) -> float:
    """Squared 2-Wasserstein distance from a [0,1]-valued sample to U(0,1).

    Integrates (F_emp^{-1}(x) - x)^2 exactly, piece by piece over the n
    order-statistic intervals.
    """
    y = np.asarray(y, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("y contains non-finite values")
    if y.size < 1:
        raise DomainError("y must be non-empty")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise DomainError("y must lie in [0, 1]")
    n = y.size
    ys = np.sort(y)
    left = np.arange(n) / n
    right = np.arange(1, n + 1) / n
    # integral of (c - x)^2 over [l, r] = ((c-l)^3 - (c-r)^3)/3
    total = np.sum((ys - left) ** 3 - (ys - right) ** 3) / 3.0
    return float(total)


def _quantile_refinement_sq(a, b):
    # exact integral of (Fa^-1 - Fb^-1)^2 over (0,1) for empirical measures
    na, nb = a.size, b.size
    cuts = np.union1d(np.arange(1, na + 1) / na, np.arange(1, nb + 1) / nb)
    lefts = np.concatenate([[0.0], cuts[:-1]])
    mids = 0.5 * (lefts + cuts)
    qa = a[np.minimum((mids * na).astype(int), na - 1)]
    qb = b[np.minimum((mids * nb).astype(int), nb - 1)]
    return float(np.sum((cuts - lefts) * (qa - qb) ** 2))


def wasserstein2_samples(a, b) -> float:
    """2-Wasserstein distance between two empirical measures (returns the root).

    Equal lengths reduce to matched order statistics; unequal lengths use the
    common refinement of the two quantile step functions, which is exact.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 1 or b.size < 1:
        raise DomainError("samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFiniteInput("samples contain non-finite values")
    a = np.sort(a)
    b = np.sort(b)
    if a.size == b.size:
        return float(np.sqrt(np.mean((a - b) ** 2)))
    return float(np.sqrt(_quantile_refinement_sq(a, b)))


def gaussian_copula_diag(rho: float, x: float) -> float:
    """Diagonal C(x,x) of the bivariate Gaussian copula with correlation rho.

    In closed form, C(x,x) = Phi2(q, q; rho) = x - 2 T(q, tan(acos(rho) / 2))
    with q the standard normal quantile of x and T Owen's T function (Owen
    1956). The one expression covers |rho| = 1: it gives x at rho = 1 and
    max(2x - 1, 0) at rho = -1.
    """
    if not (np.isfinite(rho) and np.isfinite(x)):
        raise NonFiniteInput("rho and x must be finite")
    if not (-1.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [-1, 1]")
    if not (0.0 <= x <= 1.0):
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    from scipy import special  # only the Gaussian copula needs it

    return float(x - 2.0 * special.owens_t(special.ndtri(x), np.tan(np.arccos(rho) / 2.0)))
