"""Learning-sample extraction and the empirical prediction functionals.

A predictor with weight vector ``w`` maps the values observed at the
forecast-sample times, all shifted back by a common lag, to a guess for the
equally shifted target value. Sliding that lag along the observation window
yields N learning rows. Three per-row functionals are available:

* Q2 - unconstrained: Q2_j = 2 F(y_j v g_j) - F(g_j). Its mean equals
  mean F(y) plus the empirical excursion metric between target and
  prediction, so minimizing it is an L1-type regression in probability space.
* Q3 - adds gamma * [F(g_j)^2 - F(g_j) v Y_j] with Y_j a bootstrap copy of
  the predictor's F-value; penalizes marginal-law mismatch via a squared
  Wasserstein surrogate.
* Q4 - same penalty in a running-rank form over rows i < j; no bootstrap.

All three have exact subgradients in the weights; kinks (ties in the max
terms) use strict-inequality indicators without smoothing.

Only ``Predictor.values``, ``Predictor.jacobian`` and ``Predictor.row`` know
the predictor form. The Q2/Q3 row subgradients, one per online descent step,
work on the raw 1-D rows: ``Predictor.row`` gives each row's value and
jacobian, and one unchecked pdf call covers the rows j and b. The Q4 row and
every mean subgradient read their rows from one row block (``_row_block``:
predictions, jacobian rows, pdf values, Q2 coefficient). The row and mean
forms stay separate formulas even so: each keeps the order of floating-point
operations that the pinned artifact digests were recorded with, and merging
them would change those bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import Marginal
from .errors import (
    DomainError,
    GridMisaligned,
    IndexOutOfRange,
    InvalidGrid,
    LengthMismatch,
    MissingBootstrap,
    NoValidShifts,
    NonFiniteInput,
)
from .processes import Trajectory
from .rng import RngStream, as_generator

__all__ = [
    "ForecastDesign",
    "LearningSamples",
    "Predictor",
    "ObjectiveSpec",
    "extract_learning_samples",
    "predict",
    "q_value",
    "objective_value",
    "subgradient",
    "mean_subgradient",
    "centered_objective",
]

PREDICTOR_KINDS = ("linear", "squared", "max")
VARIANTS = ("Q2", "Q3", "Q4")


def _aligned_index(value, h, what):
    k = value / h
    ki = round(k)
    if abs(value - ki * h) > 1e-9:
        raise GridMisaligned(f"{what}={value} is not a multiple of h={h}")
    return int(ki)


@dataclass(frozen=True)
class ForecastDesign:
    """Forecast-sample offsets, target time, grid step, and observation window."""

    offsets: tuple
    target: float
    h: float
    window: tuple

    def __post_init__(self):
        if self.h <= 0 or not np.isfinite(self.h):
            raise InvalidGrid("h must be positive and finite")
        off = tuple(float(v) for v in self.offsets)
        if len(off) < 1:
            raise InvalidGrid("need at least one forecast offset")
        if any(not np.isfinite(v) for v in off) or not np.isfinite(self.target):
            raise NonFiniteInput("offsets and target must be finite")
        for v in off + (self.target,):
            _aligned_index(v, self.h, "offset")
        if any(abs(self.target - v) < self.h / 2 for v in off):
            raise InvalidGrid("target must not belong to the forecast sample")
        w = (float(self.window[0]), float(self.window[1]))
        if w[1] < w[0]:
            raise InvalidGrid("window upper bound below lower bound")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "window", w)

    @property
    def n(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class LearningSamples:
    """Stacked learning rows: y[j] is the target value under shift s_j and
    X[j] holds the forecast-sample values under the same shift."""

    y: np.ndarray
    X: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        X = np.asarray(self.X, dtype=float)
        s = np.asarray(self.shifts, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or s.size != y.size:
            raise LengthMismatch("y, X rows and shifts must agree in length")
        if y.size < 1:
            raise NoValidShifts("no learning rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise NonFiniteInput("learning samples contain non-finite values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "shifts", s)

    @property
    def count(self) -> int:
        return self.y.size

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Predictor:
    """Weight vector plus the functional form it feeds.

    linear:  g = sum_i w_i x_i
    squared: g = sum_i w_i^2 x_i  (keeps coefficients nonnegative by design,
             useful on positive-support processes)
    max:     g = max_i w_i x_i
    """

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise DomainError(f"kind must be one of {PREDICTOR_KINDS}")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size < 1 or not np.all(np.isfinite(w)):
            raise NonFiniteInput("weights must be finite and non-empty")
        object.__setattr__(self, "weights", w)

    def with_weights(self, w: np.ndarray) -> "Predictor":
        """The same form with weights ``w``, without re-validation.

        ``w`` must be a finite 1-D float array of the current length; the
        descent loop checks every new iterate for that before it gets here.
        Build a ``Predictor`` directly to validate untrusted weights.
        """
        p = object.__new__(Predictor)
        object.__setattr__(p, "kind", self.kind)
        object.__setattr__(p, "weights", w)
        return p

    def values(self, X) -> np.ndarray:
        """Predictor value on each row of the 2-D array X."""
        if self.kind == "linear":
            return X @ self.weights
        if self.kind == "squared":
            return X @ (self.weights * self.weights)
        return np.max(X * self.weights, axis=1)

    def jacobian(self, X) -> np.ndarray:
        """d g / d weights, one row per row of X."""
        if self.kind == "linear":
            return X
        if self.kind == "squared":
            return 2.0 * self.weights * X
        scaled = X * self.weights
        arg = np.argmax(scaled, axis=1)  # ties -> lowest index
        G = np.zeros_like(X)
        rows = np.arange(X.shape[0])
        G[rows, arg] = X[rows, arg]
        return G

    def row(self, x):
        """Value (a float) and jacobian on the 1-D row x.

        Measured bit-equal to ``values`` and ``jacobian`` on that row as a
        one-row 2-D array for n <= 12 with numpy 2.4.6's OpenBLAS on x86-64;
        the linear and squared forms rely on the 1-D dot product rounding
        like a one-row matrix product, which BLAS does not promise. The
        golden digests guard it.
        """
        w = self.weights
        if self.kind == "linear":
            return float(x @ w), x
        if self.kind == "squared":
            return float(x @ (w * w)), 2.0 * w * x
        scaled = x * w
        k = np.argmax(scaled)  # ties -> lowest index
        grad = np.zeros_like(x)
        grad[k] = x[k]
        return float(scaled[k]), grad


@dataclass(frozen=True)
class ObjectiveSpec:
    """Functional variant, penalty strength, marginal law, bootstrap stream."""

    variant: str
    marginal: Marginal
    gamma: float = 0.0
    bootstrap: Optional[RngStream] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise DomainError("gamma must be finite and >= 0")


def extract_learning_samples(traj: Trajectory, design: ForecastDesign, max_n=None, rng=None) -> LearningSamples:
    """Learning rows from every grid shift that keeps the design in-window.

    Returns rows in increasing shift order. When max_n caps the count, rows
    are subsampled uniformly without replacement and re-sorted by shift.
    """
    if abs(design.h - traj.h) > 1e-12:
        raise InvalidGrid(f"design step {design.h} differs from trajectory step {traj.h}")
    h = traj.h
    # absolute times to lattice indices relative to traj.t0
    pts = np.array([_aligned_index(v - traj.t0, h, "offset") for v in design.offsets + (design.target,)])
    w_lo, w_hi = design.window
    lo = max(0, int(np.ceil((w_lo - traj.t0) / h - 1e-9)))
    hi = min(traj.values.size - 1, int(np.floor((w_hi - traj.t0) / h + 1e-9)))
    kmin = lo - int(pts.min())
    kmax = hi - int(pts.max())
    if kmax < kmin:
        raise NoValidShifts("observation window shorter than the design span")
    ks = np.arange(kmin, kmax + 1)
    if max_n is not None and ks.size > int(max_n):
        if rng is None:
            raise DomainError("max_n subsampling needs an rng")
        g = as_generator(rng)
        ks = np.sort(g.choice(ks, size=int(max_n), replace=False))
    idx_f = pts[:-1]
    y = traj.values[pts[-1] + ks]
    X = traj.values[idx_f[None, :] + ks[:, None]]
    return LearningSamples(y, X, ks * h)


def predict(p: Predictor, x_row) -> float:
    """Predictor value on one design row."""
    x = np.asarray(x_row, dtype=float).ravel()
    if x.size != p.weights.size:
        raise LengthMismatch(f"row length {x.size} != weight length {p.weights.size}")
    return float(p.values(x[None, :])[0])


def _row_indices(spec, samples, j, bootstrap_index):
    """Checked row index j and, for Q3 only, the checked bootstrap row index."""
    b = None
    if spec.variant == "Q3":
        if bootstrap_index is None:
            raise MissingBootstrap("Q3 needs a bootstrap row index")
        b = int(bootstrap_index)
    j = int(j)
    for r in (j, b):
        if r is not None and not (0 <= r < samples.count):
            raise IndexOutOfRange(f"row {r} outside 0..{samples.count - 1}")
    return j, b


def _bootstrap_rows(spec, rng, count):
    """One bootstrap resample of the row indices, drawn from rng or spec.bootstrap."""
    if rng is not None:
        g = as_generator(rng)
    elif spec.bootstrap is not None:
        g = spec.bootstrap.generator()
    else:
        raise MissingBootstrap("Q3 evaluation needs an rng or ObjectiveSpec.bootstrap to be set")
    return g.integers(0, count, size=count)


def _row_block(spec, p, samples, *parts):
    """Predictions, jacobian rows, pdf values and the Q2 coefficient
    (2 [y < g] - 1) pdf(g) of the learning rows in ``parts``, stacked in order.

    Each part gets its own ``Predictor.values`` call: a BLAS matrix-vector
    product rounds a row differently depending on how many rows it holds, and
    the pinned artifacts depend on those bits.
    """
    X = np.concatenate([samples.X[s] for s in parts])
    y = np.concatenate([samples.y[s] for s in parts])
    g = np.concatenate([p.values(samples.X[s]) for s in parts])
    pg = spec.marginal.pdf(g)
    return g, p.jacobian(X), pg, (2.0 * (y < g) - 1.0) * pg


def q_value(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, j, bootstrap_index=None) -> float:
    """Per-row functional value; see the module docstring for the three forms."""
    j, b = _row_indices(spec, samples, j, bootstrap_index)
    F = spec.marginal.cdf
    ghat = predict(p, samples.X[j])
    fg = F(ghat)
    q2 = 2.0 * F(max(samples.y[j], ghat)) - fg
    if spec.variant == "Q2":
        return float(q2)
    if spec.variant == "Q3":
        yb = F(predict(p, samples.X[b]))
        return float(q2 + spec.gamma * (fg * fg - max(fg, yb)))
    # Q4: running-rank penalty over rows i < j, empty sum for j = 0
    fprev = F(p.values(samples.X[:j])) if j > 0 else np.empty(0)
    run = fg + 2.0 * float(np.sum(np.maximum(fprev, fg)))
    return float(q2 + spec.gamma * fg * fg - spec.gamma / samples.count * run)


def objective_value(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, rng=None) -> float:
    """Mean of the per-row functional over all N rows.

    Q3 consumes one bootstrap resample of the N rows per evaluation, drawn
    from ``rng`` if given, else from ``spec.bootstrap``.
    """
    F = spec.marginal.cdf
    ghat = p.values(samples.X)
    fg = F(ghat)
    q2 = 2.0 * F(np.maximum(samples.y, ghat)) - fg
    if spec.variant == "Q2":
        return float(np.mean(q2))
    if spec.variant == "Q3":
        yb = fg[_bootstrap_rows(spec, rng, samples.count)]
        return float(np.mean(q2 + spec.gamma * (fg * fg - np.maximum(fg, yb))))
    # Q4 mean via the sorted identity:
    # sum_j [F_j + 2 sum_{i<j} max(F_i,F_j)] = sum_k (2k-1) F_(k)
    n = samples.count
    fs = np.sort(fg)
    run_total = float(np.sum((2.0 * np.arange(1, n + 1) - 1.0) * fs))
    return float(np.mean(q2) + spec.gamma * np.mean(fg * fg) - spec.gamma / (n * n) * run_total)


def subgradient(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, j, bootstrap_index=None) -> np.ndarray:
    """Exact subgradient of the per-row functional in the weights."""
    j, b = _row_indices(spec, samples, j, bootstrap_index)
    m = spec.marginal
    if spec.variant == "Q2":
        gj, Gj = p.row(samples.X[j])
        if not math.isfinite(gj):
            raise NonFiniteInput("row prediction is not finite")
        pj = m._pdf(np.array([gj])).item()
        return (2.0 * (samples.y.item(j) < gj) - 1.0) * pj * Gj
    if spec.variant == "Q3":
        gj, Gj = p.row(samples.X[j])
        gb, Gb = p.row(samples.X[b])
        if not (math.isfinite(gj) and math.isfinite(gb)):
            raise NonFiniteInput("row prediction is not finite")
        pj, pb = m._pdf(np.array([gj, gb])).tolist()
        fj = m._cdf(np.array([gj])).item()
        coeff = (2.0 * (samples.y.item(j) < gj) - 1.0) * pj
        out = coeff * Gj + spec.gamma * (2.0 * fj - (gb < gj)) * pj * Gj
        return out - spec.gamma * (gb >= gj) * pb * Gb
    # Q4: rows 0..j, with row j last
    N = samples.count
    g, G, pg, coeff = _row_block(spec, p, samples, slice(0, j), slice(j, j + 1))
    fall = m.cdf(g)
    fg, fprev = fall[j], fall[:j]
    smaller = float(np.sum(fprev < fg))
    larger = fprev > fg
    cross = (pg[:j][larger][:, None] * G[:j][larger]).sum(axis=0)
    pen = spec.gamma * (2.0 * fg - 1.0 / N - 2.0 / N * smaller)
    return coeff[j] * G[j] + pen * pg[j] * G[j] - 2.0 * spec.gamma / N * cross


def _rank_counts(f):
    """(#{i<j: f_i < f_j}, #{i>j: f_i < f_j}) for every j, in O(N log^2 N).

    ``total`` = #{i: f_i < f_j} doubles as an integer rank (ties share one).
    Bottom-up merge levels then count, for each element of a right half, the
    strictly smaller ranks in its left half: in the sorted left-half keys
    ``block * N + rank``, the blocks before block b hold b * width keys, all
    below b * N, so one ``searchsorted`` minus b * width is that count.
    """
    n = f.size
    total = np.searchsorted(np.sort(f), f, side="left")
    pos = np.arange(n)
    before = np.zeros(n, dtype=total.dtype)
    width = 1
    while width < n:
        block, offset = np.divmod(pos, 2 * width)
        left = offset < width
        right = ~left
        keys = block * n + total
        lk = np.sort(keys[left])
        before[right] += np.searchsorted(lk, keys[right], side="left") - block[right] * width
        width *= 2
    return before, total - before


def mean_subgradient(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, rng=None) -> np.ndarray:
    """Subgradient of the mean functional (what batch descent steps along)."""
    ghat, G, pg, coeff = _row_block(spec, p, samples, slice(None))
    if spec.variant == "Q2":
        return (coeff[:, None] * G).mean(axis=0)
    N = samples.count
    fg = spec.marginal.cdf(ghat)
    if spec.variant == "Q3":
        idx = _bootstrap_rows(spec, rng, N)
        gb = ghat[idx]
        coeff = coeff + spec.gamma * (2.0 * fg - (gb < ghat)) * pg
        cross = -spec.gamma * (gb >= ghat) * pg[idx]
        return ((coeff[:, None] * G) + (cross[:, None] * G[idx])).mean(axis=0)
    # Q4: r_j = #{i<j: F_i < F_j}, c_j = #{i>j: F_i < F_j}, exact int64 counts
    # (the pinned bytes need the float updates below to see these integers)
    r, c = _rank_counts(fg)
    coeff = coeff + spec.gamma * (2.0 * fg - 1.0 / N - 2.0 / N * r) * pg
    coeff = coeff - 2.0 * spec.gamma / N * c * pg
    return (coeff[:, None] * G).mean(axis=0)


def centered_objective(spec: ObjectiveSpec, value: float) -> float:
    """Reporting scale for objective values.

    A perfect law-preserving predictor scores 1/2 on Q2 and 1/2 - gamma/3 on
    the penalized variants; subtracting those baselines makes the number
    directly comparable to the excursion metric (plus gamma times the squared
    Wasserstein mismatch), which is how summary tables quote it.
    """
    if spec.variant == "Q2":
        return float(value - 0.5)
    return float(value - 0.5 + spec.gamma / 3.0)
