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

Only ``Predictor.values``, ``Predictor.jacobian`` and ``Predictor.rows``
know the predictor form. The Q2/Q3 row subgradients, one per online descent
step, live in ``RowSubgradients``: one ``Predictor.rows`` call gives the row
values and jacobian rows of several chains at once (``np.vecdot``, one
weight row per data row), one unchecked pdf call covers all of their values
and one cdf call the Q3 chains' F(g_j). ``subgradient`` runs it on one chain.
The Q4 row and every mean subgradient read their rows from one row block
(``_row_block``: predictions, jacobian rows, pdf values, Q2 coefficient).
The row and mean forms stay separate formulas even so: each keeps the order
of floating-point operations that the pinned artifact digests were recorded
with, and merging them would change those bytes.

The mean functional itself, which scores the starting candidates and every
trace record, is ``ObjectiveValues``: bound to one sample set, it computes
F(y) once and gets F(y_j v g_j) as F(y_j) v F(g_j), the same bits since
every marginal's cdf is monotone, so an evaluation runs one cdf pass, on
the predictions. ``objective_value`` is its one-shot call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .rng import as_generator

__all__ = [
    "ForecastDesign",
    "LearningSamples",
    "Predictor",
    "ObjectiveSpec",
    "extract_learning_samples",
    "ObjectiveValues",
    "objective_value",
    "RowSubgradients",
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

        ``w`` must be a finite float array of the current length: 1-D, or
        for ``rows`` one weight row per data row. The descent loops check
        every new iterate for that before it gets here. Build a
        ``Predictor`` directly to validate untrusted weights.
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

    def rows(self, X):
        """Values and jacobian rows on the 2-D rows X.

        The weights are one vector, or one row per row of X. Each value
        rounds like the one-row product ``X[i:i+1] @ w`` (measured for
        ``np.vecdot`` at n <= 12 with numpy 2.4.6's OpenBLAS on x86-64; BLAS
        does not promise it, and the golden digests guard it), which
        ``values``, a matrix product over the whole block, does not.
        """
        w = self.weights
        if self.kind == "linear":
            return np.vecdot(X, w), X
        if self.kind == "squared":
            return np.vecdot(X, w * w), 2.0 * w * X
        scaled = X * w
        k = np.argmax(scaled, axis=1)  # ties -> lowest index
        r = np.arange(X.shape[0])
        G = np.zeros_like(X)
        G[r, k] = X[r, k]
        return scaled[r, k], G


@dataclass(frozen=True)
class ObjectiveSpec:
    """Functional variant, penalty strength and marginal law."""

    variant: str
    marginal: Marginal
    gamma: float = 0.0

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


def _bootstrap_rows(rng, count):
    """One bootstrap resample of the row indices, drawn from rng."""
    if rng is None:
        raise MissingBootstrap("Q3 evaluation needs an rng")
    return as_generator(rng).integers(0, count, size=count)


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


class RowSubgradients:
    """Q2/Q3 row subgradients of several chains on one sample set, packed.

    Chain c minimizes ``specs[c]`` (Q2 or Q3; one marginal for all) with
    weight row ``W[c]`` of the form of ``form``. A call ``(W, js, bs)``
    takes one row index per chain and one bootstrap row index per Q3 chain,
    in chain order, and returns the (K, n) subgradients from one pass: one
    ``Predictor.rows`` over the rows [j of every chain, b of every Q3
    chain], one unchecked pdf call on all of their values, one cdf call on
    the Q3 chains' g_j. Every chain keeps the float operations of the
    one-chain formulas

        Q2: (2 [y_j < g_j] - 1) p(g_j) G_j
        Q3: Q2 + gamma (2 F(g_j) - [g_b < g_j]) p(g_j) G_j
               - gamma [g_b >= g_j] p(g_b) G_b

    so it is bit-equal to stepping the chains one by one. Indices are not
    checked: ``subgradient`` checks its own, and the lockstep engine draws
    them in range. A non-finite row value raises ``NonFiniteInput`` whose
    ``chain`` attribute is the chain's index.
    """

    def __init__(self, specs, samples: LearningSamples, form: Predictor):
        marginal = specs[0].marginal
        if any(s.variant not in ("Q2", "Q3") or s.marginal != marginal for s in specs):
            raise DomainError("packed row subgradients need Q2/Q3 functionals on one marginal")
        K = len(specs)
        pen = [c for c, s in enumerate(specs) if s.variant == "Q3"]
        self.X, self.y, self.form, self.chains = samples.X, samples.y, form, K
        self.pdf, self.cdf = marginal._pdf, marginal._cdf
        # Q3 chain c: its j row slot c, its b row slot K + k, its gamma
        self.pen = [(c, K + k, specs[c].gamma) for k, c in enumerate(pen)]
        self.slot_chain = list(range(K)) + pen
        if pen:
            self.wsel = np.array(self.slot_chain)  # weight row of every slot
            self.fsel = np.array(pen)  # slots whose F(g) the Q3 terms need
            # jacobian row of every term: K Q2 terms, then two per Q3 chain
            self.tsel = np.array(list(range(K)) + [i for c, s, _ in self.pen for i in (c, s)])

    def __call__(self, W, js, bs) -> np.ndarray:
        K = self.chains
        R = self.X.take(js + bs, axis=0)
        Wr = W.take(self.wsel, axis=0) if self.pen else W
        g, J = self.form.with_weights(Wr).rows(R)
        gl = g.tolist()
        for slot, v in enumerate(gl):
            if not math.isfinite(v):
                exc = NonFiniteInput("row prediction is not finite")
                exc.chain = self.slot_chain[slot]
                raise exc
        pl = self.pdf(g).tolist()
        y = self.y
        coef = [(2.0 * (y.item(j) < gj) - 1.0) * pj for j, gj, pj in zip(js, gl, pl)]
        if self.pen:
            for (c, s, gamma), fj in zip(self.pen, self.cdf(g.take(self.fsel)).tolist()):
                gj, gb, pj = gl[c], gl[s], pl[c]
                coef.append(gamma * (2.0 * fj - (gb < gj)) * pj)
                coef.append(gamma * (gb >= gj) * pl[s])
            J = J.take(self.tsel, axis=0)
        M = J * np.array(coef)[:, None]
        for k, (c, _, _) in enumerate(self.pen):
            M[c] += M[K + 2 * k]
            M[c] -= M[K + 2 * k + 1]
        return M[:K]


class ObjectiveValues:
    """The mean functional of ``spec`` on one sample set, F(y) computed once.

    A call ``(p, rng=None)`` returns the mean of the per-row functional over
    all N rows at predictor p; Q3 consumes one bootstrap resample of the N
    rows per call, drawn from ``rng``. F(y) is computed at construction
    with the unchecked ``_cdf`` (``LearningSamples`` holds finite values
    only), and each call finds the Q2 term from

        F(y_j v g_j) = F(y_j) v F(g_j),

    which holds bit for bit because every marginal's ``_cdf`` is monotone
    in floating point (guarded by tests). So a call runs one N-element cdf,
    on the predictions; a non-finite prediction raises ``NonFiniteInput``.
    """

    def __init__(self, spec: ObjectiveSpec, samples: LearningSamples):
        self.spec, self.samples = spec, samples
        self.cdf = spec.marginal._cdf
        self.fy = self.cdf(samples.y)

    def __call__(self, p: Predictor, rng=None) -> float:
        spec, samples = self.spec, self.samples
        ghat = p.values(samples.X)
        if not np.isfinite(ghat).all():
            raise NonFiniteInput("x contains non-finite values")
        fg = self.cdf(ghat)
        q2 = 2.0 * np.maximum(self.fy, fg) - fg
        if spec.variant == "Q2":
            return float(np.mean(q2))
        if spec.variant == "Q3":
            yb = fg[_bootstrap_rows(rng, samples.count)]
            return float(np.mean(q2 + spec.gamma * (fg * fg - np.maximum(fg, yb))))
        # Q4 mean via the sorted identity:
        # sum_j [F_j + 2 sum_{i<j} max(F_i,F_j)] = sum_k (2k-1) F_(k)
        n = samples.count
        fs = np.sort(fg)
        run_total = float(np.sum((2.0 * np.arange(1, n + 1) - 1.0) * fs))
        return float(np.mean(q2) + spec.gamma * np.mean(fg * fg) - spec.gamma / (n * n) * run_total)


def objective_value(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, rng=None) -> float:
    """Mean of the per-row functional over all N rows: one ``ObjectiveValues`` call.

    Q3 consumes one bootstrap resample of the N rows per evaluation, drawn
    from ``rng``.
    """
    return ObjectiveValues(spec, samples)(p, rng)


def subgradient(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, j, bootstrap_index=None) -> np.ndarray:
    """Exact subgradient of the per-row functional in the weights."""
    j, b = _row_indices(spec, samples, j, bootstrap_index)
    if spec.variant != "Q4":
        kernel = RowSubgradients((spec,), samples, p)
        return kernel(p.weights[None, :], [j], [] if b is None else [b])[0]
    # Q4: rows 0..j, with row j last
    N = samples.count
    g, G, pg, coeff = _row_block(spec, p, samples, slice(0, j), slice(j, j + 1))
    fall = spec.marginal.cdf(g)
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
        idx = _bootstrap_rows(rng, N)
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
