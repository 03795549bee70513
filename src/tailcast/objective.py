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
know the predictor form. The descent engine (``optimize.solve_lockstep``)
steps the online Q2/Q3 chains with one ``RowSubgradients`` step: one
``Predictor.rows`` call gives all their row values and jacobian rows
(``np.vecdot``, one weight row per data row), one unchecked pdf call
covers their values and one cdf call the Q3 chains' F(g_j). An online
Q4 chain steps with ``subgradient``, a batch chain with
``mean_subgradient``, both on one row block (``_row_block``: predictions,
jacobian rows, pdf values, Q2 coefficient). The row and mean forms stay
separate formulas even so: each keeps the order of floating-point
operations that the pinned artifact digests were recorded with, and
merging them would change those bytes.

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
from .errors import DomainError, NonFiniteInput
from .processes import Trajectory, _aligned_index
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


@dataclass(frozen=True)
class ForecastDesign:
    """Forecast-sample offsets, target time, grid step, and observation window,
    all absolute times on the lattice hZ."""

    offsets: tuple
    target: float
    h: float
    window: tuple

    def __post_init__(self):
        if self.h <= 0 or not np.isfinite(self.h):
            raise DomainError("h must be positive and finite")
        off = tuple(float(v) for v in self.offsets)
        if len(off) < 1:
            raise DomainError("need at least one forecast offset")
        w = (float(self.window[0]), float(self.window[1]))
        if not np.all(np.isfinite(off + w + (self.target,))):
            raise NonFiniteInput("offsets, target and window must be finite")
        target = _aligned_index(self.target, self.h, "target")
        if target in [_aligned_index(v, self.h, "offset") for v in off]:
            raise DomainError("target must not belong to the forecast sample")
        w_lo, w_hi = (_aligned_index(v, self.h, "window") for v in w)
        if w_hi < w_lo:
            raise DomainError("window upper bound below lower bound")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "window", w)


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
            raise DomainError("y, X rows and shifts must agree in length")
        if y.size < 1:
            raise DomainError("no learning rows")
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

        ``w`` must be a finite 1-D float array of the current length. The
        descent loops check every new iterate for that before it gets here.
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

    def jacobian(self, X, w=None) -> np.ndarray:
        """d g / d weights, one row per row of X, at ``w`` (default: these
        weights; one vector, or one row per row of X)."""
        if self.kind == "linear":
            return X
        if w is None:
            w = self.weights
        if self.kind == "squared":
            return 2.0 * w * X
        scaled = X * w
        arg = np.argmax(scaled, axis=1)  # ties -> lowest index
        G = np.zeros_like(X)
        rows = np.arange(X.shape[0])
        G[rows, arg] = X[rows, arg]
        return G

    def rows(self, X, w=None):
        """Values and jacobian rows on the 2-D rows X at ``w``.

        ``w`` defaults to these weights; it is one vector, or one row per
        row of X, finite and of the current length, and is not checked, as
        in ``with_weights``. Each value rounds like the one-row product
        ``X[i:i+1] @ w`` (measured for ``np.vecdot`` at n <= 12 with numpy
        2.4.6's OpenBLAS on x86-64; BLAS does not promise it, and the golden
        digests guard it), which ``values``, a matrix product over the whole
        block, does not.
        """
        if w is None:
            w = self.weights
        if self.kind == "linear":
            return np.vecdot(X, w), X
        if self.kind == "max":
            return np.max(X * w, axis=1), self.jacobian(X, w)
        return np.vecdot(X, w * w), self.jacobian(X, w)


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
        raise DomainError(f"design step {design.h} differs from trajectory step {traj.h}")
    h = traj.h
    # absolute lattice indices, then integer positions in the trajectory
    t0 = _aligned_index(traj.t0, h, "t0")
    pts = [_aligned_index(v, h, "offset") - t0 for v in design.offsets + (design.target,)]
    w_lo, w_hi = (_aligned_index(v, h, "window") - t0 for v in design.window)
    kmin = max(0, w_lo) - min(pts)
    kmax = min(traj.values.size - 1, w_hi) - max(pts)
    if kmax < kmin:
        raise DomainError("observation window shorter than the design span")
    ks = np.arange(kmin, kmax + 1)
    if max_n is not None and ks.size > int(max_n):
        if rng is None:
            raise DomainError("max_n subsampling needs an rng")
        g = as_generator(rng)
        ks = np.sort(g.choice(ks, size=int(max_n), replace=False))
    y = traj.values[pts[-1] + ks]
    X = traj.values[np.array(pts[:-1])[None, :] + ks[:, None]]
    return LearningSamples(y, X, ks * h)


def _row_indices(spec, samples, j, bootstrap_index):
    """Checked row index j and, for Q3 only, the checked bootstrap row index."""
    b = None
    if spec.variant == "Q3":
        if bootstrap_index is None:
            raise DomainError("Q3 needs a bootstrap row index")
        b = int(bootstrap_index)
    j = int(j)
    for r in (j, b):
        if r is not None and not (0 <= r < samples.count):
            raise DomainError(f"row {r} outside 0..{samples.count - 1}")
    return j, b


def _bootstrap_rows(rng, count):
    """One bootstrap resample of the row indices, drawn from rng."""
    if rng is None:
        raise DomainError("Q3 evaluation needs an rng")
    return as_generator(rng).integers(0, count, size=count)


def _row_block(spec, p, samples, *parts):
    """Predictions, jacobian rows, pdf values and the Q2 coefficient
    (2 [y < g] - 1) pdf(g) of the learning rows in ``parts``, stacked in order.

    Each part gets its own ``Predictor.values`` call: a BLAS matrix-vector
    product rounds a row differently depending on how many rows it holds, and
    the pinned artifacts depend on those bits. One part, as in every batch
    step, is read through views of the rows, not copies: the same values, and
    a linear jacobian that is ``samples.X`` itself. The checked pdf refuses a
    non-finite prediction.
    """
    if len(parts) == 1:
        X, y = samples.X[parts[0]], samples.y[parts[0]]
        g = p.values(X)
    else:
        X = np.concatenate([samples.X[s] for s in parts])
        y = np.concatenate([samples.y[s] for s in parts])
        g = np.concatenate([p.values(samples.X[s]) for s in parts])
    pg = spec.marginal.pdf(g)
    return g, p.jacobian(X), pg, (2.0 * (y < g) - 1.0) * pg


class RowSubgradients:
    """Q2/Q3 row subgradients of several chains on one sample set, packed.

    Chain c minimizes ``specs[c]`` (Q2 or Q3; one marginal for all) with
    weight row ``W[c]`` of the form of ``form``. A step of K chains, P of
    them Q3, has K + 2P row slots: row j of every chain, then row j of
    every Q3 chain again, then bootstrap row b of every Q3 chain, so that
    slot s's jacobian row is the one term s needs. A call ``(W, js, bs)``
    takes one row index per chain and one bootstrap row index per Q3 chain,
    in chain order, and returns the (K, n) subgradients from one pass: one
    ``Predictor.rows`` over the slots, one unchecked pdf call on all slot
    values, one cdf call on the Q3 chains' g_j. ``window`` returns the step
    of each of a run of steps as one function. Every chain keeps the float
    operations of the one-chain formulas

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
        self.chains, self.X, self.y = len(specs), samples.X, samples.y
        self.form = form
        self.pdf, self.cdf = marginal._pdf, marginal._cdf
        self.penalized = [c for c, s in enumerate(specs) if s.variant == "Q3"]
        self.gammas = [specs[c].gamma for c in self.penalized]
        self.slot_chain = list(range(self.chains)) + self.penalized * 2
        self.wsel = np.array(self.slot_chain)  # the weight row of every slot
        # the slots whose terms make a Q3 chain's subgradient: its own, its j and its b term
        K, P = self.chains, len(self.penalized)
        self.terms = [(c, K + k, K + P + k) for k, c in enumerate(self.penalized)]

    def __call__(self, W, js, bs) -> np.ndarray:
        rows = list(js) + [js[c] for c in self.penalized] + list(bs)
        return self.window(np.array([rows]))(W)

    def window(self, rows):
        """The steps of a run of steps, as one function.

        Row i of ``rows`` holds step i's slot rows; the i-th call ``(W)`` of
        the returned function returns step i's subgradients at W.
        """
        X, form_rows, pdf, cdf, gammas = self.X, self.form.rows, self.pdf, self.cdf, self.gammas
        K, slot_chain, wsel, terms = self.chains, self.slot_chain, self.wsel, self.terms
        KP = K + len(terms)
        steps = zip(X.take(rows, axis=0), self.y.take(rows[:, :K]).tolist())

        def step(W):
            R, yj = next(steps)
            Wr = W.take(wsel, axis=0) if terms else W
            g, J = form_rows(R, Wr)
            gl = g.tolist()
            if not math.isfinite(sum(gl)):  # finite slots may overflow the sum: look at each
                for slot, v in enumerate(gl):
                    if not math.isfinite(v):
                        exc = NonFiniteInput("row prediction is not finite")
                        exc.chain = slot_chain[slot]
                        raise exc
            pl = pdf(g).tolist()
            coef = []
            for yv, gj, pj in zip(yj, gl, pl):
                coef.append((2.0 * (yv < gj) - 1.0) * pj)
            if terms:  # slots K.. repeat the Q3 chains' g_j and p(g_j); b's follow
                gj, gb = gl[K:KP], gl[KP:]
                for gamma, f, j, b, p in zip(gammas, cdf(g[K:KP]).tolist(), gj, gb, pl[K:KP]):
                    coef.append(gamma * (2.0 * f - (b < j)) * p)
                for gamma, j, b, p in zip(gammas, gj, gb, pl[KP:]):
                    coef.append(gamma * (b >= j) * p)
            M = J * np.array(coef)[:, None]
            for c, j, b in terms:
                G = M[c]
                G += M[j]
                G -= M[b]
            return M[:K]

        return step


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
        # in-place temporaries, and np.add.reduce(x) / n for np.mean(x):
        # the same IEEE operations in the same order
        spec, samples, n = self.spec, self.samples, self.samples.count
        ghat = p.values(samples.X)
        if not np.isfinite(ghat).all():
            raise NonFiniteInput("x contains non-finite values")
        fg = self.cdf(ghat)
        q2 = np.maximum(self.fy, fg)
        q2 *= 2.0
        q2 -= fg
        if spec.variant == "Q2":
            return float(np.add.reduce(q2) / n)
        sq = fg * fg
        if spec.variant == "Q3":
            yb = fg[_bootstrap_rows(rng, n)]
            sq -= np.maximum(fg, yb, out=yb)
            sq *= spec.gamma
            q2 += sq
            return float(np.add.reduce(q2) / n)
        # Q4 mean via the sorted identity:
        # sum_j [F_j + 2 sum_{i<j} max(F_i,F_j)] = sum_k (2k-1) F_(k)
        fg.sort()
        fg *= 2.0 * np.arange(1, n + 1) - 1.0
        run_total = float(np.add.reduce(fg))
        return float(np.add.reduce(q2) / n + spec.gamma * (np.add.reduce(sq) / n)
                     - spec.gamma / (n * n) * run_total)


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


def _earlier_smaller(keys):
    """Per element of each row of ``keys``, how many earlier elements of its
    row hold a smaller key: the strict lower triangle of one B x B comparison
    per row, N * B bools in all. The blocks run along the last axis, where
    the loops are long, and the keys, below N + B, compare as int32. A count
    is below B, and is summed in the narrowest unsigned type that holds B - 1
    (uint8 up to B = 256): exact, and at N = 2950 half the time of an intp
    sum."""
    width = keys.shape[1]
    kt = keys.T.astype(np.int32, order="C")  # kt[i, k] = keys[k, i]
    less = np.less(kt[None, :, :], kt[:, None, :])  # less[j, i, k] = kt[i, k] < kt[j, k]
    less &= np.tri(width, k=-1, dtype=bool)[:, :, None]
    return less.sum(axis=1, dtype=np.min_scalar_type(width - 1)).T.ravel()


def _rank_counts(f):
    """(#{i<j: f_i < f_j}, #{i>j: f_i < f_j}) for every j, in O(N^1.5).

    ``total`` = #{i: f_i < f_j} doubles as an integer rank (ties share one);
    it is the start of f_j's run of equal values in sorted f, so f must hold
    no NaN. Ordering the rows by rank, equal ranks by descending index, puts
    row i at position p_i, and a pair i < j counts exactly when p_i < p_j.
    Untied f needs no second sort: its sort order is that order already.
    With the rows padded to blocks of B = max(1, isqrt(N) // 2) consecutive
    indices and of B consecutive positions (padding last in both), the i < j
    with p_i < p_j are those in an earlier index block and an earlier
    position block (one gather from a cumulative histogram of the block
    pairs), those earlier in j's index block with a smaller position, and
    those earlier in j's position block with a smaller index block. All
    three are exact integers, counted on the calling thread.
    """
    n = f.size
    order = np.argsort(f)
    s = f[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    width = max(1, math.isqrt(n) // 2)
    blocks = -(-n // width)
    m = blocks * width
    perm = np.arange(m)  # the row at each position
    total = np.empty(n, dtype=np.intp)
    if starts.all():  # untied: a rank is a sort position, and perm is the sort order
        total[order] = perm[:n]
        perm[:n] = order
    else:
        first = np.where(starts, perm[:n], 0)
        np.maximum.accumulate(first, out=first)
        total[order] = first
        perm[:n] = np.argsort(total * n - np.arange(n))  # rank, then descending index
    pos = np.empty(m, dtype=np.intp)
    pos[perm] = np.arange(m)
    row_block, pos_block = np.arange(m) // width, pos // width
    within_rows = _earlier_smaller(pos.reshape(blocks, width))
    within_pos = _earlier_smaller(row_block[perm].reshape(blocks, width))
    # the histogram after the comparisons, so that the two never share the memory
    # peak; a zero first row and column make cum[a, b] the rows in blocks < a and < b
    cell = row_block * (blocks + 1) + pos_block
    cum = np.bincount(cell + blocks + 2, minlength=(blocks + 1) ** 2).reshape(blocks + 1, -1)
    np.cumsum(cum, axis=0, out=cum)
    np.cumsum(cum, axis=1, out=cum)
    before = cum.take(cell)
    before += within_rows
    before[perm] += within_pos
    before = before[:n]
    return before, total - before


def mean_subgradient(spec: ObjectiveSpec, p: Predictor, samples: LearningSamples, rng=None) -> np.ndarray:
    """Subgradient of the mean functional (what batch descent steps along).

    Q4 counts its ranks on the calling thread with ``_rank_counts``.
    """
    ghat, G, pg, coeff = _row_block(spec, p, samples, slice(None))
    if spec.variant == "Q2":
        return (coeff[:, None] * G).mean(axis=0)
    N = samples.count
    fg = spec.marginal._cdf(ghat)  # ghat is finite: the checked pdf passed it
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
