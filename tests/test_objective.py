import tracemalloc

import numpy as np
import pytest

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.errors import (
    DomainError,
    IndexOutOfRange,
    InvalidGrid,
    LengthMismatch,
    MissingBootstrap,
    NonFiniteInput,
    NoValidShifts,
)
from tailcast.objective import (
    ForecastDesign,
    LearningSamples,
    ObjectiveSpec,
    Predictor,
    centered_objective,
    extract_learning_samples,
    mean_subgradient,
    objective_value,
    predict,
    q_value,
    subgradient,
)
from tailcast.objective import _rank_counts, _row_block
from tailcast.processes import simulate_gauss_exp_cov
from tailcast.rng import RngStream

GAUSS = Gaussian(0.0, 1.0)

EXTRAP_OFFSETS = tuple(np.round(30.0 + 0.1 * np.arange(10), 9))


def gauss_design(target=31.0):
    return ForecastDesign(offsets=EXTRAP_OFFSETS, target=target, h=0.02, window=(0.0, 29.98))


def make_samples(n_rows=40, n_pred=3, seed=0):
    g = RngStream(seed, 17).generator()
    y = g.standard_normal(n_rows)
    X = g.standard_normal((n_rows, n_pred))
    shifts = np.arange(n_rows, dtype=float)
    return LearningSamples(y, X, shifts)


# --- design and extraction ---------------------------------------------------


def test_design_validation():
    with pytest.raises(InvalidGrid):
        ForecastDesign(offsets=(30.0,), target=30.0, h=0.02, window=(0.0, 29.98))
    with pytest.raises(InvalidGrid):
        ForecastDesign(offsets=(), target=31.0, h=0.02, window=(0.0, 29.98))
    with pytest.raises(InvalidGrid):
        ForecastDesign(offsets=(30.0,), target=31.0, h=0.02, window=(10.0, 0.0))
    from tailcast.errors import GridMisaligned

    with pytest.raises(GridMisaligned):
        ForecastDesign(offsets=(30.005,), target=31.0, h=0.02, window=(0.0, 29.98))
    assert gauss_design().n == 10


def test_extraction_count_oracle_extrapolation():
    """1500-point window, span 50 lattice steps between design ends -> 1450 rows.

    Shift s = k*h is admissible iff every design time plus s lands inside the
    window; counting lattice points gives 1500 - 50 = 1450 exactly.
    """
    g = RngStream(100, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 1500, g)
    samples = extract_learning_samples(traj, gauss_design())
    assert samples.count == 1450
    assert samples.n == 10
    # shifts are whole multiples of h, sorted, and within the window
    k = samples.shifts / 0.02
    assert np.allclose(k, np.round(k), atol=1e-9)
    assert np.all(np.diff(samples.shifts) > 0)


def test_extraction_count_oracle_ar_design():
    g = RngStream(101, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.1, 300, g)
    design = ForecastDesign(offsets=(30.0, 30.1, 30.2), target=30.3, h=0.1, window=(0.0, 29.9))
    samples = extract_learning_samples(traj, design)
    assert samples.count == 297


def test_extraction_values_match_trajectory():
    """Each row is literally the path read at the shifted design times."""
    g = RngStream(102, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 1500, g)
    design = gauss_design()
    samples = extract_learning_samples(traj, design)
    for j in (0, 700, 1449):
        s = samples.shifts[j]
        for i, off in enumerate(design.offsets):
            assert samples.X[j, i] == traj.values[traj.index_of(round(off + s, 9))]
        assert samples.y[j] == traj.values[traj.index_of(round(design.target + s, 9))]


def test_extraction_no_valid_shifts():
    g = RngStream(103, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 10, g)  # window way too short
    with pytest.raises(NoValidShifts):
        extract_learning_samples(traj, gauss_design())


def test_extraction_subsample():
    g = RngStream(104, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 1500, g)
    full = extract_learning_samples(traj, gauss_design())
    sub = extract_learning_samples(traj, gauss_design(), max_n=100, rng=RngStream(1, 4).generator())
    assert sub.count == 100
    assert np.all(np.diff(sub.shifts) > 0)
    assert np.all(np.isin(sub.shifts, full.shifts))
    again = extract_learning_samples(traj, gauss_design(), max_n=100, rng=RngStream(1, 4).generator())
    assert np.array_equal(sub.shifts, again.shifts)
    with pytest.raises(DomainError):
        extract_learning_samples(traj, gauss_design(), max_n=100)


def test_learning_samples_validation():
    with pytest.raises(LengthMismatch):
        LearningSamples(np.zeros(3), np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(NoValidShifts):
        LearningSamples(np.zeros(0), np.zeros((0, 4)), np.zeros(0))
    with pytest.raises(NonFiniteInput):
        LearningSamples(np.array([np.inf]), np.zeros((1, 4)), np.zeros(1))


# --- predictors ---------------------------------------------------------------


def test_predict_kinds():
    x = np.array([1.0, -2.0, 3.0])
    w = np.array([0.5, 1.0, 0.25])
    assert predict(Predictor("linear", w), x) == pytest.approx(0.5 - 2.0 + 0.75)
    # squared: coefficients are w_i^2, guaranteeing nonnegative combinations
    assert predict(Predictor("squared", w), x) == pytest.approx(0.25 - 2.0 + 0.1875)
    assert predict(Predictor("max", w), x) == pytest.approx(max(0.5, -2.0, 0.75))


def test_predictor_validation():
    with pytest.raises(DomainError):
        Predictor("cubic", np.ones(3))
    with pytest.raises(NonFiniteInput):
        Predictor("linear", np.array([1.0, np.nan]))
    with pytest.raises(LengthMismatch):
        predict(Predictor("linear", np.ones(3)), np.ones(4))
    p = Predictor("linear", np.ones(2))
    q = p.with_weights(np.array([2.0, 3.0]))
    assert q.kind == "linear" and np.allclose(q.weights, [2.0, 3.0])


def test_objective_spec_validation():
    with pytest.raises(DomainError):
        ObjectiveSpec("Q5", GAUSS)
    with pytest.raises(DomainError):
        ObjectiveSpec("Q3", GAUSS, gamma=-1.0)


# --- per-row functional values -------------------------------------------------


def test_q2_equals_separation_identity():
    """Q2_j = 2F(y v g) - F(g) = F(y) + |F(y) - F(g)|, row by row."""
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    for j in range(samples.count):
        ghat = predict(p, samples.X[j])
        fy, fg = GAUSS.cdf(samples.y[j]), GAUSS.cdf(ghat)
        expected = fy + abs(fy - fg)
        assert q_value(spec, p, samples, j) == pytest.approx(expected, rel=1e-14)


def test_q2_perfect_predictor_gives_target_cdf():
    """If the prediction equals the target, Q2 collapses to F(y_j)."""
    g = RngStream(105, 0).generator()
    y = g.standard_normal(20)
    X = np.column_stack([y, np.zeros(20)])  # first coordinate is the answer
    samples = LearningSamples(y, X, np.arange(20.0))
    spec = ObjectiveSpec("Q2", GAUSS)
    p = Predictor("linear", np.array([1.0, 0.0]))
    for j in range(20):
        assert q_value(spec, p, samples, j) == pytest.approx(GAUSS.cdf(y[j]), rel=1e-14)
    # and the mean objective is the mean target cdf (about 1/2)
    val = objective_value(spec, p, samples)
    assert val == pytest.approx(np.mean(GAUSS.cdf(y)), rel=1e-14)


def test_q2_explodes_to_one_for_huge_predictions():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    p = Predictor("linear", np.full(3, 1e8))
    vals = [q_value(spec, p, samples, j) for j in range(samples.count)]
    # rows whose prediction blows up positively score exactly 2*1 - 1 = 1
    high = [v for v, x in zip(vals, samples.X) if np.dot(p.weights, x) > 10]
    assert len(high) > 5
    assert np.allclose(high, 1.0, atol=1e-6)


def test_gamma_zero_reduces_q3_q4_to_q2():
    samples = make_samples()
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    q2 = ObjectiveSpec("Q2", GAUSS)
    q3 = ObjectiveSpec("Q3", GAUSS, gamma=0.0)
    q4 = ObjectiveSpec("Q4", GAUSS, gamma=0.0)
    v2 = objective_value(q2, p, samples)
    v3 = objective_value(q3, p, samples, rng=RngStream(0, 9).generator())
    v4 = objective_value(q4, p, samples)
    assert v3 == pytest.approx(v2, rel=1e-14)
    assert v4 == pytest.approx(v2, rel=1e-14)


def test_q3_row_value_formula():
    """Q3_j adds gamma * (F(g_j)^2 - F(g_j) v F(g_b)) for the bootstrap row b.

    The penalty compares the prediction's law against an independent copy of
    itself (resampled prediction), pushing F(g) toward uniformity.
    """
    samples = make_samples()
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    q2 = ObjectiveSpec("Q2", GAUSS)
    for j in (0, 7, 39):
        b = (j * 11 + 3) % samples.count
        fg = GAUSS.cdf(predict(p, samples.X[j]))
        fb = GAUSS.cdf(predict(p, samples.X[b]))
        extra = 5.0 * (fg * fg - max(fg, fb))
        expected = q_value(q2, p, samples, j) + extra
        assert q_value(spec, p, samples, j, bootstrap_index=b) == pytest.approx(expected, rel=1e-13)


def test_q3_requires_bootstrap():
    samples = make_samples()
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    p = Predictor("linear", np.ones(3))
    with pytest.raises(MissingBootstrap):
        q_value(spec, p, samples, 0)
    with pytest.raises(MissingBootstrap):
        objective_value(spec, p, samples)
    with pytest.raises(IndexOutOfRange):
        q_value(spec, p, samples, 0, bootstrap_index=samples.count)


def test_row_index_range():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    p = Predictor("linear", np.ones(3))
    with pytest.raises(IndexOutOfRange):
        q_value(spec, p, samples, samples.count)
    with pytest.raises(IndexOutOfRange):
        q_value(spec, p, samples, -1)


def test_q4_mean_matches_row_average():
    """The sorted-identity fast path equals the straightforward row average."""
    samples = make_samples(n_rows=30)
    spec = ObjectiveSpec("Q4", GAUSS, gamma=5.0)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    rows = [q_value(spec, p, samples, j) for j in range(samples.count)]
    assert objective_value(spec, p, samples) == pytest.approx(np.mean(rows), rel=1e-12)


def test_q4_mean_permutation_invariant():
    samples = make_samples(n_rows=25)
    spec = ObjectiveSpec("Q4", GAUSS, gamma=5.0)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    base = objective_value(spec, p, samples)
    g = RngStream(106, 0).generator()
    perm = g.permutation(samples.count)
    shuffled = LearningSamples(samples.y[perm], samples.X[perm], np.arange(samples.count, dtype=float))
    assert objective_value(spec, p, shuffled) == pytest.approx(base, rel=1e-12)


def test_q2_invariant_under_common_scaling():
    """Scaling data and marginal together leaves every F value unchanged."""
    samples = make_samples()
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    v1 = objective_value(ObjectiveSpec("Q2", GAUSS), p, samples)
    scaled = LearningSamples(2.0 * samples.y, 2.0 * samples.X, samples.shifts)
    v2 = objective_value(ObjectiveSpec("Q2", Gaussian(0.0, 2.0)), p, scaled)
    assert v2 == pytest.approx(v1, rel=1e-14)


def test_objective_under_heavy_tail_marginal():
    """Cauchy weight keeps everything in [0, 1 + gamma] even for wild values."""
    g = RngStream(107, 0).generator()
    y = np.tan(np.pi * (g.uniform(size=50) - 0.5))  # standard Cauchy draws
    X = np.column_stack([np.tan(np.pi * (g.uniform(size=50) - 0.5)) for _ in range(3)])
    samples = LearningSamples(y, X, np.arange(50.0))
    spec = ObjectiveSpec("Q2", Cauchy(0.0, 1.0))
    p = Predictor("linear", np.array([10.0, -5.0, 2.0]))
    val = objective_value(spec, p, samples)
    assert 0.0 <= val <= 2.0


# --- subgradients ---------------------------------------------------------------


def test_q2_subgradient_formula():
    """(2*1{y<g} - 1) p(g) x for the linear predictor, away from the kink."""
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    for j in range(samples.count):
        ghat = predict(p, samples.X[j])
        sign = 1.0 if samples.y[j] < ghat else -1.0
        expected = sign * GAUSS.pdf(ghat) * samples.X[j]
        assert subgradient(spec, p, samples, j) == pytest.approx(expected, rel=1e-12)


def test_mean_subgradient_matches_rows_q2_q4():
    samples = make_samples(n_rows=35)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    for spec in (ObjectiveSpec("Q2", GAUSS), ObjectiveSpec("Q4", GAUSS, gamma=5.0)):
        rows = np.array([subgradient(spec, p, samples, j) for j in range(samples.count)])
        assert mean_subgradient(spec, p, samples) == pytest.approx(rows.mean(axis=0), rel=1e-10)


def test_mean_subgradient_matches_rows_q3_fixed_bootstrap():
    samples = make_samples(n_rows=35)
    p = Predictor("linear", np.array([0.3, -0.2, 0.5]))
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    boot = RngStream(2, 9).generator().integers(0, samples.count, size=samples.count)
    rows = np.array(
        [subgradient(spec, p, samples, j, bootstrap_index=boot[j]) for j in range(samples.count)]
    )
    got = mean_subgradient(spec, p, samples, rng=RngStream(2, 9).generator())
    assert got == pytest.approx(rows.mean(axis=0), rel=1e-10)


def test_subgradient_squared_and_max_kinds():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    j = 5
    x = samples.X[j]
    w = np.array([0.4, 0.1, 0.2])
    # squared: g = sum w_i^2 x_i, weight-space gradient 2 w x
    p2 = Predictor("squared", w)
    g2 = float(np.dot(w * w, x))
    sign = 1.0 if samples.y[j] < g2 else -1.0
    assert subgradient(spec, p2, samples, j) == pytest.approx(sign * GAUSS.pdf(g2) * 2 * w * x, rel=1e-12)
    # max: only the argmax coordinate carries gradient
    pm = Predictor("max", w)
    prods = w * x
    k = int(np.argmax(prods))
    gm = float(prods[k])
    e = np.zeros(3)
    e[k] = x[k]
    sign = 1.0 if samples.y[j] < gm else -1.0
    assert subgradient(spec, pm, samples, j) == pytest.approx(sign * GAUSS.pdf(gm) * e, abs=1e-12)


def test_subgradient_finite_difference_spot_check():
    """Directional FD agrees with the analytic mean subgradient at smooth points."""
    samples = make_samples(n_rows=60, seed=3)
    p = Predictor("linear", np.array([0.25, -0.15, 0.4]))
    eps = 1e-6
    for spec in (ObjectiveSpec("Q2", GAUSS), ObjectiveSpec("Q4", GAUSS, gamma=5.0)):
        grad = mean_subgradient(spec, p, samples)
        g = RngStream(3, 11).generator()
        for _ in range(5):
            d = g.standard_normal(3)
            d /= np.linalg.norm(d)
            up = objective_value(spec, p.with_weights(p.weights + eps * d), samples)
            dn = objective_value(spec, p.with_weights(p.weights - eps * d), samples)
            fd = (up - dn) / (2 * eps)
            assert fd == pytest.approx(float(np.dot(grad, d)), abs=2e-4)


def row_subgradient_oracle(spec, p, samples, j, b=None):
    """The Q2/Q3 row subgradient as the row block computes it: one-row 2-D
    products, checked pdf/cdf calls, rows j and b stacked."""
    F = spec.marginal.cdf
    if spec.variant == "Q2":
        _, G, _, coeff = _row_block(spec, p, samples, slice(j, j + 1))
        return coeff[0] * G[0]
    (gj, gb), G, pg, coeff = _row_block(spec, p, samples, slice(j, j + 1), slice(b, b + 1))
    out = coeff[0] * G[0] + spec.gamma * (2.0 * F(gj) - (gb < gj)) * pg[0] * G[0]
    return out - spec.gamma * (gb >= gj) * pg[1] * G[1]


def _oracle_rows(n, seed):
    """Gaussian and Cauchy rows plus the edge rows: all zeros (a Levy
    prediction of exactly 0), all equal (max ties) and a copy of row 0
    (gb == gj from two different rows)."""
    g = RngStream(seed, 23).generator()
    X = np.vstack([g.standard_normal((5, n)), g.standard_cauchy((4, n)),
                   np.zeros((1, n)), np.full((1, n), 0.5)])
    X = np.vstack([X, X[:1]])
    return LearningSamples(g.standard_normal(X.shape[0]), X, np.arange(X.shape[0], dtype=float))


@pytest.mark.parametrize("n", [1, 3, 10, 12])
@pytest.mark.parametrize("kind", ["linear", "squared", "max"])
def test_row_subgradient_bit_equal_to_row_block_oracle(kind, n):
    samples = _oracle_rows(n, seed=n)
    N = samples.count
    g = RngStream(n, 29).generator()
    # random signs give Levy predictions <= 0 (zero pdf); equal weights tie max
    weight_sets = (g.standard_normal(n), np.full(n, 0.7))
    marginals = (GAUSS, Cauchy(0.2, 1.5), Levy(0.8), StudentT(0.0, 1.0, 0.8))
    for w in weight_sets:
        p = Predictor(kind, w)
        for marginal in marginals:
            q2 = ObjectiveSpec("Q2", marginal)
            q3 = ObjectiveSpec("Q3", marginal, gamma=5.0)
            for j in range(N):
                cases = [(q2, None), (q3, j), (q3, (5 * j + 1) % N), (q3, N - 1 - j)]
                for spec, b in cases:
                    got = subgradient(spec, p, samples, j, bootstrap_index=b)
                    want = row_subgradient_oracle(spec, p, samples, j, b)
                    assert np.array_equal(got, want) and got.dtype == want.dtype, (marginal, j, b)


def test_row_subgradient_raises_on_overflowing_prediction():
    X = np.array([[1e308, 1e308], [0.5, -0.25]])
    samples = LearningSamples(np.zeros(2), X, np.arange(2.0))
    p = Predictor("linear", np.array([10.0, 10.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteInput):
            subgradient(ObjectiveSpec("Q2", GAUSS), p, samples, 0)
        q3 = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
        for j, b in ((0, 1), (1, 0)):
            with pytest.raises(NonFiniteInput):
                subgradient(q3, p, samples, j, bootstrap_index=b)


def rank_counts_oracle(f):
    """The N x N form: r_j = #{i<j: f_i < f_j}, c_j = #{i>j: f_i < f_j}."""
    less = f[:, None] < f[None, :]  # less[i, j] = f_i < f_j
    tri = np.tril(np.ones((f.size, f.size), dtype=bool), k=-1).T  # i < j
    return np.sum(less & tri, axis=0), np.sum(less.T & tri, axis=1)


def _count_inputs():
    g = RngStream(108, 0).generator()
    yield "n1", g.uniform(size=1)
    yield "n2", g.uniform(size=2)
    yield "n2_tie", np.full(2, 0.5)
    yield "n2_desc", np.array([0.9, 0.1])
    yield "n1001", g.uniform(size=1001)
    yield "all_equal", np.full(37, 0.25)
    yield "ties_5_levels", np.round(4.0 * g.uniform(size=300)) / 4.0
    # heavy-tailed cdf values pinned at the ends of [0, 1]
    yield "saturated", np.clip(np.tan(np.pi * (g.uniform(size=257) - 0.5)), 0.0, 1.0)


@pytest.mark.parametrize("name, f", list(_count_inputs()))
def test_rank_counts_equal_nxn_oracle(name, f):
    r, c = _rank_counts(f)
    ro, co = rank_counts_oracle(f)
    assert np.array_equal(r, ro) and r.dtype == ro.dtype
    assert np.array_equal(c, co) and c.dtype == co.dtype


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_q4_mean_subgradient_bit_equal_to_nxn_formula(scale):
    """Exact integer counts leave every float operation, and so every bit, as
    the N x N form had them; scale 40 saturates the cdf into heavy ties."""
    samples = make_samples(n_rows=503, seed=4)
    spec = ObjectiveSpec("Q4", GAUSS, gamma=5.0)
    p = Predictor("linear", scale * np.array([0.3, -0.2, 0.5]))
    N = samples.count
    ghat = p.values(samples.X)
    G, pg, fg = p.jacobian(samples.X), GAUSS.pdf(ghat), GAUSS.cdf(ghat)
    r, c = rank_counts_oracle(fg)
    coeff = (2.0 * (samples.y < ghat) - 1.0) * pg
    coeff = coeff + spec.gamma * (2.0 * fg - 1.0 / N - 2.0 / N * r) * pg
    coeff = coeff - 2.0 * spec.gamma / N * c * pg
    assert np.array_equal(mean_subgradient(spec, p, samples), (coeff[:, None] * G).mean(axis=0))


def test_q4_mean_subgradient_memory_is_linear_in_rows():
    """N = 20000 rows fit in a few MB; an N x N bool matrix alone is 400 MB."""
    samples = make_samples(n_rows=20_000, n_pred=10, seed=5)
    spec = ObjectiveSpec("Q4", GAUSS, gamma=5.0)
    p = Predictor("linear", np.full(10, 0.1))
    tracemalloc.start()
    try:
        mean_subgradient(spec, p, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_centered_objective():
    assert centered_objective(ObjectiveSpec("Q2", GAUSS), 0.58) == pytest.approx(0.08)
    spec3 = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    assert centered_objective(spec3, 0.58) == pytest.approx(0.58 - 0.5 + 5.0 / 3.0)
    spec4 = ObjectiveSpec("Q4", GAUSS, gamma=0.6)
    assert centered_objective(spec4, 0.5) == pytest.approx(0.2)
