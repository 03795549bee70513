"""Properties of the rank kernels, the metrics and the row subgradients.

Inputs are drawn where the hand-picked cases of the other test files are
thin: arrays built from a pool of a few values, so that ties are common;
heavy-tailed pairs (Cauchy, Levy, Student-t with nu = 0.8); and learning rows
with entries up to 1e300. Derandomized, so every run draws the same
examples, and each test takes a fraction of a second.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT  # noqa: E402
from tailcast.errors import NonFiniteInput  # noqa: E402
from tailcast.metrics import (  # noqa: E402
    _COPULA_GRID,
    PairedSample,
    _copula_diagonal,
    excursion_metric_empirical,
    gini_empirical,
)
from tailcast.objective import (  # noqa: E402
    LearningSamples,
    ObjectiveSpec,
    Predictor,
    _rank_counts,
    mean_subgradient,
    subgradient,
)
from tailcast.rng import RngStream  # noqa: E402
from test_objective import rank_counts_oracle  # noqa: E402

PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)

MARGINALS = (Gaussian(0.0, 1.0), Cauchy(0.0, 1.0), Levy(1.0), StudentT(0.0, 1.0, 0.8))
HEAVY = MARGINALS[1:]

FINITE = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def tied_arrays(draw, min_size=1, max_size=64):
    """An array whose entries come from a pool of at most four values."""
    pool = draw(st.lists(FINITE, min_size=1, max_size=4))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)))


def untied_arrays(min_size=1, max_size=64):
    """An array of distinct values (0.0 and -0.0 tie, so at most one of them)."""
    return st.lists(FINITE, min_size=min_size, max_size=max_size, unique=True).map(np.array)


@st.composite
def heavy_pairs(draw):
    """A weighting marginal and a pair sample drawn from a heavy-tailed law:
    independent, identical, or rounded to a few levels so that both sides tie."""
    marginal = draw(st.sampled_from(HEAVY))
    n = draw(st.integers(10, 200))
    g = RngStream(draw(st.integers(0, 2**32 - 1)), 0).generator()
    a, b = marginal.sample(n, g), marginal.sample(n, g)
    kind = draw(st.sampled_from(("independent", "identical", "rounded")))
    if kind == "identical":
        b = a.copy()
    elif kind == "rounded":
        a, b = np.round(np.clip(a, -3.0, 3.0)), np.round(np.clip(b, -3.0, 3.0))
    return marginal, PairedSample(a, b)


@st.composite
def tied_pairs(draw):
    """A weighting marginal and a pair sample whose sides share one small pool."""
    v = draw(tied_arrays(min_size=20))
    half = v.size // 2
    return draw(st.sampled_from(MARGINALS)), PairedSample(v[:half], v[half:2 * half])


@PROPERTY
@given(f=tied_arrays() | untied_arrays())
def test_rank_counts_equal_nxn_oracle_on_tied_arrays(f):
    r, c = _rank_counts(f)
    ro, co = rank_counts_oracle(f)
    assert np.array_equal(r, ro)
    assert np.array_equal(c, co)


@PROPERTY
@given(pair=tied_pairs() | heavy_pairs())
def test_copula_diagonal_equals_scipy_average_rank_diagonal(pair):
    _, s = pair
    u = stats.rankdata(s.a, "average") / s.n
    v = stats.rankdata(s.b, "average") / s.n
    want = np.searchsorted(np.sort(np.maximum(u, v)), _COPULA_GRID, "right") / s.n
    assert _copula_diagonal(s, _COPULA_GRID).tobytes() == want.tobytes()


@PROPERTY
@given(pair=heavy_pairs() | tied_pairs())
def test_excursion_and_gini_stay_in_range(pair):
    marginal, s = pair
    assert 0.0 <= excursion_metric_empirical(s, marginal) <= 1.0
    assert 0.0 <= gini_empirical(s) <= 0.5


@PROPERTY
@given(marginal=st.sampled_from(MARGINALS), variant=st.sampled_from(("Q2", "Q3")),
       kind=st.sampled_from(("linear", "squared", "max")),
       X=st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=2, max_size=20),
       weights=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=2),
       j=st.integers(0, 19), b=st.integers(0, 19), seed=st.integers(0, 2**32 - 1))
# predictions near 2e-220: the Levy pdf's exponential underflows there
@example(marginal=Levy(1.0), variant="Q2", kind="squared", X=[[1.0, 2.0], [2.0, 1.0]],
         weights=[1e-110, 1e-110], j=0, b=1, seed=0)
def test_row_and_mean_subgradients_are_finite_or_refused(marginal, variant, kind, X, weights,
                                                         j, b, seed):
    X = np.array(X)
    samples = LearningSamples(np.abs(X[:, 0]), X, np.arange(len(X), dtype=float))
    spec = ObjectiveSpec(variant, marginal, gamma=5.0)
    p = Predictor(kind, np.array(weights))
    calls = (lambda: subgradient(spec, p, samples, j % len(X), bootstrap_index=b % len(X)),
             lambda: mean_subgradient(spec, p, samples, rng=RngStream(seed, 0).generator()))
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            try:
                grad = call()
            except NonFiniteInput:
                continue
            assert np.all(np.isfinite(grad))
