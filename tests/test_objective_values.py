"""Properties the one-F(y)-per-sample-set evaluator rests on.

``ObjectiveValues`` computes F(y) once and finds each Q2 term from
F(y v g) = F(y) v F(g). That identity holds bit for bit only because every
marginal's ``_cdf`` is monotone in floating point, so it is checked here on
ties, signed zeros, +-1e300 and heavy-tailed draws. The evaluator itself is
compared with the formula it replaced, kept below as an oracle: the same
value bits and the same generator state afterwards. Derandomized, so every
run draws the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT  # noqa: E402
from tailcast.errors import NonFiniteInput  # noqa: E402
from tailcast.objective import (  # noqa: E402
    LearningSamples,
    ObjectiveSpec,
    ObjectiveValues,
    Predictor,
    objective_value,
)

MARGINALS = {"gauss": Gaussian(0.3, 2.0), "cauchy": Cauchy(-0.5, 1.5), "levy": Levy(0.8),
             "student": StudentT(0.0, 1.0, 0.8)}
# the cdf guard also takes the extreme Lévy scales the boundary accepts
CDF_MARGINALS = {**MARGINALS, "levy_tiny": Levy(5e-324), "levy_huge": Levy(1e300)}
SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308)
VALUES = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False) \
    | st.floats(-60.0, 60.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def objective_value_oracle(spec, p, samples, rng=None):
    """The mean functional as it was computed before F(y) was reused: checked
    cdf calls on g and on y v g, one bootstrap resample drawn from rng."""
    F = spec.marginal.cdf
    ghat = p.values(samples.X)
    fg = F(ghat)
    q2 = 2.0 * F(np.maximum(samples.y, ghat)) - fg
    if spec.variant == "Q2":
        return float(np.mean(q2))
    if spec.variant == "Q3":
        yb = fg[rng.integers(0, samples.count, size=samples.count)]
        return float(np.mean(q2 + spec.gamma * (fg * fg - np.maximum(fg, yb))))
    n = samples.count
    fs = np.sort(fg)
    run_total = float(np.sum((2.0 * np.arange(1, n + 1) - 1.0) * fs))
    return float(np.mean(q2) + spec.gamma * np.mean(fg * fg) - spec.gamma / (n * n) * run_total)


@st.composite
def value_pairs(draw):
    """(y, g) of one length: listed values or heavy-tailed draws for y, and
    each g a tie with y, the sign-flipped y (so +-0 meet), or a fresh value."""
    if draw(st.booleans(), label="heavy"):
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        size = int(g.integers(1, 2000))
        y = g.standard_cauchy(size) ** 3 * 10.0 ** g.integers(-5, 6, size)
        fresh = g.standard_cauchy(size) * g.choice([1e-3, 1.0, 1e3, 1e290], size)
        how = g.integers(0, 3, size)
    else:
        size = draw(st.integers(1, 24), label="size")
        y = np.array(draw(st.lists(VALUES, min_size=size, max_size=size), label="y"))
        fresh = np.array(draw(st.lists(VALUES, min_size=size, max_size=size), label="g"))
        how = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    return y, np.where(how == 0, y, np.where(how == 1, -y, fresh))


@pytest.mark.parametrize("marginal", sorted(CDF_MARGINALS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pair=value_pairs())
def test_cdf_of_max_is_max_of_cdf_bit_for_bit(marginal, pair):
    cdf = CDF_MARGINALS[marginal]._cdf
    y, g = pair
    with np.errstate(over="ignore"):  # Student-t overflows on extreme arguments
        assert np.array_equal(bits(cdf(np.maximum(y, g))), bits(np.maximum(cdf(y), cdf(g))))


@st.composite
def sample_sets(draw):
    """Learning rows with Gaussian and heavy-tailed values, some targets tied
    to a row's prediction-sized value, and three weight vectors."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    N, n = int(g.integers(1, 60)), int(g.integers(1, 6))
    X = np.where(g.random((N, n)) < 0.5, g.standard_normal((N, n)), g.standard_cauchy((N, n)))
    y = np.where(g.random(N) < 0.2, X[:, 0], g.standard_cauchy(N) * 10.0 ** g.integers(-2, 4, N))
    weights = [g.standard_normal(n), np.abs(g.standard_normal(n)), np.full(n, 1.0 / n)]
    return LearningSamples(y, X, np.arange(N, dtype=float)), weights


@pytest.mark.parametrize("marginal", sorted(MARGINALS))
@pytest.mark.parametrize("kind", ["linear", "squared", "max"])
@pytest.mark.parametrize("variant", ["Q2", "Q3", "Q4"])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(case=sample_sets())
def test_objective_values_bit_equal_to_the_formula_it_replaced(variant, kind, marginal, case):
    samples, weights = case
    spec = ObjectiveSpec(variant, MARGINALS[marginal], gamma=5.0 if variant != "Q2" else 0.0)
    value = ObjectiveValues(spec, samples)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    for w in weights:  # one F(y) serves every predictor
        p = Predictor(kind, w)
        got = value(p, got_rng)
        want = objective_value_oracle(spec, p, samples, want_rng)
        assert bits(got) == bits(want)
        assert bits(objective_value(spec, p, samples, rng=np.random.default_rng(3))) \
            == bits(objective_value_oracle(spec, p, samples, np.random.default_rng(3)))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_objective_values_reject_a_non_finite_prediction():
    X = np.array([[1e308, 1e308], [0.5, -0.25]])
    samples = LearningSamples(np.zeros(2), X, np.arange(2.0))
    p = Predictor("linear", np.array([10.0, 10.0]))
    for variant in ("Q2", "Q3", "Q4"):
        value = ObjectiveValues(ObjectiveSpec(variant, Gaussian(0.0, 1.0), gamma=1.0), samples)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
            value(p, np.random.default_rng(0))
