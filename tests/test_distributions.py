import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

import tailcast.distributions
from tailcast.distributions import (
    Cauchy,
    Gaussian,
    Levy,
    StudentT,
    estimate,
    from_json,
    to_json,
)
from tailcast.errors import DomainError, NonFiniteInput
from tailcast.rng import RngStream

ALL_MODELS = [
    Gaussian(0.0, 1.0),
    Gaussian(2.0, 3.0),
    Cauchy(0.0, 1.0),
    Cauchy(1.0, 2.0),
    Levy(1.0),
    Levy(0.5),
    StudentT(0.0, 1.0, 0.8),
    StudentT(0.0, 10.0, 0.7),
    StudentT(2.0, 3.0, 5.0),
]


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: repr(m))
def test_quantile_cdf_round_trip(m):
    p = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-8)


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: repr(m))
def test_cdf_strictly_increasing_on_support(m):
    # 1000 support points via quantiles: consecutive cdf values must grow
    x = m.quantile(np.linspace(0.001, 0.999, 1000))
    c = m.cdf(x)
    assert np.all(np.diff(c) > 0)


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: repr(m))
def test_pdf_matches_cdf_derivative(m):
    x = m.quantile(np.linspace(0.05, 0.95, 19))
    step = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    fd = (m.cdf(x + step) - m.cdf(x - step)) / (2 * step)
    np.testing.assert_allclose(m.pdf(x), fd, rtol=1e-4, atol=1e-10)


def test_sampler_against_cdf_kolmogorov_smirnov():
    """KS statistic below 1.95/sqrt(n) in at least 19 of 20 seeds."""
    n = 20000
    crit = 1.95 / np.sqrt(n)
    for m in (Gaussian(0.0, 1.0), Cauchy(0.0, 1.0), Levy(1.0), StudentT(0.0, 1.0, 0.8)):
        ok = 0
        for seed in range(20):
            g = RngStream(seed, 11).generator()
            x = np.sort(m.sample(n, g))
            u = m.cdf(x)
            k = np.arange(1, n + 1)
            ks = max(np.max(k / n - u), np.max(u - (k - 1) / n))
            ok += ks < crit
        assert ok >= 19, f"{m!r}: only {ok}/20 seeds below KS threshold"


def test_gaussian_cdf_known_values():
    m = Gaussian(0.0, 1.0)
    assert m.cdf(0.0) == pytest.approx(0.5)
    assert m.cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def test_cauchy_cdf_known_values():
    m = Cauchy(0.0, 1.0)
    assert m.cdf(0.0) == pytest.approx(0.5)
    assert m.cdf(1.0) == pytest.approx(0.75)
    assert m.quantile(0.75) == pytest.approx(1.0)


def test_levy_cdf_and_support():
    m = Levy(1.0)
    # P(X <= c) = erfc(1/sqrt 2); quadrature of the density gives the same mass
    assert m.cdf(1.0) == pytest.approx(0.31731050786291415, abs=1e-12)
    assert m.cdf(0.0) == 0.0
    assert m.cdf(-3.0) == 0.0
    assert m.pdf(-3.0) == 0.0
    assert m.quantile(0.5) == pytest.approx(1.0 / (2.0 * 0.4769362762044699**2), rel=1e-12)


def levy_pdf_product(c, x):
    """The pdf as a product of floats, 0 where the exponential underflows, and
    whether each of its factors is a normal float; ``Levy.pdf`` keeps the
    product's bits wherever it is positive and finite and its factors normal."""
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        power, tail = x ** -1.5, np.exp(-c / (2.0 * x))
        product = np.sqrt(c / (2.0 * np.pi)) * np.where(tail > 0, x, 1.0) ** -1.5 * tail
        normal = (c / (2.0 * np.pi) >= tiny) & (power >= tiny) & (power < np.inf) & (tail >= tiny)
    return product, normal


def levy_pdf_decimal(c, x):
    """The closed form in 40-digit decimals, which do not overflow."""
    with localcontext() as ctx:
        ctx.prec = 40
        c, x = ctx.create_decimal(c), ctx.create_decimal(x)
        pi = Decimal("3.141592653589793238462643383279502884197")
        return float((c / (2 * pi)).sqrt() / (x * x.sqrt()) * (-c / (2 * x)).exp())


def test_levy_pdf_keeps_the_product_where_positive_and_finite_and_logs_elsewhere():
    """x ** -1.5 overflows below x ~ 3e-206 and underflows above x ~ 1e205,
    and c / (2 pi) rounds to 0 for a subnormal c: the product is then 0 or
    not finite where the pdf is a normal float all the same. Where a factor
    is subnormal the product is finite but has lost bits, so the logs take
    over there too. Every point whose pdf is a normal float matches the
    40-digit closed form."""
    assert Levy(5e-324).pdf(1.0) == pytest.approx(8.8675244430181e-163, rel=1e-12, abs=0.0)
    assert Levy(1e300).pdf(1e302) == pytest.approx(3.9695254747701e-304, rel=1e-12, abs=0.0)
    assert Levy(1e-300).pdf(1e-299) == pytest.approx(1.200038948430136e298, rel=1e-12, abs=0.0)
    # one subnormal factor: x ** -1.5, exp(-c / (2 x)) and c / (2 pi) in turn
    # (references by mpmath at 40 digits)
    assert Levy(1e100).pdf(1e214) == pytest.approx(3.9894228040143270837e-272, rel=1e-12, abs=0.0)
    assert Levy(1e100).pdf(1e210) == pytest.approx(3.9894228040143272473e-266, rel=1e-12, abs=0.0)
    assert Levy(1e-200).pdf(1e-200 / 1480) == pytest.approx(9.5145013156569332931e-118,
                                                            rel=1e-12, abs=0.0)
    assert Levy(1e-320).pdf(1e-200) == pytest.approx(3.9894005971948819266e139, rel=1e-12, abs=0.0)
    x = np.logspace(-323, 300, 6231)
    tiny = np.finfo(float).tiny
    for c in (5e-324, 1e-300, 1e-250, 1e-203, 1e-200, 1e-3, 1.0, 1e3, 1e300):
        got, (want, normal) = Levy(c).pdf(x), levy_pdf_product(c, x)
        kept = (want > 0) & np.isfinite(want) & normal
        assert np.array_equal(got[kept], want[kept])
        for xi, pi in zip(x, got):
            ref = levy_pdf_decimal(c, xi)
            if tiny <= ref < np.inf:
                assert pi == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert np.all(Levy(c).pdf(np.array([0.0, -0.0, -5e-324, -1.0, -1e300])) == 0.0)


PACKED_MODELS = [Gaussian(0.3, 2.0), Cauchy(-0.5, 1.5), Levy(5e-324), Levy(0.8), Levy(1e300),
                 StudentT(0.0, 1.0, 0.7), StudentT(0.0, 1.0, 0.8)]


@pytest.mark.parametrize("m", PACKED_MODELS, ids=lambda m: repr(m))
def test_kernels_on_a_packed_block_equal_one_call_per_value(m):
    """Packed row subgradients evaluate several chains' rows in one kernel
    call; each value must come out as it would alone."""
    g = RngStream(5, 0).generator()
    x = np.concatenate([g.standard_cauchy(500) ** 3 * 10.0 ** g.integers(-8, 9, 500),
                        [0.0, -0.0, -1.0, -2.5, 5e-324, 1e300, -1e300]])
    g.shuffle(x)
    with np.errstate(over="ignore"):  # Gaussian, Cauchy and Student-t overflow at 1e300
        for kernel in (m._pdf, m._cdf):
            alone = np.concatenate([kernel(x[i:i + 1]) for i in range(x.size)])
            for size in range(1, 9):
                packed = np.concatenate([kernel(x[i:i + size]) for i in range(0, x.size, size)])
                assert np.array_equal(packed.view(np.uint64), alone.view(np.uint64)), size


STANDARD_ARGS = np.array([s * v for v in (0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300) for s in (1.0, -1.0)])


@pytest.mark.parametrize("m", [Gaussian(), Cauchy(), StudentT(0.0, 1.0, 0.8),
                               Gaussian(-0.0, 1.0), Cauchy(-0.0, 1.0), StudentT(-0.0, 1.0, 0.8)],
                         ids=repr)
def test_standard_law_skips_affine_map_bit_for_bit(m, monkeypatch):
    """A law with mu = 0 and sigma = 1 hands its kernels x itself; they must
    give the bytes of the explicit (x - mu) / sigma, on both zeros,
    subnormals and values whose square overflows."""
    x = STANDARD_ARGS
    with np.errstate(over="ignore"):  # z * z overflows at 1e150 and beyond
        if not np.signbit(m.mu):
            assert m._z(x).tobytes() == ((x - 0.0) / 1.0).tobytes()
        shortcut = [kernel(x).tobytes() for kernel in (m._cdf, m._pdf)]
        monkeypatch.setattr(tailcast.distributions._LocationScale, "_z",
                            lambda self, x: (x - self.mu) / self.sigma)
        assert [kernel(x).tobytes() for kernel in (m._cdf, m._pdf)] == shortcut


def test_levy_sampler_is_inverse_square_normal():
    g = RngStream(3, 0).generator()
    x = Levy(2.0).sample(50000, g)
    assert np.all(x > 0)
    # median of c/Z^2 is c / quantile(Z^2, 0.5)
    med = np.median(x)
    assert med == pytest.approx(2.0 / 0.45493642311957283, rel=0.05)


def test_student_t_matches_cauchy_at_nu_one():
    x = np.linspace(-50.0, 50.0, 100)
    np.testing.assert_allclose(StudentT(0.0, 1.0, 1.0).cdf(x), Cauchy(0.0, 1.0).cdf(x), atol=1e-9)


def test_student_t_known_quantile():
    # nu=2: quantile(0.75) = sqrt(2)/sqrt(3) * ... known closed form 0.8164965809
    assert StudentT(0.0, 1.0, 2.0).quantile(0.75) == pytest.approx(0.8164965809277261, rel=1e-10)


def test_quantile_domain_errors():
    m = Gaussian(0.0, 1.0)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            m.quantile(p)


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteInput):
        Gaussian(0.0, 1.0).cdf(np.nan)
    with pytest.raises(NonFiniteInput):
        Cauchy(0.0, 1.0).pdf(np.inf)


def test_invalid_params_rejected():
    with pytest.raises(DomainError):
        Gaussian(0.0, -1.0)
    with pytest.raises(DomainError):
        Levy(0.0)
    with pytest.raises(DomainError):
        StudentT(0.0, 1.0, -0.5)


# family -> its parameters in field order, and those that must be positive
PARAMETERS = {
    Gaussian: (("mu", "sigma"), ("sigma",)),
    Cauchy: (("mu", "sigma"), ("sigma",)),
    Levy: (("c",), ("c",)),
    StudentT: (("mu", "sigma", "nu"), ("sigma", "nu")),
}


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value) for cls, (names, _) in PARAMETERS.items()
    for name in names for value in (np.nan, np.inf, -np.inf)])
def test_non_finite_parameter_rejected(cls, name, value):
    with pytest.raises(NonFiniteInput, match="^parameters must be finite$"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value) for cls, (_, positive) in PARAMETERS.items()
    for name in positive for value in (0.0, -1.0)])
def test_non_positive_parameter_rejected(cls, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be positive$"):
        cls(**{name: value})


def test_parameter_checks_run_in_order():
    """Finiteness of every parameter first, then positivity in field order."""
    with pytest.raises(NonFiniteInput):
        StudentT(0.0, -1.0, np.nan)
    with pytest.raises(DomainError, match="^sigma must be positive$"):
        StudentT(0.0, 0.0, 0.0)


@pytest.mark.parametrize("model, as_json, as_repr", [
    (Gaussian(0.5, 2.0), '{"family": "gaussian", "params": {"mu": 0.5, "sigma": 2.0}}',
     "Gaussian(mu=0.5, sigma=2)"),
    (Cauchy(-1.0, 0.25), '{"family": "cauchy", "params": {"mu": -1.0, "sigma": 0.25}}',
     "Cauchy(mu=-1, sigma=0.25)"),
    (Levy(3.0), '{"family": "levy", "params": {"c": 3.0}}', "Levy(c=3)"),
    (StudentT(0.0, 1.5, 0.8),
     '{"family": "student_t", "params": {"mu": 0.0, "sigma": 1.5, "nu": 0.8}}',
     "StudentT(mu=0, sigma=1.5, nu=0.8)"),
])
def test_json_and_repr_list_parameters_in_field_order(model, as_json, as_repr):
    assert json.dumps(to_json(model)) == as_json
    assert repr(model) == as_repr


def test_scalar_and_array_dispatch():
    m = Gaussian(0.0, 1.0)
    assert isinstance(m.cdf(0.3), float)
    out = m.cdf(np.array([0.1, 0.2]))
    assert out.shape == (2,)


def test_json_round_trip():
    for m in ALL_MODELS:
        m2 = from_json(to_json(m))
        assert type(m2) is type(m)
        assert to_json(m2) == to_json(m)


def test_estimate_gaussian():
    g = RngStream(1, 0).generator()
    x = Gaussian(2.0, 3.0).sample(10000, g)
    m = estimate("gaussian", x)
    assert m.mu == pytest.approx(2.0, abs=0.1)
    assert m.sigma == pytest.approx(3.0, abs=0.1)


def test_estimate_cauchy():
    g = RngStream(2, 0).generator()
    x = Cauchy(0.0, 1.0).sample(10000, g)
    m = estimate("cauchy", x)
    assert m.mu == pytest.approx(0.0, abs=0.05)
    assert m.sigma == pytest.approx(1.0, abs=0.1)


def test_estimate_levy():
    g = RngStream(3, 0).generator()
    x = Levy(1.5).sample(20000, g)
    m = estimate("levy", x)
    assert m.c == pytest.approx(1.5, rel=0.1)


def test_estimate_student_t_recovers_quantiles():
    g = RngStream(4, 0).generator()
    x = StudentT(1.0, 2.0, 3.0).sample(50000, g)
    m = estimate("student_t", x)
    assert m.mu == pytest.approx(1.0, abs=0.1)
    # the fit matches the sample quantiles it was built from
    q75, q95 = np.quantile(x, [0.75, 0.95])
    assert m.quantile(0.75) == pytest.approx(q75, rel=0.01)
    assert m.quantile(0.95) == pytest.approx(q95, rel=0.01)


def test_estimate_errors():
    with pytest.raises(DomainError, match="observations, got 10$"):
        estimate("gaussian", np.arange(10.0))
    with pytest.raises(DomainError, match="^all observations identical$"):
        estimate("gaussian", np.full(100, 2.0))
    with pytest.raises(DomainError):
        estimate("alpha_stable_symmetric", np.arange(100.0))
