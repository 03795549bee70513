import numpy as np
import pytest
from scipy import stats

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.errors import DomainError, NonFiniteInput
from tailcast.processes import (
    ArStudentT,
    GaussExpCov,
    StableMovingAverage,
    Trajectory,
    _simulate_gauss_rows,
    default_kernel,
    simulate,
    simulate_ar,
    simulate_gauss_exp_cov,
    simulate_stable_ma,
    write_trajectory_csv,
)
from tailcast.rng import RngStream


# --- Trajectory container ---------------------------------------------------


def test_trajectory_times_and_index():
    tr = Trajectory(30.0, 0.1, np.arange(5.0))
    assert np.allclose(tr.times, [30.0, 30.1, 30.2, 30.3, 30.4])
    assert tr.index_of(30.3) == 3
    assert tr.index_of(30.0) == 0


def test_trajectory_index_misaligned():
    tr = Trajectory(0.0, 0.1, np.arange(5.0))
    with pytest.raises(DomainError, match=r"^t=0\.15 is not a multiple of h"):
        tr.index_of(0.15)
    with pytest.raises(DomainError, match="outside the simulated window"):
        tr.index_of(0.5)  # outside window
    off = Trajectory(0.01, 0.1, np.arange(5.0))  # t0 off the lattice hZ
    with pytest.raises(DomainError, match=r"^t=0\.11 is not a multiple of h"):
        off.index_of(0.11)
    with pytest.raises(DomainError, match=r"^t0=0\.01 is not a multiple of h"):
        off.index_of(0.1)


def test_trajectory_validation():
    with pytest.raises(DomainError, match="need finite t0 and step h"):
        Trajectory(0.0, 0.0, np.arange(3.0))
    with pytest.raises(DomainError, match="need finite t0 and step h"):
        Trajectory(0.0, -0.1, np.arange(3.0))
    with pytest.raises(DomainError, match="must hold at least one value"):
        Trajectory(0.0, 0.1, np.array([]))
    with pytest.raises(NonFiniteInput):
        Trajectory(0.0, 0.1, np.array([1.0, np.nan]))


# --- moving-average kernels ------------------------------------------------


def test_kernel_stable_norms_are_one():
    k1 = default_kernel(1.0)
    k5 = default_kernel(0.5)
    assert k1.size == 251 and k5.size == 251
    assert abs(np.sum(np.abs(k1)) - 1.0) <= 1e-6
    assert abs(np.sum(np.sqrt(k5)) ** 2 - 1.0) <= 1e-6
    # first tap, frozen
    assert k1[0] == pytest.approx(0.019932974556096578, rel=1e-14)


def test_kernel_support_is_exactly_251_taps():
    """One extra tap breaks the unit-norm identity well past tolerance."""
    x = np.arange(252, dtype=float)
    e1 = np.exp(-0.02 * x) * (1 - np.exp(-0.02)) / (1 - np.exp(-5.02))
    e5 = np.exp(-0.02 * x) * (1 - np.exp(-0.01)) ** 2 / (1 - np.exp(-2.51)) ** 2
    assert abs(np.sum(np.abs(e1)) - 1.0) > 1e-4
    assert abs(np.sum(np.sqrt(e5)) ** 2 - 1.0) > 1e-3


def test_kernel_built_once_per_alpha_and_read_only():
    """Every caller shares one read-only array per alpha, with the bits of
    the formula in default_kernel's docstring."""
    x = np.arange(251, dtype=float)
    formulas = {1.0: np.exp(-0.02 * x) * (1 - np.exp(-0.02)) / (1 - np.exp(-5.02)),
                0.5: np.exp(-0.02 * x) * (1 - np.exp(-0.01)) ** 2 / (1 - np.exp(-2.51)) ** 2}
    for alpha, want in formulas.items():
        k = default_kernel(alpha)
        assert k is default_kernel(alpha) is StableMovingAverage(alpha).kernel
        assert k.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            k[0] = 0.0


def test_kernel_unsupported_alpha():
    for _ in range(2):  # the error is raised anew, not cached
        with pytest.raises(DomainError, match="no default kernel for alpha=1.5"):
            default_kernel(1.5)
    with pytest.raises(DomainError, match=r"^alpha must be one of \(0\.5, 1\.0\)$") as err:
        StableMovingAverage(1.5)
    assert err.value.key == "alpha"


def test_stable_ma_is_its_alpha():
    """The kernel follows from alpha, so equal alphas give equal, hashable
    processes with the default kernel."""
    spec = StableMovingAverage(0.5)
    assert spec == StableMovingAverage(0.5) != StableMovingAverage(1.0)
    assert hash(spec) == hash(StableMovingAverage(0.5))
    assert np.array_equal(spec.kernel, default_kernel(0.5))


# --- Gaussian process -------------------------------------------------------


def test_gauss_markov_recursion_is_exact():
    """The path is the exact AR(1) driven by the generator's normal draws."""
    g = RngStream(7, 3).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 50, g)
    z = RngStream(7, 3).generator().standard_normal(50)
    r = np.exp(-0.01)
    x = np.empty(50)
    x[0] = z[0]
    for i in range(1, 50):
        x[i] = r * x[i - 1] + np.sqrt(1 - r * r) * z[i]
    assert np.allclose(traj.values, x, atol=1e-14)


class GivenNormals:
    """A generator stand-in whose standard normal draws are given."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, n):
        assert n == self.z.size
        return self.z.copy()


@pytest.mark.parametrize("h", [1e-6, 0.02, 0.1, 0.5, 3.0])
def test_gauss_path_is_lfilter_bit_for_bit(h):
    """The recursion gives the bytes of scipy.signal.lfilter, signed zeros
    included; the package itself never imports scipy.signal for it."""
    from scipy import signal

    g = np.random.default_rng(int(h * 1e6))
    lengths = [1, 2, 3000] + [int(n) for n in g.integers(1, 3001, size=8)]
    draws = [g.standard_normal(n) for n in lengths] + [np.zeros(50), np.full(50, -0.0)]
    r = np.exp(-h / 2.0)
    for z in draws:
        innov = z.copy()
        innov[1:] *= np.sqrt(1.0 - r * r)
        want = signal.lfilter([1.0], [1.0, -r], innov)
        got = simulate_gauss_exp_cov(0.0, h, z.size, GivenNormals(z)).values
        assert got.tobytes() == want.tobytes(), (h, z.size)


@pytest.mark.parametrize("R", [1, 3, 257])
@pytest.mark.parametrize("L", [1, 2, 101])
def test_gauss_rows_equal_one_simulate_per_row(R, L):
    """Row r of the block is the path ``simulate`` gives from generator r."""
    h = 0.02
    block = _simulate_gauss_rows(h, L, (RngStream(11, 4).generator(r) for r in range(R)))
    assert block.shape == (R, L)
    for r in range(R):
        path = simulate(GaussExpCov(), 30.0, h, L, RngStream(11, 4).generator(r)).values
        assert block[r].tobytes() == path.tobytes(), (R, L, r)


def test_gauss_rows_equal_lfilter_per_row():
    """Each row gives the bytes of scipy.signal.lfilter on its own innovations."""
    from scipy import signal

    h, R, L = 0.1, 257, 101
    r = np.exp(-h / 2.0)
    block = _simulate_gauss_rows(h, L, (RngStream(12, 4).generator(i) for i in range(R)))
    for i in range(R):
        innov = RngStream(12, 4).generator(i).standard_normal(L)
        innov[1:] *= np.sqrt(1.0 - r * r)
        want = signal.lfilter([1.0], [1.0, -r], innov)
        assert block[i].tobytes() == want.tobytes(), i


def test_gauss_lag_one_correlation():
    g = RngStream(8, 3).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 200000, g)
    v = traj.values
    corr = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert corr == pytest.approx(0.990049833749168, abs=0.003)  # exp(-0.01)
    # the path decorrelates over ~200 steps, so the variance estimate is loose
    assert np.var(v) == pytest.approx(1.0, abs=0.15)


def test_gauss_long_range_covariance():
    """Cov(X(0), X(t)) = exp(-t/2): check a macroscopic lag."""
    g = RngStream(9, 3).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.1, 400000, g)
    v = traj.values
    lag = 20  # t = 2.0 -> exp(-1)
    c = np.mean(v[:-lag] * v[lag:])
    assert c == pytest.approx(np.exp(-1.0), abs=0.01)


# --- stable moving averages --------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_stable_ma_marginal_law(alpha):
    """Values spaced beyond the kernel support are iid with the standard law."""
    spec = StableMovingAverage(alpha)
    g = RngStream(42, 5).generator()
    traj = simulate_stable_ma(spec, 0.0, 1.0, 260 * 400, g)
    sub = traj.values[::260]
    stat, pval = stats.kstest(sub, spec.marginal.cdf)
    assert pval > 0.01


def test_stable_ma_marginal_objects():
    """One frozen standard law per alpha, shared by every spec."""
    assert StableMovingAverage(1.0).marginal == Cauchy(0.0, 1.0)
    assert StableMovingAverage(0.5).marginal == Levy(1.0)
    for alpha in (1.0, 0.5):
        assert StableMovingAverage(alpha).marginal is StableMovingAverage(alpha).marginal


def test_levy_ma_values_positive():
    spec = StableMovingAverage(0.5)
    g = RngStream(43, 5).generator()
    traj = simulate_stable_ma(spec, 0.0, 0.02, 2000, g)
    assert np.all(traj.values > 0.0)


def test_stable_ma_lattice_alignment():
    spec = StableMovingAverage(1.0)
    g = RngStream(44, 5).generator()
    with pytest.raises(DomainError, match=r"^t0=0\.01 is not a multiple of h"):
        simulate_stable_ma(spec, 0.01, 0.02, 10, g)  # t0 off the lattice
    traj = simulate_stable_ma(spec, -2.0, 0.5, 10, g)
    assert traj.t0 == -2.0


def test_stable_ma_is_dependent_nearby():
    """Neighboring values share nearly the whole kernel: rank correlation high."""
    spec = StableMovingAverage(1.0)
    g = RngStream(45, 5).generator()
    traj = simulate_stable_ma(spec, 0.0, 0.02, 5000, g)
    v = traj.values
    rho = stats.spearmanr(v[:-1], v[1:]).statistic
    assert rho > 0.9


# --- autoregressive process --------------------------------------------------


def test_ar_coefficient_order_and_roots():
    """phi_1 multiplies the most distant lag; the frozen root moduli confirm it."""
    spec = ArStudentT((0.1, 0.25, 0.5), StudentT(0.0, 10.0, 0.7))
    assert np.allclose(spec.lag_coeffs, [0.5, 0.25, 0.1])
    a = spec.lag_coeffs
    roots = np.roots(np.concatenate([-a[::-1], [1.0]]))
    assert np.allclose(np.sort(np.abs(roots)), [1.11014873, 3.00130006, 3.00130006], atol=1e-6)


def test_ar_nonstationary_rejected():
    with pytest.raises(DomainError, match="must lie outside the unit circle"):
        ArStudentT((1.2,), Cauchy(0.0, 1.0))
    with pytest.raises(DomainError, match="must lie outside the unit circle"):
        ArStudentT((0.3, 0.3, 0.5), Cauchy(0.0, 1.0))  # coefficients sum to 1.1


def test_ar_recursion_is_exact():
    """With burn_in=0 the output is exactly the recursion on fresh innovations."""
    innovation = StudentT(0.0, 1.0, 3.0)
    spec = ArStudentT((0.1, 0.25, 0.5), innovation)
    g = RngStream(10, 3).generator()
    traj = simulate_ar(spec, 0.0, 0.1, 40, burn_in=0, rng=g)
    xi = innovation.sample(40, RngStream(10, 3).generator())
    lag = spec.lag_coeffs
    x = np.zeros(40)
    for i in range(40):
        acc = xi[i]
        for k in range(1, 4):
            if i - k >= 0:
                acc += lag[k - 1] * x[i - k]
        x[i] = acc
    assert np.allclose(traj.values, x, atol=1e-12)


def test_ar_burn_in_drops_transient():
    innovation = Gaussian(0.0, 1.0)
    spec = ArStudentT((0.1, 0.25, 0.5), innovation)
    g = RngStream(11, 3).generator()
    full = simulate_ar(spec, 0.0, 0.1, 100, burn_in=0, rng=g)
    g2 = RngStream(11, 3).generator()
    tail = simulate_ar(spec, 0.0, 0.1, 60, burn_in=40, rng=g2)
    assert np.allclose(tail.values, full.values[40:], atol=1e-12)


def test_simulate_dispatch():
    g = RngStream(12, 3).generator()
    assert simulate(GaussExpCov(), 0.0, 0.02, 10, g).values.size == 10
    assert simulate(StableMovingAverage(1.0), 0.0, 0.02, 10, g).values.size == 10
    spec = ArStudentT((0.5,), Gaussian(0.0, 1.0))
    assert simulate(spec, 0.0, 0.1, 10, g).values.size == 10
    with pytest.raises(TypeError):
        simulate(object(), 0.0, 0.1, 10, g)


# --- CSV round trip -----------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    g = RngStream(13, 3).generator()
    traj = simulate_gauss_exp_cov(1.5, 0.02, 25, g)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    assert path.read_text().startswith("t,value\n")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back[:, 1] == pytest.approx(traj.values, rel=1e-15, abs=0.0)
    assert back[:, 0] == pytest.approx(traj.times, rel=1e-15)
