import threading
import tracemalloc

import numpy as np
import pytest

from tailcast.distributions import Cauchy, Gaussian
from tailcast.errors import DomainError, NonFiniteInput
from tailcast.metrics import (
    _COPULA_GRID,
    PairedSample,
    _copula_diagonal,
    _grid_bins,
    delta_curve,
    excursion_metric_empirical,
    gaussian_copula_diag,
    gini_empirical,
    max_excursion_distance_empirical,
    wasserstein2_samples,
    wasserstein2_to_uniform,
)
from tailcast.rng import RngStream


def gauss_pairs(rho, n, seed=0):
    g = RngStream(seed, 21).generator()
    x = g.standard_normal(n)
    y = rho * x + np.sqrt(1.0 - rho * rho) * g.standard_normal(n)
    return PairedSample(x, y)


def test_paired_sample_validation():
    with pytest.raises(DomainError, match="paired sample lengths differ: 2 vs 1"):
        PairedSample([1.0, 2.0], [1.0])
    with pytest.raises(NonFiniteInput):
        PairedSample([1.0, np.nan], [1.0, 2.0])


# --- excursion metric -------------------------------------------------------


def test_excursion_metric_zero_on_identical():
    g = RngStream(1, 0).generator()
    x = g.standard_normal(500)
    s = PairedSample(x, x)
    assert excursion_metric_empirical(s, Gaussian(0.0, 1.0)) == 0.0


def test_excursion_metric_symmetry_exact():
    g = RngStream(2, 0).generator()
    a, b = g.standard_normal(400), g.standard_normal(400)
    w = Gaussian(0.0, 1.0)
    assert (excursion_metric_empirical(PairedSample(a, b), w)
            == excursion_metric_empirical(PairedSample(b, a), w))


def test_excursion_metric_triangle_inequality():
    """Triangle inequality holds exactly per-row for the separation form."""
    g = RngStream(3, 0).generator()
    w = Cauchy(0.0, 1.0)
    for _ in range(50):
        a, b, c = g.standard_normal((3, 200)) * g.uniform(0.5, 3.0)
        ab = excursion_metric_empirical(PairedSample(a, b), w)
        bc = excursion_metric_empirical(PairedSample(b, c), w)
        ac = excursion_metric_empirical(PairedSample(a, c), w)
        assert ac <= ab + bc + 1e-12


def test_excursion_metric_independent_uniform_third():
    # weight equal to the true marginal: metric = E|U-V| = 1/3
    s = gauss_pairs(0.0, 200000)
    val = excursion_metric_empirical(s, Gaussian(0.0, 1.0))
    assert val == pytest.approx(1.0 / 3.0, abs=0.005)


def test_delta_curve_matches_level_probabilities():
    """Delta(u) = P(min <= u) - P(max <= u), checked against direct counting."""
    g = RngStream(4, 0).generator()
    a, b = g.standard_normal(1000), g.standard_normal(1000)
    s = PairedSample(a, b)
    levels = np.linspace(-2.0, 2.0, 9)
    d = delta_curve(s, levels)
    for u, val in zip(levels, d):
        direct = np.mean((a > u) != (b > u))
        assert val == pytest.approx(direct, abs=1e-12)


def test_level_integral_equals_separation_form():
    """Mean |F(a)-F(b)| equals the level integral of Delta against the weight law."""
    g = RngStream(5, 0).generator()
    w = Gaussian(0.0, 1.0)
    for trial in range(10):
        rho = g.uniform(-0.95, 0.95)
        scale = g.uniform(0.5, 2.0)
        x = g.standard_normal(4000)
        y = rho * x + np.sqrt(1 - rho * rho) * g.standard_normal(4000)
        s = PairedSample(scale * x, scale * y)
        sep = excursion_metric_empirical(s, w)
        # integrate Delta(u) dF_w(u) by quantile sampling of the weight law
        u = w.quantile((np.arange(2000) + 0.5) / 2000)
        lvl = float(np.mean(delta_curve(s, u)))
        assert lvl == pytest.approx(sep, abs=0.005)


# --- Gini -------------------------------------------------------------------


def test_gini_independent_one_third():
    s = gauss_pairs(0.0, 500000)
    assert gini_empirical(s) == pytest.approx(1.0 / 3.0, abs=0.005)


def test_gini_comonotone_zero():
    g = RngStream(6, 0).generator()
    x = g.standard_normal(20000)
    s = PairedSample(x, np.exp(x))  # strictly increasing transform
    assert gini_empirical(s) < 0.002


def test_gini_countermonotone_half():
    g = RngStream(7, 0).generator()
    x = g.standard_normal(20000)
    s = PairedSample(x, -x)
    assert gini_empirical(s) == pytest.approx(0.5, abs=0.002)


def test_gini_bounds():
    g = RngStream(8, 0).generator()
    for seed in range(10):
        s = gauss_pairs(g.uniform(-1, 1), 500, seed=seed)
        val = gini_empirical(s)
        assert 0.0 <= val <= 0.5


def test_gini_invariant_under_monotone_transforms():
    """Rank-based: strictly increasing marginal transforms leave Gini unchanged."""
    s = gauss_pairs(0.6, 5000)
    base = gini_empirical(s)
    s2 = PairedSample(np.exp(s.a), s.b**3)
    assert gini_empirical(s2) == pytest.approx(base, abs=1e-12)


def test_gini_needs_ten_pairs():
    with pytest.raises(DomainError, match="need at least 10 pairs"):
        gini_empirical(PairedSample(np.arange(9.0), np.arange(9.0)))


def uniform_ranks_oracle(x):
    """Average uniform ranks by a stable sort and an element-by-element tie loop."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.arange(1, x.size + 1, dtype=float)
    xs = x[order]
    i = 0
    while i < xs.size:
        j = i + 1
        while j < xs.size and xs[j] == xs[i]:
            j += 1
        if j - i > 1:
            ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return ranks / x.size


def rank_inputs():
    g = RngStream(31, 0).generator()
    return {
        "n1": np.array([0.7]),
        "n2_tied": np.array([-1.5, -1.5]),
        "all_equal": np.full(1000, 3.0),
        "untied_normal": g.standard_normal(10_001),
        "rounded_normal": np.round(g.standard_normal(10_001), 1),
        "rounded_cauchy": np.round(g.standard_cauchy(10_001)),
        "blocks": g.permutation(np.repeat(g.standard_normal(400), g.integers(1, 6, 400))),
    }


def grid_bins_oracle(x, grid):
    """The first grid point at or above each oracle rank, found by search."""
    return np.searchsorted(grid, uniform_ranks_oracle(x), "left").astype(np.int16)


@pytest.mark.parametrize("name", sorted(rank_inputs()))
def test_grid_bins_equal_tie_loop_oracle(name):
    x = rank_inputs()[name]
    got = _grid_bins(x, _COPULA_GRID, np.argsort(x))
    assert got.tobytes() == grid_bins_oracle(x, _COPULA_GRID).tobytes()


def edge_grid(n, k):
    """Each k / n and the float just below it, closed at 1: grid points where
    floor(g * n) is sometimes one above, and sometimes one below, the count."""
    g = k / n
    return np.unique(np.concatenate([g, np.nextafter(g, -1.0), [1.0]]).clip(0.0, 1.0))


@pytest.mark.parametrize("sizes", ["1..3000", "large"])
def test_grid_bins_prefix_count_is_the_largest_q_with_q_over_n_at_most_g(sizes):
    """On untied input the count of elements in bins <= j is q_j, the largest
    q with q / n <= g_j in floating point, on the copula grid and on edge
    grids (999,983 is prime)."""
    below = above = False
    for n in range(1, 3001) if sizes == "1..3000" else (999_999, 1_000_001, 2**20, 999_983):
        k = np.arange(n + 1) if n <= 3000 else np.linspace(0, n, 4000).astype(np.intp)
        for grid in (_COPULA_GRID, edge_grid(n, k)):
            bins = _grid_bins(np.arange(n, dtype=float), grid, np.arange(n))
            q = np.cumsum(np.bincount(bins, minlength=grid.size))
            assert q.size == grid.size
            assert np.all(q / n <= grid), n
            assert np.all(grid < (q + 1) / n), n
            guess = np.floor(grid * n)
            below |= bool(np.any(guess < q))
            above |= bool(np.any(guess > q))
    assert below and above


@pytest.mark.parametrize("n", [511, 1022])
def test_grid_bins_straddling_tie_block_in_or_out_by_its_average_rank(n):
    """At n = 511 and 1022 the untied rank k / n meets j / 511 at k = j n / 511.
    A three-element tie block over sorted positions k - 2 .. k averages k / n,
    holds positions q_j - 1 and q_j, and is counted in bin j whole when that
    average is <= g_j (linspace puts g_j one ulp below j / 511 for 64 of the
    j), else in bin j + 1 whole."""
    grid, seen = _COPULA_GRID, set()
    for j in range(2, grid.size - 1):
        k = j * n // 511
        x = np.arange(n, dtype=float)
        x[k - 2:k + 1] = k - 2
        bins = _grid_bins(x, grid, np.argsort(x))
        assert bins.tobytes() == grid_bins_oracle(x, grid).tobytes()
        inside = k / n <= grid[j]
        assert np.all(bins[k - 2:k + 1] == (j if inside else j + 1))
        seen.add(bool(inside))
    assert seen == {True, False}


# (gini, max excursion value, its level) as float.hex, recorded before the rank
# kernel was vectorized: cli demo pairs, rho 0.9, n 200,000, seed 0
PINNED_GINI = {
    "independent": ("0x1.5513da202e51ap-2", "0x1.ff2ef25293b3cp-2", "0x1.4b14ecb2964e5p-6"),
    "comonotone": ("0x1.4ee33ed500000p-18", "0x1.4ee33ed520000p-17", "0x1.57f8fe95c0993p-1"),
    "countermonotone": ("0x1.0000000000000p-1", "0x1.ff0151f73768ep-1", "0x1.34232aecf803ep-9"),
    "gaussian": ("0x1.9dd51f274ae60p-4", "0x1.25129ba772910p-3", "-0x1.612c98bdd5fa0p-5"),
    # the gaussian pairs rounded to one decimal: ~60 tied blocks per coordinate
    "gaussian_rounded": ("0x1.9d9ffec61ff80p-4", "0x1.6f6ade25eb644p-3", "0x0.0p+0"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_GINI))
def test_gini_and_max_excursion_pinned_bits(kind):
    from tailcast.cli import _demo_pairs

    s = _demo_pairs(kind.removesuffix("_rounded"), 0.9, 200_000, 0)
    if kind.endswith("_rounded"):
        s = PairedSample(np.round(s.a, 1), np.round(s.b, 1))
    value, level = max_excursion_distance_empirical(s)
    got = (gini_empirical(s).hex(), value.hex(), level.hex())
    assert got == PINNED_GINI[kind]


TIED_RANK_INPUTS = ("n2_tied", "all_equal", "rounded_normal", "rounded_cauchy", "blocks")


@pytest.mark.parametrize("name", TIED_RANK_INPUTS)
def test_grid_bins_given_order_with_reversed_ties(name):
    """A sorting permutation with every tied block in reverse index order
    gives the bins of numpy's own argsort."""
    x = rank_inputs()[name]
    assert np.unique(x).size < x.size
    order = np.lexsort((-np.arange(x.size), x))
    got = _grid_bins(x, _COPULA_GRID, order)
    assert got.tobytes() == _grid_bins(x, _COPULA_GRID, np.argsort(x)).tobytes()


def serial_copula_diagonal(s, grid):
    """Both margins' float average ranks, then a sorted copy of their
    maximum: the formula the grid bins must reproduce bit for bit."""
    ua, ub, n = uniform_ranks_oracle(s.a), uniform_ranks_oracle(s.b), s.n
    return np.searchsorted(np.sort(np.maximum(ua, ub)), grid, "right") / n


def overlap_pairs():
    g = RngStream(32, 0).generator()
    pairs = {name: PairedSample(x, g.permutation(x)) for name, x in rank_inputs().items()}
    from tailcast.cli import _demo_pairs

    for kind in ("independent", "comonotone", "countermonotone", "gaussian"):
        pairs[kind] = _demo_pairs(kind, 0.9, 200_000, 0)
    return pairs


@pytest.mark.parametrize("name", sorted(overlap_pairs()))
def test_gini_copula_diagonal_equals_serial_formula(name):
    s = overlap_pairs()[name]
    got = _copula_diagonal(s, _COPULA_GRID)
    assert got.tobytes() == serial_copula_diagonal(s, _COPULA_GRID).tobytes()


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_gini_raises_what_either_sort_raises_and_joins_its_worker(where, monkeypatch):
    """A MemoryError from b's argsort on the worker, or from a's on the
    calling thread, reaches the caller of gini_empirical, and the worker is
    joined before the error leaves it."""
    real = np.argsort
    raised_on = []

    def argsort(x, *args, **kwargs):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (where == "worker"):
            raised_on.append(threading.current_thread().name)
            raise MemoryError("argsort")
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", argsort)
    s = gauss_pairs(0.5, 1000)
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="argsort"):
        gini_empirical(s)
    assert len(raised_on) == 1
    assert set(threading.enumerate()) == before


def gini_peak_bytes(s):
    gini_empirical(s)  # warm up lazy allocations before tracing
    tracemalloc.start()
    try:
        gini_empirical(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gini_memory_bounds():
    """Peak traced bytes per pair at n = 200,000 on untied, rounded and
    repeated pairs. The grid-bin kernel peaks at 20.2 B/pair on all three:
    the two int64 sort orders, one margin's int16 bins and the int16 array
    they are scattered from. Float ranks peaked at 33.0 / 42.1 / 50.0 B/pair,
    so a kernel that keeps one more float64 array per pair fails the bound."""
    n = 200_000
    s = gauss_pairs(0.9, n)
    for t in [s, PairedSample(np.round(s.a, 2), np.round(s.b, 2)),
              PairedSample(np.repeat(s.a[: n // 2], 2), np.repeat(s.b[: n // 2], 2))]:
        assert gini_peak_bytes(t) < 24 * n


def test_max_excursion_distance_dirac_form():
    """Max-over-measures distance is 2 max_x (x - C(x,x)), attained at a level."""
    s = gauss_pairs(0.0, 100000)
    val, level = max_excursion_distance_empirical(s)
    # independence: max_x 2(x - x^2) = 1/2 at x = 1/2, level near the median
    assert val == pytest.approx(0.5, abs=0.01)
    assert abs(level) < 0.05
    s2 = gauss_pairs(0.9, 100000)
    val2, _ = max_excursion_distance_empirical(s2)
    assert val2 < val


# --- Wasserstein ------------------------------------------------------------


def test_wasserstein_to_uniform_exact_values():
    # single point mass at 1/2: integral of (1/2 - x)^2 dx = 1/12
    assert wasserstein2_to_uniform(np.array([0.5])) == pytest.approx(1.0 / 12.0, rel=1e-12)
    # perfect uniform grid at midpoints k+1/2 over n cells: n^-2/12
    n = 100
    y = (np.arange(n) + 0.5) / n
    assert wasserstein2_to_uniform(y) == pytest.approx(1.0 / (12.0 * n * n), rel=1e-9)


def test_wasserstein_to_uniform_identities():
    """Exact piecewise integral vs the two moment identities."""
    g = RngStream(9, 0).generator()
    for _ in range(10):
        y = g.beta(g.uniform(0.5, 3.0), g.uniform(0.5, 3.0), size=100000)
        rho2 = wasserstein2_to_uniform(y)
        # identity 1: 1/3 + E Y^2 - E[Y v Y'] on independent copies
        y2 = g.permutation(y)
        mc = 1.0 / 3.0 + np.mean(y * y) - np.mean(np.maximum(y, y2))
        # identity 2: 1/3 + integral F(t)[F(t) - 2t] dt via fine grid
        t = np.linspace(0.0, 1.0, 4001)
        f = np.searchsorted(np.sort(y), t, side="right") / y.size
        quad = 1.0 / 3.0 + np.trapezoid(f * (f - 2 * t), t)
        assert mc == pytest.approx(rho2, abs=0.005)
        assert quad == pytest.approx(rho2, abs=0.005)


def test_wasserstein_samples_matched_order_stats():
    g = RngStream(10, 0).generator()
    a = g.standard_normal(1000)
    b = a + 2.0
    # pure shift: distance equals the shift
    assert wasserstein2_samples(a, b) == pytest.approx(2.0, rel=1e-12)
    assert wasserstein2_samples(a, a) == 0.0


def test_wasserstein_samples_unequal_lengths():
    g = RngStream(11, 0).generator()
    a = g.uniform(0, 1, size=1500)
    b = g.uniform(0, 1, size=700) + 0.5
    d_refined = wasserstein2_samples(a, b)
    # subsample to equal length: should agree within MC error
    d_matched = wasserstein2_samples(a[:700], b)
    assert d_refined == pytest.approx(d_matched, abs=0.02)
    assert d_refined == pytest.approx(0.5, abs=0.02)


def test_wasserstein_symmetry_nonnegativity():
    g = RngStream(12, 0).generator()
    a, b = g.standard_normal(500), g.standard_normal(801) * 2.0
    assert wasserstein2_samples(a, b) == pytest.approx(wasserstein2_samples(b, a), rel=1e-12)
    assert wasserstein2_samples(a, b) >= 0.0


def test_wasserstein_to_uniform_domain():
    with pytest.raises(DomainError):
        wasserstein2_to_uniform(np.array([0.2, 1.4]))


# --- Gaussian copula diagonal ----------------------------------------------


def test_copula_diag_frozen_values():
    # independence: C(x,x) = x^2
    assert gaussian_copula_diag(0.0, 0.3) == pytest.approx(0.09, abs=1e-12)
    # comonotone: C(x,x) = x; countermonotone: max(2x-1, 0)
    assert gaussian_copula_diag(1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert gaussian_copula_diag(-1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_copula_diag(-1.0, 0.8) == pytest.approx(0.6, abs=1e-12)
    # rho = 0.5 at the median: 1/4 + asin(1/2)/(2pi) = 1/3
    assert gaussian_copula_diag(0.5, 0.5) == pytest.approx(0.3333333333333333, abs=1e-9)


def test_copula_diag_against_monte_carlo():
    g = RngStream(13, 0).generator()
    rho = 0.7
    n = 2000000
    x = g.standard_normal(n)
    y = rho * x + np.sqrt(1 - rho * rho) * g.standard_normal(n)
    u = Gaussian(0.0, 1.0).cdf(x)
    v = Gaussian(0.0, 1.0).cdf(y)
    for q in (0.25, 0.5, 0.75):
        mc = np.mean((u <= q) & (v <= q))
        assert gaussian_copula_diag(rho, q) == pytest.approx(mc, abs=0.002)


def test_copula_diag_gini_quadrature():
    """1 - 2 integral of the diagonal reproduces the empirical Gini."""
    from scipy import integrate

    rho = 0.9
    val, _ = integrate.quad(lambda xi: gaussian_copula_diag(rho, xi), 0.0, 1.0, limit=200)
    gini_quad = 1.0 - 2.0 * val
    # frozen quadrature value for rho=0.9
    assert gini_quad == pytest.approx(0.10108262419502467, abs=1e-9)
    s = gauss_pairs(rho, 500000)
    assert gini_empirical(s) == pytest.approx(gini_quad, abs=0.005)


def quadrature_copula_diag(rho, x):
    """C(x,x) by quadrature of x^2 + (1/2pi) integral_0^{asin rho} exp(-q^2/(1+sin t)) dt,
    q the normal quantile of x: an oracle independent of Owen's T."""
    from scipy import integrate, special

    if x == 0.0 or x == 1.0:
        return float(x)
    q = special.ndtri(x)
    val, _ = integrate.quad(lambda t: np.exp(-q * q / (1.0 + np.sin(t))), 0.0, np.arcsin(rho), limit=200)
    return float(x * x + val / (2.0 * np.pi))


def test_copula_diag_closed_form_matches_quadrature():
    gaps = [abs(gaussian_copula_diag(rho, x) - quadrature_copula_diag(rho, x))
            for rho in np.linspace(-1.0, 1.0, 41).tolist()
            for x in np.linspace(0.0, 1.0, 101).tolist()]
    assert max(gaps) <= 1e-12


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.3, 0.7, 0.9, 0.99])
def test_copula_diag_population_gini_arcsine(rho):
    """1 - 2 integral_0^1 C(x,x) dx = 2 E[max(U,V)] - 1 = 1/2 - asin((1+rho)/2)/pi,
    since E[Phi(max(Z1,Z2))] = 3/4 - asin((1+rho)/2)/(2pi). At rho = 0.9 this is
    criterion 12's 0.10108262419502467 = 1/2 - asin(0.95)/pi."""
    from scipy import integrate

    val, _ = integrate.quad(lambda xi: gaussian_copula_diag(rho, xi), 0.0, 1.0, limit=200)
    assert 1.0 - 2.0 * val == pytest.approx(0.5 - np.arcsin((1.0 + rho) / 2.0) / np.pi, abs=1e-9)


def test_copula_diag_domain_errors():
    with pytest.raises(DomainError):
        gaussian_copula_diag(1.5, 0.5)
    with pytest.raises(DomainError):
        gaussian_copula_diag(0.5, 1.5)
