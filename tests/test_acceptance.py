"""Acceptance gate: one test per numbered criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the measured values printed alongside.

The heavyweight fixtures (full preset runs at R=1000) are module-scoped and
shared between criteria, so the gate costs two Gaussian-process experiment
runs, one Cauchy run, one AR(3) fit, and a handful of cheap direct checks.
"""

import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from tailcast.baselines import covariances_exp, exact_excursion_weights
from tailcast.cli import _load_config, run
from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.harness import run_eval, run_fit, write_eval_csv
from tailcast.metrics import (
    PairedSample,
    delta_curve,
    excursion_metric_empirical,
    gaussian_copula_diag,
    gini_empirical,
    wasserstein2_to_uniform,
)
from tailcast.objective import (
    ForecastDesign,
    ObjectiveSpec,
    Predictor,
    extract_learning_samples,
    subgradient,
)
from tailcast.optimize import DescentConfig, init_candidates, project, solve
from tailcast.processes import default_kernel, simulate_gauss_exp_cov
from tailcast.rng import RngStream
from test_objective import predict, q_value

GAUSS = Gaussian(0.0, 1.0)


# --- shared heavyweight runs -------------------------------------------------


@pytest.fixture(scope="module")
def gauss_run():
    spec = _load_config("gauss_extrap")
    fits = run_fit(spec)
    report = run_eval(spec, fits)
    return spec, fits, report


@pytest.fixture(scope="module")
def cauchy_run():
    spec = _load_config("cauchy_extrap")
    fits = run_fit(spec)
    report = run_eval(spec, fits)
    return spec, fits, report


@pytest.fixture(scope="module")
def ar3_fit():
    spec = _load_config("ar3")
    return spec, run_fit(spec)


# --- criteria ------------------------------------------------------------------


def test_criterion_01_gini_independence_anchor():
    t0 = time.perf_counter()
    g = RngStream(1001, 0).generator()
    s = PairedSample(g.standard_normal(1_000_000), g.standard_normal(1_000_000))
    val = gini_empirical(s)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: gini(independent, 1e6 pairs) = {val:.6f} "
          f"(target 1/3 +- 0.005) in {elapsed:.2f}s (< 5s)")
    assert val == pytest.approx(1.0 / 3.0, abs=0.005)
    assert elapsed < 5.0


def test_criterion_02_gini_bounds():
    g = RngStream(1002, 0).generator()
    x = g.standard_normal(20000)
    co = gini_empirical(PairedSample(x, 2.0 * x + 1.0))
    counter = gini_empirical(PairedSample(x, -x))
    print(f"criterion 2: comonotone gini = {co:.6f} (< 0.002), "
          f"counter-monotone gini = {counter:.6f} (0.5 +- 0.002)")
    assert co < 0.002
    assert counter == pytest.approx(0.5, abs=0.002)


def test_criterion_03_form_equivalence():
    """Level-integral definition vs mean-separation form on 10 random joint laws."""
    g = RngStream(1003, 0).generator()
    worst = 0.0
    u = GAUSS.quantile((np.arange(2000) + 0.5) / 2000)
    for _ in range(10):
        rho = g.uniform(-0.95, 0.95)
        scale = g.uniform(0.5, 2.0)
        x = g.standard_normal(4000)
        y = rho * x + np.sqrt(1 - rho * rho) * g.standard_normal(4000)
        s = PairedSample(scale * x, scale * y)
        sep = excursion_metric_empirical(s, GAUSS)
        lvl = float(np.mean(delta_curve(s, u)))
        worst = max(worst, abs(sep - lvl))
    print(f"criterion 3: max |level-integral - separation| over 10 laws = {worst:.5f} (< 0.005)")
    assert worst < 0.005


def test_criterion_04_wasserstein_identities():
    """Order-statistic integral vs Monte Carlo form vs cdf-quadrature form."""
    g = RngStream(1004, 0).generator()
    worst = 0.0
    t = np.linspace(0.0, 1.0, 4001)
    for _ in range(10):
        y = g.beta(g.uniform(0.5, 3.0), g.uniform(0.5, 3.0), size=100_000)
        exact = wasserstein2_to_uniform(y)
        mc = 1.0 / 3.0 + np.mean(y * y) - np.mean(np.maximum(y, g.permutation(y)))
        f = np.searchsorted(np.sort(y), t, side="right") / y.size
        quad = 1.0 / 3.0 + np.trapezoid(f * (f - 2 * t), t)
        worst = max(worst, abs(exact - mc), abs(exact - quad), abs(mc - quad))
    print(f"criterion 4: max pairwise gap across 10 laws = {worst:.5f} (< 0.005)")
    assert worst < 0.005


def _smooth_margin(spec, p, samples, j, b):
    """Distance to the nearest indicator kink of the row functional."""
    ghat = predict(p, samples.X[j])
    margin = abs(samples.y[j] - ghat)
    if spec.variant == "Q3":
        margin = min(margin, abs(predict(p, samples.X[b]) - ghat))
    elif spec.variant == "Q4":
        preds = samples.X @ p.weights
        for i in range(j):
            margin = min(margin, abs(preds[i] - preds[j]))
    return margin


def test_criterion_05_subgradient_finite_differences():
    g = RngStream(1005, 0).generator()
    y = g.standard_normal(40)
    X = g.standard_normal((40, 4))
    from tailcast.objective import LearningSamples

    samples = LearningSamples(y, X, np.arange(40.0))
    specs = [
        ObjectiveSpec("Q2", GAUSS),
        ObjectiveSpec("Q3", GAUSS, gamma=5.0),
        ObjectiveSpec("Q4", GAUSS, gamma=5.0),
    ]
    eps = 1e-6
    checked = passed = 0
    tried = 0
    while checked < 100 and tried < 5000:
        tried += 1
        spec = specs[tried % 3]
        w = g.uniform(-1.0, 1.0, 4)
        j = int(g.integers(0, 40))
        b = int(g.integers(0, 40)) if spec.variant == "Q3" else None
        p = Predictor("linear", w)
        if _smooth_margin(spec, p, samples, j, b) < 1e-3:
            continue  # kink-adjacent: excluded by the 1e-3 rule
        grad = subgradient(spec, p, samples, j, bootstrap_index=b)
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            up = q_value(spec, p.with_weights(w + e), samples, j, bootstrap_index=b)
            dn = q_value(spec, p.with_weights(w - e), samples, j, bootstrap_index=b)
            fd[i] = (up - dn) / (2 * eps)
        err = float(np.max(np.abs(grad - fd))) / max(1.0, float(np.linalg.norm(fd)))
        checked += 1
        passed += err <= 1e-4
    print(f"criterion 5: {passed}/{checked} smooth points within 1e-4 relative (need >= 95)")
    assert checked == 100
    assert passed >= 95


def test_criterion_06_gaussian_oracle_proximity(gauss_run):
    spec, fits, report = gauss_run
    mask = report.times >= 31.0 - 1e-9
    gap = np.max(np.abs(report.excursion["unconstrained"][mask]
                        - report.excursion["kriging"][mask]))
    print(f"criterion 6: max |learned - kriging| excursion gap on [31, 35] = {gap:.4f} (<= 0.05)")
    assert gap <= 0.05
    # exact-solution weights: variance matched to 1e-10 at every fitted point
    worst_var = 0.0
    for k in spec.fitted_indices:
        t = round(k * spec.h, 9)
        design = ForecastDesign(spec.forecast_offsets, t, spec.h, spec.window)
        so = covariances_exp(design)
        lam = fits.fits[k]["exact"].weights
        worst_var = max(worst_var, abs(float(lam @ so.sigma @ lam) - 1.0))
    print(f"criterion 6: max |lam' Sigma lam - 1| over fitted points = {worst_var:.2e} (<= 1e-10)")
    assert worst_var <= 1e-10
    # far-horizon weights collapse onto the last observed point
    far = ForecastDesign(spec.forecast_offsets, 70.0, spec.h, spec.window)
    lam70 = exact_excursion_weights(covariances_exp(far))
    e_last = np.zeros(len(spec.forecast_offsets))
    e_last[-1] = 1.0
    dev = float(np.max(np.abs(lam70 - e_last)))
    print(f"criterion 6: max |lam(70) - e_n| = {dev:.2e} (<= 1e-6)")
    assert dev <= 1e-6


def test_criterion_07_asymptotic_independence(gauss_run, cauchy_run):
    _, _, g_report = gauss_run
    _, _, c_report = cauchy_run
    i_g = int(np.argmin(np.abs(g_report.times - 35.0)))
    i_c = int(np.argmin(np.abs(c_report.times - 35.0)))
    val_g = g_report.excursion["penalized"][i_g]
    val_c = c_report.excursion["penalized"][i_c]
    print(f"criterion 7: penalized excursion at t=35: gaussian {val_g:.4f}, "
          f"cauchy {val_c:.4f} (target 1/3 +- 0.03)")
    assert val_g == pytest.approx(1.0 / 3.0, abs=0.03)
    assert val_c == pytest.approx(1.0 / 3.0, abs=0.03)


def test_criterion_08_ar3_coefficient_recovery(ar3_fit):
    spec, fits = ar3_fit
    pf = fits.by_time(30.3)["unconstrained"]
    target = np.array([0.1, 0.25, 0.5])
    dist = float(np.linalg.norm(pf.weights - target))
    print(f"criterion 8: lambda = ({pf.weights[0]:.5f}, {pf.weights[1]:.5f}, "
          f"{pf.weights[2]:.5f}), ||lambda - phi|| = {dist:.4f} (<= 0.08), "
          f"centered objective = {pf.centered:.4f} (<= 0.055)")
    assert dist <= 0.08
    assert pf.centered <= 0.055


def test_criterion_09_online_solve_runtime():
    g = RngStream(1009, 0).generator()
    traj = simulate_gauss_exp_cov(0.0, 0.02, 1500, g)
    design = ForecastDesign(tuple(np.round(30.0 + 0.1 * np.arange(10), 9)), 31.0,
                            0.02, (0.0, 29.98))
    samples = extract_learning_samples(traj, design)
    assert samples.count == 1450  # the budgeted problem size
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    w0 = init_candidates(samples, spec, "unit", rng=RngStream(1009, 1).generator())[0]
    cfg = DescentConfig(mode="online", max_iter=300)
    t0 = time.perf_counter()
    solve(spec, samples, Predictor("linear", w0), cfg, RngStream(1009, 2).generator())
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: one online solve (300 iterations, N=1450, n=10) took "
          f"{elapsed:.3f}s (<= 2s)")
    assert elapsed <= 2.0


def test_criterion_10_kernel_normalization():
    k1 = default_kernel(1.0)
    k5 = default_kernel(0.5)
    n1 = float(np.sum(np.abs(k1)))
    n5 = float(np.sum(np.sqrt(k5)) ** 2)
    print(f"criterion 10: stable norms {n1:.12f} and {n5:.12f} (1 +- 1e-6)")
    assert abs(n1 - 1.0) <= 1e-6
    assert abs(n5 - 1.0) <= 1e-6


def test_criterion_11_reproducibility(tmp_path):
    """Byte-identical artifacts across repeated runs and across 1 vs 8 threads."""
    dirs = [tmp_path / f"run{i}" for i in range(2)]
    for out in dirs:
        code = run(["evaluate", "--config", "ar3", "--out", str(out), "--replicates", "100"])
        assert code == 0
    for fname in ("weights.csv", "eval.csv", "manifest.json"):
        assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False), \
            f"{fname} differs between identical runs"
    spec = replace(_load_config("ar3"), replicates=100)
    fits = run_fit(spec)
    for threads in (1, 8):
        path = tmp_path / f"eval_threads{threads}.csv"
        write_eval_csv(path, run_eval(spec, fits, threads=threads))
        assert filecmp.cmp(dirs[0] / "eval.csv", path, shallow=False), \
            f"eval.csv differs at {threads} threads"
    print("criterion 11: weights.csv, eval.csv, manifest.json byte-identical "
          "across reruns and thread counts")


def test_criterion_12_property_suites():
    g = RngStream(1012, 0).generator()
    # metric axioms: identity, symmetry (exact), triangle on 50 sampled triples
    x = g.standard_normal(300)
    assert excursion_metric_empirical(PairedSample(x, x), GAUSS) == 0.0
    for _ in range(50):
        a, b, c = g.standard_normal((3, 200)) * g.uniform(0.5, 3.0)
        ab = excursion_metric_empirical(PairedSample(a, b), GAUSS)
        ba = excursion_metric_empirical(PairedSample(b, a), GAUSS)
        bc = excursion_metric_empirical(PairedSample(b, c), GAUSS)
        ac = excursion_metric_empirical(PairedSample(a, c), GAUSS)
        assert ab == ba
        assert ac <= ab + bc + 1e-12
    # distribution-freeness of the Gini under strictly increasing transforms
    u = g.standard_normal(5000)
    v = 0.6 * u + 0.8 * g.standard_normal(5000)
    base = gini_empirical(PairedSample(u, v))
    transformed = gini_empirical(PairedSample(np.exp(u), v**3))
    assert transformed == pytest.approx(base, abs=1e-12)
    # projection idempotence
    for constraint in ("unconstrained", "nonneg", "ball"):
        once = project(constraint, np.array([-2.0, 5.0]), 1.0)
        assert np.allclose(project(constraint, once, 1.0), once)
    # quantile/cdf round trips across the distribution zoo
    p = np.linspace(0.001, 0.999, 199)
    for model in (GAUSS, Cauchy(0.0, 1.0), Levy(1.0), StudentT(0.0, 10.0, 0.7)):
        assert np.max(np.abs(model.cdf(model.quantile(p)) - p)) < 1e-8
    # copula diagonal endpoints pin the analytic anchors
    assert gaussian_copula_diag(0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-9)
    val, _ = integrate.quad(lambda xi: gaussian_copula_diag(0.9, xi), 0.0, 1.0, limit=200)
    assert 1.0 - 2.0 * val == pytest.approx(0.10108262419502467, abs=1e-9)
    print("criterion 12: metric axioms, Gini invariance, projection idempotence, "
          "round trips all green")
