import concurrent.futures
import hashlib
import itertools
import threading
import tracemalloc

import numpy as np
import pytest

import tailcast.objective
from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.errors import DivergedToNonFinite, DomainError, NonFiniteInput
from tailcast.objective import (
    ForecastDesign,
    LearningSamples,
    ObjectiveSpec,
    Predictor,
    extract_learning_samples,
    mean_subgradient,
    objective_value,
    subgradient,
)
from tailcast.optimize import (
    DescentConfig,
    init_candidates,
    project,
    solve,
    solve_lockstep,
    write_trace_csv,
)
from tailcast.processes import simulate_gauss_exp_cov
from tailcast.rng import RngStream

from descent_reference import DescentProblem, descend

GAUSS = Gaussian(0.0, 1.0)


def quadratic_problem(target, noise=0.0, count=50):
    """(1/2)||lam - target||^2 with optional per-row gradient noise."""
    target = np.asarray(target, dtype=float)

    def value(p, rng):
        return 0.5 * float(np.sum((p.weights - target) ** 2))

    def row_grad(p, j, rng):
        eps = noise * rng.standard_normal(target.size) if noise else 0.0
        return p.weights - target + eps

    def mean_grad(p, rng):
        return p.weights - target

    return DescentProblem(count, value, row_grad, mean_grad)


def make_samples(n_rows=60, n_pred=3, seed=0):
    g = RngStream(seed, 17).generator()
    y = g.standard_normal(n_rows)
    X = g.standard_normal((n_rows, n_pred))
    return LearningSamples(y, X, np.arange(n_rows, dtype=float))


# --- config and projection ----------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        DescentConfig(mode="momentum")
    with pytest.raises(DomainError):
        DescentConfig(mode="online", beta=0.4)  # steps not square-summable
    with pytest.raises(DomainError):
        DescentConfig(mode="online", beta=1.2)
    DescentConfig(mode="batch", beta=0.4)  # fine in batch mode
    with pytest.raises(DomainError):
        DescentConfig(max_iter=0)
    with pytest.raises(DomainError):
        DescentConfig(burn_in=300, max_iter=300)
    with pytest.raises(DomainError):
        DescentConfig(selection="median")
    with pytest.raises(DomainError):
        DescentConfig(constraint="box")
    with pytest.raises(DomainError):
        DescentConfig(trace_stride=0)
    # a tol of infinity would stop every chain after its first step
    for tol in (float("inf"), float("nan"), -1e-3):
        with pytest.raises(DomainError) as err:
            DescentConfig(tol=tol)
        assert err.value.key == "tol"


@pytest.mark.parametrize("key, value", [
    ("max_iter", 2.5), ("max_iter", 300.0), ("max_iter", True), ("max_iter", np.float64(3.0)),
    ("burn_in", 1.5), ("burn_in", False), ("trace_stride", 10.0), ("trace_stride", "10"),
    ("trace_stride", np.bool_(True)),
])
def test_config_rejects_a_non_integer_count_by_key(key, value):
    """A float budget never equals the step count, so the solve would never return."""
    with pytest.raises(DomainError) as err:
        DescentConfig(mode="batch", **{key: value})
    assert err.value.key == key


def test_config_takes_any_integer_count():
    cfg = DescentConfig(max_iter=np.int64(40), burn_in=np.int32(5), trace_stride=np.uint8(7))
    assert (cfg.max_iter, cfg.burn_in, cfg.trace_stride) == (40, 5, 7)
    assert all(type(v) is int for v in (cfg.max_iter, cfg.burn_in, cfg.trace_stride))
    res = solve(ObjectiveSpec("Q2", GAUSS), make_samples(), Predictor("linear", np.ones(3)),
                cfg, RngStream(1, 0).generator())
    assert res.iterations == 40 and list(res.trace_iterations) == [0, 7, 14, 21, 28, 35, 40]


def test_step_schedule():
    cfg = DescentConfig(a=10.0, b=10.0, beta=0.7)
    assert cfg.step(0) == pytest.approx(10.0 * 10.0 ** -0.7, rel=1e-12)
    assert cfg.step(90) == pytest.approx(10.0 * 100.0 ** -0.7, rel=1e-12)
    assert cfg.step(0) > cfg.step(1) > cfg.step(100)


def test_project_examples():
    assert np.allclose(project("unconstrained", [-1.0, 2.0]), [-1.0, 2.0])
    assert np.allclose(project("nonneg", [-1.0, 2.0]), [0.0, 2.0])
    assert np.allclose(project("ball", [3.0, 4.0], radius=1.0), [0.6, 0.8])
    inside = np.array([0.3, -0.1])
    assert np.allclose(project("ball", inside, radius=1.0), inside)
    # idempotence
    for c in ("unconstrained", "nonneg", "ball"):
        once = project(c, np.array([-2.0, 5.0]), 1.0)
        assert np.allclose(project(c, once, 1.0), once)
    with pytest.raises(DomainError):
        project("box", [1.0])


# --- starting points -----------------------------------------------------------


def test_init_candidates_unit():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    cands = init_candidates(samples, spec, "unit")
    assert len(cands) == samples.n
    stacked = np.sort(np.stack(cands), axis=0)
    assert np.allclose(np.sort(np.eye(samples.n), axis=0), stacked)
    vals = [objective_value(spec, Predictor("linear", w), samples) for w in cands]
    assert vals == sorted(vals)  # best first


def test_init_candidates_simplex():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    cands = init_candidates(samples, spec, "simplex", count=6, rng=RngStream(5, 8).generator())
    assert len(cands) == 6
    for w in cands:
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    for count in (0, -1, 0.5):  # an empty list would leave the callers' [0] nothing to take
        with pytest.raises(DomainError, match="simplex count must be >= 1"):
            init_candidates(samples, spec, "simplex", count=count, rng=RngStream(5, 8).generator())


@pytest.mark.parametrize("rng, generator", [(RngStream(9, 1), RngStream(9, 1).generator()),
                                            (9, RngStream(9).generator())])
def test_init_candidates_draw_and_score_from_one_generator(rng, generator):
    """A stream or a seed gives the candidates, in the order, of the one
    generator it stands for: the Q3 scoring continues the simplex draws."""
    samples = make_samples()
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    got = init_candidates(samples, spec, "simplex", count=8, rng=rng)
    want = init_candidates(samples, spec, "simplex", count=8, rng=generator)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_init_candidates_warm():
    samples = make_samples()
    spec = ObjectiveSpec("Q2", GAUSS)
    prev = np.array([0.2, 0.3, 0.4])
    cands = init_candidates(samples, spec, "warm", warm=prev)
    assert len(cands) == samples.n + 1
    assert any(np.allclose(w, prev) for w in cands)
    with pytest.raises(DomainError):
        init_candidates(samples, spec, "warm")
    with pytest.raises(DomainError):
        init_candidates(samples, spec, "anneal")


# --- descent on analytic objectives ---------------------------------------------


def test_batch_descent_reaches_quadratic_minimum():
    target = np.array([1.5, -2.0, 0.5])
    problem = quadratic_problem(target)
    cfg = DescentConfig(mode="batch", a=1.0, b=2.0, beta=0.6, max_iter=500, selection="last")
    res = descend(problem, Predictor("linear", np.zeros(3)), cfg, RngStream(1, 2).generator())
    assert np.allclose(res.weights, target, atol=1e-3)
    assert res.iterations == 500


def test_online_descent_reaches_quadratic_minimum():
    target = np.array([0.8, -0.3, 1.2])
    problem = quadratic_problem(target, noise=0.5)
    cfg = DescentConfig(mode="online", a=2.0, b=5.0, beta=0.7, max_iter=8000,
                        selection="polyak", burn_in=4000)
    res = descend(problem, Predictor("linear", np.zeros(3)), cfg, RngStream(2, 2).generator())
    assert np.allclose(res.weights, target, atol=0.05)


def test_selection_modes_on_quadratic():
    target = np.array([1.0, 1.0])
    problem = quadratic_problem(target)
    base = dict(mode="batch", a=0.5, b=1.0, beta=0.6, max_iter=200)
    p0 = Predictor("linear", np.array([5.0, -5.0]))
    g = lambda: RngStream(3, 2).generator()
    last = descend(problem, p0, DescentConfig(selection="last", **base), g())
    best = descend(problem, p0, DescentConfig(selection="best", **base), g())
    pol = descend(problem, p0, DescentConfig(selection="polyak", burn_in=100, **base), g())
    # best-traced iterate can never score worse than the last traced one
    vb = 0.5 * np.sum((best.weights - target) ** 2)
    vl = 0.5 * np.sum((last.weights - target) ** 2)
    assert vb <= vl + 1e-12
    assert np.allclose(pol.weights, target, atol=0.2)


def test_projected_descent_stays_feasible():
    target = np.array([2.0, 2.0])  # outside the unit ball
    problem = quadratic_problem(target)
    cfg = DescentConfig(mode="batch", a=0.5, b=1.0, beta=0.6, max_iter=300,
                        constraint="ball", radius=1.0, selection="last")
    res = descend(problem, Predictor("linear", np.zeros(2)), cfg, RngStream(4, 2).generator())
    assert np.linalg.norm(res.weights) <= 1.0 + 1e-12
    # constrained optimum is the radial projection of the target
    assert np.allclose(res.weights, target / np.linalg.norm(target), atol=1e-3)
    for w in res.trace_weights:
        assert np.linalg.norm(w) <= 1.0 + 1e-12


def test_zero_gradient_fixed_point():
    target = np.array([0.7, -0.2])
    problem = quadratic_problem(target)
    cfg = DescentConfig(mode="batch", max_iter=50, selection="last")
    res = descend(problem, Predictor("linear", target.copy()), cfg, RngStream(5, 2).generator())
    assert np.array_equal(res.weights, target)
    assert np.allclose(res.objective_trace, 0.0)


def test_delta_stop_tolerance():
    target = np.array([1.0])
    problem = quadratic_problem(target)
    cfg = DescentConfig(mode="batch", a=0.5, b=1.0, beta=0.6, max_iter=10000,
                        tol=1e-10, selection="last")
    res = descend(problem, Predictor("linear", np.zeros(1)), cfg, RngStream(6, 2).generator())
    assert res.iterations < 10000  # stopped early
    assert np.allclose(res.weights, target, atol=1e-6)
    # the stopping iterate is recorded even off the stride
    assert res.trace_iterations[-1] == res.iterations


def test_divergence_reported_with_last_iterate():
    def value(p, rng):
        return float(np.sum(p.weights))

    def mean_grad(p, rng):
        return np.full_like(p.weights, np.nan)

    problem = DescentProblem(1, value, lambda p, j, rng: mean_grad(p, rng), mean_grad)
    cfg = DescentConfig(mode="batch", max_iter=10)
    with pytest.raises(DivergedToNonFinite) as err:
        descend(problem, Predictor("linear", np.array([1.0, 2.0])), cfg, RngStream(7, 2).generator())
    assert np.allclose(err.value.last_iterate, [1.0, 2.0])


# --- trace bookkeeping -----------------------------------------------------------


def test_trace_includes_start_and_end():
    problem = quadratic_problem(np.array([1.0, 2.0]))
    cfg = DescentConfig(mode="batch", max_iter=95, trace_stride=10, selection="best")
    res = descend(problem, Predictor("linear", np.zeros(2)), cfg, RngStream(8, 2).generator())
    assert res.trace_iterations[0] == 0
    assert res.trace_iterations[-1] == 95
    assert np.all(np.diff(res.trace_iterations) > 0)
    assert res.objective_trace.size == res.trace_iterations.size
    assert res.trace_weights.shape == (res.trace_iterations.size, 2)


def test_best_objective_monotone_in_budget():
    """With nested stride-aligned budgets, the best traced value can only improve."""
    samples = make_samples(n_rows=200, seed=11)
    spec = ObjectiveSpec("Q2", GAUSS)
    p0 = Predictor("linear", np.array([1.0, 0.0, 0.0]))
    bests = []
    for budget in (50, 100, 200, 300):
        cfg = DescentConfig(mode="online", max_iter=budget, selection="best", trace_stride=10)
        res = solve(spec, samples, p0, cfg, RngStream(9, 2).generator())
        bests.append(float(np.min(res.objective_trace)))
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))


def test_descent_bitwise_deterministic():
    samples = make_samples(n_rows=100, seed=12)
    spec = ObjectiveSpec("Q3", GAUSS, gamma=5.0)
    cfg = DescentConfig(mode="online", max_iter=80)
    p0 = Predictor("linear", np.array([0.5, 0.3, 0.1]))
    r1 = solve(spec, samples, p0, cfg, RngStream(10, 2).generator())
    r2 = solve(spec, samples, p0, cfg, RngStream(10, 2).generator())
    assert np.array_equal(r1.weights, r2.weights)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)


def test_solve_improves_objective_on_gaussian_samples():
    samples = make_samples(n_rows=400, seed=13)
    spec = ObjectiveSpec("Q2", GAUSS)
    p0w = init_candidates(samples, spec, "unit")[0]
    p0 = Predictor("linear", p0w)
    start = objective_value(spec, p0, samples)
    cfg = DescentConfig(mode="online", max_iter=300, selection="best")
    res = solve(spec, samples, p0, cfg, RngStream(11, 2).generator())
    end = objective_value(spec, p0.with_weights(res.weights), samples)
    assert end <= start + 1e-12


def test_trace_csv_format(tmp_path):
    problem = quadratic_problem(np.array([1.0, -1.0]))
    cfg = DescentConfig(mode="batch", max_iter=30, trace_stride=10)
    res = descend(problem, Predictor("linear", np.zeros(2)), cfg, RngStream(12, 2).generator())
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,objective,lambda_1,lambda_2"
    assert len(lines) == 1 + res.trace_iterations.size
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(res.objective_trace[0])


# --- lockstep engine ---------------------------------------------------------------


def lockstep_rows(seed, N=50, n=3):
    """Gaussian rows and positive heavy-tailed rows (so Levy and squared
    predictions see both signs, zero pdf and far tails)."""
    g = RngStream(seed, 31).generator()
    X = np.vstack([g.standard_normal((N // 2, n)), np.abs(g.standard_cauchy((N - N // 2, n)))])
    return LearningSamples(np.abs(g.standard_cauchy(N)), X, np.arange(N, dtype=float))


def lockstep_chains(marginal, kind):
    """Three chains: Q3 chains around a Q2 one, so the Q3 j rows are not contiguous."""
    specs = [ObjectiveSpec("Q3", marginal, gamma=5.0), ObjectiveSpec("Q2", marginal),
             ObjectiveSpec("Q3", marginal, gamma=0.5)]
    starts = [Predictor(kind, w) for w in ([0.5, 0.2, 0.1], [0.2, 0.3, 0.4], [1.0, 0.0, 0.0])]
    return specs, starts


def mixed_chains(marginal, kind, order):
    """The ``lockstep_chains`` and a Q4 chain, which online steps outside the
    packed kernel of the other three, taken in ``order``."""
    specs, starts = lockstep_chains(marginal, kind)
    specs.append(ObjectiveSpec("Q4", marginal, gamma=2.0))
    starts.append(Predictor(kind, [0.3, 0.3, 0.3]))
    return [specs[c] for c in order], [starts[c] for c in order]


def descend_oracle(spec, samples, p0, cfg, rng):
    """One chain stepped alone by ``descend``: along ``mean_subgradient`` in
    batch mode, else along ``subgradient``, a Q3 chain drawing its bootstrap
    row right after its row j."""
    def value(p, g):
        return objective_value(spec, p, samples, rng=g)

    def row_grad(p, j, g):
        b = int(g.integers(0, samples.count)) if spec.variant == "Q3" else None
        return subgradient(spec, p, samples, j, bootstrap_index=b)

    def mean_grad(p, g):
        return mean_subgradient(spec, p, samples, rng=g)

    return descend(DescentProblem(samples.count, value, row_grad, mean_grad), p0, cfg, rng)


def assert_same_results(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.trace_iterations, b.trace_iterations)
        assert np.array_equal(a.trace_weights, b.trace_weights)
        assert a.iterations == b.iterations and a.selection == b.selection


MARGINALS = {"gauss": Gaussian(0.0, 1.0), "cauchy": Cauchy(0.0, 1.0), "levy": Levy(0.8),
             "student": StudentT(0.0, 1.0, 0.8)}


@pytest.mark.parametrize("N", [1, 2, 3, 1000, 2950, 2**32 - 1, 2**32 + 1, 2**40])
def test_block_draw_equals_scalar_draws(N):
    """``integers(0, N, size=k)`` gives the values of k scalar
    ``integers(0, N)`` calls and leaves the generator where they leave it,
    which lets the lockstep engine draw a trace stride's rows in one call."""
    for k in (1, 2, 7, 20, 61):
        block, scalar = RngStream(9, k).generator(), RngStream(9, k).generator()
        got = block.integers(0, N, size=k).tolist()
        assert got == [int(scalar.integers(0, N)) for _ in range(k)]
        assert block.integers(0, N) == scalar.integers(0, N)
        assert block.bit_generator.state == scalar.bit_generator.state


KINDS = ("linear", "squared", "max")
ORDERS = ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1))  # the Q4 chain at every position


@pytest.mark.parametrize("kind, marginal, mode", [
    *((kind, marginal, "online") for kind in KINDS for marginal in sorted(MARGINALS)),
    *((kind, marginal, "batch") for kind, marginal in zip(KINDS, ("cauchy", "levy", "student")))])
def test_lockstep_bit_equal_to_descend_per_chain(kind, marginal, mode):
    """Oracle: each chain stepped alone by ``descend``. The chains mix Q2,
    Q3 and Q4 in one of four orders, the next one at each configuration, so
    every order meets every stride and ``tol``. A stride of 7 cuts the last
    row block short of a stride, and 500 is longer than the budget. Batch
    chains draw no rows, so each form runs batch once, on one of the
    heavy-tailed marginals."""
    samples = lockstep_rows(seed=len(marginal) + len(kind))
    configs = itertools.product(("last", "polyak", "best"), ("unconstrained", "nonneg", "ball"),
                                (0.0, 3e-3), (1, 7, 500))
    for k, (selection, constraint, tol, stride) in enumerate(configs):
        specs, starts = mixed_chains(MARGINALS[marginal], kind, ORDERS[k % len(ORDERS)])
        cfg = DescentConfig(mode=mode, max_iter=60, tol=tol, selection=selection,
                            burn_in=20 if selection == "polyak" else 0,
                            constraint=constraint, radius=0.8, trace_stride=stride)
        want = [descend_oracle(spec, samples, p0, cfg, RngStream(3, c).generator())
                for c, (spec, p0) in enumerate(zip(specs, starts))]
        got = solve_lockstep(specs, samples, starts, cfg,
                             [RngStream(3, c).generator() for c in range(len(specs))])
        assert_same_results(got, want)


# sha256 of both chains' weights, and of their weights, objective traces and
# trace weights, from ``test_lockstep_production_shape_equals_descend`` at
# each trace stride, recorded with the engine that stepped one call at a
# time before trace windows; BLAS row products fix the bits, so the digests
# are keyed by the numpy version and checked only under it
PRODUCTION_PINS = {
    "numpy 2.4.6": {
        10: ("e08e5886fb7356adad2d32530870e1edee2d0ad7eb9313aa50eb0599701a7337",
             "300b9c984248e2f7f2648bdc81badb77b91f3ba849d51e33479659c7c461ea10"),
        300: ("30a803bafc1f3a40277b2046f0bb087eb525a0eb5f45987093bb09ecdda162d0",
              "d52b9866a1d127f969cf11877d6e7d73651719b855515aa0dbdccd0762743407"),
    },
}


@pytest.mark.parametrize("stride", [10, 300])
def test_lockstep_production_shape_equals_descend(stride):
    """The online_extrap shape: a Q2 and a Q3 (gamma 5) chain on N = 1000
    Gaussian rows of n = 10, 300 steps, best-iterate selection. Each chain
    equals ``descend`` on it alone; the pinned digests guard the bits the
    oracle shares with the engine through ``_descend_chains``."""
    traj = simulate_gauss_exp_cov(0.0, 0.02, 1500, RngStream(23, 1).generator())
    design = ForecastDesign(tuple(round(0.1 * i, 9) for i in range(10)), 1.0, 0.02, (0.0, 29.98))
    samples = extract_learning_samples(traj, design, max_n=1000, rng=RngStream(23, 2).generator())
    assert (samples.count, samples.n) == (1000, 10)
    specs = [ObjectiveSpec("Q2", GAUSS), ObjectiveSpec("Q3", GAUSS, gamma=5.0)]
    starts = [Predictor("linear", np.full(10, 0.1)), Predictor("linear", np.eye(10)[0])]
    cfg = DescentConfig(mode="online", max_iter=300, selection="best", trace_stride=stride)
    got = solve_lockstep(specs, samples, starts, cfg, [RngStream(23, 3).generator(c) for c in range(2)])
    want = [descend_oracle(spec, samples, p0, cfg, RngStream(23, 3).generator(c))
            for c, (spec, p0) in enumerate(zip(specs, starts))]
    assert_same_results(got, want)
    pins = PRODUCTION_PINS.get(f"numpy {np.__version__}")
    if pins is not None:
        traces = hashlib.sha256()
        for r in got:
            for a in (r.weights, r.objective_trace, r.trace_weights):
                traces.update(a.tobytes())
        weights = hashlib.sha256(b"".join(r.weights.tobytes() for r in got))
        assert (weights.hexdigest(), traces.hexdigest()) == pins[stride]


def test_lockstep_chains_stop_at_different_steps():
    samples = lockstep_rows(seed=1)
    specs, starts = lockstep_chains(Cauchy(0.0, 1.0), "linear")
    for tol, stops in ((1e-3, [120, 63, 115]), (3e-3, [15, 43, 115])):
        cfg = DescentConfig(mode="online", max_iter=120, tol=tol, selection="polyak", burn_in=30)
        want = [descend_oracle(spec, samples, p0, cfg, RngStream(3, c).generator())
                for c, (spec, p0) in enumerate(zip(specs, starts))]
        got = solve_lockstep(specs, samples, starts, cfg,
                             [RngStream(3, c).generator() for c in range(3)])
        assert [r.iterations for r in got] == stops
        assert_same_results(got, want)


def test_lockstep_budget_costs_no_memory_up_front():
    """A budget far beyond the run ("step until tol") stops on tol after a
    few steps, as ``descend`` does, and allocates nothing per budgeted step."""
    samples = lockstep_rows(seed=1)
    specs, starts = lockstep_chains(Cauchy(0.0, 1.0), "linear")
    cfg = DescentConfig(mode="online", max_iter=10**7, tol=3e-3, selection="polyak", burn_in=30)
    tracemalloc.start()
    try:
        got = solve_lockstep(specs, samples, starts, cfg,
                             [RngStream(3, c).generator() for c in range(3)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [r.iterations for r in got] == [15, 43, 115]
    want = [descend_oracle(spec, samples, p0, cfg, RngStream(3, c).generator())
            for c, (spec, p0) in enumerate(zip(specs, starts))]
    assert_same_results(got, want)


def test_lockstep_divergence_names_the_chain():
    """Only the Q3 chain with a huge gamma diverges; the error names it and
    carries its last finite iterate, as ``descend`` on that chain alone reports them."""
    samples = lockstep_rows(seed=2)
    m = Gaussian(0.0, 1.0)
    specs = [ObjectiveSpec("Q2", m), ObjectiveSpec("Q3", m, gamma=1e308)]
    starts = [Predictor("linear", np.array([0.2, 0.3, 0.4]))] * 2
    cfg = DescentConfig(mode="online", max_iter=60)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedToNonFinite) as alone:
            descend_oracle(specs[1], samples, starts[1], cfg, RngStream(4, 1).generator())
        with pytest.raises(DivergedToNonFinite) as err:
            solve_lockstep(specs, samples, starts, cfg, [RngStream(4, c).generator() for c in range(2)])
    assert err.value.chain == 1
    assert str(err.value) == str(alone.value)
    assert np.array_equal(err.value.last_iterate, alone.value.last_iterate)
    assert np.all(np.isfinite(err.value.last_iterate))


def test_lockstep_overflowing_row_names_the_chain():
    X = np.array([[1e308, 1e308], [0.5, -0.25]])
    samples = LearningSamples(np.zeros(2), X, np.arange(2.0))
    m = Gaussian(0.0, 1.0)
    specs = [ObjectiveSpec("Q2", m), ObjectiveSpec("Q3", m, gamma=5.0)]
    starts = [Predictor("linear", np.zeros(2)), Predictor("linear", np.array([10.0, 10.0]))]
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteInput) as err:
            solve_lockstep(specs, samples, starts, DescentConfig(mode="online", max_iter=5),
                           [RngStream(5, c).generator() for c in range(2)])
    assert err.value.chain == 1


def test_only_a_batch_q4_solve_opens_a_worker_and_joins_it(monkeypatch):
    """A solve with a batch Q4 chain opens one single-worker pool, which
    counts rank levels off this thread, and no thread is left when the solve
    returns; batch Q2/Q3 and online Q4 solves open none."""
    opened, counted_on = [], set()
    real = tailcast.objective._level_counts

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    def level_counts(total, levels):
        counted_on.add(threading.current_thread() is threading.main_thread())
        return real(total, levels)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(tailcast.objective, "_level_counts", level_counts)
    samples, m = lockstep_rows(seed=5), Cauchy(0.0, 1.0)
    q2, q3, q4 = ObjectiveSpec("Q2", m), ObjectiveSpec("Q3", m, gamma=5.0), ObjectiveSpec("Q4", m, gamma=2.0)
    batch, online = DescentConfig(mode="batch", max_iter=30), DescentConfig(mode="online", max_iter=30)
    before = set(threading.enumerate())
    for specs, cfg, pools, on_main in (([q4], batch, [1], {True, False}),
                                       ([q2, q4], batch, [1], {True, False}),
                                       ([q2, q3], batch, [], set()),
                                       ([q4], online, [], set())):
        opened.clear()
        counted_on.clear()
        solve_lockstep(specs, samples, [Predictor("linear", [0.3, 0.3, 0.3])] * len(specs), cfg,
                       [RngStream(6, c).generator() for c in range(len(specs))])
        assert opened == pools and counted_on == on_main
        assert set(threading.enumerate()) == before


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_batch_q4_solve_raises_what_either_rank_share_raises_and_joins_its_worker(where, monkeypatch):
    """A MemoryError from the worker's share of the rank levels, or from the
    calling thread's, reaches the caller of solve, and the worker is joined
    before the error leaves it."""
    real = tailcast.objective._level_counts
    raised_on = []

    def level_counts(total, levels):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (where == "worker"):
            raised_on.append(threading.current_thread().name)
            raise MemoryError("rank levels")
        return real(total, levels)

    monkeypatch.setattr(tailcast.objective, "_level_counts", level_counts)
    spec = ObjectiveSpec("Q4", Cauchy(0.0, 1.0), gamma=2.0)
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="rank levels"):
        solve(spec, lockstep_rows(seed=5), Predictor("linear", [0.3, 0.3, 0.3]),
              DescentConfig(mode="batch", max_iter=30), RngStream(6, 0).generator())
    assert len(raised_on) == 1
    assert set(threading.enumerate()) == before


def test_lockstep_rejects_what_it_cannot_pack():
    samples = make_samples()
    p0 = Predictor("linear", np.ones(3))
    online = DescentConfig(mode="online", max_iter=5)
    cases = [
        ([ObjectiveSpec("Q2", GAUSS), ObjectiveSpec("Q2", Cauchy(0.0, 1.0))], [p0, p0], online),
        ([ObjectiveSpec("Q2", GAUSS)] * 2, [p0, Predictor("max", np.ones(3))], online),
        ([ObjectiveSpec("Q2", GAUSS)] * 2, [p0], online),
    ]
    for specs, starts, cfg in cases:
        with pytest.raises(DomainError):
            solve_lockstep(specs, samples, starts, cfg, [RngStream(6, c).generator() for c in range(len(specs))])
