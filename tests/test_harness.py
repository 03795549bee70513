import numpy as np
import pytest

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.errors import ConfigError, DivergedToNonFinite
import tailcast.harness
from tailcast.harness import (
    METHOD_ORDER,
    EvalReport,
    ExperimentSpec,
    known_marginal,
    manifest_dict,
    run_eval,
    run_fit,
    run_table1_benchmark,
    spec_from_dict,
    spec_to_dict,
    write_eval_csv,
    write_weights_csv,
)
from tailcast.optimize import DescentConfig
from tailcast.processes import ArStudentT, GaussExpCov, StableMovingAverage


def tiny_gauss_spec(**overrides):
    """Small, fast experiment: 100-point window, two offsets, three fit points."""
    kw = dict(
        name="tiny",
        process=GaussExpCov(),
        h=0.1,
        window=(0.0, 9.9),
        forecast_offsets=(10.0, 10.2),
        prediction_interval=(10.3, 10.5),
        variant="Q3",
        gamma=5.0,
        descent=DescentConfig(mode="online", max_iter=40),
        replicates=25,
        seed=7,
    )
    kw.update(overrides)
    return ExperimentSpec(**kw)


# --- spec geometry and validation -----------------------------------------------


def test_spec_derived_indices():
    spec = tiny_gauss_spec()
    assert spec.offset_indices == [100, 102]
    assert spec.grid_indices == [103, 104, 105]
    assert spec.fitted_indices == [103, 104, 105]
    wide = tiny_gauss_spec(prediction_interval=(10.0, 10.5))
    assert wide.grid_indices == [100, 101, 102, 103, 104, 105]
    assert wide.fitted_indices == [101, 103, 104, 105]  # offsets excluded


def test_spec_methods_by_process():
    assert tiny_gauss_spec().methods == ["unconstrained", "penalized", "kriging", "exact"]
    assert tiny_gauss_spec(variant="Q2").methods == ["unconstrained", "kriging", "exact"]
    stable = tiny_gauss_spec(process=StableMovingAverage(1.0))
    assert stable.methods == ["unconstrained", "penalized"]


def test_spec_validation():
    with pytest.raises(ConfigError):
        tiny_gauss_spec(replicates=0)
    with pytest.raises(ConfigError):
        tiny_gauss_spec(variant="Q9")
    with pytest.raises(ConfigError):
        tiny_gauss_spec(predictor_kind="cubic")
    with pytest.raises(ConfigError):
        tiny_gauss_spec(marginal_mode="guessed")
    with pytest.raises(ConfigError):
        tiny_gauss_spec(marginal_mode="estimated")  # family missing


def test_known_marginals():
    assert isinstance(known_marginal(GaussExpCov()), Gaussian)
    assert isinstance(known_marginal(StableMovingAverage(1.0)), Cauchy)
    assert isinstance(known_marginal(StableMovingAverage(0.5)), Levy)
    ar = ArStudentT((0.1, 0.25, 0.5), StudentT(0.0, 1.0, 0.8))
    with pytest.raises(ConfigError):
        known_marginal(ar)


# --- JSON round trips --------------------------------------------------------------


def test_spec_json_round_trip_gauss():
    spec = tiny_gauss_spec()
    d = spec_to_dict(spec)
    back = spec_from_dict(d)
    assert spec_to_dict(back) == d


def test_spec_json_round_trip_all_processes():
    for process in (
        GaussExpCov(),
        StableMovingAverage(0.5),
        ArStudentT((0.1, 0.25, 0.5), StudentT(0.0, 1.0, 0.8)),
    ):
        spec = tiny_gauss_spec(process=process)
        d = spec_to_dict(spec)
        assert spec_to_dict(spec_from_dict(d)) == d


def test_spec_from_dict_unknown_key_named():
    d = spec_to_dict(tiny_gauss_spec())
    d["learning_rate"] = 0.1
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert "learning_rate" in str(err.value)


def test_spec_from_dict_unknown_descent_key_named():
    d = spec_to_dict(tiny_gauss_spec())
    d["descent"] = dict(d["descent"])
    d["descent"]["momentum"] = 0.9
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert "descent.momentum" in str(err.value)


def test_spec_from_dict_missing_required_key():
    d = spec_to_dict(tiny_gauss_spec())
    del d["window"]
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert "window" in str(err.value)


def test_spec_from_dict_defaults_apply():
    d = spec_to_dict(tiny_gauss_spec())
    for key in ("variant", "gamma", "descent", "replicates", "seed"):
        d.pop(key, None)
    spec = spec_from_dict(d)
    assert spec.variant == "Q3" and spec.gamma == 5.0
    assert spec.descent == DescentConfig()


@pytest.mark.parametrize("key, value", [
    ("h", 0), ("h", -0.1), ("h", float("inf")), ("h", float("nan")), ("h", "0.1"),
    ("warm_start", "false"), ("wasserstein_raw", 1),
    ("seed", 2.7), ("seed", True), ("seed", -1),
    ("replicates", 2.0), ("replicates", True),
    ("init_count", "8"), ("init_count", 0),
    ("max_rows", 1.5), ("max_rows", False), ("max_rows", 0),
    ("prediction_interval", [10.5, 10.3]), ("prediction_interval", [10.3]),
    ("gamma", float("nan")), ("gamma", -1.0),
    ("init_strategy", "bogus"), ("init_strategy", "warm"),
])
def test_spec_from_dict_rejects_bad_value_by_key(key, value):
    d = spec_to_dict(tiny_gauss_spec())
    d[key] = value
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert err.value.key == key


# --- end-to-end fit and evaluation ----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run():
    spec = tiny_gauss_spec()
    fits = run_fit(spec)
    report = run_eval(spec, fits)
    return spec, fits, report


def test_fit_covers_every_point_and_method(tiny_run):
    spec, fits, _ = tiny_run
    assert sorted(fits.fits) == spec.fitted_indices
    for k in spec.fitted_indices:
        point = fits.fits[k]
        assert sorted(point) == sorted(spec.methods)
        for m, pf in point.items():
            assert pf.weights.shape == (2,)
            assert np.all(np.isfinite(pf.weights))
            assert np.isfinite(pf.objective)
            assert pf.method == m
    # by_time fetches the same dict
    assert fits.by_time(10.3) is fits.fits[103]


def test_fit_baseline_weights_are_closed_form(tiny_run):
    spec, fits, _ = tiny_run
    from tailcast.baselines import covariances_exp, exact_excursion_weights, simple_kriging_weights
    from tailcast.objective import ForecastDesign

    design = ForecastDesign(spec.forecast_offsets, 10.4, spec.h, spec.window)
    so = covariances_exp(design)
    point = fits.by_time(10.4)
    assert np.allclose(point["kriging"].weights, simple_kriging_weights(so))
    assert np.allclose(point["exact"].weights, exact_excursion_weights(so))


def test_eval_report_shapes_and_ranges(tiny_run):
    spec, _, report = tiny_run
    assert isinstance(report, EvalReport)
    assert report.replicates == spec.replicates
    assert report.times.size == len(spec.grid_indices)
    assert set(report.methods) == set(spec.methods)
    for m in report.methods:
        exc = report.excursion[m]
        was = report.wasserstein[m]
        assert exc.shape == (report.times.size,)
        assert was.shape == exc.shape
        assert np.all((exc >= 0.0) & (exc <= 1.0))
        assert np.all(was >= 0.0)


def test_eval_identity_at_observed_points():
    """Grid points that coincide with forecast offsets score exactly zero."""
    spec = tiny_gauss_spec(prediction_interval=(10.0, 10.4), replicates=10)
    fits = run_fit(spec)
    report = run_eval(spec, fits)
    i0 = int(np.argmin(np.abs(report.times - 10.0)))
    i2 = int(np.argmin(np.abs(report.times - 10.2)))
    for m in report.methods:
        assert report.excursion[m][i0] == 0.0
        assert report.excursion[m][i2] == 0.0
        assert report.wasserstein[m][i0] == 0.0


def test_eval_deterministic_and_thread_invariant(tiny_run):
    spec, fits, report = tiny_run
    again = run_eval(spec, fits, threads=1)
    threaded = run_eval(spec, fits, threads=4)
    for m in report.methods:
        assert np.array_equal(report.excursion[m], again.excursion[m])
        assert np.array_equal(report.excursion[m], threaded.excursion[m])
        assert np.array_equal(report.wasserstein[m], threaded.wasserstein[m])


def test_eval_rejects_threads_below_one(tiny_run):
    spec, fits, _ = tiny_run
    for threads in (0, -1):
        with pytest.raises(ConfigError) as err:
            run_eval(spec, fits, threads=threads)
        assert err.value.key == "threads"


def test_eval_pool_capped_at_replicate_count(tiny_run, monkeypatch):
    """The pool gets min(threads, replicates) workers; the stand-in runs the
    replicates in this thread, so no thread is started."""
    spec, fits, report = tiny_run
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(tailcast.harness, "ThreadPoolExecutor", Recorder)
    capped = run_eval(spec, fits, threads=64)
    run_eval(spec, fits, threads=3)
    run_eval(spec, fits, threads=1)
    assert sizes == [spec.replicates, 3]
    for m in report.methods:
        assert np.array_equal(capped.excursion[m], report.excursion[m])


def test_fit_deterministic(tiny_run):
    spec, fits, _ = tiny_run
    fits2 = run_fit(spec)
    for k in spec.fitted_indices:
        for m in spec.methods:
            assert np.array_equal(fits.fits[k][m].weights, fits2.fits[k][m].weights)


def test_fit_divergence_names_point_and_method(monkeypatch):
    real_solve = tailcast.harness.solve
    last = np.array([0.5, -0.5])

    def solve(ospec, samples, p0, cfg, rng):
        if ospec.variant != "Q2":
            raise DivergedToNonFinite("non-finite iterate at step 3", last_iterate=last)
        return real_solve(ospec, samples, p0, cfg, rng)

    monkeypatch.setattr(tailcast.harness, "solve", solve)
    with pytest.raises(DivergedToNonFinite, match=r"penalized fit at t=10\.3: non-finite iterate at step 3") as err:
        run_fit(tiny_gauss_spec(prediction_interval=(10.3, 10.3), replicates=5))
    assert err.value.last_iterate is last
    assert isinstance(err.value.__cause__, DivergedToNonFinite)


def test_estimated_marginal_mode():
    spec = tiny_gauss_spec(marginal_mode="estimated", marginal_family="gaussian",
                           prediction_interval=(10.3, 10.3), replicates=5)
    fits = run_fit(spec)
    assert isinstance(fits.marginal, Gaussian)
    # a 100-point window estimates the standard normal roughly
    assert abs(fits.marginal.mu) < 0.8
    assert 0.3 < fits.marginal.sigma < 2.5


def test_stable_process_run():
    spec = tiny_gauss_spec(process=StableMovingAverage(1.0),
                           prediction_interval=(10.3, 10.3), replicates=10)
    fits = run_fit(spec)
    report = run_eval(spec, fits)
    assert set(report.methods) == {"unconstrained", "penalized"}
    for m in report.methods:
        assert np.all(np.isfinite(report.excursion[m]))


def test_benchmark_returns_seconds():
    spec = tiny_gauss_spec()
    seconds = run_table1_benchmark(spec)
    assert isinstance(seconds, float)
    assert 0.0 < seconds < 30.0


# --- artifacts -------------------------------------------------------------------


def test_weights_csv(tiny_run, tmp_path):
    spec, fits, _ = tiny_run
    path = tmp_path / "weights.csv"
    write_weights_csv(path, fits)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,method,lambda_1,lambda_2,objective"
    assert len(lines) == 1 + len(spec.fitted_indices) * len(spec.methods)
    cells = lines[1].split(",")
    assert float(cells[0]) == 10.3
    assert cells[1] in METHOD_ORDER


def test_eval_csv(tiny_run, tmp_path):
    spec, _, report = tiny_run
    path = tmp_path / "eval.csv"
    write_eval_csv(path, report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,method,excursion_metric,wasserstein"
    assert len(lines) == 1 + report.times.size * len(report.methods)


def test_manifest_round_trips_config(tiny_run):
    spec, _, _ = tiny_run
    man = manifest_dict(spec, "evaluate")
    assert man["command"] == "evaluate"
    assert man["seed"] == spec.seed
    assert spec_to_dict(spec_from_dict(man["config"])) == man["config"]
    for pkg in ("tailcast", "numpy", "scipy"):
        assert pkg in man["versions"]
