import concurrent.futures
import os
from dataclasses import fields, replace
from typing import get_args

import numpy as np
import pytest

from tailcast.distributions import Cauchy, Gaussian, Levy, StudentT
from tailcast.errors import (
    ConfigError,
    DivergedToNonFinite,
    DomainError,
    NonFiniteInput,
)
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
from tailcast.harness import _usable_cpus
from tailcast.optimize import DescentConfig
from tailcast.processes import (
    _KINDS,
    ArStudentT,
    GaussExpCov,
    ProcessSpec,
    StableMovingAverage,
    simulate,
)
from tailcast.rng import RngStream


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
    for process, mode in (
        (GaussExpCov(), {}),
        (StableMovingAverage(0.5), {}),
        # an AR process has no closed-form marginal, so its spec estimates one
        (ArStudentT((0.1, 0.25, 0.5), StudentT(0.0, 1.0, 0.8)),
         {"marginal_mode": "estimated", "marginal_family": "student_t"}),
    ):
        spec = tiny_gauss_spec(process=process, **mode)
        d = spec_to_dict(spec)
        assert spec_from_dict(d) == spec
        assert spec_to_dict(spec_from_dict(d)) == d


def test_process_kinds_declared_once_by_their_classes():
    """``_KINDS`` tags every member of ProcessSpec, and a process is written
    as its tag plus its class's fields."""
    processes = (GaussExpCov(), StableMovingAverage(0.5),
                 ArStudentT((0.5,), StudentT(0.0, 1.0, 0.8)))
    assert set(_KINDS.values()) == set(get_args(ProcessSpec)) == {type(p) for p in processes}
    for process in processes:
        mode = {} if process.marginal else {"marginal_mode": "estimated",
                                            "marginal_family": "student_t"}
        d = spec_to_dict(tiny_gauss_spec(process=process, **mode))["process"]
        assert list(d) == ["kind"] + [f.name for f in fields(process)]
        assert _KINDS[d["kind"]] is type(process)


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


@pytest.mark.parametrize("key, value", [
    ("a", "big"), ("a", None), ("a", True), ("b", [1.0]), ("beta", "0.7"), ("tol", False),
    ("radius", "1"), ("max_iter", 2.5), ("max_iter", 300.0), ("max_iter", True),
    ("burn_in", True), ("burn_in", 1.5), ("trace_stride", "10"),
    ("mode", 1), ("selection", None), ("constraint", ["ball"]),
])
def test_spec_from_dict_rejects_bad_descent_type_by_key(key, value):
    d = spec_to_dict(tiny_gauss_spec())
    d["descent"] = {**d["descent"], key: value}
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert err.value.key == f"descent.{key}"


def test_spec_from_dict_rejects_descent_value_out_of_range_by_key():
    d = spec_to_dict(tiny_gauss_spec())
    for key, value in (("mode", "momentum"), ("selection", "median"), ("constraint", "box"),
                       ("a", 0.0), ("a", float("inf")), ("b", -1.0), ("b", 0.0), ("beta", 0.4),
                       ("max_iter", 0), ("tol", -1.0), ("tol", float("nan")),
                       ("tol", float("inf")), ("burn_in", 40),
                       ("trace_stride", 0)):
        d2 = {**d, "descent": {**d["descent"], key: value}}
        with pytest.raises(ConfigError) as err:
            spec_from_dict(d2)
        assert err.value.key == f"descent.{key}"
    # batch mode takes any positive beta, but not NaN or infinity (JSON reads both)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ConfigError) as err:
            spec_from_dict({**d, "descent": {**d["descent"], "mode": "batch", "beta": beta}})
        assert err.value.key == "descent.beta"
    with pytest.raises(ConfigError) as err:
        spec_from_dict({**d, "descent": {**d["descent"], "constraint": "ball", "radius": 0.0}})
    assert err.value.key == "descent.radius"
    # JSON integers are accepted as floats
    d["descent"] = {**d["descent"], "a": 10, "radius": 2}
    assert spec_from_dict(d).descent.a == 10.0


def test_spec_from_dict_null_only_where_the_default_is_null():
    d = spec_to_dict(tiny_gauss_spec(max_rows=50, marginal_family="gaussian"))
    spec = spec_from_dict({**d, "max_rows": None, "marginal_family": None})
    assert spec.max_rows is None and spec.marginal_family is None
    for key in ("gamma", "seed", "descent", "window"):
        with pytest.raises(ConfigError) as err:
            spec_from_dict({**d, key: None})
        assert err.value.key == key


def test_spec_from_dict_missing_required_key():
    for key in ("name", "process", "h", "window", "forecast_offsets", "prediction_interval"):
        d = spec_to_dict(tiny_gauss_spec())
        del d[key]
        with pytest.raises(ConfigError) as err:
            spec_from_dict(d)
        assert err.value.key == key


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
    ("window", [0.0, 4.9, 9.9]), ("window", [9.9, 0.0]), ("window", "abc"),
    ("window", [0.0, float("inf")]), ("forecast_offsets", []),
    ("forecast_offsets", [float("inf")]), ("forecast_offsets", "x"),
    ("prediction_interval", "ab"), ("prediction_interval", [10.3, float("nan")]),
    ("name", [1, 2]), ("marginal_family", 3), ("seed", 2**64), ("h", 10**400),
    # geometry: every time on the h lattice, learning rows for every fitted point
    ("marginal_family", "foo"), ("forecast_offsets", [10.0, 10.05, 10.2]),
    ("window", [0.0, 0.0]), ("window", [0.05, 9.9]), ("window", [0.0, 0.4]),
    ("prediction_interval", [10.35, 10.5]), ("prediction_interval", [10.3, 10.55]),
])
def test_spec_from_dict_rejects_bad_value_by_key(key, value):
    d = spec_to_dict(tiny_gauss_spec())
    d[key] = value
    with pytest.raises(ConfigError) as err:
        spec_from_dict(d)
    assert err.value.key == key


def test_spec_window_holds_the_design_span_exactly():
    """The tiny design spans lattice points 100..105: a window of 6 points
    gives the farthest fitted point one learning row, 5 points give none."""
    spec = tiny_gauss_spec(window=(0.0, 0.5), descent=DescentConfig(mode="online", max_iter=5))
    assert sorted(run_fit(spec).fits) == spec.fitted_indices
    with pytest.raises(ConfigError) as err:
        tiny_gauss_spec(window=(0.0, 0.4))
    assert err.value.key == "window"


@pytest.mark.parametrize("key", ["forecast_offsets", "prediction_interval", "window"])
def test_spec_time_beyond_the_lattice_range_named(key):
    """t / h overflows a float at h = 1e-10 for t = 1e300."""
    spec = tiny_gauss_spec(h=1e-10)
    with pytest.raises(ConfigError) as err:
        tiny_gauss_spec(h=1e-10, **{key: (getattr(spec, key)[0], 1e300)})
    assert err.value.key == key


def test_spec_window_holds_enough_points_to_estimate_the_marginal():
    estimated = dict(marginal_mode="estimated", marginal_family="gaussian",
                     descent=DescentConfig(mode="online", max_iter=5))
    spec = tiny_gauss_spec(window=(0.0, 4.9), **estimated)  # 50 points
    assert sorted(run_fit(spec).fits) == spec.fitted_indices
    with pytest.raises(ConfigError) as err:
        tiny_gauss_spec(window=(0.0, 4.8), **estimated)
    assert err.value.key == "window"
    tiny_gauss_spec(window=(0.0, 4.8))  # a known marginal needs no such window


AR3 = {"kind": "ar_student_t", "phi": [0.1, 0.25, 0.5],
       "innovation": {"family": "student_t", "params": {"mu": 0.0, "sigma": 1.0, "nu": 0.8}}}


@pytest.mark.parametrize("process, key", [
    ({"kind": 3}, "process.kind"), ({"kind": "arma"}, "process.kind"),
    ({"kind": "gauss_exp_cov", "alpha": 1.0}, "process.alpha"),
    ({"kind": "stable_ma"}, "process.alpha"),
    ({"kind": "stable_ma", "alpha": "x"}, "process.alpha"),
    ({"kind": "stable_ma", "alpha": 0.7}, "process.alpha"),
    ({**AR3, "innovation": 5}, "process.innovation"),
    ({**AR3, "innovation": {"family": "pareto"}}, "process.innovation"),
    ({**AR3, "innovation": {"family": "student_t", "params": {"nu": "x"}}}, "process.innovation"),
    ({**AR3, "innovation": {"family": "student_t", "params": {"df": 1.0}}}, "process.innovation"),
    ({**AR3, "innovation": {"family": "student_t", "params": {"nu": -1.0}}},
     "process.innovation"),
    ({**AR3, "phi": [2.0]}, "process.phi"), ({**AR3, "phi": []}, "process.phi"),
    ({**AR3, "phi": "x"}, "process.phi"), ({**AR3, "phi": [float("nan")]}, "process.phi"),
])
def test_spec_from_dict_rejects_bad_process_value_by_key(process, key):
    d = spec_to_dict(tiny_gauss_spec())
    d["process"] = process
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
    # by_time fetches the same dict, and rounds no time off the lattice
    assert fits.by_time(10.3) is fits.fits[103]
    with pytest.raises(DomainError, match=r"^t=10\.34 is not a multiple of h"):
        fits.by_time(10.34)


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


AR3 = ArStudentT((0.1, 0.25, 0.5), StudentT(0.0, 1.0, 0.8))


@pytest.fixture(scope="module")
def process_runs(tiny_run):
    """(spec, fits) of the tiny design for every process: Gaussian, the stable
    moving averages of alpha 1 and 0.5, and AR, which estimates its marginal."""
    runs = [tiny_run[:2]]
    for kw in (dict(process=StableMovingAverage(1.0)), dict(process=StableMovingAverage(0.5)),
               dict(process=AR3, marginal_mode="estimated", marginal_family="student_t")):
        spec = tiny_gauss_spec(**kw)
        runs.append((spec, run_fit(spec)))
    return runs


def one_replicate(spec, needed, r):
    """Replicate r at the needed lattice indices from one ``simulate`` call,
    which starts at the first needed index, or for AR at lattice index 0."""
    k0 = int(needed.min())
    if isinstance(spec.process, ArStudentT):
        k0 = min(k0, 0)
    rng = RngStream(spec.seed, tailcast.harness.STREAM_EVAL).generator(r)
    traj = simulate(spec.process, round(k0 * spec.h, 9), spec.h, int(needed.max()) - k0 + 1, rng)
    return traj.values[needed - k0]


def test_eval_gaussian_blocks_equal_one_replicate_at_a_time(process_runs, monkeypatch):
    """Each thread simulates its replicates in blocks of ``_REPLICATE_BLOCK``,
    the last block short, for every process; each row holds the values of
    one ``simulate`` call for its replicate, and the report is the one that
    simulating one replicate at a time gives, for any thread count."""
    needed = np.array([100, 102, 103, 104, 105])
    monkeypatch.setattr(tailcast.harness, "_REPLICATE_BLOCK", 3)
    blocks = []
    real = tailcast.harness._replicate_values

    def block_values(spec, needed, rows):
        blocks.append(list(rows))
        return real(spec, needed, rows)

    def one_at_a_time(spec, needed, rows):
        return np.array([one_replicate(spec, needed, r) for r in rows])

    for spec, fits in process_runs:
        spec = replace(spec, replicates=7)
        monkeypatch.setattr(tailcast.harness, "_replicate_values", block_values)
        del blocks[:]
        report = run_eval(spec, fits, threads=1)
        assert blocks == [[0, 1, 2], [3, 4, 5], [6]]
        del blocks[:]
        pooled = run_eval(spec, fits, threads=2)
        assert sorted(blocks) == [[0, 2, 4], [1, 3, 5], [6]]
        for rows in blocks:  # and where the needed indices straddle lattice index 0
            for idx in (needed, needed - 103):
                V = real(spec, idx, rows)
                for i, r in enumerate(rows):
                    assert V[i].tobytes() == one_replicate(spec, idx, r).tobytes()
        monkeypatch.setattr(tailcast.harness, "_replicate_values", one_at_a_time)
        want = run_eval(spec, fits, threads=1)
        for got in (report, pooled):
            for m in want.methods:
                assert got.excursion[m].tobytes() == want.excursion[m].tobytes()
                assert got.wasserstein[m].tobytes() == want.wasserstein[m].tobytes()


def test_eval_rejects_threads_below_one(tiny_run):
    """A count below one, a bool or a non-integral value names ``threads``;
    a numpy integer is a count like any other."""
    spec, fits, report = tiny_run
    for threads in (0, -1):
        with pytest.raises(DomainError, match="threads must be >= 1") as err:
            run_eval(spec, fits, threads=threads)
        assert err.value.key == "threads"
    for threads in (2.5, 2.0, "2", True, False):
        with pytest.raises(DomainError, match="threads must be an integer") as err:
            run_eval(spec, fits, threads=threads)
        assert err.value.key == "threads"
    counted = run_eval(spec, fits, threads=np.int64(2))
    for m in report.methods:
        assert counted.wasserstein[m].tobytes() == report.wasserstein[m].tobytes()


def record_pools(monkeypatch) -> list:
    """Replace run_eval's pool, which it imports from ``concurrent.futures``
    when it pools, by a stand-in that runs the replicates in this thread, so
    no thread is started; returns the worker counts it is given."""
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

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return sizes


def test_eval_pool_capped_at_replicate_count(tiny_run, monkeypatch):
    """The pool gets min(threads, replicates) workers."""
    spec, fits, report = tiny_run
    sizes = record_pools(monkeypatch)
    capped = run_eval(spec, fits, threads=64)
    run_eval(spec, fits, threads=3)
    run_eval(spec, fits, threads=1)
    assert sizes == [spec.replicates, 3]
    for m in report.methods:
        assert np.array_equal(capped.excursion[m], report.excursion[m])


def test_eval_default_pools_ar_replicates_on_every_cpu(tiny_run, monkeypatch):
    """By default an AR process gets min(usable CPUs, replicates) workers and any
    other process no pool; either way the report equals the one-thread one."""
    gauss_spec, gauss_fits, _ = tiny_run
    ar_spec = tiny_gauss_spec(process=AR3, marginal_mode="estimated", marginal_family="student_t",
                              replicates=5)
    ar_fits = run_fit(ar_spec)
    monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 3)
    sizes = record_pools(monkeypatch)
    for spec, fits, pools in ((ar_spec, ar_fits, [3]), (gauss_spec, gauss_fits, [])):
        sizes.clear()
        single, chosen = run_eval(spec, fits, threads=1), run_eval(spec, fits)
        assert sizes == pools
        for m in single.methods:
            assert np.array_equal(chosen.excursion[m], single.excursion[m])
            assert np.array_equal(chosen.wasserstein[m], single.wasserstein[m])
    monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 8)
    sizes.clear()
    run_eval(ar_spec, ar_fits)
    assert sizes == [ar_spec.replicates]


def test_usable_cpus_counts_the_affinity_set(monkeypatch):
    """The CPUs of the process's affinity set where the platform has one
    (``taskset -c 0`` leaves one of the machine's CPUs), else
    ``os.cpu_count()``, and 1 when that is unknown."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


def test_eval_gives_each_worker_one_strided_block(process_runs, monkeypatch):
    tasks, order = [], []
    real = tailcast.harness._replicate_values

    class Recorder:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            tasks.append(items)
            return map(fn, items)

    def replicate_values(spec, needed, rows):
        order.extend(rows)
        return real(spec, needed, rows)

    for spec, fits in process_runs:
        report = run_eval(spec, fits, threads=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(tailcast.harness, "_replicate_values", replicate_values)
        del tasks[:], order[:]
        strided = run_eval(spec, fits, threads=3)
        monkeypatch.undo()
        assert tasks == [[0, 1, 2]]
        R = spec.replicates
        assert order == list(range(0, R, 3)) + list(range(1, R, 3)) + list(range(2, R, 3))
        for m in report.methods:
            assert np.array_equal(strided.wasserstein[m], report.wasserstein[m])


def test_fit_deterministic(tiny_run):
    spec, fits, _ = tiny_run
    fits2 = run_fit(spec)
    for k in spec.fitted_indices:
        for m in spec.methods:
            assert np.array_equal(fits.fits[k][m].weights, fits2.fits[k][m].weights)


def test_fit_divergence_names_point_and_method():
    # a huge penalty makes only the penalized chain diverge
    spec = tiny_gauss_spec(prediction_interval=(10.3, 10.3), replicates=5, gamma=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedToNonFinite, match=r"penalized fit at t=10\.3: non-finite iterate at step 5") as err:
            run_fit(spec)
    assert isinstance(err.value.__cause__, DivergedToNonFinite)
    assert err.value.last_iterate is err.value.__cause__.last_iterate
    assert np.all(np.isfinite(err.value.last_iterate))


def test_fit_overflowing_row_names_point_and_method():
    spec = tiny_gauss_spec(prediction_interval=(10.3, 10.3), replicates=5, gamma=1e300,
                           process=StableMovingAverage(0.5), predictor_kind="squared")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteInput, match=r"penalized fit at t=10\.3: row prediction is not finite") as err:
            run_fit(spec)
    assert isinstance(err.value.__cause__, NonFiniteInput)


def test_fit_error_outside_the_solve_names_point_and_method(monkeypatch):
    real = tailcast.harness.init_candidates

    def init_candidates(samples, ospec, *args, **kwargs):
        if ospec.variant == "Q3":
            raise DomainError("no start")
        return real(samples, ospec, *args, **kwargs)

    monkeypatch.setattr(tailcast.harness, "init_candidates", init_candidates)
    with pytest.raises(DomainError, match=r"penalized fit at t=10\.3: no start"):
        run_fit(tiny_gauss_spec(prediction_interval=(10.3, 10.3), replicates=5))


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
