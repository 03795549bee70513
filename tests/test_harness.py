import concurrent.futures
import os
import signal
import sys
import threading
import time
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


@pytest.mark.parametrize("key, value", [
    ("replicates", 2.5), ("replicates", 2.0), ("replicates", True), ("replicates", "2"),
    ("init_count", 2.5), ("init_count", True), ("max_rows", 50.5), ("max_rows", False),
    ("seed", 2.5), ("seed", True), ("seed", "2"),
])
def test_spec_rejects_non_integer_count_by_key(key, value):
    """A spec built in Python, where no JSON reader refused the type first."""
    with pytest.raises(ConfigError, match="must be an integer") as err:
        tiny_gauss_spec(**{key: value})
    assert err.value.key == key


@pytest.mark.parametrize("key, value", [
    ("name", 5), ("name", None), ("marginal_family", ["gaussian"]), ("marginal_family", 3),
    ("h", "0.1"), ("h", True), ("h", None), ("h", 10**400),
    ("gamma", "5"), ("gamma", True), ("gamma", None), ("gamma", -10**400),
])
def test_spec_rejects_a_value_of_the_wrong_type_by_key(key, value):
    """A spec built in Python: each value would otherwise fail late, with no
    key, or be written to a manifest that does not reload."""
    with pytest.raises(ConfigError, match="must be a") as err:
        tiny_gauss_spec(**{key: value})
    assert err.value.key == key


def test_spec_accepts_numpy_floats_as_real():
    spec = tiny_gauss_spec(h=np.float64(0.1), gamma=np.float64(5.0))
    assert spec_from_dict(spec_to_dict(spec)) == spec
    assert tiny_gauss_spec(gamma=np.float32(5.0)).gamma == 5.0


@pytest.mark.parametrize("key", ["warm_start", "wasserstein_raw"])
def test_spec_rejects_non_boolean_flag_by_key(key):
    """A truthy string or an integer built in Python would switch the flag
    and then fail to reload from the manifest."""
    for value in ("no", 1, 0, None):
        with pytest.raises(ConfigError, match="must be a boolean") as err:
            tiny_gauss_spec(**{key: value})
        assert err.value.key == key


def test_spec_counts_accept_numpy_integers_as_int():
    spec = tiny_gauss_spec(replicates=np.int64(5), init_count=np.int32(3), max_rows=np.uint8(50),
                           seed=np.uint64(2**64 - 1))
    assert [type(v) for v in (spec.replicates, spec.init_count, spec.max_rows, spec.seed)] == [int] * 4
    assert spec_from_dict(spec_to_dict(spec)) == spec


def built(factory, key, value, **fixed):
    """A case of the test below: ``factory(key=value, **fixed)`` must name ``key``."""
    return pytest.param(factory, {**fixed, key: value}, key, id=f"{factory.__name__}({key}={value!r})")


AR_INNOVATION = StudentT(0.0, 1.0, 0.8)


@pytest.mark.parametrize("factory, kwargs, key", [
    built(DescentConfig, "a", True), built(DescentConfig, "tol", True),
    built(DescentConfig, "beta", True), built(DescentConfig, "radius", "1"),
    built(DescentConfig, "a", "10"), built(DescentConfig, "a", None),
    built(tiny_gauss_spec, "window", "abc"), built(tiny_gauss_spec, "window", ("0", "9.9")),
    built(tiny_gauss_spec, "forecast_offsets", [True, 10.1]),
    built(tiny_gauss_spec, "forecast_offsets", None),
    built(tiny_gauss_spec, "process", None), built(tiny_gauss_spec, "process", "gauss"),
    built(tiny_gauss_spec, "descent", None), built(tiny_gauss_spec, "descent", {"a": 1}),
    built(StableMovingAverage, "alpha", True),
    built(ArStudentT, "phi", (True,), innovation=AR_INNOVATION),
    built(ArStudentT, "innovation", "t", phi=(0.5,)),
    built(StudentT, "nu", True), built(StudentT, "nu", "1"),
])
def test_python_built_config_rejects_a_wrong_type_by_key(factory, kwargs, key):
    """Built in Python, where no JSON reader checks first, each value is
    checked by its field's type hint: a spec raises ConfigError, any other
    config dataclass DomainError, naming the field. Each was accepted (and
    written to a manifest that did not reload), coerced, or raised an error
    that named no key."""
    with pytest.raises(ConfigError if factory is tiny_gauss_spec else DomainError) as err:
        factory(**kwargs)
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


# --- the online fit split across two processes ---------------------------------

needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="run_fit splits only on Linux")

ONLINE_PRESETS = ("gauss_extrap", "gauss_interp", "cauchy_extrap", "cauchy_interp",
                  "levy_extrap", "levy_interp")
# case -> (preset, change to its spec): the online presets, batch Q3 on an
# estimated Student-t marginal (ar3 itself), and batch Q4 as test_golden's
# cauchy_extrap_q4_batch case runs it
SPLIT_CASES = {preset: (preset, lambda spec: spec) for preset in ONLINE_PRESETS + ("ar3",)}
SPLIT_CASES["cauchy_extrap_q4_batch"] = ("cauchy_extrap", lambda spec: replace(
    spec, variant="Q4", init_strategy="simplex",
    descent=replace(spec.descent, mode="batch", max_iter=30)))


def tiny_batch_spec(**overrides):
    """The tiny spec in batch mode: two methods, one after the other."""
    return tiny_gauss_spec(**{"descent": DescentConfig(mode="batch", max_iter=40), **overrides})


def no_fork():
    raise AssertionError("forked")


def fit_outcome(spec):
    """run_fit's fits, or the error it raised."""
    try:
        return run_fit(spec).fits
    except Exception as exc:
        return exc


def packed_and_split(spec, monkeypatch, reset=lambda: None):
    """``run_fit``'s outcome for ``spec`` in one process, then split across
    two processes whatever the CPU count and size; the split forks once.
    ``reset`` runs before each, to restart the call counts of a patch."""
    reset()
    with monkeypatch.context() as m:
        never_split(m)
        m.setattr(os, "fork", no_fork)
        packed = fit_outcome(spec)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    reset()
    with monkeypatch.context() as m:
        always_split(m)
        m.setattr(os, "fork", fork)
        split = fit_outcome(spec)
    assert forks == [os.getpid()]
    return packed, split


def never_split(monkeypatch):
    monkeypatch.setattr(tailcast.harness, "_SPLIT_MIN_STEPS", 10**18)
    monkeypatch.setattr(tailcast.harness, "_SPLIT_MIN_ROW_STEPS", 10**18)


def always_split(monkeypatch):
    """Split every fit that may split, whatever its size and the CPU count."""
    monkeypatch.setattr(tailcast.harness, "_SPLIT_MIN_STEPS", 0)
    monkeypatch.setattr(tailcast.harness, "_SPLIT_MIN_ROW_STEPS", 0)
    monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 2)


def bits(x):
    return np.float64(x).tobytes()


def assert_same_fits(a, b):
    assert list(a) == list(b)
    for k in a:
        assert list(a[k]) == list(b[k]) == [m for m in METHOD_ORDER if m in a[k]]
        for m, x in a[k].items():
            y = b[k][m]
            assert x.weights.tobytes() == y.weights.tobytes()
            assert (bits(x.objective), bits(x.centered)) == (bits(y.objective), bits(y.centered))
            assert (x.time, x.method, x.kind, x.iterations) == (y.time, y.method, y.kind,
                                                                 y.iterations)


def assert_same_error(a, b):
    """Same class, message and error attributes, for the error and its cause.
    The cause's ``chain`` is its index in the ``solve_lockstep`` call that
    raised, so it differs for the penalized chain solved alone."""
    for x, y, names in ((a, b, ("key", "chain", "last_iterate")),
                        (a.__cause__, b.__cause__, ("key", "last_iterate"))):
        assert type(x) is type(y) and str(x) == str(y)
        for name in names:
            assert hasattr(x, name) == hasattr(y, name)
            assert np.array_equal(getattr(x, name, None), getattr(y, name, None))


@needs_fork
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_split_fit_bit_equal_to_one_process(case, monkeypatch):
    from tailcast.cli import _load_config

    preset, change = SPLIT_CASES[case]
    spec = change(_load_config(preset))
    first, last = spec.fitted_indices[0], spec.fitted_indices[2]
    spec = replace(spec, prediction_interval=(round(first * spec.h, 9), round(last * spec.h, 9)))
    packed, split = packed_and_split(spec, monkeypatch)
    assert len(packed) == 3 and len(next(iter(packed.values()))) == len(spec.methods)
    assert_same_fits(packed, split)


@pytest.fixture
def fitting(monkeypatch):
    """The index, among the spec's fitted points, of the point ``_fit_points``
    is fitting in this process, as its one item. A failure a test injects
    keyed on it is raised again by the one-process refit of a failed split
    fit, as a real fit error, which depends on the point alone, would be."""
    current = [None]
    real = tailcast.harness._point_problem

    def point_problem(spec, traj, k):
        current[0] = spec.fitted_indices.index(k)
        return real(spec, traj, k)

    monkeypatch.setattr(tailcast.harness, "_point_problem", point_problem)
    return current


# the tiny spec of each mode, and the solver entry run_fit calls in it: one
# solve_lockstep call for both online chains, one solve call per batch method
SPEC_OF = {"online": tiny_gauss_spec, "batch": tiny_batch_spec}
SOLVE_OF = {"online": "solve_lockstep", "batch": "solve"}


def solved_variant(mode, first):
    """The variant a solve call with first argument ``first`` solves first."""
    return (first[0] if mode == "online" else first).variant


@needs_fork
@pytest.mark.parametrize("mode", ["online", "batch"])
@pytest.mark.parametrize("where", ["solve", "init_candidates", "TypeError"])
def test_split_child_error_reraised_as_in_one_process(where, mode, fitting, monkeypatch):
    """The unconstrained method fails at the second point, in the child."""
    if where == "solve":
        real = getattr(tailcast.harness, SOLVE_OF[mode])

        def patched(first, *args):
            if solved_variant(mode, first) == "Q2" and fitting[0] == 1:
                exc = DivergedToNonFinite("non-finite iterate at step 5",
                                          last_iterate=np.array([0.25, -0.5]))
                exc.chain = 0
                raise exc
            return real(first, *args)
        monkeypatch.setattr(tailcast.harness, SOLVE_OF[mode], patched)
    else:
        real = tailcast.harness.init_candidates

        def patched(samples, ospec, *args, **kwargs):
            if ospec.variant == "Q2" and fitting[0] == 1:
                if where == "TypeError":  # _fit_errors adds no point to its message
                    raise TypeError("no start")
                raise DomainError("no start", key="init_count")
            return real(samples, ospec, *args, **kwargs)
        monkeypatch.setattr(tailcast.harness, "init_candidates", patched)
    packed, split = packed_and_split(SPEC_OF[mode](), monkeypatch)
    assert_same_error(packed, split)
    if where == "solve":
        assert str(split).startswith("unconstrained fit at t=10.4: ")
        assert split.__cause__.chain == 0
        assert np.array_equal(split.last_iterate, [0.25, -0.5])
    elif where == "init_candidates":
        assert str(split).startswith("unconstrained fit at t=10.4: ")
        assert split.__cause__.key == "init_count"
    else:
        assert type(split) is TypeError and str(split) == "no start"


@needs_fork
@pytest.mark.parametrize("mode", ["online", "batch"])
def test_split_parent_error_as_in_one_process(mode, monkeypatch):
    # a huge penalty makes only the penalized chain diverge, in the parent
    with np.errstate(over="ignore", invalid="ignore"):
        packed, split = packed_and_split(SPEC_OF[mode](gamma=1e308), monkeypatch)
    assert isinstance(split, DivergedToNonFinite)
    assert str(split).startswith("penalized fit at t=10.3: non-finite iterate")
    assert_same_error(packed, split)
    assert split.last_iterate is split.__cause__.last_iterate


@needs_fork
@pytest.mark.parametrize("child_point, parent_point, method", [
    (0, 1, "unconstrained"), (1, 0, "penalized"), (1, 1, "unconstrained")])
def test_split_both_failing_raise_the_earlier_point(child_point, parent_point, method,
                                                    fitting, monkeypatch):
    """The error at the earlier point wins; at the same point the
    unconstrained method's, whose start is drawn first."""
    real = tailcast.harness.init_candidates
    fail_at = {"Q2": child_point, "Q3": parent_point}

    def init_candidates(samples, ospec, *args, **kwargs):
        if fitting[0] == fail_at[ospec.variant]:
            raise DomainError(f"{ospec.variant} stops")
        return real(samples, ospec, *args, **kwargs)

    monkeypatch.setattr(tailcast.harness, "init_candidates", init_candidates)
    packed, split = packed_and_split(tiny_gauss_spec(), monkeypatch)
    assert_same_error(packed, split)
    t = (10.3, 10.4)[min(child_point, parent_point)]
    assert str(split).startswith(f"{method} fit at t={t:g}: ")


@needs_fork
def test_split_both_failing_at_one_point_raise_as_in_one_process(monkeypatch):
    """At the first point the penalized chain diverges in the lockstep solve,
    before the unconstrained objective value that fails in the child is
    computed: one process raises the divergence."""
    real = tailcast.harness.objective_value

    def objective_value(ospec, *args, **kwargs):
        if ospec.variant == "Q2":
            raise DomainError("Q2 objective fails")
        return real(ospec, *args, **kwargs)

    monkeypatch.setattr(tailcast.harness, "objective_value", objective_value)
    with np.errstate(over="ignore", invalid="ignore"):
        packed, split = packed_and_split(tiny_gauss_spec(gamma=1e308), monkeypatch)
    assert_same_error(packed, split)
    assert str(split) == "penalized fit at t=10.3: non-finite iterate at step 5"


class Interrupt(BaseException):
    """Stands for a KeyboardInterrupt without stopping the test session."""


@needs_fork
@pytest.mark.parametrize("mode, diverges_at", [("online", 5), ("batch", 0)])
@pytest.mark.parametrize("failure", ["interrupt", "fit error"])
def test_split_parent_interrupted_kills_and_reaps_the_child(failure, mode, diverges_at,
                                                            monkeypatch):
    """The parent fails at its first point while the child still fits it: an
    interrupt propagates, a fit error is raised by the one-process refit, and
    either way the child is killed, not waited for."""
    parent = os.getpid()
    real_solve = getattr(tailcast.harness, SOLVE_OF[mode])

    def solve(*args):
        if os.getpid() != parent:
            time.sleep(20)  # the child's fit outlasts any wait of the test
        return real_solve(*args)

    def covariances_exp(design):  # the baselines are fitted in the parent
        raise Interrupt

    killed, statuses = [], []
    real_kill, real_waitpid = os.kill, os.waitpid

    def kill(pid, sig):
        killed.append(sig)
        real_kill(pid, sig)

    def waitpid(pid, options):
        statuses.append(real_waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(tailcast.harness, SOLVE_OF[mode], solve)
    if failure == "interrupt":
        monkeypatch.setattr(tailcast.harness, "covariances_exp", covariances_exp)
    monkeypatch.setattr(os, "kill", kill)
    monkeypatch.setattr(os, "waitpid", waitpid)
    always_split(monkeypatch)
    if failure == "interrupt":
        with pytest.raises(Interrupt):
            run_fit(SPEC_OF[mode]())
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedToNonFinite, match=r"penalized fit at t=10\.3: non-finite "
                                                          rf"iterate at step {diverges_at}$"):
                run_fit(SPEC_OF[mode](gamma=1e308))
    assert killed == [signal.SIGKILL]
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
    assert os.WTERMSIG(statuses[0]) == signal.SIGKILL
    # the autouse conftest guard checks that the child was reaped


@needs_fork
def test_split_child_ending_without_a_result_raises(monkeypatch, capfd):
    real = tailcast.harness._fit_points

    def fit_points(spec, traj, marginal, methods, baselines):
        for k, point in real(spec, traj, marginal, methods, baselines):
            if methods == ["unconstrained"]:
                point["unconstrained"] = lambda: None  # cannot be pickled
            yield k, point

    monkeypatch.setattr(tailcast.harness, "_fit_points", fit_points)
    always_split(monkeypatch)
    with pytest.raises(RuntimeError, match=r"unconstrained method ended with no result "
                                           r"\(exit code 1\)"):
        run_fit(tiny_gauss_spec())
    assert "Traceback" in capfd.readouterr().err  # the child prints why


def at_split_threshold(mode):
    """The tiny spec of ``mode`` with the fewest steps that reach its split
    threshold: points x max_iter online, row-steps in batch."""
    if mode == "online":
        per_step, least = len(tiny_gauss_spec().fitted_indices), tailcast.harness._SPLIT_MIN_STEPS
    else:
        spec = tiny_batch_spec(descent=DescentConfig(mode="batch", max_iter=1))
        per_step, least = tailcast.harness._row_steps(spec), tailcast.harness._SPLIT_MIN_ROW_STEPS
    return SPEC_OF[mode](descent=DescentConfig(mode=mode, max_iter=-(-least // per_step)))


@needs_fork
@pytest.mark.parametrize("why", ["one usable cpu", "a live thread", "below the threshold",
                                 "batch below its threshold", "Q2", "Q4", "batch Q2"])
def test_split_not_taken_where_it_cannot_run_or_pay(why, monkeypatch):
    """run_fit stays in one process, with ``os.fork`` raising, for the tiny
    spec of the fewest steps that reach its mode's threshold (the control)
    but for ``why``; "below" takes one step fewer."""
    mode = "batch" if why.startswith("batch") else "online"
    monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 2)
    spec = at_split_threshold(mode)
    assert tailcast.harness._split_fit(spec)  # the control: every condition holds
    if why == "one usable cpu":
        monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 1)
    elif "below" in why:
        spec = replace(spec, descent=replace(spec.descent, max_iter=spec.descent.max_iter - 1))
    elif why in ("Q2", "Q4", "batch Q2"):
        spec = replace(spec, variant=why[-2:])
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    if why == "a live thread":
        thread.start()
    try:
        assert not tailcast.harness._split_fit(spec)
        fits = run_fit(spec)
    finally:
        stop.set()
        if why == "a live thread":
            thread.join(timeout=30)
            assert not thread.is_alive()
    assert sorted(fits.fits) == spec.fitted_indices


@needs_fork
def test_batch_fit_at_its_threshold_splits(monkeypatch):
    """The control of the batch cases above, run: the fit forks once."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    run_fit(at_split_threshold("batch"))
    assert forks == [os.getpid()]


@pytest.mark.parametrize("case", ["tiny", "ar3", "cauchy_extrap_q4_batch", "max_rows"])
def test_row_steps_count_the_rows_each_point_extracts(case):
    from tailcast.cli import _load_config

    if case == "tiny":
        spec = tiny_batch_spec()
    elif case == "max_rows":  # caps the rows of some points only
        spec = tiny_batch_spec(max_rows=96)
    else:
        preset, change = SPLIT_CASES[case]
        spec = change(_load_config(preset))
    traj = tailcast.harness._simulate_training(spec)
    rows = [tailcast.harness._point_problem(spec, traj, k)[1].count for k in spec.fitted_indices]
    assert tailcast.harness._row_steps(spec) == sum(rows) * spec.descent.max_iter


@pytest.mark.parametrize("mode", ["online", "batch"])
def test_split_needs_a_second_usable_cpu(mode):
    """On the affinity set this process really has: ``taskset -c 0`` keeps
    every fit, online or batch, in one process."""
    spec = SPEC_OF[mode](descent=DescentConfig(mode=mode, max_iter=10**6))
    linux = sys.platform == "linux"
    assert tailcast.harness._split_fit(spec) == (linux and _usable_cpus() >= 2)


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
