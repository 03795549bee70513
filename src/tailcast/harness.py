"""Experiment orchestration: simulate, fit weights per point, evaluate.

One training trajectory is simulated on the observation window; per
prediction point the learning rows are extracted and each method's weights
are fitted (subgradient descent for the learned columns, closed forms for
the Gaussian baselines). Evaluation re-simulates R independent trajectories
over the prediction range, applies the frozen weights, and reports the
empirical excursion metric and the 2-Wasserstein mismatch per point and
method.

Reproducibility: every random role (training draw, per-point fitting,
per-replicate evaluation, row subsampling) owns a fixed stream id derived
from the master seed, and replicate streams are keyed by replicate index,
so outputs are identical across runs and thread counts.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import distributions
from .csvio import write_csv
from .distributions import Gaussian, Marginal
from .errors import ConfigError, DivergedToNonFinite
from .metrics import wasserstein2_samples
from .objective import (
    PREDICTOR_KINDS,
    VARIANTS,
    ForecastDesign,
    ObjectiveSpec,
    Predictor,
    centered_objective,
    extract_learning_samples,
    objective_value,
)
from .optimize import COLD_STARTS, DescentConfig, init_candidates, solve
from .processes import (
    ArStudentT,
    GaussExpCov,
    ProcessSpec,
    StableMovingAverage,
    Trajectory,
    simulate,
)
from .baselines import covariances_exp, exact_excursion_weights, simple_kriging_weights
from .rng import RngStream

__all__ = [
    "ExperimentSpec",
    "PointFit",
    "FitResults",
    "EvalReport",
    "known_marginal",
    "run_fit",
    "run_eval",
    "run_table1_benchmark",
    "write_weights_csv",
    "write_eval_csv",
    "manifest_dict",
]

# stream ids per random role
STREAM_TRAIN = 0
STREAM_FIT = 1
STREAM_EVAL = 2
STREAM_SUBSAMPLE = 3

METHOD_ORDER = ("unconstrained", "penalized", "kriging", "exact")


def _lattice(t: float, h: float) -> int:
    return int(round(t / h))


def _time_of(k: int, h: float) -> float:
    return round(k * h, 9)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one simulation experiment."""

    name: str
    process: ProcessSpec
    h: float
    window: tuple
    forecast_offsets: tuple
    prediction_interval: tuple
    predictor_kind: str = "linear"
    variant: str = "Q3"
    gamma: float = 5.0
    marginal_mode: str = "known"
    marginal_family: Optional[str] = None
    max_rows: Optional[int] = None
    descent: DescentConfig = field(default_factory=DescentConfig)
    replicates: int = 1000
    seed: int = 0
    warm_start: bool = True
    init_strategy: str = "unit"
    init_count: int = 8
    wasserstein_raw: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ConfigError("h", "must be positive and finite")
        if self.replicates < 1:
            raise ConfigError("replicates", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.init_count < 1:
            raise ConfigError("init_count", "must be >= 1")
        if self.max_rows is not None and self.max_rows < 1:
            raise ConfigError("max_rows", "must be >= 1")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("gamma", "must be finite and >= 0")
        if self.marginal_mode not in ("known", "estimated"):
            raise ConfigError("marginal_mode", "must be 'known' or 'estimated'")
        if self.marginal_mode == "estimated" and not self.marginal_family:
            raise ConfigError("marginal_family", "required when marginal_mode is 'estimated'")
        if self.variant not in VARIANTS:
            raise ConfigError("variant", f"must be one of {VARIANTS}")
        if self.predictor_kind not in PREDICTOR_KINDS:
            raise ConfigError("predictor_kind", f"must be one of {PREDICTOR_KINDS}")
        if self.init_strategy not in COLD_STARTS:
            raise ConfigError("init_strategy", f"must be one of {COLD_STARTS}")
        interval = tuple(float(v) for v in self.prediction_interval)
        if len(interval) != 2 or interval[1] < interval[0]:
            raise ConfigError("prediction_interval", "must be [lo, hi] with lo <= hi")
        object.__setattr__(self, "window", tuple(float(v) for v in self.window))
        object.__setattr__(self, "forecast_offsets", tuple(float(v) for v in self.forecast_offsets))
        object.__setattr__(self, "prediction_interval", interval)

    # --- derived geometry -------------------------------------------------
    @property
    def offset_indices(self) -> list:
        return [_lattice(v, self.h) for v in self.forecast_offsets]

    @property
    def grid_indices(self) -> list:
        lo, hi = self.prediction_interval
        return list(range(_lattice(lo, self.h), _lattice(hi, self.h) + 1))

    @property
    def fitted_indices(self) -> list:
        off = set(self.offset_indices)
        return [k for k in self.grid_indices if k not in off]

    @property
    def methods(self) -> list:
        out = ["unconstrained"]
        if self.variant in ("Q3", "Q4"):
            out.append("penalized")
        if isinstance(self.process, GaussExpCov):
            out += ["kriging", "exact"]
        return out


# --- JSON config ----------------------------------------------------------

_DESCENT_KEYS = ("mode", "a", "b", "beta", "max_iter", "tol", "burn_in",
                 "selection", "constraint", "radius", "trace_stride")
_SPEC_KEYS = ("name", "process", "h", "window", "forecast_offsets",
              "prediction_interval", "predictor_kind", "variant", "gamma",
              "marginal_mode", "marginal_family", "max_rows", "descent",
              "replicates", "seed", "warm_start", "init_strategy",
              "init_count", "wasserstein_raw")


def _process_to_dict(p: ProcessSpec) -> dict:
    if isinstance(p, GaussExpCov):
        return {"kind": "gauss_exp_cov"}
    if isinstance(p, StableMovingAverage):
        return {"kind": "stable_ma", "alpha": p.alpha}
    if isinstance(p, ArStudentT):
        return {"kind": "ar_student_t", "phi": list(p.phi),
                "innovation": distributions.to_json(p.innovation)}
    raise ConfigError("process", f"unknown process type {type(p).__name__}")


def _process_from_dict(d: dict) -> ProcessSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("process", "must be an object with a 'kind' key")
    kind = d["kind"]
    if kind == "gauss_exp_cov":
        return GaussExpCov()
    if kind == "stable_ma":
        if "alpha" not in d:
            raise ConfigError("process.alpha", "required for stable_ma")
        return StableMovingAverage(float(d["alpha"]))
    if kind == "ar_student_t":
        for key in ("phi", "innovation"):
            if key not in d:
                raise ConfigError(f"process.{key}", "required for ar_student_t")
        return ArStudentT(tuple(d["phi"]), distributions.from_json(d["innovation"]))
    raise ConfigError("process.kind", f"unknown process kind {kind!r}")


def spec_to_dict(spec: ExperimentSpec) -> dict:
    d = spec.descent
    return {
        "name": spec.name,
        "process": _process_to_dict(spec.process),
        "h": spec.h,
        "window": list(spec.window),
        "forecast_offsets": list(spec.forecast_offsets),
        "prediction_interval": list(spec.prediction_interval),
        "predictor_kind": spec.predictor_kind,
        "variant": spec.variant,
        "gamma": spec.gamma,
        "marginal_mode": spec.marginal_mode,
        "marginal_family": spec.marginal_family,
        "max_rows": spec.max_rows,
        "descent": {k: getattr(d, k) for k in _DESCENT_KEYS},
        "replicates": spec.replicates,
        "seed": spec.seed,
        "warm_start": spec.warm_start,
        "init_strategy": spec.init_strategy,
        "init_count": spec.init_count,
        "wasserstein_raw": spec.wasserstein_raw,
    }


def _checked(key, value, kind):
    """``value`` as ``kind``, refusing any coercion but int to float (JSON
    writes 5.0 as 5); a boolean passes only as a boolean."""
    accepted = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(key, f"must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def spec_from_dict(d: dict) -> ExperimentSpec:
    if not isinstance(d, dict):
        raise ConfigError("config", "top level must be a JSON object")
    for key in d:
        if key not in _SPEC_KEYS:
            raise ConfigError(key, "unknown key")
    for key in ("name", "process", "h", "window", "forecast_offsets", "prediction_interval"):
        if key not in d:
            raise ConfigError(key, "missing required key")
    descent_dict = d.get("descent", {})
    if not isinstance(descent_dict, dict):
        raise ConfigError("descent", "must be an object")
    for key in descent_dict:
        if key not in _DESCENT_KEYS:
            raise ConfigError(f"descent.{key}", "unknown key")
    try:
        descent = DescentConfig(**descent_dict)
    except ValueError as exc:
        raise ConfigError("descent", str(exc)) from None
    kwargs = dict(
        name=str(d["name"]),
        process=_process_from_dict(d["process"]),
        h=_checked("h", d["h"], float),
        window=tuple(d["window"]),
        forecast_offsets=tuple(d["forecast_offsets"]),
        prediction_interval=tuple(d["prediction_interval"]),
        descent=descent,
    )
    for key, kind in (("predictor_kind", str), ("variant", str), ("gamma", float),
                      ("marginal_mode", str), ("replicates", int), ("seed", int),
                      ("warm_start", bool), ("init_strategy", str), ("init_count", int),
                      ("wasserstein_raw", bool)):
        if key in d:
            kwargs[key] = _checked(key, d[key], kind)
    if d.get("marginal_family") is not None:
        kwargs["marginal_family"] = str(d["marginal_family"])
    if d.get("max_rows") is not None:
        kwargs["max_rows"] = _checked("max_rows", d["max_rows"], int)
    try:
        return ExperimentSpec(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None


# --- fitting ----------------------------------------------------------------


@dataclass(frozen=True)
class PointFit:
    time: float
    method: str
    kind: str
    weights: np.ndarray
    objective: float
    centered: float
    iterations: int
    seconds: float


@dataclass(frozen=True)
class FitResults:
    spec: ExperimentSpec
    marginal: Marginal
    fits: dict  # lattice index -> method -> PointFit

    def by_time(self, t: float) -> dict:
        return self.fits[_lattice(t, self.spec.h)]


def known_marginal(process: ProcessSpec) -> Marginal:
    if isinstance(process, GaussExpCov):
        return Gaussian(0.0, 1.0)
    if isinstance(process, StableMovingAverage):
        return process.marginal
    raise ConfigError("marginal_mode", "no closed-form marginal for this process; use 'estimated'")


def _simulate_training(spec: ExperimentSpec) -> Trajectory:
    rng = RngStream(spec.seed, STREAM_TRAIN).generator()
    w_lo, w_hi = spec.window
    length = _lattice(w_hi, spec.h) - _lattice(w_lo, spec.h) + 1
    return simulate(spec.process, _time_of(_lattice(w_lo, spec.h), spec.h), spec.h, length, rng)


def _fit_marginal(spec: ExperimentSpec, traj: Trajectory) -> Marginal:
    if spec.marginal_mode == "known":
        return known_marginal(spec.process)
    return distributions.estimate(spec.marginal_family, traj.values)


def _objective_specs(spec: ExperimentSpec, marginal: Marginal) -> dict:
    out = {"unconstrained": ObjectiveSpec("Q2", marginal)}
    if "penalized" in spec.methods:
        out["penalized"] = ObjectiveSpec(spec.variant, marginal, gamma=spec.gamma)
    return out


def run_fit(spec: ExperimentSpec) -> FitResults:
    """Fit every method at every prediction point of the experiment."""
    traj = _simulate_training(spec)
    marginal = _fit_marginal(spec, traj)
    fit_stream = RngStream(spec.seed, STREAM_FIT)
    sub_stream = RngStream(spec.seed, STREAM_SUBSAMPLE)
    obj_specs = _objective_specs(spec, marginal)
    solver_methods = list(obj_specs)
    use_baselines = isinstance(spec.process, GaussExpCov)
    q2_spec = ObjectiveSpec("Q2", marginal)
    fits = {}
    prev = {}
    for k in spec.fitted_indices:
        t = _time_of(k, spec.h)
        design = ForecastDesign(spec.forecast_offsets, t, spec.h, spec.window)
        samples = extract_learning_samples(
            traj, design, max_n=spec.max_rows, rng=sub_stream.generator(k))
        point = {}
        for mi, method in enumerate(solver_methods):
            ospec = obj_specs[method]
            strategy = "warm" if (spec.warm_start and method in prev) else spec.init_strategy
            cands = init_candidates(
                samples, ospec, strategy, kind=spec.predictor_kind,
                count=spec.init_count, warm=prev.get(method),
                rng=fit_stream.generator(k, mi, 0))
            p0 = Predictor(spec.predictor_kind, cands[0])
            t_start = time.perf_counter()
            try:
                res = solve(ospec, samples, p0, spec.descent, fit_stream.generator(k, mi, 1))
            except DivergedToNonFinite as exc:
                raise DivergedToNonFinite(f"{method} fit at t={t:g}: {exc}",
                                          last_iterate=exc.last_iterate) from exc
            seconds = time.perf_counter() - t_start
            val = objective_value(ospec, Predictor(spec.predictor_kind, res.weights),
                                  samples, rng=fit_stream.generator(k, mi, 2))
            point[method] = PointFit(t, method, spec.predictor_kind, res.weights,
                                     val, centered_objective(ospec, val),
                                     res.iterations, seconds)
            prev[method] = res.weights
        if use_baselines:
            so = covariances_exp(design)
            for method, weights in (("kriging", simple_kriging_weights(so)),
                                    ("exact", exact_excursion_weights(so))):
                val = objective_value(q2_spec, Predictor("linear", weights), samples)
                point[method] = PointFit(t, method, "linear", weights, val,
                                         centered_objective(q2_spec, val), 0, 0.0)
        fits[k] = point
    return FitResults(spec, marginal, fits)


# --- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    times: np.ndarray
    methods: tuple
    excursion: dict  # method -> array over times
    wasserstein: dict
    replicates: int


def _replicate_values(spec: ExperimentSpec, needed: np.ndarray, r: int) -> np.ndarray:
    """Values of one fresh trajectory at the needed lattice indices."""
    rng = RngStream(spec.seed, STREAM_EVAL).generator(r)
    if isinstance(spec.process, ArStudentT):
        # the recursion needs its past: simulate from lattice origin
        length = int(needed.max()) + 1
        traj = simulate(spec.process, 0.0, spec.h, length, rng)
        return traj.values[needed]
    k0 = int(needed.min())
    length = int(needed.max()) - k0 + 1
    traj = simulate(spec.process, _time_of(k0, spec.h), spec.h, length, rng)
    return traj.values[needed - k0]


def run_eval(spec: ExperimentSpec, fits: FitResults, threads: int = 1) -> EvalReport:
    """Monte Carlo evaluation of the fitted predictors on fresh replicates.

    Replicates are simulated on up to ``min(threads, replicates)`` worker
    threads; every output byte is the same for any thread count.
    """
    if threads < 1:
        raise ConfigError("threads", "must be >= 1")
    marginal = fits.marginal
    offsets = np.array(spec.offset_indices, dtype=int)
    grid = np.array(spec.grid_indices, dtype=int)
    needed = np.unique(np.concatenate([offsets, grid]))
    col = {int(k): i for i, k in enumerate(needed)}
    R = spec.replicates
    V = np.empty((R, needed.size))

    def fill(r):
        V[r] = _replicate_values(spec, needed, r)

    workers = min(threads, R)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(R)))
    else:
        for r in range(R):
            fill(r)

    Xf = V[:, [col[int(k)] for k in offsets]]
    methods = tuple(spec.methods)
    offset_set = set(int(k) for k in offsets)
    excursion = {m: np.empty(grid.size) for m in methods}
    wasser = {m: np.empty(grid.size) for m in methods}
    for gi, k in enumerate(grid):
        truth = V[:, col[int(k)]]
        f_truth = marginal.cdf(truth)
        for m in methods:
            if int(k) in offset_set:
                predicted = truth  # observed point reproduced exactly
            else:
                pf = fits.fits[int(k)][m]
                predicted = Predictor(pf.kind, pf.weights).values(Xf)
            f_pred = marginal.cdf(predicted)
            excursion[m][gi] = float(np.mean(np.abs(f_pred - f_truth)))
            if spec.wasserstein_raw:
                wasser[m][gi] = wasserstein2_samples(truth, predicted)
            else:
                wasser[m][gi] = wasserstein2_samples(f_truth, f_pred)
    times = np.array([_time_of(int(k), spec.h) for k in grid])
    return EvalReport(times, methods, excursion, wasser, R)


def run_table1_benchmark(spec: ExperimentSpec) -> float:
    """Wall-clock seconds for one online solve at the first prediction point."""
    traj = _simulate_training(spec)
    marginal = _fit_marginal(spec, traj)
    k = spec.fitted_indices[0]
    design = ForecastDesign(spec.forecast_offsets, _time_of(k, spec.h), spec.h, spec.window)
    samples = extract_learning_samples(
        traj, design, max_n=spec.max_rows, rng=RngStream(spec.seed, STREAM_SUBSAMPLE).generator(k))
    ospec = ObjectiveSpec("Q2", marginal)
    cands = init_candidates(samples, ospec, "unit", kind=spec.predictor_kind)
    p0 = Predictor(spec.predictor_kind, cands[0])
    cfg = replace(spec.descent, mode="online")
    t_start = time.perf_counter()
    try:
        solve(ospec, samples, p0, cfg, RngStream(spec.seed, STREAM_FIT).generator(k, 0, 1))
    except DivergedToNonFinite:
        pass  # timing is reported regardless
    return time.perf_counter() - t_start


# --- artifacts --------------------------------------------------------------


def write_weights_csv(path, fits: FitResults) -> None:
    """Columns: t, method, lambda_1..lambda_n, objective (centered scale)."""
    n = len(fits.spec.forecast_offsets)
    header = ["t", "method"] + [f"lambda_{i + 1}" for i in range(n)] + ["objective"]
    rows = []
    for k in sorted(fits.fits):
        point = fits.fits[k]
        for method in METHOD_ORDER:
            if method not in point:
                continue
            pf = point[method]
            rows.append([pf.time, method] + list(pf.weights) + [pf.centered])
    write_csv(path, header, rows)


def write_eval_csv(path, report: EvalReport) -> None:
    header = ["t", "method", "excursion_metric", "wasserstein"]
    rows = []
    for gi in range(report.times.size):
        for m in METHOD_ORDER:
            if m not in report.methods:
                continue
            rows.append([report.times[gi], m,
                         report.excursion[m][gi], report.wasserstein[m][gi]])
    write_csv(path, header, rows)


def manifest_dict(spec: ExperimentSpec, command: str) -> dict:
    import scipy

    from . import __version__

    return {
        "command": command,
        "config": spec_to_dict(spec),
        "seed": spec.seed,
        "versions": {
            "tailcast": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
