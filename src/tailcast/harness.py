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

import numbers
import os
import reprlib
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import distributions
from .csvio import write_csv
from .distributions import Marginal
from .errors import ConfigError, DivergedToNonFinite, DomainError
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
from .optimize import COLD_STARTS, DescentConfig, init_candidates, solve, solve_lockstep
from .processes import (
    _KINDS,
    ArStudentT,
    GaussExpCov,
    ProcessSpec,
    Trajectory,
    _aligned_index,
    _simulate_gauss_rows,
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


def _time_of(k: int, h: float) -> float:
    return round(k * h, 9)


def _on_lattice(key, times, h) -> list:
    """Lattice indices of ``times``, the value of config key ``key``; a time
    off the lattice raises ConfigError naming ``key``."""
    try:
        return [_aligned_index(t, h, "t") for t in times]
    except DomainError as exc:
        raise ConfigError(key, str(exc)) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one simulation experiment.

    Construction checks each key and the geometry the keys make together,
    raising a ConfigError that names the key. Forecast offsets and prediction
    points may lie anywhere on the lattice, for every process; a fitted point
    needs a lattice index >= 0.
    """

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
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must lie in [0, 2**64 - 1]")
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
        if self.marginal_mode == "known":
            known_marginal(self.process)  # names marginal_mode for a process without one
        if self.variant not in VARIANTS:
            raise ConfigError("variant", f"must be one of {VARIANTS}")
        if self.predictor_kind not in PREDICTOR_KINDS:
            raise ConfigError("predictor_kind", f"must be one of {PREDICTOR_KINDS}")
        if self.init_strategy not in COLD_STARTS:
            raise ConfigError("init_strategy", f"must be one of {COLD_STARTS}")
        for key in ("window", "prediction_interval"):
            lo_hi = tuple(float(v) for v in getattr(self, key))
            if len(lo_hi) != 2 or not np.all(np.isfinite(lo_hi)) or lo_hi[1] < lo_hi[0]:
                raise ConfigError(key, "must be [lo, hi] with finite lo <= hi")
            object.__setattr__(self, key, lo_hi)
        offsets = tuple(float(v) for v in self.forecast_offsets)
        if not offsets or not np.all(np.isfinite(offsets)):
            raise ConfigError("forecast_offsets", "must be a non-empty list of finite numbers")
        object.__setattr__(self, "forecast_offsets", offsets)
        if self.marginal_family is not None and self.marginal_family not in distributions._FAMILIES:
            raise ConfigError("marginal_family", f"must be one of {tuple(distributions._FAMILIES)}")
        # the geometry run_fit would otherwise trip over after simulating, in
        # exact integer lattice indices, so that no window is too long to check
        offsets = self.offset_indices
        g_lo, g_hi = _on_lattice("prediction_interval", self.prediction_interval, self.h)
        w_lo, w_hi = _on_lattice("window", self.window, self.h)
        span = max(offsets + [g_hi]) - min(offsets + [g_lo])
        if w_hi - w_lo < span:
            raise ConfigError("window", f"holds {w_hi - w_lo + 1} lattice points, fewer than the "
                                        f"{span + 1} from the first to the last forecast sample "
                                        "or prediction point, so some point has no learning rows")
        need = distributions._MIN_OBSERVATIONS
        if self.marginal_mode == "estimated" and w_hi - w_lo + 1 < need:
            raise ConfigError("window", f"holds {w_hi - w_lo + 1} lattice points; estimating "
                                        f"the marginal needs at least {need}")
        # a fitted point's streams are keyed by its lattice index, so it may not lie below 0
        off = set(offsets)
        first_fit = next((k for k in range(g_lo, g_hi + 1) if k not in off), 0)
        if first_fit < 0:
            raise ConfigError("prediction_interval", f"fits a point at lattice index {first_fit}; "
                                                     "fitted points need indices >= 0")

    # --- derived geometry -------------------------------------------------
    @property
    def offset_indices(self) -> list:
        return _on_lattice("forecast_offsets", self.forecast_offsets, self.h)

    @property
    def grid_indices(self) -> list:
        lo, hi = _on_lattice("prediction_interval", self.prediction_interval, self.h)
        return list(range(lo, hi + 1))

    @property
    def fitted_indices(self) -> list:
        off = set(self.offset_indices)
        return [k for k in self.grid_indices if k not in off]

    @property
    def methods(self) -> list:
        out = ["unconstrained"]
        if self.variant in ("Q3", "Q4"):
            out.append("penalized")
        if self.process == GaussExpCov():  # the baselines know only its covariance
            out += ["kriging", "exact"]
        return out


# --- JSON config ----------------------------------------------------------


def _to_json(value):
    """``value`` as JSON data: a dataclass as its fields (a process with its
    ``kind``), a marginal as ``{family, params}`` and a tuple as a list."""
    if isinstance(value, Marginal):
        return distributions.to_json(value)
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    out = {"kind": value.kind} if isinstance(value, ProcessSpec) else {}
    return {**out, **{f.name: _to_json(getattr(value, f.name)) for f in fields(value)}}


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return _to_json(spec)


def _checked(key, value, kind):
    """``value`` as ``kind``, refusing any coercion but int to float (JSON
    writes 5.0 as 5); a boolean passes only as a boolean."""
    accepted = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(key, f"must be of type {kind.__name__}, got {reprlib.repr(value)}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(key, "integer beyond the float range") from None


def _value(key, value, hint):
    """The JSON value of config key ``key`` as a field of type ``hint``."""
    if get_origin(hint) is Union and type(None) in get_args(hint):  # Optional[X]
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if hint == ProcessSpec:
        if not (isinstance(value, dict) and "kind" in value):
            raise ConfigError(key, "must be an object with a 'kind' key")
        kind = _checked(f"{key}.kind", value["kind"], str)
        if kind not in _KINDS:
            raise ConfigError(f"{key}.kind", f"unknown process kind {reprlib.repr(kind)}")
        return _object(_KINDS[kind], {k: v for k, v in value.items() if k != "kind"}, key)
    if is_dataclass(hint):
        return _object(hint, value, key)
    if hint is tuple:
        if not isinstance(value, list):
            raise ConfigError(key, f"must be a list of numbers, got {reprlib.repr(value)}")
        return tuple(_checked(key, v, float) for v in value)
    if hint is Marginal:
        if not (isinstance(value, dict) and set(value) <= {"family", "params"}
                and isinstance(value.get("params", {}), dict)):
            raise ConfigError(key, "must be an object {family, params}")
        params = {name: _checked(key, v, float) for name, v in value.get("params", {}).items()}
        try:
            return distributions.from_json({"family": value.get("family"), "params": params})
        except (ValueError, TypeError) as exc:  # TypeError: a family that is not hashable
            raise ConfigError(key, str(exc)) from None
    return _checked(key, value, hint)


def _object(cls, d, key=None):
    """Dataclass ``cls`` from the JSON object ``d``, the value of config key
    ``key`` (None for the top level). The fields are the schema: a key is
    required when its field has no default, may be null when that default is
    None, and is read by its field's type hint. A ConfigError building ``cls``
    passes through; any other error names the field its ``key`` gives (as a
    DescentConfig DomainError does), else the first field (a process's)."""
    if not isinstance(d, dict):
        raise ConfigError(key or "config", "must be an object")
    prefix = f"{key}." if key else ""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    for name in d:
        if name not in names:
            raise ConfigError(prefix + name, "unknown key")
    kwargs = {}
    for f in fields(cls):
        if f.name in d and not (d[f.name] is None and f.default is None):
            kwargs[f.name] = _value(prefix + f.name, d[f.name], hints[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(prefix + f.name, "missing required key")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(prefix + (getattr(exc, "key", None) or names[0]), str(exc)) from None


def spec_from_dict(d: dict) -> ExperimentSpec:
    return _object(ExperimentSpec, d)


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
        return self.fits[_aligned_index(t, self.spec.h, "t")]


def known_marginal(process: ProcessSpec) -> Marginal:
    if process.marginal is not None:
        return process.marginal
    raise ConfigError("marginal_mode", "no closed-form marginal for this process; use 'estimated'")


def _simulate_training(spec: ExperimentSpec) -> Trajectory:
    rng = RngStream(spec.seed, STREAM_TRAIN).generator()
    w_lo, w_hi = _on_lattice("window", spec.window, spec.h)
    return simulate(spec.process, _time_of(w_lo, spec.h), spec.h, w_hi - w_lo + 1, rng)


def _point_problem(spec: ExperimentSpec, traj: Trajectory, k: int):
    """The design and learning rows of prediction point k: the target at
    ``_time_of(k)``, at most ``max_rows`` rows subsampled by the stream keyed
    by k. It calls ``extract_learning_samples`` through this module's
    global, the name ``perfbench/spans.py`` wraps."""
    design = ForecastDesign(spec.forecast_offsets, _time_of(k, spec.h), spec.h, spec.window)
    samples = extract_learning_samples(
        traj, design, max_n=spec.max_rows,
        rng=RngStream(spec.seed, STREAM_SUBSAMPLE).generator(k))
    return design, samples


def _fit_marginal(spec: ExperimentSpec, traj: Trajectory) -> Marginal:
    if spec.marginal_mode == "known":
        return known_marginal(spec.process)
    return distributions.estimate(spec.marginal_family, traj.values)


def _objective_specs(spec: ExperimentSpec, marginal: Marginal) -> dict:
    out = {"unconstrained": ObjectiveSpec("Q2", marginal)}
    if "penalized" in spec.methods:
        out["penalized"] = ObjectiveSpec(spec.variant, marginal, gamma=spec.gamma)
    return out


@contextmanager
def _fit_errors(methods, t):
    """Re-raise an error of the fit at point t naming its method: ``methods[0]``,
    or the lockstep chain the error names."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        message = f"{methods[getattr(exc, 'chain', 0)]} fit at t={t:g}: {exc}"
        if isinstance(exc, DivergedToNonFinite):
            raise DivergedToNonFinite(message, last_iterate=exc.last_iterate) from exc
        raise type(exc)(message) from exc


def run_fit(spec: ExperimentSpec) -> FitResults:
    """Fit every method at every prediction point of the experiment.

    Online Q2/Q3 methods run together through ``solve_lockstep``; batch
    descent and Q4 solve one method at a time. Either way each method owns
    its generators, so the weights do not depend on that choice.
    """
    traj = _simulate_training(spec)
    marginal = _fit_marginal(spec, traj)
    fit_stream = RngStream(spec.seed, STREAM_FIT)
    obj_specs = _objective_specs(spec, marginal)
    solver_methods = list(obj_specs)
    lockstep = spec.descent.mode == "online" and all(
        s.variant in ("Q2", "Q3") for s in obj_specs.values())
    use_baselines = "kriging" in spec.methods
    q2_spec = ObjectiveSpec("Q2", marginal)
    fits = {}
    prev = {}
    for k in spec.fitted_indices:
        t = _time_of(k, spec.h)
        design, samples = _point_problem(spec, traj, k)
        starts = []
        for mi, method in enumerate(solver_methods):
            strategy = "warm" if (spec.warm_start and method in prev) else spec.init_strategy
            with _fit_errors([method], t):
                cands = init_candidates(
                    samples, obj_specs[method], strategy, kind=spec.predictor_kind,
                    count=spec.init_count, warm=prev.get(method),
                    rng=fit_stream.generator(k, mi, 0))
                starts.append(Predictor(spec.predictor_kind, cands[0]))
        solve_rngs = [fit_stream.generator(k, mi, 1) for mi in range(len(solver_methods))]
        if lockstep:
            with _fit_errors(solver_methods, t):
                results = solve_lockstep([obj_specs[m] for m in solver_methods], samples,
                                         starts, spec.descent, solve_rngs)
        else:
            results = []
            for method, p0, rng in zip(solver_methods, starts, solve_rngs):
                with _fit_errors([method], t):
                    results.append(solve(obj_specs[method], samples, p0, spec.descent, rng))
        point = {}
        for mi, (method, res) in enumerate(zip(solver_methods, results)):
            ospec = obj_specs[method]
            with _fit_errors([method], t):
                val = objective_value(ospec, Predictor(spec.predictor_kind, res.weights),
                                      samples, rng=fit_stream.generator(k, mi, 2))
            point[method] = PointFit(t, method, spec.predictor_kind, res.weights,
                                     val, centered_objective(ospec, val),
                                     res.iterations, res.seconds)
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


# Replicates simulated together by one thread. The cap keeps the block's
# arrays small: on online_extrap's 1000 replicates the traced peak of an
# evaluation is 1198 KB one path at a time, 1227 KB in blocks of 64 and
# 1381 KB in blocks of 128, and one block of 1000 raised the peak RSS by
# 1.2 MB more than blocks of 128
_REPLICATE_BLOCK = 64


def _replicate_values(spec: ExperimentSpec, needed: np.ndarray, rows) -> np.ndarray:
    """Values of fresh replicates ``rows`` at the needed lattice indices, one
    row each. A Gaussian block runs one recursion over all its rows; any
    other process one ``simulate`` call per replicate, each indexed before
    the next is simulated. A replicate starts at its first needed index, but
    an AR one, whose recursion needs its past, no later than lattice index 0."""
    stream = RngStream(spec.seed, STREAM_EVAL)
    k0 = int(needed.min())
    if isinstance(spec.process, ArStudentT):
        k0 = min(k0, 0)
    length = int(needed.max()) - k0 + 1
    if isinstance(spec.process, GaussExpCov):
        paths = _simulate_gauss_rows(spec.h, length, (stream.generator(r) for r in rows))
        return paths[:, needed - k0]
    return np.array([simulate(spec.process, _time_of(k0, spec.h), spec.h, length,
                              stream.generator(r)).values[needed - k0] for r in rows])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (``taskset`` shrinks it), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_eval(spec: ExperimentSpec, fits: FitResults, threads: Optional[int] = None) -> EvalReport:
    """Monte Carlo evaluation of the fitted predictors on fresh replicates.

    Replicates are simulated on ``min(threads, replicates)`` worker threads,
    worker w taking replicates w, w + workers, w + 2 workers, ...; each
    replicate owns its stream, so every output byte is the same for any
    thread count. Each thread simulates its replicates ``_REPLICATE_BLOCK``
    at a time through ``_replicate_values``, for every process.

    ``threads=None`` picks the count from the process: one thread per usable
    CPU (``_usable_cpus``) for an AR process, whose every replicate first
    simulates DEFAULT_AR_BURN_IN = 10,000 burn-in steps, and the calling
    thread alone for the others, whose replicates span a few hundred steps
    in the presets. On 2 vCPUs a second
    thread saved time for every process from 4,000 steps per replicate on,
    and below 1,000 it mostly cost time (README, "Evaluation threads").
    """
    if threads is None:
        threads = _usable_cpus() if isinstance(spec.process, ArStudentT) else 1
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise DomainError(f"threads must be an integer, got {reprlib.repr(threads)}", key="threads")
    if threads < 1:
        raise DomainError("threads must be >= 1", key="threads")
    marginal = fits.marginal
    offsets = np.array(spec.offset_indices, dtype=int)
    grid = np.array(spec.grid_indices, dtype=int)
    needed = np.unique(np.concatenate([offsets, grid]))
    col = {int(k): i for i, k in enumerate(needed)}
    R = spec.replicates
    V = np.empty((R, needed.size))

    workers = min(threads, R)

    def fill(w):
        rows = range(w, R, workers)
        for i in range(0, len(rows), _REPLICATE_BLOCK):
            block = rows[i:i + _REPLICATE_BLOCK]
            V[block.start:block.stop:block.step] = _replicate_values(spec, needed, block)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # by default, AR evaluation alone pools

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    else:
        fill(0)

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
    if not spec.fitted_indices:
        raise ConfigError("prediction_interval", "holds no point outside the forecast sample, "
                                                 "so there is no solve to time")
    try:  # a batch config's beta may lie outside the online range
        cfg = replace(spec.descent, mode="online")
    except DomainError as exc:
        raise ConfigError(f"descent.{exc.key}", str(exc)) from None
    k = spec.fitted_indices[0]
    traj = _simulate_training(spec)
    marginal = _fit_marginal(spec, traj)
    _, samples = _point_problem(spec, traj, k)
    ospec = ObjectiveSpec("Q2", marginal)
    cands = init_candidates(samples, ospec, "unit", kind=spec.predictor_kind)
    p0 = Predictor(spec.predictor_kind, cands[0])
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
