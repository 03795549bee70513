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
so outputs are identical across runs, thread counts and the processes a
fit is split across.
"""

from __future__ import annotations

import os
import pickle
import reprlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Literal, Optional

import numpy as np

from . import distributions
from .csvio import write_csv
from .distributions import Marginal
from .errors import ConfigError, DivergedToNonFinite, DomainError, check_fields, checked, field_hints
from .metrics import wasserstein2_samples
from .objective import (
    ForecastDesign,
    ObjectiveSpec,
    Predictor,
    PredictorKind,
    Variant,
    centered_objective,
    extract_learning_samples,
    objective_value,
)
from .optimize import ColdStart, DescentConfig, init_candidates, solve, solve_lockstep
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
    predictor_kind: PredictorKind = "linear"
    variant: Variant = "Q3"
    gamma: float = 5.0
    marginal_mode: Literal["known", "estimated"] = "known"
    marginal_family: Optional[str] = None
    max_rows: Optional[int] = None
    descent: DescentConfig = field(default_factory=DescentConfig)
    replicates: int = 1000
    seed: int = 0
    warm_start: bool = True
    init_strategy: ColdStart = "unit"
    init_count: int = 8
    wasserstein_raw: bool = False

    def __post_init__(self):
        try:
            check_fields(self)
        except DomainError as exc:
            raise ConfigError(exc.key, str(exc)) from None
        if not (np.isfinite(self.h) and self.h > 0):
            raise ConfigError("h", "must be positive and finite")
        for key in ("replicates", "init_count", "max_rows"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(key, "must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must lie in [0, 2**64 - 1]")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("gamma", "must be finite and >= 0")
        if self.marginal_mode == "estimated" and not self.marginal_family:
            raise ConfigError("marginal_family", "required when marginal_mode is 'estimated'")
        if self.marginal_mode == "known":
            known_marginal(self.process)  # names marginal_mode for a process without one
        for key in ("window", "prediction_interval"):
            lo_hi = getattr(self, key)
            if len(lo_hi) != 2 or not np.all(np.isfinite(lo_hi)) or lo_hi[1] < lo_hi[0]:
                raise ConfigError(key, "must be [lo, hi] with finite lo <= hi")
        if not self.forecast_offsets or not np.all(np.isfinite(self.forecast_offsets)):
            raise ConfigError("forecast_offsets", "must be a non-empty list of finite numbers")
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


def _value(key, value, hint):
    """The JSON value of config key ``key`` as a field of type ``hint``: an
    object as its dataclass, a process by its ``kind``, a marginal by its
    family; any other value as it is, for the dataclass to check."""
    if hint == ProcessSpec:
        if not (isinstance(value, dict) and "kind" in value):
            raise ConfigError(key, "must be an object with a 'kind' key")
        kind = value["kind"]
        if not (isinstance(kind, str) and kind in _KINDS):
            raise ConfigError(f"{key}.kind", f"unknown process kind {reprlib.repr(kind)}")
        return _object(_KINDS[kind], {k: v for k, v in value.items() if k != "kind"}, key)
    if is_dataclass(hint):
        return _object(hint, value, key)
    if hint is Marginal:
        if not (isinstance(value, dict) and set(value) <= {"family", "params"}
                and isinstance(value.get("params", {}), dict)):
            raise ConfigError(key, "must be an object {family, params}")
        try:
            return distributions.from_json(value)
        except (ValueError, TypeError) as exc:  # TypeError: a family that is not hashable
            raise ConfigError(key, str(exc)) from None
    return value


def _object(cls, d, key=None):
    """Dataclass ``cls`` from the JSON object ``d``, the value of config key
    ``key`` (None for the top level). The fields are the schema: a key is
    required when its field has no default, and its value is read by the
    field's type hint, which the dataclass checks (``errors.check_fields``).
    A ConfigError building ``cls`` passes through; any other ValueError
    names the field its ``key`` gives (as every DomainError of a descent or
    process does), else the first field."""
    if not isinstance(d, dict):
        raise ConfigError(key or "config", "must be an object")
    prefix = f"{key}." if key else ""
    hints = field_hints(cls)
    for name in d:
        if name not in hints:
            raise ConfigError(prefix + name, "unknown key")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _value(prefix + f.name, d[f.name], hints[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(prefix + f.name, "missing required key")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        name = getattr(exc, "key", None) or fields(cls)[0].name
        raise ConfigError(prefix + name, str(exc)) from None


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


def _fit_points(spec: ExperimentSpec, traj: Trajectory, marginal: Marginal, methods: list,
                baselines: bool):
    """Yield ``(k, {method: PointFit})`` at every fitted point k, in order.

    ``methods`` are solver methods of the spec, in its order; each draws from
    the streams of its index among all of them, so a method's fits do not
    depend on which others run beside it. Online Q2/Q3 methods run together
    through ``solve_lockstep``; batch descent and Q4 solve one method at a
    time. ``baselines`` adds the kriging and exact weights.
    """
    fit_stream = RngStream(spec.seed, STREAM_FIT)
    obj_specs = _objective_specs(spec, marginal)
    index = {method: mi for mi, method in enumerate(obj_specs)}
    lockstep = spec.descent.mode == "online" and all(
        s.variant in ("Q2", "Q3") for s in obj_specs.values())
    q2_spec = ObjectiveSpec("Q2", marginal)
    prev = {}
    for k in spec.fitted_indices:
        t = _time_of(k, spec.h)
        design, samples = _point_problem(spec, traj, k)
        starts = []
        for method in methods:
            strategy = "warm" if (spec.warm_start and method in prev) else spec.init_strategy
            with _fit_errors([method], t):
                cands = init_candidates(
                    samples, obj_specs[method], strategy, kind=spec.predictor_kind,
                    count=spec.init_count, warm=prev.get(method),
                    rng=fit_stream.generator(k, index[method], 0))
                starts.append(Predictor(spec.predictor_kind, cands[0]))
        solve_rngs = [fit_stream.generator(k, index[method], 1) for method in methods]
        if lockstep:
            with _fit_errors(methods, t):
                results = solve_lockstep([obj_specs[m] for m in methods], samples,
                                         starts, spec.descent, solve_rngs)
        else:
            results = []
            for method, p0, rng in zip(methods, starts, solve_rngs):
                with _fit_errors([method], t):
                    results.append(solve(obj_specs[method], samples, p0, spec.descent, rng))
        point = {}
        for method, res in zip(methods, results):
            ospec = obj_specs[method]
            with _fit_errors([method], t):
                val = objective_value(ospec, Predictor(spec.predictor_kind, res.weights),
                                      samples, rng=fit_stream.generator(k, index[method], 2))
            point[method] = PointFit(t, method, spec.predictor_kind, res.weights,
                                     val, centered_objective(ospec, val),
                                     res.iterations, res.seconds)
            prev[method] = res.weights
        if baselines:
            so = covariances_exp(design)
            for method, weights in (("kriging", simple_kriging_weights(so)),
                                    ("exact", exact_excursion_weights(so))):
                val = objective_value(q2_spec, Predictor("linear", weights), samples)
                point[method] = PointFit(t, method, "linear", weights, val,
                                         centered_objective(q2_spec, val), 0, 0.0)
        yield k, point


# Fitted points x max_iter from which an online Q3 fit runs its unconstrained
# method in a second process. On gauss_extrap, gauss_interp, cauchy_extrap
# and levy_extrap cut to P points of 300 steps, the split took 1.06-1.16x
# the one-process time at P = 1, 0.95-1.00x at 2, 0.90-0.94x at 3 and
# 0.83-0.89x at 8 (2-vCPU VM, medians of 10 alternating run_fit calls)
_SPLIT_MIN_STEPS = 900
# Row-steps (learning rows summed over the fitted points, x max_iter) from
# which a batch Q3 or Q4 fit runs its unconstrained method in a second
# process. On q4_long, ar3 and a 100-point Gaussian window cut to fewer steps
# or points, the split took 1.00-1.12x the one-process time at 12,000
# row-steps, 0.96-1.02x at 30,000-35,000, 0.88-0.97x at 59,000-89,000 and
# 0.71-0.85x from 118,000 on (2-vCPU VM, medians of 10 alternating run_fit
# calls; README, "How a fit runs")
_SPLIT_MIN_ROW_STEPS = 100_000


def _row_steps(spec: ExperimentSpec) -> int:
    """Learning rows summed over the fitted points, times ``max_iter``: the
    rows a batch method's descent reads, from the window geometry alone.
    Point k has one row per shift that keeps its design in the window, at
    most ``max_rows``."""
    w_lo, w_hi = _on_lattice("window", spec.window, spec.h)
    offsets = spec.offset_indices
    lo, hi = min(offsets), max(offsets)
    rows = [w_hi - w_lo + 1 - (max(hi, k) - min(lo, k)) for k in spec.fitted_indices]
    if spec.max_rows is not None:
        rows = [min(r, spec.max_rows) for r in rows]
    return sum(rows) * spec.descent.max_iter


def _split_fit(spec: ExperimentSpec) -> bool:
    """Whether ``run_fit`` fits the unconstrained method in a forked child.

    A fit with two solver methods may split: an online Q3 fit, whose two
    methods otherwise pack into each ``solve_lockstep`` call, and a batch Q3
    or Q4 fit, whose methods otherwise solve one after the other. An online
    Q4 fit and a one-method (Q2) fit keep one process. The split needs Linux,
    whose fork a process that has loaded numpy survives (macOS system
    libraries may not, and Windows has no fork); a second usable CPU for the
    child to run on; no thread besides the caller's, since a fork copies only
    the calling thread, and a lock another thread holds would stay held in
    the child; and enough work to repay the fork: fitted points x
    ``max_iter`` online, and ``_row_steps`` in batch, since a batch step
    reads every row.
    """
    if spec.descent.mode == "online":
        pays = (spec.variant == "Q3"
                and len(spec.fitted_indices) * spec.descent.max_iter >= _SPLIT_MIN_STEPS)
    else:
        pays = spec.variant != "Q2" and _row_steps(spec) >= _SPLIT_MIN_ROW_STEPS
    return (pays and sys.platform == "linux"
            and _usable_cpus() >= 2 and threading.active_count() == 1)


def _fit_child(spec: ExperimentSpec, traj: Trajectory, marginal: Marginal, pipe_fd: int):
    """The child's side of ``_fit_split``: fit "unconstrained" at every point,
    write its fits, or None when the fit raised, to ``pipe_fd``, and end the
    process; it never returns."""
    status = 1
    try:
        try:
            fits = dict(_fit_points(spec, traj, marginal, ["unconstrained"], baselines=False))
        except Exception:
            fits = None  # run_fit refits in one process, which raises the error
        with open(pipe_fd, "wb") as pipe:
            # the default protocol, 4: protocol 5 unpickles each weights array
            # as a view of a bytes object of its own, 40 KB more per fit of
            # online_extrap's 91 points, kept as long as the fits are
            pipe.write(pickle.dumps(fits))
        status = 0
    except Exception:
        # traceback, and signal in _fit_split, load where used: at module
        # level they add 0.8 ms to every start
        import traceback

        traceback.print_exc()  # the parent then reports that no result came
    finally:
        try:
            sys.stderr.flush()  # the child's warnings and traceback: _exit flushes nothing
        finally:
            os._exit(status)


def _fit_split(spec: ExperimentSpec, traj: Trajectory, marginal: Marginal,
               baselines: bool) -> Optional[dict]:
    """Fits by point: "unconstrained" in a forked child, "penalized" and the
    baselines here, each method on the streams it has in ``run_fit``'s
    single-process path; or None when either side raised an Exception, for
    ``run_fit`` to refit in one process. The child is reaped before this
    returns or raises, and killed first if this side fails or is interrupted,
    so a failing parent does not wait for the child's fit."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _fit_child(spec, traj, marginal, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            fits = dict(_fit_points(spec, traj, marginal, ["penalized"], baselines))
            data = pipe.read()
    except BaseException as exc:
        import signal

        os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, Exception):  # an interrupt: no refit
            raise
        return None
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("the process fitting the unconstrained method ended with no result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    child_fits = pickle.loads(data)
    if child_fits is None:
        return None
    for k, point in fits.items():
        child_fits[k].update(point)  # after "unconstrained": METHOD_ORDER
    return child_fits


def run_fit(spec: ExperimentSpec) -> FitResults:
    """Fit every method at every prediction point of the experiment.

    Each method owns its generators, so its weights do not depend on which
    methods run beside it, in one ``solve_lockstep`` call or another process.
    An online Q3 or a batch Q3/Q4 fit large enough to repay a fork
    (``_split_fit``) fits the unconstrained method in a child process while
    this one fits the rest. A split fit that fails is fitted again in one
    process, which raises the error a one-process fit raises: its class,
    message, attributes and cause.
    """
    traj = _simulate_training(spec)
    marginal = _fit_marginal(spec, traj)
    baselines = "kriging" in spec.methods
    fits = _fit_split(spec, traj, marginal, baselines) if _split_fit(spec) else None
    if fits is None:
        solver_methods = list(_objective_specs(spec, marginal))
        fits = dict(_fit_points(spec, traj, marginal, solver_methods, baselines))
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
    threads = checked("threads", int, threads)
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
