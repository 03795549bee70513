"""Projected subgradient descent over predictor weights.

Two modes: batch (one step along the mean subgradient) and online (one step
along a single uniformly drawn row's subgradient). Steps follow the schedule
eta_l = a * (b + l)^(-beta); online mode requires 0.5 < beta <= 1 so the
steps are square-summable but not summable. Selection of the returned
iterate is by last iterate, Polyak-Ruppert averaging past a burn-in, or the
traced iterate with the smallest full objective.

The loop itself is exposed through ``descend`` acting on a ``DescentProblem``
(value / row_grad / mean_grad callables), so it can be exercised on analytic
objectives; ``solve`` wires in the statistical functionals from
:mod:`tailcast.objective`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergedToNonFinite, DomainError
from .objective import (
    LearningSamples,
    ObjectiveSpec,
    Predictor,
    mean_subgradient,
    objective_value,
    subgradient,
)
from .rng import as_generator

__all__ = [
    "DescentConfig",
    "SolveResult",
    "DescentProblem",
    "project",
    "init_candidates",
    "descend",
    "solve",
    "write_trace_csv",
]

MODES = ("batch", "online")
COLD_STARTS = ("unit", "simplex")  # init strategies that need no previous solution
SELECTIONS = ("last", "polyak", "best")
CONSTRAINTS = ("unconstrained", "nonneg", "ball")


@dataclass(frozen=True)
class DescentConfig:
    """Step schedule, budget, stopping rule, selection and constraint set."""

    mode: str = "online"
    a: float = 10.0
    b: float = 10.0
    beta: float = 0.7
    max_iter: int = 300
    tol: float = 0.0
    burn_in: int = 0
    selection: str = "best"
    constraint: str = "unconstrained"
    radius: float = 1.0
    trace_stride: int = 10

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}")
        if self.selection not in SELECTIONS:
            raise DomainError(f"selection must be one of {SELECTIONS}")
        if self.constraint not in CONSTRAINTS:
            raise DomainError(f"constraint must be one of {CONSTRAINTS}")
        if not (self.a > 0 and np.isfinite(self.a)):
            raise DomainError("step scale a must be positive")
        if not (self.b >= 0 and np.isfinite(self.b)):
            raise DomainError("step offset b must be >= 0")
        if self.mode == "online" and not (0.5 < self.beta <= 1.0):
            raise DomainError("online mode needs 0.5 < beta <= 1")
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.tol < 0:
            raise DomainError("tol must be >= 0")
        if not (0 <= self.burn_in < self.max_iter):
            raise DomainError("burn_in must lie in [0, max_iter)")
        if self.constraint == "ball" and not (self.radius > 0):
            raise DomainError("ball constraint needs radius > 0")
        if self.trace_stride < 1:
            raise DomainError("trace_stride must be >= 1")

    def step(self, l: int) -> float:
        return self.a * (self.b + l) ** (-self.beta)


@dataclass(frozen=True)
class SolveResult:
    weights: np.ndarray
    objective_trace: np.ndarray
    trace_iterations: np.ndarray
    trace_weights: np.ndarray
    iterations: int
    selection: str
    seconds: float


@dataclass(frozen=True)
class DescentProblem:
    """Objective seam for the descent loop.

    count: number of rows the online mode samples from.
    value(p, rng): full objective at predictor p.
    row_grad(p, j, rng): subgradient of row j's term.
    mean_grad(p, rng): subgradient of the mean term.
    """

    count: int
    value: Callable
    row_grad: Callable
    mean_grad: Callable


def project(constraint: str, lam, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto the constraint set."""
    lam = np.asarray(lam, dtype=float)
    if constraint == "unconstrained":
        return lam
    if constraint == "nonneg":
        return np.maximum(lam, 0.0)
    if constraint == "ball":
        norm = float(np.linalg.norm(lam))
        if norm > radius:
            return lam * (radius / norm)
        return lam
    raise DomainError(f"constraint must be one of {CONSTRAINTS}")


def _spec_problem(spec: ObjectiveSpec, samples: LearningSamples) -> DescentProblem:
    def value(p, rng):
        return objective_value(spec, p, samples, rng=rng)

    def row_grad(p, j, rng):
        b = int(rng.integers(0, samples.count)) if spec.variant == "Q3" else None
        return subgradient(spec, p, samples, j, bootstrap_index=b)

    def mean_grad(p, rng):
        return mean_subgradient(spec, p, samples, rng=rng)

    return DescentProblem(samples.count, value, row_grad, mean_grad)


def init_candidates(samples: LearningSamples, spec: ObjectiveSpec, strategy: str,
                    kind: str = "linear", count: int = 8, warm=None, rng=None) -> list:
    """Starting weight vectors, sorted by objective value, best first.

    strategy: "unit" (coordinate vectors), "simplex" (count random points
    with nonnegative entries summing to one), "warm" (the provided previous
    solution verbatim, plus unit vectors as fallbacks).
    """
    n = samples.n
    if strategy == "unit":
        cands = [np.eye(n)[j] for j in range(n)]
    elif strategy == "simplex":
        g = as_generator(rng)
        cands = [g.dirichlet(np.ones(n)) for _ in range(int(count))]
    elif strategy == "warm":
        if warm is None:
            raise DomainError("warm strategy needs a previous weight vector")
        cands = [np.asarray(warm, dtype=float).copy()] + [np.eye(n)[j] for j in range(n)]
    else:
        raise DomainError(f"strategy must be one of {COLD_STARTS + ('warm',)}")
    g_eval = as_generator(rng) if rng is not None else None
    scored = []
    for w in cands:
        val = objective_value(spec, Predictor(kind, w), samples, rng=g_eval)
        scored.append((val, w))
    scored.sort(key=lambda t: t[0])
    return [w for _, w in scored]


def descend(problem: DescentProblem, p0: Predictor, cfg: DescentConfig, rng) -> SolveResult:
    """Run the projected subgradient loop on an arbitrary problem."""
    g = as_generator(rng)
    t_start = time.perf_counter()
    lam = project(cfg.constraint, np.array(p0.weights, dtype=float), cfg.radius)
    trace_iters, trace_vals, trace_lams = [], [], []
    best_val, best_lam = np.inf, lam.copy()
    avg_sum, avg_count = np.zeros_like(lam), 0

    def record(l, current):
        nonlocal best_val, best_lam
        val = float(problem.value(p0.with_weights(current), g))
        trace_iters.append(l)
        trace_vals.append(val)
        trace_lams.append(current.copy())
        if val < best_val:
            best_val, best_lam = val, current.copy()

    record(0, lam)
    steps = 0
    for l in range(cfg.max_iter):
        if l >= cfg.burn_in:
            avg_sum += lam
            avg_count += 1
        p = p0.with_weights(lam)
        if cfg.mode == "batch":
            grad = problem.mean_grad(p, g)
        else:
            j = int(g.integers(0, problem.count))
            grad = problem.row_grad(p, j, g)
        new = project(cfg.constraint, lam - cfg.step(l) * np.asarray(grad, dtype=float), cfg.radius)
        if not np.all(np.isfinite(new)):
            raise DivergedToNonFinite(f"non-finite iterate at step {l}", last_iterate=lam.copy())
        stop = cfg.tol > 0 and float(np.linalg.norm(new - lam)) < cfg.tol
        lam = new
        steps = l + 1
        if steps % cfg.trace_stride == 0 or steps == cfg.max_iter:
            record(steps, lam)
        if stop:
            if trace_iters[-1] != steps:
                record(steps, lam)
            break

    if cfg.selection == "last":
        chosen = lam
    elif cfg.selection == "polyak":
        chosen = avg_sum / avg_count if avg_count > 0 else lam
    else:
        chosen = best_lam
    seconds = time.perf_counter() - t_start
    return SolveResult(
        weights=np.asarray(chosen, dtype=float),
        objective_trace=np.array(trace_vals),
        trace_iterations=np.array(trace_iters, dtype=int),
        trace_weights=np.array(trace_lams),
        iterations=steps,
        selection=cfg.selection,
        seconds=seconds,
    )


def solve(spec: ObjectiveSpec, samples: LearningSamples, p0: Predictor,
          cfg: DescentConfig, rng) -> SolveResult:
    """Minimize the chosen empirical functional starting from p0."""
    return descend(_spec_problem(spec, samples), p0, cfg, rng)


def write_trace_csv(path, result: SolveResult) -> None:
    from .csvio import write_csv

    n = result.trace_weights.shape[1]
    header = ["iter", "objective"] + [f"lambda_{i + 1}" for i in range(n)]
    rows = []
    for k in range(result.trace_iterations.size):
        rows.append([int(result.trace_iterations[k]), result.objective_trace[k]]
                    + list(result.trace_weights[k]))
    write_csv(path, header, rows)
