"""Projected subgradient descent over predictor weights.

Two modes: batch (one step along the mean subgradient) and online (one step
along a single uniformly drawn row's subgradient). Steps follow the schedule
eta_l = a * (b + l)^(-beta); online mode requires 0.5 < beta <= 1 so the
steps are square-summable but not summable. Selection of the returned
iterate is by last iterate, Polyak-Ruppert averaging past a burn-in, or the
traced iterate with the smallest full objective.

One loop, ``_descend_chains``, steps K chains together; each chain keeps its
own generator, projection, ``tol`` stop, trace and selection. ``descend``
runs it on one chain of a ``DescentProblem`` (value / row_grad / mean_grad
callables), so it can be exercised on analytic objectives.
``solve_lockstep`` runs several online Q2/Q3 solves on the same rows
through it, one packed ``RowSubgradients`` call per step, with the results
``descend`` gives each alone; each chain draws the rows of one trace stride
in one generator call. ``solve`` wires in the statistical functionals from
:mod:`tailcast.objective`: online Q2/Q3 go to ``solve_lockstep``, batch
mode and Q4 to ``descend``. Traces and starting candidates are scored by an
``ObjectiveValues`` bound to the sample set, which computes F(y) once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergedToNonFinite, DomainError, NonFiniteInput
from .objective import (  # noqa: F401  objective_value: perfbench/spans.py wraps it here
    LearningSamples,
    ObjectiveSpec,
    ObjectiveValues,
    Predictor,
    RowSubgradients,
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
    "solve_lockstep",
    "write_trace_csv",
]

MODES = ("batch", "online")
COLD_STARTS = ("unit", "simplex")  # init strategies that need no previous solution
SELECTIONS = ("last", "polyak", "best")
CONSTRAINTS = ("unconstrained", "nonneg", "ball")
_BLOCK_STEPS = 1024  # most steps whose rows a lockstep chain draws ahead


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
            raise DomainError(f"mode must be one of {MODES}", key="mode")
        if self.selection not in SELECTIONS:
            raise DomainError(f"selection must be one of {SELECTIONS}", key="selection")
        if self.constraint not in CONSTRAINTS:
            raise DomainError(f"constraint must be one of {CONSTRAINTS}", key="constraint")
        if not (self.a > 0 and np.isfinite(self.a)):
            raise DomainError("step scale a must be positive", key="a")
        if not (self.b >= 0 and np.isfinite(self.b)):
            raise DomainError("step offset b must be >= 0", key="b")
        if self.mode == "online" and not (0.5 < self.beta <= 1.0):
            raise DomainError("online mode needs 0.5 < beta <= 1", key="beta")
        if self.beta <= 0:
            raise DomainError("beta must be positive", key="beta")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1", key="max_iter")
        if not self.tol >= 0:  # NaN too
            raise DomainError("tol must be >= 0", key="tol")
        if not (0 <= self.burn_in < self.max_iter):
            raise DomainError("burn_in must lie in [0, max_iter)", key="burn_in")
        if self.constraint == "ball" and not (self.radius > 0):
            raise DomainError("ball constraint needs radius > 0", key="radius")
        if self.trace_stride < 1:
            raise DomainError("trace_stride must be >= 1", key="trace_stride")

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
    def row_grad(p, j, rng):
        return subgradient(spec, p, samples, j)

    def mean_grad(p, rng):
        return mean_subgradient(spec, p, samples, rng=rng)

    return DescentProblem(samples.count, ObjectiveValues(spec, samples), row_grad, mean_grad)


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
    value = ObjectiveValues(spec, samples)
    g_eval = as_generator(rng) if rng is not None else None
    scored = []
    for w in cands:
        scored.append((value(Predictor(kind, w), g_eval), w))
    scored.sort(key=lambda t: t[0])
    return [w for _, w in scored]


class _Trace:
    """The traced objective values and best traced iterate of descent chain
    ``chain``, and the iterate its selection rule returns. An error raised
    while evaluating carries the chain's index in ``chain``."""

    def __init__(self, chain, value, p0, rng, lam):
        self.chain, self.value, self.p0, self.rng = chain, value, p0, rng
        self.iters, self.vals, self.lams = [], [], []
        self.best_val, self.best_lam = np.inf, lam.copy()
        self.record(0, lam)

    def record(self, l, current):
        try:
            val = float(self.value(self.p0.with_weights(current), self.rng))
        except (ValueError, RuntimeError) as exc:
            exc.chain = self.chain
            raise
        self.iters.append(l)
        self.vals.append(val)
        self.lams.append(current.copy())
        if val < self.best_val:
            self.best_val, self.best_lam = val, current.copy()

    def result(self, cfg, lam, avg_sum, avg_count, steps, seconds) -> SolveResult:
        if cfg.selection == "last":
            chosen = lam
        elif cfg.selection == "polyak":
            chosen = avg_sum / avg_count if avg_count > 0 else lam
        else:
            chosen = self.best_lam
        return SolveResult(
            weights=np.array(chosen, dtype=float),
            objective_trace=np.array(self.vals),
            trace_iterations=np.array(self.iters, dtype=int),
            trace_weights=np.array(self.lams),
            iterations=steps,
            selection=cfg.selection,
            seconds=seconds,
        )


def _descend_chains(grads, values, starts, cfg: DescentConfig, gens) -> list:
    """The projected subgradient loop, stepping K chains together.

    Chain c starts from ``starts[c]`` and traces ``values[c](p, gens[c])``.
    ``grads(W, active, l)`` returns the step-``l`` subgradients at the
    iterate rows W of the running chains ``active`` (row i is chain
    ``active[i]``), each drawing its rows from its own generator. A step
    takes one step size, one update of W and one finiteness check; the
    projection, the ``tol`` stop, the trace and the selection are per chain,
    and a chain that stops draws nothing more. Result c's ``seconds`` is the wall time until chain
    c stopped. An error raised for one chain carries its index in ``chain``.
    """
    t_start = time.perf_counter()
    W = np.array([project(cfg.constraint, np.array(p.weights, dtype=float), cfg.radius)
                  for p in starts])
    traces = [_Trace(c, value, p0, g, W[c])
              for c, (value, p0, g) in enumerate(zip(values, starts, gens))]
    polyak, constrained = cfg.selection == "polyak", cfg.constraint != "unconstrained"
    results = [None] * len(starts)
    active = list(range(len(starts)))
    avg_sum, avg_count = np.zeros_like(W), 0
    l = 0
    while active:
        if polyak and l >= cfg.burn_in:
            avg_sum += W
            avg_count += 1
        new = W - cfg.step(l) * grads(W, active, l)
        if constrained:
            for i in range(len(active)):
                new[i] = project(cfg.constraint, new[i], cfg.radius)
        if not np.isfinite(new).all():
            i = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
            exc = DivergedToNonFinite(f"non-finite iterate at step {l}", last_iterate=W[i].copy())
            exc.chain = active[i]
            raise exc
        stopped = []
        if cfg.tol > 0:
            stopped = [i for i in range(len(active))
                       if float(np.linalg.norm(new[i] - W[i])) < cfg.tol]
        W = new
        l += 1
        if l % cfg.trace_stride == 0 or l == cfg.max_iter:
            for i, c in enumerate(active):
                traces[c].record(l, W[i])
        if l == cfg.max_iter:
            stopped = range(len(active))
        for i in stopped:
            c = active[i]
            if traces[c].iters[-1] != l:
                traces[c].record(l, W[i])
            results[c] = traces[c].result(cfg, W[i], avg_sum[i], avg_count, l,
                                          time.perf_counter() - t_start)
        if stopped:
            keep = [i for i, c in enumerate(active) if results[c] is None]
            active = [active[i] for i in keep]
            W, avg_sum = W[keep], avg_sum[keep]
    return results


def descend(problem: DescentProblem, p0: Predictor, cfg: DescentConfig, rng) -> SolveResult:
    """Run the projected subgradient loop on an arbitrary problem."""
    g = as_generator(rng)

    def grads(W, active, l):
        p = p0.with_weights(W[0])
        if cfg.mode == "batch":
            return np.asarray(problem.mean_grad(p, g), dtype=float)
        j = int(g.integers(0, problem.count))
        return np.asarray(problem.row_grad(p, j, g), dtype=float)

    return _descend_chains(grads, [problem.value], [p0], cfg, [g])[0]


def solve(spec: ObjectiveSpec, samples: LearningSamples, p0: Predictor,
          cfg: DescentConfig, rng) -> SolveResult:
    """Minimize the chosen empirical functional starting from p0.

    Online Q2/Q3 runs as a one-chain ``solve_lockstep``, everything else
    through ``descend``; both step through the same loop.
    """
    if cfg.mode == "online" and spec.variant != "Q4":
        return solve_lockstep([spec], samples, [p0], cfg, [rng])[0]
    return descend(_spec_problem(spec, samples), p0, cfg, rng)


def solve_lockstep(specs, samples: LearningSamples, starts, cfg: DescentConfig, rngs) -> list:
    """Online solves of Q2/Q3 functionals on the same rows, stepped together.

    Result c equals ``descend`` stepping chain c alone along
    ``subgradient`` bit for bit, ``seconds`` aside. Every chain draws its
    row j, and a Q3 chain then its bootstrap row b, from its own generator,
    and the subgradients of all running chains come from one
    ``RowSubgradients`` call per step. A chain draws the rows of every step
    up to its next trace record (at most ``_BLOCK_STEPS`` steps) in one
    ``integers(0, N, size=...)`` call, j, b, j, b, ... for Q3: a block draw
    gives the values, and leaves the generator state, of as many scalar
    draws. Under ``tol > 0`` a chain may stop, and trace, after any step,
    so the block is one step long. The specs share one marginal and the
    starts one form. An error raised for one chain carries its index in
    ``chain``.
    """
    if cfg.mode != "online":
        raise DomainError("the lockstep engine runs online descent only")
    if not (len(specs) == len(starts) == len(rngs) >= 1):
        raise DomainError("need one spec, start and rng per chain")
    if any(p.kind != starts[0].kind for p in starts):
        raise DomainError("lockstep chains must share the predictor form")
    kernel, packed = RowSubgradients(specs, samples, starts[0]), list(range(len(specs)))
    gens = [as_generator(r) for r in rngs]
    draws = [2 if spec.variant == "Q3" else 1 for spec in specs]  # rows per step
    rows, left = {}, 0  # each running chain's drawn rows; steps they still cover

    def grads(W, active, l):
        nonlocal kernel, packed, rows, left
        if active != packed:  # a chain stopped: pack the rest
            kernel = RowSubgradients([specs[c] for c in active], samples, starts[0])
            packed = active
        if not left:
            left = 1 if cfg.tol > 0 else min(cfg.trace_stride - l % cfg.trace_stride,
                                             cfg.max_iter - l, _BLOCK_STEPS)
            rows = {c: iter(gens[c].integers(0, samples.count, size=left * draws[c]).tolist())
                    for c in active}
        left -= 1
        js = [next(rows[c]) for c in active]
        bs = [next(rows[c]) for c in active if draws[c] == 2]
        try:
            return kernel(W, js, bs)
        except NonFiniteInput as exc:
            exc.chain = active[exc.chain]
            raise

    values = [ObjectiveValues(spec, samples) for spec in specs]
    return _descend_chains(grads, values, starts, cfg, gens)


def write_trace_csv(path, result: SolveResult) -> None:
    from .csvio import write_csv

    n = result.trace_weights.shape[1]
    header = ["iter", "objective"] + [f"lambda_{i + 1}" for i in range(n)]
    rows = []
    for k in range(result.trace_iterations.size):
        rows.append([int(result.trace_iterations[k]), result.objective_trace[k]]
                    + list(result.trace_weights[k]))
    write_csv(path, header, rows)
