"""Projected subgradient descent over predictor weights.

Two modes: batch (one step along the mean subgradient) and online (one step
along a single uniformly drawn row's subgradient). Steps follow the schedule
eta_l = a * (b + l)^(-beta); online mode requires 0.5 < beta <= 1 so the
steps are square-summable but not summable. Selection of the returned
iterate is by last iterate, Polyak-Ruppert averaging past a burn-in, or the
traced iterate with the smallest full objective.

One engine, ``solve_lockstep``, runs every solve through one loop,
``_descend_chains``: it steps K chains on the same rows together, each with
its own functional, start, generator, projection, ``tol`` stop, trace and
selection, and gives each chain the bits it gets alone. It runs one trace
window at a time: the rows of the window's steps are drawn and gathered
before its first step, and its steps run in a tight inner loop. The mode
and the variant only choose how a chain's step subgradient is formed:
``mean_subgradient`` in batch mode, one packed ``RowSubgradients`` step for
the online Q2/Q3 chains, ``subgradient`` for an online Q4 chain. No solve
starts a thread. ``solve`` is its one-chain call. Traces and starting
candidates are scored by an ``ObjectiveValues`` bound to the sample set,
which computes F(y) once.
"""

from __future__ import annotations

import math
import reprlib
import time
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import DivergedToNonFinite, DomainError, NonFiniteInput, check_fields
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
    "project",
    "init_candidates",
    "solve",
    "solve_lockstep",
    "write_trace_csv",
]

Mode = Literal["batch", "online"]
ColdStart = Literal["unit", "simplex"]  # init strategies that need no previous solution
Selection = Literal["last", "polyak", "best"]
Constraint = Literal["unconstrained", "nonneg", "ball"]
COLD_STARTS = get_args(ColdStart)
CONSTRAINTS = get_args(Constraint)
_BLOCK_STEPS = 1024  # most steps in one window, whose rows a lockstep chain draws ahead


@dataclass(frozen=True)
class DescentConfig:
    """Step schedule, budget, stopping rule, selection and constraint set."""

    mode: Mode = "online"
    a: float = 10.0
    b: float = 10.0
    beta: float = 0.7
    max_iter: int = 300  # a float budget never runs out
    tol: float = 0.0
    burn_in: int = 0
    selection: Selection = "best"
    constraint: Constraint = "unconstrained"
    radius: float = 1.0
    trace_stride: int = 10

    def __post_init__(self):
        check_fields(self)
        if not (self.a > 0 and np.isfinite(self.a)):
            raise DomainError("step scale a must be positive", key="a")
        if not (self.b > 0 and np.isfinite(self.b)):  # step(0) divides by b ** beta
            raise DomainError("step offset b must be positive", key="b")
        if self.mode == "online" and not (0.5 < self.beta <= 1.0):
            raise DomainError("online mode needs 0.5 < beta <= 1", key="beta")
        if not (self.beta > 0 and np.isfinite(self.beta)):  # NaN too
            raise DomainError("beta must be positive and finite", key="beta")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1", key="max_iter")
        if not (self.tol >= 0 and math.isfinite(self.tol)):  # NaN too; inf stops every chain at once
            raise DomainError("tol must be finite and >= 0", key="tol")
        if not (0 <= self.burn_in < self.max_iter):
            raise DomainError("burn_in must lie in [0, max_iter)", key="burn_in")
        if not self.radius > 0:  # NaN too, which the manifest would not reload as equal
            raise DomainError("radius must be > 0", key="radius")
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


def init_candidates(samples: LearningSamples, spec: ObjectiveSpec, strategy: str,
                    kind: str = "linear", count: int = 8, warm=None, rng=None) -> list:
    """Starting weight vectors, sorted by objective value, best first.

    strategy: "unit" (coordinate vectors), "simplex" (count random points
    with nonnegative entries summing to one), "warm" (the provided previous
    solution verbatim, plus unit vectors as fallbacks).
    """
    # one generator serves the simplex draws and then the Q3 scoring bootstraps;
    # simplex without an rng raises here
    g = as_generator(rng) if rng is not None or strategy == "simplex" else None
    n = samples.n
    if strategy == "unit":
        cands = [np.eye(n)[j] for j in range(n)]
    elif strategy == "simplex":
        if not count >= 1:  # every caller starts from the best candidate, [0]
            raise DomainError(f"simplex count must be >= 1, got {reprlib.repr(count)}")
        cands = [g.dirichlet(np.ones(n)) for _ in range(int(count))]
    elif strategy == "warm":
        if warm is None:
            raise DomainError("warm strategy needs a previous weight vector")
        cands = [np.asarray(warm, dtype=float).copy()] + [np.eye(n)[j] for j in range(n)]
    else:
        raise DomainError(f"strategy must be one of {COLD_STARTS + ('warm',)}")
    value = ObjectiveValues(spec, samples)
    scored = []
    for w in cands:
        scored.append((value(Predictor(kind, w), g), w))
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
    The loop runs window by window. A window is the steps up to the next
    trace record, at most ``_BLOCK_STEPS`` of them; under ``tol > 0``, where
    a chain may stop after any step, it is one step. No chain stops inside
    a window. ``grads(active, steps)`` returns the step function of the
    running chains ``active`` for the next window, of ``steps`` steps: its
    i-th call at the iterate rows W (row k is chain ``active[k]``) returns
    the subgradients of the window's i-th step, each chain drawing its rows
    from its own generator. An error it raises carries in ``chain`` the row
    of the chain it came from. A step takes one step size, one update of W
    and one finiteness check; the projection, the ``tol`` stop, the trace
    and the selection are per chain, and a chain that stops draws nothing
    more. Result c's ``seconds`` is the wall time until chain c stopped. An
    error raised for one chain carries its index in ``chain``.
    """
    t_start = time.perf_counter()
    W = np.array([project(cfg.constraint, np.array(p.weights, dtype=float), cfg.radius)
                  for p in starts])
    traces = [_Trace(c, value, p0, g, W[c])
              for c, (value, p0, g) in enumerate(zip(values, starts, gens))]
    a, b, decay = cfg.a, cfg.b, -cfg.beta  # cfg.step(l) is a * (b + l) ** decay
    stride, max_iter, tol, burn_in = cfg.trace_stride, cfg.max_iter, cfg.tol, cfg.burn_in
    constraint, radius = cfg.constraint, cfg.radius
    polyak, constrained = cfg.selection == "polyak", constraint != "unconstrained"
    results = [None] * len(starts)
    active = list(range(len(starts)))
    avg_sum, avg_count = np.zeros_like(W), 0
    l = 0
    while active:
        end = l + 1 if tol > 0 else min(l + stride - l % stride, max_iter, l + _BLOCK_STEPS)
        step = grads(active, end - l)
        try:
            for l in range(l, end):
                if polyak and l >= burn_in:
                    avg_sum += W
                    avg_count += 1
                new = W - a * (b + l) ** decay * step(W)
                if constrained:
                    for i in range(len(active)):
                        new[i] = project(constraint, new[i], radius)
                # a sum of finite entries may overflow: then look at each
                if not math.isfinite(sum(new.ravel().tolist())) and not np.isfinite(new).all():
                    i = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
                    exc = DivergedToNonFinite(f"non-finite iterate at step {l}",
                                              last_iterate=W[i].copy())
                    exc.chain = i
                    raise exc
                last, W = W, new
        except (ValueError, RuntimeError) as exc:
            exc.chain = active[getattr(exc, "chain", 0)]
            raise
        l = end
        if l % stride == 0 or l == max_iter:
            for i, c in enumerate(active):
                traces[c].record(l, W[i])
        if l == max_iter:
            stopped = range(len(active))
        elif tol > 0:  # the window was one step
            stopped = [i for i in range(len(active))
                       if float(np.linalg.norm(W[i] - last[i])) < tol]
        else:
            stopped = []
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


def solve(spec: ObjectiveSpec, samples: LearningSamples, p0: Predictor,
          cfg: DescentConfig, rng) -> SolveResult:
    """Minimize the chosen empirical functional starting from p0: a one-chain
    ``solve_lockstep``."""
    return solve_lockstep([spec], samples, [p0], cfg, [rng])[0]


def solve_lockstep(specs, samples: LearningSamples, starts, cfg: DescentConfig, rngs) -> list:
    """Solves of several functionals on the same rows, stepped together.

    Chain c minimizes ``specs[c]`` from ``starts[c]`` with generator
    ``rngs[c]``, and result c has the bits, ``seconds`` aside, of chain c
    solved alone, whatever the other chains' variants. A batch chain
    steps along ``mean_subgradient``. An online chain draws its row j, and a
    Q3 chain then its bootstrap row b; the running online Q2/Q3 chains get
    their subgradients from one ``RowSubgradients`` step per step, an online
    Q4 chain from ``subgradient``. An online chain draws the rows of every
    step of a window (``_descend_chains``) in one ``integers(0, N,
    size=...)`` call, j, b, j, b, ... for Q3: a block draw gives the
    values, and leaves the generator state, of as many scalar draws. The
    starts share one form and the online Q2/Q3 specs one marginal. An error
    raised for one chain carries its index in ``chain``.
    """
    if not (len(specs) == len(starts) == len(rngs) >= 1):
        raise DomainError("need one spec, start and rng per chain")
    if any(p.kind != starts[0].kind for p in starts):
        raise DomainError("lockstep chains must share the predictor form")
    gens = [as_generator(r) for r in rngs]
    online = cfg.mode == "online"
    count = samples.count
    draws = [2 if spec.variant == "Q3" else 1 for spec in specs]  # rows per online step
    running = packed = others = kernel = slots = firsts = None

    def window(active, steps):
        nonlocal running, packed, others, kernel, slots, firsts
        if active != running:  # first window, or a chain stopped: split the running chains
            running = active
            packed = [i for i, c in enumerate(active) if online and specs[c].variant != "Q4"]
            others = [i for i in range(len(active)) if i not in packed]
            kernel = (RowSubgradients([specs[active[i]] for i in packed], samples, starts[0])
                      if packed else None)
            # a window's drawn rows per step: row j, then b for Q3, of every running
            # chain in turn; the kernel's slots are j of each, j of each Q3 again, b of each Q3
            firsts = np.cumsum([0] + [draws[c] for c in active]).tolist()
            q3 = [firsts[i] for i in packed if draws[active[i]] == 2]
            slots = np.array([firsts[i] for i in packed] + q3 + [f + 1 for f in q3])
        if online:  # one row per step
            drawn = [gens[c].integers(0, count, size=steps * draws[c]).reshape(steps, -1)
                     for c in active]
            drawn = np.concatenate(drawn, axis=1) if len(drawn) > 1 else drawn[0]
        if packed:
            kstep = kernel.window(drawn.take(slots, axis=1))
            if not others:  # online Q2/Q3 chains only: the kernel's step as it is
                return kstep
        js = {i: drawn[:, firsts[i]].tolist() for i in others} if online else None
        s = iter(range(steps))

        def step(W):
            t = next(s)
            G = np.empty_like(W)
            if packed:
                try:
                    G[packed] = kstep(W[packed])
                except NonFiniteInput as exc:
                    exc.chain = packed[exc.chain]
                    raise
            for i in others:
                c = active[i]
                p = starts[c].with_weights(W[i])
                try:
                    G[i] = (subgradient(specs[c], p, samples, js[i][t]) if online
                            else mean_subgradient(specs[c], p, samples, rng=gens[c]))
                except (ValueError, RuntimeError) as exc:
                    exc.chain = i
                    raise
            return G

        return step

    values = [ObjectiveValues(spec, samples) for spec in specs]
    return _descend_chains(window, values, starts, cfg, gens)


def write_trace_csv(path, result: SolveResult) -> None:
    from .csvio import write_csv

    n = result.trace_weights.shape[1]
    header = ["iter", "objective"] + [f"lambda_{i + 1}" for i in range(n)]
    rows = []
    for k in range(result.trace_iterations.size):
        rows.append([int(result.trace_iterations[k]), result.objective_trace[k]]
                    + list(result.trace_weights[k]))
    write_csv(path, header, rows)
