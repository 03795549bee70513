"""A one-chain descent on a problem given as callables, for the tests.

``descend`` runs the engine's step loop, ``optimize._descend_chains``, on
one chain of a ``DescentProblem``, one step at a time whatever the window:
an online step draws its row with one scalar ``integers(0, count)`` call
and then calls ``row_grad``, a batch step calls ``mean_grad``. The optimize
tests run it on analytic objectives, ``test_descend_pins.py`` pins its
bits, and the lockstep tests hold every chain of ``solve_lockstep`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from tailcast.objective import Predictor
from tailcast.optimize import DescentConfig, SolveResult, _descend_chains
from tailcast.rng import as_generator


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


def descend(problem: DescentProblem, p0: Predictor, cfg: DescentConfig, rng) -> SolveResult:
    """Run the projected subgradient loop on one chain of ``problem``."""
    g = as_generator(rng)

    def step(W):
        p = p0.with_weights(W[0])
        if cfg.mode == "batch":
            return np.asarray(problem.mean_grad(p, g), dtype=float)
        j = int(g.integers(0, problem.count))
        return np.asarray(problem.row_grad(p, j, g), dtype=float)

    return _descend_chains(lambda active, steps: step, [problem.value], [p0], cfg, [g])[0]
