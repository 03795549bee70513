"""The benchmark's tracer (perfbench/spans.py) still sees every layer it reports.

The tracer patches functions at the names where callers look them up, so a
refactor that calls around one of those names silently zeroes a per-layer
metric. Every descent runs the one engine of ``optimize``,
``solve_lockstep``; one-point fits of one method at a time (online Q4 and
batch Q3) reach it through ``harness.solve`` and step along
``optimize.subgradient`` or ``optimize.mean_subgradient``, so they must
reach every hook. Online Q2/Q3 chains step through the engine's packed row
kernel, which the tracer does not wrap: it sees their trace evaluations,
and their steps only where ``run_fit`` reaches them through ``solve``.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

import tailcast.distributions
import tailcast.harness
import tailcast.objective
import tailcast.optimize
from tailcast.optimize import DescentConfig
from tailcast.processes import GaussExpCov

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

HOOKED = [
    (tailcast.harness, "run_fit"),
    (tailcast.harness, "simulate"),
    (tailcast.harness, "extract_learning_samples"),
    (tailcast.harness, "init_candidates"),
    (tailcast.harness, "solve"),
    (tailcast.optimize, "subgradient"),
    (tailcast.optimize, "mean_subgradient"),
    (tailcast.optimize, "objective_value"),
    (tailcast.distributions.Marginal, "cdf"),
    (tailcast.distributions.Marginal, "pdf"),
    (tailcast.objective.Predictor, "__post_init__"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def one_point_spec(variant="Q4"):
    return tailcast.harness.ExperimentSpec(
        name="hooks", process=GaussExpCov(), h=0.1, window=(0.0, 9.9),
        forecast_offsets=(10.0, 10.2), prediction_interval=(10.3, 10.3),
        variant=variant, descent=DescentConfig(mode="online", max_iter=20), seed=7)


def test_tracer_reaches_every_hook_and_restores():
    spec = one_point_spec()
    originals = [owner.__dict__[attr] for owner, attr in HOOKED]
    tracer = load_tracer()(full=True)
    with tracer:
        tailcast.harness.run_fit(spec)
        tailcast.harness.run_fit(replace(spec, variant="Q3",
                                         descent=DescentConfig(mode="batch", max_iter=20)))
    metrics = tracer.layer_metrics()
    for name in ("processes.simulate.train.calls", "objective.extract_learning_samples.calls",
                 "objective.subgradient.calls", "objective.mean_subgradient.Q3.calls",
                 "objective.objective_value.calls", "optimize.solve.calls",
                 "optimize.init_candidates.calls", "distributions.cdf.calls",
                 "distributions.pdf.calls", "objective.Predictor.inits"):
        assert metrics.get(name, 0) > 0, name
    assert [owner.__dict__[attr] for owner, attr in HOOKED] == originals


def test_every_online_step_reaches_the_subgradient_hook():
    """Each online step of the Q4 chain, which steps along ``subgradient``,
    is one hook call; the Q2 chain's steps (the packed row kernel of a
    one-chain ``solve``) are counted by ``optimize.steps`` but call no hook."""
    tracer = load_tracer()(full=True)
    with tracer:
        fits = tailcast.harness.run_fit(one_point_spec())
    metrics = tracer.layer_metrics()
    q4_steps = fits.fits[103]["penalized"].iterations
    assert q4_steps > 0
    assert metrics["objective.subgradient.calls"] == q4_steps
    assert metrics["optimize.steps"] == q4_steps + fits.fits[103]["unconstrained"].iterations
    # the descent loops build no validated Predictor per step
    assert metrics["objective.Predictor.inits"] < metrics["optimize.steps"]


def test_traced_lockstep_fit_is_unchanged():
    spec = one_point_spec("Q3")
    plain = tailcast.harness.run_fit(spec)
    tracer = load_tracer()(full=True)
    with tracer:
        traced = tailcast.harness.run_fit(spec)
    for method, pf in plain.fits[103].items():
        assert np.array_equal(traced.fits[103][method].weights, pf.weights)
