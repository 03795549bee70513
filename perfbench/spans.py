"""Span and counter tracing of tailcast, installed from outside the package.

The tracer replaces public functions with timing wrappers at the names where
callers look them up (``tailcast.harness.simulate``, not only
``tailcast.processes.simulate``), records one span per call with a link to
the span that was open when it started, and restores every original on
``restore``. Hot, tiny calls (marginal cdf/pdf, Predictor construction,
generator creation) are counted, not timed, to keep the overhead small.

Spans are kept in memory for one pass; ``layer_metrics`` folds them into
per-layer calls, busy seconds and self seconds (a span's duration minus the
part covered by its direct children). Traced passes run single-threaded.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import tailcast.cli
import tailcast.distributions
import tailcast.harness
import tailcast.objective
import tailcast.optimize
import tailcast.rng

STAGES = ("harness.run_fit", "harness.run_eval")


class Tracer:
    """Patches tailcast in place; ``full=False`` wraps only the two stages."""

    def __init__(self, full: bool):
        self.full = full
        self.spans = []  # (name, parent index or -1, start, end)
        self.stack = []
        self.counts = Counter()
        self.captured = {}  # span name -> (args, result) of its last call
        self._saved = []

    # --- patching ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, after=None, capture=False):
        fn = owner.__dict__[attr]
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        captured = self.captured

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (label, parent, t0, t1)
            if after is not None:
                after(args, result)
            if capture:
                captured[label] = (args, result)
            return result

        self._patch(owner, attr, wrapper)

    def _count(self, owner, attr, key):
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self):
        h, o, c = tailcast.harness, tailcast.optimize, tailcast.cli
        self._span(h, "run_fit", "harness.run_fit", capture=True)
        self._span(h, "run_eval", "harness.run_eval")
        if not self.full:
            return self
        counts = self.counts

        def count_steps(args, res):
            counts["optimize.steps"] += int(res.iterations)

        def count_bytes(args, res):
            counts["csvio.write_csv.bytes"] += os.path.getsize(args[0])

        self._span(c, "_load_config", "cli.load_config")
        self._span(c, "gini_empirical", "metrics.gini_empirical")
        self._span(h, "simulate", "processes.simulate")
        self._span(h, "extract_learning_samples", "objective.extract_learning_samples")
        self._span(h, "init_candidates", "optimize.init_candidates")
        self._span(h, "solve", "optimize.solve", after=count_steps)
        self._span(h, "objective_value", "objective.objective_value")
        self._span(o, "objective_value", "objective.objective_value")
        self._span(o, "subgradient", "objective.subgradient")
        self._span(o, "mean_subgradient",
                   lambda args: f"objective.mean_subgradient.{args[0].variant}")
        for attr in ("covariances_exp", "simple_kriging_weights", "exact_excursion_weights"):
            self._span(h, attr, "baselines")
        self._span(h, "wasserstein2_samples", "metrics.wasserstein2_samples")
        self._span(tailcast.distributions, "estimate", "distributions.estimate")
        self._span(h, "write_csv", "csvio.write_csv", after=count_bytes)
        self._count(tailcast.distributions.Marginal, "cdf", "distributions.cdf.calls")
        self._count(tailcast.distributions.Marginal, "pdf", "distributions.pdf.calls")
        self._count(tailcast.objective.Predictor, "__post_init__", "objective.Predictor.inits")
        self._count(tailcast.rng.RngStream, "generator", "rng.generator.calls")
        return self

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # --- aggregation ------------------------------------------------------

    def stage_seconds(self, name: str) -> float:
        return sum(t1 - t0 for label, _, t0, t1 in self.spans if label == name)

    def layer_metrics(self) -> dict:
        """Per-name calls, busy seconds and self seconds, plus the counters.

        A ``processes.simulate`` span is split into ``.train`` and ``.eval``
        by the stage it runs under, found through the parent links.
        """
        child = defaultdict(float)
        stage = []
        for label, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            stage.append(label if label in STAGES else (stage[parent] if parent >= 0 else None))
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for idx, (label, parent, t0, t1) in enumerate(self.spans):
            if label == "processes.simulate":
                label += ".train" if stage[idx] == "harness.run_fit" else ".eval"
            calls[label] += 1
            busy[label] += t1 - t0
            own[label] += t1 - t0 - child[idx]
        out = dict(self.counts)
        for label in calls:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.s"] = busy[label]
            out[f"{label}.self_s"] = own[label]
        return out
