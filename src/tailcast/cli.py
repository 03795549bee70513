"""Command-line front end.

Subcommands: simulate (training trajectory CSV), fit (per-point weights CSV),
evaluate (fit + Monte Carlo metric CSV), benchmark (one timed solve),
demo-metrics (Gini values on synthetic pairs). Every run that writes files
also writes manifest.json (config echo + seed + package versions) into the
output directory. Exit codes: 0 success, 2 configuration problem, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from typing import Annotated

import numpy as np

from . import harness
from .errors import UINT64, ConfigError, DomainError, at_least, between, checked
from .metrics import PairedSample, gini_empirical
from .processes import write_trajectory_csv
from .rng import RngStream

PRESETS = ("gauss_interp", "gauss_extrap", "cauchy_interp", "cauchy_extrap",
           "levy_interp", "levy_extrap", "ar3")


def _load_config(path: str) -> harness.ExperimentSpec:
    name = path[:-5] if path.endswith(".json") else path
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{path} is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError, RecursionError) as exc:
            # a directory, bytes that are not UTF-8, or nesting past the decoder's depth
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
    elif name in PRESETS:
        text = resources.files("tailcast").joinpath(f"presets/{name}.json").read_text()
        raw = json.loads(text)
    else:
        raise ConfigError("config", f"config file not found: {path}")
    if isinstance(raw, dict) and "config" in raw and "versions" in raw:
        # a manifest.json from a previous run; reuse its embedded config
        raw = raw["config"]
    return harness.spec_from_dict(raw)


def _apply_overrides(spec, args):
    from dataclasses import replace

    if getattr(args, "seed", None) is not None:
        spec = replace(spec, seed=int(args.seed))
    if getattr(args, "replicates", None) is not None:
        spec = replace(spec, replicates=int(args.replicates))
    return spec


def _write_manifest(out_dir: str, spec, command: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = harness.manifest_dict(spec, command)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    spec = _apply_overrides(_load_config(args.config), args)
    traj = harness._simulate_training(spec)
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), traj)
    _write_manifest(args.out, spec, "simulate")
    print(f"wrote {os.path.join(args.out, 'trajectory.csv')} ({traj.values.size} points)")
    return 0


def _cmd_fit(args) -> int:
    spec = _apply_overrides(_load_config(args.config), args)
    fits = harness.run_fit(spec)
    harness.write_weights_csv(os.path.join(args.out, "weights.csv"), fits)
    _write_manifest(args.out, spec, "fit")
    print(f"fitted {len(fits.fits)} points x {len(spec.methods)} methods -> "
          f"{os.path.join(args.out, 'weights.csv')}")
    return 0


def _cmd_evaluate(args) -> int:
    spec = _apply_overrides(_load_config(args.config), args)
    fits = harness.run_fit(spec)
    report = harness.run_eval(spec, fits)
    harness.write_weights_csv(os.path.join(args.out, "weights.csv"), fits)
    harness.write_eval_csv(os.path.join(args.out, "eval.csv"), report)
    _write_manifest(args.out, spec, "evaluate")
    print(f"evaluated {report.times.size} points x {len(report.methods)} methods "
          f"over {report.replicates} replicates -> {os.path.join(args.out, 'eval.csv')}")
    return 0


def _cmd_benchmark(args) -> int:
    spec = _apply_overrides(_load_config(args.config), args)
    seconds = harness.run_table1_benchmark(spec)
    print(f"seconds_per_solve={seconds:.3f}")
    if args.out:
        from .csvio import write_csv

        write_csv(os.path.join(args.out, "benchmark.csv"),
                  ["preset", "seconds_per_solve"], [[spec.name, seconds]])
        _write_manifest(args.out, spec, "benchmark")
    return 0


def _demo_pairs(kind: str, rho: float, n: int, seed: int) -> PairedSample:
    g = RngStream(seed, 7).generator()
    x = g.standard_normal(n)
    if kind == "independent":
        return PairedSample(x, g.standard_normal(n))
    if kind == "comonotone":
        return PairedSample(x, 2.0 * x + 1.0)
    if kind == "countermonotone":
        return PairedSample(x, -x)
    if kind == "gaussian":
        y = rho * x + np.sqrt(1.0 - rho * rho) * g.standard_normal(n)
        return PairedSample(x, y)
    raise ConfigError("pairs", f"unknown pair kind {kind!r}")


# the type and range of each demo-metrics option; --seed's are ExperimentSpec.seed's
_DEMO_OPTIONS = {"rho": Annotated[float, between(-1.0, 1.0)], "n": Annotated[int, at_least(10)],
                 "seed": Annotated[int, UINT64]}


def _cmd_demo_metrics(args) -> int:
    try:
        for key, hint in _DEMO_OPTIONS.items():
            checked(key, hint, getattr(args, key))
    except DomainError as exc:
        raise ConfigError(exc.key, str(exc)) from None
    sample = _demo_pairs(args.pairs, args.rho, args.n, args.seed)
    gini = gini_empirical(sample)
    extra = f" rho={args.rho}" if args.pairs == "gaussian" else ""
    print(f"pairs={args.pairs}{extra} n={args.n} gini={gini:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcast",
        description="Excursion-metric prediction of stationary heavy-tailed time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, fn, needs_out=True):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help=f"path to an experiment JSON, or a preset name: {', '.join(PRESETS)}")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="optional output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--replicates", type=int, default=None, help="replicate count override")
        p.set_defaults(fn=fn)

    add_run("simulate", _cmd_simulate)
    add_run("fit", _cmd_fit)
    add_run("evaluate", _cmd_evaluate)
    add_run("benchmark", _cmd_benchmark, needs_out=False)

    demo = sub.add_parser("demo-metrics")
    demo.add_argument("--pairs", required=True,
                      choices=["independent", "comonotone", "countermonotone", "gaussian"])
    demo.add_argument("--rho", type=float, default=0.0, help="correlation for gaussian pairs")
    demo.add_argument("--n", type=int, default=1_000_000, help="number of pairs")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(fn=_cmd_demo_metrics)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
