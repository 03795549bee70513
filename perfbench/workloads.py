"""The four benchmark workloads: one measured pass each, and its output checks.

Every pass goes through ``tailcast.cli.run`` exactly as a user's command
would, writing into a temporary output directory. ``check_*`` functions return a list
of problems; an empty list means the pass produced correct output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tailcast import cli, harness
from tailcast.metrics import gaussian_copula_diag
from tailcast.objective import ForecastDesign, extract_learning_samples
from tailcast.processes import Trajectory
from tailcast.rng import RngStream

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
ARTIFACTS = ("weights.csv", "eval.csv")
GINI_KINDS = ("independent", "comonotone", "countermonotone", "gaussian")
GINI_RHO = 0.9
GINI_N = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # preset name or config path; empty for gini_pairs
    default_seed: int
    extra: tuple = ()  # further `tailcast evaluate` arguments


WORKLOADS = {w.name: w for w in (
    Workload(
        "online_extrap",
        "gauss_extrap on [30, 32] at R=1000: 91 points x 2 methods x 300 online row steps "
        "at N=1000, n=10; isolates the online row kernel (subgradient, solve, Predictor), "
        "with kriging baselines and max_rows subsampling",
        str(HERE / "online_extrap.json"), 102),
    Workload(
        "q4_long",
        "cauchy_extrap on a 60 s window with batch Q4 (N~2950, 2 points): isolates the "
        "O(N^2) Q4 mean_subgradient and its memory, and skips the online row kernel",
        str(HERE / "q4_long.json"), 104),
    Workload(
        "eval_ar3",
        "ar3 with 4000 replicates: ~90% Monte Carlo evaluation (simulate_ar with 10000 "
        "burn-in steps, Student-t sampling, wasserstein2_samples) after a small batch Q3 fit",
        "ar3", 9, ("--replicates", "4000")),
    Workload(
        "gini_pairs",
        "tailcast demo-metrics for the four pair kinds at n=1e6: the only user path into "
        "metrics.gini_empirical and its rank computation",
        "", 0),
)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions_key() -> str:
    import scipy

    return f"numpy {np.__version__} / scipy {scipy.__version__}"


def load_pins() -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text()).get(versions_key(), {})


def cli_quiet(argv) -> tuple:
    """Run the tailcast CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def resolve(w: Workload, seed: int):
    """Configuration resolution, the part of set-up after the imports."""
    if w.name == "gini_pairs":
        return [cli.build_parser().parse_args(demo_argv(kind, seed)) for kind in GINI_KINDS]
    return cli._load_config(w.config)


def demo_argv(kind: str, seed: int) -> list:
    return ["demo-metrics", "--pairs", kind, "--rho", str(GINI_RHO),
            "--n", str(GINI_N), "--seed", str(seed)]


def run_pass(w: Workload, seed: int, out: Path) -> dict:
    """One timed pass. Returns total_s, the exit codes and the output bytes."""
    if w.name == "gini_pairs":
        t0 = time.perf_counter()
        runs = [cli_quiet(demo_argv(kind, seed)) for kind in GINI_KINDS]
        total = time.perf_counter() - t0
        return {"total_s": total, "codes": [c for c, _ in runs],
                "outputs": {"stdout": "".join(text for _, text in runs).encode()}}
    argv = ["evaluate", "--config", w.config, "--out", str(out), "--seed", str(seed), *w.extra]
    t0 = time.perf_counter()
    code, _ = cli_quiet(argv)
    total = time.perf_counter() - t0
    outputs = {name: (out / name).read_bytes() for name in ARTIFACTS if (out / name).is_file()}
    return {"total_s": total, "codes": [code], "outputs": outputs}


# --- checks -----------------------------------------------------------------


def _rows(data: bytes):
    lines = data.decode().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _keys(spec, indices, methods):
    return [(round(k * spec.h, 9), m) for k in indices for m in methods]


def check_artifacts(spec, outputs: dict) -> list:
    """Complete rows, finite values, excursion metric in [0, 1]."""
    problems = []
    missing = [name for name in ARTIFACTS if name not in outputs]
    if missing:
        return [f"missing {', '.join(missing)}"]
    methods = [m for m in harness.METHOD_ORDER if m in spec.methods]
    n = len(spec.forecast_offsets)
    header, rows = _rows(outputs["weights.csv"])
    if header != ["t", "method"] + [f"lambda_{i + 1}" for i in range(n)] + ["objective"]:
        problems.append(f"weights.csv header {header}")
    if [(float(r[0]), r[1]) for r in rows] != _keys(spec, spec.fitted_indices, methods):
        problems.append("weights.csv rows do not cover every fitted point and method")
    if not all(math.isfinite(float(v)) for r in rows for v in r[2:]):
        problems.append("weights.csv has non-finite values")
    header, rows = _rows(outputs["eval.csv"])
    if header != ["t", "method", "excursion_metric", "wasserstein"]:
        problems.append(f"eval.csv header {header}")
    if [(float(r[0]), r[1]) for r in rows] != _keys(spec, spec.grid_indices, methods):
        problems.append("eval.csv rows do not cover every grid point and method")
    values = [(float(r[2]), float(r[3])) for r in rows]
    if not all(math.isfinite(e) and math.isfinite(v) for e, v in values):
        problems.append("eval.csv has non-finite values")
    elif not all(0.0 <= e <= 1.0 and v >= 0.0 for e, v in values):
        problems.append("eval.csv excursion_metric outside [0, 1] or negative wasserstein")
    return problems


def gaussian_gini(rho: float) -> float:
    """Population Gini metric of the Gaussian copula: 1 - 2 * integral of C(x, x)."""
    x = np.linspace(0.0, 1.0, 401)
    diag = np.array([gaussian_copula_diag(rho, float(v)) for v in x])
    return 1.0 - 2.0 * float(np.trapezoid(diag, x))


def gini_values(stdout: bytes) -> dict:
    out = {}
    for line in stdout.decode().splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        out[fields["pairs"]] = float(fields["gini"])
    return out


def check_gini(stdout: bytes, gaussian_target: float) -> list:
    """Anchors: comonotone ~0, independent ~1/3, countermonotone ~1/2."""
    g = gini_values(stdout)
    if sorted(g) != sorted(GINI_KINDS):
        return [f"demo-metrics printed {sorted(g)}"]
    problems = []
    if not g["comonotone"] < 0.002:
        problems.append(f"comonotone gini {g['comonotone']} not < 0.002")
    for kind, target in (("independent", 1.0 / 3.0), ("countermonotone", 0.5),
                         ("gaussian", gaussian_target)):
        if abs(g[kind] - target) > 0.01:
            problems.append(f"{kind} gini {g[kind]} not within 0.01 of {target:.6f}")
    return problems


def check_pins(w: Workload, seed: int, outputs: dict, pins: dict) -> list:
    """At the default seed, output bytes must match the pinned sha256."""
    pin = pins.get(w.name)
    if seed != w.default_seed or pin is None:
        return []
    return [f"{name} sha256 {sha256(outputs.get(name, b''))[:12]} != pinned {digest[:12]}"
            for name, digest in pin["sha256"].items()
            if sha256(outputs.get(name, b"")) != digest]


# --- problem facts ----------------------------------------------------------


def rows_per_point(spec) -> list:
    """Learning rows N at each fitted point (after max_rows subsampling)."""
    lo, hi = spec.window
    values = np.zeros(int(round((hi - lo) / spec.h)) + 1)
    traj = Trajectory(lo, spec.h, values)
    out = []
    for k in spec.fitted_indices:
        design = ForecastDesign(spec.forecast_offsets, round(k * spec.h, 9), spec.h, spec.window)
        out.append(extract_learning_samples(traj, design, max_n=spec.max_rows,
                                            rng=RngStream(0).generator()).count)
    return out


def problem_facts(w: Workload, spec) -> dict:
    """Problem sizes; ``spec`` is None for gini_pairs or when no pass got as far as fitting."""
    if w.name == "gini_pairs":
        return {"pairs": list(GINI_KINDS), "n": GINI_N, "rho": GINI_RHO}
    if spec is None:
        return {}
    rows = rows_per_point(spec)
    return {"N": [min(rows), max(rows)], "n": len(spec.forecast_offsets),
            "points": len(spec.fitted_indices), "methods": list(spec.methods),
            "R": spec.replicates, "variant": spec.variant, "mode": spec.descent.mode,
            "max_iter": spec.descent.max_iter, "max_rows": spec.max_rows}
