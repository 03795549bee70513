"""tailcast benchmark: end-to-end and per-layer metrics for four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload online_extrap --seed 102 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload at its default seed

The program under test is the checkout's own ``src/tailcast``; nothing needs
installing. A run:

1. times set-up ``SETUP_SAMPLES`` times in fresh interpreters (import of
   tailcast plus configuration resolution) and reports the median;
2. repeats the workload's pass, a real ``tailcast`` command run in-process,
   while another pass of median length still fits in ``--seconds`` (at least
   ``MIN_PASSES``), and checks every
   pass's output: pinned sha256 at the workload's default seed, structure and
   ranges at any seed;
3. prints human-readable lines, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
   are the ``end_to_end`` ones of BENCHMARK.json, with ``--trace 1`` the
   ``per_layer`` ones.

Untraced passes wrap only ``harness.run_fit`` and ``harness.run_eval`` with a
timer (two spans per pass). With ``--trace 1`` each round is one untraced
pass, one fully traced pass (see ``spans.py``) whose artifact digests must
equal the untraced ones, and one ``run_eval`` at threads=nproc whose
``eval.csv`` must equal the threads=1 bytes. Peak RSS is this process's own,
so each workload runs in a process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
MIN_PASSES = 2  # untraced passes per run; a traced run makes at least one round
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.resolve(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]))")
NAMES = ("online_extrap", "q4_long", "eval_ar3", "gini_pairs")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed; default is the workload's own (the preset's seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time; default is run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {HERE.name}/")
    return json.loads(path.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def time_setup(name: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import tailcast and resolve the config."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name, str(seed)],
                   check=True, timeout=120, cwd=ROOT)
    return time.perf_counter() - t0


# --- one workload -----------------------------------------------------------


def one_pass(w, seed: int, out: Path, traced: bool, ctx: dict) -> dict:
    """Run and check one pass; ``ctx`` carries pins and the run's reference digests."""
    import workloads
    from spans import Tracer

    tracer = Tracer(full=traced)
    problems = []
    rec = {"total_s": 0.0, "fit_s": 0.0, "eval_s": 0.0,
           "point_s": [], "steps": 0, "digests": {}, "outputs": {}}
    try:
        with tracer:
            res = workloads.run_pass(w, seed, out)
        rec["total_s"] = res["total_s"]
        rec["outputs"] = res["outputs"]
        rec["digests"] = {k: workloads.sha256(v) for k, v in res["outputs"].items()}
        if any(res["codes"]):
            problems.append(f"exit codes {res['codes']}")
        if w.name == "gini_pairs":
            problems += workloads.check_gini(res["outputs"].get("stdout", b""), ctx["gauss_gini"])
        else:
            rec["fit_s"] = tracer.stage_seconds("harness.run_fit")
            rec["eval_s"] = tracer.stage_seconds("harness.run_eval")
            spec_args, fits = tracer.captured["harness.run_fit"]
            rec["spec"], rec["fits"] = spec_args[0], fits
            solved = [pf for point in fits.fits.values() for pf in point.values() if pf.iterations]
            rec["point_s"] = [pf.seconds for pf in solved]
            rec["steps"] = sum(pf.iterations for pf in solved)
            problems += workloads.check_artifacts(rec["spec"], res["outputs"])
        problems += workloads.check_pins(w, seed, res["outputs"], ctx["pins"])
        ref = ctx.setdefault("digests", rec["digests"])
        if rec["digests"] != ref:
            problems.append("artifact digests differ from the run's first pass")
        if traced:
            rec["layers"] = tracer.layer_metrics()
    except Exception:  # a failed pass is counted, and the run goes on
        traceback.print_exc()
        problems.append("raised")
    rec["problems"] = problems
    print(f"pass {'traced' if traced else 'untraced'}: total_s={rec['total_s']:.4f} "
          f"fit_s={rec['fit_s']:.4f} eval_s={rec['eval_s']:.4f} "
          f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}", flush=True)
    return rec


def threads_eval(rec: dict, out: Path, threads: int) -> tuple:
    """Seconds of run_eval at ``threads`` workers and whether eval.csv is unchanged."""
    from tailcast import harness

    spec, fits = rec["spec"], rec["fits"]
    t0 = time.perf_counter()
    report = harness.run_eval(spec, fits, threads=threads)
    seconds = time.perf_counter() - t0
    path = out / "eval_threads.csv"
    harness.write_eval_csv(path, report)
    same = path.read_bytes() == rec["outputs"].get("eval.csv")
    print(f"run_eval threads={threads}: {seconds:.4f} s, eval.csv "
          f"{'identical' if same else 'DIFFERS'}", flush=True)
    return seconds, same


def percentile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(round(q * (len(s) - 1))))]


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec_json: dict) -> dict:
    import workloads

    w = workloads.WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    print(f"workload {name} seed {seed}: {w.why}", flush=True)
    setup = [time_setup(name, seed) for _ in range(SETUP_SAMPLES)]
    ctx = {"pins": workloads.load_pins()}
    if w.name == "gini_pairs":
        ctx["gauss_gini"] = workloads.gaussian_gini(workloads.GINI_RHO)
    nproc = os.cpu_count() or 1
    out_root = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    untraced, traced, threads_n = [], [], []
    start, rounds = time.perf_counter(), []
    try:
        while len(rounds) < (1 if trace else MIN_PASSES) or (
                time.perf_counter() - start + median(rounds) <= seconds):
            t_round = time.perf_counter()
            out = out_root / f"p{len(untraced)}"
            rec = one_pass(w, seed, out, False, ctx)
            untraced.append(rec)
            if trace:
                traced.append(one_pass(w, seed, out_root / f"t{len(traced)}", True, ctx))
                if "fits" in rec and not rec["problems"]:
                    secs, same = threads_eval(rec, out, nproc)
                    threads_n.append(secs)
                    if not same:
                        rec["problems"].append(f"eval.csv differs at threads={nproc}")
            rounds.append(time.perf_counter() - t_round)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_root.parent.rmdir()  # only when no other run is using it
    attempted = len(untraced) + len(traced)
    failed = sum(bool(r["problems"]) for r in untraced + traced)

    ok = [r for r in untraced if not r["problems"]] or untraced
    point_s = [s for r in ok for s in r["point_s"]]
    first = ok[0]
    spec = first.get("spec")
    quality = {}
    if "eval.csv" in first["outputs"]:
        rows = [ln.split(",") for ln in first["outputs"]["eval.csv"].decode().splitlines()[1:]]
        quality = {"excursion_mean": statistics.fmean(float(r[2]) for r in rows),
                   "w2_mean": statistics.fmean(float(r[3]) for r in rows)}
    summary = {
        "total_s": median([r["total_s"] for r in ok]),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fit_s": median([r["fit_s"] for r in ok]),
        "eval_s": median([r["eval_s"] for r in ok]),
        "point_fit_p50_ms": 1e3 * percentile(point_s, 0.5),
        "point_fit_p95_ms": 1e3 * percentile(point_s, 0.95),
        "steps_per_s": median([r["steps"] / r["fit_s"] for r in ok if r["fit_s"] > 0]),
        "failed_frac": failed / attempted,
        **quality,
    }
    facts = {"workload": name, "seed": seed, "passes": len(untraced), "point_fits": len(point_s),
             "setup_samples": len(setup), **machine_facts(),
             **workloads.problem_facts(w, spec)}
    print("facts " + json.dumps(facts), flush=True)

    units = {m["name"]: m["unit"] for m in spec_json["end_to_end"] + spec_json["per_layer"]}
    units["failed_frac"] = "ratio"
    for key, value in summary.items():
        print(f"  {key} = {value:.6g} {units[key]}", flush=True)

    if trace:
        layer = {}
        for key in {k for r in traced if "layers" in r for k in r["layers"]}:
            layer[key] = median([r["layers"].get(key, 0) for r in traced if "layers" in r])
        layer.update({k: summary[k] for k in summary if k not in ("setup_s", "peak_rss_mb")})
        layer["trace_overhead_s"] = median([r["total_s"] for r in traced]) - summary["total_s"]
        layer["harness.run_eval.threads1_s"] = summary["eval_s"]
        layer["harness.run_eval.threadsN_s"] = median(threads_n)
        chosen = [m["name"] for m in spec_json["per_layer"]]
        metrics = {k: layer.get(k, 0) for k in chosen}
        for key in chosen:
            if key not in summary:
                print(f"  {key} = {metrics[key]:.6g} {units[key]}", flush=True)
        traced_total = median([r["total_s"] for r in traced])
        own = sorted(((v, k[:-len(".self_s")]) for k, v in layer.items() if k.endswith(".self_s")),
                     reverse=True)
        if traced_total > 0:
            print("self time, share of the traced pass: " + ", ".join(
                f"{k} {v / traced_total:.1%}" for v, k in own[:6]), flush=True)
    else:
        chosen = [m["name"] for m in spec_json["end_to_end"]]
        metrics = {k: summary[k] for k in chosen}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


# --- all workloads ----------------------------------------------------------


def run_all(args) -> dict:
    """Each workload in a process of its own, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
        print(f"{name}: failed_frac = {result['failed']}/{result['attempted']}", flush=True)
    return total


def main(argv=None) -> None:
    args = parse_args(argv)
    spec_json = declared()
    if not (SRC / "tailcast" / "__init__.py").is_file():
        fail(f"no tailcast package under {SRC.name}/; run from a full checkout")
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path[:0] = [str(SRC), str(HERE)]
        import tailcast

        if Path(tailcast.__file__).resolve().parent != SRC / "tailcast":
            fail(f"imported tailcast from {tailcast.__file__}, not from this checkout")
        seconds = spec_json["run_seconds"] if args.seconds is None else args.seconds
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec_json)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
