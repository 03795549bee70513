"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --repin    # record pins for this numpy/scipy

Checks that the config files here pass ``spec_from_dict`` and round-trip
through ``spec_to_dict``; runs one traced pass of every workload at its default seed
and checks its output, against ``pins.json`` when the installed numpy and
scipy versions have pins; reruns ``q4_long`` and requires byte-identical
artifacts; and requires every per-layer metric of BENCHMARK.json to be
produced, nonzero, by at least one workload. ``--repin`` is for a numpy or
scipy upgrade: it records the digests of this run as the new pins.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from tailcast import harness  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description="perfbench self-test")
    ap.add_argument("--repin", action="store_true", help="record pins for the installed versions")
    args = ap.parse_args()
    problems = []

    for config in ("online_extrap.json", "q4_long.json"):
        raw = json.loads((HERE / config).read_text())
        if harness.spec_to_dict(harness.spec_from_dict(raw)) != raw:
            problems.append(f"{config} does not round-trip through spec_to_dict")

    pins = {} if args.repin else workloads.load_pins()
    if not pins and not args.repin:
        print(f"no pins for {workloads.versions_key()}; digests are not compared")
    new_pins, produced = {}, {}
    out_root = ROOT / ".perfbench_out" / "selftest"
    gauss_gini = workloads.gaussian_gini(workloads.GINI_RHO)
    try:
        for w in workloads.WORKLOADS.values():
            tracer = Tracer(full=True)
            with tracer:
                res = workloads.run_pass(w, w.default_seed, out_root / w.name)
            for key, value in tracer.layer_metrics().items():
                produced[key] = produced.get(key, 0) or value
            outs = res["outputs"]
            found = [f"exit codes {res['codes']}"] if any(res["codes"]) else []
            if w.name == "gini_pairs":
                found += workloads.check_gini(outs.get("stdout", b""), gauss_gini)
            else:
                found += workloads.check_artifacts(tracer.captured["harness.run_fit"][0][0], outs)
            found += workloads.check_pins(w, w.default_seed, outs, pins)
            if w.name == "q4_long":
                again = workloads.run_pass(w, w.default_seed, out_root / "q4_long_again")
                if again["outputs"] != outs:
                    found.append("rerun is not byte-identical")
            digests = {k: workloads.sha256(v) for k, v in outs.items()}
            new_pins[w.name] = {"seed": w.default_seed, "sha256": digests}
            print(f"{w.name}: {res['total_s']:.2f} s, "
                  f"{'ok' if not found else 'FAILED: ' + '; '.join(found)}")
            problems += [f"{w.name}: {p}" for p in found]
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # dotted names come from spans.py; the others, and the threads timings, from run.py
    from_spans = [m["name"] for m in declared["per_layer"]
                  if "." in m["name"] and not m["name"].startswith("harness.run_eval.threads")]
    silent = [n for n in from_spans if not produced.get(n)]
    if silent:
        problems.append(f"per-layer metrics no workload produces: {silent}")

    if args.repin and not problems:
        path = HERE / "pins.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        table[workloads.versions_key()] = new_pins
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote pins for {workloads.versions_key()}")
    for p in problems:
        print(f"FAILED: {p}")
    print("selftest " + ("passed" if not problems else "failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
