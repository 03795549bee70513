"""Each public name is declared once, in its own module's ``__all__``.

The package module re-exports nothing, so importing one submodule loads
only what that submodule needs. The import checks run in a fresh
interpreter, because this one has long since imported every module.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tailcast

MODULES = sorted(m.name for m in pkgutil.iter_modules(tailcast.__path__))


def fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports
    this checkout's tailcast."""
    src = str(Path(tailcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"tailcast.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == [], f"tailcast.{name}.__all__ names what the module lacks"


def test_package_exports_only_its_version():
    out = fresh_interpreter("import tailcast; "
                            "print(sorted(n for n in vars(tailcast) if not n.startswith('_')), "
                            "tailcast.__version__)")
    assert out == f"[] {tailcast.__version__}"


def test_distributions_import_leaves_signal_and_harness_unloaded():
    out = fresh_interpreter("import sys, tailcast.distributions; "
                            "print([m for m in ('scipy.signal', 'scipy.special', 'tailcast.harness') "
                            "if m in sys.modules])")
    assert out == "[]"


LAZY_SCIPY = ("scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.special")


def test_cli_import_leaves_signal_unloaded():
    """``import tailcast.cli`` loads none of the scipy modules that only
    simulating an AR path (``scipy.signal``, which loads the others),
    solving a Gaussian baseline (``scipy.linalg``) or calling a Gaussian,
    Lévy or Student-t kernel (``scipy.special``) needs."""
    out = fresh_interpreter(f"import sys, tailcast.cli; "
                            f"print([m for m in {LAZY_SCIPY!r} if m in sys.modules])")
    assert out == "[]"


def test_cli_import_leaves_thread_pools_unloaded():
    """Every thread pool (evaluation's replicate workers, the Gini worker)
    imports ``concurrent.futures`` where it opens, so the import does not
    load it."""
    out = fresh_interpreter("import sys, tailcast.cli; print('concurrent.futures' in sys.modules)")
    assert out == "False"


def small_config(tmp_path, process, marginal_mode="estimated"):
    path = tmp_path / f"{process['kind']}.json"
    family = {"marginal_family": "gaussian"} if marginal_mode == "estimated" else {}
    path.write_text(json.dumps({
        "name": "small", "process": process, "h": 0.1, "window": [0.0, 9.9],
        "forecast_offsets": [10.0, 10.2], "prediction_interval": [10.3, 10.4],
        "marginal_mode": marginal_mode, **family,
        "descent": {"mode": "online", "max_iter": 30}, "replicates": 4, "seed": 3}))
    return str(path)


def loaded_after(module, commands) -> bool:
    """Whether a fresh interpreter holds ``module`` after running each
    ``tailcast`` command line in ``commands``, all exiting 0."""
    out = fresh_interpreter(f"import sys; from tailcast.cli import run; "
                            f"print([run(argv) for argv in {commands!r}], "
                            f"{module!r} in sys.modules)")
    last = out.splitlines()[-1]  # the commands print their own lines first
    assert last.startswith(f"{[0] * len(commands)} "), out
    return last.endswith("True")


def test_gaussian_runs_leave_signal_unloaded(tmp_path):
    """The Gaussian path is an exact Python recursion, so simulating,
    fitting and evaluating a Gaussian process never needs ``scipy.signal``."""
    cfg = small_config(tmp_path, {"kind": "gauss_exp_cov"})
    commands = [[command, "--config", cfg, "--out", str(tmp_path / command)]
                for command in ("simulate", "fit", "evaluate")]
    assert not loaded_after("scipy.signal", commands)


def test_ar_simulate_loads_signal(tmp_path):
    """An AR path is filtered by ``scipy.signal.lfilter``, imported where it is used."""
    cfg = small_config(tmp_path, {
        "kind": "ar_student_t", "phi": [0.1, 0.25, 0.5],
        "innovation": {"family": "student_t", "params": {"mu": 0.0, "sigma": 1.0, "nu": 0.8}}})
    assert loaded_after("scipy.signal", [["simulate", "--config", cfg, "--out", str(tmp_path / "ar")]])


def test_cauchy_runs_leave_special_unloaded(tmp_path):
    """The Cauchy kernels are arctan and arithmetic, so simulating, fitting
    and evaluating a Cauchy process with a known marginal never needs
    ``scipy.special``."""
    cfg = small_config(tmp_path, {"kind": "stable_ma", "alpha": 1.0}, marginal_mode="known")
    commands = [[command, "--config", cfg, "--out", str(tmp_path / command)]
                for command in ("simulate", "fit", "evaluate")]
    assert not loaded_after("scipy.special", commands)


def test_demo_metrics_and_simulate_leave_special_unloaded(tmp_path):
    """No pair kind of ``demo-metrics`` and no Gaussian or Lévy simulation
    calls a special function."""
    commands = [["demo-metrics", "--pairs", pairs, "--rho", "0.5", "--n", "1000"]
                for pairs in ("independent", "comonotone", "countermonotone", "gaussian")]
    for process in ({"kind": "gauss_exp_cov"}, {"kind": "stable_ma", "alpha": 0.5}):
        cfg = small_config(tmp_path, process)
        commands.append(["simulate", "--config", cfg, "--out", str(tmp_path / process["kind"])])
    assert not loaded_after("scipy.special", commands)


def test_gaussian_fit_loads_special(tmp_path):
    """The Gaussian cdf is ``scipy.special.ndtr``, loaded at its first call;
    a fit that never loaded it would not have called the kernel."""
    cfg = small_config(tmp_path, {"kind": "gauss_exp_cov"})
    assert loaded_after("scipy.special", [["fit", "--config", cfg, "--out", str(tmp_path / "fit")]])


def test_readme_library_tour_runs():
    """The README's "Library tour" block runs as documented in a fresh
    interpreter, importing each name from its own submodule."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    weights, metrics = fresh_interpreter(code).splitlines()
    assert weights == "[0. 0. 1.]"
    gini, excursion = (float(v) for v in metrics.split())
    assert gini == pytest.approx(1 / 3, abs=0.005)  # independent pairs
    assert excursion == pytest.approx(1 / 3, abs=0.005)
