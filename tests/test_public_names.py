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
                            "print([m for m in ('scipy.signal', 'tailcast.harness') "
                            "if m in sys.modules])")
    assert out == "[]"


LAZY_SCIPY = ("scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_cli_import_leaves_signal_unloaded():
    """``import tailcast.cli`` loads none of the scipy modules that only
    simulating an AR path (``scipy.signal``, which loads the other three) or
    solving a Gaussian baseline (``scipy.linalg``) needs."""
    out = fresh_interpreter(f"import sys, tailcast.cli; "
                            f"print([m for m in {LAZY_SCIPY!r} if m in sys.modules])")
    assert out == "[]"


def small_config(tmp_path, process):
    path = tmp_path / f"{process['kind']}.json"
    path.write_text(json.dumps({
        "name": "small", "process": process, "h": 0.1, "window": [0.0, 9.9],
        "forecast_offsets": [10.0, 10.2], "prediction_interval": [10.3, 10.4],
        "marginal_mode": "estimated", "marginal_family": "gaussian",
        "descent": {"mode": "online", "max_iter": 30}, "replicates": 4, "seed": 3}))
    return str(path)


def signal_loaded_after(commands) -> bool:
    """Whether a fresh interpreter holds ``scipy.signal`` after running each
    ``tailcast`` command line in ``commands``, all exiting 0."""
    out = fresh_interpreter(f"import sys; from tailcast.cli import run; "
                            f"print([run(argv) for argv in {commands!r}], "
                            f"'scipy.signal' in sys.modules)")
    last = out.splitlines()[-1]  # the commands print their own lines first
    assert last.startswith(f"{[0] * len(commands)} "), out
    return last.endswith("True")


def test_gaussian_runs_leave_signal_unloaded(tmp_path):
    """The Gaussian path is an exact Python recursion, so simulating,
    fitting and evaluating a Gaussian process never needs ``scipy.signal``."""
    cfg = small_config(tmp_path, {"kind": "gauss_exp_cov"})
    commands = [[command, "--config", cfg, "--out", str(tmp_path / command)]
                for command in ("simulate", "fit", "evaluate")]
    assert not signal_loaded_after(commands)


def test_ar_simulate_loads_signal(tmp_path):
    """An AR path is filtered by ``scipy.signal.lfilter``, imported where it is used."""
    cfg = small_config(tmp_path, {
        "kind": "ar_student_t", "phi": [0.1, 0.25, 0.5],
        "innovation": {"family": "student_t", "params": {"mu": 0.0, "sigma": 1.0, "nu": 0.8}}})
    assert signal_loaded_after([["simulate", "--config", cfg, "--out", str(tmp_path / "ar")]])


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
