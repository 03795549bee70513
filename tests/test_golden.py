"""Pinned artifact bytes: every preset, cut to its first three fitted points.

Each case runs ``run_fit`` and ``run_eval`` (R=50) and compares the sha256 of
``weights.csv`` and ``eval.csv`` with a digest recorded for the installed
numpy/scipy pair; floating-point results may differ under other versions,
so the test skips there. The ``manifest.json`` that ``evaluate`` writes for
each full preset is pinned the same way (it names the numpy/scipy versions),
so a config that reads back with a changed type or key order shows. Together the cases reach all three predictor forms
(``squared`` through the levy presets, ``max`` through the extra case), both
interpolation and extrapolation designs, batch and online descent, all
three functionals (Q4 both online and in batch), the estimated-marginal
path of ``ar3``, and online Q2/Q3 chains that stop on ``tol`` at different
steps under Polyak selection in a ball.

After a numpy or scipy upgrade, re-pin by running

    PYTHONPATH=src python3 tests/test_golden.py

on a commit whose outputs are known good, and pasting the two printed tables
into ``PINS`` and ``MANIFEST_PINS`` under the new version key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy

from tailcast.cli import PRESETS, _load_config, _write_manifest
from tailcast.harness import run_eval, run_fit, spec_from_dict, write_eval_csv, write_weights_csv

ARTIFACTS = ("weights.csv", "eval.csv")
POINTS = 3
REPLICATES = 50


def preset_config(preset: str) -> dict:
    return json.loads(resources.files("tailcast").joinpath(f"presets/{preset}.json").read_text())


# case -> (preset, config overrides). From unit-vector starts the penalized
# iterates of the presets rarely beat their start in three points, so their
# weights.csv barely depends on the online row kernel; the simplex cases do.
CASES = {name: (name, {}) for name in PRESETS}
CASES["gauss_extrap_max"] = ("gauss_extrap", {"predictor_kind": "max"})
CASES["cauchy_interp_simplex"] = ("cauchy_interp", {"init_strategy": "simplex"})
CASES["cauchy_extrap_q4_simplex"] = ("cauchy_extrap", {"variant": "Q4", "init_strategy": "simplex"})
# Batch Q4 is the only path through the rank counts of ``mean_subgradient``.
CASES["cauchy_extrap_q4_batch"] = ("cauchy_extrap", {
    "variant": "Q4", "init_strategy": "simplex",
    "descent": {**preset_config("cauchy_extrap")["descent"], "mode": "batch", "max_iter": 30}})
# Online Q2 and Q3 chains that stop on ``tol`` at different steps (Q2 first at
# one point, Q3 first at another, one full budget), with Polyak averaging past
# a burn-in that the early-stopping chains never reach, inside the unit ball.
CASES["gauss_extrap_polyak_ball_tol"] = ("gauss_extrap", {
    "init_strategy": "simplex",
    "descent": {**preset_config("gauss_extrap")["descent"], "selection": "polyak",
                "burn_in": 50, "constraint": "ball", "radius": 1.0, "tol": 1e-3}})

PINS = {
    "numpy 2.4.6 / scipy 1.17.1": {
        "ar3": {
            "weights.csv": "68a06ae412f094e11fe173cccc055317f3420901299a0c7dae627233d391abaf",
            "eval.csv": "583b6f9dacf551e34c6e42f12ac6cd58346ec17a40137e101615a35b53bdd41a",
        },
        "cauchy_extrap": {
            "weights.csv": "9a9e38f2f17a3630dd129ae19d88a2ed224e64119d5058cea035caf2830fe19a",
            "eval.csv": "23959206a6894a19e5ef0178bf72d766b17a9d68f9ca26434ab866fadf0d3631",
        },
        "cauchy_extrap_q4_batch": {
            "weights.csv": "db823505597608f7eba28c925424bf563be6e94656bb25743391891c050057c0",
            "eval.csv": "2feb15dbe087f9d59ac0f516b7af773a2b97eeb61eeefcf5ffaa15fe8f1d6b1c",
        },
        "cauchy_extrap_q4_simplex": {
            "weights.csv": "e4f5c87c351a7da23980bc91995da0f0792675adc2bd272235ad6075dee6da2e",
            "eval.csv": "6a7cab431f7316007af84d3af03383838711f6a3c8ce80b5a848243f4ecf8926",
        },
        "cauchy_interp": {
            "weights.csv": "be3e94cd03bd5407d26a87509ba87ef37e362ba603a586e0f6f06c065ec7cf8c",
            "eval.csv": "17af83b8dd77acb3a5737537fff4144bd28ead5b836f67f99bd6dff6737b1b49",
        },
        "cauchy_interp_simplex": {
            "weights.csv": "caf40d141e3916a3ec017eb60f8ee945d49f84feb890aeea053e7f368852b7d7",
            "eval.csv": "0b1442cb73be1d103e7920c366756a55cbff98debfeb9c0c1640cab1360177e0",
        },
        "gauss_extrap": {
            "weights.csv": "60271b908a4fd335ea38b8a90b8ad0b82b2e8e32d77ab638003b32c6ea9c1a42",
            "eval.csv": "8b2322f321137617f7bc75c3282065685158b96eb7251e1bd36e1733a9ac1117",
        },
        "gauss_extrap_max": {
            "weights.csv": "6e852006667bebe011472b6c393e2935cbecd704384cb0187847afa898c659ac",
            "eval.csv": "936a3869d94853c45a73809e6b4d51e6695f8b8cb558525671f8dfdcb7a3ceac",
        },
        "gauss_extrap_polyak_ball_tol": {
            "weights.csv": "d20db475dc043700ba9750ed236a6f5756b239486ae941bbe5598f55d44e7d22",
            "eval.csv": "a27b3081f330fa58d66ba468436c589d944db7033d1520acafd25edffdd18d1e",
        },
        "gauss_interp": {
            "weights.csv": "752937efa72707e6b1c94064c7fc69f3cbd897d4fa0f2ae169e3f87efeeedea4",
            "eval.csv": "f5266edc3a778ed55c196af6040843c2153b838d130cb8fd3f646f76e291a7a0",
        },
        "levy_extrap": {
            "weights.csv": "2d2b8f814b61eee7acf3c8421b761bd324f85000762ac5b2aea1a707fe676aef",
            "eval.csv": "5926797dbbec7543fc484391094f9ff4aea96a36acb9181858268b566873f26a",
        },
        "levy_interp": {
            "weights.csv": "84783f0120b804d105da952341859f368bf13fed48489b638364f2012c649d5b",
            "eval.csv": "c2d1b9da5affd9953cc8c9e52da4a448ea788ebd81eec1cf07c088df40ab5668",
        },
    },
}


# preset -> sha256 of the manifest.json that ``tailcast evaluate`` writes for it
MANIFEST_PINS = {
    "numpy 2.4.6 / scipy 1.17.1": {
        "ar3": "fd45f9f496ae9049336491ea4078b37f30fc0b4cb9e20c37ccc93aaae8391d05",
        "cauchy_extrap": "352f5796ba258aa21d0bb9f0f313db7ba58d2fe339f983b5ecf3f99f0cd3c93c",
        "cauchy_interp": "a293b5529eeb7cc80c0eb5af30055b83f828e433e5df1251b70e21fb72ebcb1a",
        "gauss_extrap": "35999034fee3128881b5e01b717af94fe41735d3f26f0214499212ac47ec922d",
        "gauss_interp": "645c671fcb90978d7a4fde6a7d1f528756842b260293ddbc268f8899b6157bbe",
        "levy_extrap": "7ad5d3b249e8b0134a2f61cc7cf9caabb1241ec569531899920557c06e1db312",
        "levy_interp": "ee16983d2643d5aa8c0c7d5628d947f2864e8dbeb37d7a8cb7c1654efcc10dba",
    },
}


def versions_key() -> str:
    return f"numpy {np.__version__} / scipy {scipy.__version__}"


def case_spec(case: str):
    preset, overrides = CASES[case]
    raw = preset_config(preset)
    raw.update(overrides)
    spec = spec_from_dict(raw)
    first, last = spec.fitted_indices[0], spec.fitted_indices[POINTS - 1]
    return replace(spec, prediction_interval=(round(first * spec.h, 9), round(last * spec.h, 9)),
                   replicates=REPLICATES)


def case_digests(case: str, out) -> dict:
    spec = case_spec(case)
    fits = run_fit(spec)
    write_weights_csv(out / "weights.csv", fits)
    write_eval_csv(out / "eval.csv", run_eval(spec, fits))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path):
    pins = PINS.get(versions_key())
    if pins is None:
        pytest.skip(f"no golden digests for {versions_key()}; re-pin as the module docstring says")
    assert len(case_spec(case).fitted_indices) == POINTS
    assert case_digests(case, tmp_path) == pins[case]


def manifest_digest(preset: str, out) -> str:
    _write_manifest(str(out), _load_config(preset), "evaluate")
    return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", PRESETS)
def test_manifest_digests(preset, tmp_path):
    pins = MANIFEST_PINS.get(versions_key())
    if pins is None:
        pytest.skip(f"no manifest digests for {versions_key()}; re-pin as the module docstring says")
    assert manifest_digest(preset, tmp_path) == pins[preset]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = case_digests(case, Path(tmp))
    print(json.dumps({versions_key(): table}, indent=4, sort_keys=True))
    manifests = {}
    for preset in PRESETS:
        with tempfile.TemporaryDirectory() as tmp:
            manifests[preset] = manifest_digest(preset, Path(tmp))
    print(json.dumps({versions_key(): manifests}, indent=4, sort_keys=True))
