"""Where the design sits on the time axis does not change its learning rows.

The processes are stationary, so shifting every configured time by m
lattice steps must give the same learning rows at every fitted point: the
training draws do not depend on the window's start, and every time becomes
a lattice index through one rule (``processes._aligned_index``), after which
all index arithmetic is on integers. A shifted config may instead be
rejected at the boundary, as any config with a time off the lattice is, or
with a fitted point below lattice index 0, where its streams have no key.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import tailcast.harness
from tailcast.cli import run
from tailcast.errors import ConfigError
from tailcast.harness import run_fit, spec_from_dict

TIMES = ("window", "forecast_offsets", "prediction_interval")


def preset_config(preset: str) -> dict:
    config = json.loads(resources.files("tailcast").joinpath(f"presets/{preset}.json").read_text())
    config["max_rows"] = None  # the subsample stream is keyed by the absolute lattice index
    return config


def shifted(config: dict, m: int) -> dict:
    out = copy.deepcopy(config)
    for key in TIMES:
        out[key] = [t + m * config["h"] for t in config[key]]
    return out


def learning_rows(config: dict, monkeypatch) -> list:
    """(X, y) of every fitted point, in point order, from a one-step fit of
    one method from one starting point."""
    spec = spec_from_dict(config)
    spec = replace(spec, variant="Q2", warm_start=False, init_strategy="simplex", init_count=1,
                   descent=replace(spec.descent, max_iter=1))
    rows = []
    extract = tailcast.harness.extract_learning_samples

    def recording(*args, **kwargs):
        samples = extract(*args, **kwargs)
        rows.append((samples.X, samples.y))
        return samples

    with monkeypatch.context() as mp:
        mp.setattr(tailcast.harness, "extract_learning_samples", recording)
        fits = run_fit(spec)
    assert len(rows) == len(fits.fits) == len(spec.fitted_indices)
    return rows


@pytest.mark.parametrize("preset", ["gauss_extrap", "cauchy_interp", "levy_extrap"])
def test_shifted_design_has_the_same_learning_rows(preset, monkeypatch):
    config = preset_config(preset)
    base = learning_rows(config, monkeypatch)
    for m in (-10**3, 10**3, 10**6, 10**7, 10**9):
        moved = shifted(config, m)
        try:
            spec_from_dict(moved)
        except ConfigError:
            assert m > 0, m  # -10**3 keeps every fitted time >= 0, so it must load
            continue
        rows = learning_rows(moved, monkeypatch)
        assert len(rows) == len(base), m
        for (X, y), (X0, y0) in zip(rows, base):
            assert np.array_equal(X, X0) and np.array_equal(y, y0), m


@pytest.mark.parametrize("preset", ["gauss_extrap", "cauchy_interp", "levy_extrap", "ar3"])
def test_negative_fitted_index_is_rejected(preset, tmp_path, capsys, monkeypatch):
    """3000 steps back puts every fitted point below lattice index 0, where
    no stream key exists: ``fit`` exits 2 before simulating."""

    def no_simulation(*args):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "simulate", no_simulation)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(shifted(preset_config(preset), -3000)))
    assert run(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'prediction_interval'" in capsys.readouterr().err


def test_stable_ma_fit_far_from_the_origin(tmp_path):
    """A 1000-point window starting at lattice index 10**7 for h = 0.07."""
    config = preset_config("cauchy_interp")
    config.update(h=0.07, window=[700000.0, 700069.93], forecast_offsets=[700070.0, 700070.07],
                  prediction_interval=[700070.14, 700070.14])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("h", [0.07, 0.1])
def test_far_gauss_design_gets_every_learning_row(h, monkeypatch):
    """200 window points from lattice index 123456789, offsets at +200 and
    +201, the one prediction point at +202, every time built as k * h: the
    design spans 3 lattice points, so the point gets 198 rows."""
    k0 = 123456789
    config = preset_config("gauss_extrap")
    config.update(h=h, window=[k0 * h, (k0 + 199) * h],
                  forecast_offsets=[(k0 + 200) * h, (k0 + 201) * h],
                  prediction_interval=[(k0 + 202) * h, (k0 + 202) * h])
    assert [y.size for _, y in learning_rows(config, monkeypatch)] == [198]
