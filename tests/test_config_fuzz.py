"""Property: the config boundary lets nothing escape.

One key of a preset, top-level or inside ``process`` or ``descent``, is set
to an arbitrary JSON value (NaN, infinities and integers beyond the float
range included, as Python's ``json`` reads them). ``spec_from_dict`` must
then build the spec, or raise ``ConfigError`` naming that key or a key
inside it; any other exception fails. The geometry keys are checked
together (every time a multiple of ``h``, a window that holds the design
span, enough window points to estimate a marginal), so a check across them
names the key it finds short, not always the one that changed: a geometry
key may be named by any key of ``GEOMETRY``. And ``tailcast fit`` on that
config must exit 2 or get as far as simulating the training trajectory:
nothing the boundary accepts fails before the work starts. Derandomized,
so every run draws the same examples.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tailcast.harness  # noqa: E402
from tailcast.cli import PRESETS, run  # noqa: E402
from tailcast.errors import ConfigError  # noqa: E402
from tailcast.harness import spec_from_dict  # noqa: E402

SECTIONS = ("top", "process", "descent")
GEOMETRY = {"h", "window", "forecast_offsets", "prediction_interval", "marginal_mode",
            "marginal_family"}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)


def preset_config(preset: str) -> dict:
    return json.loads(resources.files("tailcast").joinpath(f"presets/{preset}.json").read_text())


def mutated_config(preset, section, data):
    """A preset with one key, drawn from ``section``, set to any JSON value,
    and that key's dotted name. (The first test spells the same draws out: a
    derandomized test draws its examples from a seed hashed from its source.)"""
    config = preset_config(preset)
    target = config if section == "top" else config[section]
    name = data.draw(st.sampled_from(sorted(target)), label="key")
    value = data.draw(JSON_VALUES, label="value")
    mutated = copy.deepcopy(config)
    (mutated if section == "top" else mutated[section])[name] = value
    return mutated, name if section == "top" else f"{section}.{name}"


def assert_names(exc, key):
    """``exc`` names ``key`` or a key inside it, or, for a geometry key, any
    geometry key."""
    if key in GEOMETRY:
        assert exc.key in GEOMETRY, exc
    else:
        assert exc.key == key or exc.key.startswith(key + "."), exc


@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_key_set_to_any_json_value_builds_or_names_the_key(preset, section, data):
    config = preset_config(preset)
    target = config if section == "top" else config[section]
    name = data.draw(st.sampled_from(sorted(target)), label="key")
    value = data.draw(JSON_VALUES, label="value")
    mutated = copy.deepcopy(config)
    (mutated if section == "top" else mutated[section])[name] = value
    key = name if section == "top" else f"{section}.{name}"
    try:
        spec_from_dict(mutated)
    except ConfigError as exc:
        assert_names(exc, key)


@pytest.mark.parametrize("preset, key, value, named", [
    ("gauss_interp", "forecast_offsets", [0], "window"),  # span 0..35 in a 0..29.98 window
    ("gauss_extrap", "h", 0.03, "forecast_offsets"),  # 30.1 is no multiple of 0.03
])
def test_geometry_key_named_by_another_geometry_key(preset, key, value, named):
    config = preset_config(preset)
    config[key] = value
    with pytest.raises(ConfigError) as err:
        spec_from_dict(config)
    assert err.value.key == named
    assert_names(err.value, key)


class Simulated(Exception):
    """Raised in place of simulating: the run got past the boundary."""


def _simulated(spec):
    raise Simulated


@pytest.mark.parametrize("section", SECTIONS)
@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fit_on_one_key_set_to_any_json_value_exits_2_or_simulates(preset, section, data):
    mutated, _ = mutated_config(preset, section, data)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(tailcast.harness, "_simulate_training", _simulated)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutated, fh)
        try:
            code = run(["fit", "--config", path, "--out", os.path.join(tmp, "out")])
        except Simulated:
            return
        assert code == 2
