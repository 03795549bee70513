"""Property: the config boundary lets nothing escape, from JSON or from Python.

One key of a preset, top-level or inside ``process`` or ``descent``, is set
to an arbitrary JSON value (NaN, infinities and integers beyond the float
range included, as Python's ``json`` reads them). ``spec_from_dict`` must
then build the spec, or raise ``ConfigError`` naming that key or a key
inside it; any other exception fails. Built in Python instead, one field of
a preset's spec, its descent or its process is set to an arbitrary Python
value (the JSON values, numpy scalars, tuples of either, or the preset's
own value carried in another type): building must raise ``ConfigError``
(the spec) or ``DomainError`` (the descent or process) naming that field,
or give a spec whose manifest, written as JSON and read back, is the same
spec. The geometry keys are checked together (every time a multiple of
``h``, a window that holds the design span, enough window points to
estimate a marginal), so a check across them names the key it finds short,
not always the one that changed: a geometry key may be named by any key of
``GEOMETRY``. And ``tailcast fit`` on that
config must exit 2 or get as far as simulating the training trajectory:
nothing the boundary accepts fails before the work starts. Derandomized,
so every run draws the same examples.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tailcast.harness  # noqa: E402
from tailcast.cli import PRESETS, run  # noqa: E402
from tailcast.errors import ConfigError, DomainError  # noqa: E402
from tailcast.harness import spec_from_dict, spec_to_dict  # noqa: E402

SECTIONS = ("top", "process", "descent")
GEOMETRY = {"h", "window", "forecast_offsets", "prediction_interval", "marginal_mode",
            "marginal_family"}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)
NUMPY_SCALARS = (st.booleans().map(np.bool_) | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.floats().map(np.float64) | st.floats(width=32).map(np.float32))
PYTHON_VALUES = (JSON_VALUES | NUMPY_SCALARS
                 | st.lists(JSON_VALUES | NUMPY_SCALARS, max_size=4).map(tuple))


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


def carried(value) -> list:
    """``value`` and the Python values that carry it in another type: a
    numpy scalar, an integer for a whole float, a list for a tuple."""
    if isinstance(value, tuple):
        return [value, list(value), tuple(np.float64(v) for v in value)]
    if isinstance(value, float):
        return [value, np.float64(value)] + ([int(value)] if value.is_integer() else [])
    if isinstance(value, int) and not isinstance(value, bool):
        return [value, np.int64(value), np.uint64(value)]
    return [value]


# a Gaussian process has no field to set
PYTHON_CASES = [(preset, section) for preset in PRESETS for section in SECTIONS
                if section != "process" or set(preset_config(preset)["process"]) - {"kind"}]


@pytest.mark.parametrize("preset, section", PYTHON_CASES)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_field_set_to_any_python_value_names_the_field_or_reloads(preset, section, data):
    spec = spec_from_dict(preset_config(preset))
    target = spec if section == "top" else getattr(spec, section)
    name = data.draw(st.sampled_from(sorted(f.name for f in fields(target))), label="field")
    value = data.draw(st.sampled_from(carried(getattr(target, name))) | PYTHON_VALUES,
                      label="value")
    try:
        if section == "top":
            built = replace(spec, **{name: value})
        else:
            built = replace(spec, **{section: replace(target, **{name: value})})
    except DomainError as exc:  # a descent or process field
        assert section != "top" and exc.key == name, exc
        return
    except ConfigError as exc:
        assert_names(exc, name if section == "top" else f"{section}.{name}")
        return
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(built)))) == built


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
