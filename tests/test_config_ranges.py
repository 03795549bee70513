"""The range rule of every config field, walked value by value on both paths.

Each field whose type hint carries a range rule (``Annotated[T, rule]``,
``errors.checked``) is set, alone, to values just inside and just outside
each of its bounds, and to NaN and the infinities where it is real. Read
from a preset's JSON through ``spec_from_dict``, a refused value raises
``ConfigError`` naming the dotted key (``process.innovation`` for a
parameter of the innovation law, whose message names the parameter); set
in Python with ``dataclasses.replace``, it raises ``ConfigError`` (the spec)
or ``DomainError`` (any other class) naming the field. Whether each value is
accepted is written out below, so a change to a rule shows here.

A second test keeps every numeric or list field of a config class under a
range decision: a rule in its hint, or a place on ``NO_RULE``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from importlib import resources
from typing import Annotated, get_args, get_origin

import pytest

from tailcast.distributions import _FAMILIES, Gaussian, from_json
from tailcast.errors import ConfigError, DomainError, field_hints
from tailcast.harness import ExperimentSpec, spec_from_dict
from tailcast.objective import ObjectiveSpec
from tailcast.optimize import DescentConfig
from tailcast.processes import ArStudentT, ProcessSpec, StableMovingAverage
from tailcast.rng import RngStream

nan, inf = math.nan, math.inf
MAX = sys.float_info.max
TINY = sys.float_info.min  # the smallest normal float


def below(x):
    return math.nextafter(x, -inf)


def above(x):
    return math.nextafter(x, inf)


# (where the field lives, field): [(value, accepted)]
WALK = {
    ("spec", "h"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True), (nan, False),
        (inf, False), (-inf, False)],
    ("spec", "window"): [([0.0, 0.0], True), ([0.0, -5e-324], False), ([5e-324, 0.0], False),
        ([0.0], False), ([0.0, 0.0, 0.0], False), ([], False), ([nan, 0.0], False),
        ([0.0, inf], False), ([-inf, 0.0], False), ([-1.0, 0.0], True)],
    ("spec", "forecast_offsets"): [([0.0], True), ([], False), ([nan], False), ([inf], False),
        ([-inf], False), ([0.0, nan], False)],
    ("spec", "prediction_interval"): [([0.0, 0.0], True), ([0.0, -5e-324], False),
        ([5e-324, 0.0], False), ([0.0], False), ([0.0, 0.0, 0.0], False), ([], False),
        ([nan, 0.0], False), ([0.0, inf], False), ([-inf, 0.0], False)],
    ("spec", "gamma"): [(-5e-324, False), (0.0, True), (MAX, True), (nan, False), (inf, False),
        (-inf, False)],
    ("spec", "marginal_family"): [("gaussian", True), ("cauchy", True), ("levy", True),
        ("student_t", True), (None, True), ("foo", False), ("", False), ("Gaussian", False)],
    ("spec", "max_rows"): [(0, False), (1, True), (None, True)],
    ("spec", "replicates"): [(0, False), (1, True)],
    ("spec", "seed"): [(-1, False), (0, True), (2**64 - 1, True), (2**64, False)],
    ("spec", "init_count"): [(0, False), (1, True)],
    ("online descent", "a"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("online descent", "b"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("online descent", "beta"): [(0.5, False), (above(0.5), True), (1.0, True),
        (above(1.0), False), (nan, False), (inf, False), (-inf, False)],
    ("online descent", "max_iter"): [(0, False), (1, True)],
    ("online descent", "tol"): [(-5e-324, False), (0.0, True), (MAX, True), (nan, False),
        (inf, False), (-inf, False)],
    ("online descent", "radius"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True),
        (nan, False), (inf, True), (-inf, False)],
    ("online descent", "trace_stride"): [(0, False), (1, True)],
    ("batch descent", "beta"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("objective", "gamma"): [(-5e-324, False), (0.0, True), (MAX, True), (nan, False),
        (inf, False), (-inf, False)],
    ("stable_ma", "alpha"): [(below(0.5), False), (0.5, True), (above(0.5), False),
        (below(1.0), False), (1.0, True), (above(1.0), False), (nan, False), (inf, False),
        (-inf, False)],
    ("ar", "phi"): [([0.5], True), ([], False), ([nan], False), ([inf], False), ([-inf], False),
        ([0.5, nan], False)],
    ("rng", "seed"): [(-1, False), (0, True), (2**64 - 1, True), (2**64, False)],
    ("rng", "stream"): [(-1, False), (0, True), (2**64 - 1, True), (2**64, False)],
    ("gaussian", "mu"): [(-MAX, True), (MAX, True), (nan, False), (inf, False), (-inf, False)],
    ("gaussian", "sigma"): [(0.0, False), (below(TINY), False), (TINY, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("cauchy", "mu"): [(-MAX, True), (MAX, True), (nan, False), (inf, False), (-inf, False)],
    ("cauchy", "sigma"): [(0.0, False), (below(TINY), False), (TINY, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("student_t", "mu"): [(-MAX, True), (MAX, True), (nan, False), (inf, False), (-inf, False)],
    ("student_t", "sigma"): [(0.0, False), (below(TINY), False), (TINY, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],
    ("levy", "c"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True), (nan, False),
        (inf, False), (-inf, False)],
    ("student_t", "nu"): [(-5e-324, False), (0.0, False), (5e-324, True), (MAX, True),
        (nan, False), (inf, False), (-inf, False)],

}

# where a field lives -> its class
CLASS = {"spec": ExperimentSpec, "online descent": DescentConfig, "batch descent": DescentConfig,
         "objective": ObjectiveSpec, "stable_ma": StableMovingAverage, "ar": ArStudentT,
         "rng": RngStream, **{family: cls for family, cls in _FAMILIES.items()}}

# The spec's fields are set on a one-point geometry (h = 1; window, forecast
# sample and prediction interval all at t = 0), so that no cross-key rule of
# the geometry decides a value of h or of a time
ONE_POINT = {"h": 1.0, "window": [0.0, 0.0], "forecast_offsets": [0.0],
             "prediction_interval": [0.0, 0.0]}


def preset_config(preset: str) -> dict:
    return json.loads(resources.files("tailcast").joinpath(f"presets/{preset}.json").read_text())


def base_config(where: str) -> dict:
    """The preset config a field of ``where`` is set in, as JSON data."""
    if where == "spec":
        return {**preset_config("gauss_extrap"), **ONE_POINT}
    if where.endswith("descent"):
        config = preset_config("gauss_extrap")
        config["descent"]["mode"] = where.split()[0]
        return config
    return preset_config("cauchy_extrap" if where == "stable_ma" else "ar3")


def json_case(where, key, value):
    """The config with ``key`` of ``where`` set to ``value`` and the dotted
    key a refusal names; None for a class no config holds."""
    if where in ("objective", "rng"):
        return None
    config = base_config(where)
    if where == "spec":
        config[key] = value
        return config, key
    if where.endswith("descent"):
        config["descent"][key] = value
        return config, f"descent.{key}"
    if where in _FAMILIES:
        config["process"]["innovation"] = {"family": where, "params": {key: value}}
        return config, "process.innovation"
    config["process"][key] = value
    return config, f"process.{key}"


def python_base(where):
    """The object of ``where`` a field is replaced in."""
    if where == "objective":
        return ObjectiveSpec("Q3", Gaussian())
    if where == "rng":
        return RngStream(0)
    if where in _FAMILIES:
        return from_json({"family": where})
    spec = spec_from_dict(base_config(where))
    return spec if where == "spec" else spec.descent if where.endswith("descent") else spec.process


def cases(json_only=False):
    return [pytest.param(where, key, value, accepted, id=f"{where}.{key}={value!r}")
            for (where, key), walk in WALK.items() for value, accepted in walk
            if not json_only or json_case(where, key, value) is not None]


@pytest.mark.parametrize("where, key, value, accepted", cases(json_only=True))
def test_json_value_accepted_or_refused_by_its_dotted_key(where, key, value, accepted):
    config, dotted = json_case(where, key, value)
    config = json.loads(json.dumps(config))  # as a config file holds it: NaN, Infinity
    if accepted:
        spec_from_dict(config)
        return
    with pytest.raises(ConfigError) as err:
        spec_from_dict(config)
    assert err.value.key == dotted
    if where in _FAMILIES:
        assert f"{key} must be" in str(err.value)


@pytest.mark.parametrize("where, key, value, accepted", cases())
def test_python_value_accepted_or_refused_by_its_field(where, key, value, accepted):
    base = python_base(where)
    if accepted:
        built = replace(base, **{key: value})
        assert getattr(built, key) == (tuple(value) if isinstance(value, list) else value)
        return
    with pytest.raises(ConfigError if where == "spec" else DomainError) as err:
        replace(base, **{key: value})
    assert err.value.key == key


CONFIG_CLASSES = (ExperimentSpec, DescentConfig, ObjectiveSpec, *get_args(ProcessSpec),
                  *_FAMILIES.values(), RngStream)

# numeric fields with no range rule in their hint, each for a stated reason
NO_RULE = {
    (DescentConfig, "burn_in"),  # 0 <= burn_in < max_iter: a cross-key rule in __post_init__
}


def bare(hint):
    """``hint`` without ``Optional``."""
    args = get_args(hint)
    return next(a for a in args if a is not type(None)) if type(None) in args else hint


def ruled_fields() -> set:
    return {(cls, name) for cls in CONFIG_CLASSES for name, hint in field_hints(cls).items()
            if get_origin(bare(hint)) is Annotated}


def test_walk_covers_every_field_with_a_rule():
    assert {(CLASS[where], key) for where, key in WALK} == ruled_fields()


def test_every_numeric_field_has_a_range_decision():
    """A new int, float or list field needs a rule in its hint or a place,
    with its reason, on ``NO_RULE``."""
    undecided = {(cls, name) for cls in CONFIG_CLASSES for name, hint in field_hints(cls).items()
                 if bare(hint) in (int, float, tuple)}
    assert undecided == NO_RULE
