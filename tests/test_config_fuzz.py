"""Property: the config boundary lets nothing escape.

One key of a preset, top-level or inside ``process`` or ``descent``, is set
to an arbitrary JSON value (NaN, infinities and integers beyond the float
range included, as Python's ``json`` reads them). ``spec_from_dict`` must
then build the spec, or raise ``ConfigError`` naming that key or a key
inside it; any other exception fails. Derandomized, so every run draws the
same examples.
"""

from __future__ import annotations

import copy
import json
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailcast.cli import PRESETS  # noqa: E402
from tailcast.errors import ConfigError  # noqa: E402
from tailcast.harness import spec_from_dict  # noqa: E402

SECTIONS = ("top", "process", "descent")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)


def preset_config(preset: str) -> dict:
    return json.loads(resources.files("tailcast").joinpath(f"presets/{preset}.json").read_text())


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
        assert exc.key == key or exc.key.startswith(key + "."), exc
