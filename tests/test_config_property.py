"""Property test: whatever JSON value sits in place of any config object or
any of its keys (cli._OBJECTS), the scaling object or a scaling family entry
or parameter (cli._FAMILIES), `parse_config` returns a config or
diagnostics and never raises."""

import itertools

import pytest

from bubblelab import cli
from test_cli import EVERY_OBJECT, _moved, object_path

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# keys the parser looks up, so generated objects reach the nested checks
KEYS = tuple(dict.fromkeys(itertools.chain(
    *cli._OBJECTS.values(), cli._FAMILIES, *(family.params for family in cli._FAMILIES.values()))))


def _paths():
    """Each config object and each of its keys in EVERY_OBJECT: the rows of
    cli._OBJECTS, then each scaling family's list, entry and parameters."""
    for row, keys in cli._OBJECTS.items():
        yield object_path(row)
        yield from (object_path(row) + (key,) for key in keys)
    for kind, family in cli._FAMILIES.items():
        yield from [("scaling", kind), ("scaling", kind, 0)]
        yield from (("scaling", kind, 0, key) for key in family.params)


PATHS = tuple(dict.fromkeys(_paths()))   # "coupling" is a row and a top-level key

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(path=st.sampled_from(PATHS), value=JSON_VALUES)
def test_parse_config_never_raises(path, value):
    config, diags = cli.parse_config(_moved(EVERY_OBJECT, path, value))
    assert (config is None) == any(d.level == "error" for d in diags)
