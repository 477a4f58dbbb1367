"""Property test: whatever JSON value sits in the reduction, its n_nodes,
the coupling decomposition, mu or beta, the scaling field, the domain, its
center or its holes, `parse_config` returns a config or diagnostics and never
raises."""

import pytest

from test_cli import _parse_with

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# keys the parser looks up, so generated objects reach the nested checks
KEYS = ("single", "weighted", "pair", "q", "q1", "q2", "nu1", "nu2", "n",
        "separation", "eta", "epsilon_grid", "n_nodes", "start", "stop", "num",
        "center", "radius_coeff", "holes", "radius")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    path=st.sampled_from([("reduction",), ("reduction", "n_nodes"),
                          ("coupling", "decomposition"), ("coupling", "mu"),
                          ("coupling", "beta"), ("scaling",), ("domain",),
                          ("domain", "center"), ("domain", "holes")]),
    value=JSON_VALUES,
)
def test_parse_config_never_raises(path, value):
    config, diags = _parse_with(path, value)
    assert (config is None) == any(d.level == "error" for d in diags)
