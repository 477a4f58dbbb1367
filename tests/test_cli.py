import copy
import csv
import json
import math

import numpy as np
import pytest

from bubblelab import cli
from bubblelab.asymptotics import Annulus
from bubblelab.bubbles import DIMS4
from bubblelab.solver import solve_radial

DEMO = {
    "schema": "bubblelab-config/1",
    "dims": 4,
    "coupling": {
        "mu": [1.0, 2.0, 1.0],
        "beta": [
            [0.0, -0.5, -0.1],
            [-0.5, 0.0, -0.1],
            [-0.1, -0.1, 0.0],
        ],
        "decomposition": [0, 2, 3],
    },
    "domain": {
        "radius": 1.0,
        "holes": [
            {"center": [0.3, 0.0, 0.0, 0.0], "radius_coeff": 1.0},
            {"center": [-0.3, 0.0, 0.0, 0.0], "radius_coeff": 1.0},
        ],
    },
    "reduction": {"eta": 1e-3},
    "tasks": ["c-vector", "spectrum", "reduced-energy", "critical-point"],
}

PAIR = {
    "schema": "bubblelab-config/1",
    "dims": 4,
    "coupling": {
        "mu": [1.0, 2.0],
        "beta": [[0.0, -0.5], [-0.5, 0.0]],
        "decomposition": [0, 2],
    },
    "domain": {
        "radius": 1.0,
        "holes": [{"center": [0.3, 0.0, 0.0, 0.0], "radius_coeff": 1.0}],
    },
    "tasks": ["c-vector", "spectrum"],
}

SWEEP = {
    "schema": "bubblelab-config/1",
    "dims": 4,
    "coupling": {"mu": [1.0], "beta": [[0.0]], "decomposition": [0, 1]},
    "domain": {
        "radius": 1.0,
        "holes": [{"center": [0.0, 0.0, 0.0, 0.0], "radius_coeff": 1.0}],
    },
    "reduction": {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": 8}},
    "tasks": [
        "c-vector",
        "spectrum",
        "reduced-energy",
        "critical-point",
        "scaling-checks",
        "radial-sweep",
    ],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def load_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def strip_timings(summary):
    clone = copy.deepcopy(summary)
    for t in clone["tasks"]:
        t.pop("time_s")
    return clone


# ---------------------------------------------------------------- validation


def test_validate_accepts_demo(tmp_path, capsys):
    code = cli.main(["validate", write_config(tmp_path, DEMO)])
    assert code == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_rejects_asymmetric_beta(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["beta"] = [[0.0, -0.5], [-0.4, 0.0]]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    assert code == 1
    assert "beta must be symmetric" in capsys.readouterr().err


def test_validate_rejects_hole_touching_boundary(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR)
    cfg["domain"]["holes"] = [{"center": [1.0, 0.0, 0.0, 0.0], "radius_coeff": 1.0}]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    assert code == 1
    assert "boundary" in capsys.readouterr().err


def test_validate_warns_on_inadmissible_beta(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["beta"] = [[0.0, 1.5], [1.5, 0.0]]  # inside (min mu, max mu)
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 0  # warning does not block
    assert "warning[coupling.beta[0][1]]" in captured.err
    assert "admissible" in captured.err


def test_validate_rejects_unknown_task_and_missing_prerequisite(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR)
    cfg["tasks"] = ["spectrum", "frobnicate"]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown task 'frobnicate'" in err
    assert "'spectrum' requires 'c-vector'" in err


def test_validate_rejects_offcenter_sweep(tmp_path, capsys):
    cfg = copy.deepcopy(SWEEP)
    cfg["domain"]["holes"][0]["center"] = [0.2, 0.0, 0.0, 0.0]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    assert code == 1
    assert "single centered hole" in capsys.readouterr().err


def test_validate_rejects_duplicate_holes(tmp_path, capsys):
    cfg = copy.deepcopy(DEMO)
    cfg["domain"]["holes"][1]["center"] = [0.3, 0.0, 0.0, 0.0]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    assert code == 1
    assert "disjoint" in capsys.readouterr().err


def test_validate_rejects_schema_mismatch_and_malformed_file(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR)
    cfg["schema"] = "bubblelab-config/999"
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 1
    assert "schema" in capsys.readouterr().err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["validate", str(bad)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_validate_rejects_hole_group_mismatch(tmp_path, capsys):
    cfg = copy.deepcopy(DEMO)
    cfg["domain"]["holes"] = cfg["domain"]["holes"][:1]
    code = cli.main(["validate", write_config(tmp_path, cfg)])
    assert code == 1
    assert "one hole per group" in capsys.readouterr().err


def _parse_with(path, value):
    cfg = copy.deepcopy(DEMO)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cli.parse_config(cfg)


@pytest.mark.parametrize("path, value, field_name", [
    (("reduction",), 5, "reduction"),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": 10**12}},
     "reduction.epsilon_grid"),
    (("coupling", "decomposition"), [], "coupling"),
    (("scaling",), {"single": 5}, "scaling.single"),
    (("reduction",), {"n_nodes": 10**15}, "reduction.n_nodes"),
    (("reduction",), {"n_nodes": cli.MAX_NODES + 1}, "reduction.n_nodes"),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "n": 1200}]}, "scaling.pair[0]"),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "n": 0}]}, "scaling.pair[0]"),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "n": 7.5}]}, "scaling.pair[0]"),
    (("domain", "center"), ["a", "b", "c"], "domain.center"),
    (("domain", "center"), {"x": 1}, "domain.center"),
    (("domain", "center"), [10**400, 0, 0, 0], "domain.center"),
    (("domain", "center"), [float("nan"), 0, 0, 0], "domain.center"),
    pytest.param(("domain", "radius"), 10**400, "domain.radius", id="radius-10**400"),
    pytest.param(("domain", "holes", 0, "radius_coeff"), 10**400, "domain.holes[0]",
                 id="radius_coeff-10**400"),
    (("domain", "holes", 0, "center"), [10**400, 0, 0, 0], "domain.holes[0]"),
    (("domain", "holes", 1), [0.3, 0, 0, 0], "domain.holes[1]"),
    # inside the ball, but too close to its boundary or too large at eps = 1e-2
    (("domain", "holes", 1), {"center": [0.995, 0, 0, 0], "radius_coeff": 1}, "domain.holes"),
    (("domain", "holes", 0), {"center": [0, 0, 0, 0], "radius_coeff": 60}, "domain.holes"),
    (("reduction",), {"epsilon_grid": [10**400, 1e-3]}, "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": [float("inf"), 1e-3]}, "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": float("inf"), "stop": 1e-4, "num": 8}},
     "reduction.epsilon_grid"),
    # booleans and numeric strings are not numbers
    (("domain", "radius"), True, "domain.radius"),
    (("domain", "radius"), "2", "domain.radius"),
    (("domain", "center"), ["0", "0", "0", "0"], "domain.center"),
    (("domain", "center"), [True, 0, 0, 0], "domain.center"),
    (("domain", "holes", 0, "center"), ["0.3", 0, 0, 0], "domain.holes[0]"),
    (("domain", "holes", 0, "center"), [0.3, False, 0, 0], "domain.holes[0]"),
    (("domain", "holes", 0, "radius_coeff"), "2", "domain.holes[0]"),
    (("domain", "holes", 0, "radius_coeff"), True, "domain.holes[0]"),
    (("domain", "holes", 0, "radius_coeff"), None, "domain.holes[0]"),
    (("reduction",), {"n_nodes": 2000.5}, "reduction.n_nodes"),
    (("reduction",), {"n_nodes": True}, "reduction.n_nodes"),
    (("reduction",), {"n_nodes": "2000"}, "reduction.n_nodes"),
    (("reduction",), {"n_nodes": float("nan")}, "reduction.n_nodes"),
    (("reduction",), {"n_nodes": 10**400}, "reduction.n_nodes"),
    (("reduction",), {"epsilon_grid": ["1e-2", "1e-3"]}, "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": [True, 1e-3]}, "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": "0.01", "stop": 1e-4, "num": 8}},
     "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": "8"}},
     "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": 8.7}},
     "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": True}},
     "reduction.epsilon_grid"),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "num": 8}}, "reduction.epsilon_grid"),
    (("reduction",), {"eta": True}, "reduction.eta"),
    (("coupling", "decomposition"), [0, 1.7, 3], "coupling"),
    (("coupling", "decomposition"), [0, True, 3], "coupling"),
    (("coupling", "decomposition"), [0, "2", 3], "coupling"),
    (("coupling", "mu"), ["1", "2", "1"], "coupling"),
    (("coupling", "mu"), [True, 2.0, 1.0], "coupling"),
    (("coupling", "mu"), 1.0, "coupling"),
    (("coupling", "beta"), [[0.0, "-0.5", -0.1], [-0.5, 0.0, -0.1], [-0.1, -0.1, 0.0]],
     "coupling"),
    (("coupling", "beta"), [[0.0, -0.5], [-0.5, 0.0, -0.1], [-0.1, -0.1, 0.0]],
     "coupling.beta"),
    (("scaling",), {"single": [{"q": True}]}, "scaling.single[0]"),
    (("scaling",), {"single": [{"q": "2"}]}, "scaling.single[0]"),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "n": "7"}]}, "scaling.pair[0]"),
])
def test_parse_reports_malformed_field(path, value, field_name):
    config, diags = _parse_with(path, value)
    assert config is None
    assert field_name in {d.field for d in diags if d.level == "error"}


@pytest.mark.parametrize("path, value", [
    (("reduction",), {"n_nodes": cli.MAX_NODES}),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "n": 4}, {"q1": 1, "q2": 1, "n": 27}]}),
    (("reduction",), {"n_nodes": 2000.0}),
    (("reduction",), {"n_nodes": float(cli.MAX_NODES)}),
    (("domain", "radius"), 2),
    (("domain", "center"), [0, 0, 0, 0]),
    (("domain", "holes", 0, "radius_coeff"), 2),
    (("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-4, "num": 8.0}}),
    (("coupling", "decomposition"), [0.0, 2.0, 3]),
    (("coupling", "mu"), [1, 2, 1]),
    (("scaling",), {"single": [{"q": 1}], "pair": [{"q1": 2, "q2": 2, "n": 7.0}]}),
])
def test_parse_accepts_limits(path, value):
    config, diags = _parse_with(path, value)
    assert config is not None, diags


def test_parse_stores_integral_float_n_nodes_as_int():
    config, _ = _parse_with(("reduction",), {"n_nodes": 2000.0})
    assert type(config.n_nodes) is int and config.n_nodes == 2000


# ----------------------------------------------------------------- csv writer


def _csv_writer_oracle(path, header, columns):
    """The CLI's former writer: csv.writer over rows of f"{v:.12e}"
    strings, with integer columns passed through as ints."""
    ints = [np.asarray(c).dtype.kind in "iu" for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [int(v) if is_int else f"{v:.12e}" for v, is_int in zip(row, ints)]
            for row in zip(*columns)
        )


def _wide_floats(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


_B = cli.CSV_BLOCK_ROWS


def _decimal_ties(n, seed):
    """Doubles nearest to 14-digit decimals ending in 5 (the %.12e rounding
    ties) and their neighbours, and doubles that are such ties exactly:
    integers below 2^53, and odd / 2^j where odd * 5^j has 14 digits."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(10**12, 10**13, n) * 10 + 5
    exps = rng.integers(-300, 290, n)
    near = np.array([float(f"{d}e{k}") for d, k in zip(digits.tolist(), exps.tolist())])
    dyadic = [
        odd / 2**j
        for j in range(1, 20)
        for odd in rng.integers(-(-10**13 // 5**j), 10**14 // 5**j, n // 20) | 1
        if len(str(odd * 5**j)) == 14
    ]
    ints = (10 * rng.integers(10**12, 9 * 10**12, n) + 5) * 10 ** rng.integers(0, 3, n)
    return np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf),
                           dyadic, ints.astype(float)])


_POWERS = np.array([float(f"1e{k}") for k in range(-307, 309)])
KERNEL_VALUES = {  # tiled past one block, they reach the kernel
    "decimal_ties": _decimal_ties(4000, 11),
    "carry": np.array([9.9999999999995e5, 9.99999999999949e5, 9.9999999999995e-5,
                       -9.9999999999995e5, 9.9999999999995e99, 9.9999999999995e-101]),
    "three_digit_exponents": np.random.default_rng(12).standard_normal(6000)
    * 10.0 ** np.concatenate([np.arange(100, 300), -np.arange(100, 300)]).repeat(15),
    "powers_of_ten": np.concatenate([_POWERS, -_POWERS, np.nextafter(_POWERS, 0),
                                     np.nextafter(_POWERS, np.inf)]),
    "extremes": np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          2.225073858507201e-308, 1.7976931348623157e308,
                          -1.7976931348623157e308, np.nan, np.inf, -np.inf]),
}


def _tiled(values, ncols):
    """`values` repeated into ncols columns of more than one block."""
    rows = max(_B + 500, -(-values.size // ncols))
    return [f"c{j}" for j in range(ncols)], list(np.resize(values, (ncols, rows)))


CSV_CASES = {
    "header_only": (["radius", "value"], [np.array([]), np.array([])]),
    "one_row": (["radius", "value"], [np.array([0.5]), np.array([-2.25])]),
    "one_block": (["radius", "value"], [_wide_floats(_B, 1), _wide_floats(_B, 2)]),
    "block_plus_one": (["delta", "value", "bound"],
                       [_wide_floats(_B + 1, 3), _wide_floats(_B + 1, 4),
                        _wide_floats(_B + 1, 5)]),
    "mixed_int_float": (["epsilon", "delta_est", "iterations"],
                        [_wide_floats(2 * _B + 3, 6), _wide_floats(2 * _B + 3, 7),
                         np.arange(2 * _B + 3) % 50]),
    "sweep_rate_lists": (["epsilon", "energy", "iterations"],
                         [np.geomspace(1e-2, 1e-4, 8), [0.1 * k for k in range(8)],
                          [3, 4, 5, 6, 7, 8, 9, 10]]),
    "special_values": (["x", "y"],
                       [np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324]),
                        np.array([1.7976931348623157e308, -1e-300, 0.0, 1.0, -np.inf,
                                  np.nan])]),
    # integers above 2^53 next to a float column, below and above the
    # _E12_MIN_VALUES cutoff
    "big_ints_small_table": (["x", "n"], [np.array([0.5, -1.5]),
                                          np.array([2**53 + 1, 2**63 - 1])]),
    "big_ints_one_block": (["x", "n", "y"],
                           [_wide_floats(300, 8), 2**53 + 1 + np.arange(300) * 3,
                            _wide_floats(300, 9)]),
    **{f"{name}_{ncols}col": _tiled(values, ncols)
       for name, values in KERNEL_VALUES.items() for ncols in (1, 2, 3)},
}


def _assert_same_bytes(tmp_path, header, columns):
    cli._write_csv(tmp_path / "new.csv", header, columns)
    _csv_writer_oracle(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_write_csv_matches_csv_writer_bytes(tmp_path, case):
    _assert_same_bytes(tmp_path, *CSV_CASES[case])


def test_write_csv_exact_with_double_precision_scales(tmp_path, monkeypatch):
    # where np.longdouble is a plain double, the kernel uses float64 scales
    # and a 0.25 margin: half the values go to `%`, the bytes stay the same
    eps = float(np.finfo(np.float64).eps)
    monkeypatch.setattr(cli, "_E12_SCALES", cli._e12_scales(np.float64))
    monkeypatch.setattr(cli, "_E12_TIE_MARGIN", 64 * eps * 2.0**44)
    values = np.concatenate([*KERNEL_VALUES.values(), _wide_floats(20_000, 14)])
    _assert_same_bytes(tmp_path, ["x", "y"], list(np.resize(values, (2, values.size // 2))))


def _bit_pattern_floats():
    st = pytest.importorskip("hypothesis").strategies
    return st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64)))


def test_write_csv_kernel_property(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    block = cli.CSV_BLOCK_ROWS

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        pool=st.lists(st.floats(width=64) | _bit_pattern_floats(), min_size=1, max_size=50),
        ncols=st.integers(1, 3),
        rows=st.sampled_from([1, 85, 86, 127, 128, 129, 256, block - 1, block, block + 1,
                              block + 85, block + 86, block + 128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(pool, ncols, rows, seed):
        values = np.random.default_rng(seed).choice(np.array(pool), rows * ncols)
        tmp_path = tmp_path_factory.mktemp("csv")
        _assert_same_bytes(tmp_path, ["a", "b", "c"][:ncols], list(values.reshape(ncols, -1)))

    check()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is a plain double: half the values go to `%`")
@pytest.mark.parametrize("case", ["solution_profile", "powers_of_ten"])
def test_kernel_formats_the_values_itself(case):
    # the `%` fallback keeps the bytes right whatever the tie margin or the
    # exponent fix-up do, so only this share shows that the kernel does the
    # work: at least 99.9% of a 20k-node profile, and of the powers of ten,
    # half of which need the fix-up of log10's exponent
    if case == "solution_profile":
        res = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2, n_nodes=20_000)
        values = np.concatenate([res.grid.nodes, res.grid.values])
    else:
        values = KERNEL_VALUES[case]
    out = np.zeros((len(values), cli._E12_WORDS), np.uint32)
    left = cli._e12_kernel(values, out)
    assert left.mean() <= 1e-3, int(left.sum())


# ----------------------------------------------------------------- pipeline


def test_demo_pipeline_reports_and_exit(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, DEMO), "--out", str(out),
                     "--seed", "42"])
    summary = load_summary(out)
    # amplitude closed form flows through the pipeline
    groups = summary["tasks"][0]["outputs"]["groups"]["value"]
    np.testing.assert_allclose(
        groups[0]["c_squared"], [10.0 / 7.0, 6.0 / 7.0], rtol=1e-12
    )
    np.testing.assert_allclose(groups[1]["c"], [1.0], rtol=1e-12)
    # second coupling eigenvalue 37/7 sits above the certified ladder prefix,
    # so the spectrum stage reports inconclusive and the run exits 2
    spectrum = summary["tasks"][1]
    lam = spectrum["outputs"]["groups"]["value"][0]["lambdas"]
    np.testing.assert_allclose(sorted(lam), [3.0, 37.0 / 7.0], rtol=1e-12)
    assert spectrum["verdict"] == "inconclusive"
    assert "lambda_2 = 5.28571" in spectrum["message"]
    assert code == 2 and summary["exit_code"] == 2
    # the critical point is still reported downstream
    cp = summary["tasks"][3]
    assert cp["verdict"] == "pass"
    assert all(d > 0 for d in cp["outputs"]["d_tilde"]["value"])
    assert cp["outputs"]["signature_ok"]["value"] is True


def test_degenerate_coupling_exits_two_with_message(tmp_path):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["beta"] = [[0.0, 1.0], [1.0, 0.0]]  # beta_12 = mu_1
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    summary = load_summary(out)
    assert code == 2
    assert summary["verdict"] == "degenerate"
    assert "degenerate: lambda_2 = 1" in summary["tasks"][1]["message"]


def test_cooperative_coupling_exits_zero(tmp_path):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["beta"] = [[0.0, 3.0], [3.0, 0.0]]
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    summary = load_summary(out)
    assert code == 0
    assert summary["verdict"] == "pass"
    lam = summary["tasks"][1]["outputs"]["groups"]["value"][0]["lambdas"]
    np.testing.assert_allclose(sorted(lam), [3.0 / 7.0, 3.0], rtol=1e-12)


def test_empty_task_list_exits_zero(tmp_path):
    cfg = copy.deepcopy(PAIR)
    cfg["tasks"] = []
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    summary = load_summary(out)
    assert code == 0
    assert summary["tasks"] == []
    assert summary["verdict"] == "pass"


def test_run_with_invalid_config_exits_one(tmp_path):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["mu"] = [1.0, -2.0]
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    assert not (out / "summary.json").exists()


# ----------------------------------------------------------------- artifacts


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    out = tmp_path / "out"
    code = cli.main(["run", write_config(tmp_path, SWEEP), "--out", str(out),
                     "--seed", "7"])
    return code, out


def test_full_run_passes_and_writes_artifacts(sweep_run):
    code, out = sweep_run
    assert code == 0
    summary = load_summary(out)
    assert [t["verdict"] for t in summary["tasks"]] == ["pass"] * 6
    assert (out / "sweep_rate.csv").exists()
    profiles = sorted(out.glob("profile_*.csv"))
    assert len(profiles) == 8
    scalings = sorted(out.glob("scaling_*.csv"))
    assert len(scalings) == 3
    header = (out / "sweep_rate.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["epsilon", "delta_est", "d_est"]
    body = profiles[0].read_text().splitlines()
    assert body[0] == "radius,value"
    assert len(body) > 1000  # full solution profile exported


def test_profile_csv_reads_back_the_solution(sweep_run):
    # the first sweep solve starts from the bubble ansatz, as a fresh solve does
    _, out = sweep_run
    table = np.loadtxt(out / "profile_1.000e-02.csv", delimiter=",", skiprows=1)
    res = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2)
    np.testing.assert_allclose(table[:, 0], res.grid.nodes, rtol=1e-12)
    np.testing.assert_allclose(table[:, 1], res.grid.values, rtol=1e-12)


def test_sweep_task_agrees_with_rate_prediction(sweep_run):
    _, out = sweep_run
    summary = load_summary(out)
    sweep = summary["tasks"][5]["outputs"]
    assert abs(sweep["slope"]["value"] - 0.5) < 0.05
    assert abs(sweep["d_final"]["value"] / sweep["d_tilde"]["value"] - 1) < 0.2
    fams = summary["tasks"][4]["outputs"]["families"]["value"]
    for fam in fams:
        assert fam["verdict"] == "pass"
        assert abs(fam["exponent_measured"] - fam["exponent_predicted"]) < 0.25


def test_every_reported_numeric_carries_provenance(sweep_run):
    _, out = sweep_run
    summary = load_summary(out)
    assert summary["seed"] == 7
    for task in summary["tasks"]:
        assert task["module"]
        assert task["operation"]
        for name, payload in task["outputs"].items():
            assert set(payload) == {"value", "module", "operation"}, name


def test_reports_deterministic_given_seed(tmp_path):
    cfg_path = write_config(tmp_path, DEMO)
    outs = []
    for k, seed in enumerate(["11", "11", "12"]):
        out = tmp_path / f"out{k}"
        assert cli.main(["run", cfg_path, "--out", str(out), "--seed", seed]) == 2
        outs.append(strip_timings(load_summary(out)))
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]  # the seeded gradient probe moves
    # but the deterministic verdicts and closed forms do not
    assert outs[0]["verdict"] == outs[2]["verdict"]
    assert outs[0]["tasks"][3] == outs[2]["tasks"][3]


def test_output_dir_from_config(tmp_path):
    cfg = copy.deepcopy(PAIR)
    cfg["coupling"]["beta"] = [[0.0, 3.0], [3.0, 0.0]]
    cfg["output"] = {"dir": str(tmp_path / "from_config")}
    code = cli.main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    assert (tmp_path / "from_config" / "summary.json").exists()
