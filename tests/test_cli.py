import copy
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import bubblelab
from bubblelab import cli, solver
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


def _env_with_src():
    """The environment with this checkout's bubblelab first on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _variant(base, **blocks):
    """A deep copy of the config `base` with its top-level `blocks` replaced."""
    return copy.deepcopy(dict(base, **blocks))


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


@pytest.mark.parametrize("data", [
    b'\xff\xfe{"dims": 4}',                     # UTF-16 byte order mark: not UTF-8
    json.dumps(DEMO).encode("utf-16"),
    b"[" * 100_000 + b"]" * 100_000,             # nested deeper than the decoder goes
    b'{"dims": 4, "schema": ' * 2000 + b"0" + b"}" * 2000,
    b'{"dims": ' + b"1" * 5000 + b"}",           # more digits than int() converts
], ids=["ff-fe", "utf-16", "deep-list", "deep-object", "long-int"])
def test_undecodable_config_is_a_diagnostic(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[<file>]: malformed JSON: "), err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_is_read_as_utf8(tmp_path):
    # the file is opened as UTF-8, not in the locale's encoding: reading it
    # with the default encoding would raise the EncodingWarning made an error
    cfg = dict(copy.deepcopy(DEMO), note="\u03b5 \u2192 0, \U0001d11e")
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
    script = ("import sys, bubblelab.cli as cli; "
              "config, diags = cli.load_config(sys.argv[1]); "
              "print(ascii(config.raw['note']))")
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, str(path)],
        capture_output=True, text=True, env=_env_with_src())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ascii(cfg["note"])


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
    (("scaling",), {"pair": [{"q1": 2}]}, "scaling.pair[0]"),
    (("scaling",), {"weighted": [{"q": 4, "nu3": 1}]}, "scaling.weighted[0]"),
    # each kind's check in the library
    (("scaling",), {"single": [{"q": 0}]}, "scaling.single[0]"),
    (("scaling",), {"weighted": [{"q": 4, "nu2": 5}]}, "scaling.weighted[0]"),
    (("scaling",), {"pair": [{"q1": -1, "q2": 2}]}, "scaling.pair[0]"),
    (("scaling",), {"pair": [{"q1": 2, "q2": 2, "separation": 0}]}, "scaling.pair[0]"),
    # a list grid is capped like a start/stop/num one
    pytest.param(("reduction",), {"epsilon_grid": [1e-2 * 0.999**k for k in range(5000)]},
                 "reduction.epsilon_grid", id="eps-list-5000"),
    pytest.param(("reduction",), {"epsilon_grid": [1e-2 * 0.99**k for k in range(1001)]},
                 "reduction.epsilon_grid", id="eps-list-1001"),
    # values that one profile file name would hold twice
    pytest.param(("reduction",), {"epsilon_grid": [1e-3, 1e-3]},
                 "reduction.epsilon_grid", id="eps-list-repeat"),
    pytest.param(("reduction",), {"epsilon_grid": {"start": 1e-3, "stop": 1e-3, "num": 3}},
                 "reduction.epsilon_grid", id="eps-range-repeat"),
    pytest.param(("reduction",), {"epsilon_grid": [1e-3, 1.0001e-3, 5e-4]},
                 "reduction.epsilon_grid", id="eps-list-same-name"),
    # two families that one scaling CSV would hold
    pytest.param(("scaling",), {"single": [{"q": 1}, {"q": 1.0000001}]},
                 "scaling.single[1]", id="single-same-name"),
    pytest.param(("scaling",), {"pair": [{"q1": 1, "q2": 1},
                                         {"q1": 1, "q2": 1, "separation": 0.3}]},
                 "scaling.pair[1]", id="pair-same-name"),
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
    pytest.param(("reduction",), {"epsilon_grid": [1e-2 * 0.99**k for k in range(1000)]},
                 id="eps-list-1000"),
    # 1000 values a factor 1.0023 apart stay distinct at %.3e
    pytest.param(("reduction",), {"epsilon_grid": {"start": 1e-2, "stop": 1e-3, "num": 1000}},
                 id="eps-range-fine"),
])
def test_parse_accepts_limits(path, value):
    config, diags = _parse_with(path, value)
    assert config is not None, diags


def test_scaling_family_rejects_parameters_of_other_kinds():
    config, diags = _parse_with(("scaling",), {"single": [{"q": 1, "nu1": 2, "bogus": 3}]})
    assert config is None
    assert [str(d) for d in diags if d.level == "error"] == [
        "error[scaling.single[0]]: unknown parameter 'nu1'",
        "error[scaling.single[0]]: unknown parameter 'bogus'",
        "error[scaling]: no valid scaling families given",
    ]


def test_repeated_names_are_reported_with_the_earlier_entry():
    config, diags = _parse_with(("scaling",), {"pair": [{"q1": 1, "q2": 1},
                                                        {"q1": 1, "q2": 1, "separation": 0.3}]})
    assert config is None
    assert [str(d) for d in diags if d.level == "error"] == [
        "error[scaling.pair[1]]: family name 'pair_q1_1' is already taken by scaling.pair[0]",
    ]
    config, diags = _parse_with(("reduction",), {"epsilon_grid": [1e-3, 1.0001e-3, 5e-4]})
    assert config is None
    assert [str(d) for d in diags if d.level == "error"] == [
        "error[reduction.epsilon_grid]: values must be distinct at %.3e, the precision "
        "of the profile file names; 1.000e-03 repeats",
    ]


def test_scaling_family_defaults_are_filled_once():
    config, diags = _parse_with(("scaling",), {"weighted": [{"q": 4, "nu2": 2}],
                                               "pair": [{"q1": 2, "q2": 1}]})
    assert config is not None, diags
    assert config.scaling == (
        ("weighted", {"q": 4.0, "nu1": 0.0, "nu2": 2.0}),
        ("pair", {"q1": 2.0, "q2": 1.0, "separation": 0.5, "n": 7.0}),
    )
    assert [cli._FAMILIES[kind].name.format(**params) for kind, params in config.scaling] == [
        "weighted_q4_nu0_2", "pair_q2_1"]


@pytest.mark.parametrize("radius, separation, errors", [
    (0.5, 1.0, ["error[scaling.pair[0]]: separation must lie in (0, 4/3) times the domain radius",
                "error[scaling]: no valid scaling families given"]),
    (2.0, 2.0, []),
    # no radius to check the separation against: the domain error alone
    (-1.0, 1.0, ["error[domain.radius]: radius must be a positive finite number"]),
])
def test_pair_separation_is_checked_against_the_domain_radius(
        tmp_path, capsys, radius, separation, errors):
    cfg = _variant(
        SWEEP, tasks=["scaling-checks"],
        domain={"radius": radius, "holes": [{"center": [0.0] * 4, "radius_coeff": 1.0}]},
        scaling={"pair": [{"q1": 2, "q2": 2, "separation": separation, "n": 4}]})
    path = write_config(tmp_path, cfg)
    code = cli.main(["validate", path])
    assert capsys.readouterr().err.splitlines() == errors
    if errors:
        assert code == 1
        return
    assert code == 0
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) != cli.EXIT_ERROR
    (entry,) = load_summary(tmp_path / "out")["tasks"]
    assert entry["task"] == "scaling-checks" and entry["verdict"] != "error"


@pytest.mark.parametrize("output, field_name", [
    (5, "output"), ({"dir": 5}, "output.dir"), ({"dir": ["out"]}, "output.dir"),
    ({"dir": None}, None)])
def test_output_dir_is_checked_before_anything_is_written(
        tmp_path, capsys, monkeypatch, output, field_name):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, _variant(PAIR, output=output))
    for argv in (["validate", path], ["run", path]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        if field_name is None:   # no dir given: the default output directory
            assert code != 1 and err == ""
        else:
            assert code == 1 and err.startswith(f"error[{field_name}]: ")
            assert err.count("\n") == 1
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == ["bubblelab_out", "config.json"] if field_name is None else ["config.json"]


@pytest.mark.parametrize("field_name, out, code", [
    ("--out", "a_file", errno.EEXIST),
    ("--out", "a_file/sub", errno.ENOTDIR),
    ("--out", "out", errno.EISDIR),
    ("output.dir", "a_file", errno.EEXIST),
], ids=["out_is_a_file", "out_under_a_file", "summary_is_a_directory",
        "config_dir_is_a_file"])
def test_unusable_output_dir_is_a_diagnostic(tmp_path, capsys, field_name, out, code):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    out = str(tmp_path / out)
    if field_name == "--out":
        argv = ["run", write_config(tmp_path, PAIR), "--out", out]
    else:
        argv = ["run", write_config(tmp_path, _variant(PAIR, output={"dir": out}))]
    path = os.path.join(out, "summary.json") if code == errno.EISDIR else out
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error[{field_name}]: [Errno {code}] {os.strerror(code)}: {path!r}\n"
    assert captured.out == ""


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


_B = 1024   # the block size of the tests that build their tables from it


@pytest.fixture
def small_blocks(monkeypatch):
    """_write_csv in _B-row blocks.  The block edges run the same code at
    any block size, while the oracle's time grows with the rows."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", _B)


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


def _kernel_domain(values):
    """The values that _e12_kernel formats itself, 1e-99 <= x < 9.9e99."""
    return values[(values >= 1e-99) & (values < 9.9e99)]


_POWERS = np.array([float(f"1e{k}") for k in range(-307, 309)])
KERNEL_VALUES = {  # tiled past one block, they reach _csv_block
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
    # the edges of the kernel's range; -0.0 and a three-digit exponent
    # send every block to `%` whole
    "domain_edges": np.array([1e-99, np.nextafter(1e-99, 0), 9.9e99,
                              np.nextafter(9.9e99, np.inf), 9.9999999999995e99, -0.0]),
}
# the hard cases inside the range, with its edges and their outer
# neighbours: every field is 18 bytes, so every block is laid out
KERNEL_VALUES["in_domain"] = np.concatenate([
    _kernel_domain(np.concatenate([KERNEL_VALUES[name] for name in
                                   ("decimal_ties", "carry", "powers_of_ten")])),
    KERNEL_VALUES["domain_edges"][:4]])


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
    # integers above 2^53 next to a float column, in a small table and in
    # one of 900 values: tables with an integer column go through `%` whole
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
def test_write_csv_matches_csv_writer_bytes(tmp_path, small_blocks, case):
    _assert_same_bytes(tmp_path, *CSV_CASES[case])


def _two_digit_floats(rows, seed):
    """Two columns of positive values with two-digit exponents: every
    field is the 18 bytes of "d.dddddddddddde+dd"."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(1e-3, 1.0, rows) * 10.0 ** rng.integers(-96, 97, rows)
            for _ in range(2)]


LAYOUT_CASES = {   # values put into the last row of the first block
    "all_18_bytes": [],
    "one_negative": [(0, -0.75)],
    "three_digit_exponent": [(1, 2.5e-120)],
    "nan_and_zero": [(0, np.nan), (1, 0.0)],
    # just outside the kernel's range, beside values just inside it
    "exponent_minus_100": [(0, 1e-99), (1, 9.99999999999949e-100)],
    "rounds_to_1e100": [(0, 9.9999999999995e99), (1, np.nextafter(9.9e99, 0))],
}


@pytest.mark.parametrize("rows", [_B - 1, _B, _B + 1],
                         ids=["block_minus_one", "one_block", "block_plus_one"])
@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_write_csv_layouts_at_block_edges(tmp_path, monkeypatch, small_blocks, case, rows):
    # a block whose fields are all 18 bytes is laid out; one other field
    # sends the whole block to `%`.  A second block of one row is too
    # small for _csv_block
    columns = _two_digit_floats(rows, rows)
    for j, value in LAYOUT_CASES[case]:
        columns[j][min(rows, _B) - 1] = value
    csv_block, dims = cli._csv_block, []

    def spy(block_columns):
        text = csv_block(block_columns)
        dims.append(None if text is None else text.ndim)
        return text

    monkeypatch.setattr(cli, "_csv_block", spy)
    _assert_same_bytes(tmp_path, ["x", "y"], columns)
    assert dims == [2 if case == "all_18_bytes" else None]


@pytest.mark.parametrize("config", ["n4_nodes20k", "n3_nodes2k"])
def test_sweep_profiles_match_csv_writer_bytes(tmp_path, monkeypatch, config):
    # the profiles of real solves, not only synthetic values, byte for byte
    if config == "n4_nodes20k":
        cfg = _variant(SWEEP, tasks=["radial-sweep"], reduction={"n_nodes": 20_000})
    else:
        cfg = _variant(N3_SWEEP, reduction={
            "n_nodes": 2000, "epsilon_grid": {"start": 3e-3, "stop": 1e-4, "num": 8}})
    tables = {}
    write_csv = cli._write_csv

    def spy(path, header, columns):
        tables[os.path.basename(path)] = (header, columns)
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", spy)
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    profiles = sorted(p.name for p in out.glob("profile_*.csv"))
    assert len(profiles) == 8 and profiles == sorted(n for n in tables if n != "sweep_rate.csv")
    for name in profiles:
        _csv_writer_oracle(tmp_path / "oracle.csv", *tables[name])
        assert (out / name).read_bytes() == (tmp_path / "oracle.csv").read_bytes(), name


def test_profile_of_several_blocks_matches_csv_writer_bytes(tmp_path):
    res = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2, n_nodes=40_000)
    assert res.report.converged and len(res.grid.nodes) > cli.CSV_BLOCK_ROWS
    _assert_same_bytes(tmp_path, ["radius", "value"], [res.grid.nodes, res.grid.values])


def test_large_profile_takes_few_blocks(tmp_path, monkeypatch):
    # the sweep's writer shares the GIL with the solves, so a 100k-node
    # profile must take few, large blocks: 4 at 32768 rows
    calls = []
    monkeypatch.setattr(cli, "_csv_block", lambda block: calls.append(block) or b"")
    cli._write_csv(tmp_path / "profile.csv", ["radius", "value"],
                   _two_digit_floats(100_000, 5))
    assert len(calls) == -(-100_000 // cli.CSV_BLOCK_ROWS) == 4


# the N=4 sweep on the default eps grid at 2k nodes: 8 profiles, exit 0
SMALL_SWEEP = _variant(SWEEP, tasks=["radial-sweep"], reduction={"n_nodes": 2000})


def test_writer_exception_is_the_sweep_error(tmp_path, monkeypatch):
    write_csv = cli._write_csv
    profiles = []

    def fails_on_third_profile(path, header, columns):
        if os.path.basename(path).startswith("profile_"):
            profiles.append(path)
            if len(profiles) == 3:
                raise OSError("no space left for the third profile")
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", fails_on_third_profile)
    threads = threading.active_count()
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, SMALL_SWEEP), "--out", str(out)]) == 1
    (entry,) = load_summary(out)["tasks"]
    assert (entry["verdict"], entry["message"]) == (
        "error", "OSError: no space left for the third profile")
    assert not (out / "sweep_rate.csv").exists()
    assert threading.active_count() == threads


def test_profiles_solved_before_a_failing_solve_are_on_disk(tmp_path, monkeypatch):
    config = write_config(tmp_path, SMALL_SWEEP)
    normal = tmp_path / "normal"
    assert cli.main(["run", config, "--out", str(normal)]) == 0
    solve = solver.solve_radial
    solved = []

    def fails_at_fourth_eps(annulus, dims, eps, **kwargs):
        if len(solved) == 3:
            raise FloatingPointError("overflow at the fourth eps")
        solved.append(eps)
        return solve(annulus, dims, eps, **kwargs)

    monkeypatch.setattr(solver, "solve_radial", fails_at_fourth_eps)
    threads = threading.active_count()
    out = tmp_path / "out"
    assert cli.main(["run", config, "--out", str(out)]) == 1
    (entry,) = load_summary(out)["tasks"]
    assert (entry["verdict"], entry["message"]) == (
        "error", "FloatingPointError: overflow at the fourth eps")
    names = [f"profile_{eps:.3e}.csv" for eps in solved]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (normal / name).read_bytes(), name
    assert threading.active_count() == threads


def test_nan_in_the_sweep_seed_is_an_error_verdict(tmp_path, monkeypatch):
    ansatz = solver.bubble_ansatz

    def nan_seed(*args, **kwargs):
        seed, d_tilde = ansatz(*args, **kwargs)
        values = seed.values.copy()
        values[len(values) // 2] = np.nan
        return solver.RadialGrid(nodes=seed.nodes, values=values, dims=seed.dims), d_tilde

    monkeypatch.setattr(solver, "bubble_ansatz", nan_seed)
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, SMALL_SWEEP), "--out", str(out)]) == 1
    (entry,) = load_summary(out)["tasks"]
    assert (entry["task"], entry["verdict"], entry["message"]) == (
        "radial-sweep", "error", "ValueError: array must not contain infs or NaNs")


def test_writer_thread_calls_no_traced_function(tmp_path):
    # the benchmark's span tracer keeps one call stack and wraps public
    # functions: off the main thread only private cli helpers may run
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    threading.setprofile(record)
    try:
        code = cli.main(["run", write_config(tmp_path, SMALL_SWEEP), "--out",
                         str(tmp_path / "out")])
    finally:
        threading.setprofile(None)
    assert code == 0
    ours = {(module, name) for module, name in called
            if (module or "").split(".")[0] == "bubblelab"}
    assert ("bubblelab.cli", "_write_csv") in ours
    for module, name in ours:   # private helpers and their comprehensions
        assert module == "bubblelab.cli" and name.startswith(("_", "<")), (module, name)
        assert name not in bubblelab.__all__


def test_write_csv_exact_with_double_precision_scales(tmp_path, monkeypatch):
    # where np.longdouble is a plain double, the kernel uses float64 scales
    # and a 0.25 margin: half the values go to `%`, the bytes stay the same
    eps = float(np.finfo(np.float64).eps)
    scales = np.array([float(f"1e{12 - e}") for e in cli._E12_EXPONENTS])
    monkeypatch.setattr(cli, "_E12_SCALES", scales)
    monkeypatch.setattr(cli, "_E12_TIE_MARGIN", 64 * eps * 2.0**44)
    values = np.concatenate([KERNEL_VALUES["in_domain"], *_two_digit_floats(10_000, 14)])
    columns = list(np.resize(values, (2, values.size // 2)))
    assert cli._csv_block(columns).ndim == 2   # every block laid out
    _assert_same_bytes(tmp_path, ["x", "y"], columns)


def _bit_pattern_floats():
    st = pytest.importorskip("hypothesis").strategies
    return st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64)))


def test_write_csv_kernel_property(tmp_path_factory, small_blocks):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    block = cli.CSV_BLOCK_ROWS
    # pools of any doubles mostly go to `%` whole; pools inside the
    # kernel's range are laid out
    kernel_range = st.floats(1e-99, 9.9e99, exclude_max=True)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        pool=st.lists(st.floats(width=64) | _bit_pattern_floats(), min_size=1, max_size=50)
        | st.lists(kernel_range, min_size=1, max_size=50),
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
    # work: at least 99.9% of a 20k-node profile, and of the powers of ten
    # in its range, half of which need the fix-up of log10's exponent
    if case == "solution_profile":
        res = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2, n_nodes=20_000)
        values = np.concatenate([res.grid.nodes, res.grid.values])
    else:
        values = _kernel_domain(KERNEL_VALUES[case])
    _, _, left = cli._e12_kernel(values)
    if case == "powers_of_ten":
        # of these 596 at most 1e15 is left: its product with the scale
        # 1e-3 falls below 10^12, and with 1e-2 it rounds to 10^13
        assert set(values[left].tolist()) <= {1e15}
    else:
        assert left.mean() <= 1e-3, int(left.sum())


# ---------------------------------------------------------------- summary.json


def _finite_or_none(obj):
    """`obj` with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_oracle(obj):
    """The stdlib encoding of `obj` with non-finite floats as null."""
    fh = io.StringIO()
    json.dump(_finite_or_none(obj), fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()


def encoded(obj):
    out = []
    cli._encode(obj, out, "\n")
    return "".join(out) + "\n"


NAN, INF = float("nan"), float("inf")
NUMPY_SCALARS = [np.float64(1.5), np.float32(0.1), np.float64(-0.0), np.int64(-7),
                 np.uint64(2**64 - 1), np.int8(3), np.bool_(True), np.bool_(False),
                 np.float64(np.nan), np.float32(np.inf), np.float16(0.3)]
NUMPY_ARRAYS = {"v": np.array([1.0, np.nan, -0.0, np.inf]), "m": np.arange(6.0).reshape(2, 3),
                "i": np.arange(4), "b": np.array([True, False]), "e": np.array([], dtype=float),
                "f32": np.array([0.1, 0.2], dtype=np.float32)}

NOT_JSON = "Object of type %s is not JSON serializable"

# name -> (a value of a type that run never builds, the TypeError it gives,
# the plain value a task builds in its place with .tolist(), .item(), a
# list or a str key)
UNBUILT_CASES = {
    "empty_tuple": ((), NOT_JSON % "tuple", []),
    "nested_empty": ({"a": {}, "b": [], "c": [[], {}, [[]], ({},)], "d": {"e": {}}},
                     NOT_JSON % "tuple",
                     {"a": {}, "b": [], "c": [[], {}, [[]], [{}]], "d": {"e": {}}}),
    "tuples": ((1.0, (2, 3), ("x", (4.5,)), ()), NOT_JSON % "tuple",
               [1.0, [2, 3], ["x", [4.5]], []]),
    "float_tuple": ((0.1, 0.2, 1e300), NOT_JSON % "tuple", [0.1, 0.2, 1e300]),
    "non_string_keys": ({2: "two", 10: "ten", 1.5: [1.0], None: 0, True: 1},
                        "keys must be str, not int",
                        {"2": "two", "10": "ten", "1.5": [1.0], "None": 0, "True": 1}),
    "numpy_scalars": (NUMPY_SCALARS, NOT_JSON % "float64",
                      [v.item() for v in NUMPY_SCALARS]),
    "numpy_scalar_alone": (np.float64(2.0) / 3, NOT_JSON % "float64",
                           (np.float64(2.0) / 3).item()),
    "numpy_int_alone": (np.int32(12), NOT_JSON % "int32", 12),
    "numpy_floats_in_list": ([np.float64(0.1), 0.2, np.float64(1e-300)],
                             NOT_JSON % "float64", [0.1, 0.2, 1e-300]),
    "numpy_arrays": (NUMPY_ARRAYS, NOT_JSON % "ndarray",
                     {key: value.tolist() for key, value in NUMPY_ARRAYS.items()}),
    "numpy_array_alone": (np.linspace(0.0, 1.0, 7), NOT_JSON % "ndarray",
                          np.linspace(0.0, 1.0, 7).tolist()),
    "numpy_in_tuple": ((np.float64(3.0), np.array([[1, 2]]), "x"), NOT_JSON % "tuple",
                       [3.0, [[1, 2]], "x"]),
    "numpy_strings": ({"k": [np.str_("v\u00e9"), np.str_('"')]}, NOT_JSON % "str_",
                      {"k": ["v\u00e9", '"']}),
    "numpy_string_key": ({np.str_("k"): 1}, "keys must be str, not str_", {"k": 1}),
}

ENCODER_CASES = {
    "nan": NAN,
    "inf": INF,
    "minus_inf": -INF,
    "non_finite_in_float_list": [1.0, NAN, 2.0, INF, -INF],
    "only_non_finite": [NAN, INF],
    "non_finite_last": [0.5, -INF],
    "nested_non_finite": {"a": [[1.0, NAN], [INF]], "b": NAN},
    "minus_zero": -0.0,
    "extremes": [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 2.2250738585072014e-308],
    "extremes_alone": {"tiny": 5e-324, "max": 1.7976931348623157e308, "zero": -0.0},
    "big_ints": [2**64, 2**64 + 1, -(2**70), 10**30, 2**63 - 1],
    "big_int_alone": 2**100 + 7,
    "bools_in_lists": [True, False, 1, 0, 0.5, None],
    "bools_only": [True, False],
    "bool_between_floats": [1.0, True, 2.0],
    "int_between_floats": [1.0, 2, 3.0],
    "empty_dict": {},
    "empty_list": [],
    "one_float": [0.1],
    "scalars": [None, "s", 3, 2.5, False],
    "non_ascii": ["\u00e9t\u00e9", "\u2603", "\U0001d11e", "\u03b5 \u2192 0"],
    "quotes_backslashes": ['say "hi"', "back\\slash", "\\\"", "'"],
    "control_characters": "".join(map(chr, range(32))) + "\x7f\u2028\u2029",
    "awkward_keys": {"\u00e9": 1, '"q"': 2, "\\": 3, "\n": 4, "": 5, "A": 6, "a": 7,
                     "\x00": 8, "\U0001d11e": 9},
    **{name: plain for name, (_, _, plain) in UNBUILT_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(ENCODER_CASES))
def test_encoder_matches_json_dump(case):
    assert encoded(ENCODER_CASES[case]) == json_oracle(ENCODER_CASES[case])


@pytest.mark.parametrize("value", [object(), {"a": [1.0, {1, 2}]}, [b"bytes"], 1j,
                                   [np.complex128(1j)], np.array(1.0)])
def test_encoder_rejects_what_json_dump_rejects(value):
    with pytest.raises(TypeError) as expected:
        json_oracle(value)
    with pytest.raises(TypeError) as got:
        encoded(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("case", sorted(UNBUILT_CASES))
def test_encoder_rejects_types_run_never_builds(case):
    # json.dump would take these (a tuple as a list, a float64 as a float,
    # an int key as a string): the summary holds none of them
    value, message, _ = UNBUILT_CASES[case]
    with pytest.raises(TypeError) as got:
        encoded(value)
    assert str(got.value) == message


def test_encoder_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | \
        st.floats() | st.text()
    values = st.recursive(
        leaves,
        lambda children: st.lists(children) | st.lists(st.floats())
        | st.dictionaries(st.text(), children),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(values)
    def check(value):
        assert encoded(value) == json_oracle(value)

    check()


def _capture_run(monkeypatch):
    """Make cli.run record the summaries it returns; returns that record."""
    summaries = []
    real_run = cli.run

    def recording_run(*args, **kwargs):
        code, summary = real_run(*args, **kwargs)
        summaries.append(summary)
        return code, summary

    monkeypatch.setattr(cli, "run", recording_run)
    return summaries


def _assert_plain(obj):
    """Only the types cli._encode takes: no numpy value or tuple is left."""
    if isinstance(obj, dict):
        assert all(type(key) is str for key in obj)
        for value in obj.values():
            _assert_plain(value)
    elif isinstance(obj, list):
        for value in obj:
            _assert_plain(value)
    else:
        assert type(obj) in (str, int, float, bool, type(None)), type(obj)


@pytest.fixture(autouse=True)
def _every_summary_is_plain(monkeypatch):
    """Every summary cli.run returns in these tests holds plain values only,
    and the file it wrote is their stdlib encoding."""
    real_run = cli.run

    def checked_run(config, out_dir, seed=0):
        code, summary = real_run(config, out_dir, seed)
        _assert_plain(summary)
        with open(os.path.join(out_dir, "summary.json")) as fh:
            assert fh.read() == json_oracle(summary)
        return code, summary

    monkeypatch.setattr(cli, "run", checked_run)


def test_demo_summary_json_is_the_oracle_encoding(tmp_path, monkeypatch):
    summaries = _capture_run(monkeypatch)
    out = tmp_path / "out"
    cli.main(["run", write_config(tmp_path, DEMO), "--out", str(out), "--seed", "42"])
    (summary,) = summaries
    _assert_plain(summary)
    assert (out / "summary.json").read_text() == json_oracle(summary)


def test_sweep_summary_json_is_the_oracle_encoding(sweep_run):
    _, out, summary = sweep_run
    _assert_plain(summary)
    assert (out / "summary.json").read_text() == json_oracle(summary)


N3_SWEEP = {   # the default epsilon grid: the first solve falls into the trivial branch
    "schema": "bubblelab-config/1",
    "dims": 3,
    "coupling": {"mu": [1.0], "beta": [[0.0]], "decomposition": [0, 1]},
    "domain": {"radius": 1.0, "holes": [{"center": [0.0, 0.0, 0.0], "radius_coeff": 1.0}]},
    "tasks": ["radial-sweep"],
}


def _outputs(summary, task):
    (entry,) = [t for t in summary["tasks"] if t["task"] == task]
    return {key: payload["value"] for key, payload in entry["outputs"].items()}


NO_POSITIVE_SOLUTION = _variant(DEMO, coupling={   # group 1 has no positive solution
    "mu": [1.0, 1.0, 2.0], "decomposition": [0, 1, 3],
    "beta": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [0.0, 1.5, 0.0]]})


def _check_partial_groups(summary, written):
    # the groups before group 1 are reported, and group 1 is named once
    assert [g["group"] for g in _outputs(summary, "c-vector")["groups"]] == [0]
    assert summary["tasks"][0]["message"] == (
        "degenerate: group 1: linear solve gives negative power vector [-2.  2.]")


def _check_skipped(summary, written):
    _check_partial_groups(summary, written)
    assert summary["exit_code"] == 2
    messages = {t["task"]: t["message"] for t in summary["tasks"][1:]}
    assert messages == {
        "spectrum": "skipped: c-vector left no result",
        "reduced-energy": "skipped: c-vector left no result",
        "critical-point": "skipped: reduced-energy left no result",
    }
    assert all(t["outputs"] == {} for t in summary["tasks"][1:])


def _check_boundary(summary, written):
    (group,) = _outputs(summary, "c-vector")["groups"]
    assert group["boundary"] is True
    assert "lambda_2 = 1" in summary["tasks"][1]["message"]


def _check_outside_box(summary, written):
    # Psi is not evaluated outside the box X_eta, and the probe stays a
    # finite-difference step inside it
    assert summary["tasks"][3]["message"] == (
        "inconclusive: critical point leaves the admissible box")
    assert _outputs(summary, "critical-point")["psi_value"] is None
    assert _outputs(written, "critical-point")["psi_value"] is None
    probe = np.array(_outputs(summary, "reduced-energy")["probe_d"])
    assert np.all((probe - 1e-6 > 0.99) & (probe + 1e-6 < 1 / 0.99))


def _check_narrow_box(summary, written):
    entry = summary["tasks"][2]
    assert entry["message"] == ("inconclusive: the box X_eta at eta = 0.9999995 is too "
                                "narrow for the finite-difference gradient check")
    assert "probe_d" not in entry["outputs"] and "b1" in entry["outputs"]


def _check_families(summary, written):
    families = _outputs(summary, "scaling-checks")["families"]
    assert [f["kind"] for f in families] == ["single", "weighted", "pair"]
    (entry,) = written["tasks"]
    assert entry["inputs"]["families"] == [
        {"kind": "single", "q": 1.0},
        {"kind": "weighted", "q": 4.0, "nu1": 0.0, "nu2": 2.0},
        {"kind": "pair", "q1": 2.0, "q2": 2.0, "separation": 0.5, "n": 4.0},
    ]


def _check_aborted_sweep(summary, written):
    assert summary["tasks"][0]["message"].startswith("sweep aborted: ")
    returned, on_disk = _outputs(summary, "radial-sweep"), _outputs(written, "radial-sweep")
    for key in ("slope", "d_final"):
        assert math.isnan(returned[key]) and on_disk[key] is None, key
    assert returned["epsilons"] == on_disk["epsilons"] == []


# output path -> (config, verdict of each task, what the path reports)
OUTPUT_PATHS = {
    "no_positive_solution": (
        _variant(NO_POSITIVE_SOLUTION, tasks=["c-vector"]),
        ["degenerate"], _check_partial_groups),
    "no_positive_solution_skips_dependents": (
        NO_POSITIVE_SOLUTION, ["degenerate"] * 4, _check_skipped),
    "boundary_amplitude": (
        _variant(PAIR, coupling=dict(PAIR["coupling"], beta=[[0.0, 1.0], [1.0, 0.0]])),
        ["degenerate", "degenerate"], _check_boundary),
    "inconclusive_spectrum": (PAIR, ["pass", "inconclusive"], None),
    "critical_point_outside_box": (
        _variant(DEMO, reduction={"eta": 0.99}),
        ["pass", "inconclusive", "pass", "inconclusive"], _check_outside_box),
    "reduced_energy_box_too_narrow": (
        _variant(DEMO, reduction={"eta": 0.9999995}),
        ["pass", "inconclusive", "inconclusive", "inconclusive"], _check_narrow_box),
    "scaling_all_kinds": (
        _variant(PAIR, tasks=["scaling-checks"], scaling={
            "single": [{"q": 1}], "weighted": [{"q": 4, "nu2": 2}],
            "pair": [{"q1": 2, "q2": 2, "n": 4}]}),
        ["inconclusive"], _check_families),
    "aborted_n3_sweep": (N3_SWEEP, ["error"], _check_aborted_sweep),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_PATHS))
def test_summary_on_every_output_path_is_the_oracle_encoding(tmp_path, name):
    data, verdicts, check = OUTPUT_PATHS[name]
    config, diags = cli.parse_config(data)
    assert config is not None, diags
    _, summary = cli.run(config, tmp_path)
    assert [t["verdict"] for t in summary["tasks"]] == verdicts
    _assert_plain(summary)
    text = (tmp_path / "summary.json").read_text()
    assert text == json_oracle(summary)
    if check is not None:
        check(summary, json.loads(text))


@pytest.mark.parametrize("eta", [1e-3, 0.6])
def test_probe_draws_unchanged_where_the_box_holds_them(tmp_path, eta):
    config, _ = cli.parse_config(_variant(DEMO, reduction={"eta": eta}))
    _, summary = cli.run(config, tmp_path, seed=5)
    want = np.exp(np.random.default_rng(5).uniform(-0.5, 0.5, 2))
    assert _outputs(summary, "reduced-energy")["probe_d"] == want.tolist()


def test_failed_task_summary_is_the_oracle_encoding(tmp_path, monkeypatch):
    def fails(*args):
        raise FloatingPointError("overflow in a runner")

    monkeypatch.setitem(cli._TASKS, "spectrum", cli._TASKS["spectrum"]._replace(runner=fails))
    config, _ = cli.parse_config(PAIR)
    code, summary = cli.run(config, tmp_path)
    assert code == 1
    entry = summary["tasks"][1]
    assert (entry["verdict"], entry["message"], entry["outputs"]) == (
        "error", "FloatingPointError: overflow in a runner", {})
    _assert_plain(summary)
    assert (tmp_path / "summary.json").read_text() == json_oracle(summary)


def test_unencodable_summary_leaves_no_file(tmp_path, monkeypatch):
    task = cli._TASKS["c-vector"]
    monkeypatch.setitem(cli._TASKS, "c-vector", task._replace(
        runner=lambda *args: ("pass", "ok", {"x": [1.0, object()]})))
    config, _ = cli.parse_config(PAIR)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.run(config, tmp_path / "out")
    assert not (tmp_path / "out" / "summary.json").exists()


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


def _outcomes(tmp_path, capsys, base):
    """Exit code, stderr and summary (timings stripped) of a fixed sequence
    of main calls, with outputs under tmp_path / base."""
    cfg = write_config(tmp_path, DEMO)
    calls = [
        ["validate", cfg],
        ["run", cfg, "--out", str(tmp_path / base / "a"), "--seed", "7"],
        ["run", cfg, "--out", str(tmp_path / base / "b")],
        ["run", cfg, "--out", str(tmp_path / base / "c"), "--seed", "-1"],
        ["run", cfg, "--out", str(tmp_path / base / "d"), "--seed", "x"],
        ["validate", cfg],
    ]
    results = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        out = tmp_path / base / argv[3] if argv[0] == "run" else None
        summary = strip_timings(load_summary(out)) if out and out.exists() else None
        results.append((code, capsys.readouterr().err, summary))
    return results


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    cli._build_parser.cache_clear()
    reused = _outcomes(tmp_path, capsys, "reused")
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _outcomes(tmp_path, capsys, "fresh")
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 2, 1, "SystemExit(2)", 0]
    assert reused[1][2] != reused[2][2]   # the seed reaches the run
    assert "error[--seed]" in reused[3][1] and "invalid int value" in reused[4][1]
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_parser_is_not_built_at_import():
    script = ("import bubblelab.cli as cli; "
              "print(cli._build_parser.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, env=_env_with_src())
    assert proc.stdout.split() == ["0"]


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
    with pytest.MonkeyPatch.context() as monkeypatch:
        summaries = _capture_run(monkeypatch)
        code = cli.main(["run", write_config(tmp_path, SWEEP), "--out", str(out),
                         "--seed", "7"])
    return code, out, summaries[0]


def test_full_run_passes_and_writes_artifacts(sweep_run):
    code, out, _ = sweep_run
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
    _, out, _ = sweep_run
    table = np.loadtxt(out / "profile_1.000e-02.csv", delimiter=",", skiprows=1)
    res = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2)
    np.testing.assert_allclose(table[:, 0], res.grid.nodes, rtol=1e-12)
    np.testing.assert_allclose(table[:, 1], res.grid.values, rtol=1e-12)


def test_sweep_task_agrees_with_rate_prediction(sweep_run):
    _, out, _ = sweep_run
    summary = load_summary(out)
    sweep = summary["tasks"][5]["outputs"]
    assert abs(sweep["slope"]["value"] - 0.5) < 0.05
    assert abs(sweep["d_final"]["value"] / sweep["d_tilde"]["value"] - 1) < 0.2
    fams = summary["tasks"][4]["outputs"]["families"]["value"]
    for fam in fams:
        assert fam["verdict"] == "pass"
        assert abs(fam["exponent_measured"] - fam["exponent_predicted"]) < 0.25


def test_every_reported_numeric_carries_provenance(sweep_run):
    _, out, _ = sweep_run
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
