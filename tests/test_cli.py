import copy
import json
import math

import numpy as np
import pytest

from bubblelab import cli

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
])
def test_parse_reports_malformed_field(path, value, field_name):
    config, diags = _parse_with(path, value)
    assert config is None
    assert field_name in {d.field for d in diags if d.level == "error"}


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
