"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, algebra_configs, scaling_configs, sweep_configs  # noqa: E402

cli = run.import_cli()
REFERENCES = json.loads(run.REFERENCES.read_text())


def _small_configs():
    """One cheap config per workload: algebra, sweep, scaling."""
    return [
        algebra_configs(0)[0],
        sweep_configs(0)[0],
        scaling_configs(0)[0],
    ]


# span-name prefixes that must hold time on each of _small_configs, as the
# README's layer table says
ACTIVE_LAYERS = [("energy.", "coupling."), ("solver.",), ("asymptotics.",)]


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "time_s"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _run(config_path, out_dir, tracer=None):
    runner = run.Runner(cli, 5, out_dir, tracer)
    op = run.Op(config_path.stem, json.loads(config_path.read_text()), config_path, None)
    sample = runner.run_op(op)
    assert sample.ok, runner.problems
    return sample.s, json.loads((out_dir / "summary.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_config_bytes(tmp_path, workload):
    first = run.write_configs(WORKLOADS[workload](7), tmp_path / "a")
    second = run.write_configs(WORKLOADS[workload](7), tmp_path / "b")
    assert first == second
    for name in first:
        assert (tmp_path / "a" / f"{name}.json").read_bytes() == (
            tmp_path / "b" / f"{name}.json").read_bytes()


def test_algebra_configs_depend_on_seed():
    assert algebra_configs(1) != algebra_configs(2)


def test_tracing_changes_no_result(tmp_path):
    configs = _small_configs()
    run.write_configs(configs, tmp_path)
    for name, _config in configs:
        path = tmp_path / f"{name}.json"
        _, plain = _run(path, tmp_path / "plain")
        with tracing.Tracer() as tracer:
            _, traced = _run(path, tmp_path / "traced", tracer)
        assert tracer.spans
        assert _strip_timings(plain) == _strip_timings(traced)


def test_spans_cover_the_op_and_its_active_layers(tmp_path):
    configs = _small_configs()
    run.write_configs(configs, tmp_path)
    for (name, _config), prefixes in zip(configs, ACTIVE_LAYERS):
        with tracing.Tracer() as tracer:
            op_s, _ = _run(tmp_path / f"{name}.json", tmp_path / "out", tracer)
        table = tracing.span_table(tracer.spans)
        # the op's time is spent inside cli.main, bar the output redirection
        assert 0 <= op_s - table["cli.main"][1] < 0.05 * op_s
        # children nest inside their parents, so no self time is negative
        assert min(self_s for _calls, _s, self_s in table.values()) > -1e-9
        for prefix in prefixes:
            layer_self_s = sum(row[2] for span, row in table.items() if span.startswith(prefix))
            assert layer_self_s > 0, (name, prefix)


def test_wrappers_are_rebound_in_every_importer():
    from bubblelab import cli as cli_mod, energy, solver

    import bubblelab

    original = solver.rate_sweep
    with tracing.Tracer():
        assert cli_mod.rate_sweep is solver.rate_sweep is not original
        assert solver.critical_point is energy.critical_point
        assert bubblelab.critical_point is energy.critical_point
    assert solver.rate_sweep is original is cli_mod.rate_sweep


def test_guard_rejects_missing_function(monkeypatch):
    from bubblelab import energy

    monkeypatch.delattr(energy, "psi_grad")
    original = energy.psi_value
    with pytest.raises(tracing.TraceGuardError, match="energy.psi_grad"):
        tracing.Tracer(required=run.TRACED).install()
    assert energy.psi_value is original


def test_guard_rejects_rebound_name(monkeypatch):
    from bubblelab import cli as cli_mod, solver

    def rate_sweep(*args, **kwargs):
        return solver.rate_sweep(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "rate_sweep", rate_sweep)
    with pytest.raises(tracing.TraceGuardError, match="cli.rate_sweep"):
        tracing.Tracer().install()


def test_guard_rejects_function_in_a_table(monkeypatch):
    from bubblelab import cli as cli_mod, coupling

    monkeypatch.setattr(cli_mod, "RUNNERS", {"c-vector": coupling.solve_c_vector},
                        raising=False)
    with pytest.raises(tracing.TraceGuardError, match="RUNNERS"):
        tracing.Tracer().install()


def test_reference_check_rejects_a_wrong_integral():
    record = REFERENCES["scaling"]["configs"]["n4_pair_q2_2"]
    key = "pair_q2_2.values"
    assert not checks.compare(record, record)
    nudged = dict(record, **{key: [v * (1 + 1e-10) for v in record[key]]})
    assert not checks.compare(nudged, record)
    wrong = dict(record, **{key: [v * (1 + 1e-6) for v in record[key]]})
    assert checks.compare(wrong, record)


def test_invariants_reject_a_wrong_d_tilde(tmp_path):
    name, config = algebra_configs(0)[0]
    run.write_configs([(name, config)], tmp_path)
    _, summary = _run(tmp_path / f"{name}.json", tmp_path / "out")
    assert not checks.invariants(config, summary)
    entry = next(e for e in summary["tasks"] if e["task"] == "critical-point")
    entry["outputs"]["d_tilde"]["value"][0] *= 1 + 1e-9
    assert checks.invariants(config, summary)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(capsys, trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    argv = ["--workload", "algebra", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }
