"""The package exports what `bubblelab run` executes: every name in
`bubblelab.__all__` is reached by a task, required by the benchmark
tracer, or listed in the README as awaiting a task."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import bubblelab
from bubblelab import cli

ROOT = Path(__file__).resolve().parents[1]


def _config(N, tasks, **extra):
    return {
        "schema": "bubblelab-config/1",
        "dims": N,
        "coupling": {"mu": [1.0], "beta": [[1.0]], "decomposition": [0, 1]},
        "domain": {"radius": 1.0, "holes": [{"center": [0.0] * N, "radius_coeff": 1.0}]},
        "tasks": tasks,
        **extra,
    }


# every task once, on small grids; N = 3 to reach the N = 3 constants
CONFIGS = {
    "all_tasks": _config(
        4, list(cli.TASK_ORDER),
        reduction={"epsilon_grid": [1e-2, 5e-3, 2e-3], "n_nodes": 300},
        scaling={"single": [{"q": 1}], "weighted": [{"q": 4, "nu2": 2}],
                 "pair": [{"q1": 2, "q2": 2, "n": 4}]},
    ),
    "n3": _config(3, ["c-vector"]),
}


def _reached_by_tasks(tmp_path):
    """Names of `__all__` that `bubblelab run` reaches on CONFIGS: functions
    it calls, classes of which it builds or returns an instance, constants
    a call returns."""
    codes, instances, returned = set(), set(), set()
    exported = {name: getattr(bubblelab, name) for name in bubblelab.__all__}
    constants = {id(obj): name for name, obj in exported.items() if not callable(obj)}

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
            if frame.f_code.co_name == "__init__" and "self" in frame.f_locals:
                instances.add(type(frame.f_locals["self"]))
        elif event == "return":
            instances.add(type(arg))
            if id(arg) in constants:
                returned.add(constants[id(arg)])

    versions = set()
    for name, config in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        sys.setprofile(profile)
        try:
            code = cli.main(["run", str(path), "--out", str(out)])
        finally:
            sys.setprofile(None)
        assert code in (cli.EXIT_PASS, cli.EXIT_DEGENERATE), name
        versions.add(json.loads((out / "summary.json").read_text())["package_version"])
    reached = set(returned) | ({"__version__"} if versions == {bubblelab.__version__} else set())
    for name, obj in exported.items():
        if isinstance(obj, type):
            if obj in instances:
                reached.add(name)
        elif callable(obj) and obj.__code__ in codes:
            reached.add(name)
    return reached


def _perfbench_run(monkeypatch):
    """`perfbench/run.py` as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # run.py prepends perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _tracer_required(monkeypatch):
    """`perfbench/run.py`'s TRACED: the span metrics' names plus the
    tracer's count-only kernels, as "layer.name"."""
    return set(_perfbench_run(monkeypatch).TRACED)


def test_tracer_times_one_fit_per_scaling_family(tmp_path, monkeypatch):
    """The CLI reaches each scaling fit through the names the benchmark
    tracer rebinds, so each family of a run is one span."""
    run = _perfbench_run(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(
        4, ["scaling-checks"],
        scaling={"single": [{"q": 1}], "weighted": [{"q": 4, "nu2": 2}],
                 "pair": [{"q1": 2, "q2": 2, "n": 4}]})))
    with run.tracing.Tracer(required=run.TRACED) as tracer:
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code in (cli.EXIT_PASS, cli.EXIT_DEGENERATE)
    table = run.tracing.span_table(tracer.spans)
    for name in ("scaling_law_single", "scaling_law_weighted", "scaling_law_pair",
                 "pair_product_integral"):
        assert table.get(f"asymptotics.{name}", (0,))[0] == 1, name


def _awaiting_in_readme():
    """The backquoted names of the README sentence on exports that await a task."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraphs = (" ".join(p.split()) for p in text.split("\n\n"))
    paragraph = next(p for p in paragraphs if "await a task:" in p)
    sentence = paragraph.split("await a task:", 1)[1].split(". ", 1)[0]
    return set(re.findall(r"`(\w+)`", sentence))


def test_every_export_is_run_traced_or_awaiting_a_task(tmp_path, monkeypatch):
    reached = _reached_by_tasks(tmp_path)
    required = _tracer_required(monkeypatch)
    traced = {
        name for name in bubblelab.__all__
        if callable(obj := getattr(bubblelab, name))
        and f"{obj.__module__.rpartition('.')[2]}.{name}" in required
    }
    awaiting = _awaiting_in_readme()
    assert awaiting == {"energy_expansion", "compose_group_solution"}
    assert not awaiting & reached, "a listed name has a task now: drop it from the README"
    unaccounted = set(bubblelab.__all__) - reached - traced - awaiting
    assert not unaccounted, sorted(unaccounted)
