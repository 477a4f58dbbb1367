"""bubblelab benchmark: closed-loop passes of ``bubblelab run`` over a workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scaling,sweep,algebra} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --write-references

One client in one process calls the public entry point
``bubblelab.cli.main(["run", cfg, "--out", dir, "--seed", s])`` on each
config of the workload in turn, at the default ``--threads 1``, and repeats
whole passes until ``--seconds`` have elapsed.  Calibration chunks run
between the ops, and every time reported is scaled by them to a reference
machine (see ``calibrate``).  Every op's outputs are checked (see
``checks.py``).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass (see ``tracer.py``).  The line before it records the
environment, the sample counts and the verdict counts.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy
import scipy
from scipy.integrate import quad

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"
REFERENCE_SEED = 0

SETUP_REPEATS = 7
WARMUP_S = 0.5
# Reported times are scaled to a reference machine, on which one
# calibration chunk takes CHUNK_REF_S.  Whenever the ops since the last
# calibration took CALIBRATION_WINDOW_S, the harness runs chunks for
# CALIBRATION_SHARE of that time (see calibrate).
CHUNK_REF_S = 0.0015
CALIBRATION_WINDOW_S = 0.05
CALIBRATION_SHARE = 0.25
_CHUNK_MATRIX = numpy.eye(8) * 4.0 + 1.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SWEEP_KNOWN_FAILURE, WORKLOADS  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, broken guard, ...)."""


def import_cli():
    """Import bubblelab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "bubblelab" / "cli.py").is_file():
        raise BenchmarkError(f"no bubblelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bubblelab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "bubblelab":
        raise BenchmarkError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def _chunk():
    """Seconds of one calibration chunk: a fixed ~1.5 ms loop of the kinds of
    work bubblelab does, scipy quad over a Python integrand, small numpy
    solves and float formatting."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(4):
        total += quad(lambda x: math.exp(-x * x) * math.cos(k * x), 0.0, 10.0,
                      limit=200)[0]
    b = numpy.arange(8.0)
    for _ in range(20):
        b = numpy.linalg.solve(_CHUNK_MATRIX, b + 1.0)
    "".join(f"{i * 1.2345678901:.17g},{total:.17g}\n" for i in range(500))
    return time.perf_counter() - t0


def calibrate(seconds):
    """Calibration chunks for at least `seconds` (at least one); returns
    their times.

    The chunks run none of the program, so they cost the same on every
    commit, and their time tracks how fast the shared machine runs.  Run
    between the ops, for a fixed share of their time, they sample the
    machine's speed throughout a pass: on the 2-core reference machine the
    pass times of `algebra` correlated 0.94 with the chunk times, while
    its throughput drifted by up to a factor 2 within minutes.  A first,
    untimed chunk brings the chunk's code and data back into the caches
    the op used, so the timed ones do not depend on what the op touched.
    """
    gc.disable()
    try:
        _chunk()
        times = [_chunk()]
        while sum(times) < seconds:
            times.append(_chunk())
        return times
    finally:
        gc.enable()


def reference_factor(chunk_times):
    """Multiplier from this machine's seconds to the reference machine's."""
    return CHUNK_REF_S / statistics.mean(chunk_times)


def measure_setup():
    """Median time, at reference speed, for a fresh interpreter to import
    bubblelab.cli; and the wall times of the tries."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bubblelab.cli"],
                       env=env, cwd=ROOT, check=True)
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * reference_factor(calibrate(CALIBRATION_SHARE * wall[-1])))
    return statistics.median(scaled), wall


# ------------------------------------------------------------------- ops


# one config written to disk, plus what checking it needs
Op = namedtuple("Op", "name config path reference")
# one op as run: its wall seconds, whether it passed, and the factor that
# scales its time to the reference machine
Sample = namedtuple("Sample", "s ok factor", defaults=(1.0,))


def write_configs(configs, directory):
    """Write each config as canonical JSON; return {name: sha256}."""
    directory.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, config in configs:
        data = (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()
        (directory / f"{name}.json").write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


class Runner:
    """Runs ops through cli.main and checks what they wrote."""

    def __init__(self, cli, seed, out_dir, tracer=None):
        self.cli = cli
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.n_ops = 0
        self.verdicts = Counter()
        self.problems = []          # (op name, problem) of failed ops
        self.out_bytes = 0
        self.out_files = 0

    def run_op(self, op):
        """Run one config; returns its Sample."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        argv = ["run", str(op.path), "--out", str(self.out_dir), "--seed", str(self.seed)]
        if self.tracer is not None:
            self.tracer.op = f"{self.n_ops}:{op.name}"
        self.n_ops += 1
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        problems = [error] if error else self._check(op)
        for problem in problems:
            self.problems.append((op.name, problem))
        return Sample(elapsed, not problems)

    def _check(self, op):
        try:
            with open(self.out_dir / "summary.json") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no readable summary.json: {exc}"]
        for entry in os.scandir(self.out_dir):
            self.out_files += 1
            self.out_bytes += entry.stat().st_size
        try:
            self.verdicts[summary["verdict"]] += 1
            return checks.check_op(op.config, summary, self.out_dir, op.reference)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]

    def run_pass(self, ops, traced=False, calibrated=False):
        """One pass over the ops, under the tracer when `traced`; returns
        a Sample per op.  When `calibrated`, each window of ops gets the
        factor of the calibration that follows it."""
        samples, start = [], 0
        with self.tracer if traced else contextlib.nullcontext():
            for k, op in enumerate(ops):
                samples.append(self.run_op(op))
                window_s = sum(s.s for s in samples[start:])
                if calibrated and (window_s >= CALIBRATION_WINDOW_S or k == len(ops) - 1):
                    factor = reference_factor(calibrate(CALIBRATION_SHARE * window_s))
                    samples[start:] = [s._replace(factor=factor) for s in samples[start:]]
                    start = len(samples)
        return samples

    def passes_for(self, ops, seconds, alternate_tracing=False):
        """Whole passes until `seconds` of wall time have gone.

        Without `alternate_tracing` the passes are calibrated.  With it,
        every second pass runs under the tracer and the count is even, so
        traced and untraced passes sample the same stretches of machine
        time.
        """
        stride = 2 if alternate_tracing else 1
        t0 = time.perf_counter()
        results = []
        while (len(results) < stride or len(results) % stride
               or time.perf_counter() - t0 < seconds):
            traced = alternate_tracing and len(results) % 2 == 1
            results.append(self.run_pass(ops, traced=traced,
                                         calibrated=not alternate_tracing))
        return results

    def warm_up(self, ops):
        spent = 0.0
        for op in ops:
            spent += self.run_op(op).s
            if spent >= WARMUP_S:
                break


# --------------------------------------------------------------- metrics


def _percentile(ranked, q):
    """Nearest-rank quantile q of a sorted sample; None when it lands on
    a failed config (which counts as exceeding any latency limit)."""
    value = ranked[max(math.ceil(q * len(ranked)) - 1, 0)]
    return None if value == math.inf else value


def _timings(passes, scaled):
    """Throughput, p50 and p90 of the configs over whole passes, in
    reference seconds when `scaled`, else in wall seconds.

    Each config's time is the median of its repeats, one per pass, which
    rejects slowdowns that other tenants of the machine cause in single
    repeats; the percentiles are over configs, so every config weighs the
    same whatever the pass count.  A config that failed in any repeat
    ranks as slower than every limit.
    """
    repeats = list(zip(*passes))    # per config: its Sample in each pass
    typical = [statistics.median(s.s * (s.factor if scaled else 1.0) for s in reps)
               for reps in repeats]
    ok_configs = [all(s.ok for s in reps) for reps in repeats]
    ranked = sorted(t if ok else math.inf for t, ok in zip(typical, ok_configs))
    return {
        "ok_configs_per_s": sum(ok_configs) / sum(typical),
        "config_s_p50": _percentile(ranked, 0.5),
        "config_s_p90": _percentile(ranked, 0.9),
    }


def end_to_end(passes, setup_s):
    """End-to-end metrics of calibrated passes over the same configs, in
    reference seconds; the same figures in wall seconds go beside them."""
    n_ops = sum(map(len, passes))
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update((name, (value, "1/s" if name == "ok_configs_per_s" else "s"))
                   for name, value in _timings(passes, scaled=True).items())
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(s.ok for p in passes for s in p) / n_ops, "1"),
    })
    samples = {"configs": len(passes[0]), "repeats_per_config": len(passes),
               "setup_s": SETUP_REPEATS}
    return metrics, samples, _timings(passes, scaled=False)


_ALL = ("calls", "s", "self_s")
# traced name -> the span columns reported for it (per pass)
SPAN_METRICS = {
    "asymptotics.pair_product_integral": _ALL,
    "asymptotics.bubble_power_integral": _ALL,
    "asymptotics.scaling_law_single": ("s",),
    "asymptotics.scaling_law_weighted": ("s",),
    "asymptotics.scaling_law_pair": ("s",),
    "asymptotics.project_bubble_radial": ("calls",),
    "cli.main": ("s",),
    "cli.run": ("self_s",),
    "cli.load_config": ("s",),
    "solver.rate_sweep": _ALL,
    "solver.solve_radial": _ALL,
    "solver.bubble_ansatz": ("s",),
    "solver.energy_of_solution": _ALL,
    "energy.gamma_kernel": _ALL,
    "energy.psi_value": _ALL,
    "energy.psi_grad": _ALL,
    "energy.critical_point": _ALL,
    "energy.ReducedEnergyModel": _ALL,
    "coupling.solve_c_vector": _ALL,
    "coupling.build_spectrum": _ALL,
    "greens.kernel_robin": _ALL,
    "bubbles.dims_for": ("calls",),
}
# counters kept by the tracer: count-only kernels and solver result hooks
COUNTERS = {
    "asymptotics.radial_profile": "asymptotics.radial_profile.calls",
    "bubbles.bubble_eval": "bubbles.bubble_eval.calls",
    "solver.newton_iters": "solver.newton_iters",
    "solver.node_iters": "solver.node_iters",
}
TRACED = tuple(SPAN_METRICS) + tuple(sorted(tracing.COUNT_ONLY))


def per_layer(table, counts, n_passes, out_bytes, out_files, overhead):
    """Per-pass averages of the traced layer numbers over `n_passes`
    traced passes; `out_bytes` and `out_files` are already per pass."""
    metrics = {}
    for name, columns in SPAN_METRICS.items():
        row = dict(zip(_ALL, table.get(name, (0, 0.0, 0.0))))
        for column in columns:
            unit = "count" if column == "calls" else "s"
            metrics[f"{name}.{column}"] = (row[column] / n_passes, unit)
    for counter, metric in COUNTERS.items():
        metrics[metric] = (counts.get(counter, 0) / n_passes, "count")
    metrics["cli.out_bytes"] = (out_bytes, "B")
    metrics["cli.out_files"] = (out_files, "count")
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


# ------------------------------------------------------------------ main


def _ops(workload, seed, directory, references):
    configs = WORKLOADS[workload](seed)
    hashes = write_configs(configs, directory)
    refs = references.get(workload, {})
    if refs.get("seed", seed) != seed:
        refs = {}
    ops = [
        Op(name, config, directory / f"{name}.json", refs.get("configs", {}).get(name))
        for name, config in configs
    ]
    return ops, hashes


def _run_known_failure(cli, seed, directory):
    """Run the sweep's known-failing config once, untimed; report what
    went wrong."""
    name, config = SWEEP_KNOWN_FAILURE
    write_configs([SWEEP_KNOWN_FAILURE], directory)
    runner = Runner(cli, seed, directory / "out")
    sample = runner.run_op(Op(name, config, directory / f"{name}.json", None))
    return {"config": name, "failed": not sample.ok,
            "problems": [msg for _name, msg in runner.problems]}


def environment(hashes):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "config_sha256": hashes,
    }


def _metric_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def benchmark(workload, seed, seconds, trace):
    cli = import_cli()
    references = json.loads(REFERENCES.read_text())
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops, hashes = _ops(workload, seed, work / "configs", references)
        info = {"workload": workload, "seed": seed, "trace": trace}
        if workload == "sweep":
            info["known_failure"] = _run_known_failure(cli, seed, work / "known")
        runner = Runner(cli, seed, work / "out")
        if trace:
            # trace_overhead_s compares single passes: warm every config first
            runner.run_pass(ops)
        else:
            runner.warm_up(ops)
        runner.problems.clear()
        runner.verdicts.clear()
        warm_ops = runner.n_ops
        if not trace:
            setup_s, info["setup_wall_s"] = measure_setup()
            passes = runner.passes_for(ops, seconds)
            metrics, samples, info["wall"] = end_to_end(passes, setup_s)
            info["reference_factor_p50"] = statistics.median(
                s.factor for p in passes for s in p)
        else:
            tracer = tracing.Tracer(required=TRACED)
            runner.tracer = tracer
            runner.out_bytes = runner.out_files = 0
            passes = runner.passes_for(ops, seconds, alternate_tracing=True)
            plain, traced = passes[0::2], passes[1::2]
            pass_s = lambda p: sum(s.s for s in p)  # noqa: E731
            overhead = (statistics.median(map(pass_s, traced))
                        - statistics.median(map(pass_s, plain)))
            table = tracing.span_table(tracer.spans)
            # tracing changes no output, so every pass wrote the same files
            metrics = per_layer(table, tracer.counts, len(traced),
                                runner.out_bytes / len(passes),
                                runner.out_files / len(passes), overhead)
            samples = {"traced_passes": len(traced), "untraced_passes": len(plain),
                       "spans": len(tracer.spans)}
            WORK.mkdir(parents=True, exist_ok=True)
            tracing.write_spans(WORK / f"spans-{workload}-{seed}.csv", tracer.spans)
        attempted = runner.n_ops - warm_ops
        failed = sum(not s.ok for p in passes for s in p)
        info.update({
            "passes": len(passes),
            "ops_per_pass": len(ops),
            "samples": samples,
            "verdicts": dict(runner.verdicts),
            "fail_frac": failed / attempted,
            "problems": [f"{name}: {msg}" for name, msg in runner.problems[:20]],
            "environment": environment(hashes),
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return info, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_json(metrics),
    }


def write_references():
    """Record the checked numbers of the fixed configs and of the algebra
    configs at the reference seed; every invariant must hold."""
    cli = import_cli()
    work = WORK / f"references-{os.getpid()}"
    out = {}
    try:
        for workload in WORKLOADS:
            ops, _ = _ops(workload, REFERENCE_SEED, work / workload, {})
            runner = Runner(cli, REFERENCE_SEED, work / "out")
            records = {}
            for op in ops:
                if not runner.run_op(op).ok:
                    raise BenchmarkError(f"{op.name}: {runner.problems[-1][1]}")
                with open(work / "out" / "summary.json") as fh:
                    records[op.name] = checks.observe(json.load(fh), work / "out")
            out[workload] = {"configs": records}
            if workload == "algebra":
                out[workload]["seed"] = REFERENCE_SEED
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help=f"rewrite {REFERENCES.name} from the current program")
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            write_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        info, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, tracing.TraceGuardError, ImportError, OSError,
            subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
