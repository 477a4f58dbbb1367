"""Batch front-end: JSON experiment configs in, JSON/CSV reports out.

Pipeline order: amplitude vectors -> coupling spectrum -> reduced-energy
model -> critical point, plus optional integral scaling-law fits and the
radial Newton-continuation sweep.  ``run`` writes ``summary.json`` and CSV
tables into the output directory and encodes the overall verdict in the
exit status: 0 all tasks pass, 1 error, 2 degenerate or inconclusive.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    default_delta_grid,
    scaling_law_pair,
    scaling_law_single,
    scaling_law_weighted,
    single_exponent,
    weighted_exponent,
)
from .bubbles import dims_for
from .coupling import (
    CouplingSpec,
    NoPositiveSolution,
    admissible_beta_range,
    build_spectrum,
    solve_c_vector,
    system_residual,
)
from .energy import ReducedEnergyModel, ReducedPoint, critical_point, psi_grad, psi_value
from .greens import Ball, kernel_robin
from .solver import rate_sweep

CONFIG_SCHEMA = "bubblelab-config/1"
SUMMARY_SCHEMA = "bubblelab-summary/2"

TASK_ORDER = (
    "c-vector",
    "spectrum",
    "reduced-energy",
    "critical-point",
    "scaling-checks",
    "radial-sweep",
)
_PREREQUISITES = {
    "spectrum": "c-vector",
    "reduced-energy": "c-vector",
    "critical-point": "reduced-energy",
}

EXIT_PASS, EXIT_ERROR, EXIT_DEGENERATE = 0, 1, 2
MAX_EPSILONS = 1000   # Newton solves in one radial sweep
MAX_NODES = 10**6     # mesh nodes of one radial solve
PAIR_DELTAS = (4, 27)  # pair grid sizes n: > 3 fit parameters, delta >= 1.5e-9
CSV_BLOCK_ROWS = 8192  # rows formatted by one `%` call in _write_csv


# --------------------------------------------------------------- diagnostics


@dataclass(frozen=True)
class Diagnostic:
    level: str      # "error" or "warning"
    field: str      # dotted config path
    message: str

    def __str__(self):
        return f"{self.level}[{self.field}]: {self.message}"


def _err(diags, field_name, message):
    diags.append(Diagnostic("error", field_name, message))


def _warn(diags, field_name, message):
    diags.append(Diagnostic("warning", field_name, message))


# -------------------------------------------------------------------- config


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one JSON file)."""

    dims: object
    coupling: CouplingSpec
    ball: Ball
    hole_centers: np.ndarray      # one row per hole
    hole_coeffs: np.ndarray
    eta: float
    epsilon_grid: np.ndarray
    n_nodes: int
    tasks: tuple
    scaling: tuple                # family descriptors (kind, params dict)
    out_dir: str = None
    raw: dict = field(default=None, repr=False)


def _scaling_defaults(N):
    top = 2.0 * N / (N - 2.0)
    return (
        ("single", {"q": 1.0}),
        ("single", {"q": top}),
        ("weighted", {"q": top, "nu1": 0.0, "nu2": 2.0}),
    )


def _parse_scaling(raw, N, diags):
    if raw is None:
        return _scaling_defaults(N)
    if not isinstance(raw, dict):
        _err(diags, "scaling", "must be an object with single/weighted/pair lists")
        return ()
    dims = dims_for(N)
    families = []
    for kind in ("single", "weighted", "pair"):
        entries = raw.get(kind, [])
        if not isinstance(entries, list):
            _err(diags, f"scaling.{kind}", "must be a list of objects")
            continue
        for k, entry in enumerate(entries):
            where = f"scaling.{kind}[{k}]"
            if not isinstance(entry, dict):
                _err(diags, where, "must be an object")
                continue
            try:
                params = {key: float(entry[key]) for key in entry}
            except (TypeError, ValueError, OverflowError):
                _err(diags, where, "parameters must be numeric")
                continue
            try:
                if kind == "single":
                    single_exponent(dims, params["q"])
                elif kind == "weighted":
                    weighted_exponent(
                        dims, params["q"], params.get("nu1", 0.0), params.get("nu2", 0.0)
                    )
                else:
                    if params.get("q1", -1) < 0 or params.get("q2", -1) < 0:
                        raise ValueError("q1 and q2 must be nonnegative")
                    sep = params.get("separation", 0.5)
                    if not 0 < sep < 4.0 / 3.0:
                        raise ValueError("separation must lie in (0, 4/3) of the radius")
                    n, (lo, hi) = params.get("n", 7.0), PAIR_DELTAS
                    if not (n.is_integer() and lo <= n <= hi):
                        raise ValueError(f"n must be an integer in [{lo}, {hi}]")
            except KeyError as exc:
                _err(diags, where, f"missing parameter {exc}")
                continue
            except ValueError as exc:
                _err(diags, where, str(exc))
                continue
            families.append((kind, params))
    if not families:
        _err(diags, "scaling", "no valid scaling families given")
    return tuple(families)


def _parse_epsilon_grid(raw, diags):
    if raw is None:
        return np.geomspace(1e-2, 1e-4, 8)
    where = "reduction.epsilon_grid"
    if isinstance(raw, dict):
        try:
            start, stop = float(raw["start"]), float(raw["stop"])
            num = int(raw["num"])
        except (KeyError, TypeError, ValueError, OverflowError):
            _err(diags, where, "needs numeric start/stop and integer num")
            return None
        if not (start > 0 and stop > 0):
            _err(diags, where, "start and stop must be positive")
            return None
        if not 2 <= num <= MAX_EPSILONS:
            _err(diags, where, f"num must lie in [2, {MAX_EPSILONS}]")
            return None
        grid = np.geomspace(start, stop, num)
    elif isinstance(raw, list):
        try:
            grid = np.asarray([float(v) for v in raw])
        except (TypeError, ValueError):
            _err(diags, where, "entries must be numeric")
            return None
        if len(grid) < 2 or not np.all(grid > 0):
            _err(diags, where, "need at least two positive values")
            return None
    else:
        _err(diags, where, "must be a list or a start/stop/num object")
        return None
    if np.max(grid) > 0.1:
        _warn(diags, where, "epsilon above 0.1 is outside the asymptotic regime")
    return grid


def parse_config(data):
    """Validate a raw config dict.  Returns (ExperimentConfig or None,
    diagnostics); the config is None iff any diagnostic is an error."""
    diags = []
    if not isinstance(data, dict):
        _err(diags, "<root>", "config must be a JSON object")
        return None, diags

    if data.get("schema") != CONFIG_SCHEMA:
        _err(diags, "schema", f"expected {CONFIG_SCHEMA!r}, got {data.get('schema')!r}")

    N = data.get("dims")
    if N not in (3, 4):
        _err(diags, "dims", "dims must be 3 or 4")
        return None, diags
    dims = dims_for(N)

    # ---- coupling block
    coupling = data.get("coupling")
    spec = None
    if not isinstance(coupling, dict):
        _err(diags, "coupling", "missing coupling object (mu, beta, decomposition)")
    else:
        try:
            mu = np.asarray(coupling["mu"], dtype=float)
            beta = np.asarray(coupling["beta"], dtype=float)
            decomposition = tuple(int(v) for v in coupling["decomposition"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            _err(diags, "coupling", f"malformed coupling block: {exc}")
            mu = beta = decomposition = None
        if mu is not None:
            m = len(mu)
            if beta.shape != (m, m):
                _err(diags, "coupling.beta", f"beta must be {m}x{m}")
            elif not np.array_equal(beta, beta.T):
                _err(diags, "coupling.beta", "beta must be symmetric")
            else:
                if np.all(np.diag(beta) == 0.0):
                    beta = beta + np.diag(mu)   # diagonal may be left implicit
                try:
                    spec = CouplingSpec(
                        N=N, m=m, mu=mu, beta=beta, decomposition=decomposition
                    )
                except ValueError as exc:
                    _err(diags, "coupling", str(exc))
    if spec is not None:
        for h in range(spec.n_groups):
            idx = list(spec.group_indices(h))
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    i, j = idx[a], idx[b]
                    admissible = admissible_beta_range(spec.mu[i], spec.mu[j])
                    if not admissible(spec.beta[i, j]):
                        _warn(
                            diags,
                            f"coupling.beta[{i}][{j}]",
                            f"beta = {spec.beta[i, j]:g} is outside the "
                            f"two-component admissible range for mu = "
                            f"({spec.mu[i]:g}, {spec.mu[j]:g}); degenerate "
                            "regions may be probed deliberately",
                        )

    # ---- domain block
    domain = data.get("domain")
    ball = None
    centers = coeffs = None
    if not isinstance(domain, dict):
        _err(diags, "domain", "missing domain object (radius, holes)")
    else:
        radius = domain.get("radius")
        if not isinstance(radius, (int, float)) or not radius > 0:
            _err(diags, "domain.radius", "radius must be a positive number")
        else:
            center = np.asarray(domain.get("center", [0.0] * N), dtype=float)
            if center.shape != (N,):
                _err(diags, "domain.center", f"center must have {N} coordinates")
            else:
                ball = Ball(radius=float(radius), center=center, dims=dims)
        holes = domain.get("holes")
        if not isinstance(holes, list) or not holes:
            _err(diags, "domain.holes", "at least one hole is required")
        else:
            centers = np.zeros((len(holes), N))
            coeffs = np.zeros(len(holes))
            for k, hole in enumerate(holes):
                where = f"domain.holes[{k}]"
                try:
                    c = np.asarray(hole["center"], dtype=float)
                    r = float(hole.get("radius_coeff", 1.0))
                except (KeyError, TypeError, ValueError) as exc:
                    _err(diags, where, f"malformed hole: {exc}")
                    continue
                if c.shape != (N,):
                    _err(diags, where, f"hole center must have {N} coordinates")
                    continue
                if not r > 0:
                    _err(diags, where, "radius_coeff must be positive")
                centers[k] = c
                coeffs[k] = r
                if ball is not None:
                    gap = ball.radius - float(np.linalg.norm(c - ball.center))
                    if not gap > 1e-12 * ball.radius:
                        _err(diags, where, "hole touches or leaves the ambient boundary")
            for a in range(len(holes)):
                for b in range(a + 1, len(holes)):
                    if np.linalg.norm(centers[a] - centers[b]) == 0.0:
                        _err(
                            diags,
                            f"domain.holes[{b}]",
                            f"coincides with hole {a}; holes must be disjoint",
                        )

    # ---- reduction block
    reduction = data.get("reduction")
    if reduction is None:
        reduction = {}
    elif not isinstance(reduction, dict):
        _err(diags, "reduction", "must be an object (eta, epsilon_grid, n_nodes)")
        reduction = {}
    eta = reduction.get("eta", 1e-3)
    if not isinstance(eta, (int, float)) or not 0 < eta < 1:
        _err(diags, "reduction.eta", "eta must lie in (0, 1)")
        eta = 1e-3
    grid = _parse_epsilon_grid(reduction.get("epsilon_grid"), diags)
    n_nodes = reduction.get("n_nodes", 2000)
    if not isinstance(n_nodes, int) or not 100 <= n_nodes <= MAX_NODES:
        _err(diags, "reduction.n_nodes", f"n_nodes must be an integer in [100, {MAX_NODES}]")

    # ---- tasks
    tasks_raw = data.get("tasks", [])
    if not isinstance(tasks_raw, list):
        _err(diags, "tasks", "tasks must be a list")
        tasks_raw = []
    tasks = []
    for t in tasks_raw:
        if t not in TASK_ORDER:
            _err(diags, "tasks", f"unknown task {t!r} (known: {', '.join(TASK_ORDER)})")
        else:
            tasks.append(t)
    for t in tasks:
        need = _PREREQUISITES.get(t)
        if need is not None and need not in tasks:
            _err(diags, "tasks", f"{t!r} requires {need!r} in the task list")
    if spec is not None and centers is not None:
        if ("reduced-energy" in tasks or "critical-point" in tasks) and len(
            centers
        ) != spec.n_groups:
            _err(
                diags,
                "domain.holes",
                f"reduced-energy needs one hole per group "
                f"({len(centers)} holes vs {spec.n_groups} groups)",
            )
    if "radial-sweep" in tasks and centers is not None and ball is not None:
        centered = len(centers) == 1 and np.linalg.norm(centers[0] - ball.center) == 0.0
        if not centered:
            _err(diags, "tasks", "radial-sweep requires a single centered hole")

    scaling = (
        _parse_scaling(data.get("scaling"), N, diags)
        if "scaling-checks" in tasks or data.get("scaling") is not None
        else ()
    )

    out_dir = data.get("output", {}).get("dir") if isinstance(data.get("output"), dict) else None

    if any(d.level == "error" for d in diags):
        return None, diags
    return (
        ExperimentConfig(
            dims=dims,
            coupling=spec,
            ball=ball,
            hole_centers=centers,
            hole_coeffs=coeffs,
            eta=float(eta),
            epsilon_grid=grid,
            n_nodes=n_nodes,
            tasks=tuple(tasks),
            scaling=scaling,
            out_dir=out_dir,
            raw=data,
        ),
        diags,
    )


def load_config(path):
    """Read and validate a config file; malformed JSON is a diagnostic."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        return None, [Diagnostic("error", "<file>", f"cannot read config: {exc}")]
    except json.JSONDecodeError as exc:
        return None, [Diagnostic("error", "<file>", f"malformed JSON: {exc}")]
    return parse_config(data)


# ------------------------------------------------------------------- reports


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _num(value, module, operation):
    """Report numeric payload tagged with the producing module/operation."""
    return {"value": _jsonable(value), "module": module, "operation": operation}


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV with CRLF line ends: ``%d`` for
    integer columns, ``%.12e`` for the rest.  Each block of CSV_BLOCK_ROWS
    rows is formatted by a single ``%`` call."""
    fmts = ["%d" if np.asarray(c).dtype.kind in "iu" else "%.12e" for c in columns]
    line = ",".join(fmts) + "\r\n"
    table = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


# --------------------------------------------------------------------- tasks


def _task_c_vector(cfg, ctx, rng, out):
    spec = cfg.coupling
    cvecs = []
    groups = []
    worst = "pass"
    message = "positive amplitude vector in every group"
    for h in range(spec.n_groups):
        try:
            cv = solve_c_vector(spec, h)
        except NoPositiveSolution as exc:
            return "degenerate", f"degenerate: group {h}: {exc}", {
                "groups": _num(groups, "coupling", "solve_c_vector")
            }
        cvecs.append(cv)
        res = np.max(np.abs(system_residual(spec.group_block(h), cv.c, spec.p)))
        groups.append(
            {
                "group": h,
                "components": list(spec.group_indices(h)),
                "c": cv.c,
                "c_squared": cv.c**2,
                "system_residual_sup": res,
                "boundary": cv.boundary,
            }
        )
        if cv.boundary:
            worst = "degenerate"
            message = f"degenerate: group {h} amplitude hits the existence boundary"
    ctx["cvecs"] = cvecs
    return worst, message, {"groups": _num(groups, "coupling", "solve_c_vector")}


_VERDICT_RANK = {"pass": 0, "inconclusive": 1, "degenerate": 2, "error": 3}


def _spectrum_message(report):
    lam = np.sort(report.lambdas)[::-1]
    if report.verdict == "nondegenerate":
        return "nondegenerate"
    # lambda_1 is the structural eigenvalue 3; the rest are numbered after
    # it in descending order
    near3 = np.abs(lam - 3.0) <= 1e-8
    if np.any(near3):
        first = int(np.argmax(near3))
        others = np.delete(lam, first)
    else:
        others = lam
    for k, v in enumerate(others):
        if report.verdict == "degenerate" and (
            abs(v - 1.0) <= 1e-8 or abs(v - 3.0) <= 1e-8
        ):
            return f"degenerate: lambda_{k + 2} = {v:.6g}"
        if report.verdict == "inconclusive" and (v > 3.0 + 1e-8 or v < -1.0 - 1e-8):
            return (
                f"inconclusive: lambda_{k + 2} = {v:.6g} outside the certified "
                "ladder range"
            )
    return report.verdict


def _task_spectrum(cfg, ctx, rng, out):
    spec = cfg.coupling
    groups = []
    worst = "pass"
    messages = []
    for h, cv in enumerate(ctx["cvecs"]):
        report = build_spectrum(spec, cv)
        msg = _spectrum_message(report)
        groups.append(
            {
                "group": h,
                "lambdas": report.lambdas,
                "thetas": report.thetas,
                "det_identity_gap": report.det_identity_gap,
                "verdict": report.verdict,
                "message": msg,
            }
        )
        task_verdict = "pass" if report.verdict == "nondegenerate" else report.verdict
        if _VERDICT_RANK[task_verdict] > _VERDICT_RANK[worst]:
            worst = task_verdict
        if task_verdict != "pass":
            messages.append(f"group {h}: {msg}")
    message = "; ".join(messages) if messages else "all groups nondegenerate"
    return worst, message, {
        "groups": _num(groups, "coupling", "build_spectrum"),
    }


def _task_reduced_energy(cfg, ctx, rng, out):
    spec = cfg.coupling
    weights = np.array([float(np.sum(cv.c**2)) for cv in ctx["cvecs"]])
    robin = np.array(
        [kernel_robin(cfg.ball, a) for a in cfg.hole_centers]
    )
    model = ReducedEnergyModel(
        dims=cfg.dims, weights=weights, robin=robin, hole_r=cfg.hole_coeffs
    )
    ctx["model"] = model

    # seeded spot check: analytic gradient vs central differences at a
    # random interior point of the box
    d_probe = np.exp(rng.uniform(-0.5, 0.5, model.n_peaks))
    tau_probe = rng.uniform(-0.2, 0.2, (model.n_peaks, cfg.dims.N))
    pt = ReducedPoint(d=d_probe, tau=tau_probe, eta=cfg.eta)
    analytic = psi_grad(model, pt)
    step = 1e-6
    fd = np.zeros_like(analytic)
    for k in range(model.n_peaks):
        for sgn in (+1, -1):
            d_shift = d_probe.copy()
            d_shift[k] += sgn * step
            fd[k] += sgn * psi_value(
                model, ReducedPoint(d=d_shift, tau=tau_probe, eta=cfg.eta)
            )
    for k in range(model.n_peaks):
        for hcoord in range(cfg.dims.N):
            for sgn in (+1, -1):
                t_shift = tau_probe.copy()
                t_shift[k, hcoord] += sgn * step
                fd[model.n_peaks + k * cfg.dims.N + hcoord] += sgn * psi_value(
                    model, ReducedPoint(d=d_probe, tau=t_shift, eta=cfg.eta)
                )
    fd /= 2 * step
    gap = float(np.max(np.abs(fd - analytic)) / (1.0 + np.max(np.abs(analytic))))
    verdict = "pass" if gap < 1e-5 else "inconclusive"
    message = f"analytic vs finite-difference gradient gap {gap:.3e}"
    return verdict, message, {
        "weights": _num(weights, "coupling", "solve_c_vector"),
        "robin": _num(robin, "greens", "kernel_robin"),
        "hole_r": _num(cfg.hole_coeffs, "cli", "config"),
        "b1": _num(model.b1, "energy", "constant_b1"),
        "b2": _num(model.b2, "energy", "constant_b2"),
        "grad_fd_gap": _num(gap, "energy", "psi_grad"),
        "probe_d": _num(d_probe, "cli", "rng"),
    }


def _task_critical_point(cfg, ctx, rng, out):
    model = ctx["model"]
    rep = critical_point(model, eta=cfg.eta)
    psi_min = psi_value(model, rep.point)
    if not rep.in_box:
        verdict = "inconclusive"
        message = "inconclusive: critical point leaves the admissible box"
    elif not rep.signature_ok:
        verdict = "degenerate"
        message = "degenerate: Hessian signature is not (d positive, tau negative)"
    elif rep.grad_norm >= 1e-10:
        verdict = "inconclusive"
        message = f"inconclusive: gradient norm {rep.grad_norm:.3e} at the candidate"
    else:
        verdict = "pass"
        message = (
            f"critical point at d_tilde with |grad| = {rep.grad_norm:.3e}, "
            "min-max signature confirmed"
        )
    return verdict, message, {
        "d_tilde": _num(rep.point.d, "energy", "critical_point"),
        "psi_value": _num(psi_min, "energy", "psi_value"),
        "grad_norm": _num(rep.grad_norm, "energy", "psi_grad"),
        "hess_d_block": _num(rep.hess_d, "energy", "psi_hessian_at_flat"),
        "hess_tau_block": _num(rep.hess_tau, "energy", "psi_hessian_at_flat"),
        "signature_ok": _num(rep.signature_ok, "energy", "critical_point"),
    }


def _family_name(kind, params):
    if kind == "single":
        return f"single_q{params['q']:g}"
    if kind == "weighted":
        return (
            f"weighted_q{params['q']:g}"
            f"_nu{params.get('nu1', 0.0):g}_{params.get('nu2', 0.0):g}"
        )
    return f"pair_q{params['q1']:g}_{params['q2']:g}"


def _run_family(dims, domain_radius, kind, params):
    if kind == "single":
        return scaling_law_single(params["q"], dims, domain_radius=domain_radius)
    if kind == "weighted":
        return scaling_law_weighted(
            params["q"],
            params.get("nu1", 0.0),
            params.get("nu2", 0.0),
            dims,
            domain_radius=domain_radius,
        )
    return scaling_law_pair(
        params["q1"],
        params["q2"],
        dims,
        delta_grid=default_delta_grid(n=int(params.get("n", 7))),
        separation=params.get("separation", 0.5),
        domain_radius=domain_radius,
    )


def _family_verdict(kind, fit):
    slope_tol = 0.25 if kind == "pair" else 0.05
    if abs(fit.exponent_measured - fit.exponent_predicted) > slope_tol:
        return "inconclusive", (
            f"slope {fit.exponent_measured:.3f} vs predicted "
            f"{fit.exponent_predicted:.3f}"
        )
    constant = abs(fit.exponent_predicted) < 1e-12 and not fit.has_log
    if not constant and kind != "pair" and fit.r2 < 0.999:
        return "inconclusive", f"log-log fit r^2 = {fit.r2:.5f} < 0.999"
    if kind == "pair":
        ratios = fit.ratios
        if np.max(ratios) > 10.0 * np.min(ratios):
            return "inconclusive", "value/bound ratio spreads more than 10x"
    return "pass", "within tolerance"


def _task_scaling(cfg, ctx, rng, out):
    families = []
    worst = "pass"
    messages = []
    for kind, params in cfg.scaling:
        fit = _run_family(cfg.dims, cfg.ball.radius, kind, params)
        name = _family_name(kind, params)
        verdict, note = _family_verdict(kind, fit)
        if _VERDICT_RANK[verdict] > _VERDICT_RANK[worst]:
            worst = verdict
        if verdict != "pass":
            messages.append(f"{name}: {note}")
        families.append(
            {
                "name": name,
                "kind": kind,
                "params": params,
                "exponent_predicted": fit.exponent_predicted,
                "exponent_measured": fit.exponent_measured,
                "r2": fit.r2,
                "has_log": fit.has_log,
                "verdict": verdict,
                "note": note,
            }
        )
        header = ["delta", "value"]
        columns = [fit.delta_grid, fit.values]
        if fit.bound_values is not None:
            header.append("bound")
            columns.append(fit.bound_values)
        _write_csv(out / f"scaling_{name}.csv", header, columns)
    message = "; ".join(messages) if messages else "all families within tolerance"
    op = "scaling_law_single/weighted/pair"
    return worst, message, {"families": _num(families, "asymptotics", op)}


def _task_radial_sweep(cfg, ctx, rng, out):
    sweep = rate_sweep(
        cfg.dims,
        cfg.ball.radius,
        float(cfg.hole_coeffs[0]),
        cfg.epsilon_grid,
        n_nodes=cfg.n_nodes,
    )
    for eps, res in zip(sweep.epsilons, sweep.results):
        _write_csv(
            out / f"profile_{eps:.3e}.csv", ["radius", "value"], [res.grid.nodes, res.grid.values]
        )
    keys = ("delta_est", "d_est", "umax", "rpeak", "energy")
    columns = [[getattr(res.metrics, key) for res in sweep.results] for key in keys]
    iterations = [res.report.iterations for res in sweep.results]
    header = ["epsilon", *keys, "iterations"]
    _write_csv(out / "sweep_rate.csv", header, [sweep.epsilons, *columns, iterations])
    outputs = {
        "slope": _num(sweep.slope, "solver", "rate_sweep"),
        "d_final": _num(sweep.d_final, "solver", "rate_sweep"),
        "d_tilde": _num(sweep.d_tilde, "energy", "critical_point"),
        "epsilons": _num(sweep.epsilons, "solver", "rate_sweep"),
        "delta_ests": _num(sweep.delta_ests, "solver", "rate_sweep"),
        "d_ests": _num(sweep.d_ests, "solver", "rate_sweep"),
    }
    if sweep.aborted:
        return "error", f"sweep aborted: {sweep.message}", outputs
    ok_slope = abs(sweep.slope - 0.5) <= 0.05
    ok_amp = abs(sweep.d_final / sweep.d_tilde - 1.0) <= 0.20
    if ok_slope and ok_amp:
        return "pass", (
            f"slope {sweep.slope:.3f} (predicted 0.5), amplitude within "
            f"{abs(sweep.d_final / sweep.d_tilde - 1) * 100:.1f}% of the "
            "reduced-energy rate"
        ), outputs
    parts = []
    if not ok_slope:
        parts.append(f"slope {sweep.slope:.3f} outside 0.50 +/- 0.05")
    if not ok_amp:
        parts.append(
            f"d_est {sweep.d_final:.4f} vs d_tilde {sweep.d_tilde:.4f} beyond 20%"
        )
    return "inconclusive", "; ".join(parts), outputs


# ----------------------------------------------------------------------- run


def run(config, out_dir, seed=0):
    """Execute the configured tasks; returns (exit_code, summary dict).

    Also writes summary.json plus per-task CSV artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ctx = {}
    entries = []
    worst = "pass"
    for task in TASK_ORDER:
        if task not in config.tasks:
            continue
        meta = {
            "c-vector": ("coupling", "solve_c_vector"),
            "spectrum": ("coupling", "build_spectrum"),
            "reduced-energy": ("energy", "ReducedEnergyModel"),
            "critical-point": ("energy", "critical_point"),
            "scaling-checks": ("asymptotics", "scaling_law fits"),
            "radial-sweep": ("solver", "rate_sweep"),
        }[task]
        t0 = time.perf_counter()
        try:
            if task == "c-vector":
                verdict, message, outputs = _task_c_vector(config, ctx, rng, out)
            elif task == "spectrum":
                verdict, message, outputs = _task_spectrum(config, ctx, rng, out)
            elif task == "reduced-energy":
                verdict, message, outputs = _task_reduced_energy(config, ctx, rng, out)
            elif task == "critical-point":
                verdict, message, outputs = _task_critical_point(config, ctx, rng, out)
            elif task == "scaling-checks":
                verdict, message, outputs = _task_scaling(config, ctx, rng, out)
            else:
                verdict, message, outputs = _task_radial_sweep(config, ctx, rng, out)
        except Exception as exc:   # numerical failures keep task attribution
            verdict, message, outputs = "error", f"{type(exc).__name__}: {exc}", {}
        elapsed = time.perf_counter() - t0
        entries.append(
            {
                "task": task,
                "module": meta[0],
                "operation": meta[1],
                "inputs": _task_inputs(config, task),
                "outputs": outputs,
                "verdict": verdict,
                "message": message,
                "time_s": round(elapsed, 6),
            }
        )
        if _VERDICT_RANK[verdict] > _VERDICT_RANK[worst]:
            worst = verdict
    exit_code = {
        "pass": EXIT_PASS,
        "inconclusive": EXIT_DEGENERATE,
        "degenerate": EXIT_DEGENERATE,
        "error": EXIT_ERROR,
    }[worst]
    summary = {
        "schema": SUMMARY_SCHEMA,
        "package_version": __version__,
        "seed": int(seed),
        "tasks": entries,
        "verdict": worst,
        "exit_code": exit_code,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exit_code, summary


def _task_inputs(config, task):
    spec = config.coupling
    common = {"dims": config.dims.N}
    if task in ("c-vector", "spectrum"):
        common.update(
            {
                "mu": _jsonable(spec.mu),
                "beta": _jsonable(spec.beta),
                "decomposition": list(spec.decomposition),
            }
        )
    elif task in ("reduced-energy", "critical-point"):
        common.update(
            {
                "ball_radius": config.ball.radius,
                "hole_centers": _jsonable(config.hole_centers),
                "hole_coeffs": _jsonable(config.hole_coeffs),
                "eta": config.eta,
            }
        )
    elif task == "scaling-checks":
        common["families"] = [
            {"kind": kind, **{k: v for k, v in params.items()}}
            for kind, params in config.scaling
        ]
    elif task == "radial-sweep":
        common.update(
            {
                "ball_radius": config.ball.radius,
                "hole_coeff": float(config.hole_coeffs[0]),
                "epsilon_grid": _jsonable(config.epsilon_grid),
                "n_nodes": config.n_nodes,
            }
        )
    return common


# ----------------------------------------------------------------------- cli


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bubblelab",
        description="batch runner for bubble-concentration experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the tasks in a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: config output.dir "
                            "or ./bubblelab_out)")
    p_run.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("config", help="path to a JSON experiment config")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    config, diags = load_config(args.config)
    for d in diags:
        print(str(d), file=sys.stderr)

    if args.command == "validate":
        if config is None:
            return EXIT_ERROR
        print(f"ok: {len(config.tasks)} task(s), "
              f"{len([d for d in diags if d.level == 'warning'])} warning(s)")
        return EXIT_PASS

    if config is None:
        return EXIT_ERROR
    if not 0 <= args.seed < 2**64:
        print("error[--seed]: seed must fit in u64", file=sys.stderr)
        return EXIT_ERROR

    out_dir = args.out if args.out is not None else (config.out_dir or "bubblelab_out")
    exit_code, summary = run(config, out_dir, seed=args.seed)
    print(f"verdict: {summary['verdict']} (exit {exit_code}); "
          f"report: {Path(out_dir) / 'summary.json'}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
