"""Per-op correctness checks on what ``bubblelab run`` wrote.

Two kinds of check:

* references: numbers committed in ``references.json`` for the fixed
  ``scaling``/``sweep`` configs and for ``algebra`` at seed 0, compared
  with tolerances that admit a change of quadrature rule or summation
  order but not a wrong integral;
* invariants, for every seed: exit code not 1, amplitude-system residual,
  structural eigenvalue 3, finite-difference gradient gap, gradient norm
  at the critical point, and ``d_tilde`` against its closed form
  ``sqrt(r (R^2 - |a|^2) / R)`` (with b2 = alpha^(p+1) omega_{N-1} / (2N)
  the reduced-energy weights and constants cancel).
"""

import csv
import math
from pathlib import Path

import numpy as np

# (relative, absolute) tolerance per observed quantity, by key suffix
TOLERANCES = {
    "values": (2e-8, 0.0),              # integrals, Gauss-Legendre accuracy
    "bounds": (2e-8, 0.0),
    "exponent_measured": (0.0, 1e-6),   # fitted slopes of those integrals
    "exponent_predicted": (0.0, 1e-12),  # closed forms
    "c": (1e-12, 1e-14),
    "lambdas": (1e-10, 1e-10),
    "d_tilde": (1e-12, 0.0),
    "epsilons": (1e-14, 0.0),
    "d_ests": (1e-7, 0.0),              # Newton solves converged to 1e-10
    "slope": (0.0, 1e-7),
}

RESIDUAL_TOL = 1e-9      # amplitude system, relative to max(1, |c|)
GRAD_FD_GAP_TOL = 1e-5   # the reduced-energy task's own pass threshold
GRAD_NORM_TOL = 1e-8     # gradient at the closed-form critical point
EIGEN3_TOL = 1e-8        # structural eigenvalue Lambda = 3


def _value(outputs, key):
    return outputs[key]["value"]


def _read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: [float(r[i]) for r in body] for i, h in enumerate(header)}


def observe(summary, out_dir):
    """Flatten the checked numbers of one run into {key: [floats]}."""
    obs = {}
    for entry in summary["tasks"]:
        task, outputs = entry["task"], entry["outputs"]
        if entry["verdict"] == "error":
            continue
        if task == "c-vector":
            for g in _value(outputs, "groups"):
                obs[f"group{g['group']}.c"] = g["c"]
        elif task == "spectrum":
            for g in _value(outputs, "groups"):
                obs[f"group{g['group']}.lambdas"] = g["lambdas"]
        elif task == "critical-point":
            obs["energy.d_tilde"] = _value(outputs, "d_tilde")
        elif task == "scaling-checks":
            for fam in _value(outputs, "families"):
                name = fam["name"]
                obs[f"{name}.exponent_measured"] = [fam["exponent_measured"]]
                obs[f"{name}.exponent_predicted"] = [fam["exponent_predicted"]]
                cols = _read_csv_columns(Path(out_dir) / f"scaling_{name}.csv")
                obs[f"{name}.values"] = cols["value"]
                if "bound" in cols:
                    obs[f"{name}.bounds"] = cols["bound"]
        elif task == "radial-sweep":
            obs["sweep.slope"] = [_value(outputs, "slope")]
            obs["sweep.d_tilde"] = [_value(outputs, "d_tilde")]
            obs["sweep.epsilons"] = _value(outputs, "epsilons")
            obs["sweep.d_ests"] = _value(outputs, "d_ests")
    return obs


def compare(observed, reference):
    """Problems found comparing observed numbers with a reference record."""
    problems = []
    for key in sorted(set(reference) | set(observed)):
        if key not in observed or key not in reference:
            problems.append(f"{key}: present in only one of run and reference")
            continue
        got, want = observed[key], reference[key]
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        rel, abs_ = TOLERANCES[key.rsplit(".", 1)[-1]]
        for k, (g, w) in enumerate(zip(got, want)):
            if g is None or not abs(g - w) <= abs_ + rel * abs(w):
                problems.append(f"{key}[{k}]: {g!r} vs reference {w!r}")
                break
    return problems


def _d_tilde_closed_form(config):
    R = float(config["domain"]["radius"])
    holes = config["domain"]["holes"]
    return [
        math.sqrt(float(h.get("radius_coeff", 1.0))
                  * (R * R - float(np.sum(np.square(h["center"])))) / R)
        for h in holes
    ]


def _amplitude_residual(config, group, c):
    coupling = config["coupling"]
    lo, hi = coupling["decomposition"][group], coupling["decomposition"][group + 1]
    block = np.asarray(coupling["beta"], float)[lo:hi, lo:hi]
    N = config["dims"]
    p = (N + 2) / (N - 2)
    c = np.asarray(c, float)
    res = block @ c ** ((p + 1) / 2) * c ** ((p - 1) / 2) - c
    return float(np.max(np.abs(res))) / max(1.0, float(np.max(np.abs(c))))


def invariants(config, summary):
    """Problems with the invariants every run must satisfy, any seed."""
    problems = []
    if summary["exit_code"] == 1:
        errors = [e["message"] for e in summary["tasks"] if e["verdict"] == "error"]
        problems.append("exit code 1: " + "; ".join(errors))
    for entry in summary["tasks"]:
        task, outputs = entry["task"], entry["outputs"]
        if entry["verdict"] == "error":
            continue
        if task == "c-vector":
            for g in _value(outputs, "groups"):
                res = _amplitude_residual(config, g["group"], g["c"])
                if not res <= RESIDUAL_TOL:
                    problems.append(f"group {g['group']}: amplitude residual {res:.3e}")
        elif task == "spectrum":
            for g in _value(outputs, "groups"):
                if not any(abs(v - 3.0) <= EIGEN3_TOL for v in g["lambdas"]):
                    problems.append(f"group {g['group']}: structural eigenvalue 3 missing")
        elif task == "reduced-energy":
            gap = _value(outputs, "grad_fd_gap")
            if not gap < GRAD_FD_GAP_TOL:
                problems.append(f"gradient finite-difference gap {gap!r}")
        elif task == "critical-point":
            norm = _value(outputs, "grad_norm")
            if _value(outputs, "signature_ok") and not (norm is not None and norm < GRAD_NORM_TOL):
                problems.append(f"gradient norm {norm!r} at the critical point")
            got = _value(outputs, "d_tilde")
            want = _d_tilde_closed_form(config)
            if len(got) != len(want) or any(
                abs(g - w) > TOLERANCES["d_tilde"][0] * w for g, w in zip(got, want)
            ):
                problems.append(f"d_tilde {got} vs closed form {want}")
        elif task == "radial-sweep":
            d_t = _value(outputs, "d_tilde")
            want = _d_tilde_closed_form(config)[0]
            if not abs(d_t - want) <= TOLERANCES["d_tilde"][0] * want:
                problems.append(f"sweep d_tilde {d_t!r} vs closed form {want!r}")
    return problems


def check_op(config, summary, out_dir, reference=None):
    """All problems with one op's outputs (empty list: correct)."""
    problems = invariants(config, summary)
    observed = observe(summary, out_dir)
    if reference is not None:
        problems += compare(observed, reference)
    if "sweep.epsilons" in observed:
        n_eps = len(observed["sweep.epsilons"])
        n_profiles = len(list(Path(out_dir).glob("profile_*.csv")))
        if n_profiles != n_eps:
            problems.append(f"{n_profiles} profile CSVs for {n_eps} converged solves")
    return problems
