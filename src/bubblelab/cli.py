"""Batch front-end: JSON experiment configs in, JSON/CSV reports out.

Pipeline order: amplitude vectors -> coupling spectrum -> reduced-energy
model -> critical point, plus optional integral scaling-law fits and the
radial Newton-continuation sweep.  ``run`` writes ``summary.json`` and CSV
tables into the output directory and encodes the overall verdict in the
exit status: 0 all tasks pass, 1 error, 2 degenerate or inconclusive.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    check_separation,
    default_delta_grid,
    pair_exponent,
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
from .energy import (
    GRAD_CHECK_STEP,
    ReducedEnergyModel,
    ReducedPoint,
    critical_point,
    gradient_check,
    psi_value,
)
from .greens import Ball, check_holes, kernel_robin
from .solver import DEFAULT_NODES, rate_sweep

CONFIG_SCHEMA = "bubblelab-config/1"
SUMMARY_SCHEMA = "bubblelab-summary/5"

EXIT_PASS, EXIT_ERROR, EXIT_DEGENERATE = 0, 1, 2
MAX_EPSILONS = 1000   # Newton solves in one radial sweep
MAX_NODES = 10**6     # mesh nodes of one radial solve
_DEFAULT_EPSILON_GRID = np.geomspace(1e-2, 1e-4, 8)   # shared by every config, so read-only
_DEFAULT_EPSILON_GRID.flags.writeable = False
PAIR_DELTAS = (4, 27)  # pair grid sizes n: > 3 fit parameters, delta >= 1.5e-9
# rows formatted at a time by _write_csv; bounds its buffers (a tracemalloc
# peak of 3.6 MB on a two-column table of any length).  Large, since a sweep
# writes on a thread that shares the GIL with the solves: each numpy call of
# the writer is one more point where one thread waits for the other
CSV_BLOCK_ROWS = 32768


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


def _unknown_keys(diags, field_name, block, known, what="key"):
    """An error for each key of the config object `block` not in `known`, in
    the config's order, since a misspelt key would otherwise be ignored;
    true if there was one."""
    unknown = [key for key in block if key not in known]
    for key in unknown:
        _err(diags, field_name, f"unknown {what} {key!r}")
    return bool(unknown)


def _object(diags, where, value, message, row=None):
    """Whether `value`, the config object at `where`, is a JSON object.  If not, the error
    `message`, its "{}" the keys of _OBJECTS[row or where]; if so, one per unknown key."""
    keys = _OBJECTS[row or where]
    if not isinstance(value, dict):
        _err(diags, where, message.format(", ".join(keys)))
        return False
    _unknown_keys(diags, where, value, keys)
    return True


# -------------------------------------------------------------------- config


# config object ([k]: each hole) -> its keys; the scaling objects' are _FAMILIES
_OBJECTS = {
    "<root>": ("schema", "dims", "coupling", "domain", "reduction", "tasks", "scaling", "output"),
    "coupling": ("mu", "beta", "decomposition"),
    "domain": ("radius", "center", "holes"),
    "domain.holes[k]": ("center", "radius_coeff"),
    "reduction": ("eta", "epsilon_grid", "n_nodes"),
    "reduction.epsilon_grid": ("start", "stop", "num"),
    "output": ("dir",),
}
_EMPTY_DIR = "dir must be a non-empty string"   # output.dir's error, and --out's


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


def _check_pair(dims, radius, params):
    """The library's checks of a pair family, then the CLI's grid size."""
    pair_exponent(dims, params["q1"], params["q2"])
    if radius is not None:   # else the domain block has reported its error
        check_separation(params["separation"], radius)
    n, (lo, hi) = params["n"], PAIR_DELTAS
    if not (n.is_integer() and lo <= n <= hi):
        raise ValueError(f"n must be an integer in [{lo}, {hi}]")


def _check_weighted(dims, radius, params):
    """The library's checks, then that the default grid's largest hole fits."""
    *_, excise = weighted_exponent(dims, **params)
    hole = default_delta_grid()[0] ** 2
    if excise and radius is not None and radius <= hole:
        raise ValueError(f"the excised hole of radius {hole:.3g} must lie inside the domain")


# scaling family kind -> its parameters and their defaults (None: required),
# CSV name, slope tolerance, check(dims, R, params), which raises ValueError
# and gets R = None if the domain radius failed, and fit(dims, R, params).
# Both call the library by its module-level names, which the benchmark
# tracer rebinds.
_Family = namedtuple("_Family", "params name slope_tol check fit")
_FAMILIES = {
    "single": _Family(
        params={"q": None},
        name="single_q{q:g}",
        slope_tol=0.05,
        check=lambda dims, R, p: single_exponent(dims, **p),
        fit=lambda dims, R, p: scaling_law_single(dims=dims, domain_radius=R, **p),
    ),
    "weighted": _Family(
        params={"q": None, "nu1": 0.0, "nu2": 0.0},
        name="weighted_q{q:g}_nu{nu1:g}_{nu2:g}",
        slope_tol=0.05,
        check=_check_weighted,
        fit=lambda dims, R, p: scaling_law_weighted(dims=dims, domain_radius=R, **p),
    ),
    "pair": _Family(
        params={"q1": None, "q2": None, "separation": 0.5, "n": 7.0},
        name="pair_q{q1:g}_{q2:g}",
        slope_tol=0.25,
        check=_check_pair,
        fit=lambda dims, R, p: scaling_law_pair(
            p["q1"], p["q2"], dims, default_delta_grid(n=int(p["n"])), p["separation"], R
        ),
    ),
}


def _parse_scaling(raw, dims, radius, diags):
    if raw is None:   # the default families
        top = 2.0 * dims.N / (dims.N - 2.0)
        raw = {"single": [{"q": 1.0}, {"q": top}], "weighted": [{"q": top, "nu2": 2.0}]}
    if not isinstance(raw, dict):
        _err(diags, "scaling", f"must be an object with {'/'.join(_FAMILIES)} lists")
        return ()
    _unknown_keys(diags, "scaling", raw, _FAMILIES.keys())
    families = []
    taken = {}   # family name -> the entry that has it; names key the CSV files
    for kind, family in _FAMILIES.items():
        table = family.params
        entries = raw.get(kind, [])
        if not isinstance(entries, list):
            _err(diags, f"scaling.{kind}", "must be a list of objects")
            continue
        for k, entry in enumerate(entries):
            where = f"scaling.{kind}[{k}]"
            if not isinstance(entry, dict):
                _err(diags, where, "must be an object")
                continue
            unknown = _unknown_keys(diags, where, entry, table, "parameter")
            missing = [key for key, default in table.items()
                       if default is None and key not in entry]
            for key in missing:
                _err(diags, where, f"missing parameter {key!r}")
            if unknown or missing:
                continue
            if not all(_is_finite(v) for v in entry.values()):
                _err(diags, where, "parameters must be finite numbers")
                continue
            params = {key: float(entry.get(key, default)) for key, default in table.items()}
            try:
                family.check(dims, radius, params)
            except ValueError as exc:
                _err(diags, where, str(exc))
                continue
            name = family.name.format(**params)
            if name in taken:
                _err(diags, where, f"family name {name!r} is already taken by {taken[name]}")
                continue
            taken[name] = where
            families.append((kind, params))
    if not families:
        _err(diags, "scaling", "no valid scaling families given")
    return tuple(families)


def _parse_epsilon_grid(raw, diags):
    if raw is None:
        return _DEFAULT_EPSILON_GRID
    where = "reduction.epsilon_grid"
    if isinstance(raw, list):
        grid = _floats(raw)
        if grid is None:
            _err(diags, where, "entries must be finite numbers")
            return None
        if len(grid) < 2 or not (grid > 0).all():
            _err(diags, where, "need at least two positive finite values")
            return None
        if len(grid) > MAX_EPSILONS:
            _err(diags, where, f"at most {MAX_EPSILONS} values")
            return None
    elif _object(diags, where, raw, f"must be a list or a {'/'.join(_OBJECTS[where])} object"):
        start, stop, num = (raw.get(key) for key in _OBJECTS[where])
        if not (_is_finite(start) and _is_finite(stop) and _is_integral(num)):
            _err(diags, where, "needs numeric start/stop and integer num")
            return None
        if not (start > 0 and stop > 0):
            _err(diags, where, "start and stop must be positive")
            return None
        if not 2 <= num <= MAX_EPSILONS:
            _err(diags, where, f"num must lie in [2, {MAX_EPSILONS}]")
            return None
        grid = np.geomspace(float(start), float(stop), int(num))
    else:
        return None
    seen = set()
    for eps in grid.tolist():
        name = f"{eps:.3e}"   # as in the profile_<eps>.csv file names
        if name in seen:
            _err(diags, where, f"values must be distinct at %.3e, the precision of the "
                               f"profile file names; {name} repeats")
            return None
        seen.add(name)
    if grid.max() > 0.1:
        _warn(diags, where, "epsilon above 0.1 is outside the asymptotic regime")
    return grid


def _is_number(value):
    """A JSON number: int or float, not bool (nor a numeric string)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    """A JSON number that is a finite double."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_integral(value):
    """A JSON integer, or a float with an integral value (2000.0)."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _all_finite(raw):
    """True if `raw` is a list of finite JSON numbers."""
    if isinstance(raw, (list, tuple)) and set(map(type, raw)) == {float}:
        return all(map(math.isfinite, raw))   # the common case, in C-level passes
    return isinstance(raw, (list, tuple)) and all(map(_is_finite, raw))


def _floats(raw):
    """`raw` as a float array if it is a list of finite numbers, else None."""
    return np.array(raw, dtype=float) if _all_finite(raw) else None


def _point(raw, N):
    """`raw` as an array of N finite coordinates, or None."""
    point = _floats(raw)
    return point if point is not None and len(point) == N else None


def parse_config(data):
    """Validate a raw config dict.  Returns (ExperimentConfig or None,
    diagnostics); the config is None iff any diagnostic is an error."""
    diags = []
    if not _object(diags, "<root>", data, "config must be a JSON object"):
        return None, diags

    if data.get("schema") != CONFIG_SCHEMA:
        _err(diags, "schema", f"expected {CONFIG_SCHEMA!r}, got {data.get('schema')!r}")

    N = data.get("dims")
    if not (_is_integral(N) and N in (3, 4)):
        _err(diags, "dims", "dims must be 3 or 4")
        return None, diags
    N = int(N)
    dims = dims_for(N)

    # ---- coupling block
    coupling = data.get("coupling")
    spec = None
    if _object(diags, "coupling", coupling, "missing coupling object ({})"):
        mu, rows = _floats(coupling.get("mu")), coupling.get("beta")
        decomposition = coupling.get("decomposition")
        if mu is None or not isinstance(rows, list) or not all(map(_all_finite, rows)):
            _err(diags, "coupling", "mu and beta must be a list and a matrix of finite numbers")
            mu = None
        elif not (isinstance(decomposition, list) and all(map(_is_integral, decomposition))):
            _err(diags, "coupling", "decomposition must be a list of integers")
            mu = None
        if mu is not None:
            m = len(mu)
            square = len(rows) == m and all(len(r) == m for r in rows)
            beta = np.array(rows, dtype=float).reshape(m, m) if square else None
            decomposition = tuple(int(v) for v in decomposition)
            if beta is None:
                _err(diags, "coupling.beta", f"beta must be {m}x{m}")
            elif not np.logical_and.reduce(beta == beta.T, axis=None):
                _err(diags, "coupling.beta", "beta must be symmetric")
            else:
                if np.logical_and.reduce(beta.diagonal() == 0.0):
                    beta = beta + np.diag(mu)   # diagonal may be left implicit
                try:
                    spec = CouplingSpec(
                        N=N, m=m, mu=mu, beta=beta, decomposition=decomposition
                    )
                except ValueError as exc:
                    _err(diags, "coupling", str(exc))
    if spec is not None:
        for h in range(spec.n_groups):
            for i, j in itertools.combinations(spec.group_indices(h), 2):
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
    if _object(diags, "domain", domain, "missing domain object ({})"):
        radius = domain.get("radius")
        if not _is_number(radius) or not 0 < radius <= sys.float_info.max:
            _err(diags, "domain.radius", "radius must be a positive finite number")
        else:
            center = _point(domain.get("center", [0.0] * N), N)
            if center is None:
                _err(diags, "domain.center", f"center must be {N} finite coordinates")
            else:
                ball = Ball(radius=float(radius), center=center, dims=dims)
        raw_holes = domain.get("holes")
        if not isinstance(raw_holes, list) or not raw_holes:
            _err(diags, "domain.holes", "at least one hole is required")
        else:
            holes = []
            for k, hole in enumerate(raw_holes):
                where = f"domain.holes[{k}]"
                if not _object(diags, where, hole, "hole must be an object ({})",
                               "domain.holes[k]"):
                    continue
                c = _point(hole.get("center"), N)
                if c is None:
                    _err(diags, where, f"hole center must be {N} finite coordinates")
                    continue
                coeff = hole.get("radius_coeff", 1.0)
                if not _is_finite(coeff):
                    _err(diags, where, "malformed hole: radius_coeff must be a finite number")
                elif not coeff > 0:
                    _err(diags, where, "malformed hole: hole radius coefficient must be positive")
                else:
                    holes.append((c, float(coeff)))
            if len(holes) == len(raw_holes):
                centers, coeffs = map(np.array, zip(*holes))

    # ---- reduction block
    reduction = data.get("reduction")
    if reduction is None or not _object(diags, "reduction", reduction, "must be an object ({})"):
        reduction = {}
    eta = reduction.get("eta", 1e-3)
    if not _is_number(eta) or not 0 < eta < 1:
        _err(diags, "reduction.eta", "eta must lie in (0, 1)")
    grid = _parse_epsilon_grid(reduction.get("epsilon_grid"), diags)
    n_nodes = reduction.get("n_nodes", DEFAULT_NODES)
    if _is_integral(n_nodes) and 100 <= n_nodes <= MAX_NODES:
        n_nodes = int(n_nodes)
    else:
        _err(diags, "reduction.n_nodes", f"n_nodes must be an integer in [100, {MAX_NODES}]")

    if ball is not None and centers is not None and grid is not None:
        try:
            # far-off holes overflow to infinite distances, which fail the checks
            with np.errstate(over="ignore"):
                check_holes(ball, centers, coeffs, float(np.maximum.reduce(grid)))
        except ValueError as exc:
            _err(diags, "domain.holes", str(exc))

    # ---- tasks
    tasks_raw = data.get("tasks", [])
    if not isinstance(tasks_raw, list):
        _err(diags, "tasks", "tasks must be a list")
        tasks_raw = []
    tasks = []
    for t in tasks_raw:
        if t not in TASK_ORDER:
            _err(diags, "tasks", f"unknown task {t!r} (known: {', '.join(TASK_ORDER)})")
        elif t in tasks:   # run would execute it once
            _err(diags, "tasks", f"task {t!r} is listed more than once")
        else:
            tasks.append(t)
    for t in tasks:
        need = _TASKS[t].prerequisite
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
        centered = len(centers) == 1 and np.array_equal(centers[0], ball.center)
        if not centered:
            _err(diags, "tasks", "radial-sweep requires a single centered hole")

    scaling = (
        _parse_scaling(data.get("scaling"), dims, ball.radius if ball else None, diags)
        if "scaling-checks" in tasks or data.get("scaling") is not None
        else ()
    )

    output = data.get("output")
    out_dir = None
    if output is not None and _object(diags, "output", output, "must be an object ({})"):
        out_dir = output.get("dir")
        if out_dir is not None and not (isinstance(out_dir, str) and out_dir):
            _err(diags, "output.dir", _EMPTY_DIR)

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
        ),
        diags,
    )


def load_config(path):
    """Read and validate a config file; malformed JSON is a diagnostic."""
    try:
        with open(path, encoding="utf-8") as fh:   # JSON text is UTF-8
            data = json.load(fh)
    except OSError as exc:
        return None, [Diagnostic("error", "<file>", f"cannot read config: {exc}")]
    except (ValueError, RecursionError) as exc:   # bad syntax or bytes, too deep
        return None, [Diagnostic("error", "<file>", f"malformed JSON: {exc}")]
    return parse_config(data)


# ------------------------------------------------------------------- reports


# summary.json's text: compact, keys sorted, ASCII only, through the
# standard library's C encoder; a non-finite float is a ValueError
_SUMMARY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _finite_or_none(obj):
    """A copy of `obj` with each non-finite float replaced by None (null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(value) for value in obj]
    return obj


def _num(value, module, operation):
    """Report numeric payload tagged with the producing module/operation."""
    return {"value": value, "module": module, "operation": operation}


# The %.12e kernel.  A double x in [1e-99, 9.9e99) is m * 10^(e-12) with 13
# significant digits m in [10^12, 10^13) and a two-digit exponent e, also
# after rounding: m is x * 10^(12-e) rounded to an integer.  That product is
# formed in float64.  Where the scale 10^(12-e) is an exact double
# (0 <= 12-e <= 22) it is the exact product correctly rounded; each tie
# m + 0.5 < 2^44 is a double and rounding is monotone, so only a product on
# a tie is left to `%` (margin 0).  At other scales the scale's rounding
# adds to the error, below 2^-9.03, and products within 2^-8 of a tie go to
# `%`, as does every value outside the range (zeros, negatives, subnormal
# and non-finite values, three-digit exponents).  Where log10 misses e by
# one, one step brings the product into [10^12, 10^13) or within 2^-8 of an
# end, where rint and the carry give `%`'s digits all the same.
#
# "%.12e" % x is then the 18 bytes "d.dddddddddddde+dd".  _csv_block spells
# them in place in each row of the block with four gathers: the uint32 words
# "d.dd" "dddd" "dddd" and one uint64 "dde+dd\r\n" of the last two digits and
# the exponent, whose "\r\n" ends the line or gives way to the comma and the
# next field.  The tables are read-only: the writer thread shares them.
_E12_MIN_VALUES = 256                  # smaller blocks go to `%` whole
_E12_EXPONENTS = np.arange(-100, 101)  # decimal exponents of [1e-99, 9.9e99), +-1
_E12_SCALES = np.array([float(f"1e{12 - e}") for e in _E12_EXPONENTS])
_E12_MARGINS = np.where((-10 <= _E12_EXPONENTS) & (_E12_EXPONENTS <= 12), 0.0, 2.0**-8)
_FIELD = 18                            # len("d.dddddddddddde+dd")
_DIGITS2 = np.array([f"{k:02d}" for k in range(100)], "S2")
_DIGITS4 = (_DIGITS2[:, None] + _DIGITS2).view(np.uint32).ravel()          # "%04d" % k
_LEADS = (np.arange(10).astype("S1")[:, None] + b"." + _DIGITS2).view(np.uint32).ravel()
_TAIL_WORDS = (_DIGITS2[:, None] + np.strings.add(np.where(_E12_EXPONENTS < 0, b"e-", b"e+"),
               _DIGITS2[abs(_E12_EXPONENTS) % 100] + b"\r\n")).view(np.uint64)  # [m % 100, ei]
for _table in (_E12_EXPONENTS, _E12_SCALES, _E12_MARGINS, _DIGITS2, _DIGITS4, _LEADS,
               _TAIL_WORDS):
    _table.flags.writeable = False


def _e12_kernel(x):
    """Round each v of the float64 array `x` to the digits of
    ``"%.12e" % v``.  Returns (m, ei, left): the 13 significant digits as
    an integer, the exponent's index in _E12_EXPONENTS, and the indices of
    the values it left to `%`."""
    ok = (x >= 1e-99) & (x < 9.9e99)
    a = x if ok.all() else np.where(ok, x, 1.0)
    ei = (np.log10(a) - _E12_EXPONENTS[0]).astype(np.int64)   # exponent index
    s = a * _E12_SCALES[ei]
    off = np.flatnonzero((s < 10**12) | (s >= 10**13))   # log10 off by one
    ei[off] += np.where(s[off] < 10**12, -1, 1)
    s[off] = a[off] * _E12_SCALES[ei[off]]
    r = np.rint(s)
    ok &= 0.5 - np.abs(s - r) > _E12_MARGINS[ei]
    carry = np.flatnonzero(r == 10**13)
    r[carry] = 10**12
    ei[carry] += 1
    return r.astype(np.int64), ei, np.flatnonzero(~ok)


def _csv_block(columns):
    """The CSV lines of equal-length float columns as a (rows, row_bytes)
    uint8 array, each field spelled in place in its 18 bytes; or None if
    the `%` text of some value the kernel left is not 18 bytes long."""
    rounded = [(x, *_e12_kernel(x)) for x in [np.asarray(c, np.float64) for c in columns]]
    texts = [["%.12e" % v for v in x[left].tolist()] for x, _, _, left in rounded]
    if any(len(text) != _FIELD for column in texts for text in column):
        return None
    block = np.empty((len(columns[0]), len(columns) * (_FIELD + 1) + 1), np.uint8)
    for j, ((_, m, ei, left), column) in enumerate(zip(rounded, texts)):
        o = j * (_FIELD + 1)          # the field's first byte
        hi = m // 100                 # m is "d dd dddd dddd dd"
        mid = hi // 10**4
        lead = mid // 10**4
        # rows left to `%` may hold any index, hence "clip"
        words = block[:, o:o + 12].view(np.uint32)
        words[:, 0] = _LEADS.take(lead, mode="clip")
        words[:, 1] = _DIGITS4.take(mid - 10**4 * lead, mode="clip")
        words[:, 2] = _DIGITS4.take(hi - 10**4 * mid, mode="clip")
        block[:, o + 12:o + 20].view(np.uint64)[:, 0] = _TAIL_WORDS.take(
            (m - 100 * hi) * len(_E12_EXPONENTS) + ei, mode="clip")
        block[left, o:o + _FIELD] = np.array(column, f"S{_FIELD}").view(np.uint8).reshape(
            -1, _FIELD)
    block[:, _FIELD:-2:_FIELD + 1] = ord(",")   # over each "\r\n" but the last
    return block


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV with CRLF line ends: ``%d`` for
    integer columns, ``%.12e`` for the rest, each formatted from its own
    values.  Float tables are formatted by _csv_block, CSV_BLOCK_ROWS rows
    at a time.  A single ``%`` call writes each block of a table with an
    integer column, of fewer than _E12_MIN_VALUES values, or that
    _csv_block cannot lay out (a negative value, a three-digit exponent,
    `nan` or `inf`)."""
    columns = [np.asarray(c) for c in columns]
    fmts = ["%d" if c.dtype.kind in "iu" else "%.12e" for c in columns]
    line = ",".join(fmts) + "\r\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            small = "%d" in fmts or len(block[0]) * len(block) < _E12_MIN_VALUES
            if small or (text := _csv_block(block)) is None:
                text = ((line * len(block[0])) % tuple(itertools.chain.from_iterable(
                    zip(*[c.tolist() for c in block])))).encode()
            fh.write(text)
            del text   # not alive while the next block is formatted


# --------------------------------------------------------------------- tasks


# verdict -> (rank, exit status).  A task's verdict is the worst of its
# checks, and a run's the worst of its tasks
_VERDICTS = {
    "pass": (0, EXIT_PASS),
    "inconclusive": (1, EXIT_DEGENERATE),
    "degenerate": (2, EXIT_DEGENERATE),
    "error": (3, EXIT_ERROR),
}


def _fold(checks, passed):
    """The worst verdict of the (verdict, reason) `checks` and the reasons
    of those that fail, in order, joined by "; "; `passed` if all pass."""
    failing = [(verdict, reason) for verdict, reason in checks if verdict != "pass"]
    if not failing:
        return "pass", passed
    worst = max((verdict for verdict, _ in failing), key=_VERDICTS.__getitem__)
    return worst, "; ".join(reason for _, reason in failing)


def _task_c_vector(cfg, ctx, seed, out):
    spec = cfg.coupling
    cvecs = []
    groups = []
    checks = []
    for h in range(spec.n_groups):
        try:
            cv = solve_c_vector(spec, h)
        except NoPositiveSolution as exc:
            return "degenerate", f"degenerate: {exc}", {
                "groups": _num(groups, "coupling", "solve_c_vector")
            }
        cvecs.append(cv)
        res = np.maximum.reduce(np.abs(system_residual(spec.group_block(h), cv.c, spec.p)))
        groups.append(
            {
                "group": h,
                "components": list(spec.group_indices(h)),
                "c": cv.c.tolist(),
                "c_squared": (cv.c**2).tolist(),
                "system_residual_sup": float(res),
                "boundary": cv.boundary,
            }
        )
        checks.append(("degenerate" if cv.boundary else "pass",
                       f"degenerate: group {h} amplitude hits the existence boundary"))
    ctx["c-vector"] = cvecs
    verdict, message = _fold(checks, "positive amplitude vector in every group")
    return verdict, message, {"groups": _num(groups, "coupling", "solve_c_vector")}


def _task_spectrum(cfg, ctx, seed, out):
    spec = cfg.coupling
    groups = []
    checks = []
    for h, cv in enumerate(ctx["c-vector"]):
        report = build_spectrum(spec, cv)
        groups.append(
            {
                "group": h,
                "lambdas": report.lambdas.tolist(),
                "thetas": report.thetas.tolist(),
                "verdict": report.verdict,
                "message": report.reason,
            }
        )
        checks.append(("pass" if report.verdict == "nondegenerate" else report.verdict,
                       f"group {h}: {report.reason}"))
    verdict, message = _fold(checks, "all groups nondegenerate")
    return verdict, message, {
        "groups": _num(groups, "coupling", "build_spectrum"),
    }


def _task_reduced_energy(cfg, ctx, seed, out):
    weights = np.array([float(np.add.reduce(cv.c**2)) for cv in ctx["c-vector"]])
    robin = kernel_robin(cfg.ball, cfg.hole_centers)
    model = ReducedEnergyModel(
        dims=cfg.dims, weights=weights, robin=robin, hole_r=cfg.hole_coeffs
    )
    ctx["reduced-energy"] = model
    outputs = {
        "weights": _num(weights.tolist(), "coupling", "solve_c_vector"),
        "robin": _num(robin.tolist(), "greens", "kernel_robin"),
        "b1": _num(model.b1, "energy", "constant_b1"),
        "b2": _num(model.b2, "energy", "constant_b2"),
    }

    # seeded spot check: analytic gradient vs central differences at a
    # random point of the box, exp(U(-1/2, 1/2)) for the rates cut to keep
    # every shifted point at least a step inside X_eta
    margin = 2 * GRAD_CHECK_STEP
    lo = max(-0.5, math.log(cfg.eta + margin))
    hi = min(0.5, math.log(1.0 / cfg.eta - margin))
    if not lo < hi:
        return "inconclusive", (
            f"inconclusive: the box X_eta at eta = {cfg.eta!r} is too narrow "
            "for the finite-difference gradient check"
        ), outputs
    rng = np.random.default_rng(seed)
    d_probe = np.exp(rng.uniform(lo, hi, model.n_peaks))
    tau_probe = rng.uniform(-0.2, 0.2, (model.n_peaks, cfg.dims.N))
    gap = gradient_check(model, ReducedPoint(d=d_probe, tau=tau_probe, eta=cfg.eta))
    verdict = "pass" if gap < 1e-5 else "inconclusive"
    message = f"analytic vs finite-difference gradient gap {gap:.3e}"
    outputs["grad_fd_gap"] = _num(gap, "energy", "psi_grad")
    outputs["probe_d"] = _num(d_probe.tolist(), "cli", "rng")
    return verdict, message, outputs


def _task_critical_point(cfg, ctx, seed, out):
    model = ctx["reduced-energy"]
    rep = critical_point(model, eta=cfg.eta)
    # the box is the one check with content: inside X_eta every A_i, B_i > 0
    # makes the signature min-max and the gradient roundoff by construction,
    # so both are reported, and Tier-1 property tests check them
    if not rep.in_box:
        verdict, message = "inconclusive", "inconclusive: critical point leaves the admissible box"
    else:
        verdict, message = "pass", (
            f"critical point d_tilde inside X_eta, |grad| = {rep.grad_norm:.3e}")
    psi_min = psi_value(model, rep.point) if rep.in_box else None   # Psi lives on X_eta
    return verdict, message, {
        "d_tilde": _num(rep.point.d.tolist(), "energy", "critical_point"),
        "psi_value": _num(psi_min, "energy", "psi_value"),
        "grad_norm": _num(rep.grad_norm, "energy", "psi_grad"),
        "hess_d_block": _num(rep.hess_d.tolist(), "energy", "psi_hessian_at_flat"),
        "hess_tau_block": _num(rep.hess_tau.tolist(), "energy", "psi_hessian_at_flat"),
        "signature_ok": _num(rep.signature_ok, "energy", "critical_point"),
    }


def _family_checks(slope_tol, fit):
    """The log-log slope, then the fit's r^2 or, for a pair, the spread of
    its value/bound ratios; a constant fit has no r^2 to check."""
    slope_off = abs(fit.exponent_measured - fit.exponent_predicted) > slope_tol
    checks = [("inconclusive" if slope_off else "pass",
               f"slope {fit.exponent_measured:.3f} vs predicted {fit.exponent_predicted:.3f}")]
    constant = abs(fit.exponent_predicted) < 1e-12 and not fit.has_log
    if fit.ratios is not None:
        spread = np.maximum.reduce(fit.ratios) > 10.0 * np.minimum.reduce(fit.ratios)
        checks.append(("inconclusive" if spread else "pass",
                       "value/bound ratio spreads more than 10x"))
    elif not constant:
        checks.append(("inconclusive" if fit.r2 < 0.999 else "pass",
                       f"log-log fit r^2 = {fit.r2:.5f} < 0.999"))
    return checks


def _task_scaling(cfg, ctx, seed, out):
    families = []
    checks = []
    for kind, params in cfg.scaling:
        family = _FAMILIES[kind]
        fit = family.fit(cfg.dims, cfg.ball.radius, params)
        name = family.name.format(**params)
        verdict, note = _fold(_family_checks(family.slope_tol, fit), "within tolerance")
        checks.append((verdict, f"{name}: {note}"))
        families.append(
            {
                "name": name,
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
    verdict, message = _fold(checks, "all families within tolerance")
    op = "scaling_law_single/weighted/pair"
    return verdict, message, {"families": _num(families, "asymptotics", op)}


def _task_radial_sweep(cfg, ctx, seed, out):
    # one writer thread writes each profile while the next eps solves; it
    # calls only private helpers, never a public (traced) function.  The
    # import stays here: concurrent.futures costs start-up time
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as writer:
        writes = []

        def write_profile(eps, res):
            writes.append(writer.submit(
                _write_csv, out / f"profile_{eps:.3e}.csv", ["radius", "value"],
                [res.grid.nodes, res.grid.values]))

        sweep = rate_sweep(
            cfg.dims,
            cfg.ball.radius,
            float(cfg.hole_coeffs[0]),
            cfg.epsilon_grid,
            n_nodes=cfg.n_nodes,
            on_result=write_profile,
        )
        for write in writes:
            write.result()   # the first writer exception is the task's error
    keys = ("delta_est", "d_est", "umax", "rpeak", "energy")
    columns = [[getattr(m, key) for m in sweep.metrics] for key in keys]
    iterations = [report.iterations for report in sweep.reports]
    header = ["epsilon", *keys, "iterations"]
    _write_csv(out / "sweep_rate.csv", header, [sweep.epsilons, *columns, iterations])
    outputs = {
        "slope": _num(sweep.slope, "solver", "rate_sweep"),
        "d_final": _num(sweep.d_final, "solver", "rate_sweep"),
        "d_tilde": _num(sweep.d_tilde, "energy", "critical_point"),
        "epsilons": _num(sweep.epsilons.tolist(), "solver", "rate_sweep"),
        "delta_ests": _num(sweep.delta_ests.tolist(), "solver", "rate_sweep"),
        "d_ests": _num(sweep.d_ests.tolist(), "solver", "rate_sweep"),
    }
    if sweep.aborted:
        return "error", f"sweep aborted: {sweep.message}", outputs
    gap = abs(sweep.d_final / sweep.d_tilde - 1.0)
    checks = [
        ("pass" if abs(sweep.slope - 0.5) <= 0.05 else "inconclusive",
         f"slope {sweep.slope:.3f} outside 0.50 +/- 0.05"),
        ("pass" if gap <= 0.20 else "inconclusive",
         f"d_est {sweep.d_final:.4f} vs d_tilde {sweep.d_tilde:.4f} beyond 20%"),
    ]
    verdict, message = _fold(checks, (
        f"slope {sweep.slope:.3f} (predicted 0.5), amplitude within {gap * 100:.1f}% "
        "of the reduced-energy rate"))
    return verdict, message, outputs


# ----------------------------------------------------------------------- run


def _inputs(cfg):
    """The validated config but its task list, which the summary's tasks
    record, and its output directory: every field a run's numbers come
    from, beta with the diagonal the parser filled in."""
    spec, ball = cfg.coupling, cfg.ball
    return {"dims": cfg.dims.N, "mu": spec.mu.tolist(), "beta": spec.beta.tolist(),
            "decomposition": list(spec.decomposition), "ball_radius": ball.radius,
            "ball_center": ball.center.tolist(), "hole_centers": cfg.hole_centers.tolist(),
            "hole_coeffs": cfg.hole_coeffs.tolist(), "eta": cfg.eta,
            "epsilon_grid": cfg.epsilon_grid.tolist(), "n_nodes": cfg.n_nodes,
            "families": [{"kind": kind, **params} for kind, params in cfg.scaling]}


# task -> module and operation it is reported under, the task it needs,
# and its runner; tasks run in this order.  A runner leaves what later
# tasks build on in ctx under its own task name; a task whose prerequisite
# left nothing there is skipped as degenerate.
_Task = namedtuple("_Task", "module operation prerequisite runner")
_TASKS = {
    "c-vector": _Task("coupling", "solve_c_vector", None, _task_c_vector),
    "spectrum": _Task("coupling", "build_spectrum", "c-vector", _task_spectrum),
    "reduced-energy": _Task("energy", "ReducedEnergyModel", "c-vector", _task_reduced_energy),
    "critical-point": _Task("energy", "critical_point", "reduced-energy", _task_critical_point),
    "scaling-checks": _Task("asymptotics", "scaling_law fits", None, _task_scaling),
    "radial-sweep": _Task("solver", "rate_sweep", None, _task_radial_sweep),
}
TASK_ORDER = tuple(_TASKS)


def run(config, out_dir, seed=0):
    """Execute the configured tasks; returns (exit_code, summary dict).

    Also writes summary.json plus per-task CSV artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = {}
    entries = []
    for task, info in _TASKS.items():
        if task not in config.tasks:
            continue
        t0 = time.perf_counter()
        need = info.prerequisite
        if need is not None and need not in ctx:
            verdict, message, outputs = "degenerate", f"skipped: {need} left no result", {}
        else:
            try:
                verdict, message, outputs = info.runner(config, ctx, seed, out)
            except Exception as exc:   # numerical failures keep task attribution
                verdict, message, outputs = "error", f"{type(exc).__name__}: {exc}", {}
        elapsed = time.perf_counter() - t0
        entries.append(
            {
                "task": task,
                "module": info.module,
                "operation": info.operation,
                "outputs": outputs,
                "verdict": verdict,
                "message": message,
                "time_s": round(elapsed, 6),
            }
        )
    worst, _ = _fold([(entry["verdict"], entry["message"]) for entry in entries], None)
    exit_code = _VERDICTS[worst][1]
    summary = {
        "schema": SUMMARY_SCHEMA,
        "package_version": __version__,
        "seed": int(seed),
        "inputs": _inputs(config),
        "tasks": entries,
        "verdict": worst,
        "exit_code": exit_code,
    }
    try:   # the text is built before the file opens: no partial file
        text = _SUMMARY_ENCODER.encode(summary)
    except ValueError:   # a non-finite float; the summary itself keeps it
        text = _SUMMARY_ENCODER.encode(_finite_or_none(summary))
    (out / "summary.json").write_text(text + "\n")
    return exit_code, summary


# ----------------------------------------------------------------------- cli


@functools.cache   # built on the first call, not at import
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
    if args.out == "":
        print(str(Diagnostic("error", "--out", _EMPTY_DIR)), file=sys.stderr)
        return EXIT_ERROR

    out_dir = args.out if args.out is not None else (
        "bubblelab_out" if config.out_dir is None else config.out_dir)
    try:   # run reports task failures itself; what escapes is the directory's
        exit_code, summary = run(config, out_dir, seed=args.seed)
    except OSError as exc:
        field_name = "--out" if args.out is not None else "output.dir"
        print(str(Diagnostic("error", field_name, str(exc))), file=sys.stderr)
        return EXIT_ERROR
    print(f"verdict: {summary['verdict']} (exit {exit_code}); "
          f"report: {Path(out_dir) / 'summary.json'}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
