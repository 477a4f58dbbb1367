"""Batch front-end: JSON experiment configs in, JSON/CSV reports out.

Pipeline order: amplitude vectors -> coupling spectrum -> reduced-energy
model -> critical point, plus optional integral scaling-law fits and the
radial Newton-continuation sweep.  ``run`` writes ``summary.json`` and CSV
tables into the output directory and encodes the overall verdict in the
exit status: 0 all tasks pass, 1 error, 2 degenerate or inconclusive.
"""

import argparse
import functools
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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
from .greens import Ball, HoleSpec, PerforatedDomain, kernel_robin
from .solver import rate_sweep

CONFIG_SCHEMA = "bubblelab-config/1"
SUMMARY_SCHEMA = "bubblelab-summary/2"

EXIT_PASS, EXIT_ERROR, EXIT_DEGENERATE = 0, 1, 2
MAX_EPSILONS = 1000   # Newton solves in one radial sweep
MAX_NODES = 10**6     # mesh nodes of one radial solve
PAIR_DELTAS = (4, 27)  # pair grid sizes n: > 3 fit parameters, delta >= 1.5e-9
# rows formatted at a time by _write_csv; bounds its buffers (a peak of
# 4.2 MB on a two-column table).  Large, since a sweep writes on a thread
# that shares the GIL with the solves: each numpy call of the writer is one
# more point where one thread waits for the other
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


def _check_pair(dims, radius, params):
    """The library's checks of a pair family, then the CLI's grid size."""
    pair_exponent(dims, params["q1"], params["q2"])
    if radius is not None:   # else the domain block has reported its error
        check_separation(params["separation"], radius)
    n, (lo, hi) = params["n"], PAIR_DELTAS
    if not (n.is_integer() and lo <= n <= hi):
        raise ValueError(f"n must be an integer in [{lo}, {hi}]")


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
        check=lambda dims, R, p: weighted_exponent(dims, **p),
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
        _err(diags, "scaling", "must be an object with single/weighted/pair lists")
        return ()
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
            problems = [f"unknown parameter {key!r}" for key in entry if key not in table]
            problems += [f"missing parameter {key!r}" for key, default in table.items()
                         if default is None and key not in entry]
            for problem in problems:
                _err(diags, where, problem)
            if problems:
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
        return np.geomspace(1e-2, 1e-4, 8)
    where = "reduction.epsilon_grid"
    if isinstance(raw, dict):
        start, stop, num = (raw.get(key) for key in ("start", "stop", "num"))
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
    elif isinstance(raw, list):
        grid = _floats(raw)
        if grid is None:
            _err(diags, where, "entries must be finite numbers")
            return None
        if len(grid) < 2 or not np.all(grid > 0):
            _err(diags, where, "need at least two positive finite values")
            return None
        if len(grid) > MAX_EPSILONS:
            _err(diags, where, f"at most {MAX_EPSILONS} values")
            return None
    else:
        _err(diags, where, "must be a list or a start/stop/num object")
        return None
    seen = set()
    for eps in grid.tolist():
        name = f"{eps:.3e}"   # as in the profile_<eps>.csv file names
        if name in seen:
            _err(diags, where, f"values must be distinct at %.3e, the precision of the "
                               f"profile file names; {name} repeats")
            return None
        seen.add(name)
    if np.max(grid) > 0.1:
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
    holes = centers = coeffs = None
    if not isinstance(domain, dict):
        _err(diags, "domain", "missing domain object (radius, holes)")
    else:
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
                if not isinstance(hole, dict):
                    _err(diags, where, "hole must be an object (center, radius_coeff)")
                    continue
                c = _point(hole.get("center"), N)
                if c is None:
                    _err(diags, where, f"hole center must be {N} finite coordinates")
                    continue
                coeff = hole.get("radius_coeff", 1.0)
                try:
                    if not _is_number(coeff):
                        raise ValueError("radius_coeff must be a number")
                    holes.append(HoleSpec(c, float(coeff)))
                except (ValueError, OverflowError) as exc:
                    _err(diags, where, f"malformed hole: {exc}")
            if len(holes) == len(raw_holes):
                centers = np.array([h.center for h in holes])
                coeffs = np.array([h.radius_coeff for h in holes])

    # ---- reduction block
    reduction = data.get("reduction")
    if reduction is None:
        reduction = {}
    elif not isinstance(reduction, dict):
        _err(diags, "reduction", "must be an object (eta, epsilon_grid, n_nodes)")
        reduction = {}
    eta = reduction.get("eta", 1e-3)
    if not _is_number(eta) or not 0 < eta < 1:
        _err(diags, "reduction.eta", "eta must lie in (0, 1)")
        eta = 1e-3
    grid = _parse_epsilon_grid(reduction.get("epsilon_grid"), diags)
    n_nodes = reduction.get("n_nodes", 2000)
    if _is_integral(n_nodes) and 100 <= n_nodes <= MAX_NODES:
        n_nodes = int(n_nodes)
    else:
        _err(diags, "reduction.n_nodes", f"n_nodes must be an integer in [100, {MAX_NODES}]")

    if ball is not None and centers is not None and grid is not None:
        try:
            # far-off holes overflow to infinite distances, which fail the checks
            with np.errstate(over="ignore"):
                PerforatedDomain(ball, holes, float(np.max(grid)))
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
    if output is not None and not isinstance(output, dict):
        _err(diags, "output", "must be an object (dir)")
    elif output is not None:
        out_dir = output.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            _err(diags, "output.dir", "dir must be a string")

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
        with open(path, encoding="utf-8") as fh:   # JSON text is UTF-8
            data = json.load(fh)
    except OSError as exc:
        return None, [Diagnostic("error", "<file>", f"cannot read config: {exc}")]
    except (ValueError, RecursionError) as exc:   # bad syntax or bytes, too deep
        return None, [Diagnostic("error", "<file>", f"malformed JSON: {exc}")]
    return parse_config(data)


# ------------------------------------------------------------------- reports


def _encode(obj, out, indent):
    """Append to the list `out` the JSON text of `obj`, as json.dump(obj,
    fh, indent=2, sort_keys=True) writes it, with non-finite floats as
    null; `indent` is the newline and the indentation of the line `obj` is
    on.  `obj` is built of dicts with str keys, lists, str, int, float,
    bool and None; anything else, numpy values and tuples too, is a
    TypeError."""
    kind = type(obj)
    if kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is dict or kind is list:
        inner = indent + "  "
        if not obj:
            out.append("{}" if kind is dict else "[]")
        elif kind is dict:
            for key in obj:
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = "{" + inner
            for key in sorted(obj):
                out.append(head + encode_basestring_ascii(key) + ": ")
                _encode(obj[key], out, inner)
                head = "," + inner
            out.append(indent + "}")
        elif all(type(v) is float and math.isfinite(v) for v in obj):
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, obj)) + indent + "]")
        else:
            head = "[" + inner
            for value in obj:
                out.append(head)
                _encode(value, out, inner)
                head = "," + inner
            out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _num(value, module, operation):
    """Report numeric payload tagged with the producing module/operation."""
    return {"value": value, "module": module, "operation": operation}


# The %.12e kernel.  A double x in [1e-99, 9.9e99) is m * 10^(e-12) with 13
# significant digits m in [10^12, 10^13) and a two-digit exponent e, also
# after rounding.  x * 10^(12-e) is formed in the precision of the scale
# table (np.longdouble).  Two roundings, of the scale and of the product,
# keep its relative error below eps; as the product is below 10^13 < 2^44,
# its absolute error stays below eps * 2^44.  Rounding it gives m exactly
# unless its fraction lies within 64 times that bound of 0.5; such near-ties
# are left to `%`, as is every value outside the range (zeros, negatives,
# subnormal and non-finite values, three-digit exponents).  Where
# np.longdouble is a plain double that margin is 0.25: still exact, but
# half of the values fall back.
#
# "%.12e" % x is then the 18 bytes "d.dddddddddddde+dd".  _csv_block spells
# them as four uint32 words "d.dd" "dddd" "dddd" "dde+" and one uint16 "dd",
# in place in each row of the block.
_E12_MIN_VALUES = 256                  # smaller blocks go to `%` whole
_E12_EXPONENTS = np.arange(-100, 101)  # decimal exponents of [1e-99, 9.9e99), +-1
_E12_SCALES = np.array([f"1e{12 - e}" for e in _E12_EXPONENTS]).astype(np.longdouble)
_E12_TIE_MARGIN = 64 * float(np.finfo(np.longdouble).eps) * 2.0**44
_FIELD = 18                            # len("d.dddddddddddde+dd")
_DIGITS2 = np.array([f"{k:02d}" for k in range(100)], dtype="S2").view(np.uint16)
_DIGITS4 = np.stack(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2), axis=-1).view(
    np.uint32).ravel()                                                   # "%04d" % k
_CHARS = _DIGITS4.view(np.uint8).reshape(-1, 4)                          # b"%04d" % k
_LEADS = np.insert(_CHARS[:1000, 1:], 1, ord("."), axis=1).view(np.uint32)[:, 0]  # "d.dd"
_TAILS = np.concatenate([np.insert(_CHARS[:100, 2:], [2, 2], [ord("e"), sign], axis=1)
                         for sign in b"+-"]).view(np.uint32)[:, 0]       # "dde+", "dde-"
# by exponent index: the offset into _TAILS and the two exponent digits
_EXP_TAILS = np.where(_E12_EXPONENTS < 0, 100, 0)
_EXP_DIGITS = _DIGITS2[np.abs(_E12_EXPONENTS) % 100]


def _e12_kernel(x):
    """Round each v of the float64 array `x` to the digits of
    ``"%.12e" % v``.  Returns (m, ei, left): the 13 significant digits as
    an integer, the exponent's index in _E12_EXPONENTS, and the mask of the
    values it left to `%`."""
    ok = (x >= 1e-99) & (x < 9.9e99)
    a = np.where(ok, x, 1.0)
    ei = np.floor(np.log10(a)).astype(np.int64) - _E12_EXPONENTS[0]  # exponent index
    wide = a.astype(_E12_SCALES.dtype)
    s = wide * _E12_SCALES[ei]
    m = s.astype(np.int64)
    off = np.flatnonzero((m < 10**12) | (m >= 10**13))   # log10 off by one
    ei[off] += np.where(m[off] < 10**12, -1, 1)
    s[off] = wide[off] * _E12_SCALES[ei[off]]
    m[off] = s[off].astype(np.int64)
    frac = (s - m).astype(np.float64)
    ok &= (m >= 10**12) & (m < 10**13) & (np.abs(frac - 0.5) > _E12_TIE_MARGIN)
    m += frac > 0.5
    carry = m == 10**13
    m[carry] = 10**12
    ei[carry] += 1
    return m, ei, ~ok


def _csv_block(columns):
    """The CSV lines of equal-length float columns as a (rows, row_bytes)
    uint8 array, each field spelled in place in its 18 bytes; or None if
    the `%` text of some value the kernel left is not 18 bytes long."""
    rounded = [(x, *_e12_kernel(x)) for x in [c.astype(np.float64) for c in columns]]
    texts = [["%.12e" % v for v in x[left].tolist()] for x, _, _, left in rounded]
    if any(len(text) != _FIELD for column in texts for text in column):
        return None
    block = np.empty((len(columns[0]), len(columns) * (_FIELD + 1) + 1), np.uint8)
    for j, ((_, m, ei, left), column) in enumerate(zip(rounded, texts)):
        o = j * (_FIELD + 1)          # the field's first byte
        hi = m // 100                 # m is "d dd dddd dddd dd"
        mid = hi // 10**4
        lead = mid // 10**4
        # rows left to `%` may hold any index; "clip" also lets take write
        # straight into the strided, unaligned views
        words = block[:, o:o + 16].view(np.uint32)
        np.take(_LEADS, lead, out=words[:, 0], mode="clip")
        np.take(_DIGITS4, mid - 10**4 * lead, out=words[:, 1], mode="clip")
        np.take(_DIGITS4, hi - 10**4 * mid, out=words[:, 2], mode="clip")
        np.take(_TAILS, m - 100 * hi + _EXP_TAILS[ei], out=words[:, 3], mode="clip")
        digits = block[:, o + 16:o + _FIELD].view(np.uint16)[:, 0]   # "dd"
        np.take(_EXP_DIGITS, ei, out=digits, mode="clip")
        block[left, o:o + _FIELD] = np.array(column, f"S{_FIELD}").view(np.uint8).reshape(
            -1, _FIELD)
        block[:, o + _FIELD] = ord(",")
    block[:, -2] = ord("\r")
    block[:, -1] = ord("\n")
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
                values = [v for row in zip(*(c.tolist() for c in block)) for v in row]
                text = ((line * len(block[0])) % tuple(values)).encode()
            fh.write(text)


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
            return "degenerate", f"degenerate: {exc}", {
                "groups": _num(groups, "coupling", "solve_c_vector")
            }
        cvecs.append(cv)
        res = np.max(np.abs(system_residual(spec.group_block(h), cv.c, spec.p)))
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
        if cv.boundary:
            worst = "degenerate"
            message = f"degenerate: group {h} amplitude hits the existence boundary"
    ctx["c-vector"] = cvecs
    return worst, message, {"groups": _num(groups, "coupling", "solve_c_vector")}


_VERDICT_RANK = {"pass": 0, "inconclusive": 1, "degenerate": 2, "error": 3}


def _task_spectrum(cfg, ctx, rng, out):
    spec = cfg.coupling
    groups = []
    worst = "pass"
    messages = []
    for h, cv in enumerate(ctx["c-vector"]):
        report = build_spectrum(spec, cv)
        groups.append(
            {
                "group": h,
                "lambdas": report.lambdas.tolist(),
                "thetas": report.thetas.tolist(),
                "det_identity_gap": float(report.det_identity_gap),
                "verdict": report.verdict,
                "message": report.reason,
            }
        )
        task_verdict = "pass" if report.verdict == "nondegenerate" else report.verdict
        if _VERDICT_RANK[task_verdict] > _VERDICT_RANK[worst]:
            worst = task_verdict
        if task_verdict != "pass":
            messages.append(f"group {h}: {report.reason}")
    message = "; ".join(messages) if messages else "all groups nondegenerate"
    return worst, message, {
        "groups": _num(groups, "coupling", "build_spectrum"),
    }


def _task_reduced_energy(cfg, ctx, rng, out):
    weights = np.array([float(np.sum(cv.c**2)) for cv in ctx["c-vector"]])
    robin = np.array(
        [kernel_robin(cfg.ball, a) for a in cfg.hole_centers]
    )
    model = ReducedEnergyModel(
        dims=cfg.dims, weights=weights, robin=robin, hole_r=cfg.hole_coeffs
    )
    ctx["reduced-energy"] = model
    outputs = {
        "weights": _num(weights.tolist(), "coupling", "solve_c_vector"),
        "robin": _num(robin.tolist(), "greens", "kernel_robin"),
        "hole_r": _num(cfg.hole_coeffs.tolist(), "cli", "config"),
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
    d_probe = np.exp(rng.uniform(lo, hi, model.n_peaks))
    tau_probe = rng.uniform(-0.2, 0.2, (model.n_peaks, cfg.dims.N))
    gap = gradient_check(model, ReducedPoint(d=d_probe, tau=tau_probe, eta=cfg.eta))
    verdict = "pass" if gap < 1e-5 else "inconclusive"
    message = f"analytic vs finite-difference gradient gap {gap:.3e}"
    outputs["grad_fd_gap"] = _num(gap, "energy", "psi_grad")
    outputs["probe_d"] = _num(d_probe.tolist(), "cli", "rng")
    return verdict, message, outputs


def _task_critical_point(cfg, ctx, rng, out):
    model = ctx["reduced-energy"]
    rep = critical_point(model, eta=cfg.eta)
    psi_min = psi_value(model, rep.point) if rep.in_box else None   # Psi lives on X_eta
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
        "d_tilde": _num(rep.point.d.tolist(), "energy", "critical_point"),
        "psi_value": _num(psi_min, "energy", "psi_value"),
        "grad_norm": _num(rep.grad_norm, "energy", "psi_grad"),
        "hess_d_block": _num(rep.hess_d.tolist(), "energy", "psi_hessian_at_flat"),
        "hess_tau_block": _num(rep.hess_tau.tolist(), "energy", "psi_hessian_at_flat"),
        "signature_ok": _num(rep.signature_ok, "energy", "critical_point"),
    }


def _family_verdict(slope_tol, fit):
    if abs(fit.exponent_measured - fit.exponent_predicted) > slope_tol:
        return "inconclusive", (
            f"slope {fit.exponent_measured:.3f} vs predicted "
            f"{fit.exponent_predicted:.3f}"
        )
    constant = abs(fit.exponent_predicted) < 1e-12 and not fit.has_log
    ratios = fit.ratios   # pair fits gate their value/bound ratios, not r^2
    if not constant and ratios is None and fit.r2 < 0.999:
        return "inconclusive", f"log-log fit r^2 = {fit.r2:.5f} < 0.999"
    if ratios is not None and np.max(ratios) > 10.0 * np.min(ratios):
        return "inconclusive", "value/bound ratio spreads more than 10x"
    return "pass", "within tolerance"


def _task_scaling(cfg, ctx, rng, out):
    families = []
    worst = "pass"
    messages = []
    for kind, params in cfg.scaling:
        family = _FAMILIES[kind]
        fit = family.fit(cfg.dims, cfg.ball.radius, params)
        name = family.name.format(**params)
        verdict, note = _family_verdict(family.slope_tol, fit)
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


def _coupling_inputs(cfg):
    spec = cfg.coupling
    return {"mu": spec.mu.tolist(), "beta": spec.beta.tolist(),
            "decomposition": list(spec.decomposition)}


def _domain_inputs(cfg):
    return {"ball_radius": cfg.ball.radius, "hole_centers": cfg.hole_centers.tolist(),
            "hole_coeffs": cfg.hole_coeffs.tolist(), "eta": cfg.eta}


def _scaling_inputs(cfg):
    return {"families": [{"kind": kind, **params} for kind, params in cfg.scaling]}


def _sweep_inputs(cfg):
    return {"ball_radius": cfg.ball.radius, "hole_coeff": float(cfg.hole_coeffs[0]),
            "epsilon_grid": cfg.epsilon_grid.tolist(), "n_nodes": cfg.n_nodes}


# task -> module and operation it is reported under, the task it needs,
# its inputs beside "dims", and its runner; tasks run in this order.  A
# runner leaves what later tasks build on in ctx under its own task name;
# a task whose prerequisite left nothing there is skipped as degenerate.
_Task = namedtuple("_Task", "module operation prerequisite inputs runner")
_TASKS = {
    "c-vector": _Task("coupling", "solve_c_vector", None, _coupling_inputs, _task_c_vector),
    "spectrum": _Task("coupling", "build_spectrum", "c-vector", _coupling_inputs,
                      _task_spectrum),
    "reduced-energy": _Task("energy", "ReducedEnergyModel", "c-vector", _domain_inputs,
                            _task_reduced_energy),
    "critical-point": _Task("energy", "critical_point", "reduced-energy", _domain_inputs,
                            _task_critical_point),
    "scaling-checks": _Task("asymptotics", "scaling_law fits", None, _scaling_inputs,
                            _task_scaling),
    "radial-sweep": _Task("solver", "rate_sweep", None, _sweep_inputs, _task_radial_sweep),
}
TASK_ORDER = tuple(_TASKS)


def run(config, out_dir, seed=0):
    """Execute the configured tasks; returns (exit_code, summary dict).

    Also writes summary.json plus per-task CSV artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ctx = {}
    entries = []
    worst = "pass"
    for task, info in _TASKS.items():
        if task not in config.tasks:
            continue
        t0 = time.perf_counter()
        need = info.prerequisite
        if need is not None and need not in ctx:
            verdict, message, outputs = "degenerate", f"skipped: {need} left no result", {}
        else:
            try:
                verdict, message, outputs = info.runner(config, ctx, rng, out)
            except Exception as exc:   # numerical failures keep task attribution
                verdict, message, outputs = "error", f"{type(exc).__name__}: {exc}", {}
        elapsed = time.perf_counter() - t0
        entries.append(
            {
                "task": task,
                "module": info.module,
                "operation": info.operation,
                "inputs": {"dims": config.dims.N, **info.inputs(config)},
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
    text = []
    _encode(summary, text, "\n")   # before the file opens: no partial file
    text.append("\n")
    with open(out / "summary.json", "w") as fh:
        fh.write("".join(text))
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

    out_dir = args.out if args.out is not None else (config.out_dir or "bubblelab_out")
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
