"""Newton continuation solver for the radial critical problem on an annulus.

The scalar problem

    -u'' - (N-1)/s u' = (u^+)^p   on (inner, outer),  u(inner) = u(outer) = 0

is discretized with three-point finite differences on a log-uniform mesh
(the solutions of interest have a peak of width ~ sqrt(eps), which a
geometric mesh resolves at every scale).  A solve is described by its seed
grid alone: the seed's nodes are the mesh, its first and last nodes the
annulus and its dims the problem.  Newton with a backtracking line search
converges from the projected-bubble ansatz on those nodes; each solve
builds its bands, iterates and forms its energy in the rows of one
workspace, and LAPACK dgtsv, through scipy's f2py wrapper, solves the
tridiagonal Jacobian.  A continuation sweep over a shrinking geometric grid
of hole scales, whose solves all reuse one workspace, recovers the
concentration rate delta ~ d sqrt(eps) and the limit amplitude d, which
cross-checks the minimizer of the reduced energy.

The solver has no mu: if -Lap w = (w^+)^p, then mu^(-1/(p-1)) w solves
-Lap u = mu (u^+)^p, so a component's mu_i enters only through its amplitude.
A group of components sharing one peak, u_i = c_i w, solves its system
exactly when c solves the amplitude system; that identity is a test oracle
(``tests/oracles.py``), not a solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _loglog_line, project_bubble_radial
from .energy import ReducedEnergyModel, critical_point
from .greens import Ball, kernel_robin

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 50
DEFAULT_NODES = 2000


@dataclass(frozen=True)
class RadialGrid:
    """Radial nodes with solution samples."""

    nodes: np.ndarray
    values: np.ndarray
    dims: object

    def __post_init__(self):
        nodes = np.asarray(self.nodes, float)
        values = np.asarray(self.values, float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be matching 1D arrays")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ConcentrationMetrics:
    """Peak data of a converged profile: delta_est = (alpha_N / umax)^(2/(N-2))
    and d_est = delta_est/sqrt(eps)."""

    umax: float
    rpeak: float
    delta_est: float
    d_est: float
    energy: float


@dataclass(frozen=True)
class NewtonReport:
    converged: bool
    iterations: int
    residuals: tuple
    trivial: bool
    message: str


@dataclass(frozen=True)
class SolveResult:
    grid: RadialGrid
    metrics: ConcentrationMetrics  # None unless converged and nontrivial
    report: NewtonReport


def graded_mesh(inner, outer, n):
    """Log-uniform mesh: constant node count per decade at every scale."""
    if not 0 < inner < outer:
        raise ValueError("mesh requires 0 < inner < outer")
    if n < 8:
        raise ValueError("mesh needs at least 8 nodes")
    return np.geomspace(inner, outer, int(n))


def _operator_bands(nodes, dims, ws):
    """Difference-form stencil of u -> -u'' - (N-1)/s u' on interior nodes.

    Every interior row is premultiplied by h_m h_p / 2 so the stencil
    entries are O(1); this keeps the floating-point floor of the residual
    near machine precision relative to |u| instead of blowing up like
    1/h^2 on fine meshes.  The weights are returned so that source terms
    can be scaled consistently.  Boundary rows are identities.  The four
    bands are the last four rows of the block ``ws``, each built in place;
    its first four rows are scratch.
    """
    bands = ws[-4:]
    bands[:, [0, -1]] = 0.0   # a reused block holds the last solve's values
    bands[1, [0, -1]] = bands[3, [0, -1]] = 1.0
    lo, di, up, w = bands[:, 1:-1]
    s = nodes[1:-1]
    hm, hp, tot, drift = ws[:4, 1:-1]
    np.subtract(s, nodes[:-2], out=hm)
    np.subtract(nodes[2:], s, out=hp)
    np.add(hm, hp, out=tot)
    np.divide(dims.N - 1, s, out=drift)
    np.multiply(hm, hp, out=di)   # h_m h_p, in the weight and in di's denominator
    np.divide(di, 2.0, out=w)
    # lo = -(2 - drift h_p) / (h_m tot) w, di = (2 - drift (h_p - h_m)) / (h_m h_p) w,
    # up = -(2 + drift h_m) / (h_p tot) w
    np.negative(np.subtract(2.0, np.multiply(drift, hp, out=lo), out=lo), out=lo)
    lo /= np.multiply(hm, tot, out=up)
    lo *= w
    np.subtract(2.0, np.multiply(drift, np.subtract(hp, hm, out=up), out=up), out=up)
    np.divide(up, di, out=di)
    di *= w
    np.negative(np.add(np.multiply(drift, hm, out=up), 2.0, out=up), out=up)
    up /= np.multiply(tot, hp, out=tot)
    up *= w
    return bands


def _apply_bands(bands, u, out, tmp):
    """The stencil product, into ``out``; ``tmp`` is scratch of u's length."""
    lo, di, up, _ = bands
    np.multiply(di, u, out=out)
    out[1:] += np.multiply(lo[1:], u[:-1], out=tmp[1:])
    out[:-1] += np.multiply(up[:-1], u[1:], out=tmp[:-1])
    # boundary rows are pure identity; strip neighbor contributions
    out[0] = u[0]
    out[-1] = u[-1]
    return out


def _residual(bands, u, p, out, tmp):
    """Difference-form residual into ``out``: weight * (-Lap u - f(u))
    inside, u itself on the Dirichlet rows.  Also returns the largest scaled
    potential weight * f(u), left in ``tmp``."""
    F = _apply_bands(bands, u, out, tmp)
    pot = np.maximum(u, 0.0, out=tmp)
    pot **= p
    pot *= bands[3]
    F[1:-1] -= pot[1:-1]
    return F, float(np.max(pot))


def bubble_ansatz(dims, epsilon, nodes):
    """Initial profile PU on ``nodes`` at the reduced-energy rate d_tilde,
    on the annulus the nodes span: hole coefficient nodes[0] / epsilon and
    ball radius nodes[-1]."""
    inner, outer = float(nodes[0]), float(nodes[-1])
    ball = Ball(radius=outer, center=np.zeros(dims.N), dims=dims)
    H = kernel_robin(ball, np.zeros(dims.N))
    model = ReducedEnergyModel(
        dims=dims,
        weights=np.array([1.0]),
        robin=np.array([H]),
        hole_r=np.array([inner / epsilon]),
    )
    d_t = float(critical_point(model).point.d[0])
    proj = project_bubble_radial(dims, d_t * math.sqrt(epsilon), inner, outer)
    vals = np.maximum(proj.value(nodes), 0.0)
    vals[0] = vals[-1] = 0.0
    return RadialGrid(nodes=nodes, values=vals, dims=dims), d_t


def _check_finite(*arrays):
    for a in arrays:   # min and max propagate NaN, and need no temporaries
        if not (math.isfinite(np.min(a)) and math.isfinite(np.max(a))):
            raise ValueError("array must not contain infs or NaNs")


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl and du of length n - 1) for b with
    LAPACK dgtsv through scipy's f2py wrapper, as ``solve_banded((1, 1),
    ...)`` does, with its errors for a non-finite d or b (dl, du: the
    caller's) and singularity.  dgtsv works in place on each argument that
    is contiguous float64 and on a copy of any other, so the solution is the
    array returned: b itself only when b is contiguous float64."""
    from scipy.linalg.lapack import dgtsv   # only radial solves load scipy
    _check_finite(d, b)
    *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def solve_radial(seed, epsilon, max_iter=MAX_NEWTON_ITER, *, _workspace=None):
    """Newton solve from the grid ``seed``, on its nodes and in its dims:
    the annulus is the one its first and last nodes span.  A solve from the
    projected-bubble ansatz takes ``bubble_ansatz(...)[0]`` as its seed.

    The discrete system is kept in difference form (rows scaled by
    h_m h_p / 2), so the residual lives in solution units.  Stops when
    max|F| / (1 + max|u| + max scaled potential) < NEWTON_TOL.  A converged
    profile whose peak max u is below 1e-8 max(1, max|u|) is flagged as the
    trivial branch and carries no concentration metrics.

    The bands, the Newton loop and the energy allocate no n-length array:
    they work in the rows of one (11, n) float64 workspace, rows 0-6 the
    Newton rows and 7-10 the bands.  ``_workspace`` lends one that the
    caller reuses across solves (``rate_sweep`` does); it is a buffer, and
    the results have the same bits with or without it.  LAPACK dgtsv solves
    for the step through scipy's f2py wrapper, which holds the GIL for the
    call; the bits are those of ``solve_banded((1, 1), ...)`` on fresh arrays.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    nodes, dims = seed.nodes, seed.dims
    p = dims.p
    ws = np.empty((11, len(nodes))) if _workspace is None else _workspace
    bands = _operator_bands(nodes, dims, ws)   # rows 0-3 are free until u is seeded
    lo, di, up, w = bands
    u, trial, F, F_trial, tmp, diag, du = ws[:7]
    u[:] = seed.values
    u[0] = u[-1] = 0.0

    history = []
    converged = False
    message = "newton iteration limit reached"
    F, pot_max = _residual(bands, u, p, F, tmp)
    for it in range(max_iter):
        # scale-invariant convergence measure: the residual is in solution units
        base = float(np.max(np.abs(F, out=tmp)))
        res = base / (1.0 + float(np.max(np.abs(u, out=tmp))) + pot_max)
        history.append(res)
        if res < NEWTON_TOL:
            converged = True
            message = "converged"
            break
        if it == 0:
            _check_finite(lo, up)
        g = np.maximum(u[1:-1], 0.0, out=diag[1:-1])   # di - w p (u^+)^(p-1)
        g **= p - 1
        g *= p
        g *= w[1:-1]
        np.subtract(di[1:-1], g, out=g)
        diag[0], diag[-1] = di[0], di[-1]
        # dgtsv overwrites its bands: copy them into rows free until the line search
        np.copyto(tmp[:-1], lo[1:])
        np.copyto(trial[:-1], up[:-1])
        du = _gtsv(tmp[:-1], diag, trial[:-1], np.negative(F, out=du))
        du[0] = du[-1] = 0.0   # every trial keeps the Dirichlet zeros
        t = 1.0
        for _ in range(30):
            np.multiply(du, t, out=trial)
            trial += u
            F_trial, pot_trial = _residual(bands, trial, p, F_trial, tmp)
            if float(np.max(np.abs(F_trial, out=tmp))) <= (1 - 1e-4 * t) * base:
                break
            t *= 0.5
        else:
            message = "line search stalled"
            break
        # the accepted trial is the next iterate: swap the rows by name
        u, trial, F, F_trial, pot_max = trial, u, F_trial, F, pot_trial

    grid = RadialGrid(nodes=nodes, values=u.copy(), dims=dims)   # not a view of the workspace
    trivial = bool(converged and np.max(u) < 1e-8 * max(1.0, float(np.max(np.abs(u)))))
    metrics = None
    if converged and not trivial:
        metrics = _metrics(grid, epsilon, ws)
    report = NewtonReport(
        converged=converged,
        iterations=len(history),
        residuals=tuple(history),
        trivial=trivial,
        message="trivial branch" if trivial else message,
    )
    return SolveResult(grid=grid, metrics=metrics, report=report)


def _metrics(grid, epsilon, ws):
    dims = grid.dims
    k = int(np.argmax(grid.values))
    umax = float(grid.values[k])
    delta_est = (dims.alphaN / umax) ** (2.0 / (dims.N - 2))
    return ConcentrationMetrics(
        umax=umax,
        rpeak=float(grid.nodes[k]),
        delta_est=delta_est,
        d_est=delta_est / math.sqrt(epsilon),
        energy=energy_of_solution(grid, _workspace=ws),
    )


@dataclass(frozen=True)
class RateSweepReport:
    """Continuation sweep results: per-eps concentration scales, the
    fitted log-log slope (1/2 predicted), and the cross-module comparison
    of the limiting amplitude with the reduced-energy rate.  ``metrics``
    and ``reports`` hold each accepted solve's ConcentrationMetrics and
    NewtonReport, one per entry of ``epsilons``; the grids are not kept
    (``rate_sweep``'s ``on_result`` sees each one)."""

    epsilons: np.ndarray
    delta_ests: np.ndarray
    d_ests: np.ndarray
    slope: float
    d_final: float
    d_tilde: float
    metrics: tuple
    reports: tuple
    aborted: bool
    message: str


def rate_sweep(dims, outer_radius, radius_coeff, epsilon_grid, n_nodes=DEFAULT_NODES,
               on_result=None):
    """Solve down a decreasing eps grid with rescaled-profile continuation.

    ``on_result(eps, res)``, if given, is called once for each converged,
    nontrivial solve, from the largest eps down, before the next eps is
    solved; an exception it raises ends the sweep.  Only ``on_result``
    sees the solved grids: the sweep keeps just the latest one, to seed
    the next solve, so a grid outlives the next ``on_result`` call only if
    the callback keeps it.  Every solve of the sweep works in one (11, n)
    workspace, allocated once; no grid it returns is a view of it.
    """
    eps_desc = np.sort(np.asarray(epsilon_grid, float))[::-1]
    if len(eps_desc) < 2:
        raise ValueError("sweep needs at least two eps values")
    metrics = []
    reports = []
    used = []
    aborted = False
    message = "completed"
    prev = None   # the first eps, of at least two, sets d_tilde from the ansatz
    for eps in eps_desc:
        nodes = graded_mesh(radius_coeff * eps, outer_radius, n_nodes)
        if prev is None:
            seed, d_tilde = bubble_ansatz(dims, eps, nodes)
            workspace = np.empty((11, len(nodes)))
        else:
            prev_eps, prev_grid = prev
            kappa = math.sqrt(eps / prev_eps)
            vals = kappa ** (-(dims.N - 2) / 2) * np.interp(
                nodes / kappa, prev_grid.nodes, prev_grid.values, left=0.0, right=0.0
            )
            vals[0] = vals[-1] = 0.0
            seed = RadialGrid(nodes=nodes, values=vals, dims=dims)
        res = solve_radial(seed, eps, _workspace=workspace)
        if not res.report.converged or res.report.trivial:
            aborted = True
            message = f"solve failed at eps={eps:.3e}: {res.report.message}"
            break
        metrics.append(res.metrics)
        reports.append(res.report)
        if on_result is not None:
            on_result(eps, res)
        used.append(eps)
        prev = (eps, res.grid)
    used = np.asarray(used)
    deltas = np.asarray([m.delta_est for m in metrics])
    slope = float(_loglog_line(np.log([used, deltas]))[3]) if len(used) > 1 else math.nan
    d_ests = np.asarray([m.d_est for m in metrics])
    return RateSweepReport(
        epsilons=used,
        delta_ests=deltas,
        d_ests=d_ests,
        slope=slope,
        d_final=float(d_ests[-1]) if len(d_ests) else float("nan"),
        d_tilde=d_tilde,
        metrics=tuple(metrics),
        reports=tuple(reports),
        aborted=aborted,
        message=message,
    )


def energy_of_solution(grid, *, _workspace=None):
    """Discrete action of one profile, int (1/2 u'^2 - (u^+)^(p+1)/(p+1))
    in the radial measure.

    u' and the integral have the bits of np.gradient (second order inside,
    first order at the ends) and np.trapezoid, formed in place in the first
    seven rows of ``_workspace`` (a fresh (7, n) block when not given;
    ``solve_radial`` lends its own)."""
    nodes, u, dims = grid.nodes, grid.values, grid.dims
    n = len(nodes)
    if n < 2:
        raise ValueError("energy needs at least two nodes")
    p = dims.p
    ws = np.empty((7, n)) if _workspace is None else _workspace
    s_pow, dx, a, b, c, du, tmp = ws[:7]
    np.copyto(s_pow, nodes)
    s_pow **= dims.N - 1   # the scalar-power path of nodes ** (N - 1)
    dx = np.subtract(nodes[1:], nodes[:-1], out=dx[:-1])   # np.diff(nodes)
    inner = du[1:-1]
    if np.all(dx == dx[0]):   # np.gradient's constant-spacing case
        np.subtract(u[2:], u[:-2], out=inner)
        inner /= 2.0 * dx[0]
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        a, b, c = a[:n - 2], b[:n - 2], c[:n - 2]
        np.negative(dx2, out=a)   # a = -dx2 / (dx1 (dx1 + dx2))
        a /= np.multiply(dx1, np.add(dx1, dx2, out=c), out=c)
        np.subtract(dx2, dx1, out=b)   # b = (dx2 - dx1) / (dx1 dx2)
        b /= np.multiply(dx1, dx2, out=tmp[:n - 2])
        np.divide(dx1, np.multiply(dx2, np.add(dx1, dx2, out=c), out=c), out=c)   # c
        np.multiply(a, u[:-2], out=inner)
        inner += np.multiply(b, u[1:-1], out=tmp[1:-1])
        inner += np.multiply(c, u[2:], out=tmp[1:-1])
    du[0] = (u[1] - u[0]) / dx[0]
    du[-1] = (u[-1] - u[-2]) / dx[-1]
    du **= 2                     # 0.5 u'^2 - (u^+)^(p+1) / (p+1)
    du *= 0.5
    pot = np.maximum(u, 0.0, out=tmp)
    pot **= p + 1
    pot /= p + 1
    du -= pot
    du *= s_pow
    terms = np.add(du[1:], du[:-1], out=tmp[:-1])   # np.trapezoid(du, nodes)
    terms *= dx
    terms /= 2.0
    # the sum starts at 0.0, so an integrand of -0.0 alone gives 0.0
    return float(dims.omegaNm1 * (0.0 + terms.sum()))
