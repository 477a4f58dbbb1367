"""Newton continuation solver for the radial critical problem on an annulus.

The scalar problem

    -u'' - (N-1)/s u' = mu (u^+)^p   on (inner, outer),  u(inner) = u(outer) = 0

is discretized with three-point finite differences on a log-uniform mesh
(the solutions of interest have a peak of width ~ sqrt(eps), which a
geometric mesh resolves at every scale).  Newton with a backtracking line
search and a banded Jacobian solve converges from the projected-bubble
ansatz; a continuation sweep over a shrinking geometric grid of hole
scales recovers the concentration rate delta ~ d sqrt(eps) and the limit
amplitude d, which cross-checks the minimizer of the reduced energy.

Multi-component solutions sharing a single peak are composed algebraically
as u_i = c_i w from a converged scalar profile w and an amplitude vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import Annulus, project_bubble_radial
from .bubbles import BubbleParams
from .coupling import CouplingSpec, CVector
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
    """Peak data of a converged profile (after removing the mu scaling):
    delta_est = (alpha_N / umax)^(2/(N-2)) and d_est = delta_est/sqrt(eps)."""

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


def graded_mesh(inner, outer, n=DEFAULT_NODES):
    """Log-uniform mesh: constant node count per decade at every scale."""
    if not 0 < inner < outer:
        raise ValueError("mesh requires 0 < inner < outer")
    if n < 8:
        raise ValueError("mesh needs at least 8 nodes")
    return np.geomspace(inner, outer, int(n))


def _operator_bands(nodes, dims):
    """Difference-form stencil of u -> -u'' - (N-1)/s u' on interior nodes.

    Every interior row is premultiplied by h_m h_p / 2 so the stencil
    entries are O(1); this keeps the floating-point floor of the residual
    near machine precision relative to |u| instead of blowing up like
    1/h^2 on fine meshes.  The weights are returned so that source terms
    can be scaled consistently.  Boundary rows are identities.
    """
    N = dims.N
    M = len(nodes)
    lo = np.zeros(M)
    di = np.ones(M)
    up = np.zeros(M)
    weight = np.ones(M)
    s = nodes[1:-1]
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    tot = hm + hp
    drift = (N - 1) / s
    w = hm * hp / 2.0
    weight[1:-1] = w
    lo[1:-1] = -(2.0 - drift * hp) / (hm * tot) * w
    di[1:-1] = (2.0 - drift * (hp - hm)) / (hm * hp) * w
    up[1:-1] = -(2.0 + drift * hm) / (hp * tot) * w
    return lo, di, up, weight


def _apply_bands(bands, u):
    lo, di, up, _ = bands
    out = di * u
    out[1:] += lo[1:] * u[:-1]
    out[:-1] += up[:-1] * u[1:]
    # boundary rows are pure identity; strip neighbor contributions
    out[0] = u[0]
    out[-1] = u[-1]
    return out


def _f(u, p):
    return np.maximum(u, 0.0) ** p


def _fprime(u, p):
    return p * np.maximum(u, 0.0) ** (p - 1)


def _residual(bands, u, mu, p):
    """Difference-form residual: weight * (-Lap u - mu f(u)) inside,
    u itself on the Dirichlet rows.  Returns it and the largest scaled
    potential weight * mu f(u), from the same f(u)."""
    pot = bands[3] * mu * _f(u, p)
    F = _apply_bands(bands, u)
    F[1:-1] -= pot[1:-1]
    return F, float(np.max(pot))


def _residual_norm(u, F, pot_max):
    """Scale-invariant convergence measure: the difference-form residual
    is already in solution units, so normalize by 1 + |u| + the largest
    scaled potential."""
    return float(np.max(np.abs(F))) / (1.0 + float(np.max(np.abs(u))) + pot_max)


def bubble_ansatz(annulus, dims, epsilon, mu=1.0, nodes=None):
    """Initial profile mu^(-1/(p-1)) PU at the reduced-energy rate
    d_tilde, the starting point that realizes the target peak."""
    if nodes is None:
        nodes = graded_mesh(annulus.inner, annulus.outer)
    r_coeff = annulus.inner / epsilon
    ball = Ball(radius=annulus.outer, center=np.zeros(dims.N), dims=dims)
    H = kernel_robin(ball, np.zeros(dims.N))
    model = ReducedEnergyModel(
        dims=dims,
        weights=np.array([mu ** (-2.0 / (dims.p - 1))]),
        robin=np.array([H]),
        hole_r=np.array([r_coeff]),
    )
    d_t = float(critical_point(model).point.d[0])
    delta = d_t * math.sqrt(epsilon)
    proj = project_bubble_radial(
        annulus, BubbleParams(delta=delta, xi=np.zeros(dims.N), dims=dims)
    )
    vals = mu ** (-1.0 / (dims.p - 1)) * np.maximum(proj.value(nodes), 0.0)
    vals[0] = vals[-1] = 0.0
    return RadialGrid(nodes=nodes, values=vals, dims=dims), d_t


def solve_radial(annulus, dims, epsilon, mu=1.0, initial="bubble-ansatz",
                 n_nodes=DEFAULT_NODES, tol=NEWTON_TOL, max_iter=MAX_NEWTON_ITER):
    """Newton solve from a grid or from the projected-bubble ansatz.

    The discrete system is kept in difference form (rows scaled by
    h_m h_p / 2), so the residual lives in solution units.  Stops when
    max|F| / (1 + max|u| + max scaled potential) < tol.  A converged
    profile whose peak max u is below 1e-8 max(1, max|u|) is flagged as the
    trivial branch and carries no concentration metrics.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    p = dims.p
    if isinstance(initial, RadialGrid):
        nodes = initial.nodes
        u = initial.values.copy()
    elif initial == "bubble-ansatz":
        seed, _ = bubble_ansatz(annulus, dims, epsilon, mu,
                                graded_mesh(annulus.inner, annulus.outer, n_nodes))
        nodes = seed.nodes
        u = seed.values.copy()
    else:
        raise ValueError("initial must be a RadialGrid or 'bubble-ansatz'")
    u[0] = u[-1] = 0.0
    bands = _operator_bands(nodes, dims)
    lo, di, up, _ = bands

    history = []
    converged = False
    message = "newton iteration limit reached"
    F, pot_max = _residual(bands, u, mu, p)
    for it in range(max_iter):
        res = _residual_norm(u, F, pot_max)
        history.append(res)
        if res < tol:
            converged = True
            message = "converged"
            break
        diag_j = di.copy()
        diag_j[1:-1] -= bands[3][1:-1] * mu * _fprime(u[1:-1], p)
        ab = np.zeros((3, len(nodes)))
        ab[0, 1:] = up[:-1]
        ab[1, :] = diag_j
        ab[2, :-1] = lo[1:]
        from scipy.linalg import solve_banded  # only radial solves load scipy
        du = solve_banded((1, 1), ab, -F)
        du[0] = du[-1] = 0.0   # every trial keeps the Dirichlet zeros
        base = float(np.max(np.abs(F)))
        t = 1.0
        for _ in range(30):
            trial = u + t * du
            F_trial, pot_trial = _residual(bands, trial, mu, p)
            if float(np.max(np.abs(F_trial))) <= (1 - 1e-4 * t) * base:
                break
            t *= 0.5
        else:
            message = "line search stalled"
            break
        u, F, pot_max = trial, F_trial, pot_trial   # the accepted trial is the next iterate

    grid = RadialGrid(nodes=nodes, values=u, dims=dims)
    trivial = bool(converged and np.max(u) < 1e-8 * max(1.0, float(np.max(np.abs(u)))))
    metrics = None
    if converged and not trivial:
        metrics = _metrics(grid, epsilon, mu)
    report = NewtonReport(
        converged=converged,
        iterations=len(history),
        residuals=tuple(history),
        trivial=trivial,
        message="trivial branch" if trivial else message,
    )
    return SolveResult(grid=grid, metrics=metrics, report=report)


def _metrics(grid, epsilon, mu):
    dims = grid.dims
    # remove the mu scaling so peak height compares against alpha_N/delta^k
    v = mu ** (1.0 / (dims.p - 1)) * grid.values
    k = int(np.argmax(v))
    vmax = float(v[k])
    delta_est = (dims.alphaN / vmax) ** (2.0 / (dims.N - 2))
    spec1 = CouplingSpec(
        N=dims.N, m=1, mu=np.array([mu]), beta=np.array([[mu]]), decomposition=(0, 1)
    )
    return ConcentrationMetrics(
        umax=float(np.max(grid.values)),
        rpeak=float(grid.nodes[k]),
        delta_est=delta_est,
        d_est=delta_est / math.sqrt(epsilon),
        energy=energy_of_solution([grid], spec1),
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


def rate_sweep(dims, outer_radius, radius_coeff, epsilon_grid, mu=1.0,
               n_nodes=DEFAULT_NODES, on_result=None):
    """Solve down a decreasing eps grid with rescaled-profile continuation.

    ``on_result(eps, res)``, if given, is called once for each converged,
    nontrivial solve, from the largest eps down, before the next eps is
    solved; an exception it raises ends the sweep.  Only ``on_result``
    sees the solved grids: the sweep keeps just the latest one, to seed
    the next solve, so a grid outlives the next ``on_result`` call only if
    the callback keeps it.
    """
    eps_desc = np.sort(np.asarray(epsilon_grid, float))[::-1]
    if len(eps_desc) < 2:
        raise ValueError("sweep needs at least two eps values")
    metrics = []
    reports = []
    used = []
    aborted = False
    message = "completed"
    prev = None
    d_tilde = None
    for eps in eps_desc:
        ann = Annulus(inner=radius_coeff * eps, outer=outer_radius)
        nodes = graded_mesh(ann.inner, ann.outer, n_nodes)
        if prev is None:
            seed, d_tilde = bubble_ansatz(ann, dims, eps, mu, nodes)
        else:
            prev_eps, prev_grid = prev
            kappa = math.sqrt(eps / prev_eps)
            vals = kappa ** (-(dims.N - 2) / 2) * np.interp(
                nodes / kappa, prev_grid.nodes, prev_grid.values, left=0.0, right=0.0
            )
            vals[0] = vals[-1] = 0.0
            seed = RadialGrid(nodes=nodes, values=vals, dims=dims)
        res = solve_radial(ann, dims, eps, mu=mu, initial=seed)
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
    if len(used) >= 2:
        slope = float(np.polyfit(np.log(used), np.log(deltas), 1)[0])
    else:
        slope = float("nan")
    d_ests = deltas / np.sqrt(used) if len(used) else np.array([])
    return RateSweepReport(
        epsilons=used,
        delta_ests=deltas,
        d_ests=d_ests,
        slope=slope,
        d_final=float(d_ests[-1]) if len(d_ests) else float("nan"),
        d_tilde=float(d_tilde) if d_tilde is not None else float("nan"),
        metrics=tuple(metrics),
        reports=tuple(reports),
        aborted=aborted,
        message=message,
    )


@dataclass(frozen=True)
class ComposeReport:
    grids: tuple
    residual_sup: np.ndarray      # per component, discrete system residual
    identity_gap: np.ndarray      # per component, |R_i - c_i * scalar residual|
    scalar_residual_sup: float


def compose_group_solution(spec, cvec, w):
    """Assemble u_i = c_i w for one group and report the system residuals.

    Substituting u_i = c_i w into component i's equation leaves
    c_i (amplitude-system residual) w^p plus c_i times the scalar solve's
    own defect, so for an exact amplitude vector the system residual
    coincides with c_i times the scalar residual.  Residuals use the same
    difference-form rows as the solver and are normalized by the scalar
    profile's sup, so the reported numbers are relative.
    """
    if not isinstance(cvec, CVector):
        raise ValueError("cvec must be a CVector")
    idx = list(spec.group_indices(cvec.group))
    if len(cvec.c) != len(idx):
        raise ValueError("amplitude vector length does not match the group")
    if w.dims.N != spec.N:
        raise ValueError("grid dimension does not match the coupling data")
    p = spec.p
    e1, e2 = (p - 1) / 2, (p + 1) / 2
    bands = _operator_bands(w.nodes, w.dims)
    r_scalar, _ = _residual(bands, w.values, 1.0, p)
    grids = tuple(
        RadialGrid(nodes=w.nodes, values=c_i * w.values, dims=w.dims)
        for c_i in cvec.c
    )
    block = spec.group_block(cvec.group)
    sup = np.zeros(len(idx))
    gap = np.zeros(len(idx))
    uplus = [np.maximum(g.values, 0.0) for g in grids]
    scale = 1.0 + float(np.max(np.abs(w.values)))
    for a in range(len(idx)):
        R = _apply_bands(bands, grids[a].values)
        coupling_sum = np.zeros_like(w.values)
        for b in range(len(idx)):
            coupling_sum += block[a, b] * uplus[b] ** e2
        R[1:-1] -= (bands[3] * coupling_sum * uplus[a] ** e1)[1:-1]
        sup[a] = float(np.max(np.abs(R))) / scale
        gap[a] = float(np.max(np.abs(R - cvec.c[a] * r_scalar))) / scale
    return ComposeReport(
        grids=grids,
        residual_sup=sup,
        identity_gap=gap,
        scalar_residual_sup=float(np.max(np.abs(r_scalar))) / scale,
    )


def energy_of_solution(grids, spec):
    """Discrete action: sum of single-component Dirichlet/potential terms
    minus the pairwise coupling term, in the radial measure."""
    if len(grids) != spec.m:
        raise ValueError("need one grid per component")
    nodes = grids[0].nodes
    dims = grids[0].dims
    for g in grids[1:]:
        if not np.array_equal(g.nodes, nodes):
            raise ValueError("grids must share nodes")
    p = spec.p
    s_pow = nodes ** (dims.N - 1)
    total = 0.0
    for i, g in enumerate(grids):
        du = np.gradient(g.values, nodes)
        uplus = np.maximum(g.values, 0.0)
        total += np.trapezoid(
            s_pow * (0.5 * du**2 - spec.mu[i] * uplus ** (p + 1) / (p + 1)), nodes
        )
    for i in range(spec.m):
        for j in range(i + 1, spec.m):
            prod = np.abs(grids[i].values * grids[j].values) ** ((p + 1) / 2)
            total -= 2.0 / (p + 1) * spec.beta[i, j] * np.trapezoid(s_pow * prod, nodes)
    return float(dims.omegaNm1 * total)
