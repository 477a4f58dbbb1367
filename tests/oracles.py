"""Test oracles: closed forms and finite-difference checks that no CLI task
runs, kept beside the tests that use them.

* `kernel_regular_part`: the ball's regular part of the plain kernel
  |x-y|^(2-N), of which `greens.kernel_robin` is the diagonal.
* `bubble_deriv`, `bubble_laplacian`, `bubble_residual`,
  `linearized_residual`: the derivative kernels of the bubble, its analytic
  Laplacian, and the residuals that certify alpha_N and the kernels.
* `remainder_check`, `remainder_trend`: the projection defect of
  `asymptotics.project_bubble_radial` against its three-piece model bound.
* `reference_pair_product_integral`: the pair integral with the cylinder
  remainder it had before its axial rule was mirrored, two `_profile`
  powers per node, which `asymptotics.pair_product_integral` matches to
  rounding; `_segments`, the sorted panel breaks it and the single-bubble
  reference rule take.
* `reference_scaling_fit`: the log-log slope fit by `np.linalg.lstsq`,
  which the closed-form `asymptotics._scaling_fit` matches to rounding.
* `reference_solve_c_vector`: the N=3 amplitude Newton of
  `coupling.solve_c_vector` as first written, whose bits it keeps.
* `det_identity_gap`: the relative gap of det C = prod(c_i^(p-1)) det(beta)
  on a group's `coupling.build_spectrum` matrix.
* `sigma_constant`: the limiting weighted norms of the derivative kernels.
* `reference_solve_radial`, `reference_energy_of_solution`: the radial
  Newton solve from a seed grid on fresh arrays with
  `scipy.linalg.solve_banded`, and the m-component action through
  `np.gradient` and `np.trapezoid`, whose bits `solver.solve_radial` and,
  on one component, `solver.energy_of_solution` keep;
  `reference_newton_system`, the Jacobian and right-hand side of a step;
  `ansatz_seed`, the projected-bubble seed of a solve on a graded mesh.
* `compose_group_solution`: the synchronized group profile u_i = c_i w of
  a scalar solve w and an amplitude vector c, with each component's
  system residual and its gap to c_i times the scalar residual.
* `exact_radial`: the radial solution from the first integral of its
  Emden-Fowler form, by root-finding and quadrature, with no mesh.
* `reference_check_holes`: `greens.check_holes` as a loop over the holes
  and then over the pairs, one `v.dot(v)` each, whose outcomes it keeps.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from bubblelab.asymptotics import (
    _panel_rule,
    _slice_area,
    check_separation,
    project_bubble_radial,
    radial_profile,
)
from bubblelab.bubbles import _profile, bubble_eval, dims_for
from bubblelab.coupling import CouplingSpec, CVector
from bubblelab.energy import _radial_moment
from bubblelab.greens import Ball
from bubblelab.solver import (
    DEFAULT_NODES,
    MAX_NEWTON_ITER,
    NEWTON_TOL,
    ConcentrationMetrics,
    NewtonReport,
    RadialGrid,
    SolveResult,
    bubble_ansatz,
    graded_mesh,
)


# ---------------------------------------------------------------- greens


def kernel_regular_part(ball, x, y):
    """Regular part of |x-y|^(2-N) for the ball (Kelvin image, no c_N).

    H(x,y) = (R / (|y'| * |x - y*|))^(N-2) with y* = R^2 y'/|y'|^2 in
    ball-centered coordinates y' = y - center; the y -> center limit is
    R^(2-N), the value of the constant harmonic extension.
    """
    for pt in (x, y):
        if not np.all(ball.contains(pt)):
            raise ValueError("point outside the ambient ball")
    N = ball.dims.N
    R = ball.radius
    xr = np.asarray(x, float) - ball.center
    yr = np.asarray(y, float) - ball.center
    ynorm = np.linalg.norm(yr, axis=-1)
    # |y'| |x - R^2 y'/|y'|^2| is smooth in y (equals sqrt(|x|^2|y|^2 - 2R^2 x.y + R^4))
    cross = np.sum(xr * yr, axis=-1)
    xnorm2 = np.sum(xr * xr, axis=-1)
    q = np.sqrt(xnorm2 * ynorm**2 - 2 * R**2 * cross + R**4)
    return (R / q) ** (N - 2)


# --------------------------------------------------------------- bubbles


def _r2(b, x):
    """Squared distance |x - xi|^2, broadcasting over leading axes of x."""
    return np.sum((np.asarray(x, dtype=float) - b.xi) ** 2, axis=-1)


def bubble_deriv(b, h, x):
    """Derivative kernel psi^h of the bubble.

    h = 0 is the dilation kernel dU/ddelta; h = 1..N are the translation
    kernels dU/dxi_h.  These span the kernel of the linearized operator
    -Δ - p U^(p-1).
    """
    N, alpha = b.dims.N, b.dims.alphaN
    if not 0 <= h <= N:
        raise IndexError(f"kernel index must be in 0..{N}, got {h}")
    d = b.delta
    r2 = _r2(b, x)
    den = (d**2 + r2) ** (N / 2)
    if h == 0:
        return alpha * (N - 2) / 2 * d ** ((N - 4) / 2) * (r2 - d**2) / den
    x = np.asarray(x, dtype=float)
    return alpha * (N - 2) * d ** ((N - 2) / 2) * (x[..., h - 1] - b.xi[h - 1]) / den


def bubble_laplacian(b, x):
    """Analytic Laplacian of the bubble.

    For the radial profile u(r) = A (delta^2 + r^2)^(-k) with k = (N-2)/2 and
    A = alpha_N delta^k, a direct computation gives
    Δu = -A N(N-2) delta^2 (delta^2 + r^2)^(-(N+2)/2).
    """
    N, alpha = b.dims.N, b.dims.alphaN
    d = b.delta
    A = alpha * d ** ((N - 2) / 2)
    return -A * N * (N - 2) * d**2 * (d**2 + _r2(b, x)) ** (-(N + 2) / 2)


def bubble_residual(b, x, alpha_override=None):
    """Residual -ΔU - U^p at x; certifies the normalization alpha_N.

    With `alpha_override`, both U and its Laplacian are evaluated with the
    perturbed constant, so a wrong normalization shows up as a nonzero
    residual.
    """
    scale = 1.0 if alpha_override is None else alpha_override / b.dims.alphaN
    u = scale * bubble_eval(b, x)
    lap = scale * bubble_laplacian(b, x)
    return -lap - u ** b.dims.p


def fd_laplacian(f, x, step):
    """Second-order central finite-difference Laplacian of f at points x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    lap = np.zeros(x.shape[0])
    f0 = f(x)
    for h in range(n):
        e = np.zeros(n)
        e[h] = step
        lap += (f(x + e) - 2.0 * f0 + f(x - e)) / step**2
    return lap


def linearized_residual(b, h, sample_grid=None, step_rel=1e-4):
    """Sup over a sample grid of |-Δpsi^h - p U^(p-1) psi^h| (FD Laplacian).

    The kernels solve the linearized equation exactly; the returned value is
    the finite-difference noise floor, which certifies the closed forms.  The
    default step 1e-4 (relative to delta) balances truncation against
    round-off near the 1e-6 target.
    """
    N = b.dims.N
    if sample_grid is None:
        # radii spanning the core and the tail, a few directions each
        radii = np.array([0.3, 0.7, 1.0, 1.5, 3.0]) * b.delta
        dirs = np.vstack([np.eye(N), -np.eye(N), np.ones((1, N)) / math.sqrt(N)])
        sample_grid = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, N) + b.xi
    x = np.asarray(sample_grid, dtype=float)
    psi = lambda pts: bubble_deriv(b, h, pts)
    lap = fd_laplacian(psi, x, step_rel * b.delta)
    u = bubble_eval(b, x)
    res = -lap - b.dims.p * u ** (b.dims.p - 1) * psi(x)
    return float(np.max(np.abs(res)))


# ----------------------------------------------------------- asymptotics


def _segments(lo, hi, anchors):
    """Sorted breakpoints lo < ... < hi including any anchors inside."""
    pts = [lo, hi]
    for a in anchors:
        if lo < a < hi:
            pts.append(a)
    return sorted(set(pts))


@dataclass(frozen=True)
class RemainderReport:
    """Pointwise comparison of the projection defect with its model.

    The defect model subtracts a boundary term alpha_N delta^((N-2)/2) H
    (H = plain-kernel regular part of the ambient ball) and a hole term
    alpha_N delta^(-(N-2)/2) (r eps / s)^(N-2); what is left over is divided
    pointwise by the bound
        delta^((N-2)/2) [ eps^(N-2)(1 + eps delta^(1-N)) / s^(N-2)
                          + delta^2 + (eps/delta)^(N-2) ].
    """

    epsilon: float
    d: float
    radius_coeff: float
    delta: float
    sup_abs: float
    sup_ratio: float
    n_grid: int


def remainder_check(proj, eta, d):
    """Evaluate the defect model on a log-spaced radial grid.

    The hole scale eps and the hole coefficient are recovered from
    delta = d sqrt(eps) and inner = coeff * eps.
    """
    dims = proj.dims
    N = dims.N
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not eta < d < 1.0 / eta:
        raise ValueError("rate d must lie in (eta, 1/eta)")
    delta = proj.delta
    eps = (delta / d) ** 2
    r_coeff = proj.inner / eps
    ball = Ball(radius=proj.outer, center=np.zeros(N), dims=dims)
    s = np.geomspace(proj.inner, proj.outer, 4000)
    probe = np.zeros((16, N))
    probe[:, 0] = np.geomspace(proj.inner, 0.99 * proj.outer, 16)
    h_vals = kernel_regular_part(ball, probe, np.zeros(N))
    # the regular part at a centered pole is constant; verify then broadcast
    if np.ptp(h_vals) > 1e-12 * abs(h_vals[0]):
        raise AssertionError("centered regular part expected constant")
    H = float(h_vals[0])
    defect = (
        proj.value(s)
        - proj.bubble_value(s)
        + dims.alphaN * delta ** ((N - 2) / 2) * H
        + dims.alphaN * delta ** (-(N - 2) / 2) * (r_coeff * eps / s) ** (N - 2)
    )
    bound = delta ** ((N - 2) / 2) * (
        eps ** (N - 2) * (1 + eps * delta ** (1 - N)) / s ** (N - 2)
        + delta**2
        + (eps / delta) ** (N - 2)
    )
    ratio = np.abs(defect) / bound
    return RemainderReport(
        epsilon=eps,
        d=d,
        radius_coeff=r_coeff,
        delta=delta,
        sup_abs=float(np.max(np.abs(defect))),
        sup_ratio=float(np.max(ratio)),
        n_grid=len(s),
    )


def remainder_trend(dims, outer_radius, radius_coeff, d, eps_grid, eta=1e-3):
    """Run remainder_check over a decreasing eps grid; return the reports
    and the slope of log(sup ratio) against log(eps).  A slope >= -0.1
    certifies the ratio does not blow up as the hole shrinks."""
    reports = []
    for eps in np.sort(np.asarray(eps_grid, float))[::-1]:
        delta = d * math.sqrt(eps)
        proj = project_bubble_radial(dims, delta, radius_coeff * eps, outer_radius)
        reports.append(remainder_check(proj, eta, d))
    x = np.log([r.epsilon for r in reports])
    y = np.log([r.sup_ratio for r in reports])
    slope = float(np.polyfit(x, y, 1)[0])
    return reports, slope


def reference_pair_product_integral(dims, delta1, delta2, q1, q2, separation,
                                    domain_radius=1.0, nu1=0.0, nu2=0.0):
    """`asymptotics.pair_product_integral` with the cylinder it replaced: the
    smoothstep axial rule as `_panel_rule` builds it (not mirrored), and
    each bubble of the remainder as `_profile(delta, s^2) ** q` on hypot
    distances.  The peak pieces are the library's before it shared the
    bubble kernel: `radial_profile(...) ** q` on unsquared distances, with
    panel breaks from `_segments`.  Scalar or 1-D scales, as there."""
    N = dims.N
    check_separation(separation, domain_radius)
    deltas1, deltas2 = np.asarray(delta1, float), np.asarray(delta2, float)
    rho = separation / 4.0
    z1, z2 = -separation / 2.0, separation / 2.0
    L = separation
    weighted = (nu1 != 0.0) or (nu2 != 0.0)
    theta, w_theta = _panel_rule([0.0, math.pi / 2, math.pi])
    w_theta = w_theta * np.sin(theta) ** (N - 2)
    cos_theta = np.cos(theta)

    def peak_piece(delta_near, q_near, delta_far, q_far, near_is_pole):
        anchors = [delta_near * 10.0**k for k in range(-2, 17)]
        r, w_r = _panel_rule(_segments(0.0, rho, anchors))
        dist2 = r[:, None] ** 2 + L * L - 2 * L * r[:, None] * cos_theta
        far = radial_profile(dims, delta_far, np.sqrt(dist2)) ** q_far
        if weighted and not near_is_pole:
            far *= dist2 ** ((nu1 - nu2) / 2)
        f = r ** (N - 1) * radial_profile(dims, delta_near, r) ** q_near
        f *= far @ w_theta
        if weighted and near_is_pole:
            f *= r ** (nu1 - nu2)
        return w_r @ f

    z_breaks = _segments(
        -domain_radius, domain_radius, [z1 - rho, z1, z1 + rho, z2 - rho, z2, z2 + rho]
    )
    z, w_z = _panel_rule(z_breaks, smooth=True)
    u_hi = np.sqrt(np.maximum(domain_radius**2 - z * z, 0.0))
    u_lo = np.zeros_like(z)
    for zc in (z1, z2):
        u_lo = np.maximum(u_lo, np.sqrt(np.maximum(rho * rho - (z - zc) ** 2, 0.0)))
    width = np.maximum(u_hi - u_lo, 0.0)[:, None]
    frac, w_frac = _panel_rule([0.0, 0.05, 0.2, 0.5, 1.0])
    u = u_lo[:, None] + width * frac
    z = z[:, None]
    s1, s2 = np.hypot(z - z1, u), np.hypot(z - z2, u)
    values = []
    for d1, d2 in zip(deltas1.ravel().tolist(), deltas2.ravel().tolist()):
        g = u ** (N - 2) * _profile(dims, d1, s1**2) ** q1 * _profile(dims, d2, s2**2) ** q2
        if weighted:
            g *= s1 ** (nu1 - nu2)
        rest = w_z @ ((g * width) @ w_frac)
        values.append(peak_piece(d1, q1, d2, q2, True) + peak_piece(d2, q2, d1, q1, False)
                      + rest)
    return _slice_area(dims) * np.reshape(values, deltas1.shape)


def reference_scaling_fit(grid, values, has_log):
    """Slope and r^2 of `asymptotics._scaling_fit` as first written: one
    `np.linalg.lstsq` on the columns 1, log delta [, log|log delta|]."""
    x = np.log(grid)
    y = np.log(values)
    cols = [np.ones_like(x), x]
    if has_log:
        cols.append(np.log(np.abs(x)))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[1]), 1.0 if ss_tot < 1e-20 else 1.0 - float(np.sum(resid**2)) / ss_tot


# ---------------------------------------------------------------- greens


def reference_check_holes(ball, centers, coeffs, epsilon):
    """`greens.check_holes` one hole and then one pair at a time."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    for k, (a, r) in enumerate(zip(centers, coeffs)):
        if not r > 0:
            raise ValueError(f"hole {k} radius coefficient must be positive")
        v = a - ball.center
        d_bdry = ball.radius - math.sqrt(v.dot(v))
        if not d_bdry > 0:
            raise ValueError(f"hole {k} touches or leaves the ambient boundary")
        if not r * epsilon < d_bdry / 2:
            raise ValueError(
                f"epsilon {epsilon:g} too large: the radius of hole {k} "
                "exceeds half its distance to the ambient boundary"
            )
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            v = centers[i] - centers[j]
            gap = math.sqrt(v.dot(v))
            if not gap > (coeffs[i] + coeffs[j]) * epsilon:
                raise ValueError(
                    f"holes {i} and {j} overlap at eps={epsilon:g}; "
                    "holes must be disjoint"
                )


# -------------------------------------------------------------- coupling


def reference_solve_c_vector(block):
    """The N=3 amplitude Newton on a multi-component block as
    `coupling.solve_c_vector` wrote it with `block @ c**3` formed twice per
    step: (c, the number of line-search halvings).  Seeded by the cube root
    of the solution s of block @ s = 1; the caller checks the residual."""
    c = np.linalg.solve(block, np.ones(block.shape[0])) ** (1.0 / 3.0)
    halvings = 0
    for _ in range(100):
        F = block @ c**3 * c - 1.0
        if np.max(np.abs(F)) < 1e-14:
            break
        J = np.diag(block @ c**3) + 3.0 * (c[:, None] * block * (c**2)[None, :])
        step = np.linalg.solve(J, -F)
        lam = 1.0
        norm0 = np.max(np.abs(F))
        while lam > 1e-8:
            trial = c + lam * step
            if np.all(trial > 0):
                Ft = block @ trial**3 * trial - 1.0
                if np.max(np.abs(Ft)) < norm0:
                    break
            lam *= 0.5
            halvings += 1
        c = c + lam * step
    return c, halvings


def det_identity_gap(spec, cvec, report):
    """|det C - prod(c_i^(p-1)) det(beta block)| / |det C| for the matrix C
    that `coupling.build_spectrum` reports on the group of `cvec`: C is the
    block scaled by (c_i c_j)^((p-1)/2), so the identity holds up to
    rounding."""
    c, p = cvec.c, spec.p
    det_c = np.linalg.det(report.matC)
    det_beta = np.linalg.det(spec.group_block(cvec.group))
    return abs(det_c - np.multiply.reduce(c ** (p - 1)) * det_beta) / max(abs(det_c), 1e-300)


# ---------------------------------------------------------------- energy


def sigma_constant(dims, l, k=None):
    """Limiting weighted norms sigma_lk of the derivative kernels.

    sigma_lk = 0 for l != k (odd symmetry);
    sigma_00 = p alpha^(p+1) ((N-2)/2)^2 int (|y|^2-1)^2 (1+|y|^2)^-(N+2) dy;
    sigma_ll = p alpha^(p+1) (N-2)^2   int y_l^2    (1+|y|^2)^-(N+2) dy.
    With (r^2-1)^2 = (1+r^2)^2 - 4r^2 both are beta functions.
    """
    N = dims.N
    if not (0 <= l <= N) or (k is not None and not (0 <= k <= N)):
        raise IndexError("kernel index out of range")
    if k is not None and k != l:
        return 0.0
    pref = dims.p * dims.alphaN ** (dims.p + 1)
    if l == 0:
        radial = _radial_moment(N, N) - 4 * _radial_moment(N + 2, N + 2)
        return pref * ((N - 2) / 2) ** 2 * dims.omegaNm1 * radial
    return pref * (N - 2) ** 2 * dims.omegaNm1 / N * _radial_moment(N + 2, N + 2)


# ---------------------------------------------------------------- solver


def _operator_bands(nodes, dims):
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
    out[0] = u[0]
    out[-1] = u[-1]
    return out


def _residual(bands, u, p):
    pot = bands[3] * np.maximum(u, 0.0) ** p
    F = _apply_bands(bands, u)
    F[1:-1] -= pot[1:-1]
    return F, float(np.max(pot))


def _residual_norm(u, F, pot_max):
    return float(np.max(np.abs(F))) / (1.0 + float(np.max(np.abs(u))) + pot_max)


def _jacobian_bands(bands, u, p):
    """The Newton Jacobian at u in `solve_banded`'s (1, 1) layout."""
    lo, di, up, weight = bands
    diag_j = di.copy()
    diag_j[1:-1] -= weight[1:-1] * (p * np.maximum(u[1:-1], 0.0) ** (p - 1))
    ab = np.zeros((3, len(u)))
    ab[0, 1:] = up[:-1]
    ab[1, :] = diag_j
    ab[2, :-1] = lo[1:]
    return ab


def reference_newton_system(grid):
    """The first Newton system of a solve from ``grid``: the Jacobian in
    `solve_banded`'s (1, 1) layout and the right-hand side -F."""
    u = grid.values.copy()
    u[0] = u[-1] = 0.0
    bands = _operator_bands(grid.nodes, grid.dims)
    F, _ = _residual(bands, u, grid.dims.p)
    return _jacobian_bands(bands, u, grid.dims.p), -F


def ansatz_seed(dims, epsilon, n_nodes=DEFAULT_NODES, radius_coeff=1.0, outer=1.0):
    """The projected-bubble seed of a solve on the graded mesh of the
    annulus radius_coeff * epsilon < s < outer, as `solver.rate_sweep`
    builds it for its first eps."""
    nodes = graded_mesh(radius_coeff * epsilon, outer, n_nodes)
    return bubble_ansatz(dims, epsilon, nodes)[0]


def reference_solve_radial(seed, epsilon, max_iter=MAX_NEWTON_ITER, steps=None):
    """`solver.solve_radial` with fresh arrays in every Newton step and the
    tridiagonal solve by `scipy.linalg.solve_banded`.  ``steps``, if given,
    gets the accepted line-search step t of every Newton step."""
    from scipy.linalg import solve_banded
    nodes, dims = seed.nodes, seed.dims
    p = dims.p
    u = seed.values.copy()
    u[0] = u[-1] = 0.0
    bands = _operator_bands(nodes, dims)

    history = []
    converged = False
    message = "newton iteration limit reached"
    F, pot_max = _residual(bands, u, p)
    for it in range(max_iter):
        res = _residual_norm(u, F, pot_max)
        history.append(res)
        if res < NEWTON_TOL:
            converged = True
            message = "converged"
            break
        du = solve_banded((1, 1), _jacobian_bands(bands, u, p), -F)
        du[0] = du[-1] = 0.0
        base = float(np.max(np.abs(F)))
        t = 1.0
        for _ in range(30):
            trial = u + t * du
            F_trial, pot_trial = _residual(bands, trial, p)
            if float(np.max(np.abs(F_trial))) <= (1 - 1e-4 * t) * base:
                break
            t *= 0.5
        else:
            message = "line search stalled"
            break
        if steps is not None:
            steps.append(t)
        u, F, pot_max = trial, F_trial, pot_trial

    grid = RadialGrid(nodes=nodes, values=u, dims=dims)
    trivial = bool(converged and np.max(u) < 1e-8 * max(1.0, float(np.max(np.abs(u)))))
    metrics = None
    if converged and not trivial:
        k = int(np.argmax(grid.values))
        delta_est = (dims.alphaN / float(grid.values[k])) ** (2.0 / (dims.N - 2))
        spec1 = CouplingSpec(N=dims.N, m=1, mu=np.array([1.0]), beta=np.array([[1.0]]),
                             decomposition=(0, 1))
        metrics = ConcentrationMetrics(
            umax=float(np.max(grid.values)),
            rpeak=float(grid.nodes[k]),
            delta_est=delta_est,
            d_est=delta_est / math.sqrt(epsilon),
            energy=reference_energy_of_solution([grid], spec1),
        )
    report = NewtonReport(
        converged=converged,
        iterations=len(history),
        residuals=tuple(history),
        trivial=trivial,
        message="trivial branch" if trivial else message,
    )
    return SolveResult(grid=grid, metrics=metrics, report=report)


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
    r_scalar, _ = _residual(bands, w.values, p)
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


def reference_energy_of_solution(grids, spec):
    """The action of one grid per component of ``spec``, coupling term
    included, through `np.gradient` and `np.trapezoid`; on one grid with
    mu = 1 it has the bits of `solver.energy_of_solution`."""
    nodes = grids[0].nodes
    dims = grids[0].dims
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


@dataclass(frozen=True)
class ExactRadial:
    """The exact radial solution: its limit amplitude d, peak u_max,
    first-integral energy E and action J."""

    d: float
    u_max: float
    E: float
    J: float


def exact_radial(N, r, R, mu, eps, tol=1e-13):
    """The solution of -u'' - (N-1)/s u' = mu u^p on (r eps, R), zero at both
    ends, with no mesh.

    With a = (N-2)/2, v = s^a u and t = ln s it is v'' = a^2 v - mu v^p,
    whose first integral 1/2 v'^2 - 1/2 a^2 v^2 + mu v^(p+1)/(p+1) = E
    holds with E = 1/2 v'(ends)^2 > 0.  The solution is one arc of that
    orbit, v' = +-sqrt(Q(v)), Q = 2E + a^2 v^2 - 2 mu v^(p+1)/(p+1), up to
    v_top with Q(v_top) = 0, so E solves T(E) = 2 int_0^v_top dv/sqrt(Q) =
    ln(R/(r eps)) (brentq over ln E).  u = e^(-a t) v peaks where v' = a v,
    at v* = ((p+1)E/mu)^(1/(p+1)) and t* = ln(r eps) + int_0^v* dv/sqrt(Q),
    and d = (alpha_N / (mu^(1/(p-1)) u_max))^(2/(N-2)) / sqrt(eps) is the
    d_est of a solve without its mesh error.  The action J = int 1/2 |grad
    u|^2 - mu u^(p+1)/(p+1) is (mu/N) int u^(p+1) at a solution (Nehari),
    and s^(N-1) u^(p+1) ds = v^(p+1) dt, so J = (omega_{N-1} mu/N) 2
    int_0^v_top v^(p+1)/sqrt(Q) dv.  Each integral is `quad` at
    relative tolerance ``tol``, with v = (sqrt(2E)/a) sinh(sigma) below
    v_top/2, where Q varies on the scale sqrt(2E)/a, and v = v_top cos(phi)
    above it, where 1/sqrt(Q) has its square-root end.  Any warning, an
    `IntegrationWarning` among them, is an error.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    dims = dims_for(N)
    a, p = (N - 2) / 2, dims.p
    length = math.log(R / (r * eps))

    def integral(f, lo, hi):
        return quad(f, lo, hi, epsabs=0.0, epsrel=tol, limit=200)[0]

    def v_top(E):   # the root of Q beyond v_c, where a^2 v^2 = 2 mu v^(p+1)/(p+1)
        def minus_q(v):
            return v * v * (2 * mu * v ** (p - 1) / (p + 1) - a * a) - 2 * E
        v_c = ((p + 1) * a * a / (2 * mu)) ** (1 / (p - 1))
        hi = 2 * v_c
        while minus_q(hi) <= 0:
            hi *= 2
        return brentq(minus_q, v_c, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)

    def arc(E, top, v, k=0):   # int_0^v v'^k dv'/sqrt(Q) for v <= top
        scale = math.sqrt(2 * E) / a
        c1, c2 = 2 * mu * top ** (p + 1) / (p + 1), (a * top) ** 2   # 2E = c1 - c2

        def low(sigma):   # Q = 2E cosh^2 - 2 mu v^(p+1)/(p+1)
            w = scale * math.sinh(sigma)
            g = mu * w ** (p + 1) / ((p + 1) * E * math.cosh(sigma) ** 2)
            return w ** k / (a * math.sqrt(1 - g))

        def high(phi):    # Q = c1 (1 - cos^(p+1)) - c2 sin^2, free of cancellation at phi = 0
            q = -c1 * math.expm1((p + 1) * math.log1p(-2 * math.sin(phi / 2) ** 2))
            x = top * math.cos(phi)
            return x ** k * top * math.sin(phi) / math.sqrt(q - c2 * math.sin(phi) ** 2)

        total = integral(low, 0.0, math.asinh(min(v, top / 2) / scale))
        if v > top / 2:
            total += integral(high, math.acos(min(v / top, 1.0)), math.pi / 3)
        return total

    def excess(log_e):
        E = math.exp(log_e)
        top = v_top(E)
        return 2 * arc(E, top, top) - length

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = -1.0, 1.0
        while excess(lo) <= 0:   # T falls as E grows
            lo -= 4.0
        while excess(hi) >= 0:
            hi += 4.0
        E = math.exp(brentq(excess, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps))
        top = v_top(E)
        v_star = ((p + 1) * E / mu) ** (1 / (p + 1))
        u_max = (r * eps) ** -a * math.exp(-a * arc(E, top, v_star)) * v_star
        J = dims.omegaNm1 * mu / N * 2 * arc(E, top, top, p + 1)
    d = (dims.alphaN / (mu ** (1 / (p - 1)) * u_max)) ** (2 / (N - 2)) / math.sqrt(eps)
    return ExactRadial(d=d, u_max=u_max, E=E, J=J)
