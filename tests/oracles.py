"""Test oracles: closed forms and finite-difference checks that no CLI task
runs, kept beside the tests that use them.

* `kernel_regular_part`: the ball's regular part of the plain kernel
  |x-y|^(2-N), of which `greens.kernel_robin` is the diagonal.
* `bubble_deriv`, `bubble_laplacian`, `bubble_residual`,
  `linearized_residual`: the derivative kernels of the bubble, its analytic
  Laplacian, and the residuals that certify alpha_N and the kernels.
* `remainder_check`, `remainder_trend`: the projection defect of
  `asymptotics.project_bubble_radial` against its three-piece model bound.
* `sigma_constant`: the limiting weighted norms of the derivative kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from bubblelab.asymptotics import Annulus, project_bubble_radial
from bubblelab.bubbles import BubbleParams, bubble_eval
from bubblelab.energy import _radial_moment
from bubblelab.greens import Ball


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
    dims = proj.bubble.dims
    N = dims.N
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not eta < d < 1.0 / eta:
        raise ValueError("rate d must lie in (eta, 1/eta)")
    delta = proj.bubble.delta
    eps = (delta / d) ** 2
    r_coeff = proj.annulus.inner / eps
    ball = Ball(radius=proj.annulus.outer, center=np.zeros(N), dims=dims)
    s = np.geomspace(proj.annulus.inner, proj.annulus.outer, 4000)
    probe = np.zeros((16, N))
    probe[:, 0] = np.geomspace(proj.annulus.inner, 0.99 * proj.annulus.outer, 16)
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
        ann = Annulus(inner=radius_coeff * eps, outer=outer_radius)
        bub = BubbleParams(delta=delta, xi=np.zeros(dims.N), dims=dims)
        reports.append(remainder_check(project_bubble_radial(ann, bub), eta, d))
    x = np.log([r.epsilon for r in reports])
    y = np.log([r.sup_ratio for r in reports])
    slope = float(np.polyfit(x, y, 1)[0])
    return reports, slope


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
