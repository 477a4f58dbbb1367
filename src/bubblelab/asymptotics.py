"""Scaling behavior of bubble integrals and of the annular projection.

Two groups of tools:

* `project_bubble_radial` builds the exact projection of a centered bubble
  onto an annulus: the correction h(s) = A + B s^(2-N) is harmonic, so the
  two Dirichlet conditions PU(inner) = PU(outer) = 0 determine (A, B) by a
  2x2 linear solve and PU = U + h solves the same PDE as U.  The radial
  solver starts from it.

* `scaling_law_single` / `scaling_law_weighted` / `scaling_law_pair`
  integrate powers of one or two bubbles (optionally with power weights
  centered at the peak) over a shrinking geometric grid of concentration
  scales and fit log-log slopes against predicted exponents.  Critical
  parameter combinations carry a |log delta| factor, which the fit absorbs
  with an extra log|log delta| regressor.

All integrals are composite Gauss-Legendre rules with a fixed number of
nodes per panel (`NODES_PER_PANEL`, 24), evaluated as numpy arrays.  The
panels resolve the peaks of width delta:

* radial panels run from one decade delta 10^k to the next;
* a two-bubble integral splits into a ball of radius separation/4 around
  each peak (radial panels times a polar-angle rule split at pi/2) and the
  cylinder remainder.  Its axial panels end at the ball edges and centers
  and are mapped by the smoothstep z = a + (b-a) t^2 (3-2t), which absorbs
  the square-root ends of the ball and domain cross-sections; each
  cross-section is split at 0.05, 0.2 and 0.5 of its width.

Against nested adaptive quadrature the rules agree to about 1e-12 relative
(tests/test_asymptotics.py keeps that quadrature as an oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bubbles import BubbleParams

NODES_PER_PANEL = 24


def radial_profile(dims, delta, s):
    """Bubble profile as a function of the distance s to its center."""
    k = (dims.N - 2) / 2
    return dims.alphaN * (delta / (delta**2 + np.asarray(s, float) ** 2)) ** k


def _segments(lo, hi, anchors):
    """Sorted breakpoints lo < ... < hi including any anchors inside."""
    pts = [lo, hi]
    for a in anchors:
        if lo < a < hi:
            pts.append(a)
    return sorted(set(pts))


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1] (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rule(breaks, smooth=False):
    """Composite rule on the panels between consecutive breaks; returns the
    flattened nodes and weights.  With smooth=True each panel is mapped
    through x = a + h t^2 (3 - 2t), whose vanishing derivative at both ends
    absorbs square-root endpoint behaviour of the integrand."""
    t, w = _gauss_legendre(NODES_PER_PANEL)
    breaks = np.asarray(breaks, float)
    a, h = breaks[:-1, None], np.diff(breaks)[:, None]
    if smooth:
        t, w = t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t) * w
    return (a + h * t).ravel(), (h * w).ravel()


# ---------------------------------------------------------------------------
# exact radial projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Annulus:
    """Radial domain inner < s < outer centered at the origin."""

    inner: float
    outer: float

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ValueError("annulus requires 0 < inner < outer")


@dataclass(frozen=True)
class RadialProjection:
    """Centered bubble plus the harmonic correction A + B s^(2-N) chosen so
    that the sum vanishes on both boundary spheres."""

    bubble: BubbleParams
    annulus: Annulus
    const_coeff: float   # A
    power_coeff: float   # B

    def correction(self, s):
        N = self.bubble.dims.N
        return self.const_coeff + self.power_coeff * np.asarray(s, float) ** (2 - N)

    def bubble_value(self, s):
        return radial_profile(self.bubble.dims, self.bubble.delta, s)

    def value(self, s):
        """PU(s) = U(s) + A + B s^(2-N)."""
        return self.bubble_value(s) + self.correction(s)


def project_bubble_radial(annulus, bubble):
    """Solve the 2x2 boundary system for the harmonic correction.

    With u0 = U(inner), u1 = U(outer) and the harmonic pair (1, s^(2-N)):
        A + B inner^(2-N) = -u0,   A + B outer^(2-N) = -u1.
    """
    if not isinstance(annulus, Annulus):
        raise TypeError("first argument must be an Annulus")
    if float(np.linalg.norm(bubble.xi)) > 1e-14:
        raise ValueError("radial projection requires the bubble at the annulus center")
    N = bubble.dims.N
    u0 = float(radial_profile(bubble.dims, bubble.delta, annulus.inner))
    u1 = float(radial_profile(bubble.dims, bubble.delta, annulus.outer))
    p_in = annulus.inner ** (2 - N)
    p_out = annulus.outer ** (2 - N)
    B = (u1 - u0) / (p_in - p_out)
    A = -u1 - B * p_out
    return RadialProjection(bubble=bubble, annulus=annulus, const_coeff=A, power_coeff=B)


# ---------------------------------------------------------------------------
# scaling-law fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope fit of an integral family against its predicted
    exponent.  For pair integrals the three-term dominating bound and the
    pointwise value/bound ratios are attached."""

    delta_grid: np.ndarray
    values: np.ndarray
    exponent_measured: float
    exponent_predicted: float
    r2: float
    has_log: bool
    bound_values: np.ndarray = None
    ratios: np.ndarray = None

    def __post_init__(self):
        g = np.asarray(self.delta_grid, float)
        if not (np.all(np.diff(g) < 0) and np.all(g[1:] / g[:-1] <= 0.5 + 1e-9)):
            raise ValueError("delta grid must decrease with ratio <= 1/2")
        object.__setattr__(self, "delta_grid", g)
        object.__setattr__(self, "values", np.asarray(self.values, float))


def default_delta_grid(n=12, start=1e-1, ratio=0.5):
    return start * ratio ** np.arange(n)


def _scaling_fit(grid, values, predicted, has_log, bound_values=None):
    """Least squares for log v = c + gamma log(delta) [+ b log|log delta|]
    as a ScalingFit; a flat family (zero variance) counts as perfectly
    fitted.  A pair family also carries its bound and value/bound ratios."""
    x = np.log(grid)
    y = np.log(values)
    cols = [np.ones_like(x), x]
    if has_log:
        cols.append(np.log(np.abs(x)))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return ScalingFit(
        delta_grid=grid,
        values=values,
        exponent_measured=float(coef[1]),
        exponent_predicted=predicted,
        r2=1.0 if ss_tot < 1e-20 else 1.0 - float(np.sum(resid**2)) / ss_tot,
        has_log=has_log,
        bound_values=bound_values,
        ratios=None if bound_values is None else values / bound_values,
    )


def single_exponent(dims, q):
    """Predicted growth exponent of the single-bubble integral of U^q and
    whether it carries a |log delta| factor."""
    if not q > 0:
        raise ValueError("q must be positive")
    N = dims.N
    q_low = N / (N - 2)
    q_top = 2 * N / (N - 2)
    tol = 1e-12
    if abs(q - q_low) < tol:
        return N / 2, True
    if abs(q - q_top) < tol:
        return 0.0, False
    if q < q_low:
        return (N - 2) * q / 2, False
    return N - (N - 2) * q / 2, False


def weighted_exponent(dims, q, nu1, nu2):
    """Predicted exponent for the weighted integral of
    U^q |x_h - xi_h|^(nu1) / |x - a|^(nu2) with a = xi (centered weight).

    Returns (exponent, has_log, excise_hole); the hole of radius
    coeff*delta^2 is removed only when the weight is singular enough to
    need it.  Raises outside the admissible parameter region.
    """
    N = dims.N
    if nu1 < 0 or nu2 < 0:
        raise ValueError("weight powers must be nonnegative")
    tol = 1e-12
    if abs(nu2 - N) < tol:
        if nu1 > tol:
            raise ValueError("the nu2 = N case requires nu1 = 0")
        return -(N - 2) * q / 2, True, True
    if nu2 > N:
        raise ValueError("nu2 must not exceed the dimension")
    if nu2 < tol and abs((N - 2) * q - (N + nu1)) < tol:
        # boundary combination: logarithmic correction, no hole needed
        return (N - 2) * q / 2, True, False
    if (N - 2) * q + nu2 - nu1 <= N:
        raise ValueError("requires (N-2)q + nu2 - nu1 > N")
    return N + nu1 - nu2 - (N - 2) * q / 2, False, nu2 > tol


def spherical_coordinate_moment(dims, nu):
    """Mean of |omega_h|^nu over the unit sphere:
    Gamma((nu+1)/2) Gamma(N/2) / (sqrt(pi) Gamma((N+nu)/2))."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    N = dims.N
    return (
        math.gamma((nu + 1) / 2)
        * math.gamma(N / 2)
        / (math.sqrt(math.pi) * math.gamma((N + nu) / 2))
    )


def bubble_power_integral(dims, delta, q, outer, nu1=0.0, nu2=0.0, lower=0.0):
    """omega_{N-1} E[|omega_h|^nu1] * int s^(N-1+nu1-nu2) U(s)^q ds over
    [lower, outer], computed in the peak variable t = s/delta."""
    N = dims.N
    expo = N + nu1 - nu2 - (N - 2) * q / 2
    t_lo = lower / delta
    t_hi = outer / delta
    power = N - 1 + nu1 - nu2
    anchors = [10.0**k for k in range(-16, 17)]   # one panel per decade
    t, w = _panel_rule(_segments(t_lo, t_hi, anchors))
    val = w @ (t**power * (1.0 + t * t) ** (-(N - 2) * q / 2))
    return (
        dims.omegaNm1
        * spherical_coordinate_moment(dims, nu1)
        * dims.alphaN**q
        * delta**expo
        * val
    )


def scaling_law_single(q, dims, delta_grid=None, domain_radius=1.0):
    """Fit the integral of U^q over a centered ball versus the predicted
    single-bubble exponent."""
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, float)
    predicted, has_log = single_exponent(dims, q)
    values = np.array(
        [bubble_power_integral(dims, d, q, outer=domain_radius) for d in grid]
    )
    return _scaling_fit(grid, values, predicted, has_log)


def scaling_law_weighted(q, nu1, nu2, dims, delta_grid=None, domain_radius=1.0):
    """Fit the centered weighted integral (weight |x_h|^nu1 / |x|^nu2,
    hole of radius delta^2 removed when needed) versus the predicted
    exponent."""
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, float)
    predicted, has_log, excise = weighted_exponent(dims, q, nu1, nu2)
    values = np.array(
        [
            bubble_power_integral(
                dims, d, q, outer=domain_radius, nu1=nu1, nu2=nu2,
                lower=(d * d if excise else 0.0),
            )
            for d in grid
        ]
    )
    return _scaling_fit(grid, values, predicted, has_log)


# ---------------------------------------------------------------------------
# two-bubble product integrals
# ---------------------------------------------------------------------------


def check_separation(separation, domain_radius):
    """Raise unless 0 < separation < 4/3 domain_radius, which keeps the balls
    of radius separation/4 around both centers inside the domain."""
    if not 0 < separation < 4.0 / 3.0 * domain_radius:
        raise ValueError("separation must lie in (0, 4/3) times the domain radius")


def pair_exponent(dims, q1, q2, nu1=0.0, nu2=0.0):
    """Dominating exponent of the three-term pair bound (`_pair_bound`)
    and whether it carries a |log delta| factor.  Raises for negative
    powers and outside the weighted region of `weighted_exponent`."""
    if q1 < 0 or q2 < 0:
        raise ValueError("q1 and q2 must be nonnegative")
    N = dims.N
    g2, log2 = single_exponent(dims, q2) if q2 > 0 else (0.0, False)
    if nu1 == 0.0 and nu2 == 0.0:
        g1, log1 = single_exponent(dims, q1) if q1 > 0 else (0.0, False)
    else:
        g1, log1, _ = weighted_exponent(dims, q1, nu1, nu2)
    terms = [
        ((N - 2) * (q1 + q2) / 2, False),
        ((N - 2) * q1 / 2 + g2, log2),
        ((N - 2) * q2 / 2 + g1, log1),
    ]
    e_min = min(e for e, _ in terms)
    return e_min, any(log for e, log in terms if e < e_min + 1e-12)


def _slice_area(dims):
    """Surface area of the (N-2)-sphere slicing out the polar angle."""
    N = dims.N
    return 2 * math.pi ** ((N - 1) / 2) / math.gamma((N - 1) / 2)


def pair_product_integral(dims, delta1, delta2, q1, q2, separation,
                          domain_radius=1.0, nu1=0.0, nu2=0.0):
    """Integral of U1^q1 U2^q2 (optionally weighted by
    |x - xi1|^(nu1 - nu2), weight pole at the first center) over the ball
    of radius domain_radius, centers at -/+ separation/2 on the first axis.

    delta1 and delta2 are scalars (a scalar is returned) or equal-length
    1-D arrays (one value per pair of scales).  The domain splits into a
    ball of radius separation/4 around each center (spherical quadrature
    there, the off-peak factor entering through a smooth polar integral)
    plus the remainder in cylinder coordinates with the two ball
    cross-sections excluded.  Only the peak-piece radial rules and the
    profile powers depend on the scales; the cylinder nodes, distances and
    weights are built once per call.
    """
    N = dims.N
    check_separation(separation, domain_radius)
    deltas1, deltas2 = np.asarray(delta1, float), np.asarray(delta2, float)
    if deltas1.ndim > 1 or deltas1.shape != deltas2.shape:
        raise ValueError("delta1 and delta2 must be scalars or 1-D arrays of equal length")
    rho = separation / 4.0
    z1, z2 = -separation / 2.0, separation / 2.0
    L = separation
    weighted = (nu1 != 0.0) or (nu2 != 0.0)
    theta, w_theta = _panel_rule([0.0, math.pi / 2, math.pi])
    w_theta = w_theta * np.sin(theta) ** (N - 2)
    cos_theta = np.cos(theta)

    def peak_piece(delta_near, q_near, delta_far, q_far, near_is_pole):
        anchors = [delta_near * 10.0**k for k in range(-2, 17)]   # up to rho
        r, w_r = _panel_rule(_segments(0.0, rho, anchors))
        # far factor (and the weight when the far center is the pole) over
        # the directions around the near center
        dist2 = r[:, None] ** 2 + L * L - 2 * L * r[:, None] * cos_theta
        far = radial_profile(dims, delta_far, np.sqrt(dist2)) ** q_far
        if weighted and not near_is_pole:
            far *= dist2 ** ((nu1 - nu2) / 2)
        f = r ** (N - 1) * radial_profile(dims, delta_near, r) ** q_near
        f *= far @ w_theta
        if weighted and near_is_pole:
            f *= r ** (nu1 - nu2)
        return w_r @ f

    # cylinder remainder: axial coordinate z, distance u to the axis
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
    u_power = u ** (N - 2)
    weight = s1 ** (nu1 - nu2) if weighted else None

    values = []
    for d1, d2 in zip(deltas1.ravel().tolist(), deltas2.ravel().tolist()):
        piece1 = peak_piece(d1, q1, d2, q2, near_is_pole=True)
        piece2 = peak_piece(d2, q2, d1, q1, near_is_pole=False)
        g = u_power * radial_profile(dims, d1, s1) ** q1 * radial_profile(dims, d2, s2) ** q2
        if weighted:
            g *= weight
        rest = w_z @ ((g * width) @ w_frac)
        values.append(piece1 + piece2 + rest)
    return _slice_area(dims) * np.reshape(values, deltas1.shape)


def _pair_bound(dims, delta, q1, q2, domain_radius, nu1, nu2):
    """Three-term dominating bound: product of peak heights, plus each
    peak height times the other bubble's single integral (the weighted
    one when a weight is present)."""
    N = dims.N
    h1 = delta ** ((N - 2) * q1 / 2)
    h2 = delta ** ((N - 2) * q2 / 2)
    cover = 2.0 * domain_radius
    i2 = bubble_power_integral(dims, delta, q2, outer=cover)
    i1 = bubble_power_integral(dims, delta, q1, outer=cover, nu1=nu1, nu2=nu2,
                               lower=(delta * delta if nu2 > 0 else 0.0))
    return h1 * h2 + h1 * i2 + h2 * i1


def scaling_law_pair(q1, q2, dims, delta_grid=None, separation=0.5,
                     domain_radius=1.0, nu1=0.0, nu2=0.0):
    """Dominance fit for the two-bubble product integral.

    The shared-scale family (delta1 = delta2 = delta over the grid) is
    compared pointwise with the three-term bound; the fitted slope is
    reported against the bound's dominating exponent.
    """
    predicted, has_log = pair_exponent(dims, q1, q2, nu1, nu2)
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, float)
    values = pair_product_integral(
        dims, grid, grid, q1, q2, separation, domain_radius, nu1, nu2
    )
    bounds = np.array(
        [_pair_bound(dims, d, q1, q2, domain_radius, nu1, nu2) for d in grid]
    )
    return _scaling_fit(grid, values, predicted, has_log, bounds)
