"""Scaling behavior of bubble integrals and of the annular projection.

Two groups of tools:

* `project_bubble_radial(dims, delta, inner, outer)` projects the centred
  bubble of scale delta onto the annulus inner < s < outer exactly: the
  correction h(s) = A + B s^(2-N) is harmonic, so PU(inner) = PU(outer) = 0
  determine (A, B) by a 2x2 linear solve and PU = U + h solves the same PDE
  as U.  The radial solver's ansatz starts from it.

* `scaling_law_single` / `scaling_law_weighted` / `scaling_law_pair`
  integrate powers of one or two bubbles (optionally with power weights
  centered at the peak) over a shrinking geometric grid of concentration
  scales and fit log-log slopes against predicted exponents.  Critical
  parameter combinations carry a |log delta| factor, which the fit absorbs
  with an extra log|log delta| regressor.  Each fit is closed-form least
  squares on at least as many scales as it has parameters.

All integrals are composite Gauss-Legendre rules with a fixed number of
nodes per panel (`NODES_PER_PANEL`, 24), evaluated as numpy arrays.  The
panels resolve the peaks of width delta:

* radial panels run from one decade delta 10^k to the next (`_DECADES`);
* a two-bubble integral splits into a ball of radius separation/4 around
  each peak (radial panels times a polar-angle rule split at pi/2) and the
  cylinder remainder.  Its axial panels end at the ball edges and centers
  and are mapped by the smoothstep z = a + (b-a) t^2 (3-2t), which absorbs
  the square-root ends of the ball and domain cross-sections; each
  cross-section is split at 0.05, 0.2 and 0.5 of its width.

Against nested adaptive quadrature the rules agree to about 1e-12 relative
(tests/test_asymptotics.py keeps that quadrature as an oracle).

Each bubble power is one `bubbles._bubble_power` on squared distances, with
alpha_N^q taken out of the sum.  Each family is one call over its delta grid
(a pair's bound two, one when the pair is symmetric and unweighted), which
builds its decade panels or cylinder geometry once.  The axial rule is
mirrored about z = 0, so a symmetric unweighted pair reuses its first peak
piece and its first cylinder factor, reversed in z, as the mirror ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bubbles import _bubble_power, _profile

NODES_PER_PANEL = 24
_DECADES = np.array([10.0**k for k in range(-16, 17)])   # panel ends in t = s/delta


def radial_profile(dims, delta, s):
    """Bubble profile as a function of the distance s to its center."""
    return _profile(dims, delta, np.asarray(s, float) ** 2)


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
    a, h = breaks[:-1, None], (breaks[1:] - breaks[:-1])[:, None]
    if smooth:
        t, w = t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t) * w
    return (a + h * t).ravel(), (h * w).ravel()


# ---------------------------------------------------------------------------
# exact radial projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProjection:
    """Centred bubble of scale delta plus the harmonic correction
    A + B s^(2-N) chosen so that the sum vanishes at s = inner and outer."""

    dims: object
    delta: float
    inner: float
    outer: float
    const_coeff: float   # A
    power_coeff: float   # B

    def correction(self, s):
        return self.const_coeff + self.power_coeff * np.asarray(s, float) ** (2 - self.dims.N)

    def bubble_value(self, s):
        return radial_profile(self.dims, self.delta, s)

    def value(self, s):
        """PU(s) = U(s) + A + B s^(2-N)."""
        return self.bubble_value(s) + self.correction(s)


def project_bubble_radial(dims, delta, inner, outer):
    """Project the centred bubble of scale delta onto inner < s < outer by
    the 2x2 boundary system of the harmonic correction.

    With u0 = U(inner), u1 = U(outer) and the harmonic pair (1, s^(2-N)):
        A + B inner^(2-N) = -u0,   A + B outer^(2-N) = -u1.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0 < inner < outer:
        raise ValueError("annulus requires 0 < inner < outer")
    N = dims.N
    u0 = float(radial_profile(dims, delta, inner))
    u1 = float(radial_profile(dims, delta, outer))
    p_in = inner ** (2 - N)
    p_out = outer ** (2 - N)
    B = (u1 - u0) / (p_in - p_out)
    A = -u1 - B * p_out
    return RadialProjection(dims, delta, inner, outer, const_coeff=A, power_coeff=B)


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
        if not np.logical_and.reduce((g[1:] < g[:-1]) & (g[1:] / g[:-1] <= 0.5 + 1e-9), None):
            raise ValueError("delta grid must decrease with ratio <= 1/2")
        object.__setattr__(self, "delta_grid", g)
        object.__setattr__(self, "values", np.asarray(self.values, float))


def default_delta_grid(n=12):
    return 1e-1 * 0.5 ** np.arange(n)


def _loglog_line(logs):
    """Least squares for log v = c + gamma log(delta), the rows of ``logs``,
    in closed form: the centred rows x and y, x.x and the slope gamma."""
    x, y = logs - np.add.reduce(logs, 1)[:, None] / logs.shape[1]   # centred
    xx = x @ x
    return x, y, xx, (x @ y) / xx


def _scaling_fit(grid, values, predicted, has_log, bound_values=None):
    """Least squares for log v = c + gamma log(delta) [+ b log|log delta|]
    as a ScalingFit, by `_loglog_line` and one orthogonalized column, on at
    least as many scales; a flat family (zero variance) counts as perfectly
    fitted.  A pair family also carries its bound and value/bound ratios."""
    if len(grid) < 2 + has_log:
        raise ValueError(f"a fit of {2 + has_log} parameters needs as many scales")
    logs = np.log([grid, values])
    x, y, xx, slope = _loglog_line(logs)
    resid = y - slope * x
    if has_log:   # the centred log|log delta| column, made orthogonal to x
        z = np.log(np.abs(logs[0]))
        along = (x @ z) / xx
        z = z - np.add.reduce(z) / z.size - along * x
        b = (z @ resid) / (z @ z)
        slope, resid = slope - b * along, resid - b * z
    ss_tot = float(y @ y)
    return ScalingFit(
        delta_grid=grid,
        values=values,
        exponent_measured=float(slope),
        exponent_predicted=predicted,
        r2=1.0 if ss_tot < 1e-20 else 1.0 - float(resid @ resid) / ss_tot,
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
    [lower, outer], computed in the peak variable t = s/delta.

    delta is a positive scalar (a scalar is returned) or a 1-D array that
    lower broadcasts to.  Each whole decade [10^k, 10^(k+1)] in t is integrated
    once per call; a scale adds, in order, [t_lo, first decade], its
    decades and [last decade, t_hi], whatever the other scales are.
    """
    N = dims.N
    deltas = np.asarray(delta, float)
    if deltas.ndim > 1:
        raise ValueError("delta must be a scalar or a 1-D array")
    if not np.logical_and.reduce(deltas > 0, None):
        raise ValueError("delta must be positive")
    lowers = np.empty(deltas.shape)
    lowers[...] = lower   # a ValueError unless lower broadcasts to delta
    if not np.logical_and.reduce((0.0 <= lowers) & (lowers < outer), None):
        raise ValueError("requires 0 <= lower < outer at every scale")
    expo = N + nu1 - nu2 - (N - 2) * q / 2
    power = N - 1 + nu1 - nu2
    x, w = _gauss_legendre(NODES_PER_PANEL)

    def panels(a, h):   # the rule on each panel [a, a + h]
        t = a[..., None] + h[..., None] * x
        f = t**power * _bubble_power(1.0, t * t, (N - 2) * q / 2)
        return np.add.reduce(h[..., None] * w * f, -1)

    t_lo, t_hi = (lowers / deltas).reshape(-1), (outer / deltas).reshape(-1)
    first = _DECADES.searchsorted(t_lo, side="right")   # first decade > t_lo
    last = _DECADES.searchsorted(t_hi, side="left") - 1  # last decade < t_hi
    k = np.arange(np.minimum.reduce(first), np.maximum.reduce(last))
    mid_lo = np.minimum(_DECADES.take(first, mode="clip"), t_hi)
    mid_hi = np.maximum(_DECADES.take(last, mode="clip"), mid_lo)
    # a row per scale, accumulated in order: its left end, the decades (the
    # zeros outside its own add nothing) and its right end
    sums = np.empty((t_lo.size, k.size + 2))
    sums[:, 0], sums[:, -1] = panels(t_lo, mid_lo - t_lo), panels(mid_hi, t_hi - mid_hi)
    sums[:, 1:-1] = panels(_DECADES[k], _DECADES[k + 1] - _DECADES[k])
    sums[:, 1:-1][(k < first[:, None]) | (last[:, None] <= k)] = 0.0
    val = np.add.accumulate(sums, 1)[:, -1]
    return (
        dims.omegaNm1
        * spherical_coordinate_moment(dims, nu1)
        * dims.alphaN**q
        * deltas**expo
        * val.reshape(deltas.shape)
    )


def scaling_law_single(q, dims, delta_grid=None, domain_radius=1.0):
    """Fit the integral of U^q over a centered ball versus the predicted
    single-bubble exponent."""
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, float)
    predicted, has_log = single_exponent(dims, q)
    values = bubble_power_integral(dims, grid, q, outer=domain_radius)
    return _scaling_fit(grid, values, predicted, has_log)


def scaling_law_weighted(q, nu1, nu2, dims, delta_grid=None, domain_radius=1.0):
    """Fit the centered weighted integral (weight |x_h|^nu1 / |x|^nu2,
    hole of radius delta^2 removed when needed) versus the predicted
    exponent."""
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, float)
    predicted, has_log, excise = weighted_exponent(dims, q, nu1, nu2)
    values = bubble_power_integral(dims, grid, q, outer=domain_radius, nu1=nu1,
                                   nu2=nu2, lower=(grid * grid if excise else 0.0))
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


def _axial_rule(separation, radius):
    """The cylinder's smoothstep rule in z, panels ending at the ball edges
    and centers.  It is mirror-symmetric by construction: the nodes on z > 0
    are the negated, reversed nodes on z < 0, and the weights are reversed."""
    h, q = separation / 2.0, separation / 4.0
    z, w = _panel_rule([-radius, -h - q, -h, q - h, h - q, h, h + q, radius], smooth=True)
    z, w = z[:z.size // 2], w[:w.size // 2]   # the middle panel straddles z = 0
    return np.r_[z, -z[::-1]], np.r_[w, w[::-1]]


def pair_product_integral(dims, delta1, delta2, q1, q2, separation,
                          domain_radius=1.0, nu1=0.0, nu2=0.0):
    """Integral of U1^q1 U2^q2 (optionally weighted by
    |x - xi1|^(nu1 - nu2), weight pole at the first center) over the ball
    of radius domain_radius, centers at -/+ separation/2 on the first axis.

    delta1 and delta2 are positive scalars (a scalar is returned) or
    equal-length 1-D arrays (one value per pair of scales).  The domain
    splits into a ball of radius separation/4 around each center (spherical
    quadrature there, the off-peak factor entering through a smooth polar
    integral) plus the remainder in cylinder coordinates on the mirrored
    `_axial_rule`.  Each bubble is one `_bubble_power` on squared distances,
    alpha_N^(q1+q2) multiplies the sum once, and the rest of the cylinder
    integrand and its weights are one array built once per call.  An
    unweighted pair with q1 == q2 at equal scales reuses its first peak
    piece and its first factor reversed in z (the same bits).
    """
    N = dims.N
    check_separation(separation, domain_radius)
    deltas1, deltas2 = np.asarray(delta1, float), np.asarray(delta2, float)
    if deltas1.ndim > 1 or deltas1.shape != deltas2.shape:
        raise ValueError("delta1 and delta2 must be scalars or 1-D arrays of equal length")
    if not np.logical_and.reduce((deltas1 > 0) & (deltas2 > 0), None):
        raise ValueError("delta1 and delta2 must be positive")
    rho, zc = separation / 4.0, separation / 2.0
    L = separation
    weighted = (nu1 != 0.0) or (nu2 != 0.0)
    symmetric = q1 == q2 and not weighted   # then the mirror terms are the same sums
    theta, w_theta = _panel_rule([0.0, math.pi / 2, math.pi])
    w_theta = w_theta * np.sin(theta) ** (N - 2)
    cos_theta = np.cos(theta)

    def peak_piece(delta_near, q_near, delta_far, q_far, near_is_pole):
        anchors = delta_near * _DECADES[14:]   # delta 10^k for k >= -2
        n = anchors.searchsorted(rho)   # those below rho
        breaks = np.empty(n + 2)
        breaks[0], breaks[1:-1], breaks[-1] = 0.0, anchors[:n], rho
        r, w_r = _panel_rule(breaks)
        # far factor (and the weight when the far center is the pole) over
        # the directions around the near center
        dist2 = r[:, None] ** 2 + L * L - 2 * L * r[:, None] * cos_theta
        far = _bubble_power(delta_far, dist2, (N - 2) * q_far / 2)
        if weighted and not near_is_pole:
            far *= dist2 ** ((nu1 - nu2) / 2)
        f = r ** (N - 1) * _bubble_power(delta_near, r * r, (N - 2) * q_near / 2)
        f *= far @ w_theta
        if weighted and near_is_pole:
            f *= r ** (nu1 - nu2)
        return w_r @ f

    # cylinder remainder: axial coordinate z, distance u to the axis; the
    # nearer ball is the one on the side of z, at |z - zc| or |z + zc|
    z, w_z = _axial_rule(separation, domain_radius)
    u_hi = np.sqrt(np.maximum(domain_radius**2 - z * z, 0.0))
    u_lo = np.sqrt(np.maximum(rho * rho - (np.abs(z) - zc) ** 2, 0.0))
    width = np.maximum(u_hi - u_lo, 0.0)[:, None]
    frac, w_frac = _panel_rule([0.0, 0.05, 0.2, 0.5, 1.0])
    u = u_lo[:, None] + width * frac
    z = z[:, None]
    sq1, sq2 = (z + zc) ** 2 + u * u, (z - zc) ** 2 + u * u
    base = u ** (N - 2) * width * w_z[:, None] * w_frac
    if weighted:
        base *= sq1 ** ((nu1 - nu2) / 2)

    values = []
    for d1, d2 in zip(deltas1.ravel().tolist(), deltas2.ravel().tolist()):
        mirror = symmetric and d1 == d2
        piece1 = peak_piece(d1, q1, d2, q2, near_is_pole=True)
        piece2 = piece1 if mirror else peak_piece(d2, q2, d1, q1, False)
        f1 = _bubble_power(d1, sq1, (N - 2) * q1 / 2)
        f2 = f1[::-1] if mirror else _bubble_power(d2, sq2, (N - 2) * q2 / 2)
        values.append(piece1 + piece2 + np.add.reduce(base * f1 * f2, None))
    return _slice_area(dims) * dims.alphaN ** (q1 + q2) * np.array(values).reshape(deltas1.shape)


def _pair_bound(dims, delta, q1, q2, domain_radius, nu1, nu2):
    """Three-term dominating bound: product of peak heights, plus each
    peak height times the other bubble's single integral (the weighted
    one when a weight is present), at every scale of the 1-D delta."""
    N = dims.N
    h1 = delta ** ((N - 2) * q1 / 2)
    h2 = delta ** ((N - 2) * q2 / 2)
    cover = 2.0 * domain_radius
    i2 = bubble_power_integral(dims, delta, q2, outer=cover)
    i1 = i2 if q1 == q2 and nu1 == nu2 == 0.0 else bubble_power_integral(   # the same call
        dims, delta, q1, outer=cover, nu1=nu1, nu2=nu2, lower=(delta * delta if nu2 > 0 else 0.0))
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
    bounds = _pair_bound(dims, grid, q1, q2, domain_radius, nu1, nu2)
    return _scaling_fit(grid, values, predicted, has_log, bounds)
