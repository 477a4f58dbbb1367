"""Annular projection exactness, remainder-ratio boundedness, and the
log-log scaling-law fits (single, weighted, pair)."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bubblelab.bubbles import DIMS3, DIMS4, BubbleParams, bubble_eval
from bubblelab.energy import constant_b1
from bubblelab import asymptotics as asy
from oracles import bubble_residual, remainder_check, remainder_trend

RNG = np.random.default_rng(20260815)


def make_projection(dims, inner=1e-3, outer=1.0, delta=0.03):
    ann = asy.Annulus(inner=inner, outer=outer)
    bub = BubbleParams(delta=delta, xi=np.zeros(dims.N), dims=dims)
    return asy.project_bubble_radial(ann, bub)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_boundary_conditions():
    for dims in (DIMS3, DIMS4):
        proj = make_projection(dims)
        assert abs(proj.value(proj.annulus.inner)) < 1e-12
        assert abs(proj.value(proj.annulus.outer)) < 1e-12


def test_projection_between_zero_and_bubble():
    # maximum principle for the harmonic correction, checked by sampling
    for dims in (DIMS3, DIMS4):
        proj = make_projection(dims)
        s = np.geomspace(proj.annulus.inner, proj.annulus.outer, 1000)
        pu = proj.value(s)
        assert np.all(pu >= -1e-13)
        assert np.all(pu <= proj.bubble_value(s) + 1e-13)


def test_projection_pde_residual():
    # the correction is harmonic in closed form, so the interior residual
    # reduces to the certified bubble residual
    proj = make_projection(DIMS4)
    s = np.geomspace(2e-3, 0.9, 500)
    scale = np.max(proj.bubble_value(s) ** proj.bubble.dims.p)
    x = np.zeros(s.shape + (4,))
    x[:, 0] = s   # the points s e_1
    assert np.max(np.abs(bubble_residual(proj.bubble, x))) < 1e-10 * scale


def test_projection_correction_harmonic_fd():
    # independent finite-difference check that A + B s^(2-N) is harmonic
    proj = make_projection(DIMS3, delta=0.1)
    s = np.linspace(0.2, 0.8, 50)
    h = 1e-5
    f = proj.correction
    lap = (f(s + h) - 2 * f(s) + f(s - h)) / h**2 + (2 / s) * (
        f(s + h) - f(s - h)
    ) / (2 * h)
    # roundoff floor of the second difference scales with |correction|/h^2
    assert np.max(np.abs(lap)) < 1e-4 * np.max(np.abs(f(s)))


def test_projection_matches_point_evaluation():
    proj = make_projection(DIMS4, delta=0.05)
    pts = RNG.uniform(-0.5, 0.5, size=(40, 4))
    radii = np.linalg.norm(pts, axis=1)
    keep = radii > proj.annulus.inner
    assert np.allclose(
        proj.bubble_value(radii[keep]), bubble_eval(proj.bubble, pts[keep])
    )


def test_projection_validation():
    with pytest.raises(ValueError):
        asy.Annulus(inner=1.0, outer=0.5)
    with pytest.raises(ValueError):
        asy.Annulus(inner=0.0, outer=1.0)
    bub = BubbleParams(delta=0.1, xi=np.array([0.2, 0.0, 0.0]), dims=DIMS3)
    with pytest.raises(ValueError):
        asy.project_bubble_radial(asy.Annulus(1e-3, 1.0), bub)
    with pytest.raises(TypeError):
        asy.project_bubble_radial((1e-3, 1.0), bub)


# ---------------------------------------------------------------------------
# remainder model
# ---------------------------------------------------------------------------


def test_remainder_ratio_bounded_as_hole_shrinks():
    # four decades of eps; the pointwise defect/bound ratio must not grow
    eps_grid = np.geomspace(1e-2, 1e-5, 10)
    reports, slope = remainder_trend(DIMS3, 1.0, 1.0, 1.0, eps_grid)
    assert slope >= -0.1
    ratios = [r.sup_ratio for r in reports]
    assert max(ratios) < 10 * min(ratios)
    # recovered parameters round-trip
    for rep, eps in zip(reports, np.sort(eps_grid)[::-1]):
        assert rep.epsilon == pytest.approx(eps)
        assert rep.radius_coeff == pytest.approx(1.0)
        assert rep.delta == pytest.approx(math.sqrt(eps))


def test_remainder_compact_decay_rate():
    # away from hole and boundary, |PU - U| shrinks like delta^((N-2)/2)
    sup, deltas = [], []
    for eps in np.geomspace(1e-3, 1e-6, 8):
        delta = math.sqrt(eps)
        proj = make_projection(DIMS3, inner=eps, outer=1.0, delta=delta)
        s = np.linspace(0.3, 0.7, 200)
        sup.append(np.max(np.abs(proj.value(s) - proj.bubble_value(s))))
        deltas.append(delta)
    slope = np.polyfit(np.log(deltas), np.log(sup), 1)[0]
    assert slope == pytest.approx((DIMS3.N - 2) / 2, abs=0.05)


def test_remainder_check_validation():
    proj = make_projection(DIMS3, inner=1e-3, outer=1.0, delta=math.sqrt(1e-3))
    with pytest.raises(ValueError):
        remainder_check(proj, eta=1e-3, d=2e3)  # d outside (eta, 1/eta)
    with pytest.raises(ValueError):
        remainder_check(proj, eta=1.5, d=1.0)


# ---------------------------------------------------------------------------
# single-bubble scaling law
# ---------------------------------------------------------------------------


def test_single_law_subcritical_slope():
    fit = asy.scaling_law_single(1.0, DIMS4)
    assert fit.exponent_predicted == 1.0
    assert fit.exponent_measured == pytest.approx(1.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_single_law_top_power_constant():
    fit = asy.scaling_law_single(4.0, DIMS4)
    assert fit.exponent_predicted == 0.0
    assert fit.exponent_measured == pytest.approx(0.0, abs=0.05)
    # the limit value is the full-space integral N * b1
    assert fit.values[-1] == pytest.approx(4 * constant_b1(DIMS4), rel=1e-8)


def test_single_law_n3_q3_slope():
    fit = asy.scaling_law_single(3.0, DIMS3)
    assert fit.exponent_predicted == pytest.approx(1.5)
    assert fit.exponent_measured == pytest.approx(1.5, abs=0.05)
    assert fit.r2 >= 0.999
    assert fit.has_log  # q = N/(N-2) exactly for N=3


def test_single_law_critical_log_fit():
    fit = asy.scaling_law_single(2.0, DIMS4)
    assert fit.has_log
    assert fit.exponent_predicted == 2.0
    assert fit.exponent_measured == pytest.approx(2.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_single_law_supercritical_n4():
    fit = asy.scaling_law_single(3.0, DIMS4)
    assert fit.exponent_predicted == pytest.approx(1.0)
    assert fit.exponent_measured == pytest.approx(1.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_power_integral_against_unscaled_quadrature():
    # same integral without the peak-variable substitution
    dims, delta, q = DIMS4, 0.05, 2.0
    direct = 0.0
    for a, b in [(0.0, delta), (delta, 10 * delta), (10 * delta, 1.0)]:
        val, _ = quad(
            lambda s: s**3 * asy.radial_profile(dims, delta, s) ** q,
            a, b, epsabs=1e-14, epsrel=1e-12, limit=200,
        )
        direct += val
    direct *= dims.omegaNm1
    assert asy.bubble_power_integral(dims, delta, q, outer=1.0) == pytest.approx(
        direct, rel=1e-9
    )


def test_single_exponent_cases():
    assert asy.single_exponent(DIMS4, 1.9) == (1.9, False)
    assert asy.single_exponent(DIMS4, 2.0) == (2.0, True)
    assert asy.single_exponent(DIMS4, 3.0) == (1.0, False)
    assert asy.single_exponent(DIMS4, 4.0) == (0.0, False)
    with pytest.raises(ValueError):
        asy.single_exponent(DIMS4, 0.0)


def test_grid_validation():
    bad = np.array([0.1, 0.06, 0.04])  # ratio > 1/2
    with pytest.raises(ValueError):
        asy.scaling_law_single(1.0, DIMS4, delta_grid=bad)
    g = asy.default_delta_grid()
    assert len(g) == 12 and np.all(g[1:] / g[:-1] == 0.5)


# ---------------------------------------------------------------------------
# weighted scaling law
# ---------------------------------------------------------------------------


def test_weighted_law_main_case():
    fit = asy.scaling_law_weighted(3.0, 0.0, 2.0, DIMS4)
    assert fit.exponent_predicted == pytest.approx(-1.0)
    assert fit.exponent_measured == pytest.approx(-1.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_weighted_law_full_pole_log_case():
    # weight pole of order N with the hole excised: slope -(N-2)q/2, log
    fit = asy.scaling_law_weighted(2.0, 0.0, 4.0, DIMS4)
    assert fit.has_log
    assert fit.exponent_predicted == pytest.approx(-2.0)
    assert fit.exponent_measured == pytest.approx(-2.0, abs=0.05)
    assert fit.r2 >= 0.999


def test_weighted_law_boundary_combination_log_case():
    fit = asy.scaling_law_weighted(2.5, 1.0, 0.0, DIMS4)
    assert fit.has_log
    assert fit.exponent_predicted == pytest.approx(2.5)
    assert fit.exponent_measured == pytest.approx(2.5, abs=0.05)
    assert fit.r2 >= 0.999


def test_weighted_law_reduces_to_single():
    fw = asy.scaling_law_weighted(3.0, 0.0, 0.0, DIMS4)
    fs = asy.scaling_law_single(3.0, DIMS4)
    assert np.allclose(fw.values, fs.values, rtol=1e-12)


def test_weighted_hypothesis_errors():
    with pytest.raises(ValueError):
        asy.weighted_exponent(DIMS4, 1.0, 0.0, 2.0)   # (N-2)q + nu2 = N, not >
    with pytest.raises(ValueError):
        asy.weighted_exponent(DIMS4, 2.0, 0.0, 5.0)   # nu2 > N
    with pytest.raises(ValueError):
        asy.weighted_exponent(DIMS4, 2.0, 1.0, 4.0)   # nu2 = N needs nu1 = 0
    with pytest.raises(ValueError):
        asy.weighted_exponent(DIMS4, 2.0, -1.0, 0.0)


def test_spherical_moment_values():
    # E|omega_h|^0 = 1 and E|omega_h|^2 = 1/N on the unit sphere
    for dims in (DIMS3, DIMS4):
        assert asy.spherical_coordinate_moment(dims, 0.0) == pytest.approx(1.0)
        assert asy.spherical_coordinate_moment(dims, 2.0) == pytest.approx(
            1.0 / dims.N
        )
    # Monte Carlo spot check of a fractional moment
    w = RNG.normal(size=(200_000, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    mc = np.mean(np.abs(w[:, 2]) ** 1.3)
    assert asy.spherical_coordinate_moment(DIMS4, 1.3) == pytest.approx(mc, rel=5e-3)


# ---------------------------------------------------------------------------
# pair scaling law
# ---------------------------------------------------------------------------


def _offcenter_ball_integral(dims, delta, q, offset, radius=1.0):
    """Oracle: integral of U^q over a ball NOT centered at the peak, by the
    solid-angle fraction of each peak-centered sphere inside the ball."""
    N = dims.N
    slice_area = 2 * math.pi ** ((N - 1) / 2) / math.gamma((N - 1) / 2)

    def cap(r):
        m = (radius**2 - offset**2 - r * r) / (2 * offset * r)
        if m >= 1.0:
            return dims.omegaNm1
        if m <= -1.0:
            return 0.0
        val, _ = quad(
            lambda t: math.sin(t) ** (N - 2), math.acos(m), math.pi,
            epsabs=1e-13, epsrel=1e-12,
        )
        return slice_area * val

    def f(r):
        return r ** (N - 1) * asy.radial_profile(dims, delta, r) ** q * cap(r)

    total = 0.0
    breaks = sorted({0.0, delta, 10 * delta, radius - offset, radius + offset})
    for a, b in zip(breaks[:-1], breaks[1:]):
        val, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-10, limit=200)
        total += val
    return total


def _adaptive_pair_integral(dims, delta, q1, q2, separation, nu1=0.0, nu2=0.0,
                            radius=1.0):
    """Oracle: the pair integral by nested adaptive quad on the library's
    domain split (a ball of radius separation/4 around each peak plus the
    cylinder remainder), with a scalar profile of its own."""
    N = dims.N
    k = (N - 2) / 2
    slice_area = 2 * math.pi ** ((N - 1) / 2) / math.gamma((N - 1) / 2)
    rho, L = separation / 4, separation
    z1, z2 = -separation / 2, separation / 2
    wpow = nu1 - nu2
    opts = dict(epsabs=0.0, epsrel=1e-9, limit=200)

    def prof(s, q):
        return (dims.alphaN * (delta / (delta * delta + s * s)) ** k) ** q

    def segments(f, lo, hi, anchors):
        pts = sorted({lo, hi, *(a for a in anchors if lo < a < hi)})
        return sum(quad(f, a, b, **opts)[0] for a, b in zip(pts[:-1], pts[1:]))

    def peak_piece(q_near, q_far, near_is_pole):
        def polar(r):
            def g(theta):
                dist2 = r * r + L * L - 2 * r * L * math.cos(theta)
                w = 1.0 if near_is_pole else dist2 ** (wpow / 2)
                return math.sin(theta) ** (N - 2) * prof(math.sqrt(dist2), q_far) * w
            return quad(g, 0.0, math.pi, **opts)[0]

        def f(r):
            w = r**wpow if near_is_pole else 1.0
            return r ** (N - 1) * prof(r, q_near) * w * polar(r)

        return segments(f, 0.0, rho, [delta * 10.0**j for j in range(-2, 6)])

    def cross_section(z):
        u_hi = math.sqrt(max(radius**2 - z * z, 0.0))
        u_lo = max(math.sqrt(max(rho * rho - (z - zc) ** 2, 0.0)) for zc in (z1, z2))
        if u_lo >= u_hi:
            return 0.0

        def g(u):
            s1, s2 = math.hypot(z - z1, u), math.hypot(z - z2, u)
            return u ** (N - 2) * prof(s1, q1) * prof(s2, q2) * s1**wpow

        return quad(g, u_lo, u_hi, **opts)[0]

    rest = segments(cross_section, -radius, radius,
                    [z1 - rho, z1, z1 + rho, z2 - rho, z2, z2 + rho])
    return slice_area * (peak_piece(q1, q2, True) + peak_piece(q2, q1, False) + rest)


PAIR_ORACLE_CASES = [
    # (dims, q1, q2, nu2)
    (DIMS3, 1.0, 1.0, 0.0),
    (DIMS3, 3.0, 3.0, 0.0),
    (DIMS4, 2.0, 2.0, 0.0),
    (DIMS4, 4.0, 2.0, 2.0),
]


@pytest.mark.parametrize("dims, q1, q2, nu2", PAIR_ORACLE_CASES)
def test_pair_matches_adaptive_oracle(dims, q1, q2, nu2):
    for delta in (2e-2, 1e-3):
        got = asy.pair_product_integral(dims, delta, delta, q1, q2, 0.5, nu2=nu2)
        want = _adaptive_pair_integral(dims, delta, q1, q2, 0.5, nu2=nu2)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("dims, q1, q2, nu2", PAIR_ORACLE_CASES)
def test_pair_rule_self_converged(dims, q1, q2, nu2, monkeypatch):
    # doubling the nodes per panel moves no value by more than 1e-12
    grid = asy.default_delta_grid()
    coarse = [asy.pair_product_integral(dims, d, d, q1, q2, 0.5, nu2=nu2) for d in grid]
    monkeypatch.setattr(asy, "NODES_PER_PANEL", 2 * asy.NODES_PER_PANEL)
    fine = [asy.pair_product_integral(dims, d, d, q1, q2, 0.5, nu2=nu2) for d in grid]
    np.testing.assert_allclose(coarse, fine, rtol=1e-12, atol=0.0)


def test_pair_trivial_power_reduces_to_offcenter_single():
    dims, sep = DIMS4, 0.5
    for delta in (1e-2, 1e-3):
        got = asy.pair_product_integral(dims, delta, delta, 3.0, 0.0, sep)
        want = _offcenter_ball_integral(dims, delta, 3.0, offset=sep / 2)
        assert got == pytest.approx(want, rel=1e-7)


def test_pair_swap_invariance():
    dims, sep, delta = DIMS4, 0.5, 1e-2
    a = asy.pair_product_integral(dims, delta, delta, 1.5, 3.0, sep)
    b = asy.pair_product_integral(dims, delta, delta, 3.0, 1.5, sep)
    assert a == pytest.approx(b, rel=1e-8)


def test_pair_dominance_critical_powers():
    fit = asy.scaling_law_pair(2.0, 2.0, DIMS4, separation=0.5)
    # value/bound ratio bounded across the grid and not growing at the end
    assert np.max(fit.ratios) < 4 * np.min(fit.ratios)
    last = fit.ratios[-3:]
    assert (last.max() - last.min()) / last.max() < 0.05
    # both critical: special normalization values^(2/N)/(d^2 |log d|^(2/N))
    g = fit.delta_grid
    special = fit.values ** (2 / 4) / (g**2 * np.abs(np.log(g)) ** (2 / 4))
    s_last = special[-3:]
    assert (s_last.max() - s_last.min()) / s_last.max() < 0.05
    # measured slope tracks the dominating bound exponent
    assert fit.has_log
    assert fit.exponent_predicted == pytest.approx(4.0)
    assert fit.exponent_measured == pytest.approx(4.0, abs=0.2)


def test_pair_dominance_weighted():
    grid = asy.default_delta_grid(n=7)
    fit = asy.scaling_law_pair(
        2.0, 2.0, DIMS4, delta_grid=grid, separation=0.5, nu1=0.0, nu2=2.0
    )
    assert np.max(fit.ratios) < 4 * np.min(fit.ratios)
    assert fit.exponent_predicted == pytest.approx(2.0)
    assert fit.exponent_measured == pytest.approx(2.0, abs=0.1)


BATCH_CASES = [
    # (dims, q1, q2, nu1, nu2)
    (DIMS3, 1.0, 3.0, 0.0, 0.0),
    (DIMS3, 3.0, 1.5, 0.5, 1.0),
    (DIMS4, 2.0, 1.0, 0.0, 0.0),
    (DIMS4, 4.0, 2.0, 0.5, 2.0),
]


@pytest.mark.parametrize("n", [4, 27])
@pytest.mark.parametrize("dims, q1, q2, nu1, nu2", BATCH_CASES)
def test_pair_array_call_equals_scalar_calls(dims, q1, q2, nu1, nu2, n):
    d1 = asy.default_delta_grid(n=n)
    d2 = 0.7 * d1[::-1]
    args = (q1, q2, 0.5, 1.0, nu1, nu2)
    got = asy.pair_product_integral(dims, d1, d2, *args)
    assert got.shape == (n,)
    scalars = [asy.pair_product_integral(dims, a, b, *args) for a, b in zip(d1, d2)]
    assert all(np.ndim(v) == 0 for v in scalars)
    assert got.tolist() == [float(v) for v in scalars]


def test_pair_array_call_shares_no_mutable_geometry():
    # the geometry built once per call is not changed by any scale's pass
    d1 = asy.default_delta_grid(n=6)
    d2 = 0.3 * d1
    args = (DIMS4, 4.0, 2.0, 0.5, 1.0, 0.5, 2.0)
    first = asy.pair_product_integral(args[0], d1, d2, *args[1:])
    again = asy.pair_product_integral(args[0], d1, d2, *args[1:])
    reversed_ = asy.pair_product_integral(args[0], d1[::-1], d2[::-1], *args[1:])
    assert again.tolist() == first.tolist()
    assert reversed_.tolist() == first[::-1].tolist()


@pytest.mark.parametrize("d1, d2", [
    ([1e-2, 1e-3], [1e-2]),
    ([1e-2], 1e-2),   # a scalar is not a 1-element array
    (1e-2, [1e-2, 1e-3]),
    ([[1e-2, 1e-3]], [[1e-2, 1e-3]]),
])
def test_pair_rejects_scales_of_different_shapes(d1, d2):
    with pytest.raises(ValueError, match="equal length"):
        asy.pair_product_integral(DIMS4, d1, d2, 2.0, 2.0, 0.5)


def test_scaling_law_pair_integrates_each_family_in_one_call(monkeypatch):
    calls = []
    real = asy.pair_product_integral

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(asy, "pair_product_integral", counting)
    grid = asy.default_delta_grid(n=7)
    fits = [asy.scaling_law_pair(2.0, 2.0, DIMS4, delta_grid=grid),
            asy.scaling_law_pair(2.0, 2.0, DIMS4, delta_grid=grid, nu2=2.0)]
    assert len(calls) == 2
    assert all(np.array_equal(deltas, grid) for deltas in calls)
    assert fits[0].values.tolist() == [
        float(real(DIMS4, d, d, 2.0, 2.0, 0.5)) for d in grid]


def test_pair_validation():
    with pytest.raises(ValueError):
        asy.pair_product_integral(DIMS4, 1e-2, 1e-2, 2.0, 2.0, separation=1.5)
    with pytest.raises(ValueError):
        asy.pair_product_integral(DIMS4, 1e-2, 1e-2, 2.0, 2.0, separation=0.0)
    with pytest.raises(ValueError):
        asy.scaling_law_pair(-1.0, 2.0, DIMS4)
