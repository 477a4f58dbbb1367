"""Annular projection exactness, remainder-ratio boundedness, and the
log-log scaling-law fits (single, weighted, pair)."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bubblelab.bubbles import DIMS3, DIMS4, BubbleParams, bubble_eval
from bubblelab.cli import PAIR_DELTAS
from bubblelab.energy import constant_b1
from bubblelab import asymptotics as asy
from oracles import (
    _segments,
    bubble_residual,
    reference_pair_product_integral,
    reference_scaling_fit,
    remainder_check,
    remainder_trend,
)

RNG = np.random.default_rng(20260815)


def make_projection(dims, inner=1e-3, outer=1.0, delta=0.03):
    return asy.project_bubble_radial(dims, delta, inner, outer)


def centred_bubble(proj):
    """The bubble that ``proj`` projects, as `bubble_eval` takes it."""
    return BubbleParams(delta=proj.delta, xi=np.zeros(proj.dims.N), dims=proj.dims)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_boundary_conditions():
    for dims in (DIMS3, DIMS4):
        proj = make_projection(dims)
        assert abs(proj.value(proj.inner)) < 1e-12
        assert abs(proj.value(proj.outer)) < 1e-12


def test_projection_between_zero_and_bubble():
    # maximum principle for the harmonic correction, checked by sampling
    for dims in (DIMS3, DIMS4):
        proj = make_projection(dims)
        s = np.geomspace(proj.inner, proj.outer, 1000)
        pu = proj.value(s)
        assert np.all(pu >= -1e-13)
        assert np.all(pu <= proj.bubble_value(s) + 1e-13)


def test_projection_pde_residual():
    # the correction is harmonic in closed form, so the interior residual
    # reduces to the certified bubble residual
    proj = make_projection(DIMS4)
    s = np.geomspace(2e-3, 0.9, 500)
    scale = np.max(proj.bubble_value(s) ** proj.dims.p)
    x = np.zeros(s.shape + (4,))
    x[:, 0] = s   # the points s e_1
    assert np.max(np.abs(bubble_residual(centred_bubble(proj), x))) < 1e-10 * scale


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
    keep = radii > proj.inner
    assert np.allclose(
        proj.bubble_value(radii[keep]), bubble_eval(centred_bubble(proj), pts[keep])
    )


def test_projection_validation():
    for inner, outer in [(0.0, 1.0), (-1e-3, 1.0), (1.0, 1.0), (1.0, 0.5)]:
        with pytest.raises(ValueError, match=r"^annulus requires 0 < inner < outer$"):
            asy.project_bubble_radial(DIMS3, 0.1, inner, outer)
    for delta in (0.0, -0.1):   # the check BubbleParams made
        with pytest.raises(ValueError, match="^delta must be positive$"):
            asy.project_bubble_radial(DIMS3, delta, 1e-3, 1.0)


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


POWER_CASES = [
    # (dims, q, nu1, nu2, excised)
    (DIMS3, 1.0, 0.0, 0.0, False),
    (DIMS4, 4.0, 0.0, 2.0, True),
    (DIMS4, 2.0, 0.0, 4.0, True),
    (DIMS3, 3.0, 0.5, 1.0, True),
    (DIMS4, 2.5, 1.0, 0.0, False),
]


def _power_integral_by_scale(dims, delta, q, outer, nu1, nu2, lower):
    """Reference: the same rule at one scale, as one chain of panels from
    lower/delta over the decades to outer/delta, summed in one dot."""
    N = dims.N
    anchors = [10.0**k for k in range(-16, 17)]
    t, w = asy._panel_rule(_segments(lower / delta, outer / delta, anchors))
    val = w @ (t ** (N - 1 + nu1 - nu2) * (1.0 + t * t) ** (-(N - 2) * q / 2))
    return (dims.omegaNm1 * asy.spherical_coordinate_moment(dims, nu1) * dims.alphaN**q
            * delta ** (N + nu1 - nu2 - (N - 2) * q / 2) * val)


@pytest.mark.parametrize("dims, q, nu1, nu2, excised", POWER_CASES)
def test_power_integral_matches_the_rule_scale_by_scale(dims, q, nu1, nu2, excised):
    # the same nodes and weights; only the order of the sum differs
    grid = asy.default_delta_grid(n=27)
    got = asy.bubble_power_integral(dims, grid, q, 1.0, nu1, nu2,
                                    grid * grid if excised else 0.0)
    want = [_power_integral_by_scale(dims, d, q, 1.0, nu1, nu2, d * d if excised else 0.0)
            for d in grid]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [4, 27])
@pytest.mark.parametrize("dims, q, nu1, nu2, excised", POWER_CASES)
def test_power_integral_array_call_equals_scalar_calls(dims, q, nu1, nu2, excised, n):
    grid = asy.default_delta_grid(n=n)
    lower = grid * grid if excised else 0.0
    got = asy.bubble_power_integral(dims, grid, q, 1.0, nu1, nu2, lower)
    assert got.shape == (n,)
    scalars = [asy.bubble_power_integral(dims, d, q, 1.0, nu1, nu2, d * d if excised else 0.0)
               for d in grid]
    assert all(isinstance(v, float) and np.ndim(v) == 0 for v in scalars)
    assert got.tolist() == [float(v) for v in scalars]


def test_power_integral_array_call_shares_no_mutable_state():
    # the decade panels integrated once per call serve every scale alike
    grid = asy.default_delta_grid(n=9)
    args = (DIMS4, grid, 4.0, 1.0, 0.5, 2.0, grid * grid)
    first = asy.bubble_power_integral(*args)
    again = asy.bubble_power_integral(*args)
    reversed_ = asy.bubble_power_integral(DIMS4, grid[::-1], 4.0, 1.0, 0.5, 2.0,
                                          (grid * grid)[::-1])
    assert again.tolist() == first.tolist()
    assert reversed_.tolist() == first[::-1].tolist()


@pytest.mark.parametrize("delta, lower", [
    ([[1e-2, 1e-3]], 0.0),
    ([1e-2, 1e-3], [0.0, 1e-4, 1e-6]),
    (1e-2, [0.0, 1e-4]),
])
def test_power_integral_rejects_shapes(delta, lower):
    with pytest.raises(ValueError):
        asy.bubble_power_integral(DIMS4, delta, 2.0, 1.0, lower=lower)


@pytest.mark.parametrize("outer, lower", [(0.2, 1.0), (1.0, 1.0), (1.0, -1e-3)])
def test_power_integral_rejects_limits_out_of_order(outer, lower):
    # [outer, lower] reversed once integrated to the value of the swapped call
    with pytest.raises(ValueError, match="lower < outer"):
        asy.bubble_power_integral(DIMS4, 0.5, 2.0, outer=outer, lower=lower)
    with pytest.raises(ValueError, match="lower < outer"):
        asy.bubble_power_integral(DIMS4, [0.5, 0.25], 2.0, outer=outer, lower=lower)


def test_weighted_law_rejects_holes_outside_the_domain():
    # the hole of radius delta^2 = 16 lies outside the unit ball at delta = 4
    with pytest.raises(ValueError, match="lower < outer"):
        asy.scaling_law_weighted(2.0, 0.0, 4.0, DIMS4, delta_grid=[4.0, 2.0, 1.0, 0.5])


def _count_power_integral_calls(monkeypatch):
    calls = []
    real = asy.bubble_power_integral

    def counting(*args, **kwargs):
        calls.append(np.array(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(asy, "bubble_power_integral", counting)
    return calls


def test_single_and_weighted_laws_integrate_each_family_in_one_call(monkeypatch):
    calls = _count_power_integral_calls(monkeypatch)
    grid = asy.default_delta_grid(n=7)
    single = asy.scaling_law_single(3.0, DIMS4, delta_grid=grid)
    weighted = asy.scaling_law_weighted(4.0, 0.0, 2.0, DIMS4, delta_grid=grid)
    assert len(calls) == 2
    assert all(np.array_equal(deltas, grid) for deltas in calls)
    monkeypatch.undo()
    assert single.values.tolist() == [
        float(asy.bubble_power_integral(DIMS4, d, 3.0, 1.0)) for d in grid]
    assert weighted.values.tolist() == [
        float(asy.bubble_power_integral(DIMS4, d, 4.0, 1.0, 0.0, 2.0, d * d)) for d in grid]


def test_pair_law_integrates_its_bound_in_two_calls(monkeypatch):
    calls = _count_power_integral_calls(monkeypatch)
    grid = asy.default_delta_grid(n=7)
    asy.scaling_law_pair(2.0, 2.0, DIMS4, delta_grid=grid, nu2=2.0)
    assert len(calls) == 2
    assert all(np.array_equal(deltas, grid) for deltas in calls)


@pytest.mark.parametrize("dims, q1, q2, nu1, nu2, calls", [
    (DIMS4, 2.0, 2.0, 0.0, 0.0, 1),
    (DIMS3, 3.0, 3.0, 0.0, 0.0, 1),
    (DIMS3, 1.0, 3.0, 0.0, 0.0, 2),
    (DIMS3, 3.0, 3.0, 0.5, 1.0, 2),
])
def test_symmetric_unweighted_bound_takes_one_single_integral(monkeypatch, dims, q1, q2,
                                                              nu1, nu2, calls):
    counted = _count_power_integral_calls(monkeypatch)
    grid = asy.default_delta_grid(n=7)
    fit = asy.scaling_law_pair(q1, q2, dims, delta_grid=grid, nu1=nu1, nu2=nu2)
    assert len(counted) == calls
    monkeypatch.undo()
    # the bound of two single-integral calls
    N = dims.N
    h1, h2 = grid ** ((N - 2) * q1 / 2), grid ** ((N - 2) * q2 / 2)
    i2 = asy.bubble_power_integral(dims, grid, q2, 2.0)
    i1 = asy.bubble_power_integral(dims, grid, q1, 2.0, nu1, nu2, grid * grid if nu2 else 0.0)
    assert np.array_equal(fit.bound_values, h1 * h2 + h1 * i2 + h2 * i1)


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


def test_fit_needs_as_many_scales_as_parameters():
    # a family with the log|log delta| column fits 3 parameters, any other 2:
    # on fewer scales the fit once gave a nan slope, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^a fit of 3 parameters needs as many scales$"):
            asy.scaling_law_single(2.0, DIMS4, delta_grid=[0.1, 0.05])
        with pytest.raises(ValueError, match="^a fit of 2 parameters needs as many scales$"):
            asy.scaling_law_single(1.0, DIMS4, delta_grid=[0.1])
        # as many scales as parameters is enough: two give the chord's slope
        assert asy.scaling_law_single(2.0, DIMS4, delta_grid=[0.1, 0.05, 0.02]).has_log
        two = asy.scaling_law_single(1.0, DIMS4, delta_grid=[0.1, 0.05])
    chord = math.log(two.values[1] / two.values[0]) / math.log(0.5)
    assert abs(two.exponent_measured - chord) <= 1e-12


def test_closed_form_fit_agrees_with_lstsq():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    most = PAIR_DELTAS[1]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        n=st.integers(3, most),
        first=st.floats(1e-6, 0.5),
        ratios=st.lists(st.floats(1e-3, 0.5), min_size=most - 1, max_size=most - 1),
        slope=st.floats(-3.0, 3.0),
        log_power=st.floats(-3.0, 3.0),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=most, max_size=most),
        has_log=st.booleans(),
    )
    def check(n, first, ratios, slope, log_power, noise, has_log):
        grid = first * np.cumprod([1.0, *ratios[:n - 1]])
        x = np.log(grid)
        values = np.exp(slope * x + log_power * np.log(-x) + np.array(noise[:n]))
        fit = asy._scaling_fit(grid, values, 0.0, has_log)
        want_slope, want_r2 = reference_scaling_fit(grid, values, has_log)
        assert abs(fit.exponent_measured - want_slope) <= 1e-10
        assert abs(fit.r2 - want_r2) <= 1e-10

    check()


# the nine families of the scaling benchmark configs: each dimension's
# default single and weighted families, and the pairs
SCALING_FAMILIES = [
    lambda: asy.scaling_law_single(1.0, DIMS3),
    lambda: asy.scaling_law_single(6.0, DIMS3),
    lambda: asy.scaling_law_weighted(6.0, 0.0, 2.0, DIMS3),
    lambda: asy.scaling_law_single(1.0, DIMS4),
    lambda: asy.scaling_law_single(4.0, DIMS4),
    lambda: asy.scaling_law_weighted(4.0, 0.0, 2.0, DIMS4),
    lambda: asy.scaling_law_pair(1.0, 1.0, DIMS3, asy.default_delta_grid(n=7)),
    lambda: asy.scaling_law_pair(3.0, 3.0, DIMS3, asy.default_delta_grid(n=7)),
    lambda: asy.scaling_law_pair(2.0, 2.0, DIMS4, asy.default_delta_grid(n=7)),
]


@pytest.mark.parametrize("family", range(len(SCALING_FAMILIES)))
def test_scaling_families_fit_as_lstsq_does(family):
    fit = SCALING_FAMILIES[family]()
    want_slope, want_r2 = reference_scaling_fit(fit.delta_grid, fit.values, fit.has_log)
    assert abs(fit.exponent_measured - want_slope) <= 1e-12
    # the flat families (N=3 q=6, N=4 q=4) have r^2 of two sums of squares
    # that are themselves near rounding (7.8e-8 for N=4 q=4), so their r^2
    # moves by up to 9e-13 between two ways of summing
    assert abs(fit.r2 - want_r2) <= 1e-11


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


SCALING_PAIR_CASES = [
    # the pair families of the scaling benchmark configs
    (DIMS3, 1.0, 1.0, 0.0, 0.0),
    (DIMS3, 3.0, 3.0, 0.0, 0.0),
    (DIMS4, 2.0, 2.0, 0.0, 0.0),
]


@pytest.mark.parametrize("separation, radius", [(0.5, 1.0), (0.9, 0.7)])
@pytest.mark.parametrize("dims, q1, q2, nu1, nu2", BATCH_CASES + SCALING_PAIR_CASES)
def test_pair_matches_the_unmirrored_reference(dims, q1, q2, nu1, nu2, separation, radius):
    # the mirrored axial rule and the one-power factors move values by rounding only
    d1 = asy.default_delta_grid(n=27)
    args = (q1, q2, separation, radius, nu1, nu2)
    for d2 in (d1, 0.7 * d1):
        got = asy.pair_product_integral(dims, d1, d2, *args)
        want = reference_pair_product_integral(dims, d1, d2, *args)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("separation, radius", [(0.5, 1.0), (0.9, 0.7), (0.1, 2.0), (1e-3, 1.0)])
def test_axial_rule_is_mirror_symmetric(separation, radius):
    z, w = asy._axial_rule(separation, radius)
    assert z.shape == w.shape == (7 * asy.NODES_PER_PANEL,)
    assert z[::-1].tobytes() == (-z).tobytes()
    assert w[::-1].tobytes() == w.tobytes()
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert w.sum() == pytest.approx(2 * radius, rel=1e-14)


def _count_kernel_calls(monkeypatch):
    """A list that gains an entry at each `_bubble_power` call of the pair."""
    calls, real = [], asy._bubble_power
    monkeypatch.setattr(asy, "_bubble_power", lambda *a: calls.append(1) or real(*a))
    return calls


def test_symmetric_pair_reuses_its_mirror_peak_piece(monkeypatch):
    # a peak piece takes two bubble powers, the near and the far one, and the
    # cylinder one per bubble on the squared distances it built once; no
    # radial profile is evaluated
    profiles, real = [], asy.radial_profile
    monkeypatch.setattr(asy, "radial_profile", lambda *a: profiles.append(1) or real(*a))
    kernels = _count_kernel_calls(monkeypatch)
    grid = asy.default_delta_grid(n=5)
    for q2, nu2, per_scale in [(2.0, 0.0, 3), (1.0, 0.0, 6), (2.0, 2.0, 6)]:
        kernels.clear()
        asy.pair_product_integral(DIMS4, grid, grid, 2.0, q2, 0.5, nu2=nu2)
        assert len(kernels) == per_scale * len(grid), (q2, nu2)
        kernels.clear()
        asy.pair_product_integral(DIMS4, grid, 0.5 * grid, 2.0, q2, 0.5, nu2=nu2)
        assert len(kernels) == 6 * len(grid), (q2, nu2)
    assert profiles == []


class _Unequal(float):
    """A power that compares unequal to every number, so that a pair with it
    evaluates both of its peak pieces and cylinder factors."""

    def __eq__(self, other):
        return False

    __hash__ = float.__hash__


@pytest.mark.parametrize("dims, q", [(DIMS3, 1.0), (DIMS3, 3.0), (DIMS4, 2.0), (DIMS4, 1.5)])
def test_mirror_reuse_keeps_the_bits_of_a_direct_evaluation(dims, q, monkeypatch):
    kernels = _count_kernel_calls(monkeypatch)
    grid = asy.default_delta_grid(n=12)
    reused = asy.pair_product_integral(dims, grid, grid, q, q, 0.5)
    assert len(kernels) == 3 * len(grid)   # one peak piece and one factor
    kernels.clear()
    direct = asy.pair_product_integral(dims, grid, grid, q, _Unequal(q), 0.5)
    assert len(kernels) == 6 * len(grid)
    assert reused.tolist() == direct.tolist()


@pytest.mark.parametrize("dims", [DIMS3, DIMS4])
@pytest.mark.parametrize("grid", [[0.1, 0.05, 0.0], [0.1, -0.1, -0.3], [0.1, 0.05, math.nan]])
def test_scales_that_are_not_positive_are_rejected_up_front(dims, grid, capfd):
    # such grids once made the fits print LAPACK DLASCL lines and raise LinAlgError
    g = np.array(grid)
    top = 2.0 * dims.N / (dims.N - 2)
    calls = [
        lambda: asy.bubble_power_integral(dims, g, 2.0, 1.0),
        lambda: asy.bubble_power_integral(dims, g[-1], 2.0, 1.0),
        lambda: asy.pair_product_integral(dims, g, g, 2.0, 2.0, 0.5),
        lambda: asy.pair_product_integral(dims, g[:1], g[-1:], 2.0, 2.0, 0.5),
        lambda: asy.pair_product_integral(dims, g[-1], g[0], 2.0, 2.0, 0.5),
        lambda: asy.scaling_law_single(1.0, dims, delta_grid=g),
        lambda: asy.scaling_law_weighted(top, 0.0, 2.0, dims, delta_grid=g),
        lambda: asy.scaling_law_pair(2.0, 2.0, dims, delta_grid=g),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="positive"):
            call()
    assert capfd.readouterr() == ("", "")


def test_pair_validation():
    with pytest.raises(ValueError):
        asy.pair_product_integral(DIMS4, 1e-2, 1e-2, 2.0, 2.0, separation=1.5)
    with pytest.raises(ValueError):
        asy.pair_product_integral(DIMS4, 1e-2, 1e-2, 2.0, 2.0, separation=0.0)
    with pytest.raises(ValueError):
        asy.scaling_law_pair(-1.0, 2.0, DIMS4)
