import numpy as np
import pytest

from bubblelab.bubbles import DIMS3, DIMS4, BubbleParams, _profile, bubble_eval, dims_for
from oracles import bubble_deriv, bubble_residual, linearized_residual

RNG = np.random.default_rng(20260815)


def bubble(N=4, delta=1.0, xi=None):
    dims = DIMS4 if N == 4 else DIMS3
    if xi is None:
        xi = np.zeros(N)
    return BubbleParams(delta=delta, xi=np.asarray(xi, float), dims=dims)


def test_dimension_constants():
    assert DIMS3.p == 5.0
    assert DIMS4.p == 3.0
    assert DIMS3.alphaN == pytest.approx(3 ** 0.25, rel=1e-15)
    assert DIMS4.alphaN == pytest.approx(8 ** 0.5, rel=1e-15)
    for dims in (DIMS3, DIMS4):
        assert dims.omegaNm1 == pytest.approx(dims.N * dims.omegaN, rel=1e-15)
    # S^2 area 4*pi and S^3 area 2*pi^2
    assert DIMS3.omegaNm1 == pytest.approx(4 * np.pi, rel=1e-15)
    assert DIMS4.omegaNm1 == pytest.approx(2 * np.pi ** 2, rel=1e-15)


def test_dims_for_returns_the_shared_constants():
    assert dims_for(3) is DIMS3
    assert dims_for(4) is DIMS4
    with pytest.raises(ValueError):
        dims_for(5)


def test_bubble_value_at_center():
    b = bubble(N=4)
    assert bubble_eval(b, np.zeros(4)) == pytest.approx(8 ** 0.5, rel=1e-14)
    b3 = bubble(N=3, delta=2.0)
    assert bubble_eval(b3, np.zeros(3)) == pytest.approx(3 ** 0.25 / 2 ** 0.5, rel=1e-14)


# 6e-5 ** 2 rounds differently from 6e-5 * 6e-5 under glibc's pow
@pytest.mark.parametrize("delta", [0.03, 6e-5, np.float64(0.03), np.float64(6e-5)])
@pytest.mark.parametrize("dims", [DIMS3, DIMS4])
def test_profile_keeps_the_bits_of_its_closed_form(dims, delta):
    # the radial sweep's starting profiles, and so its seeds, hang on these bits
    N, alphaN = dims.N, dims.alphaN
    for r2 in (0.0, 0.37, 2.5e-9, np.geomspace(1e-12, 4.0, 301)):
        want = alphaN * (delta / (delta**2 + r2)) ** ((N - 2) / 2)
        assert np.asarray(_profile(dims, delta, r2)).tobytes() == np.asarray(want).tobytes()


def test_bubble_decays_monotonically():
    b = bubble(N=4, delta=0.7, xi=[0.1, -0.2, 0.0, 0.3])
    radii = np.linspace(0.0, 50.0, 400)
    direction = np.array([1.0, 2.0, -1.0, 0.5])
    direction /= np.linalg.norm(direction)
    pts = b.xi + radii[:, None] * direction
    vals = bubble_eval(b, pts)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-3


def test_maximum_at_center():
    for N in (3, 4):
        delta = float(RNG.uniform(0.2, 2.0))
        xi = RNG.normal(size=N)
        b = bubble(N=N, delta=delta, xi=xi)
        peak = b.dims.alphaN * delta ** (-(N - 2) / 2)
        assert bubble_eval(b, xi) == pytest.approx(peak, rel=1e-14)
        samples = xi + RNG.normal(size=(500, N))
        assert np.all(bubble_eval(b, samples) <= peak + 1e-15)


def test_scaling_covariance_exact():
    for N in (3, 4):
        delta = 0.37
        xi = RNG.normal(size=N)
        b = bubble(N=N, delta=delta, xi=xi)
        unit = bubble(N=N, delta=1.0, xi=np.zeros(N))
        x = RNG.normal(size=(50, N)) * 3.0
        lhs = bubble_eval(b, x)
        rhs = delta ** (-(N - 2) / 2) * bubble_eval(unit, (x - xi) / delta)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15 * np.max(lhs))


def test_residual_certifies_alpha():
    # closed form is exact once alpha_N is right ...
    for N in (3, 4):
        b = bubble(N=N, delta=0.8, xi=0.1 * np.ones(N))
        x = RNG.normal(size=(1000, N)) * 2.0
        res = bubble_residual(b, x)
        assert np.max(np.abs(res)) < 1e-10
    # ... and a 1% perturbation of alpha is loudly visible at the center
    b = bubble(N=4)
    bad = bubble_residual(b, np.zeros(4), alpha_override=b.dims.alphaN * 1.01)
    assert abs(bad) > 0.1


def test_deriv_kernel_special_values():
    b = bubble(N=4)
    # dilation kernel at the center: -(alpha_N (N-2)/2) / delta^(N/2) = -alpha_4
    assert bubble_deriv(b, 0, np.zeros(4)) == pytest.approx(-b.dims.alphaN, rel=1e-14)
    # translation kernel vanishes on its own axis through the center
    assert bubble_deriv(b, 1, np.zeros(4)) == 0.0
    # dilation kernel vanishes on the sphere |x - xi| = delta
    on_sphere = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(bubble_deriv(b, 0, on_sphere)) < 1e-15


def test_deriv_kernels_match_finite_differences():
    h_step = 1e-5
    for N in (3, 4):
        delta = 0.83
        xi = RNG.normal(size=N) * 0.2
        b = bubble(N=N, delta=delta, xi=xi)
        x = RNG.normal(size=(40, N))
        # h = 0: differentiate in delta
        up = BubbleParams(delta + h_step, xi, b.dims)
        dn = BubbleParams(delta - h_step, xi, b.dims)
        fd = (bubble_eval(up, x) - bubble_eval(dn, x)) / (2 * h_step)
        an = bubble_deriv(b, 0, x)
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-9)
        # h >= 1: differentiate in xi_h
        for h in range(1, N + 1):
            e = np.zeros(N)
            e[h - 1] = h_step
            fd = (
                bubble_eval(BubbleParams(delta, xi + e, b.dims), x)
                - bubble_eval(BubbleParams(delta, xi - e, b.dims), x)
            ) / (2 * h_step)
            an = bubble_deriv(b, h, x)
            np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-9)


def test_linearized_equation_residuals():
    b = bubble(N=4)
    assert linearized_residual(b, 0) < 1e-6
    assert linearized_residual(b, 2) < 1e-6
    b3 = bubble(N=3, delta=1.3)
    for h in range(4):
        assert linearized_residual(b3, h) < 1e-6


def test_bubble_itself_fails_linearized_equation():
    # -ΔU = U^p, so -ΔU - pU^(p-1)·U = (1-p) U^p != 0 at the center
    b = bubble(N=4)
    u0 = bubble_eval(b, np.zeros(4))
    mismatch = -bubble_residual(b, np.zeros(4)) + u0 ** b.dims.p - b.dims.p * u0 ** b.dims.p
    assert abs(mismatch - (1 - b.dims.p) * u0 ** b.dims.p) < 1e-12
    assert abs(mismatch) > 1.0


def test_kernel_index_range():
    b = bubble(N=3)
    with pytest.raises(IndexError):
        bubble_deriv(b, 4, np.zeros(3))
    with pytest.raises(ValueError):
        BubbleParams(-1.0, np.zeros(3), b.dims)
