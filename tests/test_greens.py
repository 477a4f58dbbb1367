import numpy as np
import pytest

from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.greens import (
    Ball,
    HoleSpec,
    PerforatedDomain,
    green_value,
    kernel_regular_part,
    kernel_robin,
    regular_part,
    robin,
)

RNG = np.random.default_rng(99)


def harmonicity_check(ball, y, n_samples=60, step_frac=1e-3, seed=7):
    """Max |Δ_x H(x,y)| over a sample grid, by central finite differences.

    Certifies that the image closed form is harmonic in x.  Sample points
    keep a margin from the boundary so the FD stencil stays inside the ball
    (the image point itself lies outside, so H is smooth on the grid);
    `regular_part` rejects a pole y outside the ball.
    """
    N = ball.dims.N
    step = step_frac * ball.radius
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, N))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.uniform(0.0, ball.radius - 4 * step, size=n_samples)
    x = ball.center + radii[:, None] * pts

    f0 = regular_part(ball, x, y)
    lap = np.zeros(n_samples)
    for h in range(N):
        e = np.zeros(N)
        e[h] = step
        lap += (regular_part(ball, x + e, y) - 2 * f0 + regular_part(ball, x - e, y)) / step**2
    return float(np.max(np.abs(lap)))


def unit_ball(N):
    dims = DIMS4 if N == 4 else DIMS3
    return Ball(radius=1.0, center=np.zeros(N), dims=dims)


def test_center_values_match_image_formula_limit():
    # c_N-weighted convention: H(0,0) = c_N for the unit ball
    b4 = unit_ball(4)
    assert regular_part(b4, np.zeros(4), np.zeros(4)) == pytest.approx(
        1.0 / (8 * b4.dims.omegaN), rel=1e-14
    )
    b3 = unit_ball(3)
    assert robin(b3, np.zeros(3)) == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)
    assert robin(b3, np.zeros(3)) == pytest.approx(1.0 / (3 * b3.dims.omegaN), rel=1e-14)
    # plain-kernel convention: regular part at the center is R^(2-N)
    assert kernel_robin(b4, np.zeros(4)) == pytest.approx(1.0, rel=1e-14)
    scaled = Ball(radius=2.0, center=np.zeros(4), dims=DIMS4)
    assert kernel_robin(scaled, np.zeros(4)) == pytest.approx(2.0 ** -2, rel=1e-14)


def test_green_vanishes_on_boundary():
    for N in (3, 4):
        ball = unit_ball(N)
        for _ in range(20):
            x = RNG.normal(size=N)
            x /= np.linalg.norm(x)  # boundary point
            y = RNG.uniform(-0.3, 0.3, size=N)
            # evaluate G just inside to stay in the domain
            g = green_value(ball, 0.999999999 * x, y)
            assert abs(g) < 1e-8
            # H on the boundary equals the singular part exactly
            hx = regular_part(ball, x * (1 - 1e-12), y)
            sing = ball.cN * np.linalg.norm(x - y) ** (2 - N)
            assert hx == pytest.approx(sing, rel=1e-9)


def test_symmetry_of_regular_part():
    for N in (3, 4):
        ball = unit_ball(N)
        x = RNG.uniform(-0.5, 0.5, size=(20, N))
        y = RNG.uniform(-0.5, 0.5, size=(20, N))
        np.testing.assert_allclose(
            regular_part(ball, x, y), regular_part(ball, y, x), rtol=1e-12
        )


def test_robin_positive_monotone_and_blows_up():
    ball = unit_ball(3)
    e1 = np.array([1.0, 0.0, 0.0])
    v0 = robin(ball, 0.0 * e1)
    v5 = robin(ball, 0.5 * e1)
    v99 = robin(ball, 0.99 * e1)
    assert 0 < v0 < v5 < v99
    assert v99 > 25 * v0  # (1 - 0.99^2)^-1 ~ 50x
    with pytest.raises(ValueError):
        robin(ball, e1)  # boundary point rejected


def test_off_center_ball():
    dims = DIMS4
    ball = Ball(radius=2.0, center=np.array([0.5, 0.0, 0.0, 0.0]), dims=dims)
    # center of the ball plays the role of the origin
    assert kernel_robin(ball, ball.center) == pytest.approx(2.0 ** -2, rel=1e-14)
    x = ball.center + np.array([1.999999999, 0, 0, 0])
    y = ball.center + np.array([0.3, 0.1, 0, 0])
    assert abs(green_value(ball, x, y)) < 1e-8


def test_harmonicity_of_regular_part():
    b4 = unit_ball(4)
    assert harmonicity_check(b4, np.array([0.3, 0.0, 0.0, 0.0])) < 1e-5
    assert harmonicity_check(b4, np.zeros(4)) < 1e-5
    b3 = unit_ball(3)
    assert harmonicity_check(b3, np.array([0.2, -0.4, 0.1])) < 1e-5


def test_weighted_and_plain_conventions_differ_by_cN_only():
    ball = unit_ball(4)
    x = RNG.uniform(-0.4, 0.4, size=(10, 4))
    y = RNG.uniform(-0.4, 0.4, size=(10, 4))
    np.testing.assert_allclose(
        regular_part(ball, x, y), ball.cN * kernel_regular_part(ball, x, y), rtol=1e-15
    )


def test_perforated_domain_validation():
    ball = unit_ball(4)
    a1 = np.array([0.5, 0, 0, 0])
    a2 = np.array([-0.5, 0, 0, 0])
    dom = PerforatedDomain(
        ambient=ball,
        holes=(HoleSpec(a1, 1.0), HoleSpec(a2, 1.0)),
        epsilon=1e-2,
    )
    assert len(dom.holes) == 2
    # eps too large: hole radius must stay below half the boundary distance
    with pytest.raises(ValueError):
        PerforatedDomain(ambient=ball, holes=(HoleSpec(a1, 1.0),), epsilon=0.3)
    # overlapping holes
    with pytest.raises(ValueError):
        PerforatedDomain(
            ambient=ball,
            holes=(HoleSpec(a1, 1.0), HoleSpec(a1 + 1e-3, 1.0)),
            epsilon=1e-2,
        )
    # hole center outside
    with pytest.raises(ValueError):
        PerforatedDomain(
            ambient=ball, holes=(HoleSpec(np.array([2.0, 0, 0, 0]), 1.0),), epsilon=1e-3
        )
