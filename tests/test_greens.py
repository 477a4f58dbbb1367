import numpy as np
import pytest

from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.greens import Ball, HoleSpec, PerforatedDomain, kernel_robin
from oracles import fd_laplacian, kernel_regular_part

RNG = np.random.default_rng(99)


def harmonicity_check(ball, y, n_samples=60, step_frac=1e-3, seed=7):
    """Max |Δ_x H(x,y)| over a sample grid, by central finite differences.

    Certifies that the image closed form is harmonic in x.  Sample points
    keep a margin from the boundary so the FD stencil stays inside the ball
    (the image point itself lies outside, so H is smooth on the grid);
    `kernel_regular_part` rejects a pole y outside the ball.
    """
    N = ball.dims.N
    step = step_frac * ball.radius
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, N))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.uniform(0.0, ball.radius - 4 * step, size=n_samples)
    x = ball.center + radii[:, None] * pts
    lap = fd_laplacian(lambda pts: kernel_regular_part(ball, pts, y), x, step)
    return float(np.max(np.abs(lap)))


def unit_ball(N):
    dims = DIMS4 if N == 4 else DIMS3
    return Ball(radius=1.0, center=np.zeros(N), dims=dims)


def test_center_values_match_image_formula_limit():
    # the regular part at the center is R^(2-N), off the diagonal too
    b4 = unit_ball(4)
    assert kernel_regular_part(b4, np.zeros(4), np.zeros(4)) == pytest.approx(1.0, rel=1e-14)
    b3 = unit_ball(3)
    x = np.array([0.4, -0.2, 0.1])
    assert kernel_regular_part(b3, x, np.zeros(3)) == pytest.approx(1.0, rel=1e-14)
    assert kernel_regular_part(b3, np.zeros(3), x) == pytest.approx(1.0, rel=1e-14)
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
            # evaluate G = |x-y|^(2-N) - H just inside to stay in the domain
            xin = 0.999999999 * x
            g = np.linalg.norm(xin - y) ** (2 - N) - kernel_regular_part(ball, xin, y)
            assert abs(g) < 1e-8
            # H on the boundary equals the singular part exactly
            hx = kernel_regular_part(ball, x * (1 - 1e-12), y)
            sing = np.linalg.norm(x - y) ** (2 - N)
            assert hx == pytest.approx(sing, rel=1e-9)


def test_symmetry_of_regular_part():
    for N in (3, 4):
        ball = unit_ball(N)
        x = RNG.uniform(-0.5, 0.5, size=(20, N))
        y = RNG.uniform(-0.5, 0.5, size=(20, N))
        np.testing.assert_allclose(
            kernel_regular_part(ball, x, y), kernel_regular_part(ball, y, x), rtol=1e-12
        )


def test_robin_positive_monotone_and_blows_up():
    ball = unit_ball(3)
    e1 = np.array([1.0, 0.0, 0.0])
    v0 = kernel_robin(ball, 0.0 * e1)
    v5 = kernel_robin(ball, 0.5 * e1)
    v99 = kernel_robin(ball, 0.99 * e1)
    assert 0 < v0 < v5 < v99
    assert v99 > 25 * v0  # (1 - 0.99^2)^-1 ~ 50x
    # the diagonal of the regular part
    assert v5 == pytest.approx(kernel_regular_part(ball, 0.5 * e1, 0.5 * e1), rel=1e-14)
    with pytest.raises(ValueError):
        kernel_robin(ball, e1)  # boundary point rejected


def test_off_center_ball():
    dims = DIMS4
    ball = Ball(radius=2.0, center=np.array([0.5, 0.0, 0.0, 0.0]), dims=dims)
    # center of the ball plays the role of the origin
    assert kernel_robin(ball, ball.center) == pytest.approx(2.0 ** -2, rel=1e-14)
    x = ball.center + np.array([1.999999999, 0, 0, 0])
    y = ball.center + np.array([0.3, 0.1, 0, 0])
    g = np.linalg.norm(x - y) ** -2.0 - kernel_regular_part(ball, x, y)
    assert abs(g) < 1e-8


def test_harmonicity_of_regular_part():
    b4 = unit_ball(4)
    assert harmonicity_check(b4, np.array([0.3, 0.0, 0.0, 0.0])) < 1e-5
    assert harmonicity_check(b4, np.zeros(4)) < 1e-5
    b3 = unit_ball(3)
    assert harmonicity_check(b3, np.array([0.2, -0.4, 0.1])) < 1e-5


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
