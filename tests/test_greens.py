import numpy as np
import pytest

from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.greens import Ball, check_holes, kernel_robin
from oracles import fd_laplacian, kernel_regular_part, reference_check_holes

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
    ones = np.ones(2)
    assert check_holes(ball, np.array([a1, a2]), ones, 1e-2) is None
    # eps too large: hole radius must stay below half the boundary distance
    with pytest.raises(ValueError, match="epsilon 0.3 too large: the radius of hole 0"):
        check_holes(ball, np.array([a1]), ones[:1], 0.3)
    # overlapping holes: the gap 1e-3 is below (r_0 + r_1) eps = 2e-3
    with pytest.raises(ValueError, match="holes 0 and 1 overlap at eps=0.01"):
        check_holes(ball, np.array([a1, a1 + 1e-3]), ones, 1e-2)
    # hole center outside
    with pytest.raises(ValueError, match="hole 0 touches or leaves the ambient boundary"):
        check_holes(ball, np.array([[2.0, 0, 0, 0]]), ones[:1], 1e-3)
    for eps in (0.0, -1e-3):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            check_holes(ball, np.array([a1, a2]), ones, eps)


def test_hole_checks_raise_the_first_failure_in_order():
    ball = unit_ball(4)
    e = np.eye(4)
    # holes 0 and 3 overlap, as do 1 and 2: (0, 3) comes first in (i, j) order
    centers = np.array([0.5 * e[0], 0.5 * e[1], 0.5 * e[1] + 1e-3, 0.5 * e[0] + 1e-3])
    with pytest.raises(ValueError, match="holes 0 and 3 overlap at eps=0.01"):
        check_holes(ball, centers, np.ones(4), 1e-2)
    with pytest.raises(ValueError, match="holes 1 and 2 overlap at eps=0.01"):
        check_holes(ball, centers[:3], np.ones(3), 1e-2)
    # every hole is checked before any pair, each hole in order
    far = np.vstack([centers, [0.0, 0.0, 0.985, 0.0], 2 * e[0]])
    with pytest.raises(ValueError, match="epsilon 0.01 too large: the radius of hole 4"):
        check_holes(ball, far, np.ones(6), 1e-2)
    with pytest.raises(ValueError, match="hole 2 touches or leaves"):
        check_holes(ball, far[[0, 3, 5, 4]], np.ones(4), 1e-2)
    # a hole outside the ball is named as such, whatever its radius
    with pytest.raises(ValueError, match="hole 0 touches or leaves"):
        check_holes(ball, [e[0]], [100.0], 1e-2)


@pytest.mark.parametrize("centers, coeffs, k", [
    ([[0.5, 0, 0, 0]], [-1.0], 0),
    ([[0.5, 0, 0, 0]], [0.0], 0),
    # the negative sum -4 eps would pass the disjointness test
    ([[0.5, 0, 0, 0], [0.51, 0, 0, 0]], [1.0, -5.0], 1),
    # nan once read as "epsilon 0.01 too large"
    ([[0.5, 0, 0, 0]], [float("nan")], 0),
])
def test_hole_radius_coefficients_must_be_positive(centers, coeffs, k):
    with pytest.raises(ValueError, match=f"^hole {k} radius coefficient must be positive$"):
        check_holes(unit_ball(4), np.array(centers), coeffs, 1e-2)


def _seeded_ball(rng, N):
    dims = DIMS4 if N == 4 else DIMS3
    return Ball(radius=float(rng.uniform(0.5, 3.0)), center=rng.uniform(-1.0, 1.0, N), dims=dims)


def _points_in(rng, ball, n, reach=0.9):
    """n seeded points of the ball, up to `reach` of its radius from its centre."""
    x = rng.normal(size=(n, ball.dims.N))
    scale = reach * ball.radius * rng.uniform(0.0, 1.0, n) / np.linalg.norm(x, axis=1)
    return ball.center + scale[:, None] * x


@pytest.mark.parametrize("N", [3, 4])
def test_robin_on_a_stack_of_points_is_the_per_point_loop(N):
    # against the per-point formula as first written, on a np.float64: its **
    # takes libm pow, which rounds x**2 otherwise than x*x in about 0.1 % of
    # values, so 4000 points would show an array ** in kernel_robin
    rng = np.random.default_rng(2700 + N)
    for _ in range(4):
        ball = _seeded_ball(rng, N)
        R = ball.radius
        points = _points_in(rng, ball, 1000, reach=0.99)
        old = []
        for a in points:
            ar = np.asarray(a, float) - ball.center
            old.append((R / (R**2 - np.sum(ar * ar, axis=-1))) ** (N - 2))
        old = np.array(old)
        loop = [kernel_robin(ball, a) for a in points]
        assert all(type(v) is np.float64 for v in loop)
        assert np.array(loop).tobytes() == old.tobytes()
        stacked = kernel_robin(ball, points)
        assert stacked.shape == (len(points),) and stacked.tobytes() == old.tobytes()
    with pytest.raises(ValueError, match="point outside the ambient ball"):
        kernel_robin(ball, np.vstack([points, ball.center + 2 * R]))


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("N", [3, 4])
def test_hole_checks_match_the_loop_at_every_threshold(N):
    # 1-8 holes, some of them close; each epsilon sits on the threshold of
    # one check, or one ulp beside it, so a distance off by one ulp or a
    # failure named out of order changes the outcome
    rng = np.random.default_rng(4410 + N)
    outcomes = set()
    for _ in range(60):
        ball = _seeded_ball(rng, N)
        m = int(rng.integers(1, 9))
        centers = _points_in(rng, ball, m, reach=1.05)
        close = rng.random(m) < 0.3
        centers[close] = centers[0] + rng.uniform(-1e-2, 1e-2, (close.sum(), N))
        coeffs = rng.uniform(0.2, 3.0, m)
        v = centers - ball.center
        halves = (ball.radius - np.sqrt((v * v).sum(axis=-1))) / 2 / coeffs
        gaps = np.linalg.norm(centers[:, None] - centers, axis=-1) / (coeffs[:, None] + coeffs)
        for eps in rng.choice(np.concatenate([halves, gaps[np.triu_indices(m, 1)]]), 3):
            for eps in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, np.inf), -eps):
                want = _outcome(reference_check_holes, ball, centers, coeffs, eps)
                assert _outcome(check_holes, ball, centers, coeffs, eps) == want
                outcomes.add(want.split()[0] if want else None)
    assert outcomes == {None, "hole", "holes", "epsilon"}


@pytest.mark.parametrize("N", [3, 4])
def test_distances_keep_the_bits_of_np_linalg_norm(N):
    # each test below sits on the distance np.linalg.norm computes, or one
    # ulp beside it, so a distance off by one ulp changes its outcome.  With
    # axis=-1 norm sums the squares, without it it takes a dot product, and
    # the two differ in the last bit at times: contains took the first, the
    # hole checks the second
    rng = np.random.default_rng(2710 + N)
    ball = _seeded_ball(rng, N)
    points = _points_in(rng, ball, 40)
    for a in points:
        r = np.linalg.norm(a - ball.center, axis=-1)
        for radius, inside in ((np.nextafter(r, 0.0), False), (r, False),
                               (np.nextafter(r, np.inf), True)):
            near = Ball(radius=float(radius), center=ball.center, dims=ball.dims)
            assert near.contains(a) == inside
            expected = np.linalg.norm(points - ball.center, axis=-1) < radius
            assert near.contains(points).tolist() == expected.tolist()
        # a hole of radius epsilon stays below half its distance to the boundary
        half = (ball.radius - np.linalg.norm(a - ball.center)) / 2
        check_holes(ball, a[None], [1.0], np.nextafter(half, 0.0))
        with pytest.raises(ValueError, match="too large: the radius of hole 0"):
            check_holes(ball, a[None], [1.0], half)
        # two holes of radius epsilon / 2 stay apart
        b = a + rng.uniform(-1e-4, 1e-4, N)
        gap = np.linalg.norm(a - b)
        check_holes(ball, np.array([a, b]), [0.5, 0.5], np.nextafter(gap, 0.0))
        with pytest.raises(ValueError, match="holes 0 and 1 overlap"):
            check_holes(ball, np.array([a, b]), [0.5, 0.5], gap)
