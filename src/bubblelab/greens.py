"""Ball Green function data and perforated-domain geometry.

For the ball B_R(z) the Dirichlet Green function has the Kelvin image
closed form.  Two normalizations of its regular part are exposed:

* `regular_part` / `robin`: H in the convention
      G(x,y) = c_N |x-y|^(2-N) - H(x,y),   c_N = 1/(N(N-2) omega_N),
  with H >= 0 (so the Robin function H(a,a) is positive and blows up at
  the boundary).

* `kernel_regular_part` / `kernel_robin`: the regular part of the plain
  kernel |x-y|^(2-N) (same formulas without the c_N factor).  This is the
  normalization in which the projected bubble expands as
      PU = U - alpha_N delta^((N-2)/2) H(x, xi) + ...,
  because on the boundary U ~ alpha_N delta^((N-2)/2) |x-xi|^(2-N); it is
  the H that enters the reduced-energy coefficients and the projection
  remainder.  The two differ by the constant factor c_N only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubbles import DimensionConstants, dims_for


@dataclass(frozen=True)
class Ball:
    """Ambient ball of radius R centered at `center`."""

    radius: float
    center: np.ndarray
    dims: DimensionConstants

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (self.dims.N,):
            raise ValueError(f"center must be a point in R^{self.dims.N}")
        object.__setattr__(self, "center", c)

    def contains(self, x, strict=True):
        r = np.linalg.norm(np.asarray(x, float) - self.center, axis=-1)
        return r < self.radius if strict else r <= self.radius

    @property
    def cN(self):
        d = self.dims
        return 1.0 / (d.N * (d.N - 2) * d.omegaN)


@dataclass(frozen=True)
class HoleSpec:
    """Hole at center a with radius r*eps (r is the radius coefficient)."""

    center: np.ndarray
    radius_coeff: float

    def __post_init__(self):
        if not self.radius_coeff > 0:
            raise ValueError("hole radius coefficient must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class PerforatedDomain:
    """Ambient ball minus the union of the eps-scaled holes."""

    ambient: Ball
    holes: tuple
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        R, z = self.ambient.radius, self.ambient.center
        for k, h in enumerate(self.holes):
            d_bdry = R - np.linalg.norm(h.center - z)
            if not d_bdry > 0:
                raise ValueError(f"hole {k} touches or leaves the ambient boundary")
            if not h.radius_coeff * self.epsilon < d_bdry / 2:
                raise ValueError(
                    f"epsilon {self.epsilon:g} too large: the radius of hole {k} "
                    "exceeds half its distance to the ambient boundary"
                )
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                gap = np.linalg.norm(self.holes[i].center - self.holes[j].center)
                rsum = (self.holes[i].radius_coeff + self.holes[j].radius_coeff) * self.epsilon
                if not gap > rsum:
                    raise ValueError(
                        f"holes {i} and {j} overlap at eps={self.epsilon:g}; "
                        "holes must be disjoint"
                    )


def _check_interior(ball, *points):
    for pt in points:
        if not np.all(ball.contains(pt)):
            raise ValueError("point outside the ambient ball")


def kernel_regular_part(ball, x, y):
    """Regular part of |x-y|^(2-N) for the ball (Kelvin image, no c_N).

    H(x,y) = (R / (|y'| * |x - y*|))^(N-2) with y* = R^2 y'/|y'|^2 in
    ball-centered coordinates y' = y - center; the y -> center limit is
    R^(2-N), the value of the constant harmonic extension.
    """
    _check_interior(ball, x, y)
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


def regular_part(ball, x, y):
    """Regular part H(x,y) in the convention G = c_N |x-y|^(2-N) - H."""
    return ball.cN * kernel_regular_part(ball, x, y)


def green_value(ball, x, y):
    """Dirichlet Green function G(x,y) = c_N |x-y|^(2-N) - H(x,y)."""
    N = ball.dims.N
    d = np.linalg.norm(np.asarray(x, float) - np.asarray(y, float), axis=-1)
    return ball.cN * d ** (2 - N) - regular_part(ball, x, y)


def kernel_robin(ball, a):
    """Robin function of the plain kernel: (R/(R^2 - |a'|^2))^(N-2)."""
    _check_interior(ball, a)
    N = ball.dims.N
    R = ball.radius
    ar = np.asarray(a, float) - ball.center
    return (R / (R**2 - np.sum(ar * ar, axis=-1))) ** (N - 2)


def robin(ball, a):
    """Robin function H(a,a), c_N-weighted convention; positive, blows up at the boundary."""
    return ball.cN * kernel_robin(ball, a)
