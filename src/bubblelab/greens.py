"""Ball Green function data and perforated-domain geometry.

For the ball B_R(z) the Dirichlet Green function of the plain kernel
|x-y|^(2-N) has the Kelvin image closed form; its regular part H(x, y) is
the H in which the projected bubble expands as
    PU = U - alpha_N delta^((N-2)/2) H(x, xi) + ...,
because on the boundary U ~ alpha_N delta^((N-2)/2) |x-xi|^(2-N).  Its
diagonal, the Robin function `kernel_robin`, taken at one point or at a
stack of points, enters the reduced-energy coefficients.  `check_holes`
validates the holes B(a_k, r_k eps) that the perforated domain removes
from the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import DimensionConstants


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

    def contains(self, x):
        v = np.asarray(x, float) - self.center
        return np.sqrt(np.add.reduce(v * v, axis=-1)) < self.radius   # np.linalg.norm's bits


def check_holes(ball, centers, coeffs, epsilon):
    """Raise ValueError unless every r_k = coeffs[k] is positive and the holes
    B(a_k, r_k epsilon), a_k = centers[k], are disjoint and each lies in the
    ball with its radius below half the distance from a_k to the boundary.
    The first failure is raised: hole by hole, then pair by pair in (i, j)
    order."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    centers, coeffs = np.asarray(centers, float), np.asarray(coeffs, float)
    v = centers - ball.center
    for k, (sq, r) in enumerate(zip(np.vecdot(v, v).tolist(), coeffs.tolist())):
        if not r > 0:
            raise ValueError(f"hole {k} radius coefficient must be positive")
        d_bdry = ball.radius - math.sqrt(sq)   # vecdot has v.dot(v)'s bits
        if not d_bdry > 0:
            raise ValueError(f"hole {k} touches or leaves the ambient boundary")
        if not r * epsilon < d_bdry / 2:
            raise ValueError(f"epsilon {epsilon:g} too large: the radius of hole {k} "
                             "exceeds half its distance to the ambient boundary")
    m = len(coeffs)
    v = centers[:, None] - centers   # every pair, in one pass
    overlap = ~(np.sqrt(np.vecdot(v, v)) > (coeffs[:, None] + coeffs) * epsilon)
    bad = (overlap & (np.arange(m)[:, None] < np.arange(m))).ravel().nonzero()[0]
    if len(bad):
        i, j = divmod(int(bad[0]), m)
        raise ValueError(f"holes {i} and {j} overlap at eps={epsilon:g}; holes must be disjoint")


def kernel_robin(ball, a):
    """Robin function of the plain kernel: (R/(R^2 - |a'|^2))^(N-2), at the
    point a or at each row of a stack of points."""
    if not np.logical_and.reduce(ball.contains(a), axis=None):
        raise ValueError("point outside the ambient ball")
    N = ball.dims.N
    R = ball.radius
    ar = np.asarray(a, float) - ball.center
    # float_power takes libm pow on every value, as ** does on one point; **
    # on an array squares instead, and the two differ in about 0.1 % of values
    return np.float_power(R / (R**2 - np.add.reduce(ar * ar, axis=-1)), N - 2)
