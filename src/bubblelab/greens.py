"""Ball Green function data and perforated-domain geometry.

For the ball B_R(z) the Dirichlet Green function of the plain kernel
|x-y|^(2-N) has the Kelvin image closed form; its regular part H(x, y) is
the H in which the projected bubble expands as
    PU = U - alpha_N delta^((N-2)/2) H(x, xi) + ...,
because on the boundary U ~ alpha_N delta^((N-2)/2) |x-xi|^(2-N).  Its
diagonal, the Robin function `kernel_robin`, enters the reduced-energy
coefficients.
"""

from __future__ import annotations

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
        return np.linalg.norm(np.asarray(x, float) - self.center, axis=-1) < self.radius


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


def kernel_robin(ball, a):
    """Robin function of the plain kernel: (R/(R^2 - |a'|^2))^(N-2)."""
    if not np.all(ball.contains(a)):
        raise ValueError("point outside the ambient ball")
    N = ball.dims.N
    R = ball.radius
    ar = np.asarray(a, float) - ball.center
    return (R / (R**2 - np.sum(ar * ar, axis=-1))) ** (N - 2)
