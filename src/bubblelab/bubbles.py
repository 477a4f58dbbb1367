"""Standard bubble family and the dimension constants.

The bubble U_{delta,xi}(x) = alpha_N (delta / (delta^2 + |x-xi|^2))^((N-2)/2)
is the extremal profile of the critical problem -ΔU = U^p on R^N, with
p = (N+2)/(N-2) and alpha_N = (N(N-2))^((N-2)/4).  The tests certify that
normalization from the analytic Laplacian of the profile, and the
derivative kernels of the linearized equation, in `tests/oracles.py`.

`bubble_eval` is a pure function of its inputs and vectorized over the
trailing point axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DimensionConstants:
    """Dimension-dependent constants used throughout the package.

    N        space dimension (3 or 4)
    p        critical exponent (N+2)/(N-2)
    alphaN   bubble normalization (N(N-2))^((N-2)/4)
    omegaN   volume of the unit ball in R^N
    omegaNm1 surface area of the unit sphere S^(N-1); equals N * omegaN
    """

    N: int
    p: float = field(init=False)
    alphaN: float = field(init=False)
    omegaN: float = field(init=False)
    omegaNm1: float = field(init=False)

    def __post_init__(self):
        if self.N not in (3, 4):
            raise ValueError(f"dimension must be 3 or 4, got {self.N}")
        N = self.N
        object.__setattr__(self, "p", (N + 2) / (N - 2))
        object.__setattr__(self, "alphaN", (N * (N - 2)) ** ((N - 2) / 4))
        # ball volume: pi^(N/2) / Gamma(N/2 + 1)
        object.__setattr__(
            self, "omegaN", math.pi ** (N / 2) / math.gamma(N / 2 + 1)
        )
        object.__setattr__(self, "omegaNm1", N * self.omegaN)


DIMS3 = DimensionConstants(3)
DIMS4 = DimensionConstants(4)


def dims_for(N):
    """The shared constants for N = 3 or 4; ValueError for any other N."""
    N = int(N)
    if N not in (3, 4):
        raise ValueError(f"dimension must be 3 or 4, got {N}")
    return DIMS3 if N == 3 else DIMS4


@dataclass(frozen=True)
class BubbleParams:
    """Concentration scale delta > 0, center xi in R^N, and dimension data."""

    delta: float
    xi: np.ndarray
    dims: DimensionConstants

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (self.dims.N,):
            raise ValueError(f"xi must be a point in R^{self.dims.N}")
        object.__setattr__(self, "xi", xi)


def bubble_eval(b, x):
    """Evaluate U_{delta,xi}(x).  x may be a point or an array of points."""
    k = (b.dims.N - 2) / 2
    r2 = np.sum((np.asarray(x, dtype=float) - b.xi) ** 2, axis=-1)
    return b.dims.alphaN * (b.delta / (b.delta**2 + r2)) ** k
