"""Standard bubble family and its derivative kernels.

The bubble U_{delta,xi}(x) = alpha_N (delta / (delta^2 + |x-xi|^2))^((N-2)/2)
is the extremal profile of the critical problem -ΔU = U^p on R^N, with
p = (N+2)/(N-2).  The normalization alpha_N = (N(N-2))^((N-2)/4) is not
assumed: it is certified by `bubble_residual`, which evaluates -ΔU - U^p
from the analytic Laplacian of the radial profile.

Everything here is a pure function of its inputs and vectorized over the
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


def _r2(b, x):
    """Squared distance |x - xi|^2, broadcasting over leading axes of x."""
    x = np.asarray(x, dtype=float)
    return np.sum((x - b.xi) ** 2, axis=-1)


def bubble_eval(b, x):
    """Evaluate U_{delta,xi}(x).  x may be a point or an array of points."""
    k = (b.dims.N - 2) / 2
    return b.dims.alphaN * (b.delta / (b.delta**2 + _r2(b, x))) ** k


def bubble_deriv(b, h, x):
    """Derivative kernel psi^h of the bubble.

    h = 0 is the dilation kernel dU/ddelta; h = 1..N are the translation
    kernels dU/dxi_h.  These span the kernel of the linearized operator
    -Δ - p U^(p-1).
    """
    N, alpha = b.dims.N, b.dims.alphaN
    if not 0 <= h <= N:
        raise IndexError(f"kernel index must be in 0..{N}, got {h}")
    d = b.delta
    r2 = _r2(b, x)
    den = (d**2 + r2) ** (N / 2)
    if h == 0:
        return alpha * (N - 2) / 2 * d ** ((N - 4) / 2) * (r2 - d**2) / den
    x = np.asarray(x, dtype=float)
    return alpha * (N - 2) * d ** ((N - 2) / 2) * (x[..., h - 1] - b.xi[h - 1]) / den


def bubble_laplacian(b, x):
    """Analytic Laplacian of the bubble.

    For the radial profile u(r) = A (delta^2 + r^2)^(-k) with k = (N-2)/2 and
    A = alpha_N delta^k, a direct computation gives
    Δu = -A N(N-2) delta^2 (delta^2 + r^2)^(-(N+2)/2).
    """
    N, alpha = b.dims.N, b.dims.alphaN
    d = b.delta
    A = alpha * d ** ((N - 2) / 2)
    return -A * N * (N - 2) * d**2 * (d**2 + _r2(b, x)) ** (-(N + 2) / 2)


def bubble_residual(b, x, alpha_override=None):
    """Residual -ΔU - U^p at x; certifies the normalization alpha_N.

    With `alpha_override`, both U and its Laplacian are evaluated with the
    perturbed constant, so a wrong normalization shows up as a nonzero
    residual (utility for the certification test).
    """
    if alpha_override is None:
        u = bubble_eval(b, x)
        lap = bubble_laplacian(b, x)
    else:
        scale = alpha_override / b.dims.alphaN
        u = scale * bubble_eval(b, x)
        lap = scale * bubble_laplacian(b, x)
    return -lap - u ** b.dims.p


def _fd_laplacian(f, x, step):
    """Second-order central finite-difference Laplacian of f at points x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    lap = np.zeros(x.shape[0])
    f0 = f(x)
    for h in range(n):
        e = np.zeros(n)
        e[h] = step
        lap += (f(x + e) - 2.0 * f0 + f(x - e)) / step**2
    return lap


def linearized_residual(b, h, sample_grid=None, step_rel=1e-4):
    """Sup over a sample grid of |-Δpsi^h - p U^(p-1) psi^h| (FD Laplacian).

    The kernels solve the linearized equation exactly; the returned value is
    the finite-difference noise floor, which certifies the closed forms.  The
    default step 1e-4 (relative to delta) balances truncation against
    round-off near the 1e-6 target.
    """
    N = b.dims.N
    if sample_grid is None:
        # radii spanning the core and the tail, a few directions each
        radii = np.array([0.3, 0.7, 1.0, 1.5, 3.0]) * b.delta
        dirs = np.vstack([np.eye(N), -np.eye(N), np.ones((1, N)) / math.sqrt(N)])
        sample_grid = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, N) + b.xi
    x = np.asarray(sample_grid, dtype=float)
    psi = lambda pts: bubble_deriv(b, h, pts)
    lap = _fd_laplacian(psi, x, step_rel * b.delta)
    u = bubble_eval(b, x)
    res = -lap - b.dims.p * u ** (b.dims.p - 1) * psi(x)
    return float(np.max(np.abs(res)))
