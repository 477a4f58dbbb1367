"""Reduced energy: constants, interaction kernel, critical point.

The finite-dimensional energy for peaks at hole centers a_i, with rates
d_i (delta_i = d_i sqrt(eps)) and normalized offsets tau_i, is

    Psi(d, tau) = sum_i [ A_i d_i^(N-2)
                          + B_i / (d_i^(N-2) (1+|tau_i|^2)^(N-2)) ],
    A_i = w_i b2 H_i,   B_i = w_i alpha_N^(p+1) r_i^(N-2) Gamma(0) / 2,

where H_i is the Robin function of the ambient domain at a_i in the
plain-kernel normalization (regular part of |x-y|^(2-N); see greens.py)
and r_i the hole radius coefficient.  The weights are mu_i^(-2/(p-1)) for
one component per peak, or the group sums of c_i^2 in the grouped
construction — the same formula, since a singleton group has
c^2 = mu^(-2/(p-1)).

Every constant and kernel is a closed form.  The radial integrals are
beta functions,

    M(a, c) = int_0^inf r^(a-1) (1+r^2)^(-c) dr = B(a/2, c - a/2) / 2,

so b1 = alpha^(p+1) omega_{N-1} B(N/2, N/2) / (2N) and
b2 = alpha^(p+1) omega_{N-1} / (2N) = alpha^(p+1) Gamma(0) / 2.

The interaction kernel Gamma(tau) = int |y+tau|^(2-N) (1+|y|^2)^(-(N+2)/2) dy
is radial: |y+tau|^(2-N) is harmonic away from -tau, so its average over
the sphere |y| = r equals max(r, s)^(2-N) with s = |tau|, giving

    Gamma(tau) = omega_{N-1} [ s^(2-N) A(s) + (1+s^2)^(-N/2) / N ],
    A(s) = int_0^s r^(N-1) (1+r^2)^(-(N+2)/2) dr = s^N / (N (1+s^2)^(N/2)),

which sums to Gamma(tau) = (omega_{N-1}/N) (1+s^2)^(-(N-2)/2).  The hole
term w_i (alpha^(p+1) r_i^(N-2)/2) Gamma(tau_i) / (d_i^(N-2)
(1+|tau_i|^2)^((N-2)/2)) is therefore the B_i term above, and Psi, its
gradient and its Hessian at tau = 0 are elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _radial_moment(a, c):
    """int_0^inf r^(a-1) (1+r^2)^(-c) dr = B(a/2, c - a/2) / 2."""
    x, y = a / 2, c - a / 2
    return math.gamma(x) * math.gamma(y) / (2 * math.gamma(x + y))


def constant_b1(dims):
    """b1 = (alpha^(p+1)/N) * omega_{N-1} * int_0^inf r^(N-1)(1+r^2)^(-N) dr."""
    N = dims.N
    return dims.alphaN ** (dims.p + 1) / N * dims.omegaNm1 * _radial_moment(N, N)


def constant_b2(dims):
    """b2 = (alpha^(p+1)/2) * omega_{N-1} * int_0^inf r^(N-1)(1+r^2)^(-(N+2)/2) dr;
    the radial integral is 1/N."""
    return dims.alphaN ** (dims.p + 1) / 2 * dims.omegaNm1 / dims.N


def gamma_kernel(dims, tau):
    """Interaction kernel Gamma(tau) = (omega_{N-1}/N) (1+|tau|^2)^(-(N-2)/2)."""
    return dims.omegaNm1 / dims.N * (1.0 + float(np.sum(np.square(tau)))) ** (-(dims.N - 2) / 2)


@dataclass(frozen=True)
class ReducedEnergyModel:
    """Everything needed to evaluate Psi: per-peak weights, Robin values
    (plain-kernel normalization) and hole radius coefficients."""

    dims: object
    weights: np.ndarray
    robin: np.ndarray
    hole_r: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, float))
        H = np.atleast_1d(np.asarray(self.robin, float))
        r = np.atleast_1d(np.asarray(self.hole_r, float))
        if not (w.shape == H.shape == r.shape):
            raise ValueError("weights, robin, hole_r must have one entry per peak")
        if not (np.all(w > 0) and np.all(H > 0) and np.all(r > 0)):
            raise ValueError("weights, robin values, hole radii must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "robin", H)
        object.__setattr__(self, "hole_r", r)

    @property
    def b1(self):
        return constant_b1(self.dims)

    @property
    def b2(self):
        return constant_b2(self.dims)

    @property
    def n_peaks(self):
        return len(self.weights)

    def hole_coeff(self):
        """B-side coefficients: w_i alpha^(p+1) r_i^(N-2) Gamma(0) / 2,
        i.e. w_i b2 r_i^(N-2)."""
        return self.weights * self.b2 * self.hole_r ** (self.dims.N - 2)

    def robin_coeff(self):
        """A-side coefficients: w_i b2 H_i."""
        return self.weights * self.b2 * self.robin


@dataclass(frozen=True)
class ReducedPoint:
    """Rates d_i and offsets tau_i, constrained to the box X_eta.  d of shape
    (..., m) and tau of shape (..., m, N) hold a stack of points."""

    d: np.ndarray
    tau: np.ndarray
    eta: float = 1e-3

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, float))
        tau = np.asarray(self.tau, float)
        if tau.ndim == 1:
            tau = tau[None, :] if len(d) == 1 else tau
        if tau.shape[0] != len(d):
            raise ValueError("tau must provide one offset vector per peak")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "tau", tau)

    def in_box(self):
        ub = 1.0 / self.eta
        return bool(
            np.all(self.d > self.eta)
            and np.all(self.d < ub)
            and np.all(np.linalg.norm(self.tau, axis=-1) < ub)
        )


def _check_box(pt):
    if not pt.in_box():
        raise ValueError("point outside the box X_eta")


def _hole_terms(model, pt):
    """Per-peak hole terms B_i / (d_i (1+|tau_i|^2))^(N-2) and 1+|tau_i|^2."""
    q = 1.0 + np.sum(pt.tau**2, axis=-1)
    return model.hole_coeff() / (pt.d * q) ** (model.dims.N - 2), q


def _psi(model, pt):
    """Psi at pt, or at each point of a stack: d (..., m), tau (..., m, N)."""
    _check_box(pt)
    hole, _ = _hole_terms(model, pt)
    return np.sum(model.robin_coeff() * pt.d ** (model.dims.N - 2) + hole, axis=-1)


def psi_value(model, pt):
    """Psi(d, tau)."""
    return float(_psi(model, pt))


def psi_grad(model, pt):
    """Analytic gradient (d Psi/d d_i, d Psi/d tau_{i,h}); flat layout
    [d_0..d_{m-1}, tau_{0,1..N}, tau_{1,1..N}, ...]."""
    _check_box(pt)
    k = model.dims.N - 2
    hole, q = _hole_terms(model, pt)
    gd = k * (model.robin_coeff() * pt.d ** (k - 1) - hole / pt.d)
    # vanishes identically at tau = 0 (radial maximum)
    gt = -2 * k * (hole / q)[:, None] * pt.tau
    return np.concatenate([gd, gt.ravel()])


GRAD_CHECK_STEP = 1e-6   # central-difference step of gradient_check
_FD_CHUNK = 1 << 18      # floats of tau per batched Psi call in _fd_grad


def _fd_grad(model, pt, step):
    """Central differences of Psi in the flat layout of psi_grad.  The 2n
    shifted points, n = m (N + 1), are pt plus the rows of [step I; -step I],
    evaluated in batches of about _FD_CHUNK floats of tau each: O(n) memory,
    O(n^2) time as for a loop over the points."""
    m, N = pt.tau.shape
    n = m * (N + 1)
    v = []
    for idx in np.array_split(np.arange(2 * n), -(-2 * n * n // _FD_CHUNK)):
        shifts = np.zeros((len(idx), n))
        shifts[np.arange(len(idx)), idx % n] = np.where(idx < n, step, -step)
        d = pt.d + shifts[:, :m]
        tau = pt.tau + shifts[:, m:].reshape(len(idx), m, N)
        v.append(_psi(model, ReducedPoint(d=d, tau=tau, eta=pt.eta)))
    v = np.concatenate(v)
    return (v[:n] - v[n:]) / (2 * step)


def gradient_check(model, pt):
    """Gap max|fd - grad| / (1 + max|grad|) between the analytic gradient
    and central differences of Psi with step GRAD_CHECK_STEP, at pt."""
    analytic = psi_grad(model, pt)
    gap = np.max(np.abs(_fd_grad(model, pt, GRAD_CHECK_STEP) - analytic))
    return float(gap / (1.0 + np.max(np.abs(analytic))))


def psi_hessian_at_flat(model, d):
    """Analytic Hessian blocks at (d, tau=0): returns (d-block diagonal,
    tau-block diagonal scalars per peak).  Mixed blocks vanish there."""
    k = model.dims.N - 2
    d = np.atleast_1d(np.asarray(d, float))
    B = model.hole_coeff()
    dd = k * ((k - 1) * model.robin_coeff() * d ** (k - 2) + (k + 1) * B / d ** (k + 2))
    return dd, -2 * k * B / d**k


@dataclass(frozen=True)
class CriticalPointReport:
    point: ReducedPoint
    hess_d: np.ndarray       # diagonal of the d-block
    hess_tau: np.ndarray     # per-peak scalar multiplying Id_N in the tau-block
    grad_norm: float
    signature_ok: bool       # d-block positive, tau-block negative
    in_box: bool


def critical_point(model, eta=1e-3):
    """Closed-form critical point (d_tilde, 0) with per-peak
    d_tilde_i = (B_i / A_i)^(1/(2(N-2))), plus Hessian classification."""
    N = model.dims.N
    A = model.robin_coeff()
    B = model.hole_coeff()
    d_t = (B / A) ** (1.0 / (2 * (N - 2)))
    pt = ReducedPoint(d=d_t, tau=np.zeros((model.n_peaks, N)), eta=eta)
    hd, ht = psi_hessian_at_flat(model, d_t)
    grad = psi_grad(model, pt) if pt.in_box() else np.array([np.inf])
    return CriticalPointReport(
        point=pt,
        hess_d=hd,
        hess_tau=ht,
        grad_norm=float(np.max(np.abs(grad))),
        signature_ok=bool(np.all(hd > 0) and np.all(ht < 0)),
        in_box=pt.in_box(),
    )


def energy_expansion(model, epsilon):
    """Leading-order energy: (sum_i w_i) b1 + Psi(d_tilde, 0) eps^((N-2)/2)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rep = critical_point(model)
    return float(np.sum(model.weights)) * model.b1 + psi_value(model, rep.point) * epsilon ** (
        (model.dims.N - 2) / 2
    )
