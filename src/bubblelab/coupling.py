"""Amplitude systems and spectral nondegeneracy of the coupling matrices.

A group of components concentrating at one point carries an amplitude
vector c > 0 solving

    sum_j beta_ij c_i^((p-1)/2) c_j^((p+1)/2) = c_i,   i in the group,

with beta_ii := mu_i.  For N=4 (p=3) this is linear in c_j^2.  For N=3
(p=5) it reads sum_j beta_ij c_i c_j^3 = 1, which is genuinely nonlinear
for k >= 2; we solve it by damped Newton seeded with c = s^(1/3), where s
solves sum_j beta_ij s_j = 1 (an approximate seed: the symmetric root is
c = s^(1/4)).  k = 1 always has the closed form c = mu^(-1/(p-1)).  Groups
are contiguous, so a group's block of beta is a slice copy.  Reductions
call the ufuncs' `reduce` (np.maximum.reduce, np.logical_and.reduce, ...),
the call that the ndarray methods make after a Python frame of numpy's.

At u_i = c_i U the linearization is -Lap phi = U^(p-1) M phi, with

    C_ij = beta_ij (c_i c_j)^((p-1)/2),      M = (p-1)/2 Id + (p+1)/2 C.

C c = c, so Lambda = p is always an eigenvalue of M.  The group is
degenerate iff another eigenvalue of M equals a weighted eigenvalue
nu_k = (2k+N)(2k+N-2) / (N(N-2)) of -Lap phi = nu U^(p-1) phi in
D^{1,2}(R^N): 1, 3, 6, 10, ... for N=4 and 1, 5, 35/3, 21, ... for N=3
(G. Bianchi and H. Egnell, J. Funct. Anal. 100 (1991)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import dims_for

DEGENERACY_TOL = 1e-8
_BOUNDARY_TOL = 1e-12   # relative to the largest entry of the power vector


class NoPositiveSolution(ValueError):
    """The group's amplitude system has no positive solution; the message
    begins "group h: "."""


@dataclass(frozen=True)
class CouplingSpec:
    """Algebraic data (N, m, mu, beta, group decomposition) of the system.

    `decomposition` is the strictly increasing tuple (l_0, ..., l_q) with
    l_0 = 0 and l_q = m; group h covers component indices [l_{h-1}, l_h).
    """

    N: int
    m: int
    mu: np.ndarray
    beta: np.ndarray
    decomposition: tuple

    def __post_init__(self):
        if self.N not in (3, 4):
            raise ValueError("N must be 3 or 4")
        mu = np.asarray(self.mu, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if mu.shape != (self.m,):
            raise ValueError("mu must have one entry per component")
        if beta.shape != (self.m, self.m):
            raise ValueError("beta must be m x m")
        if not np.logical_and.reduce(mu > 0):
            raise ValueError("all mu_i must be positive")
        if not np.logical_and.reduce(beta == beta.T, axis=None):
            raise ValueError("beta must be symmetric")
        if not np.logical_and.reduce(beta.diagonal() == mu):
            raise ValueError("beta_ii must equal mu_i")
        dec = tuple(int(v) for v in self.decomposition)
        if (len(dec) < 2 or dec[0] != 0 or dec[-1] != self.m
                or any(b <= a for a, b in zip(dec, dec[1:]))):
            raise ValueError("decomposition must be strictly increasing from 0 to m")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "decomposition", dec)

    @property
    def p(self):
        return dims_for(self.N).p

    @property
    def n_groups(self):
        return len(self.decomposition) - 1

    def group_indices(self, h):
        if not 0 <= h < self.n_groups:
            raise ValueError(f"group index {h} out of range (have {self.n_groups} groups)")
        lo, hi = self.decomposition[h], self.decomposition[h + 1]
        return range(lo, hi)

    def group_block(self, h):
        idx = self.group_indices(h)
        return self.beta[idx.start:idx.stop, idx.start:idx.stop].copy()


@dataclass(frozen=True)
class CVector:
    """Positive amplitude vector for one group.

    `boundary` marks the degenerate edge where some c_i = 0 exactly (e.g.
    beta_12 = mu_1): the vector still satisfies the system but is not a
    strictly positive interior solution.
    """

    c: np.ndarray
    group: int
    boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))


def system_residual(block, c, p):
    """Componentwise residual of the amplitude system for one group."""
    c = np.asarray(c, dtype=float)
    e1, e2 = (p - 1) / 2, (p + 1) / 2
    return block @ (c**e2) * c**e1 - c


def admissible_beta_range(mu1, mu2):
    """Predicate on beta_12 for the two-component existence window:
    (-sqrt(mu1 mu2), min(mu1, mu2)) union (max(mu1, mu2), +inf)."""
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("mu must be positive")
    lo = -np.sqrt(mu1 * mu2)
    a, b = min(mu1, mu2), max(mu1, mu2)

    def admissible(beta12):
        return (lo < beta12 < a) or (beta12 > b)

    return admissible


def solve_c_vector(spec, group):
    """Solve the group's amplitude system for c > 0.

    N=4: linear solve for c^2.  N=3: k=1 closed form, else damped Newton on
    the full system (the N=3 system is not linear in any power of c for
    k >= 2).  Raises NoPositiveSolution when some power comes out negative;
    an exact zero (within 1e-12 of the largest power) is returned flagged as
    boundary instead, so degenerate edges remain analyzable downstream.
    """
    block = spec.group_block(group)
    k = block.shape[0]
    p = spec.p

    if k == 1:
        c = float(block[0, 0]) ** (-1.0 / (p - 1))
        return CVector(c=np.array([c]), group=group)

    ones = np.ones(k)
    try:
        s = np.linalg.solve(block, ones)  # block @ s = 1: c^2 for N=4; c = s^(1/3) seeds N=3
    except np.linalg.LinAlgError as exc:
        raise NoPositiveSolution(f"group {group}: singular coupling block") from exc

    tol = _BOUNDARY_TOL * np.maximum.reduce(np.abs(s))
    if np.logical_or.reduce(s < -tol):
        raise NoPositiveSolution(
            f"group {group}: linear solve gives negative power vector {s}"
        )
    boundary = bool(np.logical_or.reduce(np.abs(s) <= tol))
    s = np.maximum(s, 0.0)   # what np.clip(s, 0.0, None) computes, -0.0 included

    if spec.N == 4:
        c = np.sqrt(s)
        return CVector(c=c, group=group, boundary=boundary)

    # N=3: Newton on F(c) = block @ c^3 * c - 1 (componentwise), seeded by the
    # cube-root of the linear solve.  Jacobian: diag(block@c^3) + 3 diag(c) block diag(c^2).
    if boundary:
        raise NoPositiveSolution(f"group {group}: boundary case not supported for N=3")

    def evaluate(x):   # block @ x^3, the residual F(x) and its max-norm
        bx = block @ x**3
        Fx = bx * x - 1.0
        return bx, Fx, np.maximum.reduce(np.abs(Fx))

    # an accepted trial brings its evaluation into the next step
    c = s ** (1.0 / 3.0)
    bc3, F, norm = evaluate(c)
    for _ in range(100):
        if norm < 1e-14:
            break
        J = np.diag(bc3) + 3.0 * (c[:, None] * block * (c**2)[None, :])
        step = np.linalg.solve(J, -F)
        lam = 1.0
        while lam > 1e-8:
            trial = c + lam * step
            if np.logical_and.reduce(trial > 0):
                bt, Ft, nt = evaluate(trial)
                if nt < norm:
                    break
            lam *= 0.5
        else:   # no trial accepted: the step, cut below 1e-8, is taken untried
            trial = c + lam * step
            bt, Ft, nt = evaluate(trial)
        c, bc3, F, norm = trial, bt, Ft, nt
    if norm > 1e-10 or np.logical_or.reduce(c <= 0):
        raise NoPositiveSolution(
            f"group {group}: Newton failed to find a positive solution (residual {F})"
        )
    return CVector(c=c, group=group)


@dataclass(frozen=True)
class SpectrumReport:
    matC: np.ndarray
    thetas: np.ndarray          # eigenvalues of C, descending
    lambdas: np.ndarray         # eigenvalues (p-1)/2 + (p+1)/2 thetas of M
    verdict: str
    reason: str                 # the verdict and the eigenvalue that decided it


def _nearest_nu(lam, N):
    """The weighted eigenvalue nu_k of the bubble nearest to lam:
    nu N(N-2) + 1 = (2k+N-1)^2 solved for k, rounded, and k >= 0."""
    n2 = N * (N - 2)
    k = max(round((math.sqrt(max(lam * n2 + 1.0, 0.0)) - N + 1) / 2), 0)
    return (2 * k + N) * (2 * k + N - 2) / n2


def _verdict_from_lambdas(lambdas, N):
    """(verdict, reason).  The reason names the first eigenvalue within
    DEGENERACY_TOL of some nu_k, in descending order after the structural
    p, numbered from lambda_2, or says that the structural p is missing."""
    p = dims_for(N).p
    lam = sorted(map(float, lambdas), reverse=True)
    i = next((i for i, value in enumerate(lam) if abs(value - p) <= DEGENERACY_TOL), None)
    if i is None:
        # M c = p c whenever c solves the amplitude system: outside theory
        return "inconclusive", f"inconclusive: the structural eigenvalue {p:g} is missing"
    del lam[i]
    for k, value in enumerate(lam):
        if abs(value - _nearest_nu(value, N)) <= DEGENERACY_TOL:
            text = f"{value:.6g}"
            shown = float(text)
            if shown != value and shown == _nearest_nu(shown, N):
                text = repr(value)   # not shown as the ladder value it only lies near
            return "degenerate", f"degenerate: lambda_{k + 2} = {text}"
    return "nondegenerate", "nondegenerate"


def build_spectrum(spec, cvec):
    """Assemble C_ij = beta_ij (c_i c_j)^((p-1)/2); its eigenvalues Theta
    give those of M = (p-1)/2 Id + (p+1)/2 C as Lambda = (p-1)/2 + (p+1)/2 Theta.

    Verifies that c solves its system, C c = c: then Lambda = p appears
    with eigenvector c.
    """
    block = spec.group_block(cvec.group)
    c = np.asarray(cvec.c, dtype=float)
    if block.shape[0] != c.shape[0]:
        raise ValueError("amplitude vector does not match the group block")
    p = spec.p

    matC = block * (c[:, None] * c) ** ((p - 1) / 2)

    # structural identity C c = c (equivalently M c = p c) holds whenever c
    # solves the amplitude system, boundary cases included
    gap = np.maximum.reduce(np.abs(matC @ c - c)) / max(1.0, np.maximum.reduce(np.abs(c)))
    if gap > 1e-8:
        raise ValueError(
            f"amplitude vector does not solve its system (|Cc - c| = {gap:.2e})"
        )

    # C is symmetric bit for bit (CouplingSpec requires beta == beta^T)
    thetas = np.linalg.eigvalsh(matC)[::-1]
    lambdas = (p - 1) / 2 + (p + 1) / 2 * thetas

    verdict, reason = _verdict_from_lambdas(lambdas, spec.N)
    return SpectrumReport(
        matC=matC,
        thetas=thetas,
        lambdas=lambdas,
        verdict=verdict,
        reason=reason,
    )
