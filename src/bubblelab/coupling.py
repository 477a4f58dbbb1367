"""Amplitude systems and spectral nondegeneracy of the coupling matrices.

A group of components concentrating at one point carries an amplitude
vector c > 0 solving

    sum_j beta_ij c_i^((p-1)/2) c_j^((p+1)/2) = c_i,   i in the group,

with beta_ii := mu_i.  For N=4 (p=3) this is linear in c_j^2.  For N=3
(p=5) it reads sum_j beta_ij c_i c_j^3 = 1, which is genuinely nonlinear
for k >= 2; we solve it by damped Newton seeded with the linear solve of
sum_j beta_ij s_j = 1 (exact in the symmetric case).  k = 1 always has the
closed form c = mu^(-1/(p-1)).

The linearization data lives in the k x k matrices

    C_ij = beta_ij c_i c_j,      M = Id + 2C,

whose eigenvalues Lambda_l = 1 + 2 Theta_l decide nondegeneracy: the
construction is safe when, besides the always-present simple eigenvalue
Lambda_1 = 3 (eigenvector c), no other Lambda_l hits the known ladder
values 1 or 3.  Eigenvalues above 3 would have to be compared against
ladder entries that are not computed here, so they yield "inconclusive".
The spectral analysis is dimension-4 specific and refuses N=3 input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEGENERACY_TOL = 1e-8
_BOUNDARY_TOL = 1e-12
_LADDER = (1.0, 3.0)   # known prefix (nu_1, nu_2) of the eigenvalue ladder


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
        if not np.all(mu > 0):
            raise ValueError("all mu_i must be positive")
        if not np.allclose(beta, beta.T, rtol=0, atol=0):
            raise ValueError("beta must be symmetric")
        if not np.allclose(np.diag(beta), mu, rtol=0, atol=0):
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
        return (self.N + 2) / (self.N - 2)

    @property
    def n_groups(self):
        return len(self.decomposition) - 1

    def group_indices(self, h):
        if not 0 <= h < self.n_groups:
            raise ValueError(f"group index {h} out of range (have {self.n_groups} groups)")
        lo, hi = self.decomposition[h], self.decomposition[h + 1]
        return range(lo, hi)

    def group_block(self, h):
        idx = list(self.group_indices(h))
        return self.beta[np.ix_(idx, idx)]


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
    an exact zero (within 1e-12) is returned flagged as boundary instead,
    so degenerate edges remain analyzable downstream.
    """
    block = spec.group_block(group)
    k = block.shape[0]
    p = spec.p

    if k == 1:
        c = float(block[0, 0]) ** (-1.0 / (p - 1))
        return CVector(c=np.array([c]), group=group)

    ones = np.ones(k)
    try:
        s = np.linalg.solve(block, ones)  # s_j = c_j^((p+1)/2 - ... ) power vector
    except np.linalg.LinAlgError as exc:
        raise NoPositiveSolution(f"group {group}: singular coupling block") from exc

    if np.any(s < -_BOUNDARY_TOL):
        raise NoPositiveSolution(
            f"group {group}: linear solve gives negative power vector {s}"
        )
    boundary = bool(np.any(np.abs(s) <= _BOUNDARY_TOL))
    s = np.clip(s, 0.0, None)

    if spec.N == 4:
        c = np.sqrt(s)
        return CVector(c=c, group=group, boundary=boundary)

    # N=3: Newton on F(c) = block @ c^3 * c - 1 (componentwise), seeded by the
    # cube-root of the linear solve.  Jacobian: diag(block@c^3) + 3 diag(c) block diag(c^2).
    if boundary:
        raise NoPositiveSolution(f"group {group}: boundary case not supported for N=3")
    c = s ** (1.0 / 3.0)
    for _ in range(100):
        F = block @ c**3 * c - 1.0
        if np.max(np.abs(F)) < 1e-14:
            break
        J = np.diag(block @ c**3) + 3.0 * (c[:, None] * block * (c**2)[None, :])
        step = np.linalg.solve(J, -F)
        lam = 1.0
        norm0 = np.max(np.abs(F))
        while lam > 1e-8:
            trial = c + lam * step
            if np.all(trial > 0):
                Ft = block @ trial**3 * trial - 1.0
                if np.max(np.abs(Ft)) < norm0:
                    break
            lam *= 0.5
        c = c + lam * step
    F = block @ c**3 * c - 1.0
    if np.max(np.abs(F)) > 1e-10 or np.any(c <= 0):
        raise NoPositiveSolution(
            f"group {group}: Newton failed to find a positive solution (residual {F})"
        )
    return CVector(c=c, group=group)


@dataclass(frozen=True)
class SpectrumReport:
    matC: np.ndarray
    thetas: np.ndarray          # eigenvalues of C, descending
    lambdas: np.ndarray         # eigenvalues 1 + 2*thetas of M = Id + 2C
    verdict: str
    reason: str                 # the verdict and the eigenvalue that decided it
    det_identity_gap: float = 0.0   # |det C - prod(c^2) det(beta)| / scale


def _verdict_from_lambdas(lambdas, tol=DEGENERACY_TOL):
    """(verdict, reason).  The reason names the first eigenvalue that meets
    the verdict's condition, in descending order after the structural 3,
    numbered from lambda_2, or says that the structural 3 is missing."""
    nu1, nu2 = _LADDER
    lam = np.sort(np.asarray(lambdas))[::-1]
    near3 = np.abs(lam - nu2) <= tol
    if not np.any(near3):
        # M c = 3c whenever c solves the amplitude system: outside theory
        return "inconclusive", "inconclusive: the structural eigenvalue 3 is missing"
    others = np.delete(lam, np.argmax(near3))
    hits = (np.abs(others - nu2) <= tol) | (np.abs(others - nu1) <= tol)
    verdict, note = "degenerate", ""
    if not np.any(hits):
        # the verdict would need ladder entries beyond (1, 3), which are not computed
        hits = (others >= nu2 + tol) | (others <= -1.0 - tol)
        verdict, note = "inconclusive", " outside the certified ladder range"
    if not np.any(hits):
        return "nondegenerate", "nondegenerate"
    k = int(np.argmax(hits))
    value = float(others[k])
    text = f"{value:.6g}"
    if float(text) in (-1.0, nu1, nu2) and float(text) != value:
        text = repr(value)   # not shown as the ladder value or edge it only lies near
    return verdict, f"{verdict}: lambda_{k + 2} = {text}{note}"


def build_spectrum(spec, cvec):
    """Assemble C_ij = beta_ij c_i c_j; its eigenvalues Theta give those of
    M = Id + 2C as Lambda = 1 + 2 Theta.

    Verifies the structural facts: Lambda = 3 appears with eigenvector c,
    and det C = (prod c_i^2) det(beta block).  N=4 only — the ladder data
    backing the verdicts is specific to dimension 4.
    """
    if spec.N != 4:
        raise ValueError("spectral analysis is defined for N = 4 only")
    block = spec.group_block(cvec.group)
    c = np.asarray(cvec.c, dtype=float)
    if block.shape[0] != c.shape[0]:
        raise ValueError("amplitude vector does not match the group block")

    matC = block * np.outer(c, c)

    # structural identity C c = c (equivalently M c = 3c) holds whenever c
    # solves the amplitude system, boundary cases included
    gap = np.max(np.abs(matC @ c - c)) / max(1.0, np.max(np.abs(c)))
    if gap > 1e-8:
        raise ValueError(
            f"amplitude vector does not solve its system (|Cc - c| = {gap:.2e})"
        )

    thetas = np.linalg.eigvals(matC)
    if np.max(np.abs(thetas.imag)) > 1e-12:
        raise ValueError("coupling matrix has non-real spectrum (should not happen: "
                         "C is a symmetric congruence of the symmetric block)")
    thetas = np.sort(thetas.real)[::-1]
    lambdas = 1.0 + 2.0 * thetas

    det_gap = abs(np.linalg.det(matC) - np.prod(c**2) * np.linalg.det(block))
    scale = max(abs(np.linalg.det(matC)), 1e-300)

    verdict, reason = _verdict_from_lambdas(lambdas)
    return SpectrumReport(
        matC=matC,
        thetas=thetas,
        lambdas=lambdas,
        verdict=verdict,
        reason=reason,
        det_identity_gap=det_gap / scale,
    )
