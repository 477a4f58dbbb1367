import numpy as np
import pytest

from bubblelab.coupling import (
    DEGENERACY_TOL,
    CouplingSpec,
    CVector,
    NoPositiveSolution,
    admissible_beta_range,
    build_spectrum,
    solve_c_vector,
    system_residual,
    _LADDER,
    _verdict_from_lambdas,
)

RNG = np.random.default_rng(4242)


def closed_form_c2(mu1, mu2, beta12):
    """k=2, N=4 closed form: c_i^2 = (beta12 - mu_other) / (beta12^2 - mu1 mu2).

    Returned without a positivity gate so the degenerate boundary
    (beta12 = mu_1 or mu_2, where one entry vanishes) is representable.
    """
    den = beta12**2 - mu1 * mu2
    if den == 0:
        raise NoPositiveSolution("beta12^2 = mu1 mu2: closed form degenerates")
    return (beta12 - mu2) / den, (beta12 - mu1) / den


def two_component_spec(mu1, mu2, beta12, N=4):
    beta = np.array([[mu1, beta12], [beta12, mu2]])
    return CouplingSpec(N=N, m=2, mu=np.array([mu1, mu2]), beta=beta, decomposition=(0, 2))


def draw_admissible_pair(rng):
    """Random (mu1, mu2, beta12) in the two-component existence window."""
    mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
    if rng.random() < 0.5:
        beta12 = rng.uniform(-0.95 * np.sqrt(mu1 * mu2), 0.95 * min(mu1, mu2))
    else:
        beta12 = rng.uniform(1.05 * max(mu1, mu2), 3.0 * max(mu1, mu2))
    return mu1, mu2, beta12


def test_reference_amplitudes():
    spec = two_component_spec(1.0, 2.0, -0.5)
    cv = solve_c_vector(spec, 0)
    assert cv.c[0] ** 2 == pytest.approx(10 / 7, abs=1e-12)
    assert cv.c[1] ** 2 == pytest.approx(6 / 7, abs=1e-12)
    # agrees with the closed form
    c1sq, c2sq = closed_form_c2(1.0, 2.0, -0.5)
    assert (c1sq, c2sq) == (pytest.approx(10 / 7, abs=1e-14), pytest.approx(6 / 7, abs=1e-14))
    assert np.max(np.abs(system_residual(spec.group_block(0), cv.c, spec.p))) < 1e-12


def test_symmetric_two_component():
    mu = 1.7
    spec = two_component_spec(mu, mu, 0.4)
    cv = solve_c_vector(spec, 0)
    np.testing.assert_allclose(cv.c**2, 1.0 / (mu + 0.4), rtol=1e-14)


def test_single_component_closed_form():
    for N in (3, 4):
        p = 5.0 if N == 3 else 3.0
        mu = 2.3
        spec = CouplingSpec(
            N=N, m=1, mu=np.array([mu]), beta=np.array([[mu]]), decomposition=(0, 1)
        )
        cv = solve_c_vector(spec, 0)
        assert cv.c[0] == pytest.approx(mu ** (-1 / (p - 1)), rel=1e-14)


def test_residuals_on_randomized_admissible_specs():
    for _ in range(100):
        mu1, mu2, b12 = draw_admissible_pair(RNG)
        spec = two_component_spec(mu1, mu2, b12)
        cv = solve_c_vector(spec, 0)
        assert np.all(cv.c > 0)
        res = system_residual(spec.group_block(0), cv.c, spec.p)
        assert np.max(np.abs(res)) < 1e-10


def test_n3_multicomponent_newton():
    # N=3 groups with k >= 2: the system sum_j beta_ij c_i c_j^3 = 1 is
    # nonlinear; Newton must still satisfy the full residual
    for _ in range(25):
        mu = RNG.uniform(0.5, 2.0, size=2)
        b12 = RNG.uniform(0.05, 0.9) * min(mu)
        beta = np.array([[mu[0], b12], [b12, mu[1]]])
        spec = CouplingSpec(N=3, m=2, mu=mu, beta=beta, decomposition=(0, 2))
        cv = solve_c_vector(spec, 0)
        assert np.all(cv.c > 0)
        res = system_residual(spec.group_block(0), cv.c, spec.p)
        assert np.max(np.abs(res)) < 1e-10
    # symmetric sanity: mu1 = mu2, beta > 0 gives equal amplitudes
    spec = two_component_spec(1.0, 1.0, 0.5, N=3)
    cv = solve_c_vector(spec, 0)
    assert cv.c[0] == pytest.approx(cv.c[1], rel=1e-12)
    # and matches the k=1 scalar law with effective mu + beta: c^4 (mu+beta) = 1
    assert cv.c[0] == pytest.approx(1.5 ** (-0.25), rel=1e-10)


def test_admissible_range_predicate():
    adm = admissible_beta_range(1.0, 2.0)
    assert adm(-0.5)
    assert not adm(1.0)         # beta12 = mu_1: degenerate edge
    assert not adm(np.sqrt(2))  # between min and max
    assert adm(3.0)
    assert not adm(-np.sqrt(2))


def test_no_positive_solution_raises():
    # beta inside the forbidden middle window: one c^2 negative
    spec = two_component_spec(1.0, 2.0, 1.5)
    with pytest.raises(NoPositiveSolution):
        solve_c_vector(spec, 0)


def test_boundary_case_flagged_not_raised():
    spec = two_component_spec(1.0, 2.0, 1.0)  # beta12 = mu1
    cv = solve_c_vector(spec, 0)
    assert cv.boundary
    assert cv.c[0] == pytest.approx(1.0, abs=1e-12)
    assert cv.c[1] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_reference_case():
    spec = two_component_spec(1.0, 2.0, -0.5)
    cv = solve_c_vector(spec, 0)
    rep = build_spectrum(spec, cv)
    # Lambda = 3 present with eigenvector c; Theta ladder relation exact
    assert np.min(np.abs(rep.lambdas - 3.0)) < 1e-10
    np.testing.assert_allclose(rep.lambdas, 1 + 2 * rep.thetas, atol=1e-12)
    matM = np.eye(2) + 2.0 * rep.matC
    np.testing.assert_allclose(matM @ cv.c, 3 * cv.c, atol=1e-12)
    # the competitive branch pushes the second eigenvalue above 3:
    # Lambda_2 = 3 - 2*beta*(c1^2+c2^2) = 37/7
    assert np.max(rep.lambdas) == pytest.approx(37 / 7, rel=1e-12)
    assert rep.verdict == "inconclusive"
    # the 2x2 closed form of M's eigenvalues (entries of M = Id + 2C
    # rewritten with the amplitude system) matches the dense eigensolve
    (mu1, b12), (_, mu2) = spec.group_block(0)
    c1, c2 = cv.c
    a11 = 3 * mu1 * c1**2 + b12 * c2**2
    a22 = 3 * mu2 * c2**2 + b12 * c1**2
    a12 = 2 * b12 * c1 * c2
    np.testing.assert_allclose(matM, [[a11, a12], [a12, a22]], rtol=1e-12)
    disc = np.sqrt((a11 - a22) ** 2 + 4 * a12**2)
    closed = ((a11 + a22 + disc) / 2, (a11 + a22 - disc) / 2)
    np.testing.assert_allclose(sorted(closed), np.sort(rep.lambdas), rtol=1e-12)
    # det identity
    assert rep.det_identity_gap < 1e-10


def test_spectrum_cooperative_case_nondegenerate():
    spec = two_component_spec(1.0, 2.0, 3.0)  # beta12 > max(mu)
    cv = solve_c_vector(spec, 0)
    rep = build_spectrum(spec, cv)
    assert rep.verdict == "nondegenerate"
    others = np.sort(rep.lambdas)[:-1]
    assert np.all((others > -1) & (others < 3)) and np.all(np.abs(others - 1) > 1e-8)


def test_degenerate_boundary_lambda2_equals_1():
    spec = two_component_spec(1.0, 2.0, 1.0)
    cv = solve_c_vector(spec, 0)
    rep = build_spectrum(spec, cv)
    assert np.min(np.abs(rep.lambdas - 1.0)) < 1e-10
    assert rep.verdict == "degenerate"


def named(value):
    """An eigenvalue as a reason writes it: .6g, but repr where the .6g text
    reads as the ladder value or edge -1, 1 or 3 and the value is not it."""
    text = f"{value:.6g}"
    if text in ("-1", "1", "3") and value != float(text):
        return repr(float(value))
    return text


def spectrum_message(verdict, lambdas):
    """The CLI's former message for a spectrum verdict, worked out again
    from the eigenvalues: the first one, in descending order after the
    structural 3, that meets the verdict's condition, written by named."""
    lam = np.sort(lambdas)[::-1]
    if verdict == "nondegenerate":
        return "nondegenerate"
    near3 = np.abs(lam - 3.0) <= 1e-8
    if np.any(near3):
        first = int(np.argmax(near3))
        others = np.delete(lam, first)
    else:
        others = lam
    for k, v in enumerate(others):
        if verdict == "degenerate" and (abs(v - 1.0) <= 1e-8 or abs(v - 3.0) <= 1e-8):
            return f"degenerate: lambda_{k + 2} = {named(v)}"
        if verdict == "inconclusive" and (v > 3.0 + 1e-8 or v < -1.0 - 1e-8):
            return (
                f"inconclusive: lambda_{k + 2} = {named(v)} outside the certified "
                "ladder range"
            )
    return verdict


MISSING_3 = ("inconclusive", "inconclusive: the structural eigenvalue 3 is missing")

# Where the former message was wrong or bare: a missing structural 3, and
# values exactly at a +-tol edge, named by the verdict's own >= / <= tests.
PINNED_REASONS = {
    (2.5, 0.5): MISSING_3,
    (4.0, 2.5, -3.0): MISSING_3,
    (3.0 + DEGENERACY_TOL, 3.0, 0.0): ("degenerate", "degenerate: lambda_2 = 3"),
    (3.0, -1.0 - DEGENERACY_TOL, 0.5): (
        "inconclusive",
        "inconclusive: lambda_3 = -1.00000001 outside the certified ladder range"),
}


def has_structural_3(lambdas):
    return bool(np.any(np.abs(np.asarray(lambdas) - 3.0) <= DEGENERACY_TOL))


@pytest.mark.parametrize("lambdas", [
    [3.0, 0.5, -0.5],                  # nondegenerate
    [3.0, 3.0, 0.2],                   # second 3: degenerate
    [3.0 + 5e-9, 1.0 - 5e-9, 0.1],     # ladder hits within the tolerance
    [4.0, 3.0, 1.0],                   # degenerate wins over beyond-ladder
    [5.0, 3.0, 0.0],                   # inconclusive: above the ladder
    [3.0, -2.0, -1.5],                 # inconclusive: below -1
    [2.5, 0.5],                        # structural 3 missing
    [4.0, 2.5, -3.0],                  # 3 missing, named outside values
    [3.0 + DEGENERACY_TOL, 3.0, 0.0],  # 3 + tol still counts as a second 3
    [3.0, -1.0 - DEGENERACY_TOL, 0.5],  # exactly -1 - tol: named as the verdict tests it
    [3.0, 1.0 + 2e-8, 1.0 - 2e-8],     # just off the ladder
])
def test_spectrum_reason_matches_former_message(lambdas):
    """The former message wherever it was right; the pinned reason where not."""
    verdict, reason = _verdict_from_lambdas(np.array(lambdas))
    pinned = PINNED_REASONS.get(tuple(lambdas))
    if pinned is None:
        assert reason == spectrum_message(verdict, np.array(lambdas))
    else:
        assert (verdict, reason) == pinned


@pytest.mark.parametrize("lambdas, reason", [
    ([3.0, -1.0 - 1e-8, 0.5],
     "inconclusive: lambda_3 = -1.00000001 outside the certified ladder range"),
    ([3.0, 3.0 + 2e-8, 0.0],
     "inconclusive: lambda_2 = 3.00000002 outside the certified ladder range"),
    ([3.0, 1.0 + 5e-9, 0.0], "degenerate: lambda_2 = 1.000000005"),
    ([3.0, 3.0 - 5e-9, 0.0], "degenerate: lambda_2 = 2.999999995"),
    # values the .6g text shows as they are keep their bytes
    ([3.0, 3.0, 0.0], "degenerate: lambda_2 = 3"),
    ([3.0, 1.0, 0.0], "degenerate: lambda_2 = 1"),
    ([5.0, 3.0, 0.0], "inconclusive: lambda_2 = 5 outside the certified ladder range"),
    ([3.0, -1.5, 0.0], "inconclusive: lambda_3 = -1.5 outside the certified ladder range"),
    ([3.0, 37.0 / 7.0],
     "inconclusive: lambda_2 = 5.28571 outside the certified ladder range"),
])
def test_spectrum_reason_never_shows_a_value_as_the_ladder_edge(lambdas, reason):
    assert _verdict_from_lambdas(np.array(lambdas))[1] == reason


def test_random_spectrum_reasons_match_former_message():
    verdicts, missing = set(), 0
    for _ in range(2000):
        k = int(RNG.integers(1, 6))
        lam = np.concatenate([[3.0], RNG.choice([-1.0, 1.0, 3.0], k) + RNG.choice(
            [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.7, -0.7, 3.0], k)])
        if RNG.random() < 0.2:
            lam = lam[1:] if k > 1 else lam + 0.1
        verdict, reason = _verdict_from_lambdas(RNG.permutation(lam))
        if has_structural_3(lam):
            assert reason == spectrum_message(verdict, lam)
        else:
            missing += 1
            assert (verdict, reason) == MISSING_3
        verdicts.add(verdict)
    assert verdicts == {"nondegenerate", "degenerate", "inconclusive"}
    assert 200 < missing < 600


def test_spectrum_report_carries_reason():
    for beta12, verdict in ((3.0, "nondegenerate"), (1.0, "degenerate"), (-0.5, "inconclusive")):
        spec = two_component_spec(1.0, 2.0, beta12)
        rep = build_spectrum(spec, solve_c_vector(spec, 0))
        assert rep.verdict == verdict
        assert rep.reason == spectrum_message(rep.verdict, rep.lambdas)
        assert rep.reason.startswith(verdict)


def test_perron_frobenius_on_random_positive_blocks():
    # positive invertible blocks with positive amplitude vectors: Lambda_1 = 3
    # simple, positive principal eigenvector, all |Theta_l| < 1
    produced = 0
    while produced < 100:
        k = int(RNG.integers(1, 4))
        mu = RNG.uniform(0.5, 3.0, size=k)
        off = RNG.uniform(0.05, 1.5, size=(k, k))
        beta = np.triu(off, 1)
        beta = beta + beta.T + np.diag(mu)
        spec = CouplingSpec(N=4, m=k, mu=mu, beta=beta, decomposition=(0, k))
        try:
            cv = solve_c_vector(spec, 0)
        except NoPositiveSolution:
            continue
        if cv.boundary:
            continue
        rep = build_spectrum(spec, cv)
        produced += 1
        assert abs(np.max(rep.lambdas) - 3.0) < 1e-10
        assert np.sum(np.abs(rep.lambdas - 3.0) < 1e-8) == 1  # simple
        assert np.all(np.abs(rep.thetas) < 1.0 + 1e-12)
        # principal eigenvector: eigenvalue of largest modulus, sign-normalized
        w, V = np.linalg.eigh(0.5 * (rep.matC + rep.matC.T))
        vec = V[:, int(np.argmax(np.abs(w)))]
        vec = -vec if vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]] < 0 else vec
        assert np.all(vec > 0)
        np.testing.assert_allclose(vec, cv.c / np.linalg.norm(cv.c), rtol=1e-8)
        # det C = prod(c^2) det(beta)
        assert rep.det_identity_gap < 1e-10
        # trace/determinant consistency for k=2
        if k == 2:
            lam = rep.lambdas
            matM = np.eye(2) + 2.0 * rep.matC
            assert lam.sum() == pytest.approx(np.trace(matM), rel=1e-10)
            assert lam.prod() == pytest.approx(np.linalg.det(matM), rel=1e-10)


def test_alternative_lambda_formula_k2():
    for _ in range(20):
        mu1, mu2, b12 = draw_admissible_pair(RNG)
        spec = two_component_spec(mu1, mu2, b12)
        cv = solve_c_vector(spec, 0)
        rep = build_spectrum(spec, cv)
        S = np.sum(cv.c**2)
        alt = np.sort([3.0, 3.0 - 2 * b12 * S])
        np.testing.assert_allclose(np.sort(rep.lambdas), alt, rtol=1e-10)


def test_spectrum_refuses_n3():
    spec = two_component_spec(1.0, 1.0, 0.3, N=3)
    cv = solve_c_vector(spec, 0)
    with pytest.raises(ValueError, match="N = 4"):
        build_spectrum(spec, cv)


def test_ladder_prefix():
    lad = _LADDER
    assert lad == (1.0, 3.0)
    assert list(lad) == sorted(lad)
    assert len(lad) == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(N=4, m=2, mu=np.array([1.0, -1.0]),
                     beta=np.array([[1.0, 0.0], [0.0, -1.0]]), decomposition=(0, 2))
    with pytest.raises(ValueError):
        CouplingSpec(N=4, m=2, mu=np.array([1.0, 1.0]),
                     beta=np.array([[1.0, 0.2], [0.3, 1.0]]), decomposition=(0, 2))
    with pytest.raises(ValueError):
        two_component_spec(1.0, 2.0, 0.0).group_block(5)
