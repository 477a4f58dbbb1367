import itertools

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from bubblelab.coupling import (
    DEGENERACY_TOL,
    CouplingSpec,
    CVector,
    NoPositiveSolution,
    admissible_beta_range,
    build_spectrum,
    solve_c_vector,
    system_residual,
    _verdict_from_lambdas,
)
from oracles import det_identity_gap, reference_solve_c_vector

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


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("beta12", [1e13, 1e15])
def test_strong_coupling_is_an_interior_solution(N, beta12):
    # beta_12 > max(mu) is admissible however large; the powers s = O(1/beta_12)
    # are small but far from the boundary relative to their own size
    spec = two_component_spec(1.0, 2.0, beta12, N)
    cv = solve_c_vector(spec, 0)
    assert not cv.boundary and np.all(cv.c > 0)
    res = system_residual(spec.group_block(0), cv.c, spec.p)
    assert np.max(np.abs(res)) <= 1e-10 * np.max(cv.c)
    # nearly symmetric: beta_12 c^(p-1) -> 1
    np.testing.assert_allclose(cv.c, beta12 ** (-1.0 / (spec.p - 1)), rtol=1e-6)
    assert build_spectrum(spec, cv).verdict == "nondegenerate"


@pytest.mark.parametrize("beta12", [1.0, 2.0])
def test_coupling_at_mu_stays_a_boundary(beta12):
    spec = two_component_spec(1.0, 2.0, beta12)
    cv = solve_c_vector(spec, 0)
    assert cv.boundary and np.min(cv.c) == 0.0
    with pytest.raises(NoPositiveSolution, match="boundary case not supported for N=3"):
        solve_c_vector(two_component_spec(1.0, 2.0, beta12, N=3), 0)


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
    # Lambda_2 = 3 - 2*beta*(c1^2+c2^2) = 37/7, between the rungs 3 and 6
    assert np.max(rep.lambdas) == pytest.approx(37 / 7, rel=1e-12)
    assert rep.verdict == "nondegenerate"
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
    assert det_identity_gap(spec, cv, rep) < 1e-10


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


# The weighted eigenvalues nu_0..nu_3 of the bubble, written out by hand and
# pinned by test_ladder_prefix's Poschl-Teller check, not by the library.
LADDER = {4: (1.0, 3.0, 6.0, 10.0), 3: (1.0, 5.0, 35.0 / 3.0, 21.0)}
# nu_4: the eigenvalues handed to the oracle stay below it
LADDER_TOP = {4: 15.0, 3: 33.0}


def named(value, N=4):
    """An eigenvalue as a reason writes it: .6g, but repr where the .6g text
    reads as a ladder value and the value is not it."""
    text = f"{value:.6g}"
    if float(text) in LADDER[N] + (LADDER_TOP[N],) and value != float(text):
        return repr(float(value))
    return text


def spectrum_message(lambdas, N=4):
    """(verdict, reason) worked out again from the eigenvalues against the
    hand-written ladder: the structural p = nu_1 is taken out, and the first
    other eigenvalue, in descending order, within 1e-8 of a ladder value
    makes the group degenerate; the message is written as the spectrum
    task has always written it."""
    rungs = np.array(LADDER[N])
    lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    assert lam.max() < LADDER_TOP[N] - 1.0   # the hand-written prefix covers them
    near_p = np.abs(lam - rungs[1]) <= 1e-8
    if not near_p.any():
        return "inconclusive", f"inconclusive: the structural eigenvalue {rungs[1]:g} is missing"
    others = np.delete(lam, int(np.argmax(near_p)))
    for k, v in enumerate(others):
        if np.any(np.abs(v - rungs) <= 1e-8):
            return "degenerate", f"degenerate: lambda_{k + 2} = {named(v, N)}"
    return "nondegenerate", "nondegenerate"


@pytest.mark.parametrize("lambdas", [
    [3.0, 0.5, -0.5],                  # nondegenerate
    [3.0, 3.0, 0.2],                   # second 3: degenerate
    [3.0 + 5e-9, 1.0 - 5e-9, 0.1],     # ladder hits within the tolerance
    [6.0, 3.0, 1.0],                   # the first hit in descending order is named
    [5.0, 3.0, 0.0],                   # above 3 and off the ladder
    [3.0, -2.0, -1.5],                 # below nu_0 = 1: no kernel
    [2.5, 0.5],                        # structural 3 missing
    [4.0, 2.5, -3.0],                  # 3 missing
    [3.0 + DEGENERACY_TOL, 3.0, 0.0],  # 3 + tol still counts as a second 3
    [10.0 - 5e-9, 3.0, -1.0 - 1e-8],   # a hit on nu_3; -1 is no ladder value
    [3.0, 6.0 + 2e-8, 6.0 - 2e-8],     # just off the ladder
])
def test_spectrum_reason_matches_former_message(lambdas):
    """Verdict and reason meet the hand-written ladder, in the message form
    the spectrum task has always written."""
    assert _verdict_from_lambdas(np.array(lambdas), 4) == spectrum_message(lambdas)


@pytest.mark.parametrize("lambdas, reason", [
    # once "outside the certified ladder range"; -1 and values above 3 that
    # miss every nu_k are nondegenerate
    ([3.0, -1.0 - 1e-8, 0.5], "nondegenerate"),
    ([3.0, 3.0 + 2e-8, 0.0], "nondegenerate"),
    ([3.0, 1.0 + 5e-9, 0.0], "degenerate: lambda_2 = 1.000000005"),
    ([3.0, 3.0 - 5e-9, 0.0], "degenerate: lambda_2 = 2.999999995"),
    # values the .6g text shows as they are keep their bytes
    ([3.0, 3.0, 0.0], "degenerate: lambda_2 = 3"),
    ([3.0, 1.0, 0.0], "degenerate: lambda_2 = 1"),
    ([5.0, 3.0, 0.0], "nondegenerate"),
    ([3.0, -1.5, 0.0], "nondegenerate"),
    ([3.0, 37.0 / 7.0], "nondegenerate"),
    # the higher ladder values are named as 1 and 3 are
    ([3.0, 6.0 + 5e-9, 0.0], "degenerate: lambda_2 = 6.000000005"),
    ([10.0, 3.0, 0.0], "degenerate: lambda_2 = 10"),
    ([3.0, 15.0 - 2e-9, 0.0], "degenerate: lambda_2 = 14.999999998"),
])
def test_spectrum_reason_never_shows_a_value_as_the_ladder_edge(lambdas, reason):
    assert _verdict_from_lambdas(np.array(lambdas), 4)[1] == reason


@pytest.mark.parametrize("lambdas, reason", [
    ([5.0, 35.0 / 3.0 + 1e-9], "degenerate: lambda_2 = 11.6667"),
    ([5.0, 21.0 - 1e-9, 0.0], "degenerate: lambda_2 = 20.999999999"),
    ([5.0 + 5e-9, 1.0 - 5e-9], "degenerate: lambda_2 = 0.999999995"),
    ([5.0, 5.0, 2.0], "degenerate: lambda_2 = 5"),
    ([5.0, 6.0, 3.0, 10.0], "nondegenerate"),   # N=4 ladder values are not N=3 ones
    ([3.0, 1.5], "inconclusive: the structural eigenvalue 5 is missing"),
])
def test_spectrum_reasons_at_n3(lambdas, reason):
    assert _verdict_from_lambdas(np.array(lambdas), 3) == spectrum_message(lambdas, 3)
    assert _verdict_from_lambdas(np.array(lambdas), 3)[1] == reason


def test_random_spectrum_reasons_match_former_message():
    verdicts, missing = set(), 0
    for _ in range(2000):
        N = int(RNG.choice([3, 4]))
        k = int(RNG.integers(1, 6))
        lam = np.concatenate([[LADDER[N][1]], RNG.choice(LADDER[N], k) + RNG.choice(
            [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.7, -0.7, 3.0], k)])
        if RNG.random() < 0.2:
            lam = lam[1:] if k > 1 else lam + 0.1
        verdict, reason = _verdict_from_lambdas(RNG.permutation(lam), N)
        assert (verdict, reason) == spectrum_message(lam, N)
        missing += verdict == "inconclusive"
        verdicts.add(verdict)
    assert verdicts == {"nondegenerate", "degenerate", "inconclusive"}
    assert 200 < missing < 600


def test_spectrum_report_carries_reason():
    for N in (3, 4):
        for beta12, verdict in ((3.0, "nondegenerate"), (1.0, "degenerate"),
                                (-0.5, "nondegenerate")):
            spec = two_component_spec(1.0, 2.0, beta12, N)
            if N == 3 and beta12 == 1.0:   # the N=3 solve refuses the boundary
                continue
            rep = build_spectrum(spec, solve_c_vector(spec, 0))
            assert (rep.verdict, rep.reason) == spectrum_message(rep.lambdas, N)
            assert rep.verdict == verdict


def _two_component_report(beta12, N):
    spec = two_component_spec(1.0, 2.0, beta12, N)
    return build_spectrum(spec, solve_c_vector(spec, 0))


def _tuned_report(target, N):
    """Bisect beta_12 in (-sqrt(mu1 mu2), 0), where the second eigenvalue
    falls from +inf to p, until it equals `target`."""
    lo, hi = -np.sqrt(2.0) * (1 - 1e-9), 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return _two_component_report(hi, N)
        if _two_component_report(mid, N).lambdas.max() > target:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("N, nu", [(4, 6.0), (3, 35.0 / 3.0)])
def test_tuned_coupling_meets_the_ladder(N, nu):
    # mu = (1, 2), beta_12 tuned so that the second eigenvalue is nu_2
    rep = _tuned_report(nu, N)
    assert rep.lambdas.max() == pytest.approx(nu, abs=1e-12)
    assert rep.verdict == "degenerate"
    assert rep.reason.startswith("degenerate: lambda_2 = ")
    for off in (-1e-6, 1e-6):
        rep = _tuned_report(nu + off, N)
        assert rep.lambdas.max() == pytest.approx(nu + off, abs=1e-12)
        assert (rep.verdict, rep.reason) == ("nondegenerate", "nondegenerate")


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
        assert det_identity_gap(spec, cv, rep) < 1e-10
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


def _coupled_jacobian(block, c, p, h=1e-6):
    """Central differences of f_i(u) = sum_j beta_ij u_i^((p-1)/2) u_j^((p+1)/2)
    at u = c: the matrix M of the linearization -Lap phi = U^(p-1) M phi."""
    def f(u):
        return block @ u ** ((p + 1) / 2) * u ** ((p - 1) / 2)
    cols = [(f(c + h * e) - f(c - h * e)) / (2 * h) for e in np.eye(c.size)]
    return np.array(cols).T


def test_spectrum_is_the_jacobian_of_the_coupled_nonlinearity():
    rng = np.random.default_rng(3)
    checked = {3: 0, 4: 0}
    while min(checked.values()) < 20:
        spec = _seeded_spec(rng, int(rng.choice([3, 4])), int(rng.integers(1, 5)), -0.9, 0.0)
        for h in range(spec.n_groups):
            try:
                cv = solve_c_vector(spec, h)
            except NoPositiveSolution:
                continue
            rep = build_spectrum(spec, cv)
            matM = _coupled_jacobian(spec.group_block(h), cv.c, spec.p)
            np.testing.assert_allclose(np.sort(np.linalg.eigvals(matM).real),
                                       np.sort(rep.lambdas), rtol=1e-7, atol=1e-7)
            assert np.min(np.abs(rep.lambdas - spec.p)) < 1e-10
            assert det_identity_gap(spec, cv, rep) < 1e-10
            checked[spec.N] += 1


def _algebra_specs(st):
    """Specs as the `algebra` workload draws them: N = 3 or 4, 1-8
    components in contiguous groups, mu in [0.5, 2], couplings between
    groups in [-0.2, 0.2] and, inside a group of k, beta_ij =
    -x sqrt(mu_i mu_j) / max(k - 1, 1) with x in [0.05, 0.9], so that each
    block scaled to a unit diagonal is strictly diagonally dominant."""

    @st.composite
    def specs(draw):
        N, m = draw(st.sampled_from([3, 4])), draw(st.integers(1, 8))
        cuts = draw(st.lists(st.integers(1, m - 1), max_size=m - 1, unique=True)) if m > 1 else []
        dec = (0, *sorted(cuts), m)

        def values(lo, hi, size):
            return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

        mu = values(0.5, 2.0, m)
        beta = values(-0.2, 0.2, m * m).reshape(m, m)   # its upper triangle is used
        for lo, hi in zip(dec, dec[1:]):
            k = hi - lo
            x = values(0.05, 0.9, k * k).reshape(k, k) / max(k - 1, 1)
            beta[lo:hi, lo:hi] = -x * np.sqrt(np.outer(mu[lo:hi], mu[lo:hi]))
        beta = np.triu(beta, 1)
        return CouplingSpec(N=N, m=m, mu=mu, beta=beta + beta.T + np.diag(mu), decomposition=dec)

    return specs()


def test_det_identity_holds_on_every_accepted_group():
    # C = D B D with D = diag(c^((p-1)/2)), so det C = prod(c^(p-1)) det(beta)
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_algebra_specs(hypothesis.strategies))
    def check(spec):
        for h in range(spec.n_groups):
            try:
                cv = solve_c_vector(spec, h)
            except NoPositiveSolution:
                continue
            assert det_identity_gap(spec, cv, build_spectrum(spec, cv)) < 1e-10

    check()


def test_spectrum_at_n3():
    spec = two_component_spec(1.0, 1.0, 0.3, N=3)
    cv = solve_c_vector(spec, 0)
    rep = build_spectrum(spec, cv)
    # M = 2 Id + 3C with C_ij = beta_ij c_i^2 c_j^2; c_1 = c_2 = 1.3^(-1/4)
    c2 = 1.3 ** -0.5
    np.testing.assert_allclose(rep.matC, [[c2**2, 0.3 * c2**2], [0.3 * c2**2, c2**2]],
                               rtol=1e-12)
    np.testing.assert_allclose(rep.lambdas, [5.0, 2.0 + 3.0 * 0.7 / 1.3], rtol=1e-12)
    assert (rep.verdict, rep.reason) == ("nondegenerate", "nondegenerate")


def poschl_teller_levels(nu, N, h):
    """Bound states below -0.05 of -psi'' - nu N(N-2)/4 sech^2(t) psi on
    [-30, 30] (Dirichlet), by second-order finite differences at step h."""
    t = np.arange(-30.0 + h, 30.0 - h / 2, h)
    diag = 2.0 / h**2 - nu * N * (N - 2) / 4.0 / np.cosh(t) ** 2
    off = np.full(t.size - 1, -1.0 / h**2)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, -0.05))


def bound_states(nu, N):
    """poschl_teller_levels, Richardson-extrapolated from h = 0.02 and 0.01."""
    coarse, fine = poschl_teller_levels(nu, N, 0.02), poschl_teller_levels(nu, N, 0.01)
    assert coarse.size == fine.size
    return (4.0 * fine - coarse) / 3.0


def test_ladder_prefix():
    """With phi = r^(-a) psi(ln r) Y_l and a = (N-2)/2, -Lap phi = nu U^(p-1) phi
    is a Poschl-Teller well, with a bound state at -(a+l)^2 exactly when nu
    is a weighted eigenvalue of the bubble.  At each hand-written nu_k the
    well holds the k+1 states l = 0..k, halfway to nu_(k+1) none of them, and
    the verdict rule takes each nu_k, and nothing 1e-6 off it, as degenerate."""
    for N, ladder in LADDER.items():
        a, p = (N - 2) / 2, (N + 2) / (N - 2)
        for k, nu in enumerate(ladder):
            want = -(a + np.arange(k, -1, -1.0)) ** 2
            np.testing.assert_allclose(bound_states(nu, N), want, atol=1e-6)
            if k + 1 < len(ladder):
                levels = bound_states(0.5 * (nu + ladder[k + 1]), N)
                assert np.abs(levels[:, None] + (a + np.arange(5.0)) ** 2).min() > 0.1
            assert _verdict_from_lambdas(np.array([p, nu]), N)[0] == "degenerate"
            for off in (-1e-6, 1e-6):
                assert _verdict_from_lambdas(np.array([p, nu + off]), N)[0] == "nondegenerate"


def test_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(N=4, m=2, mu=np.array([1.0, -1.0]),
                     beta=np.array([[1.0, 0.0], [0.0, -1.0]]), decomposition=(0, 2))
    with pytest.raises(ValueError):
        CouplingSpec(N=4, m=2, mu=np.array([1.0, 1.0]),
                     beta=np.array([[1.0, 0.2], [0.3, 1.0]]), decomposition=(0, 2))
    with pytest.raises(ValueError):
        two_component_spec(1.0, 2.0, 0.0).group_block(5)


def _old_spec_predicate(mu, beta):
    """CouplingSpec's symmetry and diagonal checks as first written."""
    return bool(np.allclose(beta, beta.T, rtol=0, atol=0)
                and np.allclose(np.diag(beta), mu, rtol=0, atol=0))


def test_spec_accepts_exactly_what_the_old_predicate_did():
    # off-diagonal pairs and diagonals over signed zeros, one-ulp neighbours,
    # infinities and NaN: NaN is unequal to itself, equal infinities are equal
    values = [0.0, -0.0, 1.5, np.nextafter(1.5, 2.0), -1.5, np.inf, -np.inf, np.nan]
    outcomes = set()
    for mu0 in (1.5, np.inf):
        for b01, b10, d0 in itertools.product(values, values, values):
            mu = np.array([mu0, 2.0])
            beta = np.array([[d0, b01], [b10, 2.0]])
            expected = _old_spec_predicate(mu, beta)
            outcomes.add(expected)
            if expected:
                spec = CouplingSpec(N=4, m=2, mu=mu, beta=beta, decomposition=(0, 2))
                assert spec.beta.tobytes() == beta.tobytes()
            else:
                refusal = "^beta( must be symmetric|_ii must equal mu_i)$"
                with pytest.raises(ValueError, match=refusal):
                    CouplingSpec(N=4, m=2, mu=mu, beta=beta, decomposition=(0, 2))
    assert outcomes == {True, False}


def _seeded_spec(rng, N, m, lo=-0.9, hi=0.9):
    """mu in [0.5, 2], a random contiguous decomposition of m components
    and symmetric couplings beta_ij = x sqrt(mu_i mu_j), x ~ U(lo, hi)."""
    n_groups = int(rng.integers(1, m + 1))
    cuts = sorted(rng.choice(np.arange(1, m), n_groups - 1, replace=False)) if m > 1 else []
    mu = rng.uniform(0.5, 2.0, m)
    beta = np.triu(rng.uniform(lo, hi, (m, m)) * np.sqrt(np.outer(mu, mu)), 1)
    beta = beta + beta.T + np.diag(mu)
    return CouplingSpec(N=N, m=m, mu=mu, beta=beta, decomposition=(0, *cuts, m))


def test_group_block_is_the_fancy_indexed_copy():
    rng = np.random.default_rng(26)
    groups = 0
    for _ in range(60):
        spec = _seeded_spec(rng, int(rng.choice([3, 4])), int(rng.integers(1, 9)))
        beta = spec.beta.copy()
        for h in range(spec.n_groups):
            idx = list(spec.group_indices(h))
            block, old = spec.group_block(h), spec.beta[np.ix_(idx, idx)]
            assert block.shape == old.shape and block.dtype == old.dtype
            assert block.flags.c_contiguous and block.tobytes() == old.tobytes()
            block[...] = np.nan   # a copy, not a view of beta
            assert spec.beta.tobytes() == beta.tobytes()
            groups += 1
    assert groups >= 100


def test_n3_newton_keeps_the_bits_of_the_reference_loop():
    rng = np.random.default_rng(2603)
    solved, halved, refused = 0, 0, 0
    for trial in range(120):
        # workload-like negative couplings, then wider ones whose Newton
        # steps overshoot and halve
        lo, hi = (-0.9 / 7, 0.0) if trial % 3 == 0 else (-1.0, 3.0)
        spec = _seeded_spec(rng, 3, int(rng.integers(2, 9)), lo, hi)
        for h in range(spec.n_groups):
            block = spec.group_block(h)
            if block.shape[0] < 2:
                continue
            try:
                s = np.linalg.solve(block, np.ones(block.shape[0]))
            except np.linalg.LinAlgError:
                continue
            if np.any(s <= 1e-12):
                continue
            c, halvings = reference_solve_c_vector(block)
            F = block @ c**3 * c - 1.0
            ok = np.max(np.abs(F)) <= 1e-10 and np.all(c > 0)
            if not ok:
                # the refusal prints the final residual, byte for byte
                with pytest.raises(NoPositiveSolution) as refusal:
                    solve_c_vector(spec, h)
                assert str(refusal.value) == (
                    f"group {h}: Newton failed to find a positive solution (residual {F})")
                refused += 1
                continue
            assert solve_c_vector(spec, h).c.tobytes() == c.tobytes()
            solved += 1
            halved += halvings > 0
    assert solved >= 50 and halved >= 1 and refused >= 1


def test_boundary_amplitudes_keep_the_bits_of_np_clip(monkeypatch):
    # beta_12 = mu_1: the linear solve gives an exact zero, here -0.0 for
    # the first, +0.0 for the second and -9.7e-17 for the third on x86-64;
    # the amplitudes as first written were sqrt(np.clip(s, 0, None))
    for mu1, mu2 in ((2.83, 0.79), (0.61, 2.56), (1.97, 0.83)):
        spec = two_component_spec(mu1, mu2, mu1)
        cv = solve_c_vector(spec, 0)
        s = np.linalg.solve(spec.group_block(0), np.ones(2))
        assert cv.boundary
        assert cv.c.tobytes() == np.sqrt(np.clip(s, 0.0, None)).tobytes()
    # signed zeros and values within the boundary tolerance, whatever the
    # LAPACK build returns: np.clip makes -0.0 into +0.0, and so must the
    # solve's replacement
    s = np.array([0.5, -0.0, 0.0, -1e-13, 1e-13, 0.25])
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: s.copy())
    spec = CouplingSpec(N=4, m=6, mu=np.ones(6), beta=np.eye(6), decomposition=(0, 6))
    cv = solve_c_vector(spec, 0)
    assert cv.boundary
    assert cv.c.tobytes() == np.sqrt(np.clip(s, 0.0, None)).tobytes()
    assert not np.signbit(cv.c).any()
