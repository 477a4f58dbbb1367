"""Acceptance gate: the nine cross-module criteria at their stated
tolerances, one printed pass/fail line per criterion (run with -s to see
the lines for passing criteria)."""

import math
import time

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from bubblelab.asymptotics import (
    Annulus,
    project_bubble_radial,
    scaling_law_pair,
    scaling_law_single,
    scaling_law_weighted,
)
from bubblelab.bubbles import DIMS3, DIMS4, BubbleParams
from bubblelab.coupling import (
    CouplingSpec,
    NoPositiveSolution,
    build_spectrum,
    solve_c_vector,
    system_residual,
)
from bubblelab.energy import (
    ReducedEnergyModel,
    ReducedPoint,
    constant_b1,
    constant_b2,
    critical_point,
    gamma_kernel,
    psi_grad,
)
from bubblelab.solver import compose_group_solution, rate_sweep, solve_radial
from oracles import bubble_residual, linearized_residual, remainder_trend

RNG = np.random.default_rng(20260815)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _draw_admissible_pair(rng):
    mu1, mu2 = rng.uniform(0.5, 3.0, size=2)
    if rng.random() < 0.5:
        b12 = rng.uniform(-0.95 * math.sqrt(mu1 * mu2), 0.9 * min(mu1, mu2))
    else:
        b12 = max(mu1, mu2) * rng.uniform(1.05, 3.0)
    return mu1, mu2, b12


def _pair_spec(mu1, mu2, b12, N=4):
    return CouplingSpec(
        N=N,
        m=2,
        mu=np.array([mu1, mu2]),
        beta=np.array([[mu1, b12], [b12, mu2]]),
        decomposition=(0, 2),
    )


def test_criterion_bubble_certification():
    worst_res, worst_ker = 0.0, 0.0
    for dims in (DIMS3, DIMS4):
        N = dims.N
        b = BubbleParams(
            delta=float(RNG.uniform(0.3, 1.5)), xi=RNG.normal(size=N), dims=dims
        )
        pts = b.xi + b.delta * RNG.standard_t(df=3, size=(1000, N))
        worst_res = max(worst_res, float(np.max(np.abs(bubble_residual(b, pts)))))
        for h in range(N + 1):
            worst_ker = max(worst_ker, linearized_residual(b, h))
    ok = worst_res < 1e-10 and worst_ker < 1e-6
    _report(
        1,
        ok,
        f"bubble residual sup {worst_res:.2e} (< 1e-10), "
        f"kernel FD residual sup {worst_ker:.2e} (< 1e-6)",
    )


def test_criterion_amplitude_closed_form():
    cv = solve_c_vector(_pair_spec(1.0, 2.0, -0.5), 0)
    gap = float(np.max(np.abs(cv.c**2 - np.array([10.0 / 7.0, 6.0 / 7.0]))))
    worst = 0.0
    for _ in range(100):
        mu1, mu2, b12 = _draw_admissible_pair(RNG)
        spec = _pair_spec(mu1, mu2, b12)
        c = solve_c_vector(spec, 0)
        assert np.all(c.c > 0)
        worst = max(
            worst, float(np.max(np.abs(system_residual(spec.group_block(0), c.c, spec.p))))
        )
    ok = gap < 1e-12 and worst < 1e-10
    _report(
        2,
        ok,
        f"c^2 = (10/7, 6/7) to {gap:.2e} (< 1e-12); "
        f"100 random specs residual sup {worst:.2e} (< 1e-10)",
    )


def test_criterion_spectral_identities():
    worst_l1, worst_det = 0.0, 0.0
    pf_ok = True
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
        worst_l1 = max(worst_l1, abs(float(np.max(rep.lambdas)) - 3.0))
        worst_det = max(worst_det, rep.det_identity_gap)
        thetas = np.sort(rep.thetas)[::-1]
        pf_ok = pf_ok and bool(np.all(np.abs(thetas[1:]) < 1.0))
    # degeneracy boundary beta_12 = mu_1
    cv = solve_c_vector(_pair_spec(1.0, 2.0, 1.0), 0)
    rep = build_spectrum(_pair_spec(1.0, 2.0, 1.0), cv)
    l2_gap = float(np.min(np.abs(rep.lambdas - 1.0)))
    ok = worst_l1 < 1e-10 and l2_gap < 1e-10 and worst_det < 1e-10 and pf_ok
    _report(
        3,
        ok,
        f"Lambda_1 = 3 to {worst_l1:.2e}; beta_12 = mu_1 gives lambda_2 = 1 to "
        f"{l2_gap:.2e}; det identity rel gap {worst_det:.2e} (all < 1e-10); "
        f"|Theta_l| < 1 on 100 positive blocks: {pf_ok}",
    )


def test_criterion_reduced_energy_constants():
    worst = 0.0
    for dims in (DIMS3, DIMS4):
        N = dims.N
        apow = dims.alphaN ** (dims.p + 1)
        b1_oracle = apow * dims.omegaNm1 * beta_fn(N / 2, N / 2) / (2 * N)
        b2_oracle = apow * dims.omegaNm1 / (2 * N)
        g0_oracle = dims.omegaNm1 / N
        worst = max(
            worst,
            abs(constant_b1(dims) / b1_oracle - 1.0),
            abs(constant_b2(dims) / b2_oracle - 1.0),
            abs(gamma_kernel(dims, np.zeros(N)) / g0_oracle - 1.0),
        )
    # frozen N=4 values
    worst = max(
        worst,
        abs(constant_b1(DIMS4) / (8 * math.pi**2 / 3) - 1.0),
        abs(constant_b2(DIMS4) / (16 * math.pi**2) - 1.0),
        abs(gamma_kernel(DIMS4, np.zeros(4)) / (math.pi**2 / 2) - 1.0),
    )
    _report(
        4,
        worst < 1e-10,
        f"b1, b2, Gamma(0) vs Beta-function oracles and N=4 frozen values: "
        f"worst rel gap {worst:.2e} (< 1e-10)",
    )


def test_criterion_critical_point_structure():
    model = ReducedEnergyModel(
        dims=DIMS4,
        weights=[1.3, 0.7],
        robin=[1.2, 0.9],
        hole_r=[1.0, 1.7],
    )
    rep = critical_point(model)
    # finite-difference mixed blocks d x tau at the critical point
    step = 1e-5
    mixed = 0.0
    n, N = model.n_peaks, model.dims.N
    for i in range(n):
        for sgn in (+1, -1):
            d = rep.point.d.copy()
            d[i] += sgn * step
            g = psi_grad(model, ReducedPoint(d=d, tau=np.zeros((n, N))))
            mixed = max(mixed, float(np.max(np.abs(sgn * g[n:]))) / (2 * step))
    ok = (
        rep.grad_norm < 1e-10
        and mixed < 1e-8
        and bool(np.all(rep.hess_d > 0))
        and bool(np.all(rep.hess_tau < 0))
    )
    _report(
        5,
        ok,
        f"|grad Psi| = {rep.grad_norm:.2e} (< 1e-10), FD mixed blocks "
        f"{mixed:.2e} (< 1e-8), d-block > 0: {bool(np.all(rep.hess_d > 0))}, "
        f"tau-block < 0: {bool(np.all(rep.hess_tau < 0))}",
    )


def test_criterion_scaling_laws():
    families = [
        scaling_law_single(1.0, DIMS4),
        scaling_law_single(3.0, DIMS3),
        scaling_law_weighted(3.0, 1.0, 0.0, DIMS4),
    ]
    worst_slope = max(
        abs(f.exponent_measured - f.exponent_predicted) for f in families
    )
    worst_r2 = min(f.r2 for f in families)
    const = scaling_law_single(2.0 * DIMS4.N / (DIMS4.N - 2), DIMS4)
    const_ok = abs(const.exponent_measured) <= 0.05
    pair = scaling_law_pair(2.0, 2.0, DIMS4)
    ratios = pair.ratios
    pair_ok = bool(np.max(ratios) < 4.0 * np.min(ratios))
    ok = worst_slope <= 0.05 and worst_r2 >= 0.999 and const_ok and pair_ok
    _report(
        6,
        ok,
        f"slope gaps <= {worst_slope:.3f} (tol 0.05), r^2 >= {worst_r2:.5f} "
        f"(>= 0.999), top-power family flat ({const.exponent_measured:+.3f}), "
        f"pair value/bound ratio spread {np.max(ratios) / np.min(ratios):.2f}x "
        "(bounded)",
    )


def test_criterion_projection_remainder():
    eps = 1e-3
    ann = Annulus(eps, 1.0)
    proj = project_bubble_radial(
        ann, BubbleParams(delta=math.sqrt(eps), xi=np.zeros(4), dims=DIMS4)
    )
    s = np.geomspace(ann.inner, ann.outer, 3000)
    pu, u = proj.value(s), proj.bubble_value(s)
    scale = float(np.max(pu))
    bc = max(abs(proj.value(np.array([ann.inner]))[0]),
             abs(proj.value(np.array([ann.outer]))[0]))
    squeeze = bool(np.all(pu >= -1e-12 * scale) and np.all(pu <= u * (1 + 1e-12)))
    reports, slope = remainder_trend(
        DIMS4, 1.0, 1.0, 1.0, np.geomspace(1e-2, 1e-6, 9)
    )
    ratios = np.array([r.sup_ratio for r in reports])
    no_growth = bool(slope > -0.05 and np.max(ratios) < 1.5 * np.min(ratios))
    ok = bc < 1e-12 * scale and squeeze and no_growth
    _report(
        7,
        ok,
        f"PU boundary values {bc / scale:.2e} rel (< 1e-12), 0 <= PU <= U: "
        f"{squeeze}, remainder/bound ratio trend slope {slope:+.3f} over 4 "
        f"decades (range {np.min(ratios):.2f}..{np.max(ratios):.2f}; no growth)",
    )


def test_criterion_concentration_rate():
    t0 = time.perf_counter()
    sweep = rate_sweep(DIMS4, 1.0, 1.0, np.geomspace(1e-2, 1e-4, 8))
    elapsed = time.perf_counter() - t0
    ok = (
        not sweep.aborted
        and abs(sweep.slope - 0.5) <= 0.05
        and abs(sweep.d_final / sweep.d_tilde - 1.0) <= 0.20
        and elapsed <= 600.0
    )
    _report(
        8,
        ok,
        f"slope {sweep.slope:.3f} (0.50 +/- 0.05), d_est/d_tilde = "
        f"{sweep.d_final / sweep.d_tilde:.4f} (within 20%), "
        f"runtime {elapsed:.1f}s (<= 600s)",
    )


def test_criterion_group_composition():
    spec = _pair_spec(1.0, 2.0, -0.5)
    w = solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2).grid
    cv = solve_c_vector(spec, 0)
    rep = compose_group_solution(spec, cv, w)
    gap = float(np.max(rep.identity_gap))
    _report(
        9,
        gap <= 1e-10,
        f"composed system residuals match c_i x scalar residual to {gap:.2e} "
        "(<= 1e-10)",
    )
