import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as B

from bubblelab import energy
from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.energy import (
    GRAD_CHECK_STEP,
    ReducedEnergyModel,
    ReducedPoint,
    constant_b1,
    constant_b2,
    critical_point,
    energy_expansion,
    gamma_kernel,
    gradient_check,
    psi_grad,
    psi_hessian_at_flat,
    psi_value,
    _fd_grad,
)
from oracles import sigma_constant

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------- oracles
# Adaptive Gauss-Kronrod quadrature and Monte Carlo versions of the closed
# forms in bubblelab.energy, kept here as independent references.

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _quad_tail(f, a):
    """Integral of f over (a, infinity) via the r = tan(theta) substitution."""
    t0 = math.atan(a)
    val, _ = quad(
        lambda t: f(math.tan(t)) / math.cos(t) ** 2, t0, math.pi / 2, **_QUAD_OPTS
    )
    return val


def _gamma_inner(dims, s):
    """A(s) = int_0^s r^(N-1) (1+r^2)^(-(N+2)/2) dr."""
    N = dims.N
    val, _ = quad(lambda r: r ** (N - 1) * (1 + r**2) ** (-(N + 2) / 2), 0.0, s, **_QUAD_OPTS)
    return val


def gamma_quad(dims, tau):
    """Gamma(tau) = omega_{N-1} [ s^(2-N) A(s) + (1+s^2)^(-N/2)/N ], s = |tau|,
    with A(s) by quadrature."""
    s = float(np.linalg.norm(np.atleast_1d(np.asarray(tau, float))))
    N = dims.N
    tail = (1 + s**2) ** (-N / 2) / N
    if s == 0.0:
        return dims.omegaNm1 * tail  # = omega_{N-1}/N
    return dims.omegaNm1 * (s ** (2 - N) * _gamma_inner(dims, s) + tail)


def gamma_radial_derivs(dims, s):
    """(Gamma'(s), Gamma''(s)) of the radial profile; the tail derivative
    cancels against the moving endpoint, leaving only the A(s) terms."""
    N, om = dims.N, dims.omegaNm1
    if s == 0.0:
        return 0.0, om * (2 - N) / N
    A = _gamma_inner(dims, s)
    g1 = om * (2 - N) * s ** (1 - N) * A
    g2 = om * (2 - N) * ((1 - N) * s**-N * A + (1 + s**2) ** (-(N + 2) / 2))
    return g1, g2


def gamma_mc(dims, tau, n_samples=200_000, seed=0):
    """Monte Carlo value of the N-dimensional Gamma integral (cross-check)
    and its standard error.

    Gamma(tau) = int (1+|y|^2)^(-(N+2)/2) |y+tau|^(2-N) dy.  Half the samples
    come from the density proportional to (1+|y|^2)^(-(N+2)/2), with radial
    CDF u^(N/2), u = r^2/(1+r^2); half from the density centred at y = -tau
    proportional to |z|^(2-N) (1+|z|^2)^(-2), z = y + tau, with radial CDF
    r^2/(1+r^2).  Their normalizations are omega_{N-1}/N and omega_{N-1}/2.
    Each sample is weighted by the integrand over the 50/50 mixture density;
    the second density carries the singularity at y = -tau, so the weight
    is bounded and the estimate has finite variance.
    """
    N, om = dims.N, dims.omegaNm1
    tau = np.asarray(tau, float)
    rng = np.random.default_rng(seed)
    half = n_samples // 2   # n_samples is even
    q = rng.random(n_samples)
    u = q[:half] ** (2.0 / N)
    r = np.sqrt(np.concatenate([u / (1.0 - u), q[half:] / (1.0 - q[half:])]))
    dirs = rng.normal(size=(n_samples, N))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    y = r[:, None] * dirs
    y[half:] -= tau
    bubble = (1.0 + np.sum(y**2, axis=1)) ** (-(N + 2) / 2)
    z2 = np.sum((y + tau) ** 2, axis=1)
    newton = z2 ** ((2.0 - N) / 2)
    density = 0.5 * bubble / (om / N) + 0.5 * newton / (1.0 + z2) ** 2 / (om / 2)
    w = bubble * newton / density
    # one stratum per density, of half the samples each
    se = math.sqrt((np.var(w[:half]) + np.var(w[half:])) / (2 * n_samples))
    return float(np.mean(w)), se


def sigma_cross_quadrature_01(dims):
    """Direct 2D axisymmetric quadrature of the (0,1) cross integral
    int y_1 (|y|^2-1) (1+|y|^2)^-(N+2) dy — odd in y_1, so ~ 0."""
    N = dims.N
    om = {3: 2 * math.pi, 4: 4 * math.pi}[N]  # area of S^(N-2) in R^(N-1)

    def inner(z):
        val, _ = quad(
            lambda rho: rho ** (N - 2)
            * z
            * (z**2 + rho**2 - 1)
            * (1 + z**2 + rho**2) ** (-(N + 2)),
            0.0,
            20.0,
            **_QUAD_OPTS,
        )
        return val

    val, _ = quad(inner, -20.0, 20.0, **_QUAD_OPTS)
    return om * val


def sigma_cross_mc_12(dims, n_samples=400_000, seed=3):
    """Monte Carlo spot check of int y_1 y_2 (1+|y|^2)^-(N+2) dy ~ 0."""
    N = dims.N
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=1.0, size=(n_samples, N))
    # importance weight against the normal proposal
    dens = np.exp(-0.5 * np.sum(y**2, axis=1)) / (2 * np.pi) ** (N / 2)
    f = y[:, 0] * y[:, 1] * (1 + np.sum(y**2, axis=1)) ** (-(N + 2.0))
    return float(np.mean(f / dens))


# ---------------------------------------------------------------- constants

def test_b1_against_beta_oracle():
    # radial integral int r^(N-1)(1+r^2)^-N dr = B(N/2, N/2)/2
    for dims in (DIMS3, DIMS4):
        N = dims.N
        oracle = dims.alphaN ** (dims.p + 1) / N * dims.omegaNm1 * B(N / 2, N / 2) / 2
        assert constant_b1(dims) == pytest.approx(oracle, rel=1e-10)
    # golden N=4 value
    assert constant_b1(DIMS4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-10)


def test_b2_against_beta_oracle():
    for dims in (DIMS3, DIMS4):
        N = dims.N
        oracle = dims.alphaN ** (dims.p + 1) / 2 * dims.omegaNm1 * B(N / 2, 1) / 2
        assert constant_b2(dims) == pytest.approx(oracle, rel=1e-10)
    assert constant_b2(DIMS4) == pytest.approx(16 * math.pi**2, rel=1e-10)


def test_constants_match_quadrature_oracle():
    for dims in (DIMS3, DIMS4):
        N, alpha_p1, om = dims.N, dims.alphaN ** (dims.p + 1), dims.omegaNm1
        pref = dims.p * alpha_p1
        b1 = alpha_p1 / N * om * _quad_tail(lambda r: r ** (N - 1) * (1 + r**2) ** (-N), 0.0)
        b2 = alpha_p1 / 2 * om * _quad_tail(
            lambda r: r ** (N - 1) * (1 + r**2) ** (-(N + 2) / 2), 0.0
        )
        s00 = pref * ((N - 2) / 2) ** 2 * om * _quad_tail(
            lambda r: r ** (N - 1) * (r**2 - 1) ** 2 * (1 + r**2) ** (-(N + 2)), 0.0
        )
        sll = pref * (N - 2) ** 2 * om / N * _quad_tail(
            lambda r: r ** (N + 1) * (1 + r**2) ** (-(N + 2)), 0.0
        )
        assert constant_b1(dims) == pytest.approx(b1, rel=1e-12, abs=0)
        assert constant_b2(dims) == pytest.approx(b2, rel=1e-12, abs=0)
        assert sigma_constant(dims, 0) == pytest.approx(s00, rel=1e-12, abs=0)
        assert sigma_constant(dims, 1) == pytest.approx(sll, rel=1e-12, abs=0)


def test_gamma_at_zero():
    assert gamma_kernel(DIMS4, np.zeros(4)) == pytest.approx(math.pi**2 / 2, rel=1e-10)
    assert gamma_kernel(DIMS3, np.zeros(3)) == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_gamma_b2_identity():
    # Gamma(0) = 2 b2 / alpha^(p+1): both reduce to omega_{N-1}/N
    for dims in (DIMS3, DIMS4):
        assert gamma_kernel(dims, np.zeros(dims.N)) == pytest.approx(
            2 * constant_b2(dims) / dims.alphaN ** (dims.p + 1), rel=1e-10
        )


def test_gamma_radial_and_maximal_at_zero():
    for dims in (DIMS3, DIMS4):
        g0 = gamma_kernel(dims, np.zeros(dims.N))
        for _ in range(10):
            tau = RNG.normal(size=dims.N)
            assert gamma_kernel(dims, tau) < g0
            # radial dependence: any rotation gives the same value
            s = np.linalg.norm(tau)
            e1 = np.zeros(dims.N)
            e1[0] = s
            assert gamma_kernel(dims, tau) == pytest.approx(
                gamma_kernel(dims, e1), rel=1e-12
            )


def test_gamma_against_direct_2d_quadrature():
    # independent axisymmetric evaluation of the N-dim integral:
    # Gamma(tau) = omega_{N-2} II rho^(N-2) ((z+s)^2+rho^2)^(-(N-2)/2)
    #                           * (1+z^2+rho^2)^(-(N+2)/2) drho dz
    from scipy.integrate import quad

    sphere = {3: 2 * math.pi, 4: 4 * math.pi}
    L = 400.0  # tail beyond L is ~ L^-3 for N=3, far below the tolerance
    for dims in (DIMS3, DIMS4):
        N = dims.N
        s = 0.8

        def inner(z):
            val, _ = quad(
                lambda rho: rho ** (N - 2)
                * ((z + s) ** 2 + rho**2) ** (-(N - 2) / 2)
                * (1 + z**2 + rho**2) ** (-(N + 2) / 2),
                0.0,
                L,
                epsabs=1e-11,
                epsrel=1e-11,
                limit=200,
            )
            return val

        direct, _ = quad(inner, -L, L, epsabs=1e-10, epsrel=1e-10, limit=300,
                         points=[-s, 0.0])
        direct *= sphere[N]
        e1 = np.zeros(N)
        e1[0] = s
        assert gamma_kernel(dims, e1) == pytest.approx(direct, rel=1e-6)


def test_gamma_monte_carlo_cross_validation():
    for dims, seed in ((DIMS3, 11), (DIMS4, 12)):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            tau = rng.normal(size=dims.N) * rng.uniform(0.2, 2.0)
            mc, se = gamma_mc(dims, tau, seed=seed)
            exact = gamma_kernel(dims, tau)
            assert se / mc < 0.0025   # so the 1% gate is at least 4 sigma
            assert abs(mc - exact) / exact < 0.01


def test_gamma_derivatives_match_fd():
    for dims in (DIMS3, DIMS4):
        h = 1e-5
        for s in (0.3, 1.0, 2.5):
            g1, g2 = gamma_radial_derivs(dims, s)
            e = np.zeros(dims.N)
            vals = []
            for ds in (-h, 0.0, h):
                e[0] = s + ds
                vals.append(gamma_kernel(dims, e))
            fd1 = (vals[2] - vals[0]) / (2 * h)
            fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
            assert g1 == pytest.approx(fd1, rel=1e-6)
            assert g2 == pytest.approx(fd2, rel=1e-4)
        # negative-definite maximum at the origin
        _, g2_0 = gamma_radial_derivs(dims, 0.0)
        assert g2_0 < 0
        assert g2_0 == pytest.approx(dims.omegaNm1 * (2 - dims.N) / dims.N, rel=1e-12)


def test_gamma_kernel_matches_quadrature_oracle():
    for dims in (DIMS3, DIMS4):
        e1 = np.zeros(dims.N)
        for s in np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 400)]):
            e1[0] = s
            assert gamma_kernel(dims, e1) == pytest.approx(
                gamma_quad(dims, e1), rel=1e-12, abs=0
            )


# ---------------------------------------------------------------- Psi

def model4(n_peaks=2):
    w = RNG.uniform(0.5, 2.0, size=n_peaks)
    H = RNG.uniform(0.5, 3.0, size=n_peaks)
    r = RNG.uniform(0.5, 2.0, size=n_peaks)
    return ReducedEnergyModel(dims=DIMS4, weights=w, robin=H, hole_r=r)


def test_psi_flat_form_and_coercivity():
    m = model4(1)
    A = m.robin_coeff()[0]
    Bc = m.hole_coeff()[0]
    for d in (0.3, 1.0, 2.7):
        pt = ReducedPoint(d=[d], tau=np.zeros((1, 4)))
        assert psi_value(m, pt) == pytest.approx(A * d**2 + Bc / d**2, rel=1e-12)
    # coercive in both directions
    small = psi_value(m, ReducedPoint(d=[5e-3], tau=np.zeros((1, 4))))
    large = psi_value(m, ReducedPoint(d=[200.0], tau=np.zeros((1, 4))))
    mid = psi_value(m, ReducedPoint(d=[1.0], tau=np.zeros((1, 4))))
    assert small > 50 * mid and large > 50 * mid


def test_psi_linear_in_weights():
    m = model4(2)
    doubled = ReducedEnergyModel(
        dims=DIMS4,
        weights=m.weights * np.array([2.0, 1.0]),
        robin=m.robin,
        hole_r=m.hole_r,
    )
    pt = ReducedPoint(d=[1.1, 0.8], tau=RNG.normal(size=(2, 4)) * 0.3)
    # doubling weight 0 doubles peak 0's contribution
    single0 = ReducedEnergyModel(
        dims=DIMS4, weights=m.weights[:1], robin=m.robin[:1], hole_r=m.hole_r[:1],
    )
    pt0 = ReducedPoint(d=pt.d[:1], tau=pt.tau[:1])
    assert psi_value(doubled, pt) - psi_value(m, pt) == pytest.approx(
        psi_value(single0, pt0), rel=1e-10
    )


def test_psi_grad_matches_fd():
    m = model4(2)
    for _ in range(50):
        d = RNG.uniform(0.4, 2.0, size=2)
        tau = RNG.normal(size=(2, 4)) * RNG.uniform(0.1, 1.0)
        pt = ReducedPoint(d=d, tau=tau)
        grad = psi_grad(m, pt)
        h = 1e-6
        fd = np.empty_like(grad)
        # d entries
        for i in range(2):
            dp, dm_ = d.copy(), d.copy()
            dp[i] += h
            dm_[i] -= h
            fd[i] = (
                psi_value(m, ReducedPoint(d=dp, tau=tau))
                - psi_value(m, ReducedPoint(d=dm_, tau=tau))
            ) / (2 * h)
        # tau entries
        k = 2
        for i in range(2):
            for c in range(4):
                tp, tm = tau.copy(), tau.copy()
                tp[i, c] += h
                tm[i, c] -= h
                fd[k] = (
                    psi_value(m, ReducedPoint(d=d, tau=tp))
                    - psi_value(m, ReducedPoint(d=d, tau=tm))
                ) / (2 * h)
                k += 1
        np.testing.assert_allclose(grad, fd, rtol=2e-6, atol=1e-8)


def psi_loop(model, pt):
    """(Psi, grad Psi) by the per-peak loop over the quadrature kernel:
    w_i [b2 H_i d^(N-2) + K_i Gamma(tau_i) / (d^(N-2) (1+|tau_i|^2)^((N-2)/2))]."""
    dm = model.dims
    N, m = dm.N, model.n_peaks
    total, gd, gt = 0.0, np.zeros(m), np.zeros((m, N))
    for i in range(m):
        tau, d = pt.tau[i], pt.d[i]
        s = float(np.linalg.norm(tau))
        g = gamma_quad(dm, tau)
        g1, _ = gamma_radial_derivs(dm, s)
        Ki = model.weights[i] * dm.alphaN ** (dm.p + 1) * model.hole_r[i] ** (N - 2) / 2
        Ai = model.weights[i] * model.b2 * model.robin[i]
        phi = (1 + s * s) ** (-(N - 2) / 2)
        total += Ai * d ** (N - 2) + Ki * g * phi / d ** (N - 2)
        gd[i] = (N - 2) * (Ai * d ** (N - 3) - Ki * g * phi / d ** (N - 1))
        if s > 0:
            radial = g1 * phi - (N - 2) * g * s * (1 + s * s) ** (-N / 2)
            gt[i] = Ki / d ** (N - 2) * radial * tau / s
    return total, np.concatenate([gd, gt.ravel()])


def test_psi_matches_loop_over_quadrature_kernel():
    for dims in (DIMS3, DIMS4):
        m = ReducedEnergyModel(
            dims=dims,
            weights=RNG.uniform(0.5, 2.0, 3),
            robin=RNG.uniform(0.5, 3.0, 3),
            hole_r=RNG.uniform(0.5, 2.0, 3),
        )
        for _ in range(10):
            tau = RNG.normal(size=(3, dims.N)) * RNG.uniform(0.01, 3.0)
            pt = ReducedPoint(d=RNG.uniform(0.3, 3.0, 3), tau=tau)
            value, grad = psi_loop(m, pt)
            assert psi_value(m, pt) == pytest.approx(value, rel=1e-12, abs=0)
            np.testing.assert_allclose(psi_grad(m, pt), grad, rtol=1e-11, atol=0)


def psi_formula(model, pt):
    """Psi of one point as psi_value computed it before the batched kernel."""
    if not pt.in_box():
        raise ValueError("point outside the box X_eta")
    q = 1.0 + np.sum(pt.tau**2, axis=-1)
    hole = model.hole_coeff() / (pt.d * q) ** (model.dims.N - 2)
    return float(np.sum(model.robin_coeff() * pt.d ** (model.dims.N - 2) + hole))


def fd_loop(model, pt, step=1e-6):
    """(central differences, gap) by the reduced-energy task's former loops:
    one psi_formula call per shifted point."""
    m, N = pt.tau.shape
    analytic = psi_grad(model, pt)
    fd = np.zeros_like(analytic)
    for k in range(m):
        for sgn in (+1, -1):
            d_shift = pt.d.copy()
            d_shift[k] += sgn * step
            fd[k] += sgn * psi_formula(model, ReducedPoint(d=d_shift, tau=pt.tau, eta=pt.eta))
    for k in range(m):
        for h in range(N):
            for sgn in (+1, -1):
                t_shift = pt.tau.copy()
                t_shift[k, h] += sgn * step
                fd[m + k * N + h] += sgn * psi_formula(
                    model, ReducedPoint(d=pt.d, tau=t_shift, eta=pt.eta)
                )
    fd /= 2 * step
    gap = float(np.max(np.abs(fd - analytic)) / (1.0 + np.max(np.abs(analytic))))
    return fd, gap


def random_model_and_probe(dims, m, rng):
    """A model with m peaks and a probe drawn as the reduced-energy task draws it."""
    model = ReducedEnergyModel(
        dims=dims,
        weights=rng.uniform(0.2, 3.0, m),
        robin=rng.uniform(0.3, 5.0, m),
        hole_r=rng.uniform(0.5, 2.0, m),
    )
    d = np.exp(rng.uniform(-0.5, 0.5, m))
    tau = rng.uniform(-0.2, 0.2, (m, dims.N))
    return model, ReducedPoint(d=d, tau=tau)


@pytest.mark.parametrize("dims", [DIMS3, DIMS4], ids=["N3", "N4"])
@pytest.mark.parametrize("m", range(1, 9))
def test_batched_fd_gradient_matches_loop_bitwise(dims, m):
    rng = np.random.default_rng(100 * dims.N + m)
    for _ in range(5):
        model, pt = random_model_and_probe(dims, m, rng)
        fd, gap = fd_loop(model, pt)
        assert np.array_equal(_fd_grad(model, pt, 1e-6), fd)
        assert gradient_check(model, pt) == gap
        assert gap < 1e-5


def test_gradient_check_step_and_scale():
    model, pt = random_model_and_probe(DIMS4, 3, np.random.default_rng(5))
    assert GRAD_CHECK_STEP == 1e-6
    for step in (1e-4, 1e-5, 1e-7):
        fd, _ = fd_loop(model, pt, step)
        assert np.array_equal(_fd_grad(model, pt, step), fd)
    # a coarse step leaves an O(step^2) gap
    analytic = psi_grad(model, pt)
    coarse = np.max(np.abs(_fd_grad(model, pt, 1e-2) - analytic)) / (1 + np.max(np.abs(analytic)))
    assert coarse > 1e3 * gradient_check(model, pt)


@pytest.mark.parametrize("chunk", [1, 7, 27, 40, 80])
def test_fd_gradient_chunks_match_loop_bitwise(monkeypatch, chunk):
    """n = 40 unknowns, 80 shifted points in 80, 12, 3, 2 or 1 batches: one
    point per batch, batches of unequal size, a batch straddling the +step
    and -step halves, the two halves, all points at once."""
    monkeypatch.setattr(energy, "_FD_CHUNK", chunk * 40)
    model, pt = random_model_and_probe(DIMS4, 8, np.random.default_rng(chunk))
    fd, gap = fd_loop(model, pt)
    assert np.array_equal(_fd_grad(model, pt, 1e-6), fd)
    assert gradient_check(model, pt) == gap


def test_gradient_check_memory_linear_in_peaks():
    """500 peaks in N = 3: n = 2000 unknowns.  All 2n shifted points at once
    would take 2n * n * 8 B = 64 MB per array."""
    model, pt = random_model_and_probe(DIMS3, 500, np.random.default_rng(11))
    fd, gap = fd_loop(model, pt)
    tracemalloc.start()
    try:
        batched = _fd_grad(model, pt, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(batched, fd)
    assert gradient_check(model, pt) == gap < 1e-5


@pytest.mark.parametrize("dims", [DIMS3, DIMS4], ids=["N3", "N4"])
def test_psi_value_bitwise_unchanged(dims):
    rng = np.random.default_rng(dims.N)
    for m in range(1, 9):
        for _ in range(20):
            model, _ = random_model_and_probe(dims, m, rng)
            pt = ReducedPoint(
                d=rng.uniform(0.01, 50.0, m), tau=rng.normal(size=(m, dims.N)) * rng.uniform(0, 5)
            )
            value = psi_value(model, pt)
            assert type(value) is float
            assert value == psi_formula(model, pt)


@pytest.mark.parametrize("shift", ["d_below", "d_above", "tau_norm"])
def test_gradient_check_rejects_shift_outside_box(shift):
    eta, step = 1e-3, 1e-6
    model, pt = random_model_and_probe(DIMS4, 2, np.random.default_rng(9))
    d, tau = pt.d.copy(), pt.tau.copy()
    if shift == "d_below":
        d[1] = eta + step / 2
    elif shift == "d_above":
        d[0] = 1 / eta - step / 2
    else:
        tau[1] = [1 / eta - step / 2, 0.0, 0.0, 0.0]
    probe = ReducedPoint(d=d, tau=tau, eta=eta)
    assert probe.in_box()
    psi_grad(model, probe)  # the probe itself is in the box
    with pytest.raises(ValueError, match="^point outside the box X_eta$"):
        fd_loop(model, probe)
    with pytest.raises(ValueError, match="^point outside the box X_eta$"):
        gradient_check(model, probe)


def test_tau_gradient_vanishes_on_axis():
    m = model4(3)
    for _ in range(5):
        d = RNG.uniform(0.3, 3.0, size=3)
        pt = ReducedPoint(d=d, tau=np.zeros((3, 4)))
        g = psi_grad(m, pt)
        assert np.max(np.abs(g[3:])) == 0.0


def test_critical_point_gradient_and_signature():
    m = model4(2)
    rep = critical_point(m)
    assert rep.grad_norm < 1e-10
    assert rep.signature_ok and rep.in_box
    assert np.all(rep.hess_d > 0) and np.all(rep.hess_tau < 0)
    # N=4 closed form of the d-block: 2 w b2 H + 6 w (alpha^4 r^2/2) Gamma(0) / d^4
    g0 = math.pi**2 / 2
    for i in range(2):
        expected = (
            2 * m.weights[i] * m.b2 * m.robin[i]
            + 6 * m.weights[i] * (64 * m.hole_r[i] ** 2 / 2) * g0 / rep.point.d[i] ** 4
        )
        assert rep.hess_d[i] == pytest.approx(expected, rel=1e-10)


def test_critical_point_against_fd_hessian():
    m = model4(2)
    rep = critical_point(m)
    d0 = rep.point.d
    h = 1e-4

    def grad_at(dvec, tauflat):
        pt = ReducedPoint(d=dvec, tau=tauflat.reshape(2, 4))
        return psi_grad(m, pt)

    n = 2 + 8
    H = np.zeros((n, n))
    x0 = np.concatenate([d0, np.zeros(8)])
    for j in range(n):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        H[:, j] = (grad_at(xp[:2], xp[2:]) - grad_at(xm[:2], xm[2:])) / (2 * h)
    # mixed d-tau blocks vanish
    assert np.max(np.abs(H[:2, 2:])) < 1e-8
    assert np.max(np.abs(H[2:, :2])) < 1e-8
    # diagonal blocks match the analytic values
    np.testing.assert_allclose(np.diag(H[:2, :2]), rep.hess_d, rtol=1e-5)
    np.testing.assert_allclose(
        np.diag(H[2:, 2:]), np.repeat(rep.hess_tau, 4), rtol=1e-4
    )
    # tau-block is diagonal (no cross-coordinate coupling at tau=0)
    off = H[2:, 2:] - np.diag(np.diag(H[2:, 2:]))
    assert np.max(np.abs(off)) < 1e-8


def test_hessian_tau_block_is_gamma_second_derivative():
    # tau-block = K_i/d^(N-2) (Gamma''(0) - (N-2) Gamma(0)) with the exact
    # Gamma''(0) = -(N-2) Gamma(0), i.e. -2(N-2) B_i / d^(N-2)
    for dims in (DIMS3, DIMS4):
        N = dims.N
        m = ReducedEnergyModel(
            dims=dims,
            weights=RNG.uniform(0.5, 2.0, 3),
            robin=RNG.uniform(0.5, 3.0, 3),
            hole_r=RNG.uniform(0.5, 2.0, 3),
        )
        d = RNG.uniform(0.3, 3.0, 3)
        _, tt = psi_hessian_at_flat(m, d)
        _, g2_0 = gamma_radial_derivs(dims, 0.0)
        gamma0 = gamma_quad(dims, np.zeros(N))
        K = m.weights * dims.alphaN ** (dims.p + 1) * m.hole_r ** (N - 2) / 2
        np.testing.assert_allclose(tt, -2 * (N - 2) * m.hole_coeff() / d ** (N - 2), rtol=1e-12)
        np.testing.assert_allclose(
            tt, K / d ** (N - 2) * (g2_0 - (N - 2) * gamma0), rtol=1e-12
        )


def test_n3_critical_point():
    m = ReducedEnergyModel(dims=DIMS3, weights=[1.3], robin=[0.9], hole_r=[1.1])
    rep = critical_point(m)
    assert rep.grad_norm < 1e-10
    assert rep.signature_ok
    # N=3: the d-block loses the Robin term ((N-3) factor) but stays positive
    expected = 2 * m.hole_coeff()[0] / rep.point.d[0] ** 3
    assert rep.hess_d[0] == pytest.approx(expected, rel=1e-10)


def test_energy_expansion():
    m = model4(2)
    total_w = float(np.sum(m.weights))
    rep = critical_point(m)
    psi0 = psi_value(m, rep.point)
    for eps in (1e-2, 1e-3, 1e-4):
        assert energy_expansion(m, eps) == pytest.approx(
            total_w * m.b1 + psi0 * eps, rel=1e-12
        )
    # N=3 correction scales like sqrt(eps)
    m3 = ReducedEnergyModel(dims=DIMS3, weights=[1.0], robin=[1.0], hole_r=[1.0])
    e1 = energy_expansion(m3, 1e-4) - m3.b1
    e2 = energy_expansion(m3, 1e-6) - m3.b1
    assert e1 / e2 == pytest.approx(10.0, rel=1e-9)


def test_grouped_weights_match_singleton_reduction():
    # a singleton group's weight c^2 = mu^(-2/(p-1)) equals the one-component weight
    mu = 1.7
    w_thm11 = mu ** (-2 / (DIMS4.p - 1))
    c = mu ** (-1 / (DIMS4.p - 1))
    assert c**2 == pytest.approx(w_thm11, rel=1e-14)


# ---------------------------------------------------------------- sigma

def test_sigma_values_against_beta_oracles():
    for dims in (DIMS3, DIMS4):
        N = dims.N
        pref = dims.p * dims.alphaN ** (dims.p + 1)
        s00_oracle = (
            pref
            * ((N - 2) / 2) ** 2
            * dims.omegaNm1
            * (B(N / 2, N / 2) - 4 * B(N / 2, N / 2 + 1) + 4 * B(N / 2, N / 2 + 2))
            / 2
        )
        sll_oracle = pref * (N - 2) ** 2 * dims.omegaNm1 / N * B(N / 2 + 1, N / 2 + 1) / 2
        assert sigma_constant(dims, 0) == pytest.approx(s00_oracle, rel=1e-10)
        assert sigma_constant(dims, 1) == pytest.approx(sll_oracle, rel=1e-10)


def test_sigma_symmetries():
    for dims in (DIMS3, DIMS4):
        vals = [sigma_constant(dims, l) for l in range(1, dims.N + 1)]
        assert np.ptp(vals) == 0.0  # exchange symmetry, identical by construction
        assert sigma_constant(dims, 0, 1) == 0.0
        assert sigma_constant(dims, 2, 3) == 0.0
    # numeric spot checks of the odd-symmetry zeros
    scale = sigma_constant(DIMS4, 1)
    assert abs(sigma_cross_quadrature_01(DIMS4)) < 1e-10 * scale
    assert abs(sigma_cross_mc_12(DIMS4)) < 1e-3 * scale


def test_model_validation():
    with pytest.raises(ValueError):
        ReducedEnergyModel(dims=DIMS4, weights=[1.0, -1.0], robin=[1.0, 1.0], hole_r=[1.0, 1.0])
    m = model4(1)
    with pytest.raises(ValueError):
        psi_value(m, ReducedPoint(d=[1e-9], tau=np.zeros((1, 4))))  # outside X_eta


# Fresh interpreter: after each step, which scipy modules are loaded and
# what `main` returned.  Only a radial solve (solve_banded) needs scipy.
STARTUP_SCRIPT = """
import json, sys
import bubblelab.cli
def step(code=None):
    return [code] + [m in sys.modules for m in ("scipy", "scipy.linalg", "scipy.integrate")]
algebra, scaling, sweep, out = sys.argv[1:]
steps = {"import": step()}
steps["validate"] = step(bubblelab.cli.main(["validate", algebra]))
for name, cfg in (("algebra", algebra), ("scaling", scaling), ("sweep", sweep)):
    steps[name] = step(bubblelab.cli.main(["run", cfg, "--out", out + "/" + name]))
print(json.dumps(steps))
"""


def test_scipy_loads_only_for_radial_solves(tmp_path):
    # every closed form, amplitude system and spectrum is numpy alone: the
    # CLI pulls in scipy.linalg only for a radial-sweep, and scipy.integrate
    # (which the oracles above use) never
    from test_cli import DEMO, SWEEP, _env_with_src
    configs = {
        "algebra": DEMO,
        "scaling": dict(SWEEP, tasks=["scaling-checks"]),
        "sweep": dict(SWEEP, tasks=["radial-sweep"],
                      reduction={"epsilon_grid": [1e-2, 5e-3], "n_nodes": 400}),
    }
    paths = []
    for name, cfg in configs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, *map(str, paths), str(tmp_path)],
        env=_env_with_src(), check=True, capture_output=True, text=True,
    )
    steps = json.loads(proc.stdout.splitlines()[-1])
    for name, (code, *_) in steps.items():
        assert code in (None, 0, 2), (name, proc.stderr)   # not EXIT_ERROR
    none = [False, False, False]
    assert {name: loaded for name, (_, *loaded) in steps.items()} == {
        "import": none, "validate": none, "algebra": none, "scaling": none,
        "sweep": [True, True, False],
    }
