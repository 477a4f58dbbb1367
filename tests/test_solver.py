import math

import numpy as np
import pytest

from bubblelab.asymptotics import Annulus
from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.coupling import CouplingSpec, CVector, solve_c_vector
from bubblelab.energy import ReducedEnergyModel, critical_point, energy_expansion
from bubblelab.solver import (
    RadialGrid,
    bubble_ansatz,
    compose_group_solution,
    energy_of_solution,
    graded_mesh,
    rate_sweep,
    solve_radial,
)

SPEC_SCALAR = CouplingSpec(
    N=4, m=1, mu=np.array([1.0]), beta=np.array([[1.0]]), decomposition=(0, 1)
)


def profile_is_positive(grid, tol=1e-10):
    """Interior values above -tol times the largest interior magnitude."""
    interior = grid.values[1:-1]
    return bool(np.all(interior > -tol * max(1.0, float(np.max(np.abs(interior))))))


def profile_is_unimodal(grid, rel_tol=1e-8):
    """Single sign change of the discrete derivative (+ to -)."""
    dv = np.diff(grid.values)
    thresh = rel_tol * float(np.max(np.abs(grid.values)))
    signs = np.sign(dv[np.abs(dv) > thresh])
    if len(signs) == 0:
        return False
    collapsed = signs[np.r_[True, signs[1:] != signs[:-1]]]
    return bool(len(collapsed) == 2 and collapsed[0] > 0 and collapsed[1] < 0)


@pytest.fixture(scope="module")
def solve_1e3():
    return solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3)


@pytest.fixture(scope="module")
def sweep_r1():
    return rate_sweep(DIMS4, 1.0, 1.0, np.geomspace(1e-2, 1e-4, 8))


# ------------------------------------------------------------- basic solves


def test_converged_profile_n4(solve_1e3):
    res = solve_1e3
    assert res.report.converged
    assert res.report.message == "converged"
    assert res.report.residuals[-1] < 1e-10
    assert res.metrics is not None
    assert profile_is_positive(res.grid)
    assert profile_is_unimodal(res.grid)


def test_metrics_match_peak(solve_1e3):
    m = solve_1e3.metrics
    g = solve_1e3.grid
    k = int(np.argmax(g.values))
    assert m.umax == pytest.approx(g.values[k])
    assert m.rpeak == pytest.approx(g.nodes[k])
    assert m.delta_est == pytest.approx((DIMS4.alphaN / m.umax) ** 1.0)
    assert m.d_est == pytest.approx(m.delta_est / math.sqrt(1e-3))
    # peak sits inside the annulus at the concentration scale
    assert 1e-3 < m.rpeak < 0.1
    # amplitude ratio against the reduced-model prediction d_tilde = 1
    assert abs(m.d_est - 1.0) < 0.2


def test_residual_history_decreases(solve_1e3):
    h = np.asarray(solve_1e3.report.residuals)
    assert np.all(np.diff(h) < 0)


def test_zero_seed_lands_on_trivial_branch():
    nodes = graded_mesh(1e-3, 1.0, 500)
    zero = RadialGrid(nodes=nodes, values=np.zeros_like(nodes), dims=DIMS4)
    res = solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, initial=zero)
    assert res.report.converged
    assert res.report.trivial
    assert res.report.message == "trivial branch"
    assert res.metrics is None
    assert np.max(np.abs(res.grid.values)) < 1e-8


def test_n3_default_grid_sweep_aborts_on_trivial_branch():
    # at eps = 1e-2 the 20k-node solve converges to a profile with no
    # positive peak (max u = 0, max|u| ~ 1.5e-3); it must be flagged trivial
    # instead of reaching the concentration metrics
    sweep = rate_sweep(DIMS3, 1.0, 1.0, np.geomspace(1e-2, 1e-4, 8), n_nodes=20000)
    assert sweep.aborted
    assert "trivial branch" in sweep.message
    assert sweep.results == ()


def test_iteration_limit_reported():
    res = solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, max_iter=1)
    assert not res.report.converged
    assert "limit" in res.report.message
    assert res.metrics is None
    assert len(res.report.residuals) == 1


def test_solve_validation():
    with pytest.raises(ValueError):
        solve_radial(Annulus(1e-3, 1.0), DIMS4, 0.0)
    with pytest.raises(ValueError):
        solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, initial="nonsense")


def test_n3_profile_converges():
    res = solve_radial(Annulus(1e-3, 1.0), DIMS3, 1e-3)
    assert res.report.converged
    assert res.report.residuals[-1] < 1e-10
    assert profile_is_positive(res.grid)
    assert profile_is_unimodal(res.grid)
    assert res.metrics.delta_est > 0


def test_mu_rescaling_identity(solve_1e3):
    # if w solves -Lap w = w^p then mu^{-1/(p-1)} w solves -Lap u = mu u^p,
    # exactly at the discrete level as well
    res2 = solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, mu=2.0)
    assert res2.report.converged
    ratio = 2.0 ** (-1.0 / (DIMS4.p - 1))
    np.testing.assert_allclose(
        res2.grid.values[1:-1], ratio * solve_1e3.grid.values[1:-1], rtol=1e-8
    )
    # normalized concentration scale is mu-independent
    assert res2.metrics.delta_est == pytest.approx(
        solve_1e3.metrics.delta_est, rel=1e-8
    )


def test_bubble_ansatz_shape():
    ann = Annulus(1e-3, 1.0)
    seed, d_tilde = bubble_ansatz(ann, DIMS4, 1e-3, 1.0,
                                  graded_mesh(ann.inner, ann.outer, 800))
    assert d_tilde == pytest.approx(1.0, rel=1e-8)  # sqrt(r R) for r = R = 1
    assert seed.values[0] == 0.0 and seed.values[-1] == 0.0
    assert np.all(seed.values >= 0.0)
    assert np.max(seed.values) > 1.0


# -------------------------------------------------------------- grid policy


def test_graded_mesh_endpoints_and_monotone():
    nodes = graded_mesh(1e-3, 1.0, 400)
    assert nodes[0] == pytest.approx(1e-3)
    assert nodes[-1] == pytest.approx(1.0)
    assert np.all(np.diff(nodes) > 0)
    assert len(nodes) == 400
    # log-graded: finer spacing near the hole than near the outer boundary
    assert (nodes[1] - nodes[0]) < (nodes[-1] - nodes[-2]) / 100


def test_grid_refinement_under_one_percent():
    coarse = solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, n_nodes=1000)
    fine = solve_radial(Annulus(1e-3, 1.0), DIMS4, 1e-3, n_nodes=2000)
    assert coarse.report.converged and fine.report.converged
    rel = abs(coarse.metrics.delta_est / fine.metrics.delta_est - 1.0)
    assert rel < 0.01


# ---------------------------------------------------------------- rate sweep


def test_rate_sweep_slope_and_amplitude(sweep_r1):
    sw = sweep_r1
    assert not sw.aborted
    assert len(sw.epsilons) == 8
    assert np.all(np.diff(sw.epsilons) < 0)
    assert abs(sw.slope - 0.5) < 0.05
    last3 = sw.d_ests[-3:]
    assert (last3.max() - last3.min()) / last3[-1] < 0.10
    assert sw.d_tilde == pytest.approx(1.0, rel=1e-8)
    assert abs(sw.d_final / sw.d_tilde - 1.0) < 0.20


def test_rate_sweep_hole_coefficient_invariance(sweep_r1):
    sw2 = rate_sweep(DIMS4, 1.0, 2.0, np.geomspace(1e-2, 1e-4, 8))
    assert not sw2.aborted
    assert abs(sw2.slope - sweep_r1.slope) < 0.02
    # only the amplitude shifts: d scales like sqrt(r)
    assert sw2.d_tilde == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert abs(sw2.d_final / sweep_r1.d_final - math.sqrt(2.0)) < 0.1


def test_rate_sweep_validation():
    with pytest.raises(ValueError):
        rate_sweep(DIMS4, 1.0, 1.0, [1e-3])


# ------------------------------------------------------------- composition


@pytest.fixture(scope="module")
def scalar_w():
    return solve_radial(Annulus(1e-2, 1.0), DIMS4, 1e-2).grid


SPEC_PAIR = CouplingSpec(
    N=4,
    m=2,
    mu=np.array([1.0, 2.0]),
    beta=np.array([[1.0, -0.5], [-0.5, 2.0]]),
    decomposition=(0, 2),
)


def test_compose_identity_with_scalar_residual(scalar_w):
    cv = solve_c_vector(SPEC_PAIR, 0)
    np.testing.assert_allclose(cv.c**2, [10.0 / 7.0, 6.0 / 7.0], rtol=1e-12)
    rep = compose_group_solution(SPEC_PAIR, cv, scalar_w)
    assert np.all(rep.identity_gap <= 1e-10)
    assert rep.scalar_residual_sup < 1e-10
    np.testing.assert_allclose(
        rep.residual_sup, np.abs(cv.c) * rep.scalar_residual_sup, rtol=1e-2
    )
    for g, c_i in zip(rep.grids, cv.c):
        np.testing.assert_allclose(g.values, c_i * scalar_w.values, rtol=1e-14)


def test_compose_identity_map_single_component(scalar_w):
    cv = solve_c_vector(SPEC_SCALAR, 0)
    rep = compose_group_solution(SPEC_SCALAR, cv, scalar_w)
    assert cv.c[0] == pytest.approx(1.0, rel=1e-14)
    assert np.array_equal(rep.grids[0].values, scalar_w.values)
    assert rep.identity_gap[0] <= 1e-12


def test_compose_perturbed_amplitude_breaks_identity(scalar_w):
    cv = solve_c_vector(SPEC_PAIR, 0)
    bad = CVector(c=cv.c * np.array([1.01, 1.0]), group=cv.group)
    clean = compose_group_solution(SPEC_PAIR, cv, scalar_w)
    dirty = compose_group_solution(SPEC_PAIR, bad, scalar_w)
    assert np.max(dirty.residual_sup) > 1e3 * np.max(clean.residual_sup)


def test_compose_validation(scalar_w):
    cv = solve_c_vector(SPEC_PAIR, 0)
    with pytest.raises(ValueError):
        compose_group_solution(SPEC_PAIR, cv.c, scalar_w)  # not a CVector
    short = CVector(c=cv.c[:1], group=0)
    with pytest.raises(ValueError):
        compose_group_solution(SPEC_PAIR, short, scalar_w)
    w3 = RadialGrid(nodes=scalar_w.nodes, values=scalar_w.values, dims=DIMS3)
    with pytest.raises(ValueError):
        compose_group_solution(SPEC_PAIR, cv, w3)


# -------------------------------------------------------------------- energy


def test_energy_of_zero_profile():
    nodes = graded_mesh(1e-3, 1.0, 200)
    zero = RadialGrid(nodes=nodes, values=np.zeros_like(nodes), dims=DIMS4)
    assert energy_of_solution([zero], SPEC_SCALAR) == 0.0


def test_energy_validation():
    nodes = graded_mesh(1e-3, 1.0, 200)
    g = RadialGrid(nodes=nodes, values=np.zeros_like(nodes), dims=DIMS4)
    with pytest.raises(ValueError):
        energy_of_solution([g, g], SPEC_SCALAR)  # wrong count
    other = RadialGrid(nodes=nodes * 2.0, values=np.zeros_like(nodes), dims=DIMS4)
    with pytest.raises(ValueError):
        energy_of_solution([g, other], SPEC_PAIR)  # mismatched nodes


def test_energy_gap_converged_vs_ansatz(solve_1e3):
    # the Newton limit is a saddle of the action: its energy sits slightly
    # above the projected-bubble seed, with an O(eps)-sized gap
    ann = Annulus(1e-3, 1.0)
    seed, _ = bubble_ansatz(ann, DIMS4, 1e-3, 1.0,
                            graded_mesh(ann.inner, ann.outer, 2000))
    j_seed = energy_of_solution([seed], SPEC_SCALAR)
    j_conv = energy_of_solution([solve_1e3.grid], SPEC_SCALAR)
    assert j_conv == pytest.approx(solve_1e3.metrics.energy)
    assert j_conv > j_seed
    assert abs(j_conv - j_seed) < 100 * 1e-3


def test_energy_tracks_expansion_over_sweep(sweep_r1):
    model = ReducedEnergyModel(dims=DIMS4, weights=[1.0], robin=[1.0], hole_r=[1.0])
    assert critical_point(model).point.d[0] == pytest.approx(1.0, rel=1e-10)
    power = (DIMS4.N - 2) / 2.0
    gaps = []
    for eps, res in zip(sweep_r1.epsilons, sweep_r1.results):
        j = energy_of_solution([res.grid], SPEC_SCALAR)
        gaps.append(abs(j - energy_expansion(model, eps)) / eps**power)
    # boundedness test: the ratio stays well below the Psi coefficient (~316)
    assert max(gaps) < 60.0


def test_composed_energy_scales_by_amplitudes(scalar_w):
    # grouped profiles u_i = c_i w make every term of the action scale by
    # sum c_i^2 relative to the scalar value (same identity as the c-system)
    cv = solve_c_vector(SPEC_PAIR, 0)
    rep = compose_group_solution(SPEC_PAIR, cv, scalar_w)
    j_pair = energy_of_solution(list(rep.grids), SPEC_PAIR)
    j_scalar = energy_of_solution([scalar_w], SPEC_SCALAR)
    np.testing.assert_allclose(j_pair, float(np.sum(cv.c**2)) * j_scalar, rtol=1e-10)
