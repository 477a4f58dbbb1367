import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest

from bubblelab.bubbles import DIMS3, DIMS4
from bubblelab.coupling import CouplingSpec, CVector, NoPositiveSolution, solve_c_vector
from bubblelab.energy import ReducedEnergyModel, critical_point, energy_expansion, psi_value
from bubblelab.solver import (
    RadialGrid,
    _gtsv,
    bubble_ansatz,
    energy_of_solution,
    graded_mesh,
    rate_sweep,
    solve_radial,
)
from oracles import (
    ansatz_seed,
    compose_group_solution,
    exact_radial,
    reference_energy_of_solution,
    reference_newton_system,
    reference_solve_radial,
)
from test_coupling import _algebra_specs

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
    return solve_radial(ansatz_seed(DIMS4, 1e-3), 1e-3)


@pytest.fixture(scope="module")
def sweep_r1_calls():
    calls = []
    sweep = rate_sweep(DIMS4, 1.0, 1.0, np.geomspace(1e-2, 1e-4, 8),
                       on_result=lambda eps, res: calls.append((eps, res)))
    return sweep, calls


@pytest.fixture(scope="module")
def sweep_r1(sweep_r1_calls):
    return sweep_r1_calls[0]


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
    res = solve_radial(zero, 1e-3)
    assert res.report.converged
    assert res.report.trivial
    assert res.report.message == "trivial branch"
    assert res.metrics is None
    assert np.max(np.abs(res.grid.values)) < 1e-8


def test_n3_default_grid_sweep_aborts_on_trivial_branch():
    # at eps = 1e-2 the 20k-node solve converges to a profile with no
    # positive peak (max u = 0, max|u| ~ 1.5e-3); it must be flagged trivial
    # instead of reaching the concentration metrics
    calls = []
    sweep = rate_sweep(DIMS3, 1.0, 1.0, np.geomspace(1e-2, 1e-4, 8), n_nodes=20000,
                       on_result=lambda eps, res: calls.append(eps))
    assert sweep.aborted
    assert "trivial branch" in sweep.message
    assert sweep.metrics == sweep.reports == ()
    assert calls == []


def test_iteration_limit_reported():
    res = solve_radial(ansatz_seed(DIMS4, 1e-3), 1e-3, max_iter=1)
    assert not res.report.converged
    assert "limit" in res.report.message
    assert res.metrics is None
    assert len(res.report.residuals) == 1


def test_solve_validation():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        solve_radial(ansatz_seed(DIMS4, 1e-3, 500), 0.0)


@pytest.mark.parametrize("dims", [DIMS3, DIMS4])
def test_solve_is_on_the_seeds_nodes_and_dims(dims):
    # the seed alone describes the solve: its nodes are the mesh, its ends
    # the annulus (here not the unit ball's) and its dims the problem
    seed = ansatz_seed(dims, 1e-3, 500, radius_coeff=2.0, outer=1.5)
    res = solve_radial(seed, 1e-3)
    assert _bits(res.grid.nodes) == _bits(seed.nodes)
    assert res.grid.dims is seed.dims is dims
    assert res.grid.values[0] == res.grid.values[-1] == 0.0


def test_n3_profile_converges():
    res = solve_radial(ansatz_seed(DIMS3, 1e-3), 1e-3)
    assert res.report.converged
    assert res.report.residuals[-1] < 1e-10
    assert profile_is_positive(res.grid)
    assert profile_is_unimodal(res.grid)
    assert res.metrics.delta_est > 0


def test_nan_in_seed_raises_scipys_error():
    nodes = graded_mesh(1e-3, 1.0, 500)
    seed, _ = bubble_ansatz(DIMS4, 1e-3, nodes)
    values = seed.values.copy()
    values[250] = np.nan
    bad = RadialGrid(nodes=nodes, values=values, dims=DIMS4)
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        solve_radial(bad, 1e-3)


# ------------------------------------------- same bits as the reference solve


def _bits(x):
    return np.asarray(x, float).tobytes()


def _rescaled_seed(prev, eps_from, eps_to, inner):
    """rate_sweep's seed for eps_to on the mesh of (inner, 1) from the grid
    ``prev`` solved at eps_from."""
    nodes = graded_mesh(inner, 1.0, len(prev.nodes))
    kappa = math.sqrt(eps_to / eps_from)
    vals = kappa ** (-(prev.dims.N - 2) / 2) * np.interp(
        nodes / kappa, prev.nodes, prev.values, left=0.0, right=0.0)
    vals[0] = vals[-1] = 0.0
    return RadialGrid(nodes=nodes, values=vals, dims=prev.dims)


def _continuation_seed(dims, eps_from, eps_to, n):
    """rate_sweep's seed for eps_to from the solve at eps_from."""
    prev = solve_radial(ansatz_seed(dims, eps_from, n), eps_from).grid
    return _rescaled_seed(prev, eps_from, eps_to, eps_to)


def _assert_same_bits(res, ref):
    assert _bits(res.grid.values) == _bits(ref.grid.values)
    assert _bits(res.grid.nodes) == _bits(ref.grid.nodes)
    assert _bits(res.report.residuals) == _bits(ref.report.residuals)
    assert res.report == ref.report
    if ref.metrics is None:
        assert res.metrics is None
    else:
        assert _bits(dataclasses.astuple(res.metrics)) == _bits(dataclasses.astuple(ref.metrics))


SOLVE_CASES = {   # dims, eps, n_nodes, (eps of the seed's solve or None), max_iter
    "n4_2k_ansatz": (DIMS4, 1e-3, 2000, None, 50),
    "n4_20k_ansatz": (DIMS4, 1e-2, 20000, None, 50),
    "n4_20k_continuation": (DIMS4, 5e-3, 20000, 1e-2, 50),
    "n4_2k_iteration_limit": (DIMS4, 1e-3, 2000, None, 1),
    "n3_2k_ansatz_halving": (DIMS3, 1e-3, 2000, None, 50),
    "n3_20k_continuation": (DIMS3, 2e-3, 20000, 3e-3, 50),
    "n3_20k_trivial_halving": (DIMS3, 1e-2, 20000, None, 50),
    "n3_20k_iteration_limit": (DIMS3, 1e-3, 20000, None, 1),
}


@pytest.mark.parametrize("case", SOLVE_CASES)
def test_solve_has_the_bits_of_the_reference_solve(case):
    dims, eps, n, seed_eps, max_iter = SOLVE_CASES[case]
    seed = (ansatz_seed(dims, eps, n) if seed_eps is None
            else _continuation_seed(dims, seed_eps, eps, n))
    steps = []
    ref = reference_solve_radial(seed, eps, max_iter=max_iter, steps=steps)
    # a lent workspace is a buffer: one full of another solve's values gives the same bits
    for workspace in (None, np.full((11, n), np.nan)):
        res = solve_radial(seed, eps, max_iter=max_iter, _workspace=workspace)
        _assert_same_bits(res, ref)
    assert (max_iter == 1) == (ref.report.message == "newton iteration limit reached")
    if "halving" in case:   # the line search halved t at least once
        assert min(steps) < 1.0
    if "trivial" in case:
        assert ref.report.trivial


def test_grid_owns_its_values():
    # the returned values are a copy, not a view of the Newton workspace
    res = solve_radial(ansatz_seed(DIMS4, 1e-2, 500), 1e-2)
    assert res.grid.values.base is None


def test_energy_has_the_bits_of_gradient_and_trapezoid(solve_1e3, scalar_w):
    nodes = np.arange(1, 301) * (3 / 1024)   # exact steps: np.gradient's constant-spacing case
    assert np.all(np.diff(nodes) == nodes[0])
    uniform = RadialGrid(nodes=nodes, values=np.random.default_rng(0).random(300), dims=DIMS4)
    for grid in (solve_1e3.grid, scalar_w, uniform):
        expected = reference_energy_of_solution([grid], SPEC_SCALAR)
        assert _bits(energy_of_solution(grid)) == _bits(expected)
        dirty = np.full((11, len(grid.nodes)), np.nan)
        assert _bits(energy_of_solution(grid, _workspace=dirty)) == _bits(expected)


# ------------------------------------------------------- tridiagonal solve


def _gtsv_of(ab, rhs):
    """_gtsv on copies of a system in solve_banded's (1, 1) layout."""
    return _gtsv(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(), rhs.copy())


def _random_system(n, seed):
    # diagonals of one scale, not diagonally dominant: dgtsv swaps rows
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((3, n))
    ab[0, 0] = ab[2, -1] = 0.0
    return ab, rng.standard_normal(n)


def _solve_banded(ab, rhs):
    from scipy.linalg import solve_banded
    return solve_banded((1, 1), ab, rhs)


def test_gtsv_has_the_bits_of_solve_banded_on_a_newton_system():
    ab, rhs = reference_newton_system(ansatz_seed(DIMS4, 1e-3, 20000))
    assert _bits(_gtsv_of(ab, rhs)) == _bits(_solve_banded(ab, rhs))


@pytest.mark.parametrize("n", [3, 4, 50, 1001])
def test_gtsv_has_the_bits_of_solve_banded_with_row_swaps(n):
    ab, rhs = _random_system(n, seed=n)
    assert np.any(np.abs(ab[2, :-1]) > np.abs(ab[1, :-1]))   # a pivot row swap
    x = _gtsv_of(ab, rhs)
    assert _bits(x) == _bits(_solve_banded(ab, rhs))
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    np.testing.assert_allclose(dense @ x, rhs, atol=1e-8 * np.max(np.abs(x)))


def test_gtsv_raises_scipys_errors():
    ab, rhs = _random_system(10, seed=0)
    rhs[4] = np.nan
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _gtsv_of(ab, rhs)
    ab[1, 3] = np.inf
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _gtsv_of(ab, np.ones(10))
    singular = np.zeros((3, 3))
    singular[1] = [1.0, 0.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
        _gtsv_of(singular, np.ones(3))
    with pytest.raises(ValueError):   # f2py checks b's length
        _gtsv(np.ones(9), np.full(10, 4.0), np.ones(9), np.ones(9))
    # f2py copies a strided or float32 b: the solution is what _gtsv
    # returns, with solve_banded's bits, never the caller's unchanged b
    ab, rhs = _random_system(10, seed=1)
    strided = np.repeat(rhs, 2)[::2]
    for b in (strided, rhs.astype(np.float32)):
        kept = b.copy()
        x = _gtsv(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(), b)
        assert _bits(x) == _bits(_solve_banded(ab, kept))
        assert _bits(b) == _bits(kept)


def test_bubble_ansatz_shape():
    seed, d_tilde = bubble_ansatz(DIMS4, 1e-3, graded_mesh(1e-3, 1.0, 800))
    assert d_tilde == pytest.approx(1.0, rel=1e-8)  # sqrt(r R) for r = R = 1
    assert seed.values[0] == 0.0 and seed.values[-1] == 0.0
    assert np.all(seed.values >= 0.0)
    assert np.max(seed.values) > 1.0


@pytest.mark.parametrize("dims", [DIMS3, DIMS4])
def test_bubble_ansatz_takes_its_annulus_from_its_nodes(dims):
    # the hole coefficient is r = nodes[0] / eps and the ball radius
    # R = nodes[-1]; one centred hole has d_tilde = sqrt(r R)
    eps = 1e-3
    nodes = graded_mesh(2.5 * eps, 1.6, 700)
    seed, d_tilde = bubble_ansatz(dims, eps, nodes)
    assert _bits(seed.nodes) == _bits(nodes) and seed.dims is dims
    assert seed.values[0] == seed.values[-1] == 0.0
    assert abs(d_tilde - math.sqrt(nodes[0] / eps * nodes[-1])) <= 1e-12


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
    coarse = solve_radial(ansatz_seed(DIMS4, 1e-3, 1000), 1e-3)
    fine = solve_radial(ansatz_seed(DIMS4, 1e-3, 2000), 1e-3)
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


def _polyfit_slope(sweep):
    return np.polyfit(np.log(sweep.epsilons), np.log(sweep.delta_ests), 1)[0]


def test_rate_sweep_slope_is_the_least_squares_slope(sweep_r1):
    assert abs(sweep_r1.slope - _polyfit_slope(sweep_r1)) <= 1e-14


def test_on_result_sees_each_result_in_order(sweep_r1_calls):
    sweep, calls = sweep_r1_calls
    assert [eps for eps, _ in calls] == sweep.epsilons.tolist()
    assert len(calls) == len(sweep.metrics) == len(sweep.reports)
    assert all(res.metrics is m and res.report is r
               for (_, res), m, r in zip(calls, sweep.metrics, sweep.reports))


def test_rate_sweep_keeps_no_finished_grid():
    # at the call for the k-th eps only grids k-1 (the continuation seed)
    # and k may be alive; none once the sweep is over and its caller has
    # dropped its references
    refs, dead = [], []

    def on_result(eps, res):
        dead.append([ref() is None for ref in refs])
        refs.append(weakref.ref(res.grid))

    sweep = rate_sweep(DIMS4, 1.0, 1.0, np.geomspace(1e-2, 1e-3, 8), n_nodes=500,
                       on_result=on_result)
    assert not sweep.aborted and len(refs) == 8
    assert [flags[:-1] for flags in dead] == [[True] * max(k - 1, 0) for k in range(8)]
    assert [ref() is None for ref in refs] == [True] * 8


@pytest.mark.parametrize("dims, n, radius_coeff, eps_grid", [
    (DIMS4, 2000, 1.0, np.geomspace(1e-2, 1e-4, 8)),
    (DIMS3, 3000, 2.0, np.geomspace(3e-3, 1e-4, 8)),
])
def test_sweep_chain_has_the_bits_of_the_reference_solves(dims, n, radius_coeff, eps_grid):
    # every solve shares the sweep's workspace: none may leave state for the
    # next, and no grid handed to on_result may change once the next eps solves
    # (the CLI's writer thread reads it meanwhile)
    calls = []
    sweep = rate_sweep(dims, 1.0, radius_coeff, eps_grid, n_nodes=n,
                       on_result=lambda eps, res: calls.append((eps, res, res.grid.values.copy())))
    assert not sweep.aborted and len(calls) == len(eps_grid)
    assert abs(sweep.slope - _polyfit_slope(sweep)) <= 1e-14
    prev = None
    for eps, res, values in calls:
        seed = (ansatz_seed(dims, eps, n, radius_coeff) if prev is None
                else _rescaled_seed(prev[1].grid, prev[0], eps, radius_coeff * eps))
        ref = reference_solve_radial(seed, eps)
        _assert_same_bits(res, ref)
        assert _bits(res.grid.values) == _bits(values)
        prev = eps, ref


def test_rate_sweep_takes_few_page_faults():
    resource = pytest.importorskip("resource")
    if not (sys.platform.startswith("linux") and hasattr(resource, "RUSAGE_THREAD")):
        pytest.skip("needs Linux's per-thread getrusage")
    # glibc maps a multi-megabyte block afresh on each allocation, so a sweep
    # that allocated a workspace per solve took 5k-5.7k minor faults on Linux
    # x86-64.  The first sweep loads scipy and grows the heap, so the second
    # one is measured.
    eps_grid = np.geomspace(1e-2, 1e-4, 8)
    rate_sweep(DIMS4, 1.0, 1.0, eps_grid, n_nodes=20000)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    sweep = rate_sweep(DIMS4, 1.0, 1.0, eps_grid, n_nodes=20000)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert not sweep.aborted
    assert faults < 1000


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


# --------------------------------------------------------- exact radial oracle


@pytest.mark.parametrize("N, eps, d", [(4, 1e-4, 1.0218604001), (4, 1e-6, 1.0020333272),
                                       (3, 1e-6, 1.0289845971), (3, 1e-2, 1.1695344706)])
def test_exact_radial_agrees_with_itself_under_halved_tolerances(N, eps, d):
    # N = 4 at eps = 1e-6 has E = 1.6e-5, where Q varies on the scale
    # sqrt(2E)/a near v = 0; N = 3 at 1e-2 is the positive solution that
    # the solver's default sweep misses (it falls into the trivial branch)
    exact = exact_radial(N, 1.0, 1.0, 1.0, eps)
    halved = exact_radial(N, 1.0, 1.0, 1.0, eps, tol=5e-14)
    assert abs(halved.d / exact.d - 1) < 1e-11
    assert abs(halved.u_max / exact.u_max - 1) < 1e-11
    assert abs(halved.E / exact.E - 1) < 1e-11
    assert abs(halved.J / exact.J - 1) < 1e-11
    assert exact.d == pytest.approx(d, abs=1e-10)


def _exact_over_reduced(N, r, R, mu, eps):
    """d / d_tilde and (J - w b1) / (Psi(d_tilde, 0) eps^((N-2)/2)) of the
    exact solution, against the reduced model of one centred hole: weight
    w = mu^(-2/(p-1)), Robin value H = R^(2-N), hole coefficient r."""
    dims = DIMS3 if N == 3 else DIMS4
    w = mu ** (-2 / (dims.p - 1))
    model = ReducedEnergyModel(dims=dims, weights=np.array([w]),
                               robin=np.array([R ** (2 - N)]), hole_r=np.array([r]))
    exact = exact_radial(N, r, R, mu, eps)
    point = critical_point(model).point
    psi = psi_value(model, point) * eps ** ((N - 2) / 2)
    return exact.d / point.d[0], (exact.J - w * model.b1) / psi


@pytest.mark.parametrize("N, eps, ratio", [(4, 1e-4, 0.996206), (3, 1e-6, 1.000093)])
def test_exact_action_matches_the_reduced_energy(N, eps, ratio):
    # the paper's J = w b1 + Psi(d_tilde, 0) eps^((N-2)/2) + o(.), r = R = mu = 1
    assert round(_exact_over_reduced(N, 1.0, 1.0, 1.0, eps)[1], 6) == ratio


def test_exact_solution_approaches_the_reduced_model():
    # mu only rescales u = mu^(-1/(p-1)) w and J by mu^(-2/(p-1)), so both
    # ratios are mu-free; over random holes and balls they move toward 1
    rng = np.random.default_rng(20)
    for _ in range(24):
        N = int(rng.choice([3, 4]))
        r, R, mu = rng.uniform(0.5, 2.0, 3)
        coarse = _exact_over_reduced(N, r, R, mu, 1e-4)
        fine = _exact_over_reduced(N, r, R, mu, 1e-6)
        for c, f in zip(coarse, fine):
            assert abs(f - 1) < abs(c - 1), (N, r, R, mu)


@pytest.mark.parametrize("dims, eps_grid, c", [
    (DIMS4, np.geomspace(1e-2, 1e-4, 8), 0.103),
    (DIMS3, np.geomspace(3e-3, 1e-4, 8), 0.39),   # 1e-2 falls into the trivial branch
])
def test_rate_sweep_d_est_follows_the_second_order_error_law(dims, eps_grid, c):
    # the relative error of d_est is -C_N h^2 / eps^((N-2)/2), h the mesh
    # step in t = ln s: at 2000 nodes and eps = 1e-4 it reads C_4 = 0.1022
    # and C_3 = 0.3930
    n, eps = 2000, 1e-4
    sweep = rate_sweep(dims, 1.0, 1.0, eps_grid, n_nodes=n)
    assert not sweep.aborted and sweep.epsilons[-1] == eps
    h = math.log(1.0 / eps) / (n - 1)
    law = -c * h**2 / eps ** ((dims.N - 2) / 2)
    error = sweep.d_final / exact_radial(dims.N, 1.0, 1.0, 1.0, eps).d - 1
    assert error == pytest.approx(law, rel=0.15)


# ------------------------------------------------------------- composition
# u_i = c_i w solves a group's system exactly when c solves its amplitude
# system; `compose_group_solution` is the test oracle that measures it.


@pytest.fixture(scope="module")
def scalar_w():
    return solve_radial(ansatz_seed(DIMS4, 1e-2), 1e-2).grid


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


def test_composition_identity_holds_on_every_accepted_group(scalar_w):
    hypothesis = pytest.importorskip("hypothesis")
    w3 = solve_radial(ansatz_seed(DIMS3, 1e-3), 1e-3)
    assert w3.report.message == "converged"
    profiles = {3: w3.grid, 4: scalar_w}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_algebra_specs(hypothesis.strategies))
    def check(spec):
        for h in range(spec.n_groups):
            try:
                cv = solve_c_vector(spec, h)
            except NoPositiveSolution:
                continue
            rep = compose_group_solution(spec, cv, profiles[spec.N])
            assert rep.scalar_residual_sup < 1e-10
            assert np.max(rep.identity_gap) <= 1e-10

    check()


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
    assert energy_of_solution(zero) == 0.0


def test_energy_validation():
    one_node = RadialGrid(nodes=np.array([0.5]), values=np.zeros(1), dims=DIMS4)
    with pytest.raises(ValueError, match="at least two nodes"):
        energy_of_solution(one_node)


def test_energy_gap_converged_vs_ansatz(solve_1e3):
    # the Newton limit is a saddle of the action: its energy sits slightly
    # above the projected-bubble seed, with an O(eps)-sized gap
    j_seed = energy_of_solution(ansatz_seed(DIMS4, 1e-3, 2000))
    j_conv = energy_of_solution(solve_1e3.grid)
    assert j_conv == pytest.approx(solve_1e3.metrics.energy)
    assert j_conv > j_seed
    assert abs(j_conv - j_seed) < 100 * 1e-3


def test_energy_tracks_expansion_over_sweep(sweep_r1_calls):
    model = ReducedEnergyModel(dims=DIMS4, weights=[1.0], robin=[1.0], hole_r=[1.0])
    assert critical_point(model).point.d[0] == pytest.approx(1.0, rel=1e-10)
    power = (DIMS4.N - 2) / 2.0
    gaps = []
    for eps, res in sweep_r1_calls[1]:
        j = energy_of_solution(res.grid)
        gaps.append(abs(j - energy_expansion(model, eps)) / eps**power)
    # boundedness test: the ratio stays well below the Psi coefficient (~316)
    assert max(gaps) < 60.0


def test_composed_energy_scales_by_amplitudes(scalar_w):
    # grouped profiles u_i = c_i w make every term of the action scale by
    # sum c_i^2 relative to the scalar value (same identity as the c-system)
    cv = solve_c_vector(SPEC_PAIR, 0)
    rep = compose_group_solution(SPEC_PAIR, cv, scalar_w)
    j_pair = reference_energy_of_solution(list(rep.grids), SPEC_PAIR)
    j_scalar = energy_of_solution(scalar_w)
    np.testing.assert_allclose(j_pair, float(np.sum(cv.c**2)) * j_scalar, rtol=1e-10)
