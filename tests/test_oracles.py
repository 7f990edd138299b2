from dataclasses import replace

import numpy as np
import pytest

from rvqr import classical_qr, oracles, solver, synth
from rvqr.errors import ConfigError, NonConvergenceError
from rvqr.measures import Dataset, center_covariates, make_rank_grid
from rvqr.solver import DualVariables


def _no_cov(y):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    return Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1.0 / J),
                   x_mean=np.zeros(1))


def test_sinkhorn_zero_gain_gives_product():
    mu, nu = np.full(3, 1 / 3), np.full(5, 0.2)
    pi = oracles.sinkhorn(mu, nu, np.zeros((3, 5)), 0.4)
    np.testing.assert_allclose(pi, np.outer(mu, nu), atol=1e-9)


def test_sinkhorn_2x2_closed_form():
    # uniform marginals, identity gain, eps = 1: pi = [[a, b], [b, a]] with
    # a/b = e and a + b = 1/2, so a = e / (2 (1 + e))
    mu = nu = np.full(2, 0.5)
    pi = oracles.sinkhorn(mu, nu, np.eye(2), 1.0, tol=1e-12)
    a = np.e / (2.0 * (1.0 + np.e))
    np.testing.assert_allclose(pi, [[a, 0.5 - a], [0.5 - a, a]], atol=1e-10)


def test_sinkhorn_permutation_equivariance(rng):
    mu, nu = np.full(4, 0.25), np.full(4, 0.25)
    G = rng.standard_normal((4, 4))
    perm = np.array([2, 0, 3, 1])
    base = oracles.sinkhorn(mu, nu, G, 0.5)
    moved = oracles.sinkhorn(mu, nu, G[perm], 0.5)
    np.testing.assert_allclose(moved, base[perm], atol=1e-9)


def test_sinkhorn_small_epsilon_monotone_matching():
    u = np.arange(1, 6) / 5.0
    y = 2.0 * np.arange(5, dtype=float)
    mu = nu = np.full(5, 0.2)
    off = oracles.sinkhorn(mu, nu, np.outer(u, y), 0.02, tol=1e-6)
    np.fill_diagonal(off, 0.0)
    assert off.sum() <= 1e-3


def test_sinkhorn_rejects_bad_marginals():
    with pytest.raises(ConfigError):
        oracles.sinkhorn(np.array([0.5, -0.5]), np.full(2, 0.5), np.zeros((2, 2)), 1.0)
    with pytest.raises(ConfigError):
        oracles.sinkhorn(np.full(2, 0.4), np.full(2, 0.5), np.zeros((2, 2)), 1.0)


def test_sinkhorn_out_of_iterations_is_nonconvergence():
    # one sweep leaves the 2 x 2 coupling's column sums off: the ladder's
    # first stage runs out of the budget for all of them
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NonConvergenceError,
                       match=r"^Sinkhorn residuals \(.+, .+\) above tol after 1 iterations$"):
        oracles.sinkhorn(np.full(2, 0.5), np.array([0.3, 0.7]), G, 0.1, max_iter=1)


def test_check_against_sinkhorn_requires_constant_covariates(rng):
    data = center_covariates(Dataset(
        X=rng.standard_normal((6, 1)), Y=rng.standard_normal((6, 1)),
        nu=np.full(6, 1 / 6), x_mean=np.zeros(1)))
    grid = make_rank_grid(1, 3)
    with pytest.raises(ConfigError):
        oracles.check_against_sinkhorn(data, grid, 0.5)


def test_check_against_sinkhorn_small(rng):
    data = _no_cov(np.sort(rng.standard_normal(6)))
    grid = make_rank_grid(1, 6)
    dev = oracles.check_against_sinkhorn(data, grid, 0.3, tol=1e-9)
    assert dev <= 1e-7


def test_gradient_fd_agrees(rng):
    data = center_covariates(Dataset(
        X=rng.standard_normal((9, 2)), Y=rng.standard_normal((9, 1)),
        nu=np.full(9, 1 / 9), x_mean=np.zeros(2)))
    grid = make_rank_grid(1, 4)
    dv = DualVariables(psi=rng.standard_normal(9),
                       b=rng.standard_normal((4, 2)))
    assert oracles.check_gradient_fd(dv, data, grid, 0.5) <= 1e-6


def test_gradient_fd_negative_control(rng, monkeypatch):
    # an injected sign bug in one gradient block must be flagged loudly
    data = center_covariates(Dataset(
        X=rng.standard_normal((9, 2)), Y=rng.standard_normal((9, 1)),
        nu=np.full(9, 1 / 9), x_mean=np.zeros(2)))
    grid = make_rank_grid(1, 4)
    dv = DualVariables(psi=rng.standard_normal(9),
                       b=rng.standard_normal((4, 2)))

    # the sign flips in the residuals alone: J, which the differences read,
    # stays the solver's
    exact = solver.extract_coupling

    def broken(*args):
        c = exact(*args)
        return replace(c, mi_residual=-c.mi_residual)

    monkeypatch.setattr(solver, "extract_coupling", broken)
    err = oracles.check_gradient_fd(dv, data, grid, 0.5)
    assert err > 1e-2


def test_monotone_cov_transform_hand_example():
    V = np.array([[1.0, 1.0], [0.0, 1.0]])
    pi = oracles.monotone_cov_transform(V)
    np.testing.assert_allclose(pi, [[0.5, 0.0], [0.0, 0.5]])
    # marginals: rows sum to 1/T, columns to first row of V / J
    np.testing.assert_allclose(pi.sum(axis=1), [0.5, 0.5])


def test_monotone_cov_transform_rejects_bad_v():
    with pytest.raises(ConfigError, match="increases"):
        oracles.monotone_cov_transform(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConfigError):
        oracles.monotone_cov_transform(np.array([[2.0], [0.0]]))


def test_cov_transform_roundtrip(rng):
    # start from a feasible plan (independent coupling), map both ways
    T, J = 4, 6
    pi = np.outer(np.full(T, 1.0 / T), np.full(J, 1.0 / J))
    V = oracles.inverse_cov_transform(pi)
    np.testing.assert_allclose(oracles.monotone_cov_transform(V), pi, atol=1e-15)
    # V columns are tail sums: first row all ones
    np.testing.assert_allclose(V[0], 1.0, atol=1e-12)


def _lp_instance(rng, J, N, d, n):
    # Y moves with X, so mean independence binds
    X = rng.standard_normal((J, N))
    data = center_covariates(Dataset(X=X, Y=X @ np.ones((N, d)) + rng.standard_normal((J, d)),
                                     nu=np.full(J, 1 / J), x_mean=np.zeros(N)))
    return data, make_rank_grid(d, n)


def test_vqr_lp_without_covariates_is_the_sorted_matching(rng):
    # X = 0, T = J, uniform weights: the LP is 1-D assignment, solved by
    # pairing the sorted ranks with the sorted responses
    y = rng.standard_normal(9)
    lp = oracles.vqr_lp(_no_cov(y), make_rank_grid(1, 9))
    assert abs(lp.objective - np.sort(y) @ np.arange(1, 10) / 81) <= 1e-12


def test_vqr_lp_plan_is_feasible(rng):
    data, grid = _lp_instance(rng, 12, 2, 2, 3)
    lp = oracles.vqr_lp(data, grid)
    assert lp.alpha.min() >= 0.0
    np.testing.assert_allclose(lp.alpha.sum(axis=1), grid.mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lp.alpha.sum(axis=0), data.nu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lp.alpha @ data.X, 0.0, rtol=0, atol=1e-12)
    assert lp.objective == pytest.approx(np.sum(lp.alpha * (grid.U @ data.Y.T)), abs=1e-12)


def test_vqr_lp_duals_are_the_koenker_bassett_curve(monkeypatch):
    # the paper's d = 1 identity: on the grid t_i = i/T the transport LP's
    # duals difference into the pinball fits, 20 (phi_{i+1} - phi_i) = alpha
    # and 20 (b_{i+1} - b_i) = beta at t = i/20, and row i + 1 of the plan's
    # V = (D')^-1 pi J is the rank-score LP's solution at that t. t J is
    # never an integer at J = 403, so each level's fit is unique
    data = center_covariates(synth.generate(synth.SynthSpec(n_samples=403, seed=3))[0])
    grid = make_rank_grid(1, 20)
    solves = []
    highs = oracles._highs
    monkeypatch.setattr(oracles, "_highs", lambda *a: solves.append(highs(*a)) or solves[-1])
    lp = oracles.vqr_lp(data, grid)
    dual = -solves[0].eqlin.marginals
    I, J = grid.n_nodes, data.n_obs
    phi, b = dual[:I], dual[I + J - 1:]
    V = oracles.inverse_cov_transform(lp.alpha)
    levels = np.arange(1, I) / I
    spread = np.ptp(data.Y)
    for i, fit in enumerate(classical_qr.fit_qr_curve(data, levels), start=1):
        assert abs(I * (phi[i] - phi[i - 1]) - fit.alpha) <= 1e-9 * spread
        assert abs(I * (b[i] - b[i - 1]) - fit.beta[0]) <= 1e-9 * spread
        oracles.koenker_bassett_lp(data, levels[i - 1])
        np.testing.assert_allclose(V[i], solves[-1].x, rtol=0, atol=1e-9)


def test_check_vqr_lp_solves_each_epsilon_once(rng, monkeypatch):
    data, grid = _lp_instance(rng, 12, 1, 1, 4)
    chains = []
    real = solver.solve_chain
    monkeypatch.setattr(solver, "solve_chain", lambda d, g, cfgs: chains.append(
        [cfg.epsilon for cfg in cfgs]) or real(d, g, cfgs))
    assert oracles.check_vqr_lp(data, grid)[0] <= 1e-9
    assert chains == [[0.5, 0.1, 0.02]]


@pytest.mark.parametrize("shape", [(40, 1, 1, 8), (30, 2, 2, 3)])
def test_check_vqr_lp_catches_a_solver_that_drops_mean_independence(rng, monkeypatch, shape):
    data, grid = _lp_instance(rng, *shape)
    assert oracles.check_vqr_lp(data, grid)[0] < 0.0
    real = solver.solve_chain
    monkeypatch.setattr(solver, "solve_chain", lambda d, g, cfgs: real(
        replace(d, X=np.zeros((d.n_obs, 0)), x_mean=np.zeros(0)), g, cfgs))
    assert oracles.check_vqr_lp(data, grid)[0] >= 1e-3


def test_check_vqr_lp_catches_a_fit_at_the_wrong_epsilon(rng, monkeypatch):
    # a fit at 4 epsilon is feasible, so its gain stays below V_LP; only the
    # primal_value inequality sees that it does not maximize at epsilon
    data, grid = _lp_instance(rng, 30, 2, 2, 3)
    real = solver.solve_chain
    monkeypatch.setattr(solver, "solve_chain", lambda d, g, cfgs: real(
        d, g, [replace(cfg, epsilon=4 * cfg.epsilon) for cfg in cfgs]))
    assert oracles.check_vqr_lp(data, grid)[0] >= 1e-3


def test_highs_status_other_than_optimal_is_nonconvergence():
    # x = 1 and x = 2 at once: HiGHS reports the LP infeasible (status 2)
    A = np.array([[1.0], [1.0]])
    with pytest.raises(NonConvergenceError, match="^HiGHS: The problem is infeasible"):
        oracles._highs(np.ones(1), A, np.array([1.0, 2.0]), (0.0, None))


def test_check_vqr_lp_raises_when_the_chain_does_not_converge(rng, monkeypatch):
    # one Newton step over all epsilon stages: the first solve of the chain
    # does not converge, and the check raises its error rather than read it
    data, grid = _lp_instance(rng, 40, 1, 1, 8)
    real = oracles.SolverConfig
    monkeypatch.setattr(oracles, "SolverConfig",
                        lambda **kw: real(**kw, max_iter=1))
    with pytest.raises(NonConvergenceError,
                       match=r"^not converged after 1 Newton steps: residual .+ \(tol 1e-10\)"):
        oracles.check_vqr_lp(data, grid)


def test_run_all_checks_pass():
    results = oracles.run_all_checks(seed=0)
    assert set(results) == {
        "sinkhorn_zero_gain_product", "solver_matches_sinkhorn",
        "gradient_finite_difference", "entropic_fit_bounded_by_lp",
        "cov_transform_roundtrip", "cov_transform_objective",
        "classical_qr_matches_lp", "semidual_finite_difference",
    }
    for name, r in results.items():
        assert r["passed"], f"{name}: {r['measured']} > {r['tolerance']}"


def test_semidual_check_catches_a_wrong_hessian_product(rng, monkeypatch):
    # the rvqr check entry on its own instance: N = 2 covariates, a 3 x 3
    # grid; dropping the product's cross term, or scaling it by 1 + 1e-4,
    # is caught
    data = center_covariates(Dataset(X=rng.standard_normal((7, 2)),
                                     Y=rng.standard_normal((7, 2)),
                                     nu=np.full(7, 1 / 7), x_mean=np.zeros(2)))
    grid = make_rank_grid(2, 3)
    z = rng.standard_normal((grid.n_nodes, 3))
    assert oracles.check_semidual_fd(data, grid, z, 0.5) < 1e-8
    real = solver.SemiDual.hvp
    monkeypatch.setattr(solver.SemiDual, "hvp",
                        lambda sd, v, eps: np.einsum("irs,is->ir", sd.m, v) / eps)
    assert oracles.check_semidual_fd(data, grid, z, 0.5) > 0.1
    monkeypatch.setattr(solver.SemiDual, "hvp",
                        lambda sd, v, eps: real(sd, v, eps) * (1 + 1e-4))
    assert oracles.check_semidual_fd(data, grid, z, 0.5) > 1e-5


def test_run_all_checks_covers_the_semidual():
    results = oracles.run_all_checks(seed=1)
    r = results["semidual_finite_difference"]
    assert r["passed"] and r["tolerance"] == 1e-6
