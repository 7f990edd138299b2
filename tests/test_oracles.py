import numpy as np
import pytest

from rvqr import oracles, solver
from rvqr.errors import ConfigError
from rvqr.measures import Dataset, center_covariates, make_rank_grid
from rvqr.solver import DualVariables


def _no_cov(y):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    return Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1.0 / J),
                   x_mean=np.zeros(1))


def test_sinkhorn_zero_gain_gives_product():
    mu, nu = np.full(3, 1 / 3), np.full(5, 0.2)
    res = oracles.sinkhorn(mu, nu, np.zeros((3, 5)), 0.4)
    np.testing.assert_allclose(res.coupling, np.outer(mu, nu), atol=1e-9)


def test_sinkhorn_2x2_closed_form():
    # uniform marginals, identity gain, eps = 1: pi = [[a, b], [b, a]] with
    # a/b = e and a + b = 1/2, so a = e / (2 (1 + e))
    mu = nu = np.full(2, 0.5)
    res = oracles.sinkhorn(mu, nu, np.eye(2), 1.0, tol=1e-12)
    a = np.e / (2.0 * (1.0 + np.e))
    np.testing.assert_allclose(res.coupling, [[a, 0.5 - a], [0.5 - a, a]],
                               atol=1e-10)


def test_sinkhorn_permutation_equivariance(rng):
    mu, nu = np.full(4, 0.25), np.full(4, 0.25)
    G = rng.standard_normal((4, 4))
    perm = np.array([2, 0, 3, 1])
    base = oracles.sinkhorn(mu, nu, G, 0.5)
    moved = oracles.sinkhorn(mu, nu, G[perm], 0.5)
    np.testing.assert_allclose(moved.coupling, base.coupling[perm], atol=1e-9)


def test_sinkhorn_small_epsilon_monotone_matching():
    u = np.arange(1, 6) / 5.0
    y = 2.0 * np.arange(5, dtype=float)
    mu = nu = np.full(5, 0.2)
    res = oracles.sinkhorn(mu, nu, np.outer(u, y), 0.02, tol=1e-6)
    off = res.coupling.copy()
    np.fill_diagonal(off, 0.0)
    assert off.sum() <= 1e-3


def test_sinkhorn_rejects_bad_marginals():
    with pytest.raises(ConfigError):
        oracles.sinkhorn(np.array([0.5, -0.5]), np.full(2, 0.5), np.zeros((2, 2)), 1.0)
    with pytest.raises(ConfigError):
        oracles.sinkhorn(np.full(2, 0.4), np.full(2, 0.5), np.zeros((2, 2)), 1.0)


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
    with pytest.raises(ConfigError):
        oracles.check_gradient_fd(dv, data, grid, 0.5, step=1e-1)


def test_gradient_fd_negative_control(rng, monkeypatch):
    # an injected sign bug in one gradient block must be flagged loudly
    data = center_covariates(Dataset(
        X=rng.standard_normal((9, 2)), Y=rng.standard_normal((9, 1)),
        nu=np.full(9, 1 / 9), x_mean=np.zeros(2)))
    grid = make_rank_grid(1, 4)
    dv = DualVariables(psi=rng.standard_normal(9),
                       b=rng.standard_normal((4, 2)))

    exact = solver.dual_gradient

    def broken(dv_, data_, grid_, eps_):
        gpsi, gb = exact(dv_, data_, grid_, eps_)
        return gpsi, -gb

    monkeypatch.setattr(solver, "dual_gradient", broken)
    err = oracles.check_gradient_fd(dv, data, grid, 0.5)
    assert err > 1e-2


def test_difference_matrix():
    D = oracles.difference_matrix(3)
    np.testing.assert_allclose(D, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])


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


def test_check_equivalence_small_report(rng):
    data = _no_cov(np.sort(rng.standard_normal(6)))
    grid = make_rank_grid(1, 6)
    rep = oracles.check_equivalence_small(data, grid,
                                          epsilons=(1.0, 0.5), seed=0)
    assert rep["roundtrip_error"] <= 1e-12
    assert rep["objective_mismatch"] <= 1e-12
    assert rep["cauchy"]
    assert "limit_deviation" in rep
    with pytest.raises(ConfigError):
        oracles.check_equivalence_small(data, make_rank_grid(2, 2))


def test_check_equivalence_small_solves_each_epsilon_once(rng, monkeypatch):
    data = _no_cov(np.sort(rng.standard_normal(6)))
    grid = make_rank_grid(1, 6)
    solved = []
    real = solver.solve
    monkeypatch.setattr(solver, "solve",
                        lambda d, g, cfg: solved.append(cfg.epsilon) or real(d, g, cfg))
    oracles.check_equivalence_small(data, grid, epsilons=(1.0, 0.5), seed=0)
    assert solved == [1.0, 0.5]


def test_run_all_checks_pass():
    results = oracles.run_all_checks(seed=0)
    assert set(results) >= {
        "sinkhorn_zero_gain_product", "solver_matches_sinkhorn",
        "gradient_finite_difference", "cov_transform_roundtrip",
        "cov_transform_objective", "epsilon_sweep_cauchy",
        "classical_qr_matches_lp",
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
    with pytest.raises(ConfigError):
        oracles.check_semidual_fd(data, grid, z, 0.5, step=1.0)


def test_run_all_checks_covers_the_semidual():
    results = oracles.run_all_checks(seed=1)
    r = results["semidual_finite_difference"]
    assert r["passed"] and r["tolerance"] == 1e-6
