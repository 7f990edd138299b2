import numpy as np
import pytest

from conftest import random_instance
from rvqr import kernels, solver, synth
from rvqr.errors import ConfigError, NonConvergenceError
from rvqr.measures import Dataset, center_covariates, make_rank_grid
from rvqr.solver import DualVariables, SolverConfig


def _naive_objective(dv, data, grid, eps):
    """Direct translation of the formula, no stabilization, no kernels."""
    theta = (grid.U @ data.Y.T - dv.b @ data.X.T - dv.psi[None, :]) / eps
    return float(dv.psi @ data.nu + eps * (grid.mu @ np.log(np.exp(theta).sum(axis=1))))


def _naive_gradient(dv, data, grid, eps):
    theta = (grid.U @ data.Y.T - dv.b @ data.X.T - dv.psi[None, :]) / eps
    alpha = grid.mu[:, None] * np.exp(theta) / np.exp(theta).sum(axis=1, keepdims=True)
    return np.concatenate([data.nu - alpha.sum(axis=0), -(alpha @ data.X).ravel()])


def test_theta_shape_and_value(rng):
    data, grid = random_instance(rng)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    th = solver.theta(dv, data, grid, 0.5)
    assert th.shape == (grid.n_nodes, data.n_obs)
    i, j = 2, 3
    expect = (grid.U[i] @ data.Y[j] - dv.b[i] @ data.X[j] - dv.psi[j]) / 0.5
    assert abs(th[i, j] - expect) < 1e-12


def test_objective_matches_naive_summation(rng):
    data, grid = random_instance(rng, I=6, J=15, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    for eps in (1.0, 0.5):
        got = solver.dual_objective(dv, data, grid, eps)
        assert abs(got - _naive_objective(dv, data, grid, eps)) < 1e-10


def test_single_atom_objective_is_the_score():
    # I = J = 1: the objective collapses to u.y for every psi
    data = Dataset(X=np.zeros((1, 1)), Y=np.array([[1.0]]),
                   nu=np.array([1.0]), x_mean=np.zeros(1))
    grid_doc = {"U": [[1.0]], "mu": [1.0]}
    from rvqr.measures import RankGrid
    grid = RankGrid.from_json_dict(grid_doc)
    for psi0 in (-3.0, 0.0, 7.5):
        dv = DualVariables(psi=np.array([psi0]), b=np.zeros((1, 1)))
        assert abs(solver.dual_objective(dv, data, grid, 0.3) - 1.0) < 1e-12


def test_gauge_invariance(rng):
    data, grid = random_instance(rng, I=5, J=10, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    eps = 0.7
    base = solver.dual_objective(dv, data, grid, eps)
    for _ in range(10):
        lam = rng.standard_normal()
        c = rng.standard_normal(data.n_cov)
        shifted = DualVariables(psi=dv.psi + lam, b=dv.b)
        assert abs(solver.dual_objective(shifted, data, grid, eps) - base) \
            <= 1e-12 * max(abs(base), 1.0)
        moved = DualVariables(psi=dv.psi - data.X @ c, b=dv.b + c[None, :])
        assert abs(solver.dual_objective(moved, data, grid, eps) - base) \
            <= 1e-12 * max(abs(base), 1.0)


def test_normalize_pins_gauge(rng):
    data, grid = random_instance(rng, I=5, J=10, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    eps = 0.4
    base = solver.dual_objective(dv, data, grid, eps)
    norm = solver.normalize(dv, data, grid, eps)
    assert np.abs(norm.b[0]).max() == 0.0
    total = np.exp(solver.theta(norm, data, grid, eps)).sum()
    assert abs(total - 1.0) < 1e-12
    assert abs(solver.dual_objective(norm, data, grid, eps) - base) \
        <= 1e-12 * max(abs(base), 1.0)
    again = solver.normalize(norm, data, grid, eps)
    np.testing.assert_allclose(again.psi, norm.psi, atol=1e-12)
    np.testing.assert_allclose(again.b, norm.b, atol=1e-12)


def test_gradient_equals_minus_residuals(rng):
    # grad_psi = -(column residual), grad_b = -(mean-independence residual)
    data, grid = random_instance(rng, I=4, J=9, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    eps = 0.6
    gpsi, gb = solver.dual_gradient(dv, data, grid, eps)
    coupling = solver.extract_coupling(dv, data, grid, eps)
    np.testing.assert_allclose(gpsi, -coupling.col_residual, atol=1e-12)
    np.testing.assert_allclose(gb, -coupling.mi_residual, atol=1e-12)
    # row sums hold by construction for any dual variables
    np.testing.assert_allclose(coupling.row_residual, 0.0, atol=1e-15)


def test_convexity_along_random_segments(rng):
    data, grid = random_instance(rng, I=4, J=8, N=1)
    eps = 0.5
    size = data.n_obs + grid.n_nodes

    def obj(z):
        dv = DualVariables(psi=z[:data.n_obs], b=z[data.n_obs:].reshape(-1, 1))
        return solver.dual_objective(dv, data, grid, eps)

    for _ in range(5):
        a, b = rng.standard_normal(size), rng.standard_normal(size)
        mid = obj(0.5 * (a + b))
        assert mid <= 0.5 * (obj(a) + obj(b)) + 1e-10


def test_primal_value_closed_form():
    # independent uniform 2x2 coupling: gain + eps * log 4
    data = Dataset(X=np.zeros((2, 1)), Y=np.array([[0.0], [1.0]]),
                   nu=np.full(2, 0.5), x_mean=np.zeros(1))
    grid = make_rank_grid(1, 2)
    alpha = np.full((2, 2), 0.25)
    coupling = solver.Coupling(alpha=alpha, row_residual=np.zeros(2),
                               col_residual=np.zeros(2), mi_residual=np.zeros((2, 1)))
    eps = 0.3
    gain = float(np.sum(alpha * (grid.U @ data.Y.T)))
    expect = gain + eps * np.log(4.0)
    assert abs(solver.primal_value(coupling, grid, data, eps) - expect) < 1e-14


def test_solve_small_duality_gap_and_feasibility(rng):
    data, grid = random_instance(rng, I=5, J=20, N=1)
    cfg = SolverConfig(epsilon=0.5, tol=1e-9)
    dv, coupling, report = solver.solve(data, grid, cfg)
    assert report.converged
    assert np.abs(coupling.col_residual).max() <= 1e-8
    assert np.abs(coupling.mi_residual).max() <= 1e-8
    primal = solver.primal_value(coupling, grid, data, cfg.epsilon)
    dual = solver.dual_value_centered(dv, data, grid, cfg.epsilon)
    assert abs(primal - dual) <= 1e-8 * max(abs(dual), 1.0)
    # the reported |<z, grad(z)>| is the gap of the independent formulas
    assert abs(report.duality_gap - abs(dual - primal)) <= 1e-12 * max(abs(dual), 1.0)


def test_solve_rejects_uncentered_or_mismatched(rng):
    data, grid = random_instance(rng, I=4, J=8, N=1)
    bad = Dataset(X=data.X + 5.0, Y=data.Y, nu=data.nu, x_mean=data.x_mean)
    with pytest.raises(ConfigError):
        solver.solve(bad, grid, SolverConfig(epsilon=0.5))
    grid2 = make_rank_grid(2, 2)
    with pytest.raises(ConfigError):
        solver.solve(data, grid2, SolverConfig(epsilon=0.5))


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.1, tol=-1)


def test_nonconvergence_carries_best_iterate(rng):
    data, grid = random_instance(rng, I=5, J=20, N=1)
    with pytest.raises(NonConvergenceError) as exc:
        solver.solve(data, grid, SolverConfig(epsilon=0.1, tol=1e-12, max_iter=3))
    dv, coupling = exc.value.best
    assert dv.psi.size == data.n_obs
    assert coupling.alpha.shape == (grid.n_nodes, data.n_obs)
    assert exc.value.report.converged is False


def test_model_save_load_roundtrip(tmp_path, rng):
    data, grid = random_instance(rng, I=4, J=10, N=1)
    cfg = SolverConfig(epsilon=0.5, tol=1e-8)
    dv, coupling, report = solver.solve(data, grid, cfg)
    path = str(tmp_path / "model.json")
    solver.save_model(path, dv, data, grid, cfg, report)
    doc, dv2, grid2 = solver.load_model(path)
    np.testing.assert_allclose(dv2.psi, dv.psi, atol=1e-15)
    np.testing.assert_allclose(dv2.b, dv.b, atol=1e-15)
    np.testing.assert_allclose(grid2.U, grid.U)
    assert doc["epsilon"] == 0.5
    assert doc["report"]["converged"] is True
    assert doc["report"]["oracle_calls"] == report.oracle_calls > 0
    assert doc["report"]["backtracks"] == report.backtracks


@pytest.mark.parametrize("n_cov", [0, 2])
def test_oracle_views_share_one_cached_pass(rng, monkeypatch, n_cov):
    data, grid = random_instance(rng, I=5, J=12, N=n_cov)
    eps = 0.5
    J, I = data.n_obs, grid.n_nodes
    z = np.concatenate([rng.standard_normal(J), rng.standard_normal(I * n_cov)])
    passes = []
    real_terms = kernels.dual_terms
    monkeypatch.setattr(kernels, "dual_terms",
                        lambda *args: passes.append(1) or real_terms(*args))

    def naive(point):
        dv = DualVariables(psi=point[:J], b=point[J:].reshape(I, n_cov))
        return _naive_objective(dv, data, grid, eps), _naive_gradient(dv, data, grid, eps)

    real = solver.accelerated_minimize
    ran = []

    def spy(fun, grad, x0, **kwargs):
        g = grad(z)
        f = fun(z)
        assert len(passes) == 1
        f_ref, g_ref = naive(z)
        assert abs(f - f_ref) <= 1e-12
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)
        # the cache compares values: mutating the point in place recomputes
        z[0] += 0.3
        f = fun(z)
        g = grad(z)
        assert len(passes) == 2
        f_ref, g_ref = naive(z)
        assert abs(f - f_ref) <= 1e-12
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)
        ran.append(True)
        return real(fun, grad, x0, **kwargs)

    monkeypatch.setattr(solver, "accelerated_minimize", spy)
    solver.solve(data, grid, SolverConfig(epsilon=eps))
    assert ran


def test_report_counts_computed_oracle_passes(rng, monkeypatch):
    data, grid = random_instance(rng, I=5, J=20, N=1)
    requests = []
    passes = []
    real_terms = kernels.dual_terms
    monkeypatch.setattr(kernels, "dual_terms",
                        lambda *args: passes.append(1) or real_terms(*args))
    real = solver.accelerated_minimize

    def counting(fun, grad, x0, **kwargs):
        return real(lambda z: requests.append(1) or fun(z),
                    lambda z: requests.append(1) or grad(z), x0, **kwargs)

    monkeypatch.setattr(solver, "accelerated_minimize", counting)
    _, _, report = solver.solve(data, grid, SolverConfig(epsilon=0.5, tol=1e-9))
    assert report.iterations < report.oracle_calls < len(requests)
    # every kernel pass is a counted descent pass: none after the descent
    assert len(passes) == report.oracle_calls


def test_oracle_calls_add_up(rng):
    # one pass at x0; per iteration one pass at the extrapolated point y
    # (none where y = x: the first iteration and each one after a restart),
    # one per backtracking trial, accepted or rejected, and a restart's
    # accepted trial from x; grad at the accepted point is the cached pass.
    # A restart in the last iteration adds one pass, a polish phase one per
    # polish step.
    data, grid = random_instance(rng, I=5, J=20, N=1)
    _, _, r = solver.solve(data, grid, SolverConfig(epsilon=0.5, tol=1e-6))
    assert r.n_restarts > 0 and r.backtracks > 0
    extrapolated = r.iterations - 1 - r.n_restarts
    accepted = r.iterations + r.n_restarts
    assert r.oracle_calls == 1 + extrapolated + accepted + r.backtracks


def test_reported_gap_bounded_by_tol():
    data, _ = synth.generate(synth.SynthSpec(n_samples=5000, seed=7))
    data = center_covariates(data)
    grid = make_rank_grid(1, 20)
    tol = 1e-7
    for eps in (1.0, 0.5):
        _, _, report = solver.solve(data, grid, SolverConfig(epsilon=eps, tol=tol))
        assert report.duality_gap <= 10 * tol * max(1.0, abs(report.objective))
        assert report.grad_inf <= tol
