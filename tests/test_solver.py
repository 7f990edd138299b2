import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import random_instance
from rvqr import cli, kernels, solver, synth
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
    # the coupling is I x J, and the log-ratio of two entries of a row is
    # the difference of their theta_ij = (u_i.y_j - b_i.x_j - psi_j) / eps
    data, grid = random_instance(rng)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    alpha = solver.extract_coupling(dv, data, grid, 0.5).alpha
    assert alpha.shape == (grid.n_nodes, data.n_obs)

    def th(i, j):
        return (grid.U[i] @ data.Y[j] - dv.b[i] @ data.X[j] - dv.psi[j]) / 0.5

    i, j, k = 2, 3, 0
    assert abs(np.log(alpha[i, j] / alpha[i, k]) - (th(i, j) - th(i, k))) < 1e-12


def test_objective_matches_naive_summation(rng):
    data, grid = random_instance(rng, I=6, J=15, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    for eps in (1.0, 0.5):
        got = solver.extract_coupling(dv, data, grid, eps).objective
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
        assert abs(solver.extract_coupling(dv, data, grid, 0.3).objective - 1.0) < 1e-12


def test_gauge_invariance(rng):
    data, grid = random_instance(rng, I=5, J=10, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    eps = 0.7

    def obj(dv):
        return solver.extract_coupling(dv, data, grid, eps).objective

    base = obj(dv)
    for _ in range(10):
        lam = rng.standard_normal()
        c = rng.standard_normal(data.n_cov)
        shifted = DualVariables(psi=dv.psi + lam, b=dv.b)
        assert abs(obj(shifted) - base) <= 1e-12 * max(abs(base), 1.0)
        moved = DualVariables(psi=dv.psi - data.X @ c, b=dv.b + c[None, :])
        assert abs(obj(moved) - base) <= 1e-12 * max(abs(base), 1.0)


@pytest.mark.parametrize("n_cov", [0, 2])
def test_solve_returns_its_pinned_gauge(rng, n_cov):
    # no step moves node 1, so b_1 stays exactly 0; the objective is the
    # psi-dual value of the returned point, with no second gauge shift
    data, grid = random_instance(rng, I=5, J=10, N=n_cov)
    dv, _, report = solver.solve(data, grid, SolverConfig(epsilon=0.4, tol=1e-9))
    assert dv.b.shape == (grid.n_nodes, n_cov)
    assert np.all(dv.b[0] == 0.0)
    ref = solver.extract_coupling(dv, data, grid, 0.4).objective
    assert abs(report.objective - ref) <= 1e-12 * max(1.0, abs(ref))


def test_solve_forms_theta_once(rng, monkeypatch):
    # the post-solve work is one extract_coupling pass: one I x J theta, one
    # row-softmax coupling; the semi-dual passes give coupling transposed
    # blocks
    data, grid = random_instance(rng, I=5, J=20, N=1)
    shape = (grid.n_nodes, data.n_obs)
    psi_dual = _count_calls(monkeypatch, kernels, "coupling", lambda theta, mu: (
        theta.shape == shape and theta.flags.c_contiguous))
    solver.solve(data, grid, SolverConfig(epsilon=0.5, tol=1e-9))
    assert len(psi_dual) == 1


def test_gradient_equals_minus_residuals(rng):
    # grad_psi = -(column residual), grad_b = -(mean-independence residual)
    data, grid = random_instance(rng, I=4, J=9, N=2)
    dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                       b=rng.standard_normal((grid.n_nodes, data.n_cov)))
    eps = 0.6
    coupling = solver.extract_coupling(dv, data, grid, eps)
    np.testing.assert_allclose(
        -np.concatenate([coupling.col_residual, coupling.mi_residual.ravel()]),
        _naive_gradient(dv, data, grid, eps), atol=1e-12)
    # row sums hold by construction for any dual variables
    np.testing.assert_allclose(coupling.row_residual, 0.0, atol=1e-15)


def test_convexity_along_random_segments(rng):
    data, grid = random_instance(rng, I=4, J=8, N=1)
    eps = 0.5
    size = data.n_obs + grid.n_nodes

    def obj(z):
        dv = DualVariables(psi=z[:data.n_obs], b=z[data.n_obs:].reshape(-1, 1))
        return solver.extract_coupling(dv, data, grid, eps).objective

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
                               col_residual=np.zeros(2), mi_residual=np.zeros((2, 1)),
                               objective=0.0)
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
    dual = report.objective - cfg.epsilon * float(grid.mu @ np.log(grid.mu))
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
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=bad)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=0.1, tol=bad)


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
    # extremes of float64 next to the fitted entries
    psi = dv.psi.copy()
    psi[:6] = [-0.0, 5e-324, 1e300, -1e300, 1 / 3, -1 / 3]
    dv = DualVariables(psi=psi, b=dv.b)
    path = str(tmp_path / "model.json")
    solver.save_model(path, dv, data, grid, cfg, report)
    doc, dv2, grid2 = solver.load_model(path)
    np.testing.assert_array_equal(dv2.psi, dv.psi)
    assert dv2.psi.tobytes() == psi.tobytes()  # -0.0 keeps its sign
    assert dv2.psi.dtype == np.float64 and dv2.psi.flags.writeable
    np.testing.assert_allclose(dv2.b, dv.b, atol=1e-15)
    np.testing.assert_allclose(grid2.U, grid.U)
    assert doc["epsilon"] == 0.5
    assert doc["report"]["converged"] is True
    assert doc["report"]["oracle_calls"] == report.oracle_calls > 0
    assert doc["report"]["backtracks"] == report.backtracks
    assert set(doc["report"]) == {f.name for f in fields(solver.SolveReport)}
    # files written with json.dump(..., indent=1) before the compact format
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    doc3, dv3, _ = solver.load_model(path)
    assert doc3 == doc
    np.testing.assert_array_equal(dv3.psi, dv2.psi)


def _dense_hessian(sd, z, eps):
    """The Hessian at z, column by column from Hessian-vector products."""
    sd.evaluate(z, eps)
    cols = []
    for c in range(z.size):
        e = np.zeros(z.size)
        e[c] = 1.0
        cols.append(sd.hvp(e.reshape(z.shape), eps).ravel())
    return np.array(cols).T


def _blocked(monkeypatch, data, grid, entries, line=None):
    """A SemiDual whose workspace blocks hold about `entries` entries, their
    widths rounded up to multiples of `line` (default LINE), and its block
    widths."""
    monkeypatch.setattr(solver, "BLOCK_ENTRIES", entries)
    if line is not None:
        monkeypatch.setattr(solver, "LINE", line)
    sd = solver.SemiDual(data, grid)
    return sd, [p.shape[1] for p in sd.p]


def _closed_form_hessian(data, grid, z, eps):
    """(1/eps) [blockdiag_i(sum_j nu_j p_ij a_j a_j') - sum_j nu_j g_j g_j']
    with g_j = p_.j (x) a_j, from the softmax p formed directly."""
    a = np.vstack([np.ones(data.n_obs), data.X.T])
    s = (grid.U @ data.Y.T - z @ a) / eps
    p = np.exp(s - s.max(axis=0))
    p /= p.sum(axis=0)
    I, K = z.shape
    H = np.zeros((I * K, I * K))
    for i in range(I):
        H[i * K:(i + 1) * K, i * K:(i + 1) * K] = (data.nu * p[i] * a) @ a.T
    g = np.einsum("ij,kj->jik", p, a).reshape(data.n_obs, I * K)
    return (H - g.T @ (data.nu[:, None] * g)) / eps


@pytest.mark.parametrize("n_cov", [0, 2])
def test_semidual_derivatives_match_finite_differences(rng, monkeypatch, n_cov):
    data, grid = random_instance(rng, I=5, J=12, N=n_cov)
    eps, h = 0.5, 1e-5
    z = rng.standard_normal((grid.n_nodes, 1 + n_cov))
    # with one workspace block, and with three of 4 columns
    for entries, widths in ((solver.BLOCK_ENTRIES, [12]), (25, [4, 4, 4])):
        sd, blocks = _blocked(monkeypatch, data, grid, entries, line=1)
        assert blocks == widths
        H = _dense_hessian(sd, z, eps)
        f, grad, lse = sd.evaluate(z, eps)
        # F against its definition, unstabilized
        a = np.vstack([np.ones(data.n_obs), data.X.T])
        s = (grid.U @ data.Y.T - z @ a) / eps
        expect = grid.mu @ (z @ (a @ data.nu)) + eps * data.nu @ np.log(np.exp(s).sum(axis=0))
        assert abs(f - expect) < 1e-12
        np.testing.assert_allclose(lse, np.log(np.exp(s).sum(axis=0)), rtol=1e-13)
        np.testing.assert_allclose(H, H.T, atol=1e-14)
        scale = np.abs(H).max()
        for c in range(z.size):
            e = np.zeros(z.size)
            e[c] = h
            e = e.reshape(z.shape)
            f_p, g_p, _ = sd.evaluate(z + e, eps)
            f_m, g_m, _ = sd.evaluate(z - e, eps)
            assert abs((f_p - f_m) / (2 * h) - grad.flat[c]) <= 1e-8 * max(1.0, abs(grad).max())
            np.testing.assert_allclose(((g_p - g_m) / (2 * h)).ravel(), H[:, c],
                                       rtol=0, atol=1e-6 * scale)
        # phi + c and b + v leave F unchanged: null directions
        for k in range(1 + n_cov):
            v = np.zeros(z.shape)
            v[:, k] = 1.0
            assert np.abs(H @ v.ravel()).max() <= 1e-12 * scale


@pytest.mark.parametrize("n_cov, d", [(0, 1), (2, 1), (1, 2)])
def test_blocked_workspace_matches_one_block(rng, monkeypatch, n_cov, d):
    data, grid = random_instance(rng, I=9, J=29, N=n_cov, d=d)
    I, J, eps = grid.n_nodes, data.n_obs, 0.3
    z = rng.standard_normal((I, 1 + n_cov))
    v = rng.standard_normal(z.shape)
    one = solver.SemiDual(data, grid)
    assert len(one.p) == 1
    f1, g1, lse1 = one.evaluate(z, eps)
    # widths are whole cache lines, but for a short last block
    assert _blocked(monkeypatch, data, grid, I * J // 3)[1] == [16, 13]
    sd, blocks = _blocked(monkeypatch, data, grid, I * J // 4)
    assert blocks == [8, 8, 8, 5]
    assert all(p.flags.c_contiguous for p in sd.p)
    f, g, lse = sd.evaluate(z, eps)
    # the column softmax is taken column by column: bit for bit the same
    assert lse.tobytes() == lse1.tobytes()
    np.testing.assert_array_equal(np.hstack(sd.p), one.p[0])
    assert abs(f - f1) <= 1e-14 * max(1.0, abs(f1))
    np.testing.assert_allclose(g, g1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sd.m, one.m, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(sd.a_bar, one.a_bar)
    H = _closed_form_hessian(data, grid, z, eps)
    scale = np.abs(H).max()
    for s in (one, sd):
        np.testing.assert_allclose(s.hvp(v, eps).ravel(), H @ v.ravel(),
                                   rtol=0, atol=1e-13 * scale)


def test_newton_step_solves_the_damped_system(rng, monkeypatch):
    # run to a tight forcing, conjugate gradients give the direct solution
    # of (H + lam D) d = -grad with node 1 pinned
    data, grid = random_instance(rng, I=6, J=30, N=2)
    eps, r = 0.3, 0.5
    sd = solver.SemiDual(data, grid)
    z = rng.standard_normal((grid.n_nodes, 3))
    H = _dense_hessian(sd, z, eps)
    _, grad, _ = sd.evaluate(z, eps)
    monkeypatch.setattr(solver, "CG_FORCING", 1e-14)
    step = solver._newton_step(sd, grad, r, eps)
    assert np.all(step[0] == 0.0)
    H = H[3:, 3:]
    D = np.einsum("ikk->ik", sd.m[1:]).ravel() / eps
    A = H + solver.MARQUARDT * r * np.diag(D)
    np.testing.assert_allclose(step[1:].ravel(), np.linalg.solve(A, -grad[1:].ravel()),
                               rtol=1e-9, atol=1e-12)


def _count_calls(monkeypatch, owner, name, keep=lambda *args: True):
    """Wrap owner.name; the returned list gets one entry per call whose
    arguments pass `keep`."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: (keep(*args) and calls.append(1)) or real(*args))
    return calls


def _block_call(theta, mu):
    """A semi-dual pass's call of kernels.coupling: the transpose of a
    C-ordered workspace block, at mu = 1.0."""
    return (theta.T.flags.c_contiguous and not theta.flags.c_contiguous
            and np.ndim(mu) == 0 and mu == 1.0)


def test_report_counts_computed_oracle_passes(rng, monkeypatch):
    data, grid = random_instance(rng, I=5, J=20, N=1)
    assert _blocked(monkeypatch, data, grid, 35, line=1)[1] == [7, 7, 6]
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 100)
    # the rows of each semi-dual pass: the coarse level's 5 rows fit in one
    # block, the full level's 20 span three
    passes = []
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate",
                        lambda sd, z, eps: passes.append(sd.data.n_obs) or real(sd, z, eps))
    blocks = _count_calls(monkeypatch, kernels, "coupling", _block_call)
    softmaxes = _count_calls(monkeypatch, kernels, "coupling")
    products = _count_calls(monkeypatch, solver.SemiDual, "hvp")
    _, _, report = solver.solve(data, grid, SolverConfig(epsilon=0.5, tol=1e-9))
    assert report.iterations < report.oracle_calls
    assert report.levels == (5, 20)
    # every semi-dual pass is counted: psi is read off the last one; each
    # pass covers every block of its level's workspace
    assert len(passes) == report.oracle_calls
    assert 0 < passes.count(5) == passes.index(20) and passes.count(20) > 0
    assert len(blocks) == passes.count(5) + 3 * passes.count(20)
    assert len(softmaxes) == len(blocks) + 1  # and extract_coupling's pass
    assert len(products) == report.cg_products >= report.iterations


def test_oracle_calls_add_up(rng):
    # one pass at the start of each epsilon stage, one per Newton step at
    # its accepted trial, one per rejected trial
    data, grid = random_instance(rng, I=9, J=40, N=2, d=2)
    _, _, r = solver.solve(data, grid, SolverConfig(epsilon=0.02, tol=1e-9))
    assert r.stages > 1 and r.backtracks > 0
    assert r.oracle_calls == r.stages + r.iterations + r.backtracks


def test_failed_line_search_ends_as_nonconvergence(rng, monkeypatch):
    # a descent direction whose trials are never finite: the line search
    # gives up after MAX_HALVINGS rejected trials and the solve stops there,
    # carrying the last accepted point
    data, grid = random_instance(rng, I=5, J=20, N=1)
    monkeypatch.setattr(solver, "_newton_step",
                        lambda sd, grad, r, eps: -1e300 * grad)
    with pytest.raises(NonConvergenceError) as exc:
        solver.solve(data, grid, SolverConfig(epsilon=0.5))
    r = exc.value.report
    assert r.iterations == 0 and r.backtracks == solver.MAX_HALVINGS
    assert r.oracle_calls == r.stages + r.backtracks
    dv, coupling = exc.value.best
    assert np.isfinite(dv.psi).all() and np.isfinite(coupling.alpha).all()


@pytest.mark.parametrize("direction", ["ascent", "nan"])
def test_non_descent_direction_ends_as_nonconvergence(rng, monkeypatch, direction):
    # an ascent or NaN direction is never searched: the solve stops at once
    data, grid = random_instance(rng, I=5, J=20, N=1)
    bad = {"ascent": lambda grad: grad, "nan": lambda grad: np.full_like(grad, np.nan)}
    monkeypatch.setattr(solver, "_newton_step",
                        lambda sd, grad, r, eps: bad[direction](grad))
    with pytest.raises(NonConvergenceError) as exc:
        solver.solve(data, grid, SolverConfig(epsilon=0.5))
    r = exc.value.report
    assert r.iterations == 0 and r.backtracks == 0
    assert r.oracle_calls == r.stages == 1


def test_spent_steps_skip_to_the_last_rung(rng, monkeypatch):
    # once max_iter is spent, the rungs between are skipped: the last one is
    # evaluated once, for psi at cfg.epsilon
    data, grid = random_instance(rng, I=5, J=20, N=1)
    seen = []
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate",
                        lambda sd, z, eps: seen.append(eps) or real(sd, z, eps))
    cfg = SolverConfig(epsilon=1e-30, max_iter=1)
    with pytest.raises(NonConvergenceError) as exc:
        solver.solve(data, grid, cfg)
    r = exc.value.report
    ladder = solver._ladder(cfg.epsilon, math.inf, data, grid)
    rungs = list(dict.fromkeys(seen))
    assert r.iterations == 1 and len(ladder) > 40
    assert rungs == ladder[:r.stages - 1] + [ladder[-1]] and r.stages < 5
    assert seen.count(cfg.epsilon) == 1 and seen[-1] == cfg.epsilon
    assert r.oracle_calls == len(seen) == r.stages + r.iterations + r.backtracks
    dv, _ = exc.value.best
    assert np.isfinite(dv.psi).all()


@pytest.mark.parametrize("d, n_grid", [(1, 20), (2, 5)])
def test_chain_meets_the_gates_of_a_cold_solve(monkeypatch, d, n_grid):
    # each epsilon of a descending chain converges as a cold solve does, and
    # its counters are its own: they add up per epsilon and sum to the
    # passes and products made over the whole chain
    data, _ = synth.generate(synth.SynthSpec(n_samples=2000, seed=7, d=d, n_cov=d))
    data, grid, tol = center_covariates(data), make_rank_grid(d, n_grid), 1e-7
    passes = _count_calls(monkeypatch, solver.SemiDual, "evaluate")
    products = _count_calls(monkeypatch, solver.SemiDual, "hvp")
    cfgs = [SolverConfig(epsilon=eps, tol=tol) for eps in (1.0, 0.5, 0.1, 0.05)]
    reports = []
    for result in solver.solve_chain(data, grid, cfgs):
        assert not isinstance(result, NonConvergenceError)
        _, coupling, r = result
        assert r.converged and r.grad_inf <= tol
        assert r.duality_gap <= 10 * tol * max(1.0, abs(r.objective))
        assert np.abs(coupling.row_residual).max() <= 1e-12
        assert np.abs(coupling.col_residual).max() <= 1e-6
        assert np.abs(coupling.mi_residual).max() <= 1e-6
        assert r.oracle_calls == r.stages + r.iterations + r.backtracks
        reports.append(r)
    assert len(reports) == len(cfgs)
    assert sum(r.oracle_calls for r in reports) == len(passes)
    assert sum(r.cg_products for r in reports) == len(products)


def test_chain_walks_the_rungs_below_the_last_converged_epsilon(rng, monkeypatch):
    # a config starts from the last converged z and walks only the rungs
    # strictly below its epsilon: none for a repeated epsilon, 0.4 for 0.1
    # after 1
    data, grid = random_instance(rng, I=5, J=40, N=1)
    seen = []
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate",
                        lambda sd, z, eps: seen.append(eps) or real(sd, z, eps))
    cfgs = [SolverConfig(epsilon=eps, tol=1e-9) for eps in (1.0, 1.0, 0.1)]
    rungs = []
    for result in solver.solve_chain(data, grid, cfgs):
        rungs.append(list(dict.fromkeys(seen)))
        seen.clear()
        if len(rungs) == 2:
            assert result[2].iterations == 0 and result[2].stages == 1
    assert rungs[0] == solver._ladder(1.0, math.inf, data, grid)
    assert rungs[1:] == [[1.0], [0.4, 0.1]]


def test_chain_restarts_cold_until_a_config_converges(rng):
    # the first config runs out of Newton steps; the next starts from z = 0
    # down its whole ladder, as a cold solve, bit for bit
    data, grid = random_instance(rng, I=5, J=40, N=1)
    cold = SolverConfig(epsilon=0.1, tol=1e-9)
    failed, result = solver.solve_chain(
        data, grid, [SolverConfig(epsilon=0.5, tol=1e-12, max_iter=1), cold])
    assert isinstance(failed, NonConvergenceError) and failed.report.iterations == 1
    dv, _, r = result
    dv_cold, _, r_cold = solver.solve(data, grid, cold)
    assert dv.psi.tobytes() == dv_cold.psi.tobytes()
    assert dv.b.tobytes() == dv_cold.b.tobytes()
    assert replace(r, wall_time=0.0) == replace(r_cold, wall_time=0.0)


def test_report_objective_is_psi_dual_value(rng):
    data, grid = random_instance(rng, I=6, J=30, N=2)
    dv, coupling, r = solver.solve(data, grid, SolverConfig(epsilon=0.1, tol=1e-9))
    ref = solver.extract_coupling(dv, data, grid, 0.1).objective
    assert abs(r.objective - ref) <= 1e-9 * max(1.0, abs(ref))
    assert r.grad_inf == max(np.abs(coupling.col_residual).max(),
                             np.abs(coupling.mi_residual).max())


def test_capped_small_epsilon_solve_reports_the_psi_dual_value():
    # a solve stopped after one Newton step at a small epsilon: the report's
    # objective is J at the point it carries, bit for bit, and finite
    data, _ = synth.generate(synth.SynthSpec(n_samples=200, seed=3))
    data, grid = center_covariates(data), make_rank_grid(1, 10)
    with pytest.raises(NonConvergenceError) as info:
        solver.solve(data, grid, SolverConfig(epsilon=1e-4, tol=1e-7, max_iter=1))
    dv, _ = info.value.best
    objective = info.value.report.objective
    assert np.isfinite(objective)
    assert objective == solver.extract_coupling(dv, data, grid, 1e-4).objective


def _synth_fit(X, Y, eps, grid):
    data = center_covariates(Dataset(X=X, Y=Y, nu=np.full(len(Y), 1.0 / len(Y)),
                                     x_mean=np.zeros(X.shape[1])))
    return solver.solve(data, grid, SolverConfig(epsilon=eps, tol=1e-9))


@pytest.mark.parametrize("columns", ["constant", "x_and_constant", "collinear"])
def test_degenerate_covariate_columns_converge(columns):
    data, _ = synth.generate(synth.SynthSpec(n_samples=500, seed=3))
    x = data.X
    X = {"constant": np.full_like(x, 0.1),
         "x_and_constant": np.hstack([x, np.full_like(x, 0.3)]),
         "collinear": np.hstack([x, 2.0 * x])}[columns]
    grid = make_rank_grid(1, 10)
    for eps in (0.1, 0.01):
        _, coupling, r = _synth_fit(X, data.Y, eps, grid)
        assert r.converged and r.iterations < 20
        assert np.abs(coupling.mi_residual).max() <= 1e-9
        assert r.duality_gap <= 1e-9


def test_step_count_and_coupling_are_scale_free():
    data, _ = synth.generate(synth.SynthSpec(n_samples=300, seed=5, d=2, n_cov=2))
    grid = make_rank_grid(2, 4)
    eps = 0.05
    _, base, r0 = _synth_fit(data.X, data.Y, eps, grid)
    # the last case shifts X by 1000 times its spread before centering
    for X, Y, e in ((data.X * 1e3, data.Y, eps), (data.X / 1e3, data.Y, eps),
                    (data.X, data.Y * 1e3, eps * 1e3),
                    (data.X + 1e3 * np.ptp(data.X, axis=0), data.Y, eps)):
        _, coupling, r = _synth_fit(X, Y, e, grid)
        assert (r.iterations, r.stages, r.backtracks) == \
            (r0.iterations, r0.stages, r0.backtracks)
        np.testing.assert_allclose(coupling.alpha, base.alpha, rtol=0, atol=1e-9)


def test_stop_weights_use_the_centered_spread():
    # a covariate shifted far from 0 is weighed by its centered spread; a
    # constant one, which centers to rounding noise, by the floor
    data, _ = synth.generate(synth.SynthSpec(n_samples=200, seed=2, n_cov=2))
    grid = make_rank_grid(1, 6)
    base = solver._stop_weights(center_covariates(data), grid)
    X = data.X + [2000.0, -5e4]
    shifted = solver._stop_weights(center_covariates(replace(data, X=X)), grid)
    np.testing.assert_allclose(shifted, base, rtol=1e-9)
    X = np.hstack([data.X[:, :1], np.full((200, 1), 7.0)])
    w = solver._stop_weights(center_covariates(replace(data, X=X)), grid)
    np.testing.assert_allclose(w[:, 2], 1.0 / (solver.X_SCALE_FLOOR * 7.0 * grid.mu))


def test_reported_gap_bounded_by_tol():
    data, _ = synth.generate(synth.SynthSpec(n_samples=5000, seed=7))
    data = center_covariates(data)
    grid = make_rank_grid(1, 20)
    tol = 1e-7
    for eps in (1.0, 0.5):
        _, _, report = solver.solve(data, grid, SolverConfig(epsilon=eps, tol=tol))
        assert report.duality_gap <= 10 * tol * max(1.0, abs(report.objective))
        assert report.grad_inf <= tol


def _fit_instance(n=1200, order=None):
    """synth seed 7 with its rows in `order` (a function of the raw data
    returning a permutation), centered, and a 10-node grid."""
    data, _ = synth.generate(synth.SynthSpec(n_samples=n, seed=7))
    if order is not None:
        rows = order(data)
        data = replace(data, X=data.X[rows], Y=data.Y[rows])
    return center_covariates(data), make_rank_grid(1, 10)


def _assert_gates(result, tol=1e-7):
    """The benchmark's gates on a fit: converged, gap < 1e-5, row residual
    < 1e-12, column and mean-independence residuals < 1e-6."""
    assert not isinstance(result, NonConvergenceError), result
    _, coupling, r = result
    assert r.converged and r.grad_inf <= tol and r.duality_gap < 1e-5
    assert np.abs(coupling.row_residual).max() < 1e-12
    assert np.abs(coupling.col_residual).max() < 1e-6
    assert np.abs(coupling.mi_residual).max() < 1e-6


def test_small_solve_keeps_one_level_and_its_counters():
    # 1,200 rows on 10 nodes are fewer than COARSE_MIN_ENTRIES entries: the
    # solve never starts from a coarse level, and these are the counters of
    # the solver before the level existed
    data, grid = _fit_instance()
    assert grid.n_nodes * data.n_obs < solver.COARSE_MIN_ENTRIES
    for eps, counts in ((0.1, (2, 6, 9, 1, 36)), (0.01, (4, 8, 12, 0, 70))):
        _, _, r = solver.solve(data, grid, SolverConfig(epsilon=eps, tol=1e-7))
        assert r.levels == (1200,)
        assert (r.stages, r.iterations, r.oracle_calls, r.backtracks,
                r.cg_products) == counts


@pytest.mark.parametrize("entries, levels", [(12000, (300, 1200)),
                                             (3000, (75, 300, 1200)),
                                             (0, (19, 75, 300, 1200))])
def test_large_solve_starts_from_the_coarse_level(monkeypatch, entries, levels):
    # with COARSE_MIN_ENTRIES lowered, 1,200 rows on 10 nodes start from the
    # solve on rows 0, 4, 8, ..., itself started from rows 0, 16, 32, ...
    # while its own entries reach the threshold and it keeps 4 rows per
    # node. It meets the gates, and its psi-dual value is the one-level
    # solve's. Every counter sums its levels.
    data, grid = _fit_instance()
    cfg = SolverConfig(epsilon=0.1, tol=1e-7)
    _, _, one = solver.solve(data, grid, cfg)
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", entries)
    passes = []
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate",
                        lambda sd, z, eps: passes.append(sd.data.n_obs) or real(sd, z, eps))
    products = _count_calls(monkeypatch, solver.SemiDual, "hvp")
    result = solver.solve(data, grid, cfg)
    _assert_gates(result)
    dv, _, r = result
    assert r.levels == levels
    assert abs(r.objective - one.objective) <= 1e-10 * abs(one.objective)
    assert np.all(dv.b[0] == 0.0)
    # the levels run coarse first, each on its own rows
    assert [n for n in dict.fromkeys(passes)] == list(levels)
    assert r.oracle_calls == len(passes) == r.stages + r.iterations + r.backtracks
    assert r.cg_products == len(products)
    # the full level runs the one rung at epsilon
    assert r.stages > len(levels) and passes.count(1200) < one.oracle_calls


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("order", ["sorted_y", "low_x_every_4th"])
def test_coarse_level_survives_adversarial_row_orders(monkeypatch, order, eps):
    # rows sorted by y, or every 4th row from the lowest covariate quartile,
    # so that the coarse level sees only that quartile
    def low_x_every_4th(data):
        by_x = np.argsort(data.X[:, 0], kind="stable")
        rows = np.empty(data.n_obs, dtype=int)
        rows[::4], rows[np.arange(data.n_obs) % 4 != 0] = np.split(by_x, [300])
        return rows

    orders = {"sorted_y": lambda data: np.argsort(data.Y[:, 0], kind="stable"),
              "low_x_every_4th": low_x_every_4th}
    data, grid = _fit_instance(order=orders[order])
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 12000)
    passes = []  # (rows, z, lse) of each semi-dual pass
    real = solver.SemiDual.evaluate

    def evaluate(sd, z, eps):
        out = real(sd, z, eps)
        passes.append((sd.data.n_obs, z.copy(), out[2].copy()))
        return out

    monkeypatch.setattr(solver.SemiDual, "evaluate", evaluate)
    result = next(solver.solve_chain(data, grid, [SolverConfig(epsilon=eps, tol=1e-7)]))
    _assert_gates(result)
    assert result[2].levels == (300, 1200)
    # the full level starts at the coarse z as it is, in the same gauge:
    # the coarse rows, in the full sample's centering, get the same scores
    coarse = [lse for n, _, lse in passes if n == 300][-1]
    z, lse = next((z, lse) for n, z, lse in passes if n == 1200)
    assert np.all(z[0] == 0.0)
    np.testing.assert_allclose(lse[::4], coarse, rtol=0, atol=1e-12 * np.abs(coarse).max())


@pytest.mark.parametrize("max_iter", [1, 3])
def test_capped_solve_keeps_the_coarse_level_steps(monkeypatch, max_iter):
    # max_iter bounds the Newton steps of every level together. Capped below
    # what the coarse level needs, it spends them all there and ends above
    # STAGE_TOL; the full level starts from the point those steps reached,
    # walks the whole ladder and, with no step left, evaluates its last rung
    data, grid = _fit_instance()
    cfg = SolverConfig(epsilon=0.1, tol=1e-7, max_iter=max_iter)

    def residual(z):  # of the psi-dual point read off z
        lse = solver.SemiDual(data, grid).evaluate(z, 0.1)[2]
        c = solver.extract_coupling(solver.DualVariables(
            psi=0.1 * (lse - np.log(data.nu)), b=z[:, 1:]), data, grid, 0.1)
        return max(np.abs(c.col_residual).max(), np.abs(c.mi_residual).max())

    at_zero = residual(np.zeros((grid.n_nodes, 2)))
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 12000)
    passes = []  # (rows, eps, z) of each semi-dual pass
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate", lambda sd, z, eps: passes.append(
        (sd.data.n_obs, eps, z.copy())) or real(sd, z, eps))
    with pytest.raises(NonConvergenceError) as exc:
        solver.solve(data, grid, cfg)
    r = exc.value.report
    assert r.levels == (300, 1200) and r.iterations == max_iter and not r.converged
    assert r.oracle_calls == len(passes) == r.stages + r.iterations + r.backtracks
    # the one full-level pass is at the coarse level's last point, bit for bit
    (_, eps, z), = [p for p in passes if p[0] == 1200]
    coarse = [z for n, _, z in passes if n == 300][-1]
    np.testing.assert_array_equal(z, coarse)
    assert eps == 0.1 and np.abs(z).max() > 0 and np.all(z[0] == 0.0)
    dv, coupling = exc.value.best
    np.testing.assert_array_equal(dv.b, z[:, 1:])
    assert np.isfinite(dv.psi).all() and np.isfinite(coupling.alpha).all()
    assert np.isfinite(r.objective) and r.grad_inf < at_zero


def test_chain_solves_one_coarse_level_at_most(monkeypatch):
    # a first config that does not converge leaves the next one cold: it
    # starts from z = 0 on the full workspace, without a second coarse level
    data, grid = _fit_instance()
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 12000)
    sizes = []
    real = solver.SemiDual.__init__
    monkeypatch.setattr(solver.SemiDual, "__init__",
                        lambda sd, data, grid: sizes.append(data.n_obs) or real(sd, data, grid))
    cfgs = [SolverConfig(epsilon=0.5, tol=1e-7, max_iter=1), SolverConfig(epsilon=0.1, tol=1e-7)]
    first, second = solver.solve_chain(data, grid, cfgs)
    assert isinstance(first, NonConvergenceError) and first.report.levels == (300, 1200)
    _assert_gates(second)
    assert second[2].levels == (1200,) and sizes == [300, 1200]
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", 10 ** 18)
    _, _, cold = solver.solve(data, grid, cfgs[1])
    assert second[2].oracle_calls == cold.oracle_calls


@pytest.mark.parametrize("law", ["positive", "mixed", "negative", "zero"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spread_is_the_range_of_the_scores(rng, d, law):
    # from the end nodes of each axis, the spread of u_i.y_j on a
    # tensor-product grid is bit for bit that of all I J scores
    Y = rng.standard_normal((40, d))
    Y = {"positive": np.abs(Y), "mixed": Y, "negative": -np.abs(Y), "zero": 0 * Y}[law]
    data = Dataset(X=np.zeros((40, 0)), Y=Y, nu=np.full(40, 1 / 40), x_mean=np.zeros(0))
    for n in (2, 3, 5):
        grid = make_rank_grid(d, n)
        assert solver._spread(data, grid) == np.ptp(grid.U @ data.Y.T)


def test_ladder_reads_the_spread_only_when_a_rung_fits_below_eps_z(monkeypatch):
    # on nodes 1/2 and 1 and the responses 10 and 0, u.y spans exactly 10
    data = Dataset(X=np.zeros((2, 0)), Y=[[10.0], [0.0]], nu=[0.5, 0.5], x_mean=[])
    grid = make_rank_grid(1, 2)
    calls = _count_calls(monkeypatch, solver, "_spread")
    assert solver._ladder(0.02, 0.08, data, grid) == [0.02] and len(calls) == 0
    assert solver._ladder(0.02, 0.0801, data, grid) == [0.08, 0.02] and len(calls) == 1
    # the top rung is the largest at most LADDER_TOP * 10 = 4
    assert solver._ladder(0.02, math.inf, data, grid) == [1.28, 0.32, 0.08, 0.02]


@pytest.mark.parametrize("epsilon", [0.1, 1e-300])
@pytest.mark.parametrize("eps_z", [0.5, 7.0, 1e-290, math.inf])
def test_ladder_rungs_are_epsilon_times_powers_of_four(epsilon, eps_z):
    # each rung is epsilon 4^k bit for bit: the spread here is 10, so the
    # top rung is the largest of them at most 4 and below eps_z
    data = Dataset(X=np.zeros((2, 0)), Y=[[10.0], [0.0]], nu=[0.5, 0.5], x_mean=[])
    ladder = solver._ladder(epsilon, eps_z, data, make_rank_grid(1, 2))
    top = len(ladder) - 1
    assert ladder == [epsilon * solver.LADDER_RATIO ** k for k in range(top, -1, -1)]
    assert ladder[0] < eps_z or top == 0
    assert ladder[0] <= 4.0 and (ladder[0] * 4 > 4.0 or ladder[0] * 4 >= eps_z)


@pytest.mark.parametrize("epsilon, y", [(0.1, 1e308), (5e-324, 1.0), (5e-324, 1e308)])
def test_ladder_ends_finite_where_the_powers_of_four_overflow(epsilon, y):
    # an infinite spread of u.y, or a subnormal epsilon, takes 4^k past the
    # float64 range before the top rung: the rungs stay finite, descend
    # strictly and end at epsilon, and the top one is the last below the
    # spread's bound 0.8 or the last finite one
    data = Dataset(X=np.zeros((2, 0)), Y=[[y], [-y]], nu=[0.5, 0.5], x_mean=[])
    grid = make_rank_grid(1, 2)
    with np.errstate(over="ignore"):
        assert solver._spread(data, grid) == (math.inf if y == 1e308 else 2.0)
        ladder = solver._ladder(epsilon, math.inf, data, grid)
    assert np.isfinite(ladder).all() and ladder[-1] == epsilon
    assert all(a > b for a, b in zip(ladder, ladder[1:]))
    assert ladder[0] * 4 == math.inf or ladder[0] * 4 > 0.8


@pytest.mark.parametrize("case", ["cold", "coarse", "warm", "first_fails"])
def test_every_walk_starts_by_one_rule(monkeypatch, case):
    # every walk starts from a pair (z, eps_z) and runs the rungs eps 4^k
    # strictly below eps_z and at most LADDER_TOP times the spread, then
    # eps: eps_z = inf for a cold start, on the full sample or on the coarse
    # rows, eps on the full sample after a coarse level that reached
    # STAGE_TOL, and the last converged epsilon in a chain.
    data, grid = _fit_instance()
    cfg = SolverConfig(epsilon=0.02, tol=1e-7)
    capped = SolverConfig(epsilon=0.1, tol=1e-12, max_iter=1)
    cfgs, coarse_min = {
        "cold": ([cfg], solver.COARSE_MIN_ENTRIES),
        "coarse": ([cfg], 12000),
        "warm": ([SolverConfig(epsilon=0.32, tol=1e-7), cfg], 10 ** 18),
        "first_fails": ([capped, cfg], 10 ** 18),
    }[case]
    monkeypatch.setattr(solver, "COARSE_MIN_ENTRIES", coarse_min)

    def rungs(eps, eps_z, rows=slice(None)):
        top = solver.LADDER_TOP * np.ptp(grid.U @ data.Y[rows].T)
        return [eps * 4.0 ** k for k in range(60, 0, -1)
                if eps * 4.0 ** k < eps_z and eps * 4.0 ** k <= top] + [eps]

    # the cold ladder at 0.02 on these rows is 0.32, 0.08, 0.02
    assert rungs(0.02, math.inf) == [0.32, 0.08, 0.02]
    expected = {  # per config: the full level's rungs, and the coarse level's
        "cold": [(rungs(0.02, math.inf), None)],
        "coarse": [([0.02], rungs(0.02, math.inf, slice(None, None, 4)))],
        "warm": [(rungs(0.32, math.inf), None), ([0.08, 0.02], None)],
        "first_fails": [(None, None), (rungs(0.02, math.inf), None)],
    }[case]
    seen = []  # (rows, eps) of each semi-dual pass
    real = solver.SemiDual.evaluate
    monkeypatch.setattr(solver.SemiDual, "evaluate", lambda sd, z, eps: seen.append(
        (sd.data.n_obs, eps)) or real(sd, z, eps))
    results = solver.solve_chain(data, grid, cfgs)
    for config, result, (full, coarse) in zip(cfgs, results, expected, strict=True):
        assert isinstance(result, NonConvergenceError) == (config is capped)
        for rows, want in ((1200, full), (300, coarse)):
            eps_seen = [e for n, e in seen if n == rows]
            if want is not None:
                assert eps_seen == sorted(eps_seen, reverse=True)
                assert list(dict.fromkeys(eps_seen)) == want
        seen.clear()


def test_nonfinite_log_sum_exps_are_a_config_error(tmp_path, capsys, monkeypatch):
    # a walk that ends on a log-sum-exp of nan: the dual point is refused
    # as not finite, without blaming epsilon, and fit writes no model
    real = solver._walk

    def nan_lse(*args):
        z, r, lse = real(*args)
        lse = lse.copy()
        lse[0] = np.nan
        return z, r, lse

    monkeypatch.setattr(solver, "_walk", nan_lse)
    data, grid = _fit_instance(n=300)
    message = ("the dual point at epsilon 0.5 is not finite: b or the log-sum-exps "
               "are not finite")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        solver.solve(data, grid, SolverConfig(epsilon=0.5))
    csv, model = str(tmp_path / "d.csv"), tmp_path / "m.json"
    assert cli.main(["synth", "--out", csv, "--n-samples", "300"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["fit", "--data", csv, "--x-cols", "x_1", "--y-cols", "y_1",
                     "--grid", "10", "--epsilon", "0.5", "--out", str(model)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("eps", [2e307, 1e308])
def test_overflowing_psi_is_a_config_error(eps):
    # psi = eps (lse - log nu) overflows at a huge epsilon: no point is
    # returned, converged or not
    data, grid = _fit_instance()
    with pytest.raises(ConfigError, match=re.escape(f"epsilon {eps:g} ")):
        solver.solve(data, grid, SolverConfig(epsilon=eps))
    chain = solver.solve_chain(data, grid, [SolverConfig(epsilon=e) for e in (eps, 0.1)])
    with pytest.raises(ConfigError):
        next(chain)
    # 1e307 still fits in float64
    dv, _, r = solver.solve(data, grid, SolverConfig(epsilon=1e307))
    assert r.converged and np.isfinite(dv.psi).all() and np.isfinite(r.objective)
