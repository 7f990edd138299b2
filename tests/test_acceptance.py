"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (bypassing capture) and asserts the
stated tolerance. The random instance battery is generated once per session
and shared between the gradient, duality-gap and feasibility criteria.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from rvqr import cli, oracles, quantiles, solver, synth
from rvqr.classical_qr import empirical_quantile, fit_qr_curve
from rvqr.measures import (
    Dataset,
    center_covariates,
    make_rank_grid,
    value_scale,
)
from rvqr.solver import DualVariables, SolverConfig


def _report(capsys, num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_instances(seed=0, count=20):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = int(rng.integers(1, 3))
        J = int(rng.integers(10, 51))
        N = int(rng.integers(1, 4))
        n = int(rng.integers(3, 21)) if d == 1 else int(rng.integers(2, 5))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        data = center_covariates(Dataset(
            X=rng.standard_normal((J, N)), Y=rng.standard_normal((J, d)),
            nu=np.full(J, 1.0 / J), x_mean=np.zeros(N)))
        out.append((data, make_rank_grid(d, n), eps))
    return out


@pytest.fixture(scope="session")
def instances():
    return _random_instances()


@pytest.fixture(scope="session")
def solved_instances(instances):
    t0 = time.perf_counter()
    solved = []
    for data, grid, eps in instances:
        cfg = SolverConfig(epsilon=eps, tol=1e-9, max_iter=50000)
        dv, coupling, report = solver.solve(data, grid, cfg)
        solved.append((data, grid, eps, dv, coupling, report))
    return solved, time.perf_counter() - t0


@pytest.fixture(scope="session")
def synth_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("acc") / "synth.csv")
    assert cli.main(["synth", "--out", path, "--n-samples", "1000",
                     "--seed", "7"]) == cli.EXIT_OK
    return path


def test_criterion_01_gradient_correctness(capsys, instances):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for data, grid, eps in instances:
        dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                           b=rng.standard_normal((grid.n_nodes, data.n_cov)))
        worst = max(worst, oracles.check_gradient_fd(dv, data, grid, eps,
                                                     n_coords=30, seed=1))
    worst_small = 0.0
    for data, grid, _ in instances[:3]:
        dv = DualVariables(psi=rng.standard_normal(data.n_obs),
                           b=rng.standard_normal((grid.n_nodes, data.n_cov)))
        worst_small = max(worst_small, oracles.check_gradient_fd(
            dv, data, grid, 0.05, n_coords=30, seed=1))
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "gradient vs finite differences",
            worst <= 1e-5 and worst_small <= 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e} (eps=0.05: {worst_small:.2e}), {elapsed:.1f}s")


def test_criterion_02_duality_gap(capsys, solved_instances):
    solved, elapsed = solved_instances
    worst = 0.0
    for data, grid, eps, dv, coupling, report in solved:
        # J at the returned point, plus the constant its log-sum-exps drop
        dual = report.objective - eps * float(grid.mu @ np.log(grid.mu))
        primal = solver.primal_value(coupling, grid, data, eps)
        worst = max(worst, abs(primal - dual) / max(abs(dual), 1e-300))
    _report(capsys, 2, "relative duality gap",
            worst <= 1e-6 and elapsed < 60.0,
            f"max rel gap {worst:.2e}, {elapsed:.1f}s for 20 solves")


def test_criterion_03_feasibility(capsys, solved_instances):
    solved, _ = solved_instances
    col = max(np.abs(c.col_residual).max() for *_, c, _ in solved)
    mi = max((np.abs(c.mi_residual).max() if c.mi_residual.size else 0.0)
             for *_, c, _ in solved)
    row = max(np.abs(c.row_residual).max() for *_, c, _ in solved)
    _report(capsys, 3, "marginal and mean-independence feasibility",
            col <= 1e-6 and mi <= 1e-6 and row <= 1e-12,
            f"col {col:.2e}, mi {mi:.2e}, row {row:.2e}")


def test_criterion_04_sinkhorn_equivalence(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for J in (5, 10, 20):
        y = np.sort(rng.standard_normal(J))[:, None]
        data = Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1.0 / J),
                       x_mean=np.zeros(1))
        grid = make_rank_grid(1, J)
        worst = max(worst, oracles.check_against_sinkhorn(
            data, grid, 0.1, tol=1e-9))
    _report(capsys, 4, "constant-covariate match with Sinkhorn oracle",
            worst <= 1e-6, f"max coupling deviation {worst:.2e}")


def test_criterion_05_gauge_invariance(capsys):
    rng = np.random.default_rng(3)
    data = center_covariates(Dataset(
        X=rng.standard_normal((30, 2)), Y=rng.standard_normal((30, 1)),
        nu=np.full(30, 1 / 30), x_mean=np.zeros(2)))
    grid = make_rank_grid(1, 8)
    dv = DualVariables(psi=rng.standard_normal(30),
                       b=rng.standard_normal((8, 2)))
    eps = 0.4

    def obj(psi, b):
        return solver.extract_coupling(DualVariables(psi=psi, b=b), data, grid, eps).objective

    base = obj(dv.psi, dv.b)
    worst = 0.0
    for _ in range(10):
        lam = rng.standard_normal()
        c = rng.standard_normal(2)
        shifted = obj(dv.psi + lam, dv.b)
        moved = obj(dv.psi - data.X @ c, dv.b + c[None, :])
        worst = max(worst, abs(shifted - base), abs(moved - base))
    worst /= max(abs(base), 1.0)
    _report(capsys, 5, "gauge invariance of the dual objective",
            worst <= 1e-12, f"max rel change {worst:.2e}")


def test_criterion_06_1d_consistency(capsys):
    t0 = time.perf_counter()
    spec = synth.SynthSpec()  # 2000 samples, seed 7
    raw, _ = synth.generate(spec)
    data = center_covariates(raw)
    grid = make_rank_grid(1, 20)
    _, coupling, _ = solver.solve(data, grid,
                                  SolverConfig(epsilon=0.1, tol=1e-7))
    model = quantiles.QuantileModel.from_fit(coupling, data, grid, 0.1)
    tol = 0.1 * value_scale(data.Y)
    worst = 0.0
    for lv in (0.1, 0.3, 0.6, 0.9):
        raw_x = empirical_quantile(raw.X[:, 0], lv)
        x = raw_x - data.x_mean[0]
        eta = float(np.quantile(np.abs(data.X[:, 0] - x), 0.05))
        for i in range(1, grid.n_nodes - 1):
            q = quantiles.ball_conditional_quantile(model, [x], eta, i)[0]
            q_true = synth.true_quantile(spec, [raw_x], [grid.U[i, 0]])[0]
            worst = max(worst, abs(q - q_true))
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, "1-D consistency on synthetic truth",
            worst <= tol and elapsed < 120.0,
            f"sup error {worst:.3f} (tol {tol:.3f}), {elapsed:.1f}s")


def test_criterion_07_qr_error_trend(capsys, synth_csv, tmp_path):
    out = str(tmp_path / "cmp.csv")
    code = cli.main(["compare-qr", "--data", synth_csv, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "20",
                     "--epsilons", "0.05,0.1,0.5,1",
                     "--probes", "q10,q30,q60,q90", "--tol", "1e-7",
                     "--out", out])
    assert code == cli.EXIT_OK
    rows = [ln.split(",") for ln in Path(out).read_text().strip().splitlines()[1:]]
    table = np.array([[float(v) for v in r[1:]] for r in rows])
    monotone = bool(np.all(np.diff(table, axis=1) >= -1e-12))
    _report(capsys, 7, "QR-vs-transport error nondecreasing in epsilon",
            monotone, f"rows {[[round(float(v), 4) for v in r] for r in table]}")


def test_criterion_08_soft_hard_gap(capsys, synth_csv, tmp_path):
    out = str(tmp_path / "softhard.csv")
    code = cli.main(["compare-qr", "--data", synth_csv, "--x-cols", "x_1",
                     "--y-cols", "y_1", "--grid", "20",
                     "--epsilons", "0.05,1", "--probes", "q30",
                     "--mode", "softhard", "--tol", "1e-7", "--out", out])
    assert code == cli.EXIT_OK
    row = Path(out).read_text().strip().splitlines()[1].split(",")
    gap_small, gap_big = float(row[1]), float(row[2])
    _report(capsys, 8, "soft/hard quantile gap grows with epsilon",
            gap_small < gap_big,
            f"gap(0.05) = {gap_small:.3f} < gap(1) = {gap_big:.3f}")


def test_criterion_09_change_of_variables(capsys):
    rng = np.random.default_rng(4)
    T = J = 8
    U = np.arange(1, T + 1, dtype=float) / T
    y = rng.standard_normal(J)
    worst_rt, worst_obj = 0.0, 0.0
    for _ in range(10):
        # exactly feasible plan: mixture of permutation assignments
        pi = np.zeros((T, J))
        w = rng.dirichlet(np.ones(4))
        for wk in w:
            pi[np.arange(T), rng.permutation(J)] += wk / J
        V = oracles.inverse_cov_transform(pi)
        back = oracles.monotone_cov_transform(V)
        worst_rt = max(worst_rt, float(np.abs(back - pi).max()))
        lhs = float(np.sum(pi * np.outer(U, y)))
        rhs = float(np.ones(T) @ V @ y) / (T * J)
        worst_obj = max(worst_obj, abs(lhs - rhs))
    _report(capsys, 9, "monotone change-of-variables bijection",
            worst_rt <= 1e-12 and worst_obj <= 1e-12,
            f"roundtrip {worst_rt:.2e}, objective {worst_obj:.2e}")


def test_criterion_10_classical_qr_baseline(capsys):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(201)  # atom-free, non-integer t*J below
    data = Dataset(X=np.zeros((201, 0)), Y=y[:, None],
                   nu=np.full(201, 1 / 201), x_mean=np.zeros(0))
    tol = 1e-9 * value_scale(y)
    worst_pos, worst_count = 0.0, 0.0
    for t in (0.1, 0.25, 0.5, 0.8):
        fit = fit_qr_curve(data, [t])[0]
        worst_pos = max(worst_pos, abs(fit.alpha - empirical_quantile(y, t)))
        frac_above = float(np.mean(y > fit.alpha))
        worst_count = max(worst_count, abs(frac_above - (1 - t)))
    _report(capsys, 10, "pinball baseline vs empirical quantile",
            worst_pos <= tol and worst_count <= 2 / 201,
            f"offset {worst_pos:.2e} (tol {tol:.2e}), "
            f"count residual {worst_count:.4f} (tol {2 / 201:.4f})")


def test_criterion_11_monotonicity(capsys):
    rng = np.random.default_rng(7)
    J = 400
    y = rng.standard_normal(J)[:, None]
    data = Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1.0 / J),
                   x_mean=np.zeros(1))
    grid = make_rank_grid(1, 20)
    _, coupling, _ = solver.solve(data, grid,
                                  SolverConfig(epsilon=0.01, tol=1e-7))
    model = quantiles.QuantileModel.from_fit(coupling, data, grid, 0.01)
    tol = 1e-6 * value_scale(y)
    violations = quantiles.monotonicity_diagnostic(model, [0.0], eta=1e9,
                                                   tol=tol)
    _report(capsys, 11, "rank-monotone quantile curve at small epsilon",
            len(violations) == 0, f"{len(violations)} violations (tol {tol:.1e})")
