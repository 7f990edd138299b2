"""Independent verification machinery.

Deliberately shares no softmax/log-sum-exp code with the solver: everything
here goes through scipy.special.logsumexp or explicit summation, so an
agreement between the two routes is evidence, not tautology. The
Koenker-Bassett reference and the exact transport LP go through HiGHS
(scipy.optimize.linprog), not the classical_qr dual simplex or the solver;
the solver's primal_value measures both sides of the LP check.
"""

import numpy as np
from scipy import sparse
from scipy.special import logsumexp

from . import classical_qr
from . import solver as rvqr_solver
from .errors import ConfigError, NonConvergenceError
from .solver import SolverConfig

FD_STEP = 1e-5  # central-difference step of the finite-difference checks


def sinkhorn(mu, nu, G, epsilon, tol=1e-10, max_iter=100000):
    """Entropic OT in the gain convention: maximize sum(pi * G) - eps * sum(pi log pi)
    subject to both marginals, by alternating log-domain scalings. Returns
    the coupling.

    epsilon scaling: the potentials are warm-started along the ladder
    epsilon * 2^k, k = K, ..., 1, 0, whose top stage is at least half the
    spread of G, so the final stage starts next to its solution. Every stage
    runs to the residual tol; max_iter bounds the sweeps of all stages
    together.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    G = np.asarray(G, dtype=float)
    if (mu <= 0).any() or (nu <= 0).any():
        raise ConfigError("marginals must be strictly positive")
    if abs(mu.sum() - 1) > 1e-10 or abs(nu.sum() - 1) > 1e-10:
        raise ConfigError("marginals must sum to 1")

    ladder = [epsilon]
    while ladder[0] < 0.5 * float(G.max() - G.min()):
        ladder.insert(0, 2.0 * ladder[0])
    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    it = 0
    row = col = np.inf
    for eps in ladder:
        while it < max_iter:
            it += 1
            f = eps * logsumexp((G - g[None, :]) / eps, axis=1) - eps * np.log(mu)
            g = eps * logsumexp((G - f[:, None]) / eps, axis=0) - eps * np.log(nu)
            pi = np.exp((G - f[:, None] - g[None, :]) / eps)
            row = float(np.abs(pi.sum(axis=1) - mu).max())
            col = float(np.abs(pi.sum(axis=0) - nu).max())
            if max(row, col) <= tol:
                break
        else:
            raise NonConvergenceError(
                f"Sinkhorn residuals ({row:.3e}, {col:.3e}) above tol after "
                f"{max_iter} iterations"
            )
    return pi


def check_against_sinkhorn(data, grid, epsilon, tol=1e-10):
    """With centered covariates identically zero, the mean-independence
    constraint is vacuous and the solver must match plain entropic OT on the
    gain u_i.y_j. Returns the max entrywise coupling deviation."""
    if data.n_cov and np.abs(data.X).max() > 1e-12:
        raise ConfigError("this check requires X identically zero after centering")
    cfg = SolverConfig(epsilon=epsilon, tol=tol)
    _, coupling, _ = rvqr_solver.solve(data, grid, cfg)
    pi = sinkhorn(grid.mu, data.nu, grid.U @ data.Y.T, epsilon, tol=tol)
    return float(np.abs(coupling.alpha - pi).max())


def check_gradient_fd(dv, data, grid, epsilon, n_coords=50, seed=0):
    """Central finite differences of the dual objective against its gradient,
    minus the column and mean-independence residuals, on a random subset of
    coordinates: extract_coupling reads J off the row log-sum-exps and the
    residuals off the sums of alpha. Returns the max error scaled by the
    gradient's inf-norm."""
    coupling = rvqr_solver.extract_coupling(dv, data, grid, epsilon)
    flat = -np.concatenate([coupling.col_residual, coupling.mi_residual.ravel()])
    scale = max(float(np.abs(flat).max()), 1e-12)

    J = dv.psi.size
    n_total = J + dv.b.size
    rng = np.random.default_rng(seed)
    coords = rng.choice(n_total, size=min(n_coords, n_total), replace=False)

    def obj(psi, b):
        return rvqr_solver.extract_coupling(
            rvqr_solver.DualVariables(psi=psi, b=b), data, grid, epsilon).objective

    worst = 0.0
    for c in coords:
        psi_p, b_p = dv.psi.copy(), dv.b.copy()
        psi_m, b_m = dv.psi.copy(), dv.b.copy()
        if c < J:
            psi_p[c] += FD_STEP
            psi_m[c] -= FD_STEP
        else:
            i, k = divmod(c - J, dv.b.shape[1])
            b_p[i, k] += FD_STEP
            b_m[i, k] -= FD_STEP
        fd = (obj(psi_p, b_p) - obj(psi_m, b_m)) / (2 * FD_STEP)
        worst = max(worst, abs(fd - flat[c]) / scale)
    return worst


def check_semidual_fd(data, grid, z, epsilon, seed=0):
    """The objective the solver minimizes, at z: SemiDual's F against its
    definition through scipy's logsumexp, its gradient against central
    differences of F in every coordinate, and its Hessian-vector products
    against central differences of the gradient along three random
    directions. Returns the largest error, scaled by max(1, |F|), the
    gradient's inf-norm and each product's inf-norm."""
    sd = rvqr_solver.SemiDual(data, grid)
    f, grad, _ = sd.evaluate(z, epsilon)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((3,) + z.shape)
    products = [sd.hvp(v, epsilon) for v in dirs]  # at z, the last point evaluated

    a = np.vstack([np.ones(data.n_obs), data.X.T])
    s = (grid.U @ data.Y.T - z @ a) / epsilon
    expect = float(grid.mu @ (z @ (a @ data.nu)) + epsilon * data.nu @ logsumexp(s, axis=0))
    worst = abs(f - expect) / max(1.0, abs(expect))

    scale = max(float(np.abs(grad).max()), 1e-12)
    for c in range(z.size):
        e = np.zeros(z.shape)
        e.flat[c] = FD_STEP
        fd = (sd.evaluate(z + e, epsilon)[0] - sd.evaluate(z - e, epsilon)[0]) / (2 * FD_STEP)
        worst = max(worst, abs(fd - grad.flat[c]) / scale)
    for v, hv in zip(dirs, products):
        fd = (sd.evaluate(z + FD_STEP * v, epsilon)[1]
              - sd.evaluate(z - FD_STEP * v, epsilon)[1]) / (2 * FD_STEP)
        worst = max(worst, float(np.abs(fd - hv).max())
                    / max(float(np.abs(hv).max()), 1e-12))
    return worst


def _highs(c, A_eq, b_eq, bounds):
    """scipy's HiGHS result for min c.x s.t. A_eq x = b_eq within bounds, at
    feasibility tolerances of 1e-10: at the defaults, 1e-7, a Koenker-Bassett
    optimum can be 1e-8 of the spread off. NonConvergenceError otherwise."""
    # imported here: scipy.optimize loads scipy.linalg, which no command uses
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise NonConvergenceError(f"HiGHS: {res.message}")
    return res


def koenker_bassett_lp(data, t):
    """Koenker-Bassett fit at level t by HiGHS on the rank-score LP
    max sum_j nu_j y_j a_j s.t. sum_j nu_j a_j (1, x_j) = (1 - t) sum_j nu_j
    (1, x_j), 0 <= a <= 1. Returns (coef, value): coef = (alpha, beta) is
    minus the equality rows' multipliers, and value the LP optimum, the
    minimum of E (Y - alpha - beta.X)^+ + (1 - t)(alpha + beta.E X).
    """
    A = (data.nu[:, None] * np.column_stack([np.ones(data.n_obs), data.X])).T
    res = _highs(-data.nu * data.Y[:, 0], A, (1.0 - t) * A.sum(axis=1), (0.0, 1.0))
    return -res.eqlin.marginals, -float(res.fun)


def vqr_lp(data, grid):
    """The unregularized fit by HiGHS on the transport LP: max sum_ij pi_ij
    u_i.y_j over pi >= 0 with row sums mu, column sums nu (the last of them,
    implied by the others, dropped) and sum_j pi_ij x_j = 0 at every node i.
    Returns its plan as a Coupling whose objective is the LP optimum V_LP.
    """
    I, J = grid.n_nodes, data.n_obs
    A = sparse.vstack([sparse.kron(sparse.eye(I), np.ones((1, J))),
                       sparse.kron(np.ones((1, I)), sparse.eye(J - 1, J)),
                       sparse.kron(sparse.eye(I), data.X.T)], format="csr")
    b = np.concatenate([grid.mu, data.nu[:-1], np.zeros(I * data.n_cov)])
    res = _highs(-(grid.U @ data.Y.T).ravel(), A, b, (0.0, None))
    pi = res.x.reshape(I, J)
    return rvqr_solver.Coupling(pi, pi.sum(axis=1) - grid.mu, pi.sum(axis=0) - data.nu,
                                pi @ data.X, -float(res.fun))


def check_vqr_lp(data, grid):
    """The entropic fit at epsilon = 0.5, 0.1, 0.02, solved as one chain,
    against vqr_lp. Optimality gives gain(alpha_eps) <= V_LP, as alpha_eps is
    feasible, and primal_value(pi_LP) <= primal_value(alpha_eps), as
    alpha_eps maximizes it. Returns (reading, lp): the largest excess of a
    left side over its right side, scaled by the spread of u_i.y_j (negative
    when every inequality holds with slack), and vqr_lp's Coupling.
    """
    lp = vqr_lp(data, grid)
    G = grid.U @ data.Y.T
    epsilons = (0.5, 0.1, 0.02)
    cfgs = [SolverConfig(epsilon=eps, tol=1e-10) for eps in epsilons]
    worst = -np.inf
    for eps, result in zip(epsilons, rvqr_solver.solve_chain(data, grid, cfgs)):
        if isinstance(result, NonConvergenceError):
            raise result
        _, fit, _ = result
        worst = max(worst, float(np.sum(fit.alpha * G)) - lp.objective,
                    rvqr_solver.primal_value(lp, grid, data, eps)
                    - rvqr_solver.primal_value(fit, grid, data, eps))
    return worst / float(G.max() - G.min()), lp


def monotone_cov_transform(V):
    """Map a feasible monotone dual matrix V (T x J, columns nonincreasing,
    entries in [0,1]) to the transport plan pi = D^T V / J, D the T x T
    bidiagonal with 1 on the diagonal and -1 just below it: rows
    V_t - V_{t+1}, then V_T, over J."""
    V = np.asarray(V, dtype=float)
    if V.min() < -1e-8 or V.max() > 1 + 1e-8:
        raise ConfigError("V entries must lie in [0, 1]")
    J = V.shape[1]
    diffs = V[:-1] - V[1:]
    bad = np.argwhere(diffs < -1e-12)
    if bad.size:
        tau, j = bad[0]
        raise ConfigError(f"V column {j} increases between rows {tau} and {tau + 1}")
    return np.vstack([diffs, V[-1:]]) / J


def inverse_cov_transform(pi):
    """Inverse map V = (D^T)^{-1} pi J, i.e. reversed cumulative sums."""
    pi = np.asarray(pi, dtype=float)
    return np.cumsum(pi[::-1], axis=0)[::-1] * pi.shape[1]


def run_all_checks(seed=0):
    """Full oracle suite; returns {name: {passed, measured, tolerance}}."""
    from .measures import Dataset, center_covariates, make_rank_grid, value_scale

    rng = np.random.default_rng(seed)
    results = {}

    def record(name, measured, tolerance):
        results[name] = {
            "passed": bool(measured <= tolerance),
            "measured": float(measured),
            "tolerance": float(tolerance),
        }

    # independent-coupling limit of Sinkhorn
    pi = sinkhorn(np.full(4, 0.25), np.full(6, 1 / 6), np.zeros((4, 6)), 0.7)
    record("sinkhorn_zero_gain_product", float(
        np.abs(pi - np.outer(np.full(4, 0.25), np.full(6, 1 / 6))).max()), 1e-9)

    # solver vs Sinkhorn on a constant-covariate instance
    J = 10
    y = np.sort(rng.standard_normal(J))[:, None]
    data = Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1 / J), x_mean=np.zeros(1))
    grid = make_rank_grid(1, J)
    record("solver_matches_sinkhorn",
           check_against_sinkhorn(data, grid, 0.1, tol=1e-9), 1e-6)

    # finite-difference gradient agreement
    I, Jr, N, d = 5, 7, 2, 2
    datar = center_covariates(Dataset(
        X=rng.standard_normal((Jr, N)), Y=rng.standard_normal((Jr, d)),
        nu=np.full(Jr, 1 / Jr), x_mean=np.zeros(N)))
    gridr = make_rank_grid(d, 3)
    dv = rvqr_solver.DualVariables(psi=rng.standard_normal(Jr),
                                   b=rng.standard_normal((gridr.n_nodes, N)))
    record("gradient_finite_difference",
           check_gradient_fd(dv, datar, gridr, 0.5, seed=seed), 1e-5)

    # the entropic fit against the exact transport LP, with mean
    # independence active: J = 40, N = 1 on 8 nodes, and the
    # finite-difference instance (d = 2, N = 2, 3 x 3)
    X1 = rng.standard_normal((40, 1))
    data1 = center_covariates(Dataset(X=X1, Y=X1 + rng.standard_normal((40, 1)),
                                      nu=np.full(40, 1 / 40), x_mean=np.zeros(1)))
    grid1 = make_rank_grid(1, 8)
    reading, lp = check_vqr_lp(data1, grid1)
    record("entropic_fit_bounded_by_lp", max(reading, check_vqr_lp(datar, gridr)[0]), 1e-9)

    # the change of variables on the LP's plan; with U_tau = tau/T the
    # column-sum form of the gain carries a 1/(T J) factor
    U1, y1 = grid1.U[:, 0], data1.Y[:, 0]
    V = inverse_cov_transform(lp.alpha)
    record("cov_transform_roundtrip", np.abs(monotone_cov_transform(V) - lp.alpha).max(), 1e-12)
    record("cov_transform_objective",
           abs(U1 @ lp.alpha @ y1 - V.sum(axis=0) @ y1 / lp.alpha.size), 1e-12)

    # the dual simplex's pinball regression against the HiGHS rank-score LP;
    # t J is not an integer, so the coefficients are unique
    Xq = rng.standard_normal((203, 2))
    dataq = center_covariates(Dataset(
        X=Xq, Y=Xq @ [[1.0], [-0.5]] + rng.standard_normal((203, 1)),
        nu=np.full(203, 1 / 203), x_mean=np.zeros(2)))
    worst = max(np.abs(np.r_[f.alpha, f.beta] - koenker_bassett_lp(dataq, f.t)[0]).max()
                for f in classical_qr.fit_qr_curve(dataq, (0.1, 0.25, 0.5, 0.9)))
    record("classical_qr_matches_lp", worst / value_scale(dataq.Y[:, 0]), 1e-13)

    # the semi-dual the solver minimizes, on the finite-difference instance
    z = rng.standard_normal((gridr.n_nodes, 1 + N))
    record("semidual_finite_difference",
           check_semidual_fd(datar, gridr, z, 0.5, seed=seed), 1e-6)

    return results
